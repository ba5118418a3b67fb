import hashlib
import json
import os
import wave

import numpy as np
import pytest

from hmmsid.cli import _defaults, build_config, build_parser, main
from hmmsid.features import config_digest, read_features
from hmmsid.models import load_model, validate

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "reference_grids.json")

SMALL_SPEC = {
    "n_speakers": 2,
    "n_words": 2,
    "n_train": 2,
    "n_test_neutral": 2,
    "n_test_shouted": 2,
    "frames_min": 12,
    "frames_max": 16,
    "seed": 5,
}


def write_wav(path, samples, rate=8000):
    pcm = np.clip(np.asarray(samples) * 32768.0, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())


def tree_digest(root):
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(root)):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(base, name)
            h.update(os.path.relpath(full, root).encode())
            h.update(open(full, "rb").read())
    return h.hexdigest()


def parse(argv):
    return build_parser().parse_args(argv)


class TestConfigPrecedence:
    def test_defaults(self):
        cfg = build_config(parse(["train", "--manifest", "m", "--out", "o"]), environ={})
        assert cfg["variant"] == {
            "order": 1, "topology": "ltr", "n_states": 5, "n_mixtures": 5,
            "skip_width": 2,
        }
        assert cfg["scoring"] == "forward"
        assert cfg["frontend"]["cms"] is False

    def test_default_config_hash_is_pinned(self):
        # Every model file and report embeds this hash, so a changed default
        # or an added key would change them all.
        assert config_digest(_defaults()) == 11290888139826467529

    def test_config_file_overrides_defaults(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"variant": {"n_states": 7}, "scoring": "viterbi"}))
        cfg = build_config(
            parse(["train", "--manifest", "m", "--out", "o", "--config", str(p)]),
            environ={},
        )
        assert cfg["variant"]["n_states"] == 7
        assert cfg["variant"]["topology"] == "ltr"  # untouched default
        assert cfg["scoring"] == "viterbi"

    def test_env_overrides_config_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"variant": {"n_states": 7}}))
        cfg = build_config(
            parse(["train", "--manifest", "m", "--out", "o", "--config", str(p)]),
            environ={"HMMSID_VARIANT__N_STATES": "9", "HMMSID_FRONTEND__CMS": "true"},
        )
        assert cfg["variant"]["n_states"] == 9
        assert cfg["frontend"]["cms"] is True

    def test_flags_override_env(self):
        cfg = build_config(
            parse(["train", "--manifest", "m", "--out", "o", "--states", "4"]),
            environ={"HMMSID_VARIANT__N_STATES": "9"},
        )
        assert cfg["variant"]["n_states"] == 4

    def test_variant_label_sets_topology_and_order(self):
        cfg = build_config(
            parse(["train", "--manifest", "m", "--out", "o", "--variant", "circ2"]),
            environ={},
        )
        assert cfg["variant"]["topology"] == "circular"
        assert cfg["variant"]["order"] == 2

    def test_env_string_values_pass_through(self):
        cfg = build_config(
            parse(["train", "--manifest", "m", "--out", "o"]),
            environ={"HMMSID_SCORING": "viterbi"},
        )
        assert cfg["scoring"] == "viterbi"

    def test_state_count_guard(self):
        with pytest.raises(Exception, match="n_states"):
            build_config(
                parse(["train", "--manifest", "m", "--out", "o", "--states", "65"]),
                environ={},
            )

    def test_bad_scoring_guard(self):
        with pytest.raises(Exception, match="scoring"):
            build_config(
                parse(["train", "--manifest", "m", "--out", "o"]),
                environ={"HMMSID_SCORING": "magic"},
            )

    def test_unknown_variant_label(self):
        with pytest.raises(Exception, match="variant"):
            build_config(
                parse(["train", "--manifest", "m", "--out", "o", "--variant", "ring9"]),
                environ={},
            )


class TestFeaturesCommand:
    def test_wav_to_cache(self, tmp_path, capsys):
        rng = np.random.default_rng(60)
        wav = tmp_path / "utt.wav"
        write_wav(wav, 0.4 * rng.standard_normal(8000))
        out = tmp_path / "feats"
        rc = main(["features", str(wav), "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "ok utt" in printed
        fm = read_features(out / "utt.lpcf")
        assert fm.frames.shape == (98, 12)
        assert not fm.meta.cms_applied

    def test_cms_flag(self, tmp_path):
        rng = np.random.default_rng(61)
        wav = tmp_path / "utt.wav"
        write_wav(wav, 0.4 * rng.standard_normal(8000))
        out = tmp_path / "feats"
        assert main(["features", str(wav), "--out", str(out), "--cms"]) == 0
        fm = read_features(out / "utt.lpcf")
        assert fm.meta.cms_applied
        np.testing.assert_allclose(fm.frames.mean(axis=0), 0.0, atol=1e-10)

    def test_model_options_are_rejected(self, tmp_path):
        """features reads only --config and --cms/--no-cms; a model option
        such as --states is a usage error, not a silently checked value."""
        rng = np.random.default_rng(62)
        wav = tmp_path / "utt.wav"
        write_wav(wav, 0.4 * rng.standard_normal(8000))
        with pytest.raises(SystemExit) as caught:
            main(["features", str(wav), "--out", str(tmp_path / "o"), "--states", "5"])
        assert caught.value.code == 2

    @pytest.mark.parametrize("env,config", [
        ({"HMMSID_VARIANT__N_STATES": "99"}, None),
        ({"HMMSID_SCORING": "magic"}, None),
        ({}, {"variant": {"n_states": 99}}),
    ], ids=["env-states", "env-scoring", "config-states"])
    def test_model_settings_are_not_checked(self, tmp_path, monkeypatch, env, config):
        """Model and scoring settings that train and evaluate would reject
        do not stop features, which reads only the front-end section."""
        rng = np.random.default_rng(64)
        wav = tmp_path / "utt.wav"
        write_wav(wav, 0.4 * rng.standard_normal(8000))
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        argv = ["features", str(wav), "--out", str(tmp_path / "o")]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "config.json")]
        assert main(argv) == 0
        assert read_features(tmp_path / "o" / "utt.lpcf").frames.shape == (98, 12)

    def test_no_inputs_is_exit_2(self, tmp_path):
        assert main(["features", "--out", str(tmp_path / "o")]) == 2

    def test_corrupt_input_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"this is not audio")
        rc = main(["features", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().err

    def test_truncated_raw_is_exit_1(self, tmp_path, capsys):
        rng = np.random.default_rng(63)
        pcm = (8000 * rng.standard_normal(4000)).astype("<i2")
        good, cut = tmp_path / "good.raw", tmp_path / "cut.raw"
        good.write_bytes(pcm.tobytes())
        cut.write_bytes(pcm.tobytes()[:-1])
        out = tmp_path / "o"
        rc = main(["features", str(good), str(cut), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "ok good" in captured.out
        assert captured.err == f"FAIL cut: {cut}: 7999 bytes is not a whole number of 16-bit samples\n"
        assert sorted(os.listdir(out)) == ["good.lpcf"]

    def test_reruns_byte_identical(self, tmp_path):
        rng = np.random.default_rng(62)
        wav = tmp_path / "utt.wav"
        write_wav(wav, 0.4 * rng.standard_normal(8000))
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        assert main(["features", str(wav), "--out", str(out1)]) == 0
        assert main(["features", str(wav), "--out", str(out2)]) == 0
        assert tree_digest(out1) == tree_digest(out2)


class TestSynthCommand:
    def _spec_file(self, tmp_path, **overrides):
        spec = {**SMALL_SPEC, **overrides}
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        return p

    def test_writes_dataset(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path)
        out = tmp_path / "corpus"
        rc = main(["synth", "--spec", str(spec), "--out", str(out)])
        assert rc == 0
        assert (out / "manifest.tsv").is_file()
        assert (out / "corpus.json").is_file()
        printed = capsys.readouterr().out
        assert "24 utterances" in printed  # 2*2*(2+2+2)

    def test_reruns_byte_identical(self, tmp_path):
        spec = self._spec_file(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--spec", str(spec), "--out", str(a)]) == 0
        assert main(["synth", "--spec", str(spec), "--out", str(b)]) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec = self._spec_file(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--spec", str(spec), "--out", str(a)]) == 0
        assert main(["synth", "--spec", str(spec), "--out", str(b), "--seed", "99"]) == 0
        assert tree_digest(a) != tree_digest(b)
        stored = json.loads((b / "corpus.json").read_text())
        assert stored["seed"] == 99

    def test_zero_speakers_is_exit_1(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path, n_speakers=0)
        rc = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_spec_key_is_exit_1(self, tmp_path):
        spec = self._spec_file(tmp_path, bogus=3)
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-corpus") / "data"
    spec = out.parent / "spec.json"
    spec.write_text(json.dumps(SMALL_SPEC))
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained_store(corpus_dir, tmp_path_factory):
    models = tmp_path_factory.mktemp("cli-models") / "store"
    cfg = models.parent / "train.json"
    cfg.write_text(json.dumps({"train": {"max_iterations": 10}}))
    for variant in ("ltr1", "circ1"):
        rc = main([
            "train", "--manifest", str(corpus_dir / "manifest.tsv"),
            "--out", str(models), "--variant", variant,
            "--states", "3", "--mixtures", "1", "--config", str(cfg),
        ])
        assert rc == 0
    return models


class TestTrainCommand:
    def test_one_model_per_speaker_word(self, trained_store):
        for variant in ("ltr1", "circ1"):
            files = sorted(os.listdir(trained_store / variant))
            assert files == [
                "spk00__word0.json", "spk00__word1.json",
                "spk01__word0.json", "spk01__word1.json",
            ]

    def test_model_metadata(self, trained_store):
        model, header = load_model(trained_store / "ltr1" / "spk00__word0.json")
        assert model.order == 1
        assert model.n_states == 3
        meta = header["training"]
        assert meta["speaker_id"] == "spk00"
        assert meta["word_id"] == "word0"
        assert meta["variant"] == "ltr1"
        assert meta["condition"] == "neutral"
        assert "config_hash" in meta

    def test_rerun_byte_identical(self, corpus_dir, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"train": {"max_iterations": 5}}))
        a, b = tmp_path / "ma", tmp_path / "mb"
        argv_tail = [
            "--manifest", str(corpus_dir / "manifest.tsv"),
            "--variant", "ltr1", "--states", "3", "--mixtures", "1",
            "--config", str(cfg),
        ]
        assert main(["train", "--out", str(a)] + argv_tail) == 0
        assert main(["train", "--out", str(b)] + argv_tail) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_env_overrides_reach_training(self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("HMMSID_VARIANT__N_STATES", "4")
        monkeypatch.setenv("HMMSID_TRAIN__MAX_ITERATIONS", "3")
        out = tmp_path / "m"
        rc = main([
            "train", "--manifest", str(corpus_dir / "manifest.tsv"),
            "--out", str(out), "--variant", "ltr1", "--mixtures", "1",
        ])
        assert rc == 0
        model, _ = load_model(out / "ltr1" / "spk00__word0.json")
        assert model.n_states == 4

    def test_programming_errors_propagate(self, corpus_dir, tmp_path, monkeypatch):
        def broken_train(*args, **kwargs):
            raise TypeError("bug in training code")

        monkeypatch.setattr("hmmsid.cli.train", broken_train)
        with pytest.raises(TypeError, match="bug in training code"):
            main(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
                  "--out", str(tmp_path / "m"), "--variant", "ltr1"])

    def test_no_train_rows_is_exit_2(self, corpus_dir, tmp_path, capsys):
        # manifest reduced to test rows only
        lines = (corpus_dir / "manifest.tsv").read_text().splitlines()
        kept = [lines[0]] + [l for l in lines[1:] if "\ttest\t" in l]
        stripped = tmp_path / "manifest.tsv"
        stripped.write_text("\n".join(kept) + "\n")
        os.symlink(corpus_dir / "features", tmp_path / "features")
        rc = main(["train", "--manifest", str(stripped), "--out", str(tmp_path / "m")])
        assert rc == 2


class TestEvaluateCommand:
    def test_full_pipeline_report(self, corpus_dir, trained_store, tmp_path, capsys):
        out = tmp_path / "report"
        rc = main([
            "evaluate", "--manifest", str(corpus_dir / "manifest.tsv"),
            "--models", str(trained_store), "--out", str(out),
            "--reference", "circ1",
        ])
        assert rc == 0
        payload = json.loads((out / "evaluation.json").read_text())
        assert set(payload["variants"]) == {"ltr1", "circ1"}
        for entry in payload["variants"].values():
            assert entry["n_trials"] == 2 * 2 * 4  # 2 spk x 2 words x 4 test utts
            grid = entry["grid"]
            assert set(grid) == {"male", "female", "average"}
            for row in grid.values():
                assert set(row) == {"neutral", "shouted"}
        assert payload["comparison"]["reference"] == "circ1"
        text = (out / "evaluation.txt").read_text()
        assert "variant ltr1" in text and "variant circ1" in text

    def test_empty_store_is_exit_2(self, corpus_dir, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        rc = main([
            "evaluate", "--manifest", str(corpus_dir / "manifest.tsv"),
            "--models", str(empty), "--out", str(tmp_path / "r"),
        ])
        assert rc == 2

    def test_no_scoreable_trials_is_exit_2(self, corpus_dir, trained_store, tmp_path):
        lines = (corpus_dir / "manifest.tsv").read_text().splitlines()
        kept = [lines[0]] + [l for l in lines[1:] if "\ttrain\t" in l]
        stripped = tmp_path / "manifest.tsv"
        stripped.write_text("\n".join(kept) + "\n")
        os.symlink(corpus_dir / "features", tmp_path / "features")
        rc = main([
            "evaluate", "--manifest", str(stripped),
            "--models", str(trained_store), "--out", str(tmp_path / "r"),
        ])
        assert rc == 2

    def test_missing_sources_is_exit_1(self, tmp_path):
        assert main(["evaluate", "--out", str(tmp_path / "r")]) == 1

    def test_rerun_byte_identical(self, corpus_dir, trained_store, tmp_path):
        a, b = tmp_path / "ra", tmp_path / "rb"
        argv = [
            "evaluate", "--manifest", str(corpus_dir / "manifest.tsv"),
            "--models", str(trained_store), "--reference", "circ1",
        ]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert tree_digest(a) == tree_digest(b)


class TestEvaluateFromGrids:
    def test_reproduces_reference_rows(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main(["evaluate", "--from-grids", FIXTURE, "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["reference"] == "circ2"
        assert payload["rates_display"]["ltr1"] == {"neutral": "6.1%", "shouted": "213.0%"}
        assert payload["rates_display"]["ltr2"] == {"neutral": "1.6%", "shouted": "22.0%"}
        assert payload["rates_display"]["circ1"] == {"neutral": "3.8%", "shouted": "20.0%"}
        flagged = "\n".join(payload["flagged"])
        assert "circ1" in flagged
        text = (out / "comparison.txt").read_text()
        assert "FLAGGED" in text
        assert capsys.readouterr().out.startswith("Accuracy by variant")

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["evaluate", "--from-grids", FIXTURE, "--out", str(a)]) == 0
        assert main(["evaluate", "--from-grids", FIXTURE, "--out", str(b)]) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_reference_flag_overrides_fixture(self, tmp_path):
        out = tmp_path / "cmp"
        rc = main([
            "evaluate", "--from-grids", FIXTURE, "--out", str(out),
            "--reference", "ltr2",
        ])
        assert rc == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["reference"] == "ltr2"
        assert "circ2" in payload["rates"]


class TestFeaturesManifestMode:
    def test_manifest_rows_are_rewritten(self, tmp_path, capsys):
        rng = np.random.default_rng(63)
        root = tmp_path / "audio"
        root.mkdir()
        rows = []
        for i, speaker in enumerate(("spk00", "spk01")):
            name = f"{speaker}-word0-neutral-train-00"
            write_wav(root / f"{name}.wav", 0.4 * rng.standard_normal(8000))
            rows.append("\t".join([
                name, speaker, "male" if i == 0 else "female", "word0",
                "neutral", "train", f"{name}.wav",
            ]))
        header = "\t".join([
            "utterance_id", "speaker_id", "gender", "word_id",
            "condition", "split", "path",
        ])
        (root / "manifest.tsv").write_text(header + "\n" + "\n".join(rows) + "\n")
        out = tmp_path / "cache"
        rc = main(["features", "--manifest", str(root / "manifest.tsv"),
                   "--out", str(out)])
        assert rc == 0
        from hmmsid.corpus import read_manifest
        new_rows = read_manifest(out / "manifest.tsv")
        assert len(new_rows) == 2
        for row in new_rows:
            assert row.path == f"{row.utterance_id}.lpcf"
            assert (out / row.path).is_file()


class TestInspectCommand:
    def test_valid_model(self, trained_store, capsys):
        rc = main(["inspect", str(trained_store / "ltr1" / "spk00__word0.json")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "order: 1" in printed
        assert "topology: ltr" in printed
        assert "valid: yes" in printed
        assert "training.speaker_id: spk00" in printed

    def test_missing_file_is_exit_1(self, tmp_path):
        assert main(["inspect", str(tmp_path / "nope.json")]) == 1


class TestMalformedJsonInputs:
    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"], ids=["not-json", "list"])
    @pytest.mark.parametrize("argv", [
        ["inspect", "{path}"],
        ["evaluate", "--from-grids", "{path}", "--out", "{out}"],
        ["synth", "--spec", "{path}", "--out", "{out}"],
        ["train", "--manifest", "m.tsv", "--out", "{out}", "--config", "{path}"],
    ], ids=["inspect", "from-grids", "spec", "config"])
    def test_exit_1_with_one_error_line_naming_the_file(self, tmp_path, capsys, argv, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        rc = main([arg.format(path=path, out=tmp_path / "out") for arg in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, text", [
        (["inspect", "{path}"],
         '{"format": "hmmsid-model", "format_version": 1, "topology": [1], "emission_type": "gmm"}'),
        (["inspect", "{path}"],
         '{"format": "hmmsid-model", "format_version": 1, "emission_type": "gmm", "emissions": [[1]],'
         ' "topology": {"kind": "ltr", "n_states": 1, "skip_width": 1}}'),
        (["evaluate", "--from-grids", "{path}", "--out", "{out}"],
         '{"grids": {"a": 1, "b": 2}, "reference": "a"}'),
        (["evaluate", "--from-grids", "{path}", "--out", "{out}"],
         '{"grids": {"a": {"average": {"neutral": "90"}}, "b": {}}, "reference": "a"}'),
    ], ids=["inspect-topology", "inspect-emission", "from-grids-entry", "from-grids-cell"])
    def test_wrong_json_types_exit_1_naming_the_file(self, tmp_path, capsys, argv, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        rc = main([arg.format(path=path, out=tmp_path / "out") for arg in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fields, shown", [
        ('"reference": ["a"]', "reference must be a variant label (a string)"),
        ('"reference": "a", "claimed_rates": [1]',
         "claimed_rates must map variant -> condition -> number"),
        ('"reference": "a", "claimed_rates": {"b": 1}',
         "claimed_rates must map variant -> condition -> number"),
    ], ids=["reference-list", "claimed-list", "claimed-row-number"])
    def test_from_grids_reference_and_claimed_rates_types(self, tmp_path, capsys, fields, shown):
        path = tmp_path / "grids.json"
        grids = '{"a": {"average": {"neutral": 90}}, "b": {"average": {"neutral": 80}}}'
        path.write_text(f'{{"grids": {grids}, {fields}}}')
        rc = main(["evaluate", "--from-grids", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}: {shown}\n"

    @pytest.mark.parametrize("key", ["speaker_id", "word_id"])
    def test_store_speaker_and_word_must_be_strings(self, corpus_dir, trained_store,
                                                    tmp_path, capsys, key):
        model = sorted((trained_store / "ltr1").glob("*.json"))[0]
        header = json.loads(model.read_text())
        header["training"][key] = ["x"]
        bad = tmp_path / "store" / "ltr1" / model.name
        bad.parent.mkdir(parents=True)
        bad.write_text(json.dumps(header))
        rc = main([
            "evaluate", "--manifest", str(corpus_dir / "manifest.tsv"),
            "--models", str(tmp_path / "store"), "--out", str(tmp_path / "r"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}: training.{key} is not a string\n"

    def test_store_training_metadata_must_be_an_object(self, corpus_dir, trained_store,
                                                       tmp_path, capsys):
        model = sorted((trained_store / "ltr1").glob("*.json"))[0]
        header = json.loads(model.read_text())
        header["training"] = [1, 2]
        bad = tmp_path / "store" / "ltr1" / model.name
        bad.parent.mkdir(parents=True)
        bad.write_text(json.dumps(header))
        rc = main([
            "evaluate", "--manifest", str(corpus_dir / "manifest.tsv"),
            "--models", str(tmp_path / "store"), "--out", str(tmp_path / "r"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}: training is not a JSON object\n"

    def test_store_model_that_validate_rejects_names_the_file(self, corpus_dir, trained_store,
                                                              tmp_path, capsys):
        """An all-zero trans2 scores every trial as impossible; evaluate
        rejects the file before scoring, and inspect still lists every
        problem."""
        model = sorted((trained_store / "ltr1").glob("*.json"))[0]
        header = json.loads(model.read_text())
        n = len(header["initial"])
        header.update(order=2, trans1=header.pop("trans"), trans2=np.zeros((n, n, n)).tolist())
        bad = tmp_path / "store" / "ltr2" / model.name
        bad.parent.mkdir(parents=True)
        bad.write_text(json.dumps(header))
        problems = validate(load_model(bad)[0])
        assert len(problems) > 1
        rc = main([
            "evaluate", "--manifest", str(corpus_dir / "manifest.tsv"),
            "--models", str(tmp_path / "store"), "--out", str(tmp_path / "r"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}: invalid model: {problems[0]}\n"
        assert main(["inspect", str(bad)]) == 1
        printed = capsys.readouterr().out
        assert "valid: NO" in printed
        for problem in problems:
            assert f"  problem: {problem}" in printed
