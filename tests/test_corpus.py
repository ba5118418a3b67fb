import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from hmmsid.corpus import (
    CONDITIONS,
    GENDERS,
    MANIFEST_COLUMNS,
    SPLITS,
    CorpusSpec,
    ManifestRow,
    generate_synthetic_corpus,
    load_corpus,
    read_manifest,
    sample_corpus,
    speaker_gender,
    write_manifest,
)
from hmmsid.features import FeatureMatrix, read_features, write_features
from hmmsid.speaker_id import SpeakerRegistry, evaluate
from hmmsid.training import TrainConfig, VariantSpec


def _row(**overrides):
    base = dict(
        utterance_id="spk0-w0-neutral-train-00",
        speaker_id="spk0",
        gender="male",
        word_id="w0",
        condition="neutral",
        split="train",
        path="features/spk0-w0-neutral-train-00.lpcf",
    )
    base.update(overrides)
    return ManifestRow(**base)


class TestManifestRows:
    def test_column_names(self):
        assert MANIFEST_COLUMNS == (
            "utterance_id", "speaker_id", "gender", "word_id",
            "condition", "split", "path",
        )

    def test_vocabularies(self):
        assert CONDITIONS == ("neutral", "shouted")
        assert SPLITS == ("train", "test")
        assert GENDERS == ("male", "female")

    def test_valid_row_accepted(self):
        row = _row()
        assert row.condition == "neutral"

    @pytest.mark.parametrize("field,value", [
        ("condition", "whispered"),
        ("split", "dev"),
        ("gender", "other"),
        ("utterance_id", ""),
        ("path", "a\tb"),
        ("speaker_id", "a\nb"),
    ])
    def test_invalid_rows_rejected(self, field, value):
        with pytest.raises(ValueError):
            _row(**{field: value})

    @pytest.mark.parametrize("field", ["utterance_id", "speaker_id", "word_id", "path"])
    def test_lone_surrogate_rejected_naming_the_field(self, field):
        """write_manifest could not encode the row as UTF-8."""
        with pytest.raises(ValueError) as caught:
            _row(**{field: "u\ud800"})
        assert str(caught.value) == f"{field} must be encodable as UTF-8, got 'u\\ud800'"

    def test_round_trip(self, tmp_path):
        rows = [
            _row(),
            _row(utterance_id="spk1-w0-shouted-test-03", speaker_id="spk1",
                 gender="female", condition="shouted", split="test",
                 path="features/spk1-w0-shouted-test-03.lpcf"),
        ]
        p = tmp_path / "manifest.tsv"
        write_manifest(rows, p)
        assert read_manifest(p) == rows

    def test_header_is_validated(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_text("wrong\theader\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_manifest(p)

    def test_short_data_line_rejected(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_text("\t".join(MANIFEST_COLUMNS) + "\nonly\tthree\tcells\n",
                     encoding="utf-8")
        with pytest.raises(ValueError):
            read_manifest(p)

    def test_bad_row_value_names_file_and_line(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        write_manifest([_row(), _row(utterance_id="u2")], p)
        lines = p.read_text(encoding="utf-8").split("\n")
        lines[2] = lines[2].replace("\tneutral\t", "\tloud\t")
        p.write_text("\n\n".join(lines), encoding="utf-8")   # blank lines still count
        with pytest.raises(ValueError) as caught:
            read_manifest(p)
        assert str(caught.value).startswith(f"{p}:5: condition must be one of")

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        write_manifest([_row(utterance_id="spk0-wörd")], p)
        p.write_bytes(p.read_bytes().replace("ö".encode(), b"\xf6"))
        with pytest.raises(ValueError) as caught:
            read_manifest(p)
        assert str(caught.value).startswith(f"{p}: not UTF-8 text")


class TestCorpusSpec:
    def test_defaults_mirror_desk_scale(self):
        spec = CorpusSpec()
        assert (spec.n_speakers, spec.n_words) == (10, 3)
        assert (spec.n_train, spec.n_test_neutral, spec.n_test_shouted) == (5, 4, 9)
        assert spec.n_dims == 12

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            CorpusSpec.from_dict({"n_speakers": 3, "bogus": 1})

    def test_from_dict_round_trip(self):
        spec = CorpusSpec(n_speakers=4, seed=7)
        assert CorpusSpec.from_dict(spec.to_dict()) == spec

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            CorpusSpec(n_speakers=0)
        with pytest.raises(ValueError):
            CorpusSpec(frames_min=50, frames_max=40)

    def test_digest_tracks_content(self):
        assert CorpusSpec().digest() != CorpusSpec(seed=1).digest()
        assert CorpusSpec().digest() == CorpusSpec().digest()

    def test_gender_alternates_from_male(self):
        assert [speaker_gender(i) for i in range(4)] == [
            "male", "female", "male", "female",
        ]


class TestSampling:
    SPEC = CorpusSpec(n_speakers=3, n_words=2, n_train=2, n_test_neutral=1,
                      n_test_shouted=2, frames_min=20, frames_max=30, seed=11)

    def test_row_counts_and_structure(self):
        pairs = sample_corpus(self.SPEC)
        per_word = self.SPEC.n_train + self.SPEC.n_test_neutral + self.SPEC.n_test_shouted
        assert len(pairs) == 3 * 2 * per_word
        for row, fm in pairs:
            assert self.SPEC.frames_min <= fm.n_frames <= self.SPEC.frames_max
            assert fm.n_dims == self.SPEC.n_dims
            assert row.path == f"features/{row.utterance_id}.lpcf"
        by_kind = {}
        for row, _ in pairs:
            key = (row.speaker_id, row.word_id, row.condition, row.split)
            by_kind[key] = by_kind.get(key, 0) + 1
        for s in range(3):
            for w in range(2):
                sid, wid = f"spk{s:02d}", f"word{w}"
                assert by_kind[(sid, wid, "neutral", "train")] == 2
                assert by_kind[(sid, wid, "neutral", "test")] == 1
                assert by_kind[(sid, wid, "shouted", "test")] == 2

    def test_desk_scale_row_count(self):
        spec = CorpusSpec(frames_min=10, frames_max=12)
        pairs = sample_corpus(spec)
        assert len(pairs) == 10 * 3 * (5 + 4 + 9)

    def test_gender_column_matches_speaker_index(self):
        for row, _ in sample_corpus(self.SPEC):
            idx = int(row.speaker_id.removeprefix("spk"))
            assert row.gender == speaker_gender(idx)

    def test_sampling_is_deterministic(self):
        a = sample_corpus(self.SPEC)
        b = sample_corpus(self.SPEC)
        assert [r for r, _ in a] == [r for r, _ in b]
        for (_, fa), (_, fb) in zip(a, b):
            np.testing.assert_array_equal(fa.frames, fb.frames)

    def test_seed_changes_features(self):
        a = sample_corpus(self.SPEC)
        b = sample_corpus(CorpusSpec(**{**self.SPEC.to_dict(), "seed": 12}))
        assert any(
            fa.frames.shape != fb.frames.shape or not np.array_equal(fa.frames, fb.frames)
            for (_, fa), (_, fb) in zip(a, b)
        )

    def test_shouted_shifts_low_order_means(self):
        spec = CorpusSpec(n_speakers=2, n_words=1, n_train=1, n_test_neutral=8,
                          n_test_shouted=8, frames_min=40, frames_max=50,
                          tilt_shift=2.0, seed=3)
        pairs = sample_corpus(spec)
        neutral = np.concatenate([
            fm.frames for row, fm in pairs
            if row.condition == "neutral" and row.split == "test"
        ])
        shouted = np.concatenate([
            fm.frames for row, fm in pairs if row.condition == "shouted"
        ])
        gap = shouted.mean(axis=0) - neutral.mean(axis=0)
        assert gap[0] == pytest.approx(2.0, abs=0.5)
        assert gap[1] == pytest.approx(1.0, abs=0.5)
        assert gap[2] == pytest.approx(2.0 / 3.0, abs=0.5)
        np.testing.assert_allclose(gap[3:], 0.0, atol=0.5)

    def test_noise_inflation_widens_shouted_spread(self):
        spec = CorpusSpec(n_speakers=2, n_words=1, n_train=1, n_test_neutral=10,
                          n_test_shouted=10, frames_min=40, frames_max=50,
                          tilt_shift=0.0, noise_inflation=9.0,
                          separation_scale=0.0, seed=5)
        pairs = sample_corpus(spec)
        neutral = np.concatenate([
            fm.frames for row, fm in pairs
            if row.condition == "neutral" and row.split == "test"
        ])
        shouted = np.concatenate([
            fm.frames for row, fm in pairs if row.condition == "shouted"
        ])
        # state-indexed means cancel in the high dims only on average; use a
        # pooled spread ratio which the 3x noise std dominates
        assert shouted.std() > 1.5 * neutral.std()


class TestOnDiskCorpus:
    SPEC = CorpusSpec(n_speakers=2, n_words=1, n_train=2, n_test_neutral=1,
                      n_test_shouted=1, frames_min=15, frames_max=20, seed=21)

    @staticmethod
    def _tree_digest(root):
        h = hashlib.sha256()
        for base, dirs, files in sorted(os.walk(root)):
            dirs.sort()
            for name in sorted(files):
                full = os.path.join(base, name)
                h.update(os.path.relpath(full, root).encode())
                h.update(open(full, "rb").read())
        return h.hexdigest()

    def test_reruns_are_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        generate_synthetic_corpus(self.SPEC, d1)
        generate_synthetic_corpus(self.SPEC, d2)
        assert self._tree_digest(d1) == self._tree_digest(d2)

    def test_load_round_trips_sampled_features(self, tmp_path):
        manifest = generate_synthetic_corpus(self.SPEC, tmp_path / "c")
        loaded = load_corpus(manifest)
        sampled = sample_corpus(self.SPEC)
        assert [r for r, _ in loaded] == [r for r, _ in sampled]
        for (_, fa), (_, fb) in zip(loaded, sampled):
            np.testing.assert_array_equal(fa.frames, fb.frames)

    def test_mixed_config_hashes_rejected(self, tmp_path):
        manifest = generate_synthetic_corpus(self.SPEC, tmp_path / "c")
        root = os.path.dirname(manifest)
        rows = read_manifest(manifest)
        first, odd = (os.path.join(root, rows[i].path) for i in (0, 2))
        fm = read_features(odd)
        write_features(FeatureMatrix(fm.frames, replace(fm.meta, config_hash=12345)), odd)
        want = read_features(first).meta.config_hash
        assert want != 12345
        with pytest.raises(ValueError) as err:
            load_corpus(manifest)
        assert str(err.value) == (
            f"{manifest}: cache {odd} has config_hash 12345, but {first} has {want}"
        )

    def test_layout(self, tmp_path):
        manifest = generate_synthetic_corpus(self.SPEC, tmp_path / "c")
        root = os.path.dirname(manifest)
        assert os.path.basename(manifest) == "manifest.tsv"
        assert os.path.isfile(os.path.join(root, "corpus.json"))
        rows = read_manifest(manifest)
        for row in rows:
            assert os.path.isfile(os.path.join(root, row.path))


class TestChanceFloor:
    def test_zero_separation_is_near_chance(self):
        spec = CorpusSpec(n_speakers=4, n_words=2, n_train=3, n_test_neutral=13,
                          n_test_shouted=12, frames_min=30, frames_max=40,
                          separation_scale=0.0, tilt_shift=0.0,
                          noise_inflation=1.0, seed=33)
        pairs = sample_corpus(spec)
        registry = SpeakerRegistry()
        variant = VariantSpec(order=1, topology="ltr", n_states=3, n_mixtures=1)
        config = TrainConfig(max_iterations=5, seed=0)
        train = {}
        for row, fm in pairs:
            if row.split == "train":
                train.setdefault((row.speaker_id, row.word_id), []).append(fm)
        for (speaker, word), fms in sorted(train.items()):
            registry.enroll(speaker, word, variant, fms, config)
        result = evaluate(registry, pairs, variant.label)
        trials = [t for t in result.trials]
        accuracy = 100.0 * sum(t.correct for t in trials) / len(trials)
        assert len(trials) == 4 * 2 * 25
        assert abs(accuracy - 25.0) <= 5.0
