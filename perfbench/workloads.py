"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the outputs that pass produced.

Every workload is a single process. ``prepare`` makes, once, inputs the
program takes as given (the frontend's WAVs); ``setup`` builds the rest
of the inputs with the program (startup.py times it in a fresh
interpreter); ``run_pass`` does the measured work once and returns its
outputs with one timing record per operation, rescaled to reference
machine speed (speed.py). The program's functions are always reached
through their module attributes, so a traced run sees every call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import hmmsid.corpus as corpus
import hmmsid.features as features
import hmmsid.speaker_id as speaker_id
from hmmsid.training import TrainConfig, VariantSpec

import audio
from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))

TOPOLOGY = {"ltr": "ltr", "circ": "circular"}

# Each workload's parameters (BENCHMARK.json says why it exists). "tiny"
# sizes serve the self-test only.
WORKLOADS = {
    "desk": {
        "corpus": {},
        "variants": ("ltr1", "ltr2", "circ1", "circ2"),
        "n_states": 5, "n_mixtures": 2, "max_iterations": 20, "rel_tol": 1e-6,
        "scoring": "forward",
        "tiny": {"corpus": {"n_speakers": 3, "n_words": 1, "n_train": 2, "n_test_neutral": 1,
                            "n_test_shouted": 1, "frames_min": 20, "frames_max": 25},
                 "max_iterations": 2},
    },
    "phrase": {
        "corpus": {"n_speakers": 6, "n_words": 1, "n_train": 3, "n_test_neutral": 3,
                   "n_test_shouted": 3, "frames_min": 150, "frames_max": 250,
                   "n_generator_states": 24},
        "variants": ("ltr2", "circ2"),
        "n_states": 24, "n_mixtures": 1, "max_iterations": 10, "rel_tol": 1e-6,
        "scoring": "viterbi",
        "tiny": {"corpus": {"n_speakers": 3, "n_words": 1, "n_train": 2, "n_test_neutral": 1,
                            "n_test_shouted": 1, "frames_min": 30, "frames_max": 40,
                            "n_generator_states": 6},
                 "n_states": 6, "max_iterations": 2},
    },
    "frontend": {
        "n_files": 200, "seconds_min": 1.5, "seconds_max": 2.5, "sample_rate": 8000,
        "lead_silence_s": 0.1, "ar_order": 12,
        "tiny": {"n_files": 4, "seconds_min": 0.3, "seconds_max": 0.4},
    },
}


def params_for(name: str, tiny: bool) -> dict:
    params = {k: v for k, v in WORKLOADS[name].items() if k != "tiny"}
    if tiny:
        params.update(WORKLOADS[name]["tiny"])
    return params


@dataclass
class Op:
    kind: str          # "enroll" | "identify" | "extract"
    seconds: float     # rescaled to reference speed (see speed.py)
    failed: bool = False


@dataclass
class PassResult:
    wall_s: float      # rescaled to reference speed
    raw_wall_s: float  # as measured
    ops: list
    outputs: dict
    audio_s: float = 0.0
    errors: list = field(default_factory=list)
    speed: list = field(default_factory=list)


class _Pass:
    """Times one pass: every operation, and the machine speed between them."""

    def __init__(self):
        self.ops: list = []
        self.errors: list = []
        self._segments: list = []
        self.probe = SpeedProbe()

    def timed(self, kind, fn, *args, **kwargs):
        """Run one operation; a raised exception counts as a failed
        operation and its traceback is kept for the report."""
        t0 = time.perf_counter()
        failed = False
        try:
            result = fn(*args, **kwargs)
        except Exception:
            result, failed = None, True
            self.errors.append(traceback.format_exc())
        self.ops.append(Op(kind, time.perf_counter() - t0, failed=failed))
        self._segments.append(self.probe.segment)
        self.probe.tick()
        return result

    def finish(self, outputs, audio_s=0.0) -> PassResult:
        self.probe.close()
        for op, segment in zip(self.ops, self._segments):
            op.seconds *= self.probe.factors[segment]
        return PassResult(self.probe.scaled_s, self.probe.raw_s, self.ops, outputs,
                          audio_s=audio_s, errors=self.errors, speed=self.probe.factors)


# ---------------------------------------------------------------------------
# speaker identification (desk, phrase)
# ---------------------------------------------------------------------------

class SpeakerWorkload:
    """Synthesize a corpus to feature caches (set-up), then enroll every
    (speaker, word) model of each variant and identify every test trial."""

    def __init__(self, params: dict, seed: int, workdir: str):
        self.params = params
        self.workdir = workdir
        self.spec = corpus.CorpusSpec(seed=seed, **params["corpus"])
        self.config = TrainConfig(max_iterations=params["max_iterations"], rel_tol=params["rel_tol"])
        self.variants = [
            VariantSpec(order=int(label[-1]), topology=TOPOLOGY[label[:-1]],
                        n_states=params["n_states"], n_mixtures=params["n_mixtures"])
            for label in params["variants"]
        ]

    def prepare(self):
        """Nothing to make before set-up: the corpus is built in set-up."""

    def setup(self):
        manifest = corpus.generate_synthetic_corpus(self.spec, self.workdir)
        pairs = corpus.load_corpus(manifest)
        train_sets: dict = {}
        for row, fm in pairs:
            if row.split == "train":
                train_sets.setdefault((row.speaker_id, row.word_id), []).append(fm)
        tests = [(row, fm) for row, fm in pairs if row.split == "test"]
        return sorted(train_sets.items()), tests

    def run_pass(self, state) -> PassResult:
        train_sets, tests = state
        scoring = self.params["scoring"]
        outputs = {"registries": {}, "models": {}, "trials": {}}
        timing = _Pass()
        for variant in self.variants:
            registry = speaker_id.SpeakerRegistry()
            models, trials = [], []
            for (speaker, word), utterances in train_sets:
                report = timing.timed("enroll", registry.enroll,
                                      speaker, word, variant, utterances, self.config)
                if report is not None:
                    models.append((speaker, word, report.iterations_run,
                                   report.final_log_likelihood, report.converged))
            for row, fm in tests:
                ident = timing.timed("identify", registry.identify,
                                     row.word_id, variant.label, fm, scoring=scoring)
                if ident is not None:
                    trials.append((row, fm, ident))
            outputs["registries"][variant.label] = registry
            outputs["models"][variant.label] = models
            outputs["trials"][variant.label] = trials
        return timing.finish(outputs)


# ---------------------------------------------------------------------------
# front end
# ---------------------------------------------------------------------------

class FrontendWorkload:
    """Synthesized WAVs (made once, before set-up), then load_audio ->
    extract_features -> write_features for each, write_manifest and
    load_corpus to read back."""

    def __init__(self, params: dict, seed: int, workdir: str):
        self.params = params
        self.seed = seed
        self.workdir = workdir
        self.audio_dir = os.path.join(workdir, "audio")
        self.config = features.FrontendConfig(sample_rate=params["sample_rate"])

    def prepare(self):
        """Write the input WAVs from the seed, in a child process (audio.py)."""
        subprocess.run([sys.executable, os.path.join(HERE, "audio.py"), json.dumps(self.params),
                        str(self.seed), self.audio_dir], check=True)

    def setup(self):
        os.makedirs(os.path.join(self.workdir, "features"), exist_ok=True)
        paths = audio.wav_paths(self.params, self.audio_dir)
        missing = [p for p in paths if not os.path.isfile(p)]
        if missing:
            raise FileNotFoundError(f"{len(missing)} input WAVs missing, first {missing[0]}")
        rows = []
        for i, _ in enumerate(paths):
            s = i % 10
            rows.append(corpus.ManifestRow(
                utterance_id=f"utt{i:03d}", speaker_id=f"spk{s:02d}",
                gender="male" if s % 2 == 0 else "female", word_id="word0",
                condition="neutral", split="train", path=f"features/utt{i:03d}.lpcf"))
        return paths, rows

    def run_pass(self, state) -> PassResult:
        paths, rows = state
        extracted = []
        n_samples = 0
        timing = _Pass()
        for path, row in zip(paths, rows):
            done = timing.timed("extract", self._one, path, row)
            if done is not None:
                fm, size = done
                extracted.append((row, fm, path))
                n_samples += size
        manifest = os.path.join(self.workdir, "manifest.tsv")
        corpus.write_manifest(rows, manifest)
        loaded = corpus.load_corpus(manifest)
        outputs = {"extracted": extracted, "loaded": loaded}
        return timing.finish(outputs, audio_s=n_samples / self.config.sample_rate)

    def _one(self, path, row):
        samples = features.load_audio(path, self.config)
        fm = features.extract_features(samples, self.config, source=row.utterance_id)
        features.write_features(fm, os.path.join(self.workdir, row.path))
        return fm, samples.size


def make(name: str, seed: int, workdir: str, tiny: bool = False):
    params = params_for(name, tiny)
    cls = FrontendWorkload if name == "frontend" else SpeakerWorkload
    return cls(params, seed, workdir)
