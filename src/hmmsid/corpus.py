"""Corpus handling: the utterance manifest format and a synthetic corpus
generator for end-to-end experiments without any real recordings.

Manifest format
---------------
Tab-separated text, one row per utterance, first line is the header::

    utterance_id  speaker_id  gender  word_id  condition  split  path

``condition`` is ``neutral`` or ``shouted``; ``split`` is ``train`` or
``test``; ``path`` is relative to the manifest's own directory and points
at a feature cache readable by read_features.

Synthetic corpus
----------------
Each (speaker, word) pair gets a left-to-right sequence of state mean
vectors: a word backbone shared by all speakers plus a per-speaker offset
whose size is controlled by ``separation_scale``. An utterance is sampled
by dwelling in each state in order (multinomial frame allocation, every
state visited at least once) and adding white Gaussian noise to the state
mean. The mismatched "shouted" condition applies a deterministic additive
tilt to the first three coefficients and inflates the noise variance —
test tokens remain the same word by the same speaker, observed through a
shifted, noisier channel.

Generation is driven by one ``numpy.random.default_rng(seed)`` stream in a
fixed loop order, so a given spec always produces byte-identical output.
"""

from __future__ import annotations

import os
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .features import FeatureMatrix, FeatureMeta, config_digest, read_features, write_features
from .fileio import atomic_write, write_json

__all__ = [
    "CorpusSpec",
    "ManifestRow",
    "MANIFEST_COLUMNS",
    "read_manifest",
    "write_manifest",
    "sample_corpus",
    "generate_synthetic_corpus",
    "load_corpus",
]

CONDITIONS = ("neutral", "shouted")
SPLITS = ("train", "test")
GENDERS = ("male", "female")


# A tab and every character at which read_manifest's str.splitlines breaks
# a line.
_FIELD_BREAKS = frozenset("\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


@dataclass(frozen=True)
class ManifestRow:
    utterance_id: str
    speaker_id: str
    gender: str
    word_id: str
    condition: str
    split: str
    path: str

    def __post_init__(self):
        if self.condition not in CONDITIONS:
            raise ValueError(f"condition must be one of {CONDITIONS}, got {self.condition!r}")
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        if self.gender not in GENDERS:
            raise ValueError(f"gender must be one of {GENDERS}, got {self.gender!r}")
        for name in ("utterance_id", "speaker_id", "word_id", "path"):
            value = getattr(self, name)
            if not value or not _FIELD_BREAKS.isdisjoint(value):
                raise ValueError(f"{name} must be non-empty and free of tabs and line breaks")
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:   # a lone surrogate, which write_manifest could not write
                raise ValueError(f"{name} must be encodable as UTF-8, got {value!r}") from None


MANIFEST_COLUMNS = tuple(f.name for f in fields(ManifestRow))


def write_manifest(rows, path) -> None:
    lines = ["\t".join(MANIFEST_COLUMNS)]
    lines.extend("\t".join(astuple(row)) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")


def read_manifest(path) -> list[ManifestRow]:
    """The rows of a manifest. A malformed file raises ValueError naming
    it and, for a bad row, the row's line number."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln]
    if not lines:
        raise ValueError(f"{path}: empty manifest")
    header = tuple(lines[0][1].split("\t"))
    if header != MANIFEST_COLUMNS:
        raise ValueError(
            f"{path}: bad header {header!r}, expected {MANIFEST_COLUMNS!r}"
        )
    rows = []
    for i, line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != len(MANIFEST_COLUMNS):
            raise ValueError(f"{path}:{i}: expected {len(MANIFEST_COLUMNS)} fields")
        try:
            rows.append(ManifestRow(*parts))
        except ValueError as exc:
            raise ValueError(f"{path}:{i}: {exc}") from None
    return rows


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusSpec:
    """Knobs for the synthetic corpus.

    Token counts are per (speaker, word): ``n_train`` neutral training
    tokens, ``n_test_neutral`` matched test tokens, ``n_test_shouted``
    mismatched test tokens. ``separation_scale`` sets how far apart
    speakers sit relative to the emission noise; ``tilt_shift`` and
    ``noise_inflation`` control how harsh the mismatched condition is
    (tilt_shift = 0 and noise_inflation = 1 make it identical to neutral).

    The defaults are calibrated so the desk-scale experiment (10 speakers,
    3 words, 5-state 2-mixture models) lands where the end-to-end checks
    need it: matched-condition accuracy at or near 100% for every model
    variant, mismatched-condition accuracy clearly degraded for every
    variant.
    """

    n_speakers: int = 10
    n_words: int = 3
    n_dims: int = 12
    n_train: int = 5
    n_test_neutral: int = 4
    n_test_shouted: int = 9
    frames_min: int = 40
    frames_max: int = 60
    n_generator_states: int = 5
    emission_noise: float = 0.5
    separation_scale: float = 1.0
    tilt_shift: float = 5.0
    noise_inflation: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if self.n_speakers < 2:
            raise ValueError("need at least 2 speakers")
        if self.n_words < 1 or self.n_dims < 1 or self.n_generator_states < 1:
            raise ValueError("n_words, n_dims, n_generator_states must be >= 1")
        if self.n_train < 1:
            raise ValueError("need at least 1 training token per (speaker, word)")
        if self.n_test_neutral < 0 or self.n_test_shouted < 0:
            raise ValueError("test token counts must be >= 0")
        if not 1 <= self.n_generator_states <= self.frames_min <= self.frames_max:
            raise ValueError("need n_generator_states <= frames_min <= frames_max")
        if self.emission_noise <= 0:
            raise ValueError("emission_noise must be positive")
        if self.separation_scale < 0 or self.tilt_shift < 0:
            raise ValueError("separation_scale and tilt_shift must be >= 0")
        if self.noise_inflation < 1.0:
            raise ValueError("noise_inflation must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, mapping: dict) -> "CorpusSpec":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(mapping) - known
        if extra:
            raise ValueError(f"unknown corpus spec keys: {sorted(extra)}")
        return cls(**mapping)

    def digest(self) -> int:
        return config_digest(self.to_dict())


def speaker_gender(index: int) -> str:
    """Deterministic gender assignment: even speaker indices are male."""
    return "male" if index % 2 == 0 else "female"


def _condition_tilt(spec: CorpusSpec) -> np.ndarray:
    """Additive mean shift for the mismatched condition: tilt_shift / (d+1)
    on the first three coefficients, zero elsewhere."""
    delta = np.zeros(spec.n_dims)
    for d in range(min(3, spec.n_dims)):
        delta[d] = spec.tilt_shift / (d + 1)
    return delta


def _sample_utterance(rng, means, noise_std, frames_min, frames_max):
    n_states, n_dims = means.shape
    total = int(rng.integers(frames_min, frames_max + 1))
    lengths = rng.multinomial(total - n_states, np.full(n_states, 1.0 / n_states)) + 1
    states = np.repeat(np.arange(n_states), lengths)
    return means[states] + noise_std * rng.standard_normal((total, n_dims))


def sample_corpus(spec: CorpusSpec) -> list[tuple[ManifestRow, FeatureMatrix]]:
    """Sample every utterance in memory, in manifest order.

    Row paths point at ``features/<utterance_id>.lpcf`` so the result can be
    written verbatim by generate_synthetic_corpus.
    """
    rng = np.random.default_rng(spec.seed)
    backbone = rng.standard_normal((spec.n_words, spec.n_generator_states, spec.n_dims))
    offsets = spec.separation_scale * rng.standard_normal(
        (spec.n_speakers, spec.n_generator_states, spec.n_dims)
    )
    tilt = _condition_tilt(spec)
    shout_std = spec.emission_noise * float(np.sqrt(spec.noise_inflation))
    spec_hash = spec.digest()

    out = []

    def emit(s, w, condition, split, index):
        speaker_id = f"spk{s:02d}"
        word_id = f"word{w}"
        utt_id = f"{speaker_id}-{word_id}-{condition}-{split}-{index:02d}"
        means = backbone[w] + offsets[s]
        if condition == "shouted":
            frames = _sample_utterance(
                rng, means + tilt[None, :], shout_std, spec.frames_min, spec.frames_max
            )
        else:
            frames = _sample_utterance(
                rng, means, spec.emission_noise, spec.frames_min, spec.frames_max
            )
        row = ManifestRow(
            utterance_id=utt_id,
            speaker_id=speaker_id,
            gender=speaker_gender(s),
            word_id=word_id,
            condition=condition,
            split=split,
            path=f"features/{utt_id}.lpcf",
        )
        fm = FeatureMatrix(
            frames,
            FeatureMeta(source=utt_id, cms_applied=False, config_hash=spec_hash),
        )
        out.append((row, fm))

    for s in range(spec.n_speakers):
        for w in range(spec.n_words):
            for i in range(spec.n_train):
                emit(s, w, "neutral", "train", i)
            for i in range(spec.n_test_neutral):
                emit(s, w, "neutral", "test", i)
            for i in range(spec.n_test_shouted):
                emit(s, w, "shouted", "test", i)
    return out


def generate_synthetic_corpus(spec: CorpusSpec, out_dir) -> str:
    """Write feature caches, manifest.tsv, and corpus.json under out_dir.

    Returns the manifest path. Output bytes are a pure function of spec.
    """
    out_dir = os.fspath(out_dir)
    feat_dir = os.path.join(out_dir, "features")
    os.makedirs(feat_dir, exist_ok=True)
    pairs = sample_corpus(spec)
    for row, fm in pairs:
        write_features(fm, os.path.join(out_dir, row.path))
    manifest_path = os.path.join(out_dir, "manifest.tsv")
    write_manifest([row for row, _ in pairs], manifest_path)
    write_json(os.path.join(out_dir, "corpus.json"), spec.to_dict())
    return manifest_path


def load_corpus(manifest_path) -> list[tuple[ManifestRow, FeatureMatrix]]:
    """Read a manifest and every feature cache it references.

    The caches of one manifest must come from one front-end configuration:
    the first cache whose config_hash differs from the first cache's raises
    ValueError naming the manifest, both caches and both hashes.
    """
    manifest_path = os.fspath(manifest_path)
    base = os.path.dirname(manifest_path)
    pairs = []
    for row in read_manifest(manifest_path):
        path = os.path.join(base, row.path)
        fm = read_features(path)
        if pairs and fm.meta.config_hash != pairs[0][1].meta.config_hash:
            first_path = os.path.join(base, pairs[0][0].path)
            raise ValueError(
                f"{manifest_path}: cache {path} has config_hash {fm.meta.config_hash}, "
                f"but {first_path} has {pairs[0][1].meta.config_hash}"
            )
        pairs.append((row, fm))
    return pairs
