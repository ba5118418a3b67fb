"""LPC-cepstrum front end: pre-emphasis, framing, autocorrelation analysis,
prediction coefficients, cepstra, and optional per-utterance mean removal.

Pipeline (defaults in FrontendConfig): 16-bit audio normalized to [-1, 1),
first-difference pre-emphasis y[n] = x[n] - 0.95 x[n-1] (y[0] = x[0]),
30 ms symmetric Hamming windows every 10 ms, order-12 autocorrelation
prediction per frame, and the order-12 cepstrum of the prediction filter.
A frame whose autocorrelation cannot support prediction (digital silence)
yields a zero cepstrum and is flagged in the metadata. Signals must be
finite: a NaN or infinite sample is rejected before framing.

extract_features runs autocorrelation, the Levinson-Durbin recursion and
the cepstral recursion as one kernel over the (F, W) matrix of all
windowed frames of an utterance (_autocorrelations, _levinson_durbin,
_cepstra), one numpy call per lag or order rather than per frame. The
public autocorrelation, lpc_levinson_durbin and lpc_to_cepstrum are the
kernel's one-frame case, and each frame's row has the bits it has alone
(Makhoul, "Linear prediction: a tutorial review", Proc. IEEE 1975, for
the autocorrelation method and the LPC-cepstrum recursion).

Sign convention: prediction coefficients a_k satisfy
x_hat[n] = sum_k a_k x[n-k]; the prediction-error filter is
A(z) = 1 - sum_k a_k z^-k and the residual energy after order p is
r[0] * prod_i (1 - k_i^2) for reflection coefficients k_i.

File formats
------------
Binary feature cache (little-endian), extension ``.lpcf``:

    offset 0   magic   4 bytes  b"LPCF"
           4   version u16      1
           6   flags   u16      bit 0: cepstral mean subtraction applied
           8   T       u32      number of frames
          12   D       u32      coefficients per frame
          16   hash    u64      configuration digest (see config_digest)
          24   data    T*D float64, row-major

A cache holds exactly 24 + 8*T*D bytes; read_features rejects a shorter
(truncated) or longer (trailing bytes) file, and one with D = 0.

The hash is the digest of what made the frames: extract_features writes
its FrontendConfig.digest(), corpus.sample_corpus its CorpusSpec.digest().
corpus.load_corpus only checks that the caches of one manifest agree.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import wave
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import DegenerateFrameError, SignalTooShortError, _named
from .fileio import atomic_write

__all__ = [
    "FrontendConfig",
    "FeatureMeta",
    "FeatureMatrix",
    "pre_emphasize",
    "frame_and_window",
    "autocorrelation",
    "lpc_levinson_durbin",
    "lpc_to_cepstrum",
    "cepstral_mean_subtraction",
    "extract_features",
    "load_wav",
    "load_raw",
    "load_audio",
    "write_features",
    "read_features",
]

CACHE_MAGIC = b"LPCF"
CACHE_VERSION = 1
_FLAG_CMS = 1
_HEADER = struct.Struct("<4sHHIIQ")


@dataclass(frozen=True)
class FrontendConfig:
    """Analysis parameters. ``cms`` switches per-utterance cepstral mean
    subtraction on; everything else is the classical telephone-band setup."""

    sample_rate: int = 8000
    preemphasis: float = 0.95
    window_ms: float = 30.0
    hop_ms: float = 10.0
    lpc_order: int = 12
    cepstrum_order: int = 12
    cms: bool = False

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not 0.0 <= self.preemphasis < 1.0:
            raise ValueError("preemphasis must be in [0, 1)")
        if self.window_ms <= 0 or self.hop_ms <= 0:
            raise ValueError("window_ms and hop_ms must be positive")
        if self.lpc_order < 1:
            raise ValueError("lpc_order must be >= 1")
        if not 1 <= self.cepstrum_order <= self.lpc_order:
            raise ValueError("cepstrum_order must be in [1, lpc_order]")

    @property
    def window_samples(self) -> int:
        return int(round(self.window_ms * self.sample_rate / 1000.0))

    @property
    def hop_samples(self) -> int:
        return int(round(self.hop_ms * self.sample_rate / 1000.0))

    def to_dict(self) -> dict:
        return asdict(self)

    def digest(self) -> int:
        """Stable 64-bit digest of the configuration (embedded in caches)."""
        return config_digest(self.to_dict())


def config_digest(mapping: dict) -> int:
    """First 8 bytes of sha256 over canonical JSON, as an unsigned int."""
    blob = json.dumps(mapping, sort_keys=True, separators=(",", ":")).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


@dataclass(frozen=True)
class FeatureMeta:
    source: str = ""
    cms_applied: bool = False
    config_hash: int = 0
    degenerate_frames: tuple = ()


@dataclass(frozen=True)
class FeatureMatrix:
    """A (T, D) float64 matrix of per-frame coefficients plus provenance."""

    frames: np.ndarray
    meta: FeatureMeta = FeatureMeta()

    def __post_init__(self):
        x = np.asarray(self.frames, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"frames must be (T, D), got shape {x.shape}")
        object.__setattr__(self, "frames", x)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_dims(self) -> int:
        return self.frames.shape[1]


# ---------------------------------------------------------------------------
# signal operations
# ---------------------------------------------------------------------------

def pre_emphasize(signal, coeff: float = FrontendConfig.preemphasis) -> np.ndarray:
    """First-difference high-pass: y[n] = x[n] - coeff * x[n-1], y[0] = x[0]."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signal must be 1-dimensional")
    if x.size == 0:
        return x.copy()
    return np.append(x[0], x[1:] - coeff * x[:-1])


def frame_and_window(signal, window: int, hop: int) -> np.ndarray:
    """Slice into overlapping frames and apply a symmetric Hamming window.

    Yields floor((len - window) / hop) + 1 frames; trailing samples that do
    not fill a window are dropped. Raises SignalTooShortError when not even
    one window fits.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signal must be 1-dimensional")
    if window < 2 or hop < 1:
        raise ValueError("window must be >= 2 and hop >= 1")
    if x.size < window:
        raise SignalTooShortError(x.size, window)
    n_frames = (x.size - window) // hop + 1
    idx = np.arange(window)[None, :] + hop * np.arange(n_frames)[:, None]
    return x[idx] * np.hamming(window)[None, :]


def autocorrelation(frame, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r[k] = sum_n x[n] x[n+k] for k = 0..max_lag."""
    x = np.asarray(frame, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("frame must be 1-dimensional")
    return _autocorrelations(x[None, :], max_lag)[0]


def lpc_levinson_durbin(r, order: int):
    """Solve the autocorrelation normal equations by Levinson-Durbin.

    Returns (a, err, k): prediction coefficients a[0..order-1] (a[i] is the
    weight of x[n-1-i]), the residual energy err = r[0] * prod(1 - k_i^2),
    and the reflection coefficients. Raises DegenerateFrameError when
    r[0] <= 0 or the recursion loses positive definiteness.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 1 or r.size < order + 1:
        raise ValueError(f"need r[0..{order}], got shape {r.shape}")
    a, err, k, died = _levinson_durbin(r[None, :], order)
    if died[0] == 0:
        raise DegenerateFrameError(f"r[0] = {r[0]:.6g} is not positive")
    if died[0] > 0:
        raise DegenerateFrameError(
            f"prediction error vanished at order {died[0]} (|k| >= 1)"
        )
    return a[0], float(err[0]), k[0]


def lpc_to_cepstrum(a, n_coeffs: int) -> np.ndarray:
    """Cepstrum of the synthesis filter 1/A(z) from prediction coefficients.

    c[0] = a[0]; c[n-1] = a[n-1] + sum_{k=1}^{n-1} (k/n) c[k-1] a[n-1-k]
    (1-based: c_n = a_n + sum (k/n) c_k a_{n-k}). Only n_coeffs <= order
    is supported.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("prediction coefficients must be 1-dimensional")
    if not 1 <= n_coeffs <= a.size:
        raise ValueError(f"n_coeffs must be in [1, {a.size}]")
    return _cepstra(a[None, :], n_coeffs)[0]


# The frame-batched kernel. Each stage takes one row per frame and does, for
# every row at once, exactly the floating-point operations of the one-frame
# case in the same order, so a row's bits do not depend on the other rows:
# matmul of a (1, m) by an (m, 1) slice is the dot product of the one-frame
# case, and elementwise steps and row sums of C-contiguous rows are the
# 1-D ones. A dead frame's row runs on through later stages on meaningless
# values, hence the errstate.

@np.errstate(all="ignore")
def _autocorrelations(frames, max_lag):
    """(F, W) frames -> (F, max_lag + 1) biased autocorrelations."""
    n = frames.shape[1]
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag must be in [0, {n - 1}]")
    r = np.empty((frames.shape[0], max_lag + 1))
    for k in range(max_lag + 1):
        r[:, k] = np.matmul(frames[:, None, : n - k], frames[:, k:, None])[:, 0, 0]
    return r


@np.errstate(all="ignore")
def _levinson_durbin(r, order):
    """Levinson-Durbin on every row of r (F, >= order + 1) at once.

    Returns (a, err, k, died): (F, order) prediction coefficients, (F,)
    residual energies, (F, order) reflection coefficients, and for each row
    the order at which its residual energy first fell to <= 0 (0 when
    r[0] <= 0), or -1 for a row that stayed positive through every order.
    The tests are "<= 0", so a NaN row is not dead.
    """
    a = np.zeros((r.shape[0], order))
    k = np.zeros((r.shape[0], order))
    err = r[:, 0].copy()
    died = np.where(err <= 0.0, 0, -1)
    for i in range(1, order + 1):
        # the dot product runs on the reversed view r[i-1], ..., r[1]: a
        # contiguous copy of it changes the bits
        acc = r[:, i] - np.matmul(a[:, None, : i - 1], r[:, i - 1 : 0 : -1, None])[:, 0, 0]
        ki = acc / err
        k[:, i - 1] = ki
        a_prev = a[:, : i - 1].copy()
        a[:, i - 1] = ki
        if i > 1:
            a[:, : i - 1] = a_prev - ki[:, None] * a_prev[:, ::-1]
        err = (1.0 - ki * ki) * err
        died[(died < 0) & (err <= 0.0)] = i
    return a, err, k, died


@np.errstate(all="ignore")
def _cepstra(a, n_coeffs):
    """(F, order) prediction coefficients -> (F, n_coeffs) cepstra."""
    c = np.zeros((a.shape[0], n_coeffs))
    c[:, 0] = a[:, 0]
    for n in range(2, n_coeffs + 1):
        ks = np.arange(1, n)
        c[:, n - 1] = a[:, n - 1] + np.sum(ks / n * c[:, : n - 1] * a[:, n - 1 - ks], axis=1)
    return c


def cepstral_mean_subtraction(features: FeatureMatrix) -> FeatureMatrix:
    """Subtract the utterance's own per-coefficient mean. Returns a new
    FeatureMatrix with the cms_applied flag set."""
    mean = features.frames.mean(axis=0)
    return FeatureMatrix(
        features.frames - mean[None, :],
        replace(features.meta, cms_applied=True),
    )


def extract_features(signal, config: FrontendConfig = FrontendConfig(), source: str = "") -> FeatureMatrix:
    """Run the full front end on a [-1, 1) float signal.

    A NaN or infinite sample raises ValueError naming ``source`` and the
    first such sample's index. Degenerate frames (zero autocorrelation energy, or a frame on which the
    recursion collapses) produce all-zero coefficient rows and their indices
    are recorded in meta.degenerate_frames. A signal where every frame is
    degenerate raises DegenerateFrameError; a signal shorter than one window
    raises SignalTooShortError.
    """
    x = np.asarray(signal, dtype=np.float64)
    nonfinite = np.flatnonzero(~np.isfinite(x))
    if nonfinite.size:
        raise ValueError(_named(f"non-finite sample at index {nonfinite[0]}", source or None))
    y = pre_emphasize(x, config.preemphasis)
    frames = frame_and_window(y, config.window_samples, config.hop_samples)
    r = _autocorrelations(frames, config.lpc_order)
    a, _, _, died = _levinson_durbin(r, config.lpc_order)
    out = _cepstra(a, config.cepstrum_order)
    bad = np.flatnonzero(died >= 0)
    out[bad] = 0.0
    if bad.size == frames.shape[0]:
        raise DegenerateFrameError("every frame of the signal is degenerate")
    fm = FeatureMatrix(
        out,
        FeatureMeta(
            source=source,
            cms_applied=False,
            config_hash=config.digest(),
            degenerate_frames=tuple(bad.tolist()),
        ),
    )
    if config.cms:
        fm = cepstral_mean_subtraction(fm)
    return fm


# ---------------------------------------------------------------------------
# audio ingestion
# ---------------------------------------------------------------------------

def load_wav(path) -> tuple[int, np.ndarray]:
    """Read 16-bit PCM mono WAV. Returns (rate, float64 samples in [-1, 1)).

    Malformed containers raise ValueError so callers see one error type for
    every kind of unusable input file.
    """
    try:
        return _read_wav(path)
    except wave.Error as exc:
        raise ValueError(f"{path}: not a readable WAV file ({exc})") from exc
    except EOFError as exc:
        raise ValueError(f"{path}: truncated WAV file") from exc


def _read_wav(path) -> tuple[int, np.ndarray]:
    with wave.open(os.fspath(path), "rb") as fh:
        if fh.getcomptype() != "NONE":
            raise ValueError(f"{path}: compressed WAV is not supported")
        if fh.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono, got {fh.getnchannels()} channels")
        if fh.getsampwidth() != 2:
            raise ValueError(
                f"{path}: expected 16-bit samples, got {8 * fh.getsampwidth()}-bit"
            )
        rate = fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return rate, samples


def load_raw(path, sample_rate: int) -> tuple[int, np.ndarray]:
    """Read headerless 16-bit little-endian PCM at a configured rate. An odd
    byte count (a truncated file) raises ValueError naming the file."""
    p = os.fspath(path)
    size = os.path.getsize(p)
    if size % 2:
        raise ValueError(f"{p}: {size} bytes is not a whole number of 16-bit samples")
    data = np.fromfile(p, dtype="<i2")
    return int(sample_rate), data.astype(np.float64) / 32768.0


def load_audio(path, config: FrontendConfig) -> np.ndarray:
    """Dispatch on extension (.wav vs raw) and enforce the configured rate.

    A WAV whose header rate differs from config.sample_rate is rejected:
    the configuration is the hashed source of truth for every downstream
    artifact, so a silent rate mismatch would poison reproducibility.
    """
    p = os.fspath(path)
    if p.lower().endswith(".wav"):
        rate, samples = load_wav(p)
        if rate != config.sample_rate:
            raise ValueError(
                f"{p}: file rate {rate} != configured rate {config.sample_rate} "
                "(resample the file or change sample_rate)"
            )
        return samples
    _, samples = load_raw(p, config.sample_rate)
    return samples


# ---------------------------------------------------------------------------
# feature caches
# ---------------------------------------------------------------------------

def write_features(features: FeatureMatrix, path) -> None:
    """Write the binary cache format documented in the module docstring.

    Frames of 0 coefficients raise ValueError naming ``path`` before
    anything is written: read_features refuses such a cache."""
    x = np.ascontiguousarray(features.frames, dtype="<f8")
    if x.shape[1] == 0:
        raise ValueError(f"{path}: cannot write a cache of 0 coefficients per frame")
    flags = _FLAG_CMS if features.meta.cms_applied else 0
    header = _HEADER.pack(
        CACHE_MAGIC,
        CACHE_VERSION,
        flags,
        x.shape[0],
        x.shape[1],
        features.meta.config_hash & 0xFFFFFFFFFFFFFFFF,
    )
    atomic_write(path, header + x.tobytes())


def read_features(path) -> FeatureMatrix:
    """Read a binary cache. meta.source is the file stem."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size or blob[:4] != CACHE_MAGIC:
        raise ValueError(f"{path}: not a feature cache")
    magic, version, flags, t, d, config_hash = _HEADER.unpack_from(blob)
    if version != CACHE_VERSION:
        raise ValueError(f"{path}: unsupported cache version {version}")
    if d == 0:
        raise ValueError(f"{path}: cache holds 0 coefficients per frame")
    need = _HEADER.size + 8 * t * d
    if len(blob) < need:
        raise ValueError(f"{path}: truncated cache ({len(blob)} bytes, need {need})")
    if len(blob) > need:
        raise ValueError(f"{path}: {len(blob) - need} trailing bytes after the {need}-byte cache")
    x = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).reshape(t, d).copy()
    stem = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return FeatureMatrix(
        x,
        FeatureMeta(
            source=stem,
            cms_applied=bool(flags & _FLAG_CMS),
            config_hash=config_hash,
        ),
    )
