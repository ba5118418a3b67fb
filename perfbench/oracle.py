"""Independent reference computations for the benchmark's output checks.

Nothing here calls hmmsid. Identification scores are recomputed in the
log domain (the program works in the scaled linear domain), batched over
the candidate models of one trial. Front-end cepstra are recomputed with a
dense Toeplitz solve and power sums of the predictor's poles (the program
uses the Levinson-Durbin and cepstral recursions).
"""

from __future__ import annotations

import wave

import numpy as np

LOG_TINY = np.log(np.finfo(np.float64).tiny)


def _log(x):
    with np.errstate(divide="ignore"):
        return np.log(x)


def _lse(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - safe), axis=axis, keepdims=True)) + safe
    return np.squeeze(out, axis=axis)


def _reduce(a, axis, mode):
    return _lse(a, axis) if mode == "forward" else np.max(a, axis=axis)


def log_emissions(models, x):
    """(S, T, N) Gaussian-mixture log densities of frames x under S models."""
    w = np.array([[e.weights for e in m.emissions] for m in models])        # (S,N,M)
    mu = np.array([[e.means for e in m.emissions] for m in models])         # (S,N,M,D)
    var = np.array([[e.variances for e in m.emissions] for m in models])
    diff = x[None, :, None, None, :] - mu[:, None]                          # (S,T,N,M,D)
    comp = -0.5 * np.sum(diff * diff / var[:, None] + np.log(2.0 * np.pi * var[:, None]), axis=-1)
    return _lse(comp + _log(w)[:, None], axis=-1)


def _below_normal(*arrays):
    """Per model: does any finite entry fall below float64's normal range?"""
    flags = [np.any(np.isfinite(a) & (a < LOG_TINY), axis=tuple(range(1, a.ndim))) for a in arrays]
    return np.logical_or.reduce(flags)


def sequence_scores(models, x, mode):
    """Log-likelihood ("forward") or best-path log-probability ("viterbi")
    of frames x under each of S models sharing one order and size.

    Returns (scores, leaves_normal_range). The second is, per model, True
    when a linear-domain forward pass that normalizes each slice and shifts
    each frame's emissions by their maximum must hold a value below
    float64's normal range: a max-shifted emission, a predicted or
    emission-weighted slice entry, or a normalized forward value.
    """
    logb = log_emissions(models, x)
    S = logb.shape[0]
    shifted = logb - np.max(logb, axis=2, keepdims=True)
    flags = _below_normal(shifted) if mode == "forward" else np.zeros(S, dtype=bool)

    def step(pred, t, axis):
        nonlocal flags
        weighted = pred + np.expand_dims(shifted[:, t], axis=tuple(range(1, axis)))
        out = _reduce(weighted.reshape(S, -1), 1, mode)
        normalized = weighted - out.reshape((S,) + (1,) * (weighted.ndim - 1))
        if mode == "forward":
            flags = flags | _below_normal(pred, weighted, normalized)
        return normalized, out

    logpi = _log(np.array([m.initial for m in models]))
    T = logb.shape[1]
    total = np.max(logb, axis=2).sum(axis=1)
    a, norm = step(logpi, 0, 1)
    total = total + norm
    if models[0].order == 1:
        loga = _log(np.array([m.trans for m in models]))                     # (S,N,N)
        for t in range(1, T):
            a, norm = step(_reduce(a[:, :, None] + loga, 1, mode), t, 1)
            total = total + norm
        return total, flags
    if T == 1:
        return total, flags
    loga1 = _log(np.array([m.trans1 for m in models]))
    loga2 = _log(np.array([m.trans2 for m in models]))                        # (S,N,N,N)
    pair, norm = step(a[:, :, None] + loga1, 1, 2)                            # (S,i,j)
    total = total + norm
    for t in range(2, T):
        pair, norm = step(_reduce(pair[:, :, :, None] + loga2, 1, mode), t, 2)
        total = total + norm
    return total, flags


def cepstra(samples, rate, preemphasis=0.95, window_ms=30.0, hop_ms=10.0, order=12):
    """(frames, degenerate mask) of the LPC cepstrum of one signal.

    A frame is degenerate when its zero-lag autocorrelation is not positive
    (digital silence); its row is zero.
    """
    x = np.asarray(samples, dtype=np.float64)
    y = np.concatenate([x[:1], x[1:] - preemphasis * x[:-1]])
    win = int(round(window_ms * rate / 1000.0))
    hop = int(round(hop_ms * rate / 1000.0))
    n_frames = (y.size - win) // hop + 1
    starts = hop * np.arange(n_frames)
    frames = y[starts[:, None] + np.arange(win)[None, :]]
    frames = frames * (0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(win) / (win - 1)))
    r = np.stack([np.sum(frames[:, : win - k] * frames[:, k:], axis=1) for k in range(order + 1)], axis=1)
    degenerate = r[:, 0] <= 0.0
    out = np.zeros((n_frames, order))
    ok = ~degenerate
    if ok.any():
        lag = np.abs(np.arange(order)[:, None] - np.arange(order)[None, :])
        a = np.linalg.solve(r[ok][:, lag], r[ok][:, 1:, None])[:, :, 0]
        # The poles p_i of 1/A(z) are the eigenvalues of the companion
        # matrix C, and c_n = sum_i p_i^n / n = trace(C^n) / n.
        comp = np.zeros((a.shape[0], order, order))
        comp[:, 0, :] = a
        comp[:, np.arange(1, order), np.arange(order - 1)] = 1.0
        power = comp
        for n in range(1, order + 1):
            out[ok, n - 1] = np.trace(power, axis1=1, axis2=2) / n
            power = power @ comp
    return out, degenerate


def read_wav(path):
    """Samples of a 16-bit mono WAV as floats in [-1, 1)."""
    with wave.open(path, "rb") as fh:
        raw = fh.readframes(fh.getnframes())
    return np.frombuffer(raw, dtype="<i2") / 32768.0
