"""Synthetic speech-like WAVs, the frontend workload's inputs.

    python3 perfbench/audio.py PARAMS_JSON SEED AUDIO_DIR

Runs as its own process, so that scipy.signal, which only this input
synthesis needs, stays out of the memory of the measured process.
"""

from __future__ import annotations

import json
import os
import sys
import wave

import numpy as np


def wav_paths(params: dict, audio_dir: str) -> list:
    return [os.path.join(audio_dir, f"utt{i:03d}.wav") for i in range(params["n_files"])]


def _ar_polynomial(reflection):
    """Step-up recursion: reflection coefficients (|k| < 1) to a stable
    A(z) = 1 + a_1 z^-1 + ... ."""
    poly = np.array([1.0])
    for k in reflection:
        ext = np.append(poly, 0.0)
        poly = ext + k * ext[::-1]
    return poly


def synthesize(params: dict, seed: int, audio_dir: str) -> None:
    """Write ``n_files`` 16-bit mono WAVs: a pulse train plus noise through
    a random stable AR filter, after leading digital silence."""
    from scipy.signal import lfilter

    os.makedirs(audio_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    rate = params["sample_rate"]
    lead = np.zeros(int(round(params["lead_silence_s"] * rate)), dtype="<i2")
    for path in wav_paths(params, audio_dir):
        n = int(rng.uniform(params["seconds_min"], params["seconds_max"]) * rate)
        poly = _ar_polynomial(rng.uniform(-0.9, 0.9, params["ar_order"]))
        period = int(round(rate / rng.uniform(80.0, 250.0)))
        excitation = 0.1 * rng.standard_normal(n)
        excitation[::period] += 1.0
        y = lfilter([1.0], poly, excitation)
        pcm = np.round(0.5 * 32767.0 * y / np.max(np.abs(y))).astype("<i2")
        with wave.open(path, "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(rate)
            fh.writeframes(np.concatenate([lead, pcm]).tobytes())


if __name__ == "__main__":
    synthesize(json.loads(sys.argv[1]), int(sys.argv[2]), sys.argv[3])
