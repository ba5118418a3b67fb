import hashlib
import struct
import warnings
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from hmmsid.errors import DegenerateFrameError, SignalTooShortError
from hmmsid.features import (
    FeatureMatrix,
    FeatureMeta,
    FrontendConfig,
    autocorrelation,
    cepstral_mean_subtraction,
    config_digest,
    extract_features,
    frame_and_window,
    load_audio,
    load_raw,
    load_wav,
    lpc_levinson_durbin,
    lpc_to_cepstrum,
    pre_emphasize,
    read_features,
    write_features,
)


class TestPreEmphasize:
    def test_constant_signal(self):
        np.testing.assert_allclose(pre_emphasize([1.0, 1.0, 1.0], 0.95), [1.0, 0.05, 0.05])

    def test_zero_coefficient_is_identity(self):
        x = np.array([0.3, -0.2, 0.7])
        np.testing.assert_array_equal(pre_emphasize(x, 0.0), x)

    def test_impulse(self):
        np.testing.assert_allclose(pre_emphasize([1.0, 0.0, 0.0], 0.95), [1.0, -0.95, 0.0])

    def test_empty_input(self):
        assert pre_emphasize(np.array([]), 0.95).size == 0


class TestFrameAndWindow:
    def test_frame_count_formula(self):
        frames = frame_and_window(np.ones(8000), 240, 80)
        assert frames.shape == (98, 240)

    def test_hamming_endpoints(self):
        w = np.hamming(240)
        assert w[0] == pytest.approx(0.08)
        assert w[-1] == pytest.approx(0.08)

    def test_constant_frame_equals_window_curve(self):
        frames = frame_and_window(np.ones(240), 240, 80)
        expected = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(240) / 239)
        np.testing.assert_allclose(frames[0], expected, rtol=1e-12)

    def test_hop_offsets(self):
        x = np.arange(400, dtype=float)
        frames = frame_and_window(x, 240, 80)
        assert frames.shape[0] == 3
        w = np.hamming(240)
        np.testing.assert_allclose(frames[2], x[160:400] * w, rtol=1e-12)

    def test_too_short_signal_raises(self):
        with pytest.raises(SignalTooShortError):
            frame_and_window(np.ones(100), 240, 80)


class TestAutocorrelation:
    def test_impulse(self):
        np.testing.assert_array_equal(autocorrelation([1.0, 0.0, 0.0], 2), [1.0, 0.0, 0.0])

    def test_two_ones(self):
        np.testing.assert_array_equal(autocorrelation([1.0, 1.0], 1), [2.0, 1.0])

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(400)
        x = rng.standard_normal(64)
        got = autocorrelation(x, 12)
        want = oracles.autocorr_naive(x, 12)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_lag_bound_enforced(self):
        with pytest.raises(ValueError):
            autocorrelation(np.ones(4), 4)


class TestLevinsonDurbin:
    def test_order_one_closed_form(self):
        a, err, k = lpc_levinson_durbin([1.0, 0.5], 1)
        np.testing.assert_allclose(a, [0.5])
        assert err == pytest.approx(0.75)
        np.testing.assert_allclose(k, [0.5])

    def test_order_two_with_vanishing_second_reflection(self):
        a, err, k = lpc_levinson_durbin([1.0, 0.5, 0.25], 2)
        np.testing.assert_allclose(a, [0.5, 0.0], atol=1e-15)
        assert err == pytest.approx(0.75)
        np.testing.assert_allclose(k, [0.5, 0.0], atol=1e-15)

    def test_matches_dense_toeplitz_solve(self):
        rng = np.random.default_rng(401)
        for _ in range(25):
            x = rng.standard_normal(256)
            r = oracles.autocorr_naive(x, 12)
            a, _, _ = lpc_levinson_durbin(r, 12)
            want = oracles.toeplitz_lpc(r, 12)
            np.testing.assert_allclose(a, want, rtol=1e-8, atol=1e-10)

    def test_residual_energy_product_formula(self):
        rng = np.random.default_rng(402)
        x = rng.standard_normal(128)
        r = oracles.autocorr_naive(x, 8)
        _, err, k = lpc_levinson_durbin(r, 8)
        assert err == pytest.approx(r[0] * np.prod(1.0 - k**2), rel=1e-10)

    def test_reflection_magnitudes_below_one(self):
        rng = np.random.default_rng(403)
        for _ in range(20):
            x = rng.standard_normal(200)
            r = oracles.autocorr_naive(x, 10)
            _, err, k = lpc_levinson_durbin(r, 10)
            assert np.abs(k).max() < 1.0
            assert err > 0.0

    def test_residual_energy_never_increases_with_order(self):
        rng = np.random.default_rng(404)
        x = rng.standard_normal(200)
        r = oracles.autocorr_naive(x, 10)
        errs = [lpc_levinson_durbin(r, p)[1] for p in range(1, 11)]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[0] <= r[0]

    def test_step_up_round_trip(self):
        # predictor built from known reflection coefficients is recovered
        rng = np.random.default_rng(405)
        ks = rng.uniform(-0.8, 0.8, size=6)
        a = oracles.predictor_from_reflection(ks)
        # synthesize the matching autocorrelation by filtering white noise
        # analytically: solve for r from the Yule-Walker structure instead
        # by sampling a long AR realization
        x = oracles.sample_ar_signal(rng, a, 20000)
        r = autocorrelation(x, 6)
        a_hat, _, k_hat = lpc_levinson_durbin(r, 6)
        np.testing.assert_allclose(a_hat, a, atol=0.06)
        np.testing.assert_allclose(k_hat, ks, atol=0.06)

    def test_zero_energy_frame_raises(self):
        with pytest.raises(DegenerateFrameError):
            lpc_levinson_durbin([0.0, 0.0, 0.0], 2)


class TestCepstrumRecursion:
    def test_first_coefficient_is_first_predictor_weight(self):
        rng = np.random.default_rng(406)
        a = rng.uniform(-0.4, 0.4, size=5)
        c = lpc_to_cepstrum(a, 5)
        assert c[0] == a[0]

    def test_hand_computed_second_coefficient(self):
        c = lpc_to_cepstrum(np.array([0.5, 0.0]), 2)
        assert c[1] == pytest.approx(0.125)

    def test_matches_spectral_sampling_oracle(self):
        rng = np.random.default_rng(407)
        for _ in range(15):
            ks = rng.uniform(-0.7, 0.7, size=12)
            a = oracles.shrink_predictor_roots(oracles.predictor_from_reflection(ks))
            got = lpc_to_cepstrum(a, 12)
            want = oracles.spectral_cepstrum(a, 12)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    def test_coefficient_count_bound(self):
        with pytest.raises(ValueError):
            lpc_to_cepstrum(np.array([0.5, 0.1]), 3)


class TestCms:
    def test_small_example(self):
        fm = FeatureMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = cepstral_mean_subtraction(fm)
        np.testing.assert_array_equal(out.frames, [[-1.0, -1.0], [1.0, 1.0]])
        assert out.meta.cms_applied

    def test_zero_column_means(self):
        rng = np.random.default_rng(408)
        out = cepstral_mean_subtraction(FeatureMatrix(rng.standard_normal((40, 5))))
        np.testing.assert_allclose(out.frames.mean(axis=0), 0.0, atol=1e-12)

    def test_constant_rows_become_zero(self):
        fm = FeatureMatrix(np.tile([2.0, -1.0], (6, 1)))
        out = cepstral_mean_subtraction(fm)
        np.testing.assert_allclose(out.frames, 0.0, atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(409)
        once = cepstral_mean_subtraction(FeatureMatrix(rng.standard_normal((20, 3))))
        twice = cepstral_mean_subtraction(once)
        np.testing.assert_allclose(twice.frames, once.frames, atol=1e-12)


class TestExtractFeatures:
    def test_one_second_default_shape(self):
        rng = np.random.default_rng(410)
        fm = extract_features(0.2 * rng.standard_normal(8000))
        assert fm.frames.shape == (98, 12)
        assert not fm.meta.cms_applied
        assert fm.meta.config_hash == FrontendConfig().digest()

    def test_cms_flag_produces_zero_means(self):
        rng = np.random.default_rng(411)
        fm = extract_features(0.2 * rng.standard_normal(8000), FrontendConfig(cms=True))
        np.testing.assert_allclose(fm.frames.mean(axis=0), 0.0, atol=1e-10)
        assert fm.meta.cms_applied

    def test_planted_ar2_filter_recovered(self):
        rng = np.random.default_rng(412)
        coeffs = np.array([1.2, -0.6])
        x = oracles.sample_ar_signal(rng, coeffs, 8000, noise_std=0.1)
        x = x / np.abs(x).max() * 0.6
        cfg = FrontendConfig(preemphasis=0.0, lpc_order=2, cepstrum_order=2)
        frames = frame_and_window(x, cfg.window_samples, cfg.hop_samples)
        recovered = []
        for f in frames:
            r = autocorrelation(f, 2)
            a, _, _ = lpc_levinson_durbin(r, 2)
            recovered.append(a)
        med = np.median(recovered, axis=0)
        np.testing.assert_allclose(med, coeffs, atol=0.12)

    def test_silent_stretch_flags_degenerate_frames(self):
        rng = np.random.default_rng(413)
        x = np.concatenate([0.3 * rng.standard_normal(4000), np.zeros(4000)])
        fm = extract_features(x)
        assert len(fm.meta.degenerate_frames) > 0
        for t in fm.meta.degenerate_frames:
            np.testing.assert_array_equal(fm.frames[t], 0.0)

    def test_all_silence_raises(self):
        with pytest.raises(DegenerateFrameError):
            extract_features(np.zeros(8000))

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShortError):
            extract_features(np.ones(100))

    @pytest.mark.parametrize("window_ms, longest", [(1.0, 7), (1.5, 11)])
    def test_window_shorter_than_the_prediction_order_raises(self, window_ms, longest):
        rng = np.random.default_rng(417)
        with pytest.raises(ValueError) as caught:
            extract_features(0.3 * rng.standard_normal(400), FrontendConfig(window_ms=window_ms))
        assert str(caught.value) == f"max_lag must be in [0, {longest}]"

    def test_deterministic(self):
        rng = np.random.default_rng(414)
        x = 0.2 * rng.standard_normal(8000)
        a = extract_features(x)
        b = extract_features(x)
        np.testing.assert_array_equal(a.frames, b.frames)


def _speech(rng, n_samples):
    """A stable AR(4) process scaled to half full scale, on the 16-bit grid."""
    x = oracles.sample_ar_signal(rng, oracles.predictor_from_reflection([0.7, -0.5, 0.3, -0.2]),
                                 n_samples, noise_std=0.1)
    return np.round(0.5 * 32767.0 * x / np.abs(x).max()) / 32768.0


def _pinned_signal(kind):
    x = _speech(np.random.default_rng(420), 12000)
    if kind == "lead-silence":
        x[:2000] = 0.0
    elif kind == "mid-silence":
        x[5000:7000] = 0.0
    return x


def _one_frame_chain(x, config):
    """extract_features built from the one-frame public functions, frame by
    frame: (coefficients, degenerate frames), or the DegenerateFrameError."""
    frames = frame_and_window(pre_emphasize(x, config.preemphasis),
                              config.window_samples, config.hop_samples)
    out = np.zeros((frames.shape[0], config.cepstrum_order))
    bad = []
    for t, frame in enumerate(frames):
        r = autocorrelation(frame, config.lpc_order)
        try:
            a, _, _ = lpc_levinson_durbin(r, config.lpc_order)
        except DegenerateFrameError:
            bad.append(t)
            continue
        out[t] = lpc_to_cepstrum(a, config.cepstrum_order)
    if len(bad) == frames.shape[0]:
        return DegenerateFrameError
    if config.cms:
        out = cepstral_mean_subtraction(FeatureMatrix(out)).frames
    return out, tuple(bad)


class TestFrameBatchedKernel:
    """extract_features runs the DSP over all frames of an utterance at once;
    every row must carry the bits of the one-frame functions."""

    # sha256 of extract_features output (coefficient bytes, degenerate
    # frames, cms flag), recorded with the per-frame implementation
    PINNED = {
        ("speech", 12, 12, False):
            "0c2b539e8a62a313e1a04100b45761d4c6bd8bec1f81e99b37a377de354387be",
        ("lead-silence", 12, 12, False):
            "dea71bc50816a02748f624aab46ae9e67a6319aef44d604c778f8014e9a9481b",
        ("mid-silence", 12, 12, True):
            "3b032e8c14f6214a6f4aa0c40711b947ca8ad3660d8401e143e39db98093ec22",
        ("speech", 1, 1, False):
            "8c6c6ce71252074f456e29202ce565fb82217d984644415da544a28508d294a5",
        ("mid-silence", 20, 16, False):
            "f2faa088404e732352ee6ddd140fbfa49c04e168a724b768a9e8ed394aa4ad8c",
        ("lead-silence", 20, 20, True):
            "ca1c2b798e13fef72e37bb49f72dd76d8e10336e5854c977fda2c9b89c200600",
    }

    @pytest.mark.parametrize("kind, lpc_order, cepstrum_order, cms", list(PINNED))
    def test_pinned_digest(self, kind, lpc_order, cepstrum_order, cms):
        config = FrontendConfig(lpc_order=lpc_order, cepstrum_order=cepstrum_order, cms=cms)
        fm = extract_features(_pinned_signal(kind), config)
        h = hashlib.sha256(fm.frames.tobytes())
        h.update(repr((fm.meta.degenerate_frames, fm.meta.cms_applied)).encode())
        assert h.hexdigest() == self.PINNED[kind, lpc_order, cepstrum_order, cms]

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lpc_order=st.integers(1, 20),
        cepstrum_cut=st.integers(0, 19),
        window_ms=st.sampled_from([10.0, 20.0, 25.0, 30.0]),
        hop_ms=st.sampled_from([5.0, 10.0, 12.5]),
        cms=st.booleans(),
        n_zero_stretches=st.integers(0, 4),
    )
    def test_rows_equal_the_one_frame_chain(self, seed, lpc_order, cepstrum_cut, window_ms,
                                            hop_ms, cms, n_zero_stretches):
        rng = np.random.default_rng(seed)
        x = 0.3 * rng.standard_normal(int(rng.integers(240, 2400)))
        if rng.random() < 0.5:
            x = np.round(x * 32767.0) / 32768.0
        for _ in range(n_zero_stretches):
            start = int(rng.integers(0, x.size))
            x[start:start + int(rng.integers(1, 600))] = 0.0
        config = FrontendConfig(window_ms=window_ms, hop_ms=hop_ms, lpc_order=lpc_order,
                                cepstrum_order=max(1, lpc_order - cepstrum_cut), cms=cms)
        want = _one_frame_chain(x, config)
        if want is DegenerateFrameError:
            with pytest.raises(DegenerateFrameError, match="every frame"):
                extract_features(x, config)
            return
        fm = extract_features(x, config)
        assert fm.frames.tobytes() == want[0].tobytes()
        assert fm.meta.degenerate_frames == want[1]

    def test_silent_frames_emit_no_runtime_warning(self):
        x = _pinned_signal("lead-silence")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fm = extract_features(x)
            with pytest.raises(DegenerateFrameError):
                lpc_levinson_durbin(autocorrelation(np.zeros(240), 12), 12)
        assert len(fm.meta.degenerate_frames) > 0

    @pytest.mark.parametrize("r, text", [
        ([0.0, 0.0, 0.0], "r[0] = 0 is not positive"),
        ([-2.5, 0.0, 0.0], "r[0] = -2.5 is not positive"),
        ([1.0, 1.0, 0.5], "prediction error vanished at order 1 (|k| >= 1)"),
        ([1.0, 0.5, 1.0], "prediction error vanished at order 2 (|k| >= 1)"),
    ])
    def test_degenerate_frame_texts(self, r, text):
        with pytest.raises(DegenerateFrameError) as caught:
            lpc_levinson_durbin(r, 2)
        assert str(caught.value) == text

    def test_nan_autocorrelation_is_not_degenerate(self):
        a, err, k = lpc_levinson_durbin([np.nan, 0.5, 0.2], 2)
        assert np.isnan(a).all() and np.isnan(err) and np.isnan(k).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_is_rejected(self, bad):
        x = _pinned_signal("speech")
        x[1234] = bad
        x[5000] = bad
        with pytest.raises(ValueError) as caught:
            extract_features(x, source="spk01/a.wav")
        assert str(caught.value) == "utterance 'spk01/a.wav': non-finite sample at index 1234"
        with pytest.raises(ValueError, match="^non-finite sample at index 1234$"):
            extract_features(x)


class TestAudioIngestion:
    def _write_wav(self, path, samples, rate=8000):
        pcm = np.clip(np.asarray(samples) * 32768.0, -32768, 32767).astype("<i2")
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(rate)
            fh.writeframes(pcm.tobytes())
        return pcm

    def test_wav_round_trip(self, tmp_path):
        rng = np.random.default_rng(415)
        samples = rng.uniform(-0.9, 0.9, size=1000)
        p = tmp_path / "a.wav"
        pcm = self._write_wav(p, samples)
        rate, back = load_wav(p)
        assert rate == 8000
        np.testing.assert_array_equal(back, pcm.astype(float) / 32768.0)
        np.testing.assert_allclose(back, samples, atol=1.001 / 32768)

    def test_raw_round_trip(self, tmp_path):
        pcm = np.array([0, 16384, -16384, 32767], dtype="<i2")
        p = tmp_path / "a.raw"
        p.write_bytes(pcm.tobytes())
        rate, back = load_raw(p, 8000)
        assert rate == 8000
        np.testing.assert_allclose(back, pcm.astype(float) / 32768.0)

    @pytest.mark.parametrize("size", [1, 3, 9])
    def test_raw_with_an_odd_byte_count_rejected(self, tmp_path, size):
        p = tmp_path / "cut.raw"
        p.write_bytes(bytes(range(size)))
        message = f"{p}: {size} bytes is not a whole number of 16-bit samples"
        with pytest.raises(ValueError) as caught:
            load_raw(p, 8000)
        assert str(caught.value) == message
        with pytest.raises(ValueError) as caught:
            load_audio(p, FrontendConfig())
        assert str(caught.value) == message

    def test_rate_mismatch_rejected(self, tmp_path):
        p = tmp_path / "a.wav"
        self._write_wav(p, np.zeros(100), rate=16000)
        with pytest.raises(ValueError, match="rate"):
            load_audio(p, FrontendConfig(sample_rate=8000))

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "st.wav"
        with wave.open(str(p), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(b"\x00\x00" * 200)
        with pytest.raises(ValueError, match="mono"):
            load_wav(p)


class TestFeatureCaches:
    def _sample(self, cms=False):
        rng = np.random.default_rng(416)
        return FeatureMatrix(
            rng.standard_normal((7, 3)),
            FeatureMeta(source="u1", cms_applied=cms, config_hash=12345, degenerate_frames=(2,)),
        )

    def test_binary_round_trip_exact(self, tmp_path):
        fm = self._sample(cms=True)
        p = tmp_path / "u1.lpcf"
        write_features(fm, p)
        back = read_features(p)
        np.testing.assert_array_equal(back.frames, fm.frames)
        assert back.meta.cms_applied
        assert back.meta.config_hash == 12345
        assert back.meta.source == "u1"

    # Bit patterns of -0.0, the smallest and largest subnormals, and NaNs
    # with payloads (quiet, signalling, negative).
    SPECIAL_BITS = [0x8000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF,
                    0x7FF8000000000001, 0x7FF0000000000001, 0xFFFABCDEF0123456]

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        t=st.integers(0, 6),
        d=st.integers(1, 5),
        data=st.data(),
        cms=st.booleans(),
        config_hash=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    )
    def test_round_trip_keeps_every_bit(self, tmp_path_factory, t, d, data, cms, config_hash):
        words = data.draw(st.lists(
            st.one_of(st.sampled_from(self.SPECIAL_BITS), st.integers(0, 2**64 - 1)),
            min_size=t * d, max_size=t * d))
        frames = np.array(words, dtype=np.uint64).view(np.float64).reshape(t, d)
        p = tmp_path_factory.mktemp("lpcf") / "u.lpcf"
        write_features(FeatureMatrix(frames, FeatureMeta(cms_applied=cms, config_hash=config_hash)), p)
        back = read_features(p)
        assert back.frames.shape == (t, d)
        assert back.frames.tobytes() == frames.tobytes()
        assert back.meta.cms_applied is cms
        assert back.meta.config_hash == config_hash

    def test_binary_header_layout(self, tmp_path):
        fm = self._sample()
        p = tmp_path / "u1.lpcf"
        write_features(fm, p)
        blob = p.read_bytes()
        magic, version, flags, t, d, h = struct.unpack("<4sHHIIQ", blob[:24])
        assert magic == b"LPCF"
        assert version == 1
        assert flags == 0
        assert (t, d) == (7, 3)
        assert h == 12345
        assert len(blob) == 24 + 8 * 7 * 3
        row0 = np.frombuffer(blob, dtype="<f8", offset=24, count=3)
        np.testing.assert_array_equal(row0, fm.frames[0])

    def test_binary_write_deterministic(self, tmp_path):
        fm = self._sample()
        p1, p2 = tmp_path / "a.lpcf", tmp_path / "b.lpcf"
        write_features(fm, p1)
        write_features(fm, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_cache_rejected(self, tmp_path):
        fm = self._sample()
        p = tmp_path / "u1.lpcf"
        write_features(fm, p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_features(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        fm = self._sample()
        p = tmp_path / "u1.lpcf"
        write_features(fm, p)
        size = p.stat().st_size
        p.write_bytes(p.read_bytes() + b"\x00" * 7)
        with pytest.raises(ValueError, match=f"7 trailing bytes after the {size}-byte cache") as info:
            read_features(p)
        assert "truncated" not in str(info.value)

    def test_zero_coefficient_frames_not_written(self, tmp_path):
        p = tmp_path / "u1.lpcf"
        with pytest.raises(ValueError) as info:
            write_features(FeatureMatrix(np.zeros((4, 0))), p)
        assert str(info.value) == f"{p}: cannot write a cache of 0 coefficients per frame"
        assert list(tmp_path.iterdir()) == []

    def test_zero_coefficient_cache_rejected(self, tmp_path):
        p = tmp_path / "u1.lpcf"
        p.write_bytes(struct.pack("<4sHHIIQ", b"LPCF", 1, 0, 4, 0, 0))   # T = 4, D = 0
        with pytest.raises(ValueError) as info:
            read_features(p)
        assert str(info.value) == f"{p}: cache holds 0 coefficients per frame"

    def test_foreign_file_rejected(self, tmp_path):
        p = tmp_path / "x.lpcf"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            read_features(p)


class TestConfigDigest:
    def test_stable_across_key_order(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})

    def test_differs_on_value_change(self):
        base = FrontendConfig()
        assert base.digest() != FrontendConfig(cms=True).digest()
        assert base.digest() != FrontendConfig(lpc_order=10, cepstrum_order=10).digest()

    def test_window_and_hop_samples(self):
        cfg = FrontendConfig()
        assert cfg.window_samples == 240
        assert cfg.hop_samples == 80

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            FrontendConfig(preemphasis=1.5)
        with pytest.raises(ValueError):
            FrontendConfig(cepstrum_order=20)
        with pytest.raises(ValueError):
            FrontendConfig(sample_rate=0)
