import struct
import wave

import numpy as np
import pytest

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

    def test_deterministic(self):
        rng = np.random.default_rng(414)
        x = 0.2 * rng.standard_normal(8000)
        a = extract_features(x)
        b = extract_features(x)
        np.testing.assert_array_equal(a.frames, b.frames)


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
