import numpy as np
import pytest

from vowelkit.errors import DegenerateSpectrum, InvalidInput, TooShort
from vowelkit.frontend import (
    FrontendConfig,
    RawSignal,
    append_deltas,
    apply_hamming,
    autocorr_from_bands,
    extract_features,
    frame_signal,
    hamming_window,
    levinson_durbin,
    lp_to_cepstrum,
    mel_filter_weights,
    mel_filterbank,
    mel_scale,
    mfcc,
    plp,
    power_spectrum,
    pre_emphasize,
)


def sig(samples, rate=16000):
    return RawSignal(np.asarray(samples, dtype=float), rate)


class TestPreEmphasis:
    def test_constant_input(self):
        out = pre_emphasize(sig([1.0, 1.0, 1.0]), 0.95)
        assert np.allclose(out.samples, [1.0, 0.05, 0.05])

    def test_single_sample(self):
        out = pre_emphasize(sig([5.0]), 0.7)
        assert np.allclose(out.samples, [5.0])

    def test_hand_evaluated(self):
        out = pre_emphasize(sig([0.2, -0.4, 0.6]), 0.95)
        assert np.allclose(out.samples, [0.2, -0.59, 0.98])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            pre_emphasize(sig([]), 0.95)

    def test_bad_alpha_rejected(self):
        with pytest.raises(InvalidInput):
            pre_emphasize(sig([1.0, 2.0]), 1.0)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=50)
            a = rng.uniform(-3, 3)
            lhs = pre_emphasize(sig(a * x), 0.95).samples
            rhs = a * pre_emphasize(sig(x), 0.95).samples
            assert np.allclose(lhs, rhs)


class TestFraming:
    def test_frame_count_1024(self):
        frames = frame_signal(sig(np.zeros(1024)), 256, 128)
        assert frames.shape == (7, 256)

    def test_exactly_one_frame(self):
        frames = frame_signal(sig(np.zeros(256)), 256, 128)
        assert frames.shape == (1, 256)

    def test_frame_rate_arithmetic(self):
        # 16 kHz, 256-sample frames with 128 hop: 16 ms frames at 125 fps
        assert 256 / 16000 == 0.016
        assert 16000 / (256 - 128) == 125

    def test_too_short(self):
        with pytest.raises(TooShort):
            frame_signal(sig(np.zeros(200)), 256, 128)

    def test_count_formula_exhaustive(self):
        for length in range(256, 4097, 37):
            frames = frame_signal(sig(np.arange(length, dtype=float)), 256, 128)
            assert frames.shape[0] == (length - 256) // 128 + 1

    def test_frames_are_strided_copies(self):
        x = np.arange(512, dtype=float)
        frames = frame_signal(sig(x), 256, 128)
        assert np.array_equal(frames[1], x[128:384])


class TestHamming:
    def test_endpoints(self):
        w = hamming_window(256)
        assert w[0] == pytest.approx(0.08)

    def test_odd_midpoint_is_one(self):
        w = hamming_window(257)
        assert w[128] == pytest.approx(1.0)

    def test_n4_hand_value(self):
        w = hamming_window(4)
        assert w[1] == pytest.approx(0.54 - 0.46 * np.cos(2 * np.pi / 3))
        assert w[1] == pytest.approx(0.77)

    def test_applies_rowwise(self):
        frames = np.ones((3, 8))
        out = apply_hamming(frames)
        assert np.allclose(out, hamming_window(8)[None, :])


class TestPowerSpectrum:
    def test_zero_frame(self):
        assert np.allclose(power_spectrum(np.zeros(256)), 0.0)

    def test_bin_aligned_cosine(self):
        x = np.cos(2 * np.pi * 32 * np.arange(256) / 256)
        ps = power_spectrum(x)
        assert ps[32] == pytest.approx((256 / 2) ** 2)
        mask = np.ones(129, dtype=bool)
        mask[32] = False
        assert ps[mask].max() < 1e-18

    def test_parseval(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=256)
            ps = power_spectrum(x)
            total = ps[0] + ps[-1] + 2 * ps[1:-1].sum()
            expected = 256 * np.sum(x**2)
            assert abs(total - expected) <= 1e-9 * expected

    def test_non_power_of_two(self):
        with pytest.raises(InvalidInput):
            power_spectrum(np.zeros(300))


class TestMelFilterbank:
    def test_mel_formula(self):
        assert mel_scale(0.0) == 0.0
        assert mel_scale(700.0) == pytest.approx(2595 * np.log10(2), abs=1e-9)
        assert mel_scale(700.0) == pytest.approx(781.17, abs=0.01)

    def test_pure_tone_peaks_in_covering_filter(self):
        t = np.arange(256) / 16000.0
        ps = power_spectrum(np.sin(2 * np.pi * 1000.0 * t) * hamming_window(256))
        energies = mel_filterbank(ps, 16000, 26)
        weights = mel_filter_weights(129, 16000, 26)
        bin_of_1khz = round(1000.0 / (8000.0 / 128))
        covering = np.where(weights[:, bin_of_1khz] > 0)[0]
        assert int(np.argmax(energies)) in covering

    def test_log_floor_on_silence(self):
        energies = mel_filterbank(np.zeros(129), 16000, 26)
        assert np.allclose(energies, np.log(1e-10))


class TestMfcc:
    def test_constant_energies_vanish(self):
        out = mfcc(np.full(26, 3.7), 12)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_dct_orthogonality(self):
        m = 26
        energies = np.cos(np.pi * 1 * (np.arange(1, m + 1) - 0.5) / m)
        out = mfcc(energies, 12)
        assert out[0] == pytest.approx(np.sqrt(2 / m) * m / 2)
        assert np.allclose(out[1:], 0.0, atol=1e-12)

    def test_output_length(self):
        assert mfcc(np.arange(26.0), 12).shape == (12,)

    def test_num_ceps_bound(self):
        with pytest.raises(InvalidInput):
            mfcc(np.arange(10.0), 10)


class TestPlp:
    def test_levinson_order1_hand_case(self):
        a, err = levinson_durbin(np.array([1.0, 0.5]), 1)
        assert a[0] == 1.0
        assert a[1] == pytest.approx(-0.5)
        assert err == pytest.approx(0.75)

    def test_flat_band_spectrum_gives_trivial_lp(self):
        r = autocorr_from_bands(np.ones(20), 12)
        a, err = levinson_durbin(r, 12)
        assert np.abs(a[1:]).max() < 1e-3
        ceps = lp_to_cepstrum(a, 12)
        assert np.abs(ceps).max() < 1e-3

    def test_zero_power_is_degenerate(self):
        with pytest.raises(DegenerateSpectrum):
            levinson_durbin(np.zeros(13), 12)

    def test_output_length(self):
        rng = np.random.default_rng(2)
        ps = power_spectrum(rng.normal(size=256))
        assert plp(ps, 16000, 12, 12).shape == (12,)

    def test_num_ceps_bound(self):
        with pytest.raises(InvalidInput):
            plp(np.ones(129), 16000, 8, 12)


class TestDeltas:
    def test_constant_matrix(self):
        feats = np.tile([1.0, -2.0, 3.0], (5, 1))
        out = append_deltas(feats)
        assert out.shape == (5, 9)
        assert np.allclose(out[:, :3], feats)
        assert np.allclose(out[:, 3:], 0.0)

    def test_dimension_triples(self):
        out = append_deltas(np.random.default_rng(3).normal(size=(7, 12)))
        assert out.shape == (7, 36)

    def test_single_row(self):
        out = append_deltas(np.array([[1.0, 2.0]]))
        assert np.allclose(out, [[1.0, 2.0, 0.0, 0.0, 0.0, 0.0]])

    def test_linear_ramp_slope(self):
        # rows t, delta of a unit ramp away from edges is exactly 1
        feats = np.arange(10.0)[:, None]
        out = append_deltas(feats)
        assert np.allclose(out[3:7, 1], 1.0)


class TestExtractFeatures:
    def test_mfcc_with_deltas_shape(self):
        rng = np.random.default_rng(4)
        feats = extract_features(sig(rng.uniform(-0.5, 0.5, 1024)), FrontendConfig())
        assert feats.shape == (7, 36)

    def test_without_deltas_shape(self):
        rng = np.random.default_rng(4)
        feats = extract_features(
            sig(rng.uniform(-0.5, 0.5, 1024)), FrontendConfig(with_deltas=False)
        )
        assert feats.shape == (7, 12)

    def test_zero_signal_gives_zero_ceps(self):
        feats = extract_features(sig(np.zeros(1024)), FrontendConfig(with_deltas=False))
        assert np.allclose(feats, 0.0, atol=1e-12)

    def test_plp_pipeline_finite(self):
        rng = np.random.default_rng(5)
        feats = extract_features(
            sig(rng.uniform(-0.5, 0.5, 2048)), FrontendConfig(feature_kind="plp")
        )
        assert feats.shape == (15, 36)
        assert np.all(np.isfinite(feats))

    def test_all_outputs_finite(self):
        rng = np.random.default_rng(6)
        for kind in ("mfcc", "plp"):
            x = rng.uniform(-1, 1, 700)
            feats = extract_features(sig(x), FrontendConfig(feature_kind=kind))
            assert np.all(np.isfinite(feats))

    def test_propagates_too_short(self):
        with pytest.raises(TooShort):
            extract_features(sig(np.zeros(200)), FrontendConfig())

    def test_config_validation(self):
        with pytest.raises(InvalidInput):
            FrontendConfig(pre_emphasis=1.5)
        with pytest.raises(InvalidInput):
            FrontendConfig(hop=0)
        with pytest.raises(InvalidInput):
            FrontendConfig(feature_kind="lpc")


class TestFilterWeightCache:
    def test_cached_weights_are_read_only(self):
        from vowelkit.frontend import bark_filter_weights

        for weights in (mel_filter_weights(129, 16000, 26), bark_filter_weights(129, 16000)):
            assert not weights.flags.writeable
            with pytest.raises(ValueError):
                weights[0, 0] = 1.0
        assert mel_filter_weights(129, 16000, 26) is mel_filter_weights(129, 16000, 26)
        assert bark_filter_weights(129, 16000) is bark_filter_weights(129, 16000)

    @pytest.mark.parametrize("kind", ["mfcc", "plp"])
    def test_features_identical_to_uncached_weights(self, kind, monkeypatch):
        from vowelkit import frontend

        x = sig(np.random.default_rng(7).uniform(-0.5, 0.5, 3200))
        cached = extract_features(x, FrontendConfig(feature_kind=kind))
        for name in ("mel_filter_weights", "bark_filter_weights"):
            monkeypatch.setattr(frontend, name, getattr(frontend, name).__wrapped__)
        fresh = extract_features(x, FrontendConfig(feature_kind=kind))
        assert np.array_equal(cached, fresh)
