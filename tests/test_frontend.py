import numpy as np
import pytest

import vowelkit.frontend as frontend
from vowelkit.corpus import PhonemeToken
from vowelkit.errors import DegenerateSpectrum, InvalidInput, TooShort
from vowelkit.experiment import extract_token_features
from vowelkit.frontend import (
    FrontendConfig,
    RawSignal,
    append_deltas,
    apply_hamming,
    autocorr_from_bands,
    bark_filter_weights,
    equal_loudness,
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

    @pytest.mark.parametrize("frame_len", [0, 1, 200, 384])
    def test_frame_len_must_be_a_power_of_two(self, frame_len):
        # power_spectrum needs one, so the config rejects any other length up front
        with pytest.raises(InvalidInput):
            FrontendConfig(frame_len=frame_len, hop=1)


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


def _one_frame_plp(spectrum, sample_rate, lp_order, num_ceps):
    """PLP of one power spectrum as it was computed frame by frame, in scalar loops."""
    weights = bark_filter_weights(spectrum.shape[-1], sample_rate)
    centers_hz = np.minimum(600.0 * np.sinh(np.arange(weights.shape[0]) / 6.0), sample_rate / 2)
    loud = equal_loudness(np.maximum(centers_hz, 1.0))
    bands = np.maximum((spectrum @ weights.T) * loud, 1e-10) ** 0.33
    r = autocorr_from_bands(bands, lp_order)
    a = np.zeros(lp_order + 1)
    a[0] = 1.0
    err = r[0]
    if err <= 0.0:
        raise DegenerateSpectrum("zero-power autocorrelation")
    for i in range(1, lp_order + 1):
        acc = r[i] + a[1:i] @ r[i - 1 : 0 : -1]
        k = -acc / err
        new = a[: i + 1].copy()
        for j in range(1, i):
            new[j] = a[j] + k * a[i - j]
        new[i] = k
        a[: i + 1] = new
        err *= 1.0 - k * k
        if err <= 0.0:
            raise DegenerateSpectrum("non-positive prediction-error variance")
    c = np.zeros(num_ceps + 1)
    for n in range(1, num_ceps + 1):
        acc = -a[n] if n <= lp_order else 0.0
        for k in range(1, n):
            if n - k <= lp_order:
                acc -= (k / n) * c[k] * a[n - k]
        c[n] = acc
    return c[1:]


def _degenerate_fifth_frame(monkeypatch, lags):
    """Make frame 4 of every token of at least five frames degenerate."""
    original = frontend.autocorr_from_bands

    def patched(bands, order):
        r = original(bands, order)
        if r.ndim == 2 and r.shape[0] >= 5:
            r[4] = lags[: order + 1]
        return r

    monkeypatch.setattr(frontend, "autocorr_from_bands", patched)


class TestFrameBatchedPlp:
    @pytest.mark.parametrize("lp_order, num_ceps", [(12, 12), (12, 8), (4, 4)])
    def test_equals_one_frame_loop(self, lp_order, num_ceps):
        rng = np.random.default_rng(40 + lp_order + num_ceps)
        config = FrontendConfig(feature_kind="plp", lp_order=lp_order, num_ceps=num_ceps)
        for _ in range(6):
            signal = sig(rng.normal(size=int(rng.integers(256, 4000))) * rng.uniform(0.01, 1.0))
            frames = frame_signal(pre_emphasize(signal, 0.95), 256, 128)
            spectra = power_spectrum(apply_hamming(frames))
            want = np.stack([_one_frame_plp(row, 16000, lp_order, num_ceps) for row in spectra])
            assert np.array_equal(extract_features(signal, config), append_deltas(want))
            assert np.array_equal(plp(spectra, 16000, lp_order, num_ceps), want)
            assert np.array_equal(plp(spectra[0], 16000, lp_order, num_ceps), want[0])

    def test_rows_equal_single_frame_calls(self):
        rng = np.random.default_rng(41)
        r = np.stack([autocorr_from_bands(rng.uniform(0.1, 2.0, size=20), 12) for _ in range(9)])
        a, err = levinson_durbin(r, 12)
        assert a.shape == (9, 13) and err.shape == (9,)
        for row, a_row, err_row in zip(r, a, err):
            a_one, err_one = levinson_durbin(row, 12)
            assert np.array_equal(a_one, a_row) and err_one == err_row
        ceps = lp_to_cepstrum(a, 12)
        assert np.array_equal(ceps, np.stack([lp_to_cepstrum(row, 12) for row in a]))

    @pytest.mark.parametrize("lags", [np.zeros(13), np.ones(13)])
    def test_one_degenerate_frame_fails_the_token(self, lags):
        r = np.stack([autocorr_from_bands(np.ones(20), 12)] * 6)
        r[4] = lags
        with pytest.raises(DegenerateSpectrum):
            levinson_durbin(r, 12)

    @pytest.mark.parametrize("lags", [np.zeros(13), np.ones(13)])
    def test_degenerate_token_raises_and_is_skipped(self, monkeypatch, lags):
        _degenerate_fifth_frame(monkeypatch, lags)
        rng = np.random.default_rng(42)
        samples = rng.normal(size=4000)
        config = FrontendConfig(feature_kind="plp")
        with pytest.raises(DegenerateSpectrum):
            extract_features(sig(samples[:1024]), config)  # 7 frames
        assert extract_features(sig(samples[:512]), config).shape == (3, 36)
        tokens = [PhonemeToken("aa", 0, 512, "u", "test", "u.wav"),
                  PhonemeToken("aa", 512, 1536, "u", "test", "u.wav"),
                  PhonemeToken("iy", 1536, 2048, "u", "test", "u.wav")]
        got = extract_token_features(tokens, config, {"u.wav": sig(samples)})
        assert [feats is None for _token, feats in got] == [False, True, False]
