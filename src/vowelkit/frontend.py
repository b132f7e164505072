"""Audio front end: pre-emphasis, framing, windowing, MFCC and PLP features.

All functions are pure; a signal goes in, a per-frame feature matrix comes
out.  Frames are 256 samples with a 128-sample hop by default, which at
16 kHz gives 16 ms frames at 125 frames per second.  The spectral steps,
PLP's linear-prediction recursions included, take one frame or a whole frame
matrix, and give each frame the same values either way.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, InvalidInput, TooShort

LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class RawSignal:
    """Mono audio, samples normalized to [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.sample_rate <= 0:
            raise InvalidInput("sample_rate must be positive")
        if self.samples.ndim != 1:
            raise InvalidInput("signal must be one-dimensional")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise InvalidInput("signal contains non-finite samples")


@dataclass(frozen=True)
class FrontendConfig:
    feature_kind: str = "mfcc"  # "mfcc" or "plp"
    pre_emphasis: float = 0.95
    frame_len: int = 256
    hop: int = 128
    num_ceps: int = 12
    with_deltas: bool = True
    num_mel_filters: int = 26
    lp_order: int = 12

    def __post_init__(self):
        if self.feature_kind not in ("mfcc", "plp"):
            raise InvalidInput(f"unknown feature kind: {self.feature_kind!r}")
        if not 0.0 <= self.pre_emphasis < 1.0:
            raise InvalidInput("pre_emphasis must be in [0, 1)")
        if self.frame_len < 2 or self.frame_len & (self.frame_len - 1):
            raise InvalidInput("frame_len must be a power of two >= 2")
        if not 0 < self.hop <= self.frame_len:
            raise InvalidInput("need 0 < hop <= frame_len")
        if self.num_ceps < 1:
            raise InvalidInput("num_ceps must be >= 1")
        if self.feature_kind == "mfcc" and self.num_ceps >= self.num_mel_filters:
            raise InvalidInput("num_ceps must be < num_mel_filters")
        if self.feature_kind == "plp" and self.num_ceps > self.lp_order:
            raise InvalidInput("num_ceps must be <= lp_order")

    @property
    def dim(self) -> int:
        return self.num_ceps * (3 if self.with_deltas else 1)


def pre_emphasize(signal: RawSignal, alpha: float) -> RawSignal:
    """First-order high-pass: y[0] = x[0], y[n] = x[n] - alpha*x[n-1]."""
    if not 0.0 <= alpha < 1.0:
        raise InvalidInput("pre-emphasis coefficient must be in [0, 1)")
    x = signal.samples
    if x.size == 0:
        raise InvalidInput("cannot pre-emphasize an empty signal")
    y = np.concatenate(([x[0]], x[1:] - alpha * x[:-1]))
    return RawSignal(y, signal.sample_rate)


def frame_signal(signal: RawSignal, frame_len: int, hop: int) -> np.ndarray:
    """Slice into overlapping frames; a trailing partial frame is discarded.

    Returns an (n_frames, frame_len) matrix with
    n_frames = floor((len - frame_len)/hop) + 1.
    """
    if hop <= 0:
        raise InvalidInput("hop must be positive")
    x = signal.samples
    if x.size < frame_len:
        raise TooShort(f"signal of {x.size} samples is shorter than one {frame_len}-sample frame")
    n_frames = (x.size - frame_len) // hop + 1
    idx = np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]
    return x[idx]


def hamming_window(n: int) -> np.ndarray:
    """w[k] = 0.54 - 0.46*cos(2*pi*k/(n-1))."""
    if n < 2:
        raise InvalidInput("window length must be >= 2")
    k = np.arange(n)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))


def apply_hamming(frames: np.ndarray) -> np.ndarray:
    frames = np.asarray(frames, dtype=float)
    return frames * hamming_window(frames.shape[-1])


def power_spectrum(frame: np.ndarray) -> np.ndarray:
    """|FFT|^2 over the lower half-spectrum (frame_len/2 + 1 bins).

    Works on a single frame or a frame matrix (last axis is time).
    """
    frame = np.asarray(frame, dtype=float)
    n = frame.shape[-1]
    if n < 2 or n & (n - 1):
        raise InvalidInput(f"frame length {n} is not a power of two")
    spec = np.fft.rfft(frame, axis=-1)
    return np.abs(spec) ** 2


def mel_scale(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=float) / 700.0)


def mel_from_scale(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=float) / 2595.0) - 1.0)


@functools.lru_cache()
def mel_filter_weights(n_fft_bins: int, sample_rate: int, n_filters: int) -> np.ndarray:
    """Triangular filters, centers equally spaced in mel between 0 and Nyquist.

    Returns a cached, read-only (n_filters, n_fft_bins) weight matrix over half-spectrum bins.
    """
    if n_filters < 2:
        raise InvalidInput("need at least 2 mel filters")
    nyquist = sample_rate / 2.0
    edges = mel_from_scale(np.linspace(0.0, mel_scale(nyquist), n_filters + 2))
    bin_freqs = np.linspace(0.0, nyquist, n_fft_bins)
    weights = np.zeros((n_filters, n_fft_bins))
    for m in range(n_filters):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (bin_freqs - lo) / (mid - lo)
        down = (hi - bin_freqs) / (hi - mid)
        weights[m] = np.clip(np.minimum(up, down), 0.0, None)
    weights.flags.writeable = False
    return weights


def mel_filterbank(spectrum: np.ndarray, sample_rate: int, n_filters: int) -> np.ndarray:
    """Log-energies of the triangular mel filterbank (floored before ln)."""
    spectrum = np.asarray(spectrum, dtype=float)
    weights = mel_filter_weights(spectrum.shape[-1], sample_rate, n_filters)
    energies = spectrum @ weights.T
    return np.log(np.maximum(energies, LOG_FLOOR))


def mfcc(log_energies: np.ndarray, num_ceps: int) -> np.ndarray:
    """DCT-II of log filterbank energies, c1..c_num_ceps (c0 excluded)."""
    log_energies = np.asarray(log_energies, dtype=float)
    n_filters = log_energies.shape[-1]
    if num_ceps >= n_filters:
        raise InvalidInput("num_ceps must be < number of filters")
    m = np.arange(1, n_filters + 1)
    n = np.arange(1, num_ceps + 1)
    basis = np.cos(np.pi * np.outer(n, m - 0.5) / n_filters)
    return np.sqrt(2.0 / n_filters) * (log_energies @ basis.T)


# --- PLP ------------------------------------------------------------------


def bark_scale(freq_hz):
    """Hermansky's Bark warping: 6*asinh(f/600)."""
    f = np.asarray(freq_hz, dtype=float)
    return 6.0 * np.arcsinh(f / 600.0)


def _critical_band_curve(db):
    """Asymmetric masking curve around a band center, in Bark offsets."""
    psi = np.zeros_like(db)
    lo = (db >= -1.3) & (db <= -0.5)
    psi[lo] = 10.0 ** (2.5 * (db[lo] + 0.5))
    mid = (db > -0.5) & (db < 0.5)
    psi[mid] = 1.0
    hi = (db >= 0.5) & (db <= 2.5)
    psi[hi] = 10.0 ** (-1.0 * (db[hi] - 0.5))
    return psi


@functools.lru_cache()
def bark_filter_weights(n_fft_bins: int, sample_rate: int) -> np.ndarray:
    """Critical-band masking filters 1 Bark apart over 0..Nyquist; cached, read-only."""
    nyquist = sample_rate / 2.0
    bin_barks = bark_scale(np.linspace(0.0, nyquist, n_fft_bins))
    n_bands = int(np.floor(bark_scale(nyquist))) + 1
    centers = np.arange(n_bands, dtype=float)
    weights = np.stack([_critical_band_curve(bin_barks - c) for c in centers])
    weights.flags.writeable = False
    return weights


def equal_loudness(freq_hz):
    """40 dB equal-loudness preemphasis curve E(w)."""
    w2 = (2.0 * np.pi * np.asarray(freq_hz, dtype=float)) ** 2
    return ((w2 + 56.8e6) * w2 ** 2) / ((w2 + 6.3e6) ** 2 * (w2 + 0.38e9))


def auditory_spectrum(spectrum: np.ndarray, sample_rate: int) -> np.ndarray:
    """Bark-band integration, equal-loudness weighting, 0.33 compression.

    Works on a single spectrum or a frame matrix (last axis is frequency).
    """
    spectrum = np.asarray(spectrum, dtype=float)
    weights = bark_filter_weights(spectrum.shape[-1], sample_rate)
    # one vector-matrix product per frame, as for a single spectrum: a whole
    # matrix product sums in another order and differs in the last bits
    bands = np.matmul(spectrum[..., None, :], weights.T)[..., 0, :]
    n_bands = weights.shape[0]
    nyquist = sample_rate / 2.0
    centers_hz = 600.0 * np.sinh(np.arange(n_bands) / 6.0)
    centers_hz = np.minimum(centers_hz, nyquist)
    loud = equal_loudness(np.maximum(centers_hz, 1.0))
    return np.maximum(bands * loud, LOG_FLOOR) ** 0.33


def autocorr_from_bands(bands: np.ndarray, order: int) -> np.ndarray:
    """Autocorrelation lags 0..order via inverse DFT of the band spectrum.

    The band values are treated as an even-symmetric half spectrum.
    """
    bands = np.asarray(bands, dtype=float)
    n = bands.shape[-1]
    if order >= n:
        raise InvalidInput("autocorrelation order must be < number of bands")
    sym = np.concatenate([bands, bands[..., -2:0:-1]], axis=-1)
    r = np.fft.ifft(sym, axis=-1).real
    return r[..., : order + 1]


def levinson_durbin(r: np.ndarray, order: int):
    """Solve the Toeplitz normal equations; returns (a, err) with a[..., 0] = 1.

    r holds lags 0..order on its last axis, for one frame or a frame matrix;
    every frame is solved in the same order-step loop.  Raises
    DegenerateSpectrum if any frame has a non-positive error variance.
    """
    r = np.asarray(r, dtype=float)
    if r.shape[-1] < order + 1:
        raise InvalidInput("need order+1 autocorrelation lags")
    a = np.zeros(r.shape[:-1] + (order + 1,))
    a[..., 0] = 1.0
    err = r[..., 0].copy()
    if np.any(err <= 0.0):
        raise DegenerateSpectrum("zero-power autocorrelation")
    for i in range(1, order + 1):
        dot = np.zeros_like(err)  # a[1:i] . r[i-1:0:-1], summed from the left
        for j in range(1, i):
            dot = dot + a[..., j] * r[..., i - j]
        k = -(r[..., i] + dot) / err
        a[..., 1:i] = a[..., 1:i] + k[..., None] * a[..., i - 1 : 0 : -1]
        a[..., i] = k
        err *= 1.0 - k * k
        if np.any(err <= 0.0):
            raise DegenerateSpectrum("non-positive prediction-error variance")
    return a, err[()]  # a scalar for one frame


def lp_to_cepstrum(a: np.ndarray, num_ceps: int) -> np.ndarray:
    """Cepstra c1..c_num_ceps from LP coefficients (a[..., 0] = 1), per frame."""
    a = np.asarray(a, dtype=float)
    order = a.shape[-1] - 1
    c = np.zeros(a.shape[:-1] + (num_ceps + 1,))
    for n in range(1, num_ceps + 1):
        acc = -a[..., n] if n <= order else np.zeros(a.shape[:-1])
        for k in range(max(1, n - order), n):
            acc = acc - (k / n) * c[..., k] * a[..., n - k]
        c[..., n] = acc
    return c[..., 1:]


def plp(spectrum: np.ndarray, sample_rate: int, lp_order: int, num_ceps: int) -> np.ndarray:
    """Perceptual linear prediction cepstra of a power half-spectrum or a frame matrix."""
    if num_ceps > lp_order:
        raise InvalidInput("num_ceps must be <= lp_order")
    bands = auditory_spectrum(spectrum, sample_rate)
    r = autocorr_from_bands(bands, lp_order)
    a, _err = levinson_durbin(r, lp_order)
    return lp_to_cepstrum(a, num_ceps)


# --- deltas and the full pipeline -----------------------------------------


def _delta(features: np.ndarray) -> np.ndarray:
    """+-2 window regression slope with edge rows replicated."""
    n = features.shape[0]
    idx = np.clip(np.arange(-2, n + 2), 0, n - 1)
    padded = features[idx]
    num = sum(k * (padded[2 + k : 2 + k + n] - padded[2 - k : 2 - k + n]) for k in (1, 2))
    return num / (2.0 * (1 + 4))


def append_deltas(features: np.ndarray) -> np.ndarray:
    """[static | delta | delta-delta]; triples the column count."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] < 1:
        raise InvalidInput("feature matrix must have at least one row")
    d1 = _delta(features)
    d2 = _delta(d1)
    return np.hstack([features, d1, d2])


def extract_features(signal: RawSignal, config: FrontendConfig) -> np.ndarray:
    """Full front end: pre-emphasis, framing, Hamming, FFT, MFCC or PLP, deltas."""
    emphasized = pre_emphasize(signal, config.pre_emphasis)
    frames = frame_signal(emphasized, config.frame_len, config.hop)
    spectra = power_spectrum(apply_hamming(frames))
    if config.feature_kind == "mfcc":
        log_e = mel_filterbank(spectra, signal.sample_rate, config.num_mel_filters)
        feats = mfcc(log_e, config.num_ceps)
    else:
        feats = plp(spectra, signal.sample_rate, config.lp_order, config.num_ceps)
    if config.with_deltas:
        feats = append_deltas(feats)
    return feats
