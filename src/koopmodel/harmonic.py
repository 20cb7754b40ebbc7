"""Frequency-domain eigenvalue detection for on-attractor dynamics.

Works on a single scalar time series (real or complex) sampled once per
step.  All frequencies are in cycles/step and restricted to [0, 0.5], so
bin arithmetic stays exact: bin ``b`` of an ``N``-point transform sits at
``b / N``.  No window is applied before the FFT; off-bin frequencies are
recovered by maximizing the harmonic average instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

#: Fraction of a bin below which two refined peaks are considered duplicates.
_MERGE_FRACTION = 0.5


@dataclass(frozen=True)
class FrequencySpectrum:
    """Amplitudes of a series at the non-negative FFT bins.

    ``amplitudes[i]`` is ``|DFT(series)[b]| / series_length`` at frequency
    ``frequencies[i] = b / series_length``; bins run from 0 through
    ``floor(series_length / 2)`` so frequencies stay within [0, 0.5].
    """

    frequencies: np.ndarray
    amplitudes: np.ndarray
    series_length: int


@dataclass(frozen=True)
class EigenFrequency:
    """A detected unit-circle eigenvalue candidate.

    ``average`` is the harmonic average of the series at ``omega``; its
    magnitude is near 1 for a pure rotation observed through a unimodular
    observable, and its value is the eigenfunction-weighted projection at
    the start of the series.
    """

    omega: float
    average: complex
    eigenvalue: complex

    @property
    def amplitude(self) -> float:
        return abs(self.average)


def _as_series(series) -> np.ndarray:
    values = np.asarray(series)
    if values.ndim != 1:
        raise InputError(f"expected a 1-D series, got shape {values.shape}")
    values = values.astype(complex)
    if not np.isfinite(values).all():
        raise InputError("series contains NaN or infinite entries")
    return values


def _terms(values: np.ndarray, k: np.ndarray, omega: float) -> np.ndarray:
    """``exp(-2 pi i omega k) x_k``, built in one array of n complex."""
    terms = k * (-2j * np.pi * omega)
    np.exp(terms, out=terms)
    terms *= values
    return terms


def _average(values: np.ndarray, omega: float) -> complex:
    return complex(np.mean(_terms(values, np.arange(values.size), omega)))


def harmonic_average(series, omega: float) -> complex:
    """Fourier average (1/N) sum_k exp(-2*pi*i*omega*k) * series[k].

    A nonzero value flags ``exp(2*pi*i*omega)`` as a Koopman eigenvalue of
    the sampled dynamics; the value itself projects the observable onto the
    corresponding eigenfunction.
    """
    values = _as_series(series)
    if values.size < 1:
        raise InputError("harmonic average needs at least one sample")
    return _average(values, omega)


def fft_amplitude_spectrum(series) -> FrequencySpectrum:
    """Normalized DFT amplitudes at the non-negative frequency bins.

    Any series length is accepted (the transform is a plain mixed-radix
    DFT, not restricted to powers of two).  Amplitudes are ``|F_b| / N`` so
    an exact-bin unit rotation shows amplitude 1 and an exact-bin unit
    cosine shows amplitude 0.5 split across the two mirrored bins.
    """
    values = _as_series(series)
    n = values.size
    if n < 4:
        raise InputError(f"need at least 4 samples for a spectrum, got {n}")
    transform = np.fft.fft(values)
    n_bins = n // 2 + 1
    return FrequencySpectrum(
        frequencies=np.arange(n_bins) / n,
        amplitudes=np.abs(transform[:n_bins]) / n,
        series_length=n,
    )


def _peak_bins(amplitudes: np.ndarray, threshold: float) -> np.ndarray:
    floor = threshold * np.max(amplitudes)
    padded = np.concatenate(([-np.inf], amplitudes, [-np.inf]))
    return np.flatnonzero((amplitudes > padded[:-2])
                          & (amplitudes > padded[2:])
                          & (amplitudes >= floor) & (amplitudes != 0.0))


def _smooth_length(m: int) -> int:
    """The smallest integer >= ``m`` with no prime factor above 5: an FFT
    of that length is fast, unlike one of a length with a large prime."""
    best, p5 = 2 * m, 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < m:
                p *= 2
            best, p35 = min(best, p), p35 * 3
        p5 *= 5
    return best


def _chirp_z(values: np.ndarray, size: int, count: int):
    """The function of ``first`` that gives the ``count`` magnitudes
    ``|sum_k x_k exp(-2 pi i (first + j) k / size)|``, j < count: points
    ``first`` onward of ``|fft(values, size)|`` in memory linear in n.

    By Bluestein's identity ``jk = (j^2 + k^2 - (j - k)^2) / 2`` the sum is
    the chirp ``exp(-pi i j^2 / size)``, of modulus 1 and dropped here,
    times a convolution of ``x_k exp(-2 pi i first k / size)
    exp(-pi i k^2 / size)`` with ``exp(pi i m^2 / size)``, taken by FFT at
    the 5-smooth length >= n + count - 1 (Rabiner, Schafer & Rader 1969).
    The chirp and the transform of its conjugate are taken here, once per
    series.  Phase indices are reduced exactly in int64, ``m^2 mod 2 size``
    and ``first k mod size``, which stay below 2^63 while ``n * size / 2``
    does: up to n of about 10^9 at size ~ 16n.
    """
    n = values.size
    chirp = np.arange(max(n, count))
    chirp *= chirp
    chirp %= 2 * size
    chirp = np.exp(chirp * (1j * np.pi / size))
    length = _smooth_length(n + count - 1)
    kernel = np.zeros(length, complex)
    kernel[:count] = chirp[:count]
    kernel[length - n + 1:] = chirp[n - 1:0:-1]
    np.fft.fft(kernel, out=kernel)
    chirped = np.conj(chirp[:n], out=chirp[:n])
    chirped *= values

    def magnitudes(first: int) -> np.ndarray:
        phase = np.arange(n) * first
        phase %= size
        buffer = np.zeros(length, complex)
        head = buffer[:n]
        np.multiply(phase, -2j * np.pi / size, out=head)
        np.exp(head, out=head)
        head *= chirped
        np.fft.fft(buffer, out=buffer)
        buffer *= kernel
        np.fft.ifft(buffer, out=buffer)
        return np.abs(buffer[:count])

    return magnitudes


def _refine_omega(values: np.ndarray, zoom, size: int, b: int):
    """``(omega, average)`` maximizing |harmonic average| within one bin of
    peak bin ``b``, where ``zoom`` is the `_chirp_z` of ``values`` on the
    grid of step 1/``size``."""
    n = values.size
    omega = b / n
    lo, hi = max(0.0, omega - 1.0 / n), min(0.5, omega + 1.0 / n)
    # Coarse scan of the 1/L grid (index L // 2 is the last up to 0.5) first:
    # sidelobes within +-1 bin could pull a local search onto the wrong lobe.
    first = max(0, -(-(b - 1) * size // n))
    last = min((b + 1) * size // n, size // 2)
    step = 1.0 / size
    w = (first + int(np.argmax(zoom(first)[:last - first + 1]))) * step
    left, right = max(lo, w - step), min(hi, w + step)
    # Newton steps on f = |H|^2, H(w) = mean(exp(-2*pi*i*w*k) * x_k).  With
    # S_j = sum(k^j exp(-2*pi*i*w*k) x_k), f' = 4*pi Im(conj(S0) S1) / n^2
    # and f'' = 8*pi^2 (|S1|^2 - Re(conj(S0) S2)) / n^2.
    k = np.arange(n, dtype=float)
    for _ in range(8):
        terms = _terms(values, k, w)
        s0, s1, s2 = terms.sum(), k @ terms, (k * k) @ terms
        curve = abs(s1) ** 2 - (s0.conjugate() * s2).real
        if curve >= 0:
            break
        shift = (s0.conjugate() * s1).imag / (2 * np.pi * curve)
        w, previous = min(right, max(left, w - shift)), w
        if abs(w - previous) < 1e-13:
            break
    # A boundary or exact-bin maximum beats the interior polish.  Ties
    # within rounding noise resolve toward the bin center, so exactly
    # resonant frequencies are reported exactly.
    candidates = [(c, _average(values, c)) for c in (omega, w, lo, hi)]
    top = max(abs(average) for _, average in candidates)
    return next(pair for pair in candidates
                if abs(pair[1]) >= top - 1e-12 * (1.0 + top))


def find_eigenfrequencies(series, peak_threshold: float = 0.1,
                          refine: bool = True) -> list:
    """Detect unit-circle eigenvalue candidates from spectral peaks.

    Peaks are strict local maxima of the amplitude spectrum (boundary bins
    compare against their single neighbor) that reach ``peak_threshold``
    times the maximum amplitude.  With ``refine`` the frequency of each
    peak is polished within one bin: the maximum of the harmonic-average
    magnitude on a grid of at most 1/16 bin, step 1/L for the smallest
    2-3-5-smooth L >= 16n, seeds Newton steps on the squared magnitude.
    The grid points within one bin of a peak are evaluated by a chirp-z
    transform (`_chirp_z`), peak by peak, in memory linear in n.  Returns
    `EigenFrequency` records ordered by increasing frequency; no peaks
    above threshold yields an empty list.
    """
    if not 0 < peak_threshold <= 1:
        raise InputError(
            f"peak_threshold must be in (0, 1], got {peak_threshold}"
        )
    values = _as_series(series)
    n = values.size
    bins = _peak_bins(fft_amplitude_spectrum(values).amplitudes,
                      peak_threshold).tolist()
    if refine and bins:
        size = _smooth_length(16 * n)
        zoom = _chirp_z(values, size, 2 * size // n + 1)
        found = [_refine_omega(values, zoom, size, b) for b in bins]
    else:
        found = [(b / n, _average(values, b / n)) for b in bins]

    merged = []
    for omega, average in sorted(found, key=lambda pair: pair[0]):
        candidate = EigenFrequency(
            omega=omega,
            average=average,
            eigenvalue=complex(np.exp(2j * np.pi * omega)),
        )
        if merged and abs(merged[-1].omega - omega) < _MERGE_FRACTION / n:
            if candidate.amplitude > merged[-1].amplitude:
                merged[-1] = candidate
            continue
        merged.append(candidate)
    return merged
