"""Frequency-domain eigenvalue detection for on-attractor dynamics.

Works on a single scalar time series (real or complex) sampled once per
step.  All frequencies are in cycles/step and restricted to [0, 0.5], so
bin arithmetic stays exact: bin ``b`` of an ``N``-point transform sits at
``b / N``.  No window is applied before the FFT; off-bin frequencies are
recovered by maximizing the harmonic average instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import InputError

#: Fraction of a bin below which two refined peaks are considered duplicates.
_MERGE_FRACTION = 0.5


@dataclass(frozen=True)
class EigenFrequency:
    """A detected unit-circle eigenvalue candidate.

    ``average`` is the harmonic average of the series at ``omega``; its
    magnitude is near 1 for a pure rotation observed through a unimodular
    observable, and its value is the eigenfunction-weighted projection at
    the start of the series.  ``eigenvalue`` is ``exp(2 pi i omega)``.
    """

    omega: float
    average: complex

    @property
    def eigenvalue(self) -> complex:
        return complex(np.exp(2j * np.pi * self.omega))

    @property
    def amplitude(self) -> float:
        return abs(self.average)


def _as_table(series) -> tuple[np.ndarray, int]:
    """The series ``x`` and its length n, as a complex ``(rows, B)`` matrix
    zero-padded at the end: sample ``k = B a + c`` sits at ``[a, c]``.  The
    width B is the power of two ``2^floor(bits(n) / 2)``, within a factor
    sqrt(2) of sqrt(n).  This is the series' one complex copy."""
    values = np.asarray(series)
    if values.ndim != 1:
        raise InputError(f"expected a 1-D series, got shape {values.shape}")
    n = values.size
    width = 1 << n.bit_length() // 2
    table = np.zeros((-(-n // width), width), complex)
    head = table.reshape(-1)[:n]
    head[:] = values
    if not np.isfinite(head).all():
        raise InputError("series contains NaN or infinite entries")
    return table, n


def _scale(table: np.ndarray) -> int:
    """Scales ``table`` in place by the power of two ``2^-e`` that brings
    its largest real or imaginary part into [1/2, 1), and returns e.  The
    scaling is exact for every entry above 2^-1021 of the largest, and
    keeps the squares and products of the harmonic sums from overflowing
    or underflowing at any scale of the data."""
    parts = table.reshape(-1).view(np.float64)
    e = int(np.frexp(max(parts.max(), -parts.min()))[1])
    np.ldexp(parts, -e, out=parts)
    return e


def _unscale(average: complex, e: int) -> complex:
    """``average * 2^e``, exact in each part."""
    return complex(np.ldexp(average.real, e), np.ldexp(average.imag, e))


def _phases(k: np.ndarray, numerators: np.ndarray, size) -> np.ndarray:
    """``exp(-2 pi i k w)`` for each ``k`` (rows) and ``w = numerator /
    size`` (columns).  ``k w`` is reduced mod 1 first, exactly in int64 for
    integer numerators: ``numerator * k`` stays below 2^63 while
    ``8 n^2`` does, up to n of about 10^9 on the 1/(16n) grid."""
    turns = np.multiply.outer(k, numerators) % size
    return np.exp(turns * (-2j * np.pi / size))


def _sums(table: np.ndarray, numerators, size=1, order: int = 0):
    """``S_j(w) = sum_k k^j exp(-2 pi i w k) x_k`` for j = 0..``order`` at
    each ``w = numerator / size``, as an ``(order + 1, len(w))`` array.

    With ``k = B a + c`` the phase splits as ``A_a C_c``, ``A_a =
    exp(-2 pi i w B a)`` and ``C_c = exp(-2 pi i w c)``: rows + B
    exponentials per frequency instead of n.  The sums over c are one
    matrix product ``P_i = X @ (c^i C)``, and then ``S_j = sum_i
    binom(j, i) sum_a (B a)^(j - i) A_a P_i,a`` (so ``S1 = B (a A) P0 + A
    P1``).  `spectral._blocks` splits the powers of an eigenvalue alike.
    """
    rows, width = table.shape
    numerators = np.atleast_1d(numerators)
    c = np.arange(width)
    starts = np.arange(0, rows * width, width)
    inner = np.empty((width, order + 1, numerators.size), complex)
    inner[:, 0] = _phases(c, numerators, size)
    for i in range(order):
        inner[:, i + 1] = inner[:, i] * c[:, None]
    parts = (table @ inner.reshape(width, -1)).reshape(rows, order + 1, -1)
    parts *= _phases(starts, numerators, size)[:, None, :]
    # moments[p][i] = sum_a (B a)^p A_a P_i,a
    moments = [parts.sum(axis=0)]
    for _ in range(order):
        parts *= starts[:, None, None]
        moments.append(parts.sum(axis=0))
    return np.array([sum(comb(j, i) * moments[j - i][i] for i in range(j + 1))
                     for j in range(order + 1)])


def harmonic_average(series, omega: float) -> complex:
    """Fourier average (1/N) sum_k exp(-2*pi*i*omega*k) * series[k].

    A nonzero value flags ``exp(2*pi*i*omega)`` as a Koopman eigenvalue of
    the sampled dynamics; the value itself projects the observable onto the
    corresponding eigenfunction.
    """
    table, n = _as_table(series)
    if n < 1:
        raise InputError("harmonic average needs at least one sample")
    e = _scale(table)
    return _unscale(complex(_sums(table, float(omega))[0, 0]) / n, e)


def _largest_prime_factor(n: int) -> int:
    """The largest prime factor of ``n >= 2``, by trial division."""
    p, f = n, 2
    while f * f <= p:
        if p % f:
            f += 1
        else:
            p //= f
    return p


def _amplitudes(values: np.ndarray) -> np.ndarray:
    """``|DFT(values)[b]| / n`` at the bins b = 0 .. n // 2.

    When the largest prime factor p of n has p^2 > n, numpy's FFT may take
    Bluestein's algorithm on a plan of at least 2n points (pocketfft does
    for n >= 50 when its cost model prefers it).  Unless n is prime, one
    Cooley-Tukey step avoids it: with q = n / p, k = p k1 + k2
    and b = b1 + q b2, the bin is the length-p DFT over k2 of
    ``exp(-2 pi i b1 k2 / n)`` times the length-q DFT over k1 of the
    series viewed as a (q, p) array.  Every bin stays at exactly b / n.
    """
    n = values.size
    p = _largest_prime_factor(n)
    if p * p <= n or p == n:
        return np.abs(np.fft.fft(values)[:n // 2 + 1]) / n
    q = n // p
    grid = np.fft.fft(values.reshape(q, p), axis=0)
    # b1 k2 < n, so _phases' reduction is exact.  It works entry by entry,
    # so slices of 4,096 entries give the same bits and bound the
    # twiddle's memory at any p.
    k2 = np.arange(p)
    for b1 in range(1, q):
        for lo in range(0, p, 4096):
            grid[b1, lo:lo + 4096] *= _phases(b1, k2[lo:lo + 4096], n)
    grid = np.fft.fft(grid, axis=1)
    # Bin b is entry (b mod q, b div q); the columns up to n // 2 div q
    # hold bins 0 .. n // 2.
    amplitudes = np.abs(grid[:, :n // 2 // q + 1].T, order="C").reshape(-1)
    amplitudes /= n
    return amplitudes[:n // 2 + 1]


def _peak_bins(amplitudes: np.ndarray, threshold: float) -> np.ndarray:
    floor = threshold * np.max(amplitudes)
    padded = np.concatenate(([-np.inf], amplitudes, [-np.inf]))
    return np.flatnonzero((amplitudes > padded[:-2])
                          & (amplitudes > padded[2:])
                          & (amplitudes >= floor) & (amplitudes != 0.0))


def _refine_omega(table: np.ndarray, n: int, b: int):
    """``(omega, average)`` maximizing |harmonic average| within one bin of
    peak bin ``b``."""
    omega = b / n
    lo, hi = max(0.0, omega - 1.0 / n), min(0.5, omega + 1.0 / n)
    # Coarse scan of the points p / (16n) of [lo, hi] first: sidelobes
    # within +-1 bin could pull a local search onto the wrong lobe.
    points = np.arange(max(0, 16 * (b - 1)), min(16 * (b + 1), 8 * n) + 1)
    scan = np.abs(_sums(table, points, 16 * n)[0])
    step = 1.0 / (16 * n)
    w = int(points[np.argmax(scan)]) * step
    left, right = max(lo, w - step), min(hi, w + step)
    # Newton steps on f = |H|^2, H(w) = mean(exp(-2*pi*i*w*k) * x_k).  With
    # S_j = sum(k^j exp(-2*pi*i*w*k) x_k), f' = 4*pi Im(conj(S0) S1) / n^2
    # and f'' = 8*pi^2 (|S1|^2 - Re(conj(S0) S2)) / n^2.
    for _ in range(8):
        s0, s1, s2 = _sums(table, w, order=2)[:, 0]
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
    candidates = (omega, w, lo, hi)
    averages = _sums(table, np.array(candidates))[0] / n
    top = np.max(np.abs(averages))
    return next((c, complex(average))
                for c, average in zip(candidates, averages)
                if abs(average) >= top - 1e-12 * (1.0 + top))


def find_eigenfrequencies(series, peak_threshold: float = 0.1,
                          refine: bool = True) -> list:
    """Detect unit-circle eigenvalue candidates from spectral peaks.

    The amplitude spectrum is ``|DFT(series)[b]| / n`` at the bins b = 0
    .. n // 2 (frequencies b / n), for any length n >= 4: an exact-bin unit
    rotation shows amplitude 1, an exact-bin unit cosine 0.5.  It is one
    FFT of length n, which needs one complex n-array (16n bytes) beside
    the phase table, except where the largest prime factor p of n has p^2
    > n and p < n.  There numpy's FFT may take Bluestein's algorithm,
    with buffers of at least 2n points, so the DFT is taken as FFTs of
    length n / p and p with a twiddle between (`_amplitudes`): two complex
    n-arrays (32n bytes) and at most 4,096 phases at a time.  Peaks are
    strict local maxima of it (boundary bins compare against their single
    neighbor) that reach ``peak_threshold`` times the maximum amplitude.
    With ``refine`` the frequency of each peak is polished within one bin:
    the maximum of the harmonic-average magnitude on the exact grid of step
    1/(16n) seeds Newton steps on the squared magnitude.  Every harmonic
    sum comes from one phase table (`_sums`): the series as a (rows x B)
    matrix with B a power of two near sqrt(n), so a frequency costs rows +
    B exponentials and a product with the matrix; the grid points of a
    peak are one such product.  The table is scaled by an exact power of
    two and the averages scaled back (`_scale`), so no sum overflows or
    underflows at any scale of the data.

    Returns `EigenFrequency` records ordered by increasing frequency; no
    peaks above threshold yields an empty list.
    """
    if not 0 < peak_threshold <= 1:
        raise InputError(
            f"peak_threshold must be in (0, 1], got {peak_threshold}"
        )
    table, n = _as_table(series)
    if n < 4:
        raise InputError(f"need at least 4 samples for a spectrum, got {n}")
    e = _scale(table)
    amplitudes = _amplitudes(table.reshape(-1)[:n])
    bins = _peak_bins(amplitudes, peak_threshold).tolist()
    if refine and bins:
        found = [_refine_omega(table, n, b) for b in bins]
    else:
        omegas = [b / n for b in bins]
        found = zip(omegas, (_sums(table, omegas)[0] / n).tolist())

    merged = []
    for omega, average in sorted(found, key=lambda pair: pair[0]):
        candidate = EigenFrequency(omega=omega, average=_unscale(average, e))
        if merged and abs(merged[-1].omega - omega) < _MERGE_FRACTION / n:
            if candidate.amplitude > merged[-1].amplitude:
                merged[-1] = candidate
            continue
        merged.append(candidate)
    return merged
