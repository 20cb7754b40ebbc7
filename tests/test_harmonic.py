"""Harmonic averaging and FFT-based eigenfrequency detection."""

import math
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koopmodel import InputError, find_eigenfrequencies, harmonic_average
from koopmodel import harmonic
from koopmodel.harmonic import _peak_bins

from conftest import PEAK_RSS, child_env


def rotation_series(omega, n, phase=0.0):
    k = np.arange(n)
    return np.exp(2j * np.pi * (omega * k + phase))


# -- harmonic average --------------------------------------------------------

def test_resonant_average_is_one():
    series = rotation_series(0.1, 1000)
    assert abs(harmonic_average(series, 0.1) - 1.0) < 1e-12


def test_off_resonance_geometric_sum_bound():
    series = rotation_series(0.1, 1000)
    bound = 1.0 / (1000 * abs(np.sin(np.pi * 0.1)))
    assert abs(harmonic_average(series, 0.2)) <= bound


def test_constant_series_at_zero_frequency():
    assert harmonic_average(np.full(64, 3.25), 0.0) == pytest.approx(3.25)


def test_average_of_single_sample():
    assert harmonic_average([2.0 + 1.0j], 0.37) == pytest.approx(2.0 + 1.0j)


def test_average_rejects_nan_and_empty():
    with pytest.raises(InputError):
        harmonic_average([1.0, np.nan], 0.1)
    with pytest.raises(InputError):
        harmonic_average([], 0.1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_average_is_linear(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 64))
    f = rng.normal(size=n) + 1j * rng.normal(size=n)
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    a = complex(rng.normal(), rng.normal())
    b = complex(rng.normal(), rng.normal())
    omega = float(rng.uniform(0, 0.5))
    combined = harmonic_average(a * f + b * g, omega)
    split = a * harmonic_average(f, omega) + b * harmonic_average(g, omega)
    scale = max(1.0, abs(split))
    assert abs(combined - split) < 1e-12 * scale


# -- amplitude spectrum ------------------------------------------------------

def test_exact_bin_cosine_peak():
    k = np.arange(256)
    found = find_eigenfrequencies(np.cos(2 * np.pi * (32 / 256) * k),
                                  refine=False)
    assert [p.omega for p in found] == [0.125]
    assert found[0].amplitude == pytest.approx(0.5, abs=1e-12)


def test_constant_series_spectrum_is_dc_only():
    # Every other bin is rounding noise, below 1e-12 of the DC amplitude.
    found = find_eigenfrequencies(np.full(128, 2.0), peak_threshold=1e-12,
                                  refine=False)
    assert [p.omega for p in found] == [0.0]
    assert found[0].amplitude == pytest.approx(2.0)


def test_two_cosines_two_peaks():
    k = np.arange(256)
    series = (np.cos(2 * np.pi * (16 / 256) * k)
              + 0.5 * np.cos(2 * np.pi * (48 / 256) * k))
    found = find_eigenfrequencies(series, refine=False)
    assert [p.omega for p in found] == [0.0625, 0.1875]
    assert found[0].amplitude == pytest.approx(0.5, abs=1e-12)
    assert found[1].amplitude == pytest.approx(0.25, abs=1e-12)


def test_spectrum_rejects_short_nan_and_2d():
    for series, message in [
            ([1.0, 2.0, 3.0], "need at least 4 samples for a spectrum, got 3"),
            ([1.0, np.nan, 2.0, 3.0], "series contains NaN or infinite "
                                      "entries"),
            (np.zeros((4, 4)), r"expected a 1-D series, got shape \(4, 4\)")]:
        with pytest.raises(InputError, match=f"^{message}$"):
            find_eigenfrequencies(series)


def is_prime(n):
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


PRIMES = [p for p in range(5, 5_000) if is_prime(p)]


@st.composite
def spectrum_lengths(draw):
    """n = q p with p prime and p^2 > n (the split transform), a prime n,
    a power of two, or any n >= 4."""
    kind = draw(st.sampled_from(["split", "prime", "power of two", "any"]))
    if kind == "split":
        p = draw(st.sampled_from(PRIMES))
        return p * draw(st.integers(2, min(p - 1, 50_000 // p)))
    if kind == "prime":
        return draw(st.sampled_from(PRIMES))
    if kind == "power of two":
        return 2 ** draw(st.integers(2, 15))
    return draw(st.integers(4, 20_000))


_fft = np.fft.fft


def _fft_1_24(a, n=None, axis=-1, norm=None):
    """numpy's FFT with the signature of numpy 1.24, the oldest numpy the
    package supports: no ``out=`` keyword."""
    return _fft(a, n, axis, norm)


@settings(max_examples=150, deadline=None)
@given(spectrum_lengths(), st.booleans(), st.integers(0, 2**32 - 1))
@example(32_769, False, 8)      # 3^2 11 331, the benchmark's tones
@example(2 * 16_411, True, 1)   # q = 2
@example(4_999 * 10, False, 2)  # q = 10
@example(100_003, True, 3)      # prime: numpy's transform
@example(6, True, 4)            # 2 3: the smallest split length
@example(4, False, 5)
def test_amplitudes_match_numpys_transform(n, complex_series, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) + 0j
    if complex_series:
        values.imag = rng.normal(size=n)
    with mock.patch.object(np.fft, "fft", _fft_1_24):
        got = harmonic._amplitudes(values)
    want = np.abs(np.fft.fft(values))[:n // 2 + 1] / n
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
    for threshold in (0.1, 0.5):
        assert np.array_equal(_peak_bins(got, threshold),
                              _peak_bins(want, threshold))


# -- eigenfrequency detection ------------------------------------------------

def loop_peak_bins(amplitudes, threshold):
    """Bins that reach the floor, are nonzero and beat each neighbor."""
    floor = threshold * max(amplitudes)
    peaks = []
    for b, amp in enumerate(amplitudes):
        left_ok = b == 0 or amp > amplitudes[b - 1]
        right_ok = b == len(amplitudes) - 1 or amp > amplitudes[b + 1]
        if amp >= floor and amp != 0.0 and left_ok and right_ok:
            peaks.append(b)
    return peaks


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.0]), min_size=3,
                max_size=40),
       st.floats(0.01, 1.0))
@example([0.0, 0.0, 0.0], 0.5)
@example([1.0, 1.0, 1.0], 0.5)
@example([0.0, 2.0, 0.0], 1.0)
@example([2.0, 0.0, 2.0], 1.0)
@example([0.0, 2.0, 2.0, 0.0], 0.1)
@example([1.0, 0.25, 1.0, 1.0, 0.0, 0.25], 0.25)
def test_peak_bins_match_loop_reference(amplitudes, threshold):
    got = _peak_bins(np.array(amplitudes), threshold)
    assert got.tolist() == loop_peak_bins(amplitudes, threshold)


@settings(max_examples=60, deadline=None)
@given(st.integers(16, 20000), st.floats(0, 1), st.floats(0.01, 0.49),
       st.booleans(), st.floats(0, 1))
def test_refinement_recovers_off_bin_rotation(n, where, offset, mirror,
                                               phase):
    # Offsets of a half bin are avoided: two equal top bins make no strict
    # peak.
    b = min(int(where * (n // 2)), n // 2 - 1)
    omega = (b + (1 - offset if mirror else offset)) / n
    found = find_eigenfrequencies(rotation_series(omega, n, phase))
    assert len(found) == 1
    assert abs(found[0].omega - omega) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(16, 20000), st.floats(0, 1), st.floats(0, 1))
def test_refinement_keeps_on_bin_rotation_exact(n, where, phase):
    b = int(where * (n // 2))
    found = find_eigenfrequencies(rotation_series(b / n, n, phase))
    assert len(found) == 1
    assert found[0].omega == b / n



def direct_sums(table, numerators, size=1, order=0):
    """``harmonic._sums`` with one exponential per term: ``S_j(w) = sum_k
    k^j exp(-2 pi i w k) x_k`` over the table's entries, zero padding
    included, at ``w = numerator / size``."""
    x = table.reshape(-1)
    k = np.arange(x.size)
    w = np.atleast_1d(numerators) / size
    terms = np.exp(np.multiply.outer(k, w) * (-2j * np.pi)) * x[:, None]
    return np.array([(k.astype(float) ** j) @ terms
                     for j in range(order + 1)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20_000), st.floats(0, 1), st.floats(0, 0.5),
       st.integers(0, 2**32 - 1))
@example(1, 0.0, 0.0, 0)        # one sample, one column
@example(2, 1.0, 0.5, 1)        # n == B: one full row
@example(3, 0.5, 0.25, 2)       # a partly filled last row
@example(16_384, 0.3, 0.1, 3)   # 128 full rows of 128
@example(20_000, 1.0, 0.37, 4)  # not a multiple of B = 128
def test_sums_match_direct_sums(n, where, w, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    table, length = harmonic._as_table(values)
    rows, width = table.shape
    assert length == n and rows == -(-n // width)
    assert width & (width - 1) == 0 and width ** 2 <= 2 * n <= 4 * width ** 2
    assert np.array_equal(table.reshape(-1)[:n], values)
    assert not table.reshape(-1)[n:].any()
    b = int(where * (n // 2))
    omegas = np.array([0.0, b / n, w])
    got = harmonic._sums(table, omegas, order=2)
    want = direct_sums(table, omegas, order=2)
    k = np.arange(n, dtype=float)
    for j in range(3):
        # Both sides round k w before the exponential: a phase error of up
        # to about eps n radians a term.
        scale = (k ** j) @ np.abs(values)
        assert np.max(np.abs(got[j] - want[j])) <= 2e-15 * (n + 10) * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(16, 20_000), st.floats(0, 1), st.integers(0, 2**32 - 1))
@example(16, 0.0, 0)
@example(20_000, 1.0, 1)
@example(17, 1.0, 2)
@example(4_099, 0.0, 3)
def test_grid_matches_the_padded_transform(n, where, seed):
    # The grid the refinement scans: points first..last of |fft(x, 16n)|,
    # within one bin of peak bin b and clipped to [0, 1/2].
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = int(where * (n // 2))
    first, last = max(0, 16 * (b - 1)), min(16 * (b + 1), 8 * n)
    table, _ = harmonic._as_table(values)
    got = np.abs(harmonic._sums(table, np.arange(first, last + 1), 16 * n)[0])
    want = np.abs(np.fft.fft(values, 16 * n))[first:last + 1]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
    assert np.argmax(got) == np.argmax(want)


@settings(max_examples=25, deadline=None)
@given(st.integers(1_000, 8_000), st.integers(0, 2**32 - 1))
def test_refinement_matches_an_exp_per_term_reference(n, seed):
    # Six real tones at separated off-bin frequencies, as in the benchmark's
    # harmonic analysis.
    rng = np.random.default_rng(seed)
    omega = 0.04 + 0.07 * np.arange(6) + rng.uniform(0.0, 0.03, 6)
    amp, phase = rng.uniform(0.5, 1.0, 6), rng.uniform(0.0, 2 * np.pi, 6)
    k = np.arange(n)[:, None]
    series = np.sum(amp * np.cos(2 * np.pi * omega * k + phase), axis=1)
    found = find_eigenfrequencies(series)
    with mock.patch.object(harmonic, "_sums", direct_sums):
        reference = find_eigenfrequencies(series)
    assert len(found) == len(reference) >= 6
    for got, want in zip(found, reference):
        assert abs(got.omega - want.omega) <= 1e-12
        # d average / d omega is at most 2 pi n times the series' amplitude.
        assert abs(got.average - want.average) <= 2 * np.pi * n * 1e-12


@pytest.mark.parametrize("n, seed", [(16, 14), (17, 5), (32, 5)])
def test_newton_stops_where_the_magnitude_is_not_concave(n, seed):
    # Complex noise at a low threshold has peaks where a Newton step lands
    # on f'' >= 0, so refinement stops there and takes the best candidate.
    rng = np.random.default_rng(seed)
    series = rng.normal(size=n) + 1j * rng.normal(size=n)
    sums, curves = harmonic._sums, []

    def spy(table, numerators, size=1, order=0):
        result = sums(table, numerators, size, order)
        if order == 2:
            s0, s1, s2 = result[:, 0]
            curves.append(abs(s1) ** 2 - (s0.conjugate() * s2).real)
        return result

    with mock.patch.object(harmonic, "_sums", spy):
        found = find_eigenfrequencies(series, peak_threshold=0.01)
    assert any(curve >= 0 for curve in curves)
    with mock.patch.object(harmonic, "_sums", direct_sums):
        reference = find_eigenfrequencies(series, peak_threshold=0.01)
    assert len(found) == len(reference) > 0
    for got, want in zip(found, reference):
        assert abs(got.omega - want.omega) <= 1e-15
        assert abs(got.average - want.average) <= 1e-13


@pytest.mark.parametrize("n, rate, start", [
    (500, 0.9, 0.7), (1000, 0.5, -0.3), (4_099, 0.999, 1.0),
    (32_769, 0.9999, -0.2)])
def test_geometric_decay_peaks_exactly_at_zero(n, rate, start):
    # The benchmark's decay oracle: a^k x0 has one peak, at 0, whose
    # average is the series mean, with no imaginary part.
    series = start * rate ** np.arange(n)
    found = find_eigenfrequencies(series)
    assert len(found) == 1
    assert found[0].omega == 0.0
    assert found[0].average.imag == 0.0
    mean = np.mean(series)
    assert abs(found[0].average.real - mean) <= 1e-12 * abs(mean)


@settings(max_examples=60, deadline=None)
@given(st.integers(-1000, 1000), st.integers(16, 5_000), st.booleans(),
       st.integers(0, 2**32 - 1))
@example(498, 4_000, False, 0)   # about 1e150: |S1|^2 overflowed
@example(-997, 4_000, False, 0)  # about 1e-300: f'' underflowed to 0
@example(1000, 16, True, 1)
@example(-1000, 5_000, True, 2)
def test_results_are_independent_of_a_power_of_two_scale(power, n,
                                                         complex_series,
                                                         seed):
    # Three tones on the grid of 2^-20: every nonzero entry stays a normal
    # double under each scale c, so c x is exact.
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.01, 0.49, 3)
    k = np.arange(n)[:, None]
    tones = rng.uniform(0.2, 1.0, 3) * np.exp(2j * np.pi * omega * k)
    series = tones.sum(axis=1) if complex_series else tones.real.sum(axis=1)
    series = np.round(series * 2.0**20) / 2.0**20
    c = 2.0 ** power
    found = find_eigenfrequencies(series)
    scaled = find_eigenfrequencies(series * c)
    assert len(found) > 0
    assert [p.omega for p in scaled] == [p.omega for p in found]

    def bits(averages):
        return np.array(averages, complex).view(np.int64).tolist()

    # c a rounds once, like the scaled run's ldexp, also where it is
    # subnormal.
    assert bits([p.average for p in scaled]) == bits(
        [complex(p.average.real * c, p.average.imag * c) for p in found])
    w = float(omega[0])
    average = harmonic_average(series, w)
    assert bits([harmonic_average(series * c, w)]) == bits(
        [complex(average.real * c, average.imag * c)])


def test_refinement_memory_is_linear_in_the_series_length():
    # The benchmark's six tones at n = 32,769.  A transform zero-padded to
    # 16n peaks at about 25 * 16n bytes; the phase table at about 3.02, with
    # the DFT as two short FFTs (2.26 with one length-n FFT, whose pocketfft
    # buffers tracemalloc does not see).
    n = 32_769
    rng = np.random.default_rng(8)
    omega = 0.04 + 0.07 * np.arange(6) + rng.uniform(0.0, 0.03, 6)
    amp, phase = rng.uniform(0.5, 1.0, 6), rng.uniform(0.0, 2 * np.pi, 6)
    series = np.sum(amp * np.cos(2 * np.pi * omega * np.arange(n)[:, None]
                                 + phase), axis=1)
    tracemalloc.start()
    try:
        found = find_eigenfrequencies(series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 6
    assert peak <= 8 * 16 * n


_FIND_TONES = """\
import sys
import numpy as np
from koopmodel import harmonic
series = np.load(sys.argv[1])
if sys.argv[2] == "find":
    assert len(harmonic.find_eigenfrequencies(series)) == 6
"""


def test_peak_detection_takes_no_bluestein_plan(tmp_path):
    # pocketfft's buffers are not traced by tracemalloc, so the peak RSS of
    # a child is read instead: with and without one find_eigenfrequencies
    # of the benchmark's six tones at n = 32,769 = 3^2 11 331.  numpy's
    # length-n FFT took Bluestein's algorithm on a plan of at least 65,537
    # points and added 5.6-5.9 MiB; the two short FFTs add 2.6-2.9 MiB.
    # Measured with numpy 2.4.6: pocketfft's buffers and plan cache differ
    # between numpy versions and allocators, so the bound may need another
    # look under numpy 1.x.
    n = 32_769
    rng = np.random.default_rng(8)
    omega = 0.04 + 0.07 * np.arange(6) + rng.uniform(0.0, 0.03, 6)
    amp, phase = rng.uniform(0.5, 1.0, 6), rng.uniform(0.0, 2 * np.pi, 6)
    np.save(tmp_path / "tones.npy", np.sum(
        amp * np.cos(2 * np.pi * omega * np.arange(n)[:, None] + phase),
        axis=1))
    peaks = {}
    for run in ("load", "find", "load", "find"):
        result = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, sys.executable, "-c",
             _FIND_TONES, str(tmp_path / "tones.npy"), run],
            env=child_env(), capture_output=True, text=True, check=True)
        code, peak_kib = map(int, result.stdout.split())
        assert code == 0
        peaks[run] = min(peaks.get(run, peak_kib), peak_kib)
    assert peaks["find"] - peaks["load"] < 4 * 1024, peaks


def test_exact_bin_rotation_detected():
    series = rotation_series(32 / 256, 256)
    found = find_eigenfrequencies(series)
    assert len(found) == 1
    assert abs(found[0].omega - 0.125) < 1e-9
    assert found[0].amplitude == pytest.approx(1.0, abs=1e-9)
    assert found[0].eigenvalue == pytest.approx(np.exp(2j * np.pi * 0.125))


def test_off_bin_rotation_refined():
    series = rotation_series(0.15, 4096)
    found = find_eigenfrequencies(series)
    assert len(found) == 1
    assert abs(found[0].omega - 0.15) < 1e-5
    assert found[0].amplitude > 0.99


def test_unrefined_detection_stops_at_bin_resolution():
    series = rotation_series(0.15, 4096)
    found = find_eigenfrequencies(series, refine=False)
    assert len(found) == 1
    assert found[0].omega == pytest.approx(614 / 4096)


def test_constant_series_detected_at_zero():
    found = find_eigenfrequencies(np.full(64, 1.75), peak_threshold=0.5)
    assert len(found) == 1
    assert abs(found[0].omega) < 1e-9
    assert found[0].average == pytest.approx(1.75, abs=1e-9)


def test_two_rotations_both_recovered_in_order():
    series = rotation_series(0.1, 4096) + rotation_series(0.3, 4096, phase=0.2)
    found = find_eigenfrequencies(series)
    assert len(found) == 2
    assert abs(found[0].omega - 0.1) < 1e-4
    assert abs(found[1].omega - 0.3) < 1e-4
    assert found[0].omega < found[1].omega


def test_zero_series_has_no_peaks():
    assert find_eigenfrequencies(np.zeros(64)) == []


def test_threshold_validation():
    series = rotation_series(0.1, 64)
    with pytest.raises(InputError):
        find_eigenfrequencies(series, peak_threshold=0.0)
    with pytest.raises(InputError):
        find_eigenfrequencies(series, peak_threshold=1.5)


def test_threshold_suppresses_minor_peak():
    series = rotation_series(0.1, 256) + 0.05 * rotation_series(0.3, 256)
    weak = find_eigenfrequencies(series, peak_threshold=0.01)
    strong = find_eigenfrequencies(series, peak_threshold=0.5)
    assert len(weak) == 2
    assert len(strong) == 1
    assert abs(strong[0].omega - 0.1) < 1e-4


def test_detected_average_converges_with_length():
    # Doubling the sample count moves the average by less than 5/sqrt(N).
    for n in (512, 1024):
        short = find_eigenfrequencies(rotation_series(0.15, n))[0]
        long = find_eigenfrequencies(rotation_series(0.15, 2 * n))[0]
        assert abs(abs(short.average) - abs(long.average)) < 5 / np.sqrt(n)
