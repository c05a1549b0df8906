import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeaps.errors import (
    DegenerateInputError,
    ParameterError,
    PreconditionError,
    StageError,
)
from primeaps import fourier, measures, sieve
from primeaps.fourier import TorusGrid
from primeaps.measures import BASE_ZN, Measure


def _random_measure(N, rng, signed=True):
    w = rng.standard_normal(N) if signed else np.abs(rng.standard_normal(N))
    return Measure(N, w, signed=signed)


def _mp_exp_sum(weights, theta):
    mpmath.mp.dps = 50
    acc = mpmath.mpc(0)
    for n, w in enumerate(weights, start=1):
        acc += mpmath.mpf(float(w)) * mpmath.e ** (
            2j * mpmath.pi * mpmath.mpf(theta) * n
        )
    return complex(acc)


def test_exp_sum_extended_precision_oracle():
    rng = np.random.default_rng(2)
    f = _random_measure(40, rng)
    for theta in (0.0, 0.1, 1.0 / 3.0, 0.123456789, 0.999, -0.25):
        got = fourier.exp_sum(f, theta)
        expect = _mp_exp_sum(f.weights, theta)
        assert abs(got - expect) < 1e-12


def test_dft_matches_quadratic_oracle():
    rng = np.random.default_rng(3)
    for N in (16, 101):
        f = _random_measure(N, rng)
        spec = fourier.spectrum(f)
        w = f.zn_weights()
        for r in range(N):
            direct = sum(
                w[x] * np.exp(-2j * np.pi * r * x / N) for x in range(N)
            )
            assert abs(spec[r] - direct) < 1e-9


def test_dft_idft_roundtrip():
    rng = np.random.default_rng(4)
    f = _random_measure(64, rng)
    back = fourier.idft(fourier.spectrum(f))
    assert np.allclose(back, f.zn_weights(), atol=1e-12)


def test_zn_transform_is_wedge_at_negative_fractions():
    # f~(r) = f^(-r/N) under the Z_N embedding
    rng = np.random.default_rng(5)
    f = _random_measure(48, rng)
    spec = fourier.spectrum(f)
    for r in (0, 1, 7, 23, 47):
        wedge = fourier.exp_sum(f, -r / 48.0)
        assert abs(spec[r] - wedge) < 1e-10


def test_wedge_grid_matches_exp_sum():
    rng = np.random.default_rng(6)
    f = _random_measure(37, rng)
    M = 128
    vals = fourier.measure_wedge_grid(f, M)
    for j in (0, 1, 17, 64, 127):
        assert abs(vals[j] - fourier.exp_sum(f, j / M)) < 1e-10


# --- tau and Fejer -----------------------------------------------------------

@given(
    theta=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    N=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=150, deadline=None)
def test_tau_matches_direct_mean(theta, N):
    direct = np.mean(np.exp(2j * np.pi * theta * np.arange(1, N + 1)))
    assert abs(fourier.tau(theta, N) - direct) < 1e-9


def test_tau_near_integer_branch():
    # no cancellation near integers, where e(theta) - 1 is tiny
    for theta in (0.0, 1e-10, -1e-12, 1.0 - 1e-11, 2.0, 3.689853781556327e-09,
                  -2e-8, 1.0 - 3e-9, 5e-324, -1e-170, 1e-160, 1e-300):
        direct = np.mean(np.exp(2j * np.pi * theta * np.arange(1, 501)))
        assert abs(fourier.tau(theta, 500) - direct) < 1e-10
    assert fourier.tau(0.0, 17) == pytest.approx(1.0)
    # subnormal sines once gave tau(5e-324, 4) = 1.083
    assert abs(fourier.tau(5e-324, 4) - 1.0) < 1e-15


def test_fejer_is_normalized_tau_square():
    for theta in (0.3, 0.01, 0.5, 1e-9):
        N = 40
        expect = N * abs(fourier.tau(theta, N)) ** 2
        assert fourier.fejer(theta, N) == pytest.approx(expect, rel=1e-9)
    assert fourier.fejer(0.0, 40) == 40.0
    # tiny theta: s * s once underflowed to 0 and raised ZeroDivisionError
    for theta in (5e-324, 1e-170, 1e-160, -1e-300):
        assert fourier.fejer(theta, 4) == pytest.approx(4.0, rel=1e-12)


def test_fejer_mean_is_one():
    N, M = 25, 128
    vals = [fourier.fejer(j / M, N) for j in range(M)]
    assert math.fsum(vals) / M == pytest.approx(1.0, abs=1e-12)


# --- torus norms -------------------------------------------------------------

def test_l2_norm_is_parseval():
    rng = np.random.default_rng(7)
    f = _random_measure(100, rng)
    got = fourier.lp_norm_torus(f, 2.0, TorusGrid(oversample=4))
    expect = math.sqrt(np.sum(f.weights**2))
    assert got == pytest.approx(expect, rel=1e-12)


def test_l4_norm_counts_additive_quadruples():
    # ||f^||_4^4 = N^-... for the plain indicator: number of solutions
    # a + b = c + d counted over {1..N} with unit weights
    N = 12
    f = Measure(N, np.ones(N))
    got = fourier.lp_norm_torus(f, 4.0, TorusGrid(oversample=4))
    quads = sum(
        1
        for a in range(1, N + 1)
        for b_ in range(1, N + 1)
        for c in range(1, N + 1)
        for d in range(1, N + 1)
        if a + b_ == c + d
    )
    assert got**4 == pytest.approx(quads, rel=1e-9)


def test_lp_norm_validation():
    f = Measure(10, np.ones(10))
    with pytest.raises(ParameterError):
        fourier.lp_norm_torus(f, 0.5, TorusGrid())
    with pytest.raises(ParameterError):
        TorusGrid(oversample=1)


def test_lp_norm_noninteger_p_stable():
    rng = np.random.default_rng(8)
    f = _random_measure(60, rng)
    a = fourier.lp_norm_torus(f, 2.5, TorusGrid(oversample=2))
    b = fourier.lp_norm_torus(f, 2.5, TorusGrid(oversample=8))
    assert a == pytest.approx(b, rel=2e-3)


# --- trilinear form ----------------------------------------------------------

def _brute_triple(fw, gw, hw):
    N = len(fw)
    acc = 0.0
    for x in range(N):
        for d in range(N):
            acc += fw[x] * gw[(x + d) % N] * hw[(x + 2 * d) % N]
    return acc


def test_triple_count_matches_brute_measures():
    rng = np.random.default_rng(9)
    for N in (7, 17, 101):
        for _ in range(5):
            f, g, h = (_random_measure(N, rng) for _ in range(3))
            got = fourier.triple_count(f, g, h)
            expect = _brute_triple(f.zn_weights(), g.zn_weights(), h.zn_weights())
            assert got == pytest.approx(expect, abs=1e-9)


def test_triple_count_exact_on_sets():
    rng = np.random.default_rng(10)
    for N in (7, 17, 101):
        for _ in range(5):
            w = (rng.random(N) < 0.4).astype(np.float64)
            f = Measure(N, w, base=BASE_ZN)
            got = fourier.triple_count(f, f, f)
            expect = _brute_triple(w, w, w)
            assert got == pytest.approx(expect, abs=1e-9)
            assert round(got) == int(expect)


def test_triple_count_needs_common_N():
    f = Measure(8, np.ones(8))
    g = Measure(9, np.ones(9))
    with pytest.raises(ParameterError):
        fourier.triple_count(f, g, f)


# --- cached spectra and set convolutions -------------------------------------

def _count_ffts(monkeypatch, name="fft"):
    calls = []
    original = getattr(np.fft, name)

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_spectrum_is_cached_and_read_only(monkeypatch):
    rng = np.random.default_rng(12)
    f = _random_measure(101, rng)
    calls = _count_ffts(monkeypatch)
    first = fourier.spectrum(f)
    assert fourier.spectrum(f) is first
    assert calls == [101]
    assert np.array_equal(first, np.fft.fft(f.zn_weights()))
    with pytest.raises(ValueError):
        first[0] = 0.0


def test_triple_count_transforms_a_shared_measure_once(monkeypatch):
    rng = np.random.default_rng(13)
    f, g = _random_measure(53, rng), _random_measure(53, rng)
    calls = _count_ffts(monkeypatch)
    fourier.triple_count(f, f, f)
    assert calls == [53]
    fourier.triple_count(f, g, f)
    assert calls == [53, 53]


def _brute_set_convolution(S, T, N):
    out = np.zeros(2 * N - 1, dtype=np.int64)
    for s in S:
        for t in T:
            out[s + t] += 1
    return out


@pytest.mark.parametrize("N", [1, 2, 31, 33, 97, 513])
def test_set_convolution_matches_brute(N):
    # 31 and 97 are prime; 2N-1 = 65 and 1025 sit just above 64 and 1024
    rng = np.random.default_rng(N)
    S, T = (np.flatnonzero(rng.random(N) < 0.4) for _ in range(2))
    assert np.array_equal(fourier.set_convolution(S, T, N),
                          _brute_set_convolution(S, T, N))
    assert np.array_equal(fourier.set_convolution(S, S, N),
                          _brute_set_convolution(S, S, N))


def test_set_convolution_runs_at_a_power_of_two(monkeypatch):
    calls = _count_ffts(monkeypatch, "rfft")
    S = np.array([0, 3, 5, 6, 12])
    fourier.set_convolution(S, S, 513)
    fourier.set_convolution(S, S[:3], 512)
    assert calls == [2048, 1024, 1024]


def test_set_convolution_integrality_guard(monkeypatch):
    S = np.array([0, 1, 2, 4])
    original = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft",
                        lambda *a, **k: original(*a, **k) + 0.3)
    with pytest.raises(StageError, match="integer"):
        fourier.set_convolution(S, S, 8)
    monkeypatch.setattr(np.fft, "irfft",
                        lambda *a, **k: original(*a, **k) + 0.2)
    assert fourier.set_convolution(S, S, 8).tolist() == \
        _brute_set_convolution(S, S, 8).tolist()


def test_set_convolution_needs_positive_N():
    with pytest.raises(ParameterError):
        fourier.set_convolution(np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64), 0)


# --- ratio diagnostics -------------------------------------------------------

def test_mz_ratio_is_one_at_p2():
    rng = np.random.default_rng(11)
    for N in (32, 100):
        f = _random_measure(N, rng)
        assert fourier.mz_ratio(f, 2.0, TorusGrid(oversample=2)) == pytest.approx(
            1.0, rel=1e-10
        )


def test_mz_ratio_zero_measure_raises():
    f = Measure(10, np.zeros(10), signed=True)
    with pytest.raises(DegenerateInputError):
        fourier.mz_ratio(f, 2.5, TorusGrid())


def test_majorant_ratio_even_exponent_bounded(small_table):
    rng = np.random.default_rng(12)
    n_primes = int(small_table.primes_up_to(2000).size)
    for _ in range(10):
        signs = (rng.integers(0, 2, size=n_primes) * 2 - 1).astype(np.float64)
        ratio = fourier.majorant_ratio(signs, 4.0, 2000, small_table,
                                       TorusGrid(oversample=2))
        assert ratio <= 1.0 + 1e-9


def test_majorant_denominator_is_bit_identical(small_table):
    grid = TorusGrid(oversample=2)
    rng = np.random.default_rng(5)
    for N, p in ((500, 4.0), (1000, 2.5)):
        n = small_table.primes_up_to(N).size
        den = fourier.majorant_denominator(p, N, small_table, grid)
        for _ in range(3):
            signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
            assert (fourier.majorant_ratio(signs, p, N, small_table, grid, den=den)
                    == fourier.majorant_ratio(signs, p, N, small_table, grid))
    with pytest.raises(DegenerateInputError):
        fourier.majorant_denominator(4.0, 1, small_table, grid)
    with pytest.raises(ParameterError):
        fourier.majorant_denominator(0.5, 500, small_table, grid)

def test_majorant_ratio_rejects_large_coeffs(small_table):
    n_primes = int(small_table.primes_up_to(100).size)
    bad = np.ones(n_primes)
    bad[0] = 1.5
    with pytest.raises(PreconditionError):
        fourier.majorant_ratio(bad, 4.0, 100, small_table, TorusGrid())


def test_restriction_ratio_basic(small_table):
    params = measures.MeasureParams(b=1, m=1, N=512)
    lam = measures.lambda_measure(params, small_table)
    support = int(np.count_nonzero(lam.weights))
    rng = np.random.default_rng(13)
    fvals = rng.standard_normal(support) + 1j * rng.standard_normal(support)
    r1 = fourier.restriction_ratio(fvals, 2.5, lam, TorusGrid(oversample=2))
    r2 = fourier.restriction_ratio(fvals, 2.5, lam, TorusGrid(oversample=2))
    assert r1 == r2
    assert r1 > 0
    with pytest.raises(ParameterError):
        fourier.restriction_ratio(fvals, 2.0, lam, TorusGrid())
    with pytest.raises(DegenerateInputError):
        fourier.restriction_ratio(np.zeros(support, dtype=complex), 2.5, lam,
                                  TorusGrid())

