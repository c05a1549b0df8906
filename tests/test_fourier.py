import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeaps.errors import (
    DegenerateInputError,
    GridConvergenceWarning,
    ParameterError,
    PreconditionError,
    StageError,
)
from primeaps import fourier, measures, sieve
from primeaps.fourier import TorusGrid
from primeaps.measures import BASE_ZN, Measure

import paper


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
        got = paper.exp_sum(f, theta)
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
    back = fourier.idft(fourier.spectrum(f)[:33], 64)
    assert np.allclose(back, f.zn_weights(), atol=1e-12)


def test_zn_transform_is_wedge_at_negative_fractions():
    # f~(r) = f^(-r/N) under the Z_N embedding
    rng = np.random.default_rng(5)
    f = _random_measure(48, rng)
    spec = fourier.spectrum(f)
    for r in (0, 1, 7, 23, 47):
        wedge = paper.exp_sum(f, -r / 48.0)
        assert abs(spec[r] - wedge) < 1e-10


def test_wedge_grid_matches_exp_sum():
    rng = np.random.default_rng(6)
    f = _random_measure(37, rng)
    M = 128
    js = np.array([0, 1, 17, 64, 127])
    for j, v in zip(js, fourier.grid_values(fourier.wedge_grid(f, M), M, js)):
        assert abs(v - paper.exp_sum(f, j / M)) < 1e-10


def _full_complex_grid(f, M):
    """f^(j/M) for j = 0..M-1 from one complex ifft of length M."""
    pad = np.zeros(M, dtype=np.complex128)
    pad[np.asarray(f.support()[0]) % M] = f.support()[1]
    return M * np.fft.ifft(pad)


@pytest.mark.parametrize("M", [127, 128])
def test_real_wedge_grid_matches_the_complex_grid(M, transforms):
    # the oracle is the whole grid from one complex ifft; wedge_grid takes
    # the rows k1 <= L1/2 of the real four-step pass, L1 = _split(M) (1 at
    # the prime 127, 8 at 128), and no transform of length M
    rng = np.random.default_rng(6)
    f = _random_measure(37, rng)
    rows = fourier.wedge_grid(f, M)
    L1 = fourier._split(M)
    L2 = M // L1
    assert transforms == [("rfft", L1, L2), ("fft", L2, L1 // 2 + 1)]
    assert rows.shape == (L1 // 2 + 1, L2)
    vals = fourier.grid_values(rows, M, np.arange(M))
    want = _full_complex_grid(f, M)
    tol = 1e-12 * float(np.max(np.abs(want)))
    assert float(np.max(np.abs(vals - want))) <= tol
    for j in (0, 1, 17, M // 2, (M + 1) // 2, M - 1):
        assert abs(vals[j] - paper.exp_sum(f, j / M)) <= tol
    # Hermitian bit for bit: |f^| ties at mirrored points, and f^(0) and
    # f^(1/2) are real
    assert np.array_equal(vals[1:], np.conjugate(vals[:0:-1]))
    assert vals[0].imag == 0.0 and vals[M // 2].imag == (M % 2) * vals[M // 2].imag


# grid lengths with L1 = _split(M) = 1 (primes), odd L1 and even L1, whose
# row L1/2 holds its own mirror: 15 = 3 x 5, 99 = 9 x 11, 135 = 9 x 15,
# 2025 = 45 x 45, 16 = 4 x 4, 72 = 8 x 9, 128 = 8 x 16, 2000 = 40 x 50
_GRID_LENGTHS = (2, 3, 127, 1999, 15, 99, 135, 2025, 16, 72, 128, 2000)


@given(M=st.sampled_from(_GRID_LENGTHS),
       kind=st.sampled_from(["dense", "sparse", "point", "symmetric"]),
       seed=st.integers(0, 2**32 - 1))
@example(M=2000, kind="point", seed=0)       # |f^| constant: the argmax is 0
@example(M=72, kind="symmetric", seed=1)     # row L1/2 = 4
@example(M=1999, kind="dense", seed=2)       # L1 = 1: one row
@settings(max_examples=80, deadline=None)
def test_wedge_grid_natural_reads_match_the_full_grid(M, kind, seed):
    # every natural-order read of the rows matches the complex-ifft grid,
    # and the argmax is the full grid's first maximum, mirrors included
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, M // 2 + 1))
    if kind == "symmetric":  # at least the points 1 and 2 where M allows
        N = max(N, min(3, M // 2))
    w = rng.standard_normal(N)
    base = measures.BASE_ONE
    if kind == "sparse":
        w *= rng.random(N) < 0.05
        w[rng.integers(N)] = 1.0
    elif kind == "point":  # one mass at 0, where every e(0 j/M) is 1
        w[1:] = 0.0
        base = BASE_ZN
    elif kind == "symmetric":
        # positive on {1..N-1}, w(n) = w(N - n): f^(theta) e(-N theta/2) is
        # real, and with the points 1 and 2 the one maximum is at 0
        w = np.abs(w)
        w[:-1] += w[-2::-1]
        w[-1] = 0.0
    f = Measure(N, w, signed=True, base=base)
    rows = fourier.wedge_grid(f, M)
    vals = fourier.grid_values(rows, M, np.arange(M))
    want = _full_complex_grid(f, M)
    top = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(vals - want))) <= 1e-12 * top
    # the first maximum of the exactly Hermitian oracle, and the points
    # within rounding of it
    oracle = np.abs(paper.rfft_grid(f, M))
    first = int(np.argmax(oracle))
    near = np.flatnonzero(oracle >= oracle[first] * (1 - 1e-12))
    j_star = fourier.grid_argmax(np.abs(rows), M)
    assert j_star in near
    if set(near.tolist()) <= {first, -first % M} or (kind == "symmetric"
                                                     and N >= 3):
        assert j_star == first
    if kind == "point" and fourier._smooth_length(M) == M:
        # an exact tie at every point: at a 5-smooth M pocketfft takes no
        # Bluestein step, so every value is w(0) exactly
        assert np.all(vals == w[0]) and j_star == first == 0
    # and the argmax is the first maximum of the natural-order reads
    assert j_star == int(np.argmax(np.abs(vals)))


@pytest.mark.parametrize("L1, L2, positions", [
    (8, 16, range(0, 128, 3)),   # every row touched: no fill
    (8, 16, range(0, 40, 3)),    # rows 0..2 of 8
    (9, 11, range(5, 40, 2)),    # odd L1
    (1, 13, range(0, 13)),       # one row
    (25, 40, range(0, 300, 7)),
    (9, 11, [0]),                # a support at 0 alone
    (9, 11, []),                 # an empty support: no row at all
])
def test_real_forward_on_the_support_rows_keeps_every_bit(L1, L2, positions):
    # the pass on the pad's rows that the support touches, with the rest
    # zero-filled by the rfft, equals the pass on the whole zero pad
    rng = np.random.default_rng(L1 * L2 + len(positions))
    positions = np.asarray(positions, dtype=np.int64)
    values = rng.standard_normal(positions.size)
    end = int(positions.max(initial=-1)) + 1
    rows = fourier._pad(positions, values, L2, end)
    assert rows.shape == (-(-end // L2), L2)
    full = np.zeros(L1 * L2)
    full[positions] = values
    want = fourier._real_forward(full.reshape(L1, L2), L1)
    got = fourier._real_forward(rows, L1)
    assert got.shape == want.shape == (L1 // 2 + 1, L2)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [2.5, 4.0])
@pytest.mark.parametrize("L1, L2", [(8, 16), (9, 11), (1, 13), (250, 160)])
def test_real_grid_powers_in_the_pass_buffer_keep_every_bit(L1, L2, p, monkeypatch):
    # |X|^p written block by block into X's own float view equals |X|^p
    # taken on a separate array, at any block size; (250, 160) has 20,160
    # points, more than one block of 2^14
    rng = np.random.default_rng(L1)
    X = fourier._real_forward(rng.standard_normal((L1, L2)), L1)
    want = fourier._powers(X.copy(), p)
    want[1:(L1 + 1) // 2] *= 2.0
    for block in (1, 7, fourier.BLOCK):
        monkeypatch.setattr(fourier, "BLOCK", block)
        Y = X.copy()
        got = fourier._real_grid_powers(Y, L1, p)
        assert np.shares_memory(got, Y) and got.shape == X.shape
        assert got.tobytes() == want.tobytes(), block


# --- tau and Fejer -----------------------------------------------------------

@given(
    theta=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    N=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=150, deadline=None)
def test_tau_matches_direct_mean(theta, N):
    direct = np.mean(np.exp(2j * np.pi * theta * np.arange(1, N + 1)))
    assert abs(paper.tau(theta, N) - direct) < 1e-9


def test_tau_near_integer_branch():
    # no cancellation near integers, where e(theta) - 1 is tiny
    for theta in (0.0, 1e-10, -1e-12, 1.0 - 1e-11, 2.0, 3.689853781556327e-09,
                  -2e-8, 1.0 - 3e-9, 5e-324, -1e-170, 1e-160, 1e-300):
        direct = np.mean(np.exp(2j * np.pi * theta * np.arange(1, 501)))
        assert abs(paper.tau(theta, 500) - direct) < 1e-10
    assert paper.tau(0.0, 17) == pytest.approx(1.0)
    # subnormal sines once gave tau(5e-324, 4) = 1.083
    assert abs(paper.tau(5e-324, 4) - 1.0) < 1e-15


def test_fejer_is_normalized_tau_square():
    for theta in (0.3, 0.01, 0.5, 1e-9):
        N = 40
        expect = N * abs(paper.tau(theta, N)) ** 2
        assert paper.fejer(theta, N) == pytest.approx(expect, rel=1e-9)
    assert paper.fejer(0.0, 40) == 40.0
    # tiny theta: s * s once underflowed to 0 and raised ZeroDivisionError
    for theta in (5e-324, 1e-170, 1e-160, -1e-300):
        assert paper.fejer(theta, 4) == pytest.approx(4.0, rel=1e-12)


def test_fejer_mean_is_one():
    N, M = 25, 128
    vals = [paper.fejer(j / M, N) for j in range(M)]
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
        fourier.lp_norm_torus(f, 0.5, TorusGrid(oversample=8))
    with pytest.raises(ParameterError):
        TorusGrid(oversample=1)
    # the ladder escalates no further than MAX_OVERSAMPLE
    assert TorusGrid(oversample=fourier.MAX_OVERSAMPLE).points(10) == 160
    with pytest.raises(ParameterError, match=r"2\.\.16, got 17"):
        TorusGrid(oversample=fourier.MAX_OVERSAMPLE + 1)


def test_lp_ladder_refuses_p_out_of_float_range(small_table):
    # |f^|^p overflows (inf - inf in the Hermitian sum, or inf in the complex
    # one) or underflows to 0 on the whole grid: each would be a wrong norm
    grid = TorusGrid(oversample=2)
    big = Measure(10, np.full(10, 100.0))
    small = Measure(10, np.full(10, 0.01))
    signs = np.ones(small_table.primes_up_to(100).size)
    calls = [
        lambda: fourier.lp_norm_torus(big, 200.0, grid),
        lambda: fourier.lp_norm_torus(small, 400.0, grid),
        lambda: fourier.mz_ratio(big, 200.0, grid),
        lambda: fourier.majorant_denominator(300.0, 100, small_table, grid),
        lambda: fourier.majorant_ratio(signs, 300.0, 100, small_table, grid,
                                       den=1.0),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match=r"p = \S+ is out of float "
                           r"range at N = \d+: .* grid of \d+ points"):
            call()
    # a zero measure has a zero norm, not a refusal
    assert fourier.lp_norm_torus(Measure(10, np.zeros(10), signed=True),
                                 200.0, grid) == 0.0


@pytest.mark.parametrize("p", [0.5, float("nan"), float("inf"), -float("inf")])
def test_every_lp_entry_refuses_p_outside_1_inf(p, small_table):
    # one guard in the ladder serves every norm and ratio; NaN compares
    # false both ways, so a guard written as p < 1 would let it through
    grid = TorusGrid(oversample=2)
    f = Measure(10, np.ones(10))
    signs = np.ones(small_table.primes_up_to(100).size)
    calls = [
        lambda: fourier.lp_norm_torus(f, p, grid),
        lambda: fourier.mz_ratio(f, p, grid),
        lambda: fourier.majorant_denominator(p, 100, small_table, grid),
        lambda: fourier.majorant_ratio(signs, p, 100, small_table, grid, den=1.0),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match=r"\[1, inf\)"):
            call()


def test_lp_norm_noninteger_p_stable():
    rng = np.random.default_rng(8)
    f = _random_measure(60, rng)
    a = fourier.lp_norm_torus(f, 2.5, TorusGrid(oversample=2))
    b = fourier.lp_norm_torus(f, 2.5, TorusGrid(oversample=8))
    assert a == pytest.approx(b, rel=2e-3)


# --- the L^p grid ladder against the two-grid ladder it replaced ---------
#
# The oracle is the earlier ladder, copied here so that it cannot move with
# the program: each level evaluates the whole grid at oversample o and 2o
# from scratch with a complex ifft, and the finer value of the first pair
# that agrees to 0.1% is returned (the pair at oversample 16 at the latest).
# It also returns the oversample of that finer grid.

def _oracle_grid_lp(positions, values, N, p, oversample):
    M = oversample * N
    pad = np.zeros(M, dtype=np.complex128)
    pad[np.asarray(positions) % M] = values
    vals = M * np.fft.ifft(pad)
    return float(np.mean(np.abs(vals) ** p) ** (1.0 / p))


def _oracle_ladder(positions, values, N, p, oversample):
    o = oversample
    cur = _oracle_grid_lp(positions, values, N, p, o)
    while True:
        nxt = _oracle_grid_lp(positions, values, N, p, 2 * o)
        scale = max(abs(nxt), 1e-300)
        if abs(cur - nxt) / scale < 1e-3 or o >= 16:
            return nxt, 2 * o
        o *= 2
        cur = nxt


def _ladder_grids(calls):
    """(first pass, L) for each grid of L points a ladder took, from its
    transforms: a grid is two batched passes on the (L1, L2) view of its
    pad, an rfft (real values) or fft (complex values) of length L1 down
    axis 0 over the L2 columns, then an fft of length L2 along axis 1 over
    the rows k1 <= L1/2 (or all L1). Asserts that pairing, and that no
    call transforms an axis of the grid's full length."""
    assert len(calls) % 2 == 0
    grids = []
    for (name, L1, cols), (second, L2, rows) in zip(calls[::2], calls[1::2]):
        assert (second, cols) == ("fft", L2)
        assert rows == (L1 // 2 + 1 if name == "rfft" else L1)
        assert max(L1, L2) < L1 * L2
        grids.append((name, L1 * L2))
    return grids


def _stop_oversample(calls, N):
    # real values: each grid is taken at the length of the finest so far;
    # complex values: the first level is one grid of M = oversample * N
    # points, and each doubling adds one at the length of the grid it doubles
    grids = _ladder_grids(calls)
    name, length = grids[-1]
    if name == "rfft" or len(grids) == 1:
        return length // N
    return 2 * length // N


@pytest.mark.parametrize("oversample", [2, 4, 16])
@pytest.mark.parametrize("p", [1.0, 2.5, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_lp_ladder_matches_two_grid_oracle(kind, p, oversample):
    rng = np.random.default_rng(21)
    N = 101
    w = rng.standard_normal(N)
    if kind == "complex":
        w = w + 1j * rng.standard_normal(N)
    positions = np.arange(1, N + 1)
    want, _ = _oracle_ladder(positions, w, N, p, oversample)
    got, _ = fourier._lp_ladder(positions, w, N, p,
                                TorusGrid(oversample=oversample))
    assert got == pytest.approx(want, rel=1e-12)
    if kind == "real":
        assert fourier.lp_norm_torus(Measure(N, w, signed=True), p,
                                     TorusGrid(oversample=oversample)) == \
            pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("phase", [1.0, (1.0 + 1.0j) / math.sqrt(2.0)])
def test_lp_ladder_escalates_like_the_oracle(phase, transforms):
    # |f^| has kinks at its zeros, so at p = 1 the grid sums converge
    # slowly: the oracle stops at oversample 16, three doublings past 2
    N = 7
    positions = np.arange(1, N + 1)
    w = np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0]) * phase
    got, _ = fourier._lp_ladder(positions, w, N, 1.0, TorusGrid(oversample=2))
    calls = transforms.copy()
    want, stop = _oracle_ladder(positions, w, N, 1.0, 2)
    assert stop == 16
    if phase == 1.0:
        # one grid per comparison, at the finer length: 28 holds 14 and 28
        assert _ladder_grids(calls) == [("rfft", 28), ("rfft", 56), ("rfft", 112)]
        # N = 7 is prime, so L1 = L/N: the passes run at L/7 and 7
        assert calls[:2] == [("rfft", 4, 7), ("fft", 7, 3)]
    else:
        assert _ladder_grids(calls) == [("fft", 14), ("fft", 14), ("fft", 28),
                                        ("fft", 56)]
    assert _stop_oversample(calls, N) == stop
    assert got == pytest.approx(want, rel=1e-12)


def test_lp_ladder_warns_when_still_inconsistent_at_the_cap(transforms):
    # the Dirichlet kernel at p = 1: oversamples 16 and 32 differ by 0.12%
    N = 8
    f = Measure(N, np.ones(N))
    with pytest.warns(GridConvergenceWarning, match="oversample 16"):
        got = fourier.lp_norm_torus(f, 1.0, TorusGrid(oversample=2))
    calls = transforms.copy()
    want, stop = _oracle_ladder(np.asarray(f.positions()), np.ones(N), N, 1.0, 2)
    assert stop == 32
    assert got == pytest.approx(want, rel=1e-12)
    assert _stop_oversample(calls, N) == stop


@pytest.mark.parametrize("p, oversample", [(2.0, 2), (4.0, 2), (6.0, 4)])
def test_even_p_inside_the_exact_bound_takes_one_transform(p, oversample,
                                                           transforms):
    rng = np.random.default_rng(22)
    N = 300
    f = _random_measure(N, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error", GridConvergenceWarning)
        got = fourier.lp_norm_torus(f, p, TorusGrid(oversample=oversample))
    assert _ladder_grids(transforms) == [("rfft", oversample * N)]
    want, _ = _oracle_ladder(np.asarray(f.positions()), f.weights, N, p, oversample)
    assert got == pytest.approx(want, rel=1e-12)


def test_even_p_outside_the_exact_bound_doubles_once(transforms):
    # p = 6 at oversample 2: 2N <= 3 * span, so the first level is not
    # exact; 4N > 3 * span makes the doubled level exact, and it is
    # returned. One grid of 4N points holds both levels, 2N as its even bins
    rng = np.random.default_rng(23)
    N = 300
    f = _random_measure(N, rng)
    got = fourier.lp_norm_torus(f, 6.0, TorusGrid(oversample=2))
    assert _ladder_grids(transforms) == [("rfft", 4 * N)]
    want, _ = _oracle_ladder(np.asarray(f.positions()), f.weights, N, 6.0, 4)
    assert got == pytest.approx(want, rel=1e-12)


def test_even_p_at_the_exact_bound_is_not_exact(transforms):
    # f^ = 1 + e(5 theta): |f^|^4 has frequencies up to 10 = (p/2) * span,
    # which the 10-point rule aliases onto 0 (it gives 8, not the quadruple
    # count 6); the doubled level is exact and is returned, and one grid
    # of 20 points holds both levels
    positions = np.array([0, 5])
    got, _ = fourier._lp_ladder(positions, np.ones(2), 5, 4.0,
                                TorusGrid(oversample=2))
    assert _ladder_grids(transforms) == [("rfft", 20)]
    assert got ** 4 == pytest.approx(6.0, rel=1e-12)


def test_majorant_takes_one_real_transform_per_ratio(small_table, transforms):
    # the signs arrive as complex with zero imaginary part; the grid of real
    # coefficients is Hermitian, so the first level is one real grid, and
    # at p = 4 and 2N > 2 * span it is exact
    N = 2000
    grid = TorusGrid(oversample=2)
    n = small_table.primes_up_to(N).size
    signs = np.random.default_rng(24).integers(0, 2, size=n) * 2.0 - 1.0
    den = fourier.majorant_denominator(4.0, N, small_table, grid)
    assert _ladder_grids(transforms) == [("rfft", 2 * N)]
    fourier.majorant_ratio(signs, 4.0, N, small_table, grid, den=den)
    assert _ladder_grids(transforms) == [("rfft", 2 * N)] * 2


def _quadruple_count(positions, signs):
    """sum_k c_k^2 for c the integer autoconvolution of the signs, which is
    ||sum_n s_n e(n theta)||_4^4 exactly, as a Python int."""
    P = 1 << (2 * int(positions.max()) + 1).bit_length()
    pad = np.zeros(P)
    pad[positions] = signs
    F = np.fft.rfft(pad)
    c = np.rint(np.fft.irfft(F * F, P)).astype(np.int64)
    return sum(int(x) * int(x) for x in c.tolist())


@pytest.mark.parametrize("N, oversample, drop_two", [
    (1000, 2, False),
    (1999, 3, False),  # odd grid length 3 * 1999: no Nyquist bin
    (4096, 2, True),   # primes from 3 on: the span is even
    (10007, 4, False),
])
def test_l4_norm_is_the_exact_quadruple_count(small_table, N, oversample,
                                              drop_two, transforms):
    primes = small_table.primes_up_to(N)
    if drop_two:
        primes = primes[1:]
    span = int(primes[-1] - primes[0])
    assert span % 2 == (0 if drop_two else 1)
    rng = np.random.default_rng(N)
    signs = (rng.integers(0, 2, size=primes.size) * 2 - 1).astype(np.float64)
    w = np.zeros(N)
    w[primes - 1] = signs
    f = Measure(N, w, signed=True)
    got = fourier.lp_norm_torus(f, 4.0, TorusGrid(oversample=oversample))
    assert _ladder_grids(transforms) == [("rfft", oversample * N)]
    want = _quadruple_count(primes, signs)
    assert got ** 4 == pytest.approx(want, rel=1e-12)


# --- the ladder's four-step grids against full-length numpy.fft ----------
#
# Every grid the ladder takes is recorded as it is taken: a real grid as
# its whole pad (the rows `_real_forward` was given, zero-filled to L1)
# and the weighted rows `_real_grid_powers` returned,
# a complex one as the pad before and after `_four_step`. Each sum the
# ladder can read off a real grid, over the bins k = 0 mod t for t = 1, 2
# (the coarser level inside a grid of 2M points) and s = L/N (the r/N bins
# of mz_ratio), is compared with the same sum over numpy's full-length
# transform of the pad, as are a complex grid's sum, the norm with the
# two-grid oracle and mz's numerator with the spectrum's power sum.

_PRIMES = (2, 3, 7, 101, 1999, 2003, 2999)


def _record_grids(monkeypatch):
    grids, pads = [], []
    forward, real_pass = fourier._real_forward, fourier._real_grid_powers
    four_step = fourier._four_step

    def real_forward(v, L1):
        pad = np.zeros((L1, v.shape[1]))
        pad[:v.shape[0]] = v
        pads.append(pad.ravel())
        return forward(v, L1)

    def real(X, L1, p):
        powers = real_pass(X, L1, p)
        grids.append(("real", pads.pop(), powers))
        return powers

    def complex_(v, twiddles, inverse):
        pad = v.ravel().copy()
        four_step(v, twiddles, inverse)
        grids.append(("complex", pad, v.copy()))

    monkeypatch.setattr(fourier, "_real_forward", real_forward)
    monkeypatch.setattr(fourier, "_real_grid_powers", real)
    monkeypatch.setattr(fourier, "_four_step", complex_)
    return grids


def _check_grid_sums(grids, N, p):
    assert grids
    for kind, pad, out in grids:
        L = pad.size
        full = np.abs(np.fft.fft(pad)) ** p  # every bin, mirrors included
        if kind == "complex":
            got, want = float(np.sum(np.abs(out) ** p)), float(np.sum(full))
            assert got == pytest.approx(want, rel=1e-13, abs=0)
            continue
        s = L // N
        for t in {1, s} | ({2} if s % 2 == 0 else set()):
            got, want = float(np.sum(out[::t])), float(np.sum(full[::t]))
            assert got == pytest.approx(want, rel=1e-13, abs=0), (L, t)


@given(N=st.one_of(st.integers(2, 3000), st.sampled_from(_PRIMES)),
       oversample=st.integers(2, 4), p=st.sampled_from([2.5, 3.0, 4.0]),
       kind=st.sampled_from(["real", "complex"]), sparse=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(N=1999, oversample=3, p=4.0, kind="real", sparse=False, seed=0)  # L1 = s = 3
@example(N=2025, oversample=3, p=4.0, kind="real", sparse=False, seed=1)  # L1 = 135
@example(N=2003, oversample=2, p=2.5, kind="complex", sparse=True, seed=2)  # L1 = s
@settings(max_examples=60, deadline=None)
def test_ladder_grid_sums_match_full_length_numpy(N, oversample, p, kind, sparse,
                                                 seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(N)
    if sparse:
        w *= rng.random(N) < 0.05
        w[rng.integers(N)] = 1.0
    if kind == "complex":
        w = w + 1j * rng.standard_normal(N) * (w != 0)
    grid = TorusGrid(oversample=oversample)
    positions = np.flatnonzero(w) + 1
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", GridConvergenceWarning)
        grids = _record_grids(mp)
        norm, _ = fourier._lp_ladder(positions, w[positions - 1], N, p, grid)
        if kind == "real":
            num = fourier.mz_ratio(Measure(N, w, signed=True), p, grid) * N * norm ** p
    _check_grid_sums(grids, N, p)
    want, _ = _oracle_ladder(positions, w[positions - 1], N, p, oversample)
    assert norm == pytest.approx(want, rel=1e-13, abs=0)
    if kind == "real":
        # mz's numerator: sum_r |f~(r)|^p, f~ from one length-N numpy fft
        zn = np.zeros(N)
        zn[positions % N] = w[positions - 1]
        spec = float(np.sum(np.abs(np.fft.fft(zn)) ** p))
        assert num == pytest.approx(spec, rel=1e-13, abs=0)


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
            got = fourier.triple_count(*map(fourier.spectrum, (f, g, h)))
            expect = _brute_triple(f.zn_weights(), g.zn_weights(), h.zn_weights())
            assert got == pytest.approx(expect, abs=1e-9)


def test_triple_count_exact_on_sets():
    rng = np.random.default_rng(10)
    for N in (7, 17, 101):
        for _ in range(5):
            w = (rng.random(N) < 0.4).astype(np.float64)
            F = fourier.spectrum(Measure(N, w, base=BASE_ZN))
            got = fourier.triple_count(F, F, F)
            expect = _brute_triple(w, w, w)
            assert got == pytest.approx(expect, abs=1e-9)
            assert round(got) == int(expect)


def test_triple_count_needs_common_N():
    F = fourier.spectrum(Measure(8, np.ones(8)))
    G = fourier.spectrum(Measure(9, np.ones(9)))
    with pytest.raises(ParameterError):
        fourier.triple_count(F, G, F)


# --- spectra and set convolutions --------------------------------------------

def _plan_length(N):
    """The length of the chirp convolution behind every Z_N transform."""
    return fourier._chirp_plan(N)[1].size


def _passes(N, inverse=False):
    """The two batched calls of one four-step transform at N's plan
    length L = L1 L2: L2 ffts of length L1, then L1 of length L2; the
    inverse takes iffts in the other order. Read off `_smooth_length` and
    `_split`, so asking builds no plan."""
    L = fourier._smooth_length(N + N // 2)
    L1 = fourier._split(L)
    forward = [("fft", L1, L // L1), ("fft", L // L1, L1)]
    return [("ifft", n, rows) for _, n, rows in forward[::-1]] if inverse else forward


def _convolution(N):
    """The calls of one chirp convolution at N: a forward four-step
    transform, then an inverse one."""
    return _passes(N) + _passes(N, inverse=True)


def test_spectrum_is_read_only_and_taken_per_call(transforms):
    rng = np.random.default_rng(12)
    f = _random_measure(101, rng)
    fourier._chirp_plan.cache_clear()
    first = fourier.spectrum(f)
    # the plan's kernel, then one convolution; N = 101 runs at
    # L = 160 = 10 x 16
    assert _passes(101) == [("fft", 10, 16), ("fft", 16, 10)]
    assert transforms == _passes(101) + _convolution(101)
    # nothing is cached on the measure: a second call takes one more
    # convolution, with the same plan and the same bits
    second = fourier.spectrum(f)
    assert second is not first
    assert transforms == _passes(101) + _convolution(101) * 2
    assert not hasattr(f, "_spectrum")
    again = fourier.spectrum(Measure(101, f.weights, signed=True))
    assert np.array_equal(first, again) and np.array_equal(first, second)
    with pytest.raises(ValueError):
        first[0] = 0.0


def test_triple_count_transforms_a_shared_measure_once(transforms):
    # the count reads the spectra it is given and takes no transform, so
    # a measure shared by its three arguments is transformed once
    rng = np.random.default_rng(13)
    f, g = _random_measure(53, rng), _random_measure(53, rng)
    fourier._chirp_plan.cache_clear()
    F = fourier.spectrum(f)
    fourier.triple_count(F, F, F)
    # N = 53 runs at L = 80 = 8 x 10, the least 5-smooth length
    # >= 53 + 27 - 1
    assert _convolution(53) == [("fft", 8, 10), ("fft", 10, 8),
                                ("ifft", 10, 8), ("ifft", 8, 10)]
    assert transforms == _passes(53) + _convolution(53)
    fourier.triple_count(F, fourier.spectrum(g), F)
    assert transforms == _passes(53) + _convolution(53) * 2


def _direct_dft(w):
    """w~(r) = sum_x w(x) e(-rx/N) by O(N^2) summation, each phase reduced
    mod N before the exponential."""
    N = w.size
    k = np.outer(np.arange(N), np.arange(N)) % N
    return np.exp(-2j * np.pi * k / N) @ w


def _assert_hermitian(X):
    """X(N - r) = conj X(r) bit for bit, X(0) real, X(N/2) real for even N."""
    N = X.size
    mirror = (-np.arange(N)) % N
    assert np.array_equal(X[mirror], np.conj(X))
    assert X[0].imag == 0.0
    if N % 2 == 0:
        assert X[N // 2].imag == 0.0


@pytest.mark.parametrize("N", [1, 2, 3, 4, 16, 97, 101, 120, 128])
@pytest.mark.parametrize("signed", [False, True])
def test_spectrum_pair_matches_the_direct_dft(N, signed, transforms):
    # two measures on one Z_N share one chirp plan, and each takes one
    # convolution at its length; each coefficient within 1e-13 ||f||_1 of
    # the O(N^2) sum, at prime and composite N
    rng = np.random.default_rng(N)
    f, g = (Measure(N, _random_measure(N, rng, signed).weights, signed=signed,
                    base=BASE_ZN) for _ in range(2))
    fourier._chirp_plan.cache_clear()
    F, G = fourier.spectrum(f), fourier.spectrum(g)
    assert transforms == _passes(N) + _convolution(N) * 2
    assert not F.flags.writeable and not G.flags.writeable
    for m, X in ((f, F), (g, G)):
        tol = 1e-13 * float(np.sum(np.abs(m.weights)))
        assert float(np.max(np.abs(X - _direct_dft(m.weights)))) <= tol
        # exactly Hermitian, bit for bit: |f~| ties at r and N - r
        _assert_hermitian(X)


def test_spectrum_pair_reuses_one_chirp_plan(transforms):
    rng = np.random.default_rng(14)
    f, g = _random_measure(31, rng), _random_measure(31, rng)
    fourier._chirp_plan.cache_clear()
    fourier.spectrum(f)
    fourier.spectrum(g)
    # N = 31 runs at L = 48 = 6 x 8; one plan, one convolution per measure
    assert _passes(31) == [("fft", 6, 8), ("fft", 8, 6)]
    assert transforms == _passes(31) + _convolution(31) * 2
    # one plan is kept: another N replaces it, and coming back rebuilds it
    transforms.clear()
    fourier.spectrum(_random_measure(30, rng))
    fourier.spectrum(_random_measure(31, rng))
    assert transforms == (_passes(30) + _convolution(30)
                          + _passes(31) + _convolution(31))


@pytest.mark.parametrize("N", [1, 2, 3, 4, 16, 97, 101, 120, 128])
def test_idft_inverts_spectrum(N, transforms):
    # the real weights back within 1e-13 ||f||_1 / N, from one convolution
    # with the same plan: the inverse reads only r <= N/2
    rng = np.random.default_rng(N + 7)
    f = Measure(N, rng.standard_normal(N), signed=True, base=BASE_ZN)
    X = fourier.spectrum(f)
    half = X[:N // 2 + 1]
    transforms.clear()
    back = fourier.idft(half, N)
    assert transforms == _convolution(N)
    assert back.dtype == np.float64 and back.shape == (N,)
    tol = 1e-13 * float(np.sum(np.abs(f.weights))) / N
    assert float(np.max(np.abs(back - f.weights))) <= tol
    # only the half r <= N/2 is taken, and it is only read: a writable
    # copy comes back as it went in, and gives the same bits
    copy = np.array(half)
    assert np.array_equal(fourier.idft(copy, N), back)
    assert np.array_equal(copy, half)
    # a half of any other length, such as the whole spectrum, is refused
    with pytest.raises(ParameterError):
        fourier.idft(np.append(half, 0.0), N)


def _five_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_chirp_plan_length_is_the_least_five_smooth():
    # the plan's length at small N; its rule, _smooth_length, at large N
    for N in (*range(1, 400), 2 ** 20 - 1, 2 ** 20 + 1, 1_000_003):
        low = N + N // 2  # N + R - 1, R = N // 2 + 1
        L = _plan_length(N) if N < 400 else fourier._smooth_length(low)
        assert _five_smooth(L) and L >= low
        if N < 400:
            assert not any(_five_smooth(m) for m in range(low, L))
    assert fourier._smooth_length(1_000_003 + 500_001) == 1_518_750


def test_split_is_the_largest_divisor_up_to_the_root():
    for n in range(1, 2000):
        d = fourier._split(n)
        assert n % d == 0 and d * d <= n
        assert not any(n % e == 0 for e in range(d + 1, math.isqrt(n) + 1))
    L = fourier._smooth_length(1_000_003 + 500_001)
    assert (fourier._split(L), fourier._split(L // fourier._split(L))) == (1215, 25)


def _direct_idft(X):
    """The real part of (1/N) sum_r X(r) e(rn/N), by the O(N^2) sum."""
    return np.conj(_direct_dft(np.conj(X))).real / X.size


@pytest.mark.parametrize("N, shape", [
    (1, (1, 1)),          # L = 1
    (2, (1, 3)),          # L prime: L1 = 1
    (3, (2, 2)),          # L1 = L2
    (24, (6, 6)),
    (17, (5, 5)),         # L a prime power
    (18, (3, 9)),
    (21, (4, 8)),
    (83, (5, 25)),
    (60, (9, 10)),        # L = 2 3^b 5^c, the pipeline's kind of length
    (100, (10, 15)),
    (180, (15, 18)),
    (997, (30, 50)),
    (1_000_003, (1215, 1250)),
])
def test_four_step_transforms_match_numpy_and_the_direct_sum(N, shape):
    # the Z_N transform and its inverse through each kind of (L1, L2)
    # split of the plan's length, within 1e-13 ||f||_1 (and ||f||_1 / N)
    # of numpy.fft, and below N = 1000 of the O(N^2) sums too
    rng = np.random.default_rng(N + 3)
    w = rng.standard_normal(N)
    f = Measure(N, w, signed=True, base=BASE_ZN)
    norm = float(np.sum(np.abs(w)))
    X = fourier.spectrum(f)
    _, kernel, twiddles = fourier._chirp_plan(N)
    assert kernel.shape == shape
    # w^(k1 n2), n2 = B a + b, as two small tables, not one of L1 x L2:
    # 1.5 MB at N = 1,000,003 against 24 MB
    L1, L2 = shape
    B = fourier._split(L2)
    assert [t.shape for t in twiddles] == [(L1, L2 // B, 1), (L1, 1, B)]
    if N == 1_000_003:
        assert sum(t.nbytes for t in twiddles) < 1.6e6
    back = fourier.idft(X[:N // 2 + 1], N)
    assert float(np.max(np.abs(X - np.fft.fft(w)))) <= 1e-13 * norm
    assert float(np.max(np.abs(back - np.fft.ifft(X).real))) <= 1e-13 * norm / N
    assert float(np.max(np.abs(back - w))) <= 1e-13 * norm / N
    if N < 1000:
        assert float(np.max(np.abs(X - _direct_dft(w)))) <= 1e-13 * norm
        assert float(np.max(np.abs(back - _direct_idft(X)))) <= 1e-13 * norm / N


@given(N=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
       signed=st.booleans())
@settings(max_examples=100, deadline=None)
def test_spectrum_and_idft_match_numpy(N, seed, signed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(N)
    if not signed:
        w = np.abs(w)
    f = Measure(N, w, signed=signed, base=BASE_ZN)
    norm = float(np.sum(np.abs(w)))
    X = fourier.spectrum(f)
    assert float(np.max(np.abs(X - np.fft.fft(w)))) <= 1e-13 * norm
    _assert_hermitian(X)
    back = fourier.idft(X[:N // 2 + 1], N)
    assert float(np.max(np.abs(back - w))) <= 1e-13 * norm / N


def _convolutions(calls):
    """L for each self-convolution the calls took, in order: the real
    four-step pass pair on the (L1, L2) view of a pad of L points,
    L1 = `_split(L)`, four batched calls: an rfft of length L1 down axis 0
    over the L2 columns and an fft of length L2 over the rows k1 <= L1/2,
    then an ifft of length L2 over those rows and an irfft of length L1
    back down axis 0. Asserts that pattern, and that no call transforms an
    axis of the full length L unless L is 1 or a prime (L1 = 1)."""
    assert len(calls) % 4 == 0
    lengths = []
    for i in range(0, len(calls), 4):
        _, L1, L2 = calls[i]
        rows = L1 // 2 + 1
        assert calls[i:i + 4] == [("rfft", L1, L2), ("fft", L2, rows),
                                  ("ifft", L2, rows), ("irfft", L1, L2)]
        L = L1 * L2
        assert L1 == fourier._split(L)
        assert L1 == 1 or max(L1, L2) < L
        lengths.append(L)
    return lengths


@given(n=st.integers(1, 3000), density=st.sampled_from([1.0, 0.3, 0.01]),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, density=1.0, seed=0)     # L = 1: one point, 1 x 1
@example(n=65, density=1.0, seed=1)    # L = 135 = 9 x 15: odd L1
@example(n=64, density=1.0, seed=2)    # L = 128 = 8 x 16: even L1, whose
@example(n=64, density=0.01, seed=3)   # row L1/2 stands for itself alone
@settings(max_examples=100, deadline=None)
def test_self_convolution_matches_numpy_convolve(n, density, seed):
    # the real four-step pass pair against the direct sum of np.convolve,
    # on dense and sparse nonnegative weights, within 1e-13 of the largest
    # value
    rng = np.random.default_rng(seed)
    u = rng.random(n) * (rng.random(n) < density)
    want = np.convolve(u, u)
    got = fourier._self_convolution(u)
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want))) <= 1e-13 * float(np.max(want))


@pytest.mark.parametrize("N", [1, 2, 7, 17, 64, 101])
def test_self_triple_count_matches_brute_and_spectral(N, transforms):
    # the linear self-convolution at the least 5-smooth length >= 2N - 1,
    # folded mod N; within 1e-13 ||f||_1^3 (the trivial bound on the form)
    # of both the O(N^2) enumeration and the spectral triple_count
    rng = np.random.default_rng(N + 1)
    for signed in (False, True):
        f = Measure(N, _random_measure(N, rng, signed).weights, signed=signed,
                    base=BASE_ZN)
        transforms.clear()
        got = fourier.self_triple_count(f)
        # reads the weights, never a spectrum: one self-convolution only
        assert _convolutions(transforms) == [fourier._smooth_length(2 * N - 1)]
        tol = 1e-13 * float(np.sum(np.abs(f.weights))) ** 3
        w = f.zn_weights()
        assert abs(got - _brute_triple(w, w, w)) <= tol
        F = fourier.spectrum(f)
        assert abs(got - fourier.triple_count(F, F, F)) <= tol


def _brute_set_convolution(S, length=None):
    """#{(s, t) in S x S : s + t = k} for k < length, by default
    2 max(S) + 1 (0 for an empty S)."""
    if length is None:
        length = 2 * int(max(S)) + 1 if len(S) else 0
    out = np.zeros(length, dtype=np.int64)
    for s in S:
        for t in S:
            out[s + t] += 1
    return out


@pytest.mark.parametrize("N", [1, 2, 31, 33, 97, 513])
def test_set_convolution_matches_brute(N):
    # 31 and 97 are prime; 2N-1 = 65 and 1025 sit just above 64 and 1024
    rng = np.random.default_rng(N)
    S = np.flatnonzero(rng.random(N) < 0.4)
    assert np.array_equal(fourier.set_convolution(S),
                          _brute_set_convolution(S))


@pytest.mark.parametrize("limit", [2, 1000, 20_000])
def test_set_convolution_matches_the_power_of_two_oracle(small_table, limit):
    # the primes' pair-sum counts equal the oracle's, which takes one full
    # call each way at a power of two, integer for integer, and sum to |S|^2
    S = small_table.primes_up_to(limit)
    got = fourier.set_convolution(S)
    want, residual = paper.pair_sum_counts(S)
    assert np.array_equal(got, want)
    assert int(got.sum()) == S.size ** 2
    assert residual < fourier.INTEGRALITY_TOL


def test_set_convolution_runs_at_a_smooth_length(transforms):
    # sized by the set: k runs to 2 max(S), at the least 5-smooth length
    # above it, 25 = 5 x 5 and 12 = 3 x 4, where the power of two would be
    # 32 and 16
    S = np.array([0, 3, 5, 6, 12])
    assert fourier.set_convolution(S).size == 2 * 12 + 1
    assert fourier.set_convolution(S[:3]).size == 2 * 5 + 1
    assert _convolutions(transforms) == [25, 12]
    assert [call[1:] for call in transforms[::4]] == [(5, 5), (3, 4)]


@pytest.mark.parametrize("S, N, lengths", [
    ([], 5, []),            # empty: no values, no transform
    ([], 1, []),
    ([0], 1, [1]),          # S = {0}: one point, 1 x 1
    ([0], 4, [1]),
    ([0, 32], 33, [72]),    # 2 max S + 1 = 65, 72 = 8 x 9 (even L1)
    ([32], 33, [72]),
])
def test_set_convolution_edges(S, N, lengths, transforms):
    # N is any bound above S: the sums past 2 max S, up to 2N - 2, are 0
    S = np.array(S, dtype=np.int64)
    got = fourier.set_convolution(S)
    assert got.dtype == np.int64
    assert np.array_equal(got, _brute_set_convolution(S))
    padded = _brute_set_convolution(S, 2 * N - 1)
    assert np.array_equal(padded[:got.size], got)
    assert not padded[got.size:].any()
    assert _convolutions(transforms) == lengths


def test_set_convolution_integrality_guard(monkeypatch, transforms):
    # the offset is added to the output of the inverse pass's irfft down
    # axis 0, the one real-valued call of the convolution
    S = np.array([0, 1, 2, 4])
    original = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft",
                        lambda *a, **k: original(*a, **k) + 0.3)
    with pytest.raises(StageError, match="integer"):
        fourier.set_convolution(S)
    monkeypatch.setattr(np.fft, "irfft",
                        lambda *a, **k: original(*a, **k) + 0.2)
    assert fourier.set_convolution(S).tolist() == \
        _brute_set_convolution(S).tolist()
    assert _convolutions(transforms) == [9, 9]
    assert [call[1:] for call in transforms if call[0] == "irfft"] == [(3, 3)] * 2


# --- ratio diagnostics -------------------------------------------------------

def test_mz_ratio_is_one_at_p2():
    rng = np.random.default_rng(11)
    for N in (32, 100):
        f = _random_measure(N, rng)
        assert fourier.mz_ratio(f, 2.0, TorusGrid(oversample=2)) == pytest.approx(
            1.0, rel=1e-10
        )


@pytest.mark.parametrize("oversample", [2, 3, 4])
@pytest.mark.parametrize("N", [64, 65])
@pytest.mark.parametrize("p", [2.5, 4.0, 6.0])
def test_mz_numerator_is_the_spectrum_power_sum(p, N, oversample, transforms):
    # the numerator is read off the ladder's own first grid (every
    # oversample-th bin when that level is exact, else every
    # 2 * oversample-th), with no length-N transform of its own
    f = _random_measure(N, np.random.default_rng(N + oversample))
    grid = TorusGrid(oversample=oversample)
    ratio = fourier.mz_ratio(f, p, grid)
    grids = _ladder_grids(transforms)
    assert grids == [("rfft", L) for _, L in grids]
    assert all(L >= oversample * N for _, L in grids)
    num = ratio * N * fourier.lp_norm_torus(f, p, grid) ** p
    want = math.fsum((np.abs(fourier.spectrum(f)) ** p).tolist())
    assert num == pytest.approx(want, rel=1e-12)


def test_mz_ratio_zero_measure_raises():
    f = Measure(10, np.zeros(10), signed=True)
    with pytest.raises(DegenerateInputError):
        fourier.mz_ratio(f, 2.5, TorusGrid(oversample=8))


def test_majorant_ratio_even_exponent_bounded(small_table):
    rng = np.random.default_rng(12)
    n_primes = int(small_table.primes_up_to(2000).size)
    grid = TorusGrid(oversample=2)
    den = fourier.majorant_denominator(4.0, 2000, small_table, grid)
    for _ in range(10):
        signs = (rng.integers(0, 2, size=n_primes) * 2 - 1).astype(np.float64)
        ratio = fourier.majorant_ratio(signs, 4.0, 2000, small_table, grid,
                                       den=den)
        assert ratio <= 1.0 + 1e-9


def test_majorant_denominator_is_bit_identical(small_table):
    grid = TorusGrid(oversample=2)
    rng = np.random.default_rng(5)
    for N, p in ((500, 4.0), (1000, 2.5)):
        n = small_table.primes_up_to(N).size
        den = fourier.majorant_denominator(p, N, small_table, grid)
        for _ in range(3):
            signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
            fresh = fourier.majorant_denominator(p, N, small_table, grid)
            assert (fourier.majorant_ratio(signs, p, N, small_table, grid, den=den)
                    == fourier.majorant_ratio(signs, p, N, small_table, grid,
                                              den=fresh))
    with pytest.raises(DegenerateInputError):
        fourier.majorant_denominator(4.0, 1, small_table, grid)
    with pytest.raises(ParameterError):
        fourier.majorant_denominator(0.5, 500, small_table, grid)

def test_majorant_ratio_rejects_large_coeffs(small_table):
    n_primes = int(small_table.primes_up_to(100).size)
    bad = np.ones(n_primes)
    bad[0] = 1.5
    with pytest.raises(PreconditionError):
        fourier.majorant_ratio(bad, 4.0, 100, small_table,
                               TorusGrid(oversample=8), den=1.0)


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
        fourier.restriction_ratio(fvals, 2.0, lam, TorusGrid(oversample=8))
    with pytest.raises(DegenerateInputError):
        fourier.restriction_ratio(np.zeros(support, dtype=complex), 2.5, lam,
                                  TorusGrid(oversample=8))

