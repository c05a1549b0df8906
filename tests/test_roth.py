import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeaps import fourier, measures, roth, sieve
from primeaps.errors import (
    DegenerateInputError,
    ParameterError,
    PreconditionError,
    StageError,
    TableRangeError,
)
from primeaps.fourier import spectrum
from primeaps.measures import BASE_ZN, Measure
from primeaps.numutil import fsum_real, loglog_clamped

import paper


def _uniform(N):
    return Measure(N, np.full(N, 1.0 / N), signed=False, base=BASE_ZN)


def _holds(checks) -> dict:
    """Each ledger entry's verdict by name, from Check records or from the
    report's plain entries."""
    return {c["name"]: c["holds"] for c in map(_entry, checks)}


def _entry(c) -> dict:
    return c if isinstance(c, dict) else dataclasses.asdict(c)


# --- W-trick -----------------------------------------------------------------

def _report_of(res, A0, table, W, n, monkeypatch):
    """density_experiment's report on the source A0 at scale n, whose
    W-trick must be `res`. Its alpha is the measure block's mass_a, the
    lambda_{b,m,N} mass of A."""
    monkeypatch.setattr(roth, "_build_source", lambda source, n, table, seed: (
        np.asarray(A0, dtype=np.int64), table.primes_up_to(n)))
    rep = roth.density_experiment("primes", n, table, keep=_ignore,
                                  **_FLAGS | {"W": W})
    block = rep["w_trick"]
    assert (block["b"], block["m"], block["N"], block["size_A"]) == (
        res.b, res.m, res.N, res.A.size)
    return rep


def test_w_trick_three_primes(small_table, monkeypatch):
    res = roth.w_trick([3, 5, 7], small_table, W=2, n=7)
    assert (res.b, res.m, res.N) == (1, 2, 11)
    assert res.A.tolist() == [1, 2, 3]
    expect = math.fsum(math.log(v) / 22.0 for v in (3, 5, 7))
    rep = _report_of(res, [3, 5, 7], small_table, 2, 7, monkeypatch)
    assert rep["measure"]["mass_a"] == pytest.approx(expect, rel=1e-15)
    # the window (2n/m, 4n/m] comes from the source scale n = 7
    assert 2 * 7 // res.m < res.N <= 4 * 7 // res.m
    assert _holds(rep["checks"])["m_le_logN"]


def test_w_trick_primes_to_2000(small_table, monkeypatch):
    ps = small_table.primes_up_to(2000)
    res = roth.w_trick(ps, small_table, W=2, n=1999)
    assert (res.b, res.m, res.N) == (1, 2, 2003)
    assert res.A.size == 302
    rep = _report_of(res, ps, small_table, 2, 1999, monkeypatch)
    assert rep["measure"]["mass_a"] == pytest.approx(0.4841, abs=5e-4)


@pytest.mark.filterwarnings("ignore::primeaps.errors.DeskScaleWarning")
def test_w_trick_set_invariants(small_table, monkeypatch):
    ps = small_table.primes_up_to(1000)
    for W in (1, 3):
        res = roth.w_trick(ps, small_table, W=W, n=997)
        assert small_table.is_prime(res.N)
        n = 997
        assert 2 * n // res.m < res.N <= (4 * n) // res.m
        assert math.gcd(res.b, res.m) == 1
        assert res.A.size > 0
        assert res.A.min() >= 1 and res.A.max() <= res.N // 2
        vals = res.m * res.A + res.b
        assert np.all(small_table.is_prime(vals))
        # completeness: every prime in the chosen class inside the window
        want = ps[(ps % res.m == res.b)]
        want = (want - res.b) // res.m
        want = want[(want >= 1) & (want <= res.N // 2)]
        assert np.array_equal(np.sort(res.A), np.sort(want))
        phi_m = 1 if res.m == 1 else int(
            np.sum(np.gcd(np.arange(res.m), res.m) == 1)
        )
        expect = math.fsum(
            phi_m * math.log(int(v)) / (res.m * res.N) for v in vals
        )
        rep = _report_of(res, ps, small_table, W, n, monkeypatch)
        assert rep["measure"]["mass_a"] == pytest.approx(expect, rel=1e-12)


def test_w_trick_rejections(small_table):
    with pytest.raises(DegenerateInputError):
        roth.w_trick([], small_table, W=2, n=10)
    with pytest.raises(PreconditionError):
        roth.w_trick([3, 4, 5], small_table, W=2, n=5)
    with pytest.raises(DegenerateInputError):
        roth.w_trick([101], small_table, W=2, n=50)
    with pytest.raises(DegenerateInputError):
        roth.w_trick([2], small_table, W=1, n=2)  # 2 is not coprime to m=2
    with pytest.raises(ParameterError):
        roth.w_trick([3, 5], small_table, W=0, n=5)


@pytest.mark.parametrize("n, W, b, m", [(5, 3, 5, 6), (105, 7, 103, 210)])
def test_w_trick_refuses_an_empty_image(n, W, b, m, small_table):
    # N = 2 here, and no prime of the class b mod m maps into [1, 1]
    ps = small_table.primes_up_to(n)
    with pytest.raises(DegenerateInputError) as err:
        roth.w_trick(ps, small_table, W=W, n=n)
    msg = str(err.value)
    assert f"b = {b}" in msg and f"m = {m}" in msg and "[1, 1]" in msg
    stash = {}
    with pytest.raises(StageError) as err:
        roth.density_experiment("primes", n, small_table,
                                keep=stash.__setitem__, **_FLAGS | {"W": W})
    assert err.value.stage == "w-trick"
    assert isinstance(err.value.__cause__, DegenerateInputError)
    # the source stage ran; no later stage did
    assert list(stash) == ["A0"]
    assert np.array_equal(stash["A0"], ps)


def test_w_modulus_is_the_primorial(small_table):
    for W in range(-2, 40):
        want = 1
        for p in small_table.primes_up_to(max(W, 2)).tolist():
            want *= p
        if want > sieve.MAX_TABLE_LIMIT:
            # from W = 23 on the primorial exceeds the prime table
            with pytest.raises(TableRangeError):
                roth.w_modulus(W)
        else:
            assert roth.w_modulus(W) == want
    assert roth.w_modulus(1) == roth.w_modulus(2) == 2
    assert roth.w_modulus(7) == 210


def test_w_modulus_stops_past_the_table_limit():
    # 2 * 3 * ... * 19 = 9699690 fits the prime table, * 23 does not; a
    # huge W is refused after the primes up to 23, naming W, to three
    # digits past 30
    assert roth.w_modulus(22) == 9699690
    for W, text in ((23, "23"), (2000, "2000"), (10**12, "1000000000000"),
                    (10**40, r"1\.00e\+40")):
        with pytest.raises(TableRangeError, match=f"^W = {text}: .* prime-table"):
            roth.w_modulus(W)


# --- spectrum thresholding ---------------------------------------------------

def test_spectrum_threshold_uniform():
    spec = spectrum(_uniform(50))
    assert roth.spectrum_threshold(spec, 0.5).tolist() == [0]
    assert roth.spectrum_threshold(spec, 1.5).size == 0
    with pytest.raises(ParameterError):
        roth.spectrum_threshold(spec, 0.0)


def test_spectrum_threshold_progression_dual():
    # multiples of 5 in Z_100: spectrum lives on multiples of 20
    w = np.zeros(100)
    w[::5] = 1.0
    spec = np.fft.fft(w)
    got = roth.spectrum_threshold(spec, 1.0)
    assert got.tolist() == [0, 20, 40, 60, 80]
    assert np.all(np.abs(spec[got]) == pytest.approx(20.0))


# --- Bohr sets ---------------------------------------------------------------

def test_bohr_set_worked_example():
    B = roth.bohr_set([1], 0.1, 100)
    assert len(B) == 21
    assert B.k == 1
    expect = sorted(list(range(0, 11)) + list(range(90, 100)))
    assert B.members.tolist() == expect


def test_bohr_set_invariants():
    rng = np.random.default_rng(30)
    for _ in range(10):
        N = int(rng.integers(40, 1200))
        k = int(rng.integers(1, 4))
        R = rng.integers(1, N, size=k)
        eps = float(rng.uniform(0.08, 0.3))
        B = roth.bohr_set(R, eps, N)
        assert 0 in B.members
        assert set((-B.members) % N) == set(B.members.tolist())
        # brute membership
        for x in B.members[:50]:
            for r in B.R:
                d = (int(x) * int(r)) % N
                assert min(d, N - d) / N <= eps + 1e-12
        assert len(B) >= eps**B.k * N


def test_bohr_set_frequency_reduction():
    a = roth.bohr_set([1], 0.1, 100)
    b = roth.bohr_set([101, 1], 0.1, 100)
    assert np.array_equal(a.members, b.members)
    assert b.k == 1


def _bohr_by_definition(R, eps, N):
    """{x in Z_N : ||x r / N|| <= eps for all r in R}, in exact rationals."""
    e = Fraction(eps)
    return [x for x in range(N)
            if all(Fraction(min(x * r % N, N - x * r % N), N) <= e for r in R)]


@settings(max_examples=300, deadline=None)
@given(N=st.integers(1, 500),
       R=st.lists(st.integers(-1000, 1000), max_size=4),
       with_zero=st.booleans(), repeat=st.booleans(),
       eps=st.one_of(st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.7]),
                     st.floats(1e-6, 0.999)),
       j=st.one_of(st.none(), st.integers(1, 499)))
def test_bohr_set_matches_the_definition(N, R, with_zero, repeat, eps, j):
    # R with 0, duplicates, negatives and values >= N; composite N included.
    # eps = j / N as a float puts points at distance exactly j / N, on
    # whichever side of the boundary the float rounding of j / N falls
    R = R + [0] * with_zero + R[:1] * repeat
    if j is not None and N > 1:
        eps = (1 + j % (N - 1)) / N
    B = roth.bohr_set(R, eps, N)
    assert B.members.tolist() == _bohr_by_definition(R, eps, N)
    assert B.members.dtype == np.int64


def test_bohr_set_boundary_is_exact():
    # float 0.3 lies below 3/10, so ||3/10|| = 3/10 > eps: 3 is out, as is
    # its mirror 7; a slack toward inclusion would let both in
    assert Fraction(0.3) < Fraction(3, 10)
    assert roth.bohr_set([1], 0.3, 10).members.tolist() == [0, 1, 2, 8, 9]
    # past eps = 1/2 every x is in: ||x r / N|| <= 1/2 always
    assert roth.bohr_set([1], 0.7, 10).members.tolist() == list(range(10))


def test_bohr_set_validation():
    with pytest.raises(ParameterError):
        roth.bohr_set([1], 0.0, 100)
    with pytest.raises(ParameterError):
        roth.bohr_set([1], 1.0, 100)
    with pytest.raises(ParameterError):
        roth.bohr_set([1], 0.1, 0)


def test_bohr_beta_is_normalized():
    B = roth.bohr_set([3], 0.2, 60)
    beta = B.beta()
    assert beta.total == pytest.approx(1.0, abs=1e-15)
    assert np.count_nonzero(beta.weights) == len(B)
    assert beta.weights.max() == pytest.approx(1.0 / len(B))


# --- granularization ---------------------------------------------------------

def test_granularize_full_bohr_is_flat():
    rng = np.random.default_rng(31)
    a = Measure(64, np.abs(rng.standard_normal(64)), base=BASE_ZN)
    B = roth.bohr_set([], 0.5, 64)
    assert len(B) == 64
    a1 = roth.granularize(a, B)
    assert np.allclose(a1.weights, a.total / 64.0, atol=1e-12)


def test_granularize_point_bohr_is_identity():
    rng = np.random.default_rng(32)
    a = Measure(100, np.abs(rng.standard_normal(100)), base=BASE_ZN)
    B = roth.bohr_set([1], 0.004, 100)
    assert B.members.tolist() == [0]
    a1 = roth.granularize(a, B)
    assert np.allclose(a1.weights, a.weights, atol=1e-12)


def test_granularize_matches_direct_convolution():
    rng = np.random.default_rng(33)
    N = 101
    a = Measure(N, np.abs(rng.standard_normal(N)), base=BASE_ZN)
    B = roth.bohr_set([1, 7], 0.25, N)
    a1 = roth.granularize(a, B)
    size = len(B)
    expect = np.zeros(N)
    for u in B.members:
        for v in B.members:
            expect += np.roll(a.weights, int(u) + int(v)) / size**2
    assert np.allclose(a1.weights, expect, atol=1e-10)
    assert fsum_real(a1.weights) == pytest.approx(a.total, abs=1e-9)
    assert a1.weights.max() <= a.weights.max() * (1 + 1e-12)
    assert a1.weights.min() >= 0.0


def test_granularize_needs_common_N():
    a = _uniform(10)
    B = roth.bohr_set([1], 0.2, 12)
    with pytest.raises(ParameterError):
        roth.granularize(a, B)


# --- set-likeness chain ------------------------------------------------------

def test_mu_sup_offzero_uniform_and_point():
    sup, _, ref = roth.mu_sup_offzero(_uniform(40), W=4)
    assert sup == pytest.approx(0.0, abs=1e-14)
    assert ref == roth.w_reference(4)
    w = np.zeros(40)
    w[3] = 1.0
    sup, argmax, ref = roth.mu_sup_offzero(
        Measure(40, w, base=BASE_ZN), W=100
    )
    assert sup == pytest.approx(1.0)
    assert 1 <= argmax < 40
    assert ref == pytest.approx(2.0 * math.log(math.log(100)) / 100)


def test_setlike_uniform_is_tight():
    N = 128
    u = _uniform(N)
    B = roth.bohr_set([1], 0.1, N)
    rep = roth.setlike_check(u, u, B, W=4)
    assert rep.sup_a1 == pytest.approx(1.0 / N)
    assert rep.chain_spectral == pytest.approx(1.0 / N)
    assert rep.chain_sup == pytest.approx(1.0 / N)
    assert rep.chain_reference == pytest.approx(1.0 / N + (2.0 / 4) / len(B))
    assert u.total == pytest.approx(1.0)
    assert roth.mu_sup_offzero(u, W=4)[0] == pytest.approx(0.0, abs=1e-12)
    holds = _holds(rep.checks)
    assert holds["setlike"] and holds["step1_ok"] and holds["step2_ok"]
    # W=4 < 16 clamps loglog to 1: gate is eps^k >= 2/W = 0.5
    assert holds["gate_ok"] is (0.1 >= 0.5)


def test_setlike_chain_holds_on_random_instances():
    rng = np.random.default_rng(34)
    for _ in range(25):
        N = int(rng.integers(60, 500))
        mu_w = np.abs(rng.standard_normal(N)) / N
        mask = rng.random(N) < 0.5
        a_w = np.where(mask, mu_w, 0.0)
        mu = Measure(N, mu_w, base=BASE_ZN)
        a = Measure(N, a_w, base=BASE_ZN)
        k = int(rng.integers(1, 3))
        B = roth.bohr_set(rng.integers(1, N, size=k), 0.2, N)
        rep = roth.setlike_check(a, mu, B, W=4)
        holds = _holds(rep.checks)
        assert holds["step1_ok"]
        assert holds["step2_ok"]
        # chain_sup = |mu~(0)| / N + sup_{r != 0} |mu~(r)| / |B|
        assert rep.chain_sup == pytest.approx(
            mu.total / N + roth.mu_sup_offzero(mu, W=4)[0] / len(B), rel=1e-12)
        # W=4 clamps loglog to 1: the reference is 2/W = 0.5
        assert rep.chain_reference == pytest.approx(1.0 / N + 0.5 / len(B))
        assert holds["gate_ok"] is (0.2**B.k >= 0.5)


def test_setlike_rejects_undominated():
    N = 50
    mu = _uniform(N)
    w = np.full(N, 1.0 / N)
    w[7] = 2.0 / N
    a = Measure(N, w, base=BASE_ZN)
    B = roth.bohr_set([1], 0.2, N)
    with pytest.raises(PreconditionError):
        roth.setlike_check(a, mu, B, W=4)


# --- the check ledger --------------------------------------------------------

def test_check_exact_sides_allow_no_slack():
    # ties hold for the non-strict relations and fail "<"; a miss by one
    # ulp fails, however small the sides
    assert roth.check("t", "s", 2003, ">=", 2003.0, False).holds
    assert roth.check("t", "s", 1.0, ">=", 1.0, False).holds
    assert roth.check("t", "s", 0, "==", 0, False).holds
    assert not roth.check("t", "s", 1.0, "<", 1.0, False).holds
    tiny = 2.0 / 1_000_003
    assert not roth.check("t", "s", math.nextafter(tiny, 1.0), "<=", tiny, False).holds
    entry = roth.check("t", "s", math.nextafter(1.0, 0.0), ">=", 1.0, False)
    assert (entry.slack, entry.holds) == (0.0, False)


@pytest.mark.parametrize("lhs, relation, rhs, margin", [
    (1.0, "<=", 100.0, 2.0),
    (100.0, "<=", 1.0, -2.0),
    (1000.0, ">=", 1.0, 3.0),
    (1.0, ">=", 1000.0, -3.0),
    (1000.0, "<", 1.0, -3.0),
    (10.0, "==", 1000.0, -2.0),
    (1000.0, "==", 10.0, -2.0),
    (2003, ">=", 2003.0, 0.0),
    (1.0, "<=", 1.0, 0.0),
    (3, "==", 3, 0.0),
])
def test_check_margin_is_positive_with_room(lhs, relation, rhs, margin):
    # log10 of the ratio of the sides, by how many orders of magnitude the
    # relation holds (positive) or misses (negative); a tie reads +0.0
    got = roth.check("t", "s", lhs, relation, rhs, False).margin
    assert got == pytest.approx(margin, abs=1e-15)
    assert math.copysign(1.0, got) == math.copysign(1.0, margin)


@pytest.mark.parametrize("lhs, rhs", [(0, 5), (5, 0), (0.0, 0.0), (-1.0, 2.0)])
def test_check_margin_needs_two_positive_sides(lhs, rhs):
    assert roth.check("t", "s", lhs, "<=", rhs, True).margin is None


def test_check_slack_is_relative_to_the_larger_side():
    # a transformed side may miss by CHECK_RTOL of the larger side, at
    # any scale; an absolute slack would wave through any miss once the
    # sides are small
    for scale in (1e-12, 1.0, 1e12):
        entry = roth.check("t", "s", scale * (1 + 5e-10), "<=", scale, True)
        assert entry.slack == roth.CHECK_RTOL * entry.lhs
        assert entry.holds
        assert not roth.check("t", "s", scale * (1 + 2e-9), "<=", scale, True).holds
        assert roth.check("t", "s", scale, ">=", scale * (1 + 5e-10), True).holds
        assert not roth.check("t", "s", scale, ">=", scale * (1 + 2e-9), True).holds


@pytest.mark.parametrize("excess, holds", [(0.0, True), (1e-12, True), (1e-6, False)])
def test_setlike_slack_is_relative(excess, holds, monkeypatch):
    # a planted sup a1 of (2/N)(1 + excess) at N = 10^6: a miss by 10^-6
    # of the bound fails, which an absolute slack of 1e-9, 5 10^-4 of the
    # bound 2/N, would have let hold
    N = 10**6
    u = _uniform(N)
    sup = 2.0 / N * (1 + excess)
    w = np.full(N, 1.0 / N)
    w[7] = sup
    monkeypatch.setattr(roth, "granularize", lambda a, bohr: Measure(
        N, w, signed=False, base=BASE_ZN))
    rep = roth.setlike_check(u, u, roth.bohr_set([], 0.5, N), W=4)
    (entry,) = [c for c in rep.checks if c.name == "setlike"]
    assert (entry.lhs, entry.rhs) == (sup, 2.0 / N)
    assert entry.holds is holds


# --- 3AP counting ------------------------------------------------------------

def _brute_wrapped(S, M):
    total = 0
    for x in range(M):
        for d in range(M):
            if x in S and (x + d) % M in S and (x + 2 * d) % M in S:
                total += 1
    return total


def _brute_line_nontrivial(S):
    total = 0
    for x in S:
        for y in S:
            d = y - x
            if d != 0 and y + d in S:
                total += 1
    return total


def _brute_line_unordered(S):
    """The 3-element subsets {x < y < z} of S with x + z = 2y."""
    return sum(1 for x in S for y in S if x < y and 2 * y - x in S)


# N <= 300, and sets of sizes 0 to N
@given(data=st.data(), N=st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_line_count_halves_to_the_unordered_count(data, N):
    # density_experiment reports A_3aps_unordered as the line's
    # nontrivial // 2: on the line no progression is its own reversal
    S = data.draw(st.sets(st.integers(0, N - 1)))
    _, line = paper.count_set_3aps(sorted(S), N=N)
    assert line.nontrivial % 2 == 0
    assert line.nontrivial // 2 == _brute_line_unordered(S)


def test_count_3aps_worked_example():
    c, line = paper.count_set_3aps({0, 1, 2}, N=7)
    assert (c.total, c.nontrivial) == (5, 2)
    # one unordered progression, read off the line count
    assert (line.nontrivial, line.nontrivial // 2) == (2, 1)


def test_count_3aps_wrapped_matches_brute():
    rng = np.random.default_rng(35)
    for N in (7, 17, 101):
        for _ in range(8):
            S = set(int(v) for v in rng.choice(N, size=N // 3, replace=False))
            c, _ = paper.count_set_3aps(sorted(S), N=N)
            assert c.total == _brute_wrapped(S, N)
            assert c.nontrivial == c.total - len(S)


def test_count_3aps_line_matches_brute():
    rng = np.random.default_rng(36)
    for N in (9, 25, 101):
        for _ in range(8):
            S = set(int(v) for v in rng.choice(N, size=max(3, N // 3),
                                               replace=False))
            _, c = paper.count_set_3aps(sorted(S), N=N)
            assert c.nontrivial == _brute_line_nontrivial(S)
            assert c.total == c.nontrivial + len(S)


# 97 is prime; 2N-1 = 65, 129 and 1025 sit just above a power of two
@pytest.mark.parametrize("N", [97, 33, 65, 513])
def test_count_3aps_padded_route_matches_brute(N):
    rng = np.random.default_rng(N)
    S = set(int(v) for v in rng.choice(N, size=N // 3, replace=False))
    own_wrapped, own = paper.count_set_3aps(sorted(S), N=N)
    if N <= 100:
        assert own_wrapped.total == _brute_wrapped(S, N)
    assert own.nontrivial == _brute_line_nontrivial(S)
    assert own.nontrivial % 2 == 0
    assert own.nontrivial // 2 == _brute_line_unordered(S)



@pytest.mark.parametrize("N", [8, 31, 64])
def test_count_set_3aps_matches_brute_at_even_and_odd_N(N):
    rng = np.random.default_rng(N + 1)
    S = sorted(set(int(v) for v in rng.choice(N, size=N // 3, replace=False)))
    wrapped, line = paper.count_set_3aps(S, N=N)
    assert wrapped.total == _brute_wrapped(set(S), N)
    assert line.nontrivial == _brute_line_nontrivial(set(S))


def _parity_sets():
    """Sets of every parity shape: with 0, with 2, all odd, all even, mixed."""
    rng = np.random.default_rng(41)
    sets = [[], [0], [2], [1], [0, 2], [2, 3, 5, 7], [0, 1, 2], [1, 3, 5]]
    for _ in range(6):
        pool = rng.choice(200, size=int(rng.integers(1, 60)), replace=False)
        sets += [sorted({0, *pool.tolist()}), sorted({2, *pool.tolist()}),
                 sorted({2 * v + 1 for v in pool.tolist()}),
                 sorted({2 * v for v in pool.tolist()}), sorted(pool.tolist())]
    return sets


def test_line_3aps_matches_brute_on_each_parity_shape():
    for S in _parity_sets():
        c = roth.line_3aps(S)
        assert c.nontrivial == _brute_line_nontrivial(set(S))
        assert c.total == c.nontrivial + len(S)
        if S:
            _, line = paper.count_set_3aps(S, N=max(S) + 1)
            assert c == line


def test_line_3aps_takes_one_convolution_per_parity_class(monkeypatch):
    # each class is halved, (s - c) / 2, and sized by its own maximum
    calls = []
    original = roth.set_convolution

    def counted(S):
        calls.append(int(S.max()) + 1)
        return original(S)

    monkeypatch.setattr(roth, "set_convolution", counted)
    roth.line_3aps([3, 5, 7, 11, 13])
    assert calls == [7]  # odd only: max (13 - 1) / 2 = 6
    calls.clear()
    roth.line_3aps([2, 3, 5, 8])
    assert calls == [5, 3]  # evens {1, 4}, odds {1, 2}
    calls.clear()
    roth.line_3aps([])
    assert calls == []
    with pytest.raises(ParameterError):
        roth.line_3aps([-1, 3])


_ODD_PRIMES = [p for p in range(3, 501)
               if all(p % q for q in range(2, math.isqrt(p) + 1))]


# odd primes N <= 500, and sets inside [1, N/2] of sizes 0 to N // 2
@given(data=st.data(), N=st.sampled_from(_ODD_PRIMES))
@settings(max_examples=60, deadline=None)
def test_zn_count_is_the_line_count_inside_half_of_n(data, N):
    # x + z and 2y lie in [2, N - 1], where congruence mod N is equality,
    # so the counts stage reads A's Z_N count off line_3aps
    A = sorted(data.draw(st.sets(st.integers(1, N // 2))))
    wrapped, line = paper.count_set_3aps(A, N=N)
    assert wrapped == line == roth.line_3aps(A)


def test_zn_count_exceeds_the_line_count_past_half_of_n():
    # 5 > 7/2: 1, 5, 9 = 2 (mod 7) is a 3AP of Z_7 and not of the line
    wrapped, line = paper.count_set_3aps([1, 2, 5], N=7)
    assert line == roth.line_3aps([1, 2, 5])
    assert line.nontrivial == 0 < wrapped.nontrivial


@pytest.mark.filterwarnings("ignore::primeaps.errors.DeskScaleWarning")
@pytest.mark.parametrize("source", roth.SOURCES)
def test_pipeline_zn_count_is_the_line_count(source, small_table):
    # the W-trick puts A inside [1, N/2] with N an odd prime, where the
    # oracle's Z_N and line counts agree with the one count reported
    for W in (1, 2, 3, 5):
        stash = {}
        rep = roth.density_experiment(source, 2000, small_table,
                                      keep=stash.__setitem__, **_FLAGS | {"W": W})
        N, A = rep["w_trick"]["N"], stash["A"]
        assert N % 2 == 1 and 1 <= A.min() and A.max() <= N // 2
        wrapped, line = paper.count_set_3aps(A, N=N)
        counts = rep["counts"]
        assert wrapped.nontrivial == line.nontrivial == \
            counts["A_3aps_wrapped_nontrivial"] == \
            counts["A_3aps_line_nontrivial"], (source, W)


def test_count_3aps_even_modulus_self_paired():
    c, _ = paper.count_set_3aps({0, 2}, N=4)
    assert (c.total, c.nontrivial) == (4, 2)


def test_count_3aps_measure_route():
    rng = np.random.default_rng(38)
    N = 53
    w = np.abs(rng.standard_normal(N))
    mu = Measure(N, w, base=BASE_ZN)
    c = roth.count_3aps(mu)
    brute = 0.0
    for x in range(N):
        for d in range(N):
            brute += w[x] * w[(x + d) % N] * w[(x + 2 * d) % N]
    assert c.total == pytest.approx(brute, rel=1e-9)
    assert c.nontrivial == pytest.approx(brute - float(np.sum(w**3)), rel=1e-9)
    # a count is its total and nontrivial part, nothing more
    assert [f.name for f in dataclasses.fields(c)] == ["total", "nontrivial"]


def test_count_3aps_validation():
    with pytest.raises(ParameterError):
        paper.count_set_3aps({0, 9}, N=9)


def test_has_3ap_line():
    assert paper.has_3ap_line({1, 2, 3})
    assert paper.has_3ap_line({3, 7, 11})
    assert not paper.has_3ap_line({1, 2, 4, 5})
    assert not paper.has_3ap_line({4})
    assert not paper.has_3ap_line(set())


def test_diagonal_cube_sum(small_table):
    assert roth.diagonal_cube_sum(_uniform(20)) == pytest.approx(1.0 / 400)
    mp = measures.MeasureParams(b=1, m=1, N=10_000)
    lam = measures.lambda_measure(mp, small_table)
    diag = roth.diagonal_cube_sum(lam)
    expect = fsum_real(lam.weights**3)
    assert diag == pytest.approx(expect, rel=1e-15)
    assert diag < math.log(10_000) ** 3 / 10_000**2


# --- closing bounds ----------------------------------------------------------

def test_varnavides_frozen_example():
    vb = roth.varnavides_bound(0.9, 211, C1=0.1)
    assert vb.M == 2
    assert vb.z_lower == pytest.approx(1252.153125, rel=1e-12)
    assert vb.bound == pytest.approx(1.2146e-5, rel=1e-3)
    assert vb.C2_effective == pytest.approx(6.9725, rel=1e-3)
    holds = _holds(vb.checks)
    assert holds["varnavides_clamped"] and not holds["varnavides_vacuous"]


def test_varnavides_alpha_one():
    vb = roth.varnavides_bound(1.0, 64, C1=1.0)
    assert _holds(vb.checks)["varnavides_clamped"]
    assert vb.M == 2
    assert vb.z_lower == pytest.approx(64**2 / 32.0)
    # the full interval certainly meets the 3AP lower bound
    _, c = paper.count_set_3aps(list(range(64)), N=64)
    assert c.nontrivial >= vb.z_lower


def test_varnavides_overflow_and_vacuous():
    vb = roth.varnavides_bound(0.05, 1000, C1=1.0)
    assert math.isinf(vb.M)
    assert vb.z_lower == 0.0 and vb.bound == 0.0
    assert _holds(vb.checks)["varnavides_vacuous"] and vb.C2_effective is None
    vb = roth.varnavides_bound(0.3, 100, C1=1.0)
    assert math.isfinite(vb.M) and _holds(vb.checks)["varnavides_vacuous"]


def test_varnavides_huge_M_stays_finite():
    # M^2 exceeds float range here; the log route must not raise
    vb = roth.varnavides_bound(1.0 / 12.0, 10**6, C1=1.0)
    assert not math.isinf(vb.M)
    assert vb.M > 1e150
    assert 0.0 <= vb.z_lower < 1e-250
    assert vb.bound >= 0.0
    assert _holds(vb.checks)["varnavides_vacuous"]


def test_varnavides_validation():
    with pytest.raises(ParameterError):
        roth.varnavides_bound(0.0, 100, C1=1.0)
    with pytest.raises(ParameterError):
        roth.varnavides_bound(1.2, 100, C1=1.0)
    with pytest.raises(ParameterError):
        roth.varnavides_bound(0.5, 2, C1=1.0)


def test_final_inequality_formula():
    fi = roth.final_inequality(0.5, 0.04, 0.01, 10_000, constants=None,
                               bohr=roth.bohr_set([], 0.01, 10_000))
    e = math.exp
    # C' N^(-1/2) + 2^12 eps^2 delta^(-5/2) + C delta^(1/2), C = C' = 1
    count_error = 10_000**-0.5
    spectral = 4096 * 0.01**2 * 0.04**-2.5
    tail = math.sqrt(0.04)
    assert fi.lhs == pytest.approx(count_error + spectral + tail)
    assert fi.rhs == pytest.approx(e(-(0.5**-2) * math.log(2.0)))
    holds = _holds(fi.checks)
    assert holds["contradiction"] is (fi.lhs < fi.rhs)
    assert fi.bohr_defect_linear == 0.0 and holds["bohr_linear_ok"]


@pytest.mark.parametrize("R, eps, W", [([1, 2], 0.01, 10), ([1], 0.5, 4)])
def test_bohr_dimension_gate(R, eps, W):
    # the gate eps^k >= w_reference(W) belongs to the set-like step; W < 16
    # clamps loglog to 1, so it reads eps^k >= 2/W
    u = _uniform(200)
    B = roth.bohr_set(R, eps, 200)
    rep = roth.setlike_check(u, u, B, W=W)
    assert _holds(rep.checks)["gate_ok"] is (eps ** len(R) >= 2.0 / W)


def test_final_inequality_contradiction_flag():
    kw = dict(alpha=1.0, delta=0.01, eps=1e-6, N=10**6,
              bohr=roth.bohr_set([], 1e-6, 10**6))
    lo = roth.final_inequality(constants={"C2": 0.001}, **kw)
    assert _holds(lo.checks)["contradiction"]
    hi = roth.final_inequality(constants={"C2": 100.0}, **kw)
    assert not _holds(hi.checks)["contradiction"]


def test_final_inequality_bohr_defects():
    N = 1000
    eps = 0.15
    B = roth.bohr_set([1, 13], eps, N)
    fi = roth.final_inequality(0.5, 0.1, eps, N, constants=None, bohr=B)
    bt = np.fft.fft(B.beta().weights)
    lin = max(abs(1.0 - bt[r % N]) for r in B.R)
    assert fi.bohr_defect_linear == pytest.approx(lin, rel=1e-12)
    holds = _holds(fi.checks)
    assert holds["bohr_linear_ok"] and holds["bohr_cubic_ok"]
    assert fi.bohr_defect_linear <= 16 * eps**2 + 1e-9
    assert fi.bohr_defect_cubic <= 2**12 * eps**2 + 1e-9
    empty = roth.bohr_set([], 0.5, 100)
    fi = roth.final_inequality(0.5, 0.1, 0.2, 100, constants=None, bohr=empty)
    assert fi.bohr_defect_linear == 0.0 and _holds(fi.checks)["bohr_cubic_ok"]


def test_final_inequality_validation():
    kw = dict(constants=None, bohr=roth.bohr_set([], 0.5, 100))
    with pytest.raises(ParameterError):
        roth.final_inequality(0.0, 0.1, 0.1, 100, **kw)
    with pytest.raises(ParameterError):
        roth.final_inequality(0.5, 0.0, 0.1, 100, **kw)
    with pytest.raises(ParameterError):
        roth.final_inequality(0.5, 0.1, 1.0, 100, **kw)


# --- progression-free construction ------------------------------------------

def test_behrend_smallest_case():
    assert roth.behrend_set(8).tolist() == [1, 2, 4, 5]
    with pytest.raises(ParameterError):
        roth.behrend_set(7)


def test_behrend_set_is_every_prefix_of_the_greedy_pass():
    # one greedy pass over 1..3*10^4; the closed form at each N is its
    # values <= N, across the digit counts 3^2..3^9
    greedy = np.asarray(paper.greedy_free(range(1, 30_001)), dtype=np.int64)
    wrong = [N for N in range(roth.BEHREND_MIN_N, 30_001) if not np.array_equal(
        roth.behrend_set(N), greedy[:np.searchsorted(greedy, N, side="right")])]
    assert wrong == []


def test_behrend_set_is_the_search_result_and_progression_free():
    # the search the closed form replaced (the greedy pass and every digit
    # sphere with d^dim <= N) gives the same set; the set lies in 1..N,
    # holds no value twice and no 3AP, and grows with N
    prev = 0
    for N in (8, 100, 1000, 2_999, 3_000, 10_000, 78_498):
        S = roth.behrend_set(N)
        assert np.array_equal(S, paper.behrend_search(N)), N
        assert S.min() >= 1 and S.max() <= N
        assert np.unique(S).size == S.size
        if N <= 10_000:
            assert not paper.has_3ap_line(S.tolist())
        assert S.size >= prev
        prev = S.size
    assert roth.behrend_set(100).size == 24
    assert roth.behrend_set(roth.BEHREND_MAX_N).size == 2**17
    with pytest.raises(ParameterError):
        roth.behrend_set(roth.BEHREND_MAX_N + 1)


def _largest_sphere(d, dim):
    """The size of the largest digit sphere {x_i <= h, sum x_i^2 = rho} in
    base d with dim digits, h = (d-1)//2: the largest coefficient of
    (sum_{x <= h} z^(x^2))^dim, read off the (h+1)^dim digit vectors, with
    no array of d^dim integers."""
    squares = np.arange((d - 1) // 2 + 1) ** 2
    sums = functools.reduce(np.add.outer, [squares] * dim)
    return int(np.bincount(sums.ravel()).max())


def test_no_digit_sphere_beats_the_base_3_set_up_to_the_cap():
    # the closed form stands for the search up to BEHREND_MAX_N: at every
    # (d, dim) with d^dim <= the cap the sphere has at most as many points
    # as the base-3 set at N = d^dim, a count that grows with N, and the
    # search took a sphere only when it was strictly larger. For a fixed
    # rho the first dim - 1 digits fix the last, so (h+1)^(dim-1) bounds
    # the sphere; where that bound is not below the count, take the count
    # of the largest sphere exactly
    base3 = roth.behrend_set(roth.BEHREND_MAX_N)
    exact = []
    d = 3
    while d * d <= roth.BEHREND_MAX_N:
        dim = 2
        while d**dim <= roth.BEHREND_MAX_N:
            have = int(np.searchsorted(base3, d**dim, side="right"))
            if ((d - 1) // 2 + 1) ** (dim - 1) >= have:
                exact.append((d, dim))
                assert _largest_sphere(d, dim) <= have, (d, dim)
            dim += 1
        d += 1
    assert 0 < len(exact) < 20
    # the count is the oracle's sphere size wherever it can be built
    for d in range(3, 317):
        for dim in range(2, 11):
            if d**dim <= 10**5:
                assert _largest_sphere(d, dim) == paper.best_sphere(d, dim).size


# --- full pipeline -----------------------------------------------------------

def _keys(report):
    return set(report.keys())


# the roth-pipeline flag defaults
_FLAGS = {"seed": 0, "delta": 0.1, "eps": 0.1, "W": 2, "constants": None}


def _ignore(name, value):
    """A keep callback of density_experiment that keeps nothing."""


def test_density_experiment_primes(small_table):
    rep = roth.density_experiment("primes", 500, small_table, keep=_ignore,
                                  **_FLAGS)
    # every block is computed; none is a cited formula
    assert _keys(rep) == {
        "params", "source", "w_trick", "measure", "spectrum", "bohr",
        "setlike", "counts", "bounds", "checks",
    }
    assert _holds(rep["checks"])["three_ap_free"] is False
    assert rep["source"]["alpha0"] == pytest.approx(1.0)
    assert rep["w_trick"]["b"] == 1 and rep["w_trick"]["m"] == 2
    assert 0.9 < rep["measure"]["mass_mu"] < 1.1
    assert rep["counts"]["difference_residual"] <= 1e-8
    assert rep["counts"]["A_3aps_line_nontrivial"] > 0
    assert _holds(rep["checks"])["contradiction"] is False


@pytest.mark.filterwarnings("ignore::primeaps.errors.DeskScaleWarning")
@pytest.mark.parametrize("source", roth.SOURCES)
def test_w_trick_alpha_is_the_mass_of_a(source, small_table):
    # alpha has one home, the measure: the W-trick's alpha is the measure
    # stage's mass of a, the direct sum of the weight
    # phi(m) log(m a + b) / (m N) over A, and no other block repeats it
    for W in (1, 2, 3, 5):
        stash = {}
        rep = roth.density_experiment(source, 2000, small_table,
                                      keep=stash.__setitem__, **_FLAGS | {"W": W})
        wt = rep["w_trick"]
        assert "alpha" not in wt, (source, W)
        phi_m = sieve.euler_phi(wt["m"])
        expect = math.fsum(phi_m * math.log(wt["m"] * int(x) + wt["b"])
                           / (wt["m"] * wt["N"]) for x in stash["A"])
        assert rep["measure"]["mass_a"] == pytest.approx(expect, rel=1e-12), (source, W)


def test_density_experiment_behrend_source_is_free(small_table):
    rep = roth.density_experiment("behrend-in-primes", 400, small_table,
                                  keep=_ignore, **_FLAGS)
    assert _holds(rep["checks"])["three_ap_free"] is True
    assert rep["source"]["line_3aps_nontrivial"] == 0
    assert 0 < rep["source"]["alpha0"] < 1


def test_density_experiment_deterministic(small_table):
    a = roth.density_experiment("random-subset-of-primes", 400, small_table,
                                keep=_ignore, **_FLAGS | {"seed": 5})
    b = roth.density_experiment("random-subset-of-primes", 400, small_table,
                                keep=_ignore, **_FLAGS | {"seed": 5})
    c = roth.density_experiment("random-subset-of-primes", 400, small_table,
                                keep=_ignore, **_FLAGS | {"seed": 6})
    assert a == b
    assert a["source"]["size"] != c["source"]["size"] or a != c


def test_density_experiment_artifacts(small_table):
    # each intermediate is kept once, as soon as its stage has made it
    kept = []
    rep = roth.density_experiment("primes", 300, small_table,
                                  keep=lambda name, value: kept.append((name, value)),
                                  **_FLAGS)
    assert [name for name, _ in kept] == ["A0", "A", "mu", "a", "spectrum",
                                          "bohr", "a1"]
    stash = dict(kept)
    assert isinstance(stash["mu"], Measure)
    assert stash["a1"].N == rep["w_trick"]["N"]


def test_delta_margin_is_zero_at_a_planted_threshold(small_table):
    # min over r of | |a~(r)| - delta |: how far the set R is from moving
    stash = {}
    rep = roth.density_experiment("primes", 500, small_table,
                                  keep=stash.__setitem__, **_FLAGS)
    mags = np.abs(stash["spectrum"])
    margin = rep["spectrum"]["delta_margin"]
    assert margin == float(np.min(np.abs(mags - _FLAGS["delta"]))) > 0.0
    r = int(np.argsort(mags)[-4])  # a frequency off zero, met by planting
    assert r != 0
    rep = roth.density_experiment("primes", 500, small_table, keep=_ignore,
                                  **_FLAGS | {"delta": float(mags[r])})
    assert rep["spectrum"]["delta_margin"] == 0.0
    # R = {|a~| >= delta} takes r, and its mirror N - r, at delta = |a~(r)|
    assert rep["spectrum"]["k"] == int(np.count_nonzero(mags >= mags[r]))


def test_density_experiment_bad_inputs_by_stage(small_table):
    with pytest.raises(StageError) as err:
        roth.density_experiment("primes", 1, small_table, keep=_ignore, **_FLAGS)
    assert err.value.stage == "source"
    with pytest.raises(StageError) as err:
        roth.density_experiment("primes", 300, small_table, keep=_ignore,
                                **_FLAGS | {"delta": 0.0})
    assert err.value.stage == "transform"
    with pytest.raises(StageError) as err:
        roth.density_experiment("primes", 300, small_table, keep=_ignore,
                                **_FLAGS | {"eps": 0.0})
    assert err.value.stage == "bohr"
    with pytest.raises(StageError) as err:
        roth.density_experiment("unknown-source", 300, small_table,
                                keep=_ignore, **_FLAGS)
    assert err.value.stage == "source"


# stage tag, a callee only that stage calls, the values the stage keeps
_STAGES = [
    ("source", roth, "_build_source", {"A0"}),
    ("w-trick", roth, "w_trick", {"A"}),
    ("measure", measures, "lambda_measure", {"mu", "a"}),
    ("transform", roth, "spectrum_threshold", {"spectrum"}),
    ("bohr", roth, "bohr_set", {"bohr"}),
    ("granularize", roth, "setlike_check", {"a1"}),
    ("counts", roth, "diagonal_cube_sum", set()),
    ("bounds", roth, "final_inequality", set()),
]


@pytest.mark.parametrize("i", range(len(_STAGES)), ids=[s[0] for s in _STAGES])
def test_density_experiment_stage_errors(i, small_table, monkeypatch):
    stage, owner, callee, _ = _STAGES[i]
    boom = RuntimeError(f"{callee} failed")

    def fail(*args, **kwargs):
        raise boom

    monkeypatch.setattr(owner, callee, fail)
    stash = {}
    with pytest.raises(StageError) as err:
        roth.density_experiment("primes", 300, small_table,
                                keep=stash.__setitem__, **_FLAGS)
    assert err.value.stage == stage
    assert str(err.value) == f"[{stage}] {callee} failed"
    assert err.value.__cause__ is boom
    assert set(stash) == set().union(*(s[3] for s in _STAGES[:i]))


def _class_lengths(S) -> list[int]:
    """The 5-smooth length each nonempty parity class of S is counted at:
    halved, (s - c) // 2 = s // 2, then >= 2 max + 1."""
    return [fourier._smooth_length(2 * int(h.max()) + 1)
            for h in (S[S % 2 == c] // 2 for c in (0, 1)) if h.size]


def _real_pass_pair(L: int) -> list[tuple[str, int, int]]:
    """The calls of one self-convolution at L = L1 L2, L1 = `_split(L)`:
    an rfft of length L1 down axis 0 and an fft of length L2 over the rows
    k1 <= L1/2, then an ifft over those rows and an irfft back down axis 0."""
    L1 = fourier._split(L)
    L2, rows = L // L1, L1 // 2 + 1
    return [("rfft", L1, L2), ("fft", L2, rows), ("ifft", L2, rows),
            ("irfft", L1, L2)]


def test_density_experiment_transforms(small_table, monkeypatch, transforms):
    # one granularization; no transform at the prime N: one chirp plan,
    # then one convolution at its 5-smooth length L = L1 L2 for each of
    # a~, mu~, beta~ and the inverse of a~ beta~^2, each transform of
    # them two batched passes (L2 ffts of length L1, L1 of length L2);
    # every count is a real four-step pass pair at a 5-smooth length, the
    # source's and A's one parity class at a time
    grans = []
    original = roth.granularize

    def counted(a, bohr):
        grans.append(a.N)
        return original(a, bohr)

    monkeypatch.setattr(roth, "granularize", counted)
    stash = {}
    fourier._chirp_plan.cache_clear()
    rep = roth.density_experiment("random-subset-of-primes", 2000,
                                  small_table, keep=stash.__setitem__,
                                  **_FLAGS | {"seed": 1})
    N = rep["w_trick"]["N"]
    assert len(grans) == 1
    A0 = stash["A0"]
    source, counts_A = _class_lengths(A0), _class_lengths(stash["A"])
    count_a1 = fourier._smooth_length(2 * N - 1)
    L = fourier._smooth_length(N + N // 2)
    L1 = fourier._split(L)
    L2 = L // L1
    forward = [("fft", L1, L2), ("fft", L2, L1)]
    convolution = forward + [("ifft", L2, L1), ("ifft", L1, L2)]
    assert transforms == [
        # the source's line count, one parity class at a time
        *(call for P in source for call in _real_pass_pair(P)),
        *forward,                                   # the chirp plan at N
        *convolution,                               # a~
        *convolution,                               # mu~
        *convolution,                               # beta~
        *convolution,                               # a1 = a * beta * beta
        *_real_pass_pair(count_a1),                 # a1's 3AP count
        # A's line count, which is its Z_N count, one parity class at a time
        *(call for P in counts_A for call in _real_pass_pair(P)),
    ]
    # 2 is in this source, so the even class is {1}, at L = 3; the odd
    # class, halved, runs at the 5-smooth length >= 2 (top // 2) + 1 = top,
    # about half the line's 2 top + 1
    top = int(A0.max())
    assert source == [3, fourier._smooth_length(top)]
    # past the class {1}, no count takes a call at its full length
    for P in source[1:] + counts_A + [count_a1]:
        d = fourier._split(P)
        assert max(d, P // d) < P
    # A sits inside [1, N/2], so both its classes run below a1's count
    assert len(counts_A) == 2 and max(counts_A) < count_a1
    assert stash["bohr"].beta() is stash["bohr"].beta()
