import math

import numpy as np
import pytest

from primeaps import measures, roth, sieve
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


def _uniform(N):
    return Measure(N, np.full(N, 1.0 / N), signed=False, base=BASE_ZN)


# --- W-trick -----------------------------------------------------------------

def test_default_w_values():
    assert roth.default_w(3) == 1
    assert roth.default_w(10**6) == 1
    assert roth.default_w(10**1300) == 2
    with pytest.raises(ParameterError):
        roth.default_w(2)


def test_w_trick_three_primes(small_table):
    res = roth.w_trick([3, 5, 7], small_table)
    assert (res.b, res.m, res.N, res.W) == (1, 2, 11, 1)
    assert res.A.tolist() == [1, 2, 3]
    expect = math.fsum(math.log(v) / 22.0 for v in (3, 5, 7))
    assert res.alpha == pytest.approx(expect, rel=1e-15)
    assert res.n_source == 7
    assert res.m_le_logN


def test_w_trick_primes_to_2000(small_table):
    ps = small_table.primes_up_to(2000)
    res = roth.w_trick(ps, small_table)
    assert (res.b, res.m, res.N, res.W) == (1, 2, 2003, 1)
    assert res.A.size == 302
    assert res.alpha == pytest.approx(0.4841, abs=5e-4)


def test_w_trick_set_invariants(small_table):
    ps = small_table.primes_up_to(1000)
    for W in (1, 3):
        res = roth.w_trick(ps, small_table, W=W)
        assert small_table.is_prime(res.N)
        n = res.n_source
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
        assert res.alpha == pytest.approx(expect, rel=1e-12)


def test_w_trick_rejections(small_table):
    with pytest.raises(DegenerateInputError):
        roth.w_trick([], small_table)
    with pytest.raises(PreconditionError):
        roth.w_trick([3, 4, 5], small_table)
    with pytest.raises(DegenerateInputError):
        roth.w_trick([101], small_table, n=50)
    with pytest.raises(DegenerateInputError):
        roth.w_trick([2], small_table, W=1)  # 2 is not coprime to m=2
    with pytest.raises(ParameterError):
        roth.w_trick([3, 5], small_table, W=0)


def test_w_modulus_is_the_primorial(small_table):
    for W in range(-2, 40):
        want = 1
        for p in small_table.primes_up_to(max(W, 2)).tolist():
            want *= p
        if want > sieve.MAX_TABLE_LIMIT:
            # from W = 23 on the primorial exceeds the factor table
            with pytest.raises(TableRangeError):
                roth.w_modulus(W)
        else:
            assert roth.w_modulus(W) == want
    assert roth.w_modulus(1) == roth.w_modulus(2) == 2
    assert roth.w_modulus(7) == 210


def test_w_modulus_stops_past_the_table_limit():
    # 2 * 3 * ... * 19 = 9699690 fits the factor table, * 23 does not; a
    # huge W is refused after the primes up to 23, naming W
    assert roth.w_modulus(22) == 9699690
    for W in (23, 2000, 10**12):
        with pytest.raises(TableRangeError, match=f"^W = {W}: "):
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
    sup, _, ref = roth.mu_sup_offzero(_uniform(40))
    assert sup == pytest.approx(0.0, abs=1e-14)
    assert ref is None
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
    assert rep.mass_mu == pytest.approx(1.0)
    assert rep.mu_sup_offzero == pytest.approx(0.0, abs=1e-12)
    assert rep.setlike and rep.step1_ok and rep.step2_ok
    # W=4 < 16 clamps loglog to 1: gate is eps^k >= 2/W = 0.5
    assert rep.gate_ok is (0.1 >= 0.5)


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
        rep = roth.setlike_check(a, mu, B)
        assert rep.step1_ok
        assert rep.step2_ok
        assert rep.bohr_size == len(B)
        assert rep.chain_reference is None and rep.gate_ok is None


def test_setlike_rejects_undominated():
    N = 50
    mu = _uniform(N)
    w = np.full(N, 1.0 / N)
    w[7] = 2.0 / N
    a = Measure(N, w, base=BASE_ZN)
    B = roth.bohr_set([1], 0.2, N)
    with pytest.raises(PreconditionError):
        roth.setlike_check(a, mu, B)


# --- 3AP counting ------------------------------------------------------------

def _brute_wrapped(S, Sb, Sc, M):
    total = 0
    for x in range(M):
        for d in range(M):
            if x in S and (x + d) % M in Sb and (x + 2 * d) % M in Sc:
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


def test_count_3aps_worked_example():
    c, _ = roth.count_set_3aps({0, 1, 2}, N=7)
    assert (c.total, c.nontrivial, c.unordered) == (5, 2, 1)


def test_count_3aps_wrapped_matches_brute():
    rng = np.random.default_rng(35)
    for N in (7, 17, 101):
        for _ in range(8):
            S = set(int(v) for v in rng.choice(N, size=N // 3, replace=False))
            c, _ = roth.count_set_3aps(sorted(S), N=N)
            assert c.total == _brute_wrapped(S, S, S, N)
            assert c.nontrivial == c.total - len(S)


def test_count_3aps_line_matches_brute():
    rng = np.random.default_rng(36)
    for N in (9, 25, 101):
        for _ in range(8):
            S = set(int(v) for v in rng.choice(N, size=max(3, N // 3),
                                               replace=False))
            _, c = roth.count_set_3aps(sorted(S), N=N)
            assert c.nontrivial == _brute_line_nontrivial(S)
            assert c.total == c.nontrivial + len(S)


def test_count_3aps_distinct_sets():
    rng = np.random.default_rng(37)
    N = 31
    S, Sb, Sc = (
        set(int(v) for v in rng.choice(N, size=10, replace=False))
        for _ in range(3)
    )
    c, _ = roth.count_set_3aps(sorted(S), sorted(Sb), sorted(Sc), N=N)
    assert c.total == _brute_wrapped(S, Sb, Sc, N)
    assert c.unordered is None


def _brute_line(S, Sb, Sc):
    return sum(1 for x in S for y in Sb if 2 * y - x in Sc)


# 97 is prime; 2N-1 = 65, 129 and 1025 sit just above a power of two
@pytest.mark.parametrize("N", [97, 33, 65, 513])
def test_count_3aps_padded_route_matches_brute(N):
    rng = np.random.default_rng(N)
    S, Sb, Sc = (
        set(int(v) for v in rng.choice(N, size=N // 3, replace=False))
        for _ in range(3)
    )
    args = [sorted(S), sorted(Sb), sorted(Sc)]
    wrapped, line = roth.count_set_3aps(*args, N=N)
    own_wrapped, own = roth.count_set_3aps(sorted(S), N=N)
    if N <= 100:
        assert wrapped.total == _brute_wrapped(S, Sb, Sc, N)
        assert wrapped.nontrivial == wrapped.total - len(S & Sb & Sc)
        assert own_wrapped.total == _brute_wrapped(S, S, S, N)
    assert line.total == _brute_line(S, Sb, Sc)
    assert line.unordered is None
    assert own.nontrivial == _brute_line_nontrivial(S)
    assert own.unordered == own.nontrivial // 2



@pytest.mark.parametrize("N", [8, 31, 64])
def test_count_set_3aps_reads_both_counts_from_one_convolution(N, monkeypatch):
    rng = np.random.default_rng(N + 1)
    S = sorted(set(int(v) for v in rng.choice(N, size=N // 3, replace=False)))
    calls = []
    original = roth.set_convolution

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(roth, "set_convolution", counted)
    wrapped, line = roth.count_set_3aps(S, N=N)
    assert calls == [N]
    assert wrapped.total == _brute_wrapped(set(S), set(S), set(S), N)
    assert line.nontrivial == _brute_line_nontrivial(set(S))

def test_count_3aps_even_modulus_self_paired():
    c, _ = roth.count_set_3aps({0, 2}, N=4)
    assert (c.total, c.nontrivial, c.unordered) == (4, 2, 2)


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
    assert c.unordered is None


def test_count_3aps_validation():
    with pytest.raises(ParameterError):
        roth.count_3aps(_uniform(7), _uniform(9))
    with pytest.raises(ParameterError):
        roth.count_set_3aps({0, 9}, N=9)


def test_has_3ap_line():
    assert roth.has_3ap_line({1, 2, 3})
    assert roth.has_3ap_line({3, 7, 11})
    assert not roth.has_3ap_line({1, 2, 4, 5})
    assert not roth.has_3ap_line({4})
    assert not roth.has_3ap_line(set())


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
    assert vb.clamped and not vb.vacuous


def test_varnavides_alpha_one():
    vb = roth.varnavides_bound(1.0, 64)
    assert vb.clamped
    assert vb.M == 2
    assert vb.z_lower == pytest.approx(64**2 / 32.0)
    # the full interval certainly meets the 3AP lower bound
    _, c = roth.count_set_3aps(list(range(64)), N=64)
    assert c.nontrivial >= vb.z_lower


def test_varnavides_overflow_and_vacuous():
    vb = roth.varnavides_bound(0.05, 1000)
    assert math.isinf(vb.M)
    assert vb.z_lower == 0.0 and vb.bound == 0.0
    assert vb.vacuous and vb.C2_effective is None
    vb = roth.varnavides_bound(0.3, 100)
    assert math.isfinite(vb.M) and vb.vacuous


def test_varnavides_huge_M_stays_finite():
    # M^2 exceeds float range here; the log route must not raise
    vb = roth.varnavides_bound(1.0 / 12.0, 10**6)
    assert not math.isinf(vb.M)
    assert vb.M > 1e150
    assert 0.0 <= vb.z_lower < 1e-250
    assert vb.bound >= 0.0
    assert vb.vacuous


def test_varnavides_validation():
    with pytest.raises(ParameterError):
        roth.varnavides_bound(0.0, 100)
    with pytest.raises(ParameterError):
        roth.varnavides_bound(1.2, 100)
    with pytest.raises(ParameterError):
        roth.varnavides_bound(0.5, 2)


def test_final_inequality_formula():
    fi = roth.final_inequality(0.5, 0.04, 0.01, 2, 10, 10_000)
    e = math.exp
    assert fi.term_count_error == pytest.approx(10_000**-0.5)
    assert fi.term_spectrum == pytest.approx(4096 * 0.01**2 * 0.04**-2.5)
    assert fi.term_tail == pytest.approx(math.sqrt(0.04))
    assert fi.lhs == pytest.approx(
        fi.term_count_error + fi.term_spectrum + fi.term_tail
    )
    assert fi.rhs == pytest.approx(e(-(0.5**-2) * math.log(2.0)))
    assert fi.contradiction is (fi.lhs < fi.rhs)
    # W=10 < 16 clamps: gate is eps^k >= 2/10
    assert fi.gate_ok is (0.01**2 >= 0.2)
    assert fi.bohr_defect_linear is None


def test_final_inequality_contradiction_flag():
    kw = dict(alpha=1.0, delta=0.01, eps=1e-6, k=1, W=64, N=10**6)
    lo = roth.final_inequality(constants={"C2": 0.001}, **kw)
    assert lo.contradiction
    hi = roth.final_inequality(constants={"C2": 100.0}, **kw)
    assert not hi.contradiction


def test_final_inequality_bohr_defects():
    N = 1000
    eps = 0.15
    B = roth.bohr_set([1, 13], eps, N)
    fi = roth.final_inequality(0.5, 0.1, eps, B.k, 32, N, bohr=B)
    bt = np.fft.fft(B.beta().weights)
    lin = max(abs(1.0 - bt[r % N]) for r in B.R)
    assert fi.bohr_defect_linear == pytest.approx(lin, rel=1e-12)
    assert fi.bohr_linear_ok and fi.bohr_cubic_ok
    assert fi.bohr_defect_linear <= 16 * eps**2 + 1e-9
    assert fi.bohr_defect_cubic <= 2**12 * eps**2 + 1e-9
    empty = roth.bohr_set([], 0.5, 100)
    fi = roth.final_inequality(0.5, 0.1, 0.2, 0, 32, 100, bohr=empty)
    assert fi.bohr_defect_linear == 0.0 and fi.bohr_cubic_ok


def test_final_inequality_validation():
    with pytest.raises(ParameterError):
        roth.final_inequality(0.0, 0.1, 0.1, 1, 2, 100)
    with pytest.raises(ParameterError):
        roth.final_inequality(0.5, 0.0, 0.1, 1, 2, 100)
    with pytest.raises(ParameterError):
        roth.final_inequality(0.5, 0.1, 1.0, 1, 2, 100)


# --- progression-free construction ------------------------------------------

def test_behrend_smallest_case():
    assert roth.behrend_set(8).tolist() == [1, 2, 4, 5]
    with pytest.raises(ParameterError):
        roth.behrend_set(7)


def test_behrend_is_progression_free():
    prev = 0
    for N in (100, 1000):
        S = roth.behrend_set(N)
        assert S.min() >= 1 and S.max() <= N
        assert np.unique(S).size == S.size
        assert not roth.has_3ap_line(S.tolist())
        assert S.size >= prev
        prev = S.size
    assert roth.behrend_set(100).size == 24


# --- full pipeline -----------------------------------------------------------

def _keys(report):
    return set(report.keys())


def test_density_experiment_primes(small_table):
    rep = roth.density_experiment("primes", 500, small_table)
    assert _keys(rep) >= {
        "params", "source", "w_trick", "measure", "spectrum", "bohr",
        "setlike", "counts", "bounds", "headline",
    }
    assert rep["source"]["three_ap_free"] is False
    assert rep["source"]["alpha0"] == pytest.approx(1.0)
    assert rep["w_trick"]["b"] == 1 and rep["w_trick"]["m"] == 2
    assert 0.9 < rep["measure"]["mass_mu"] < 1.1
    assert rep["counts"]["difference_residual"] <= 1e-8
    assert rep["counts"]["A_3aps_line_nontrivial"] > 0
    assert rep["bounds"]["contradiction"] is False
    assert rep["headline"] == {
        "formula": "alpha >= C4 * sqrt(log5(N) / log4(N))",
        "numeric": None,
    }


def test_density_experiment_behrend_source_is_free(small_table):
    rep = roth.density_experiment("behrend-in-primes", 400, small_table)
    assert rep["source"]["three_ap_free"] is True
    assert rep["source"]["line_3aps_nontrivial"] == 0
    assert 0 < rep["source"]["alpha0"] < 1


def test_density_experiment_deterministic(small_table):
    a = roth.density_experiment("random-subset-of-primes", 400, small_table,
                                seed=5)
    b = roth.density_experiment("random-subset-of-primes", 400, small_table,
                                seed=5)
    c = roth.density_experiment("random-subset-of-primes", 400, small_table,
                                seed=6)
    assert a == b
    assert a["source"]["size"] != c["source"]["size"] or a != c


def test_density_experiment_artifacts(small_table):
    stash = {}
    roth.density_experiment("primes", 300, small_table, artifacts=stash)
    assert {"A0", "A", "w_trick", "mu", "a", "spectrum", "R", "bohr",
            "a1"} <= set(stash)
    assert isinstance(stash["mu"], Measure)
    assert stash["a1"].N == stash["w_trick"].N


def test_density_experiment_bad_inputs_by_stage(small_table):
    with pytest.raises(StageError) as err:
        roth.density_experiment("primes", 1, small_table)
    assert err.value.stage == "source"
    with pytest.raises(StageError) as err:
        roth.density_experiment("primes", 300, small_table, delta=0.0)
    assert err.value.stage == "transform"
    with pytest.raises(StageError) as err:
        roth.density_experiment("primes", 300, small_table, eps=0.0)
    assert err.value.stage == "bohr"
    with pytest.raises(StageError) as err:
        roth.density_experiment("unknown-source", 300, small_table)
    assert err.value.stage == "source"


# stage tag, a callee only that stage calls, the artifacts the stage stores
_STAGES = [
    ("source", roth, "_build_source", {"A0"}),
    ("w-trick", roth, "w_trick", {"A", "w_trick"}),
    ("measure", measures, "lambda_measure", {"mu", "a"}),
    ("transform", roth, "spectrum_threshold", {"spectrum", "R"}),
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
        roth.density_experiment("primes", 300, small_table, artifacts=stash)
    assert err.value.stage == stage
    assert str(err.value) == f"[{stage}] {callee} failed"
    assert err.value.__cause__ is boom
    assert set(stash) == set().union(*(s[3] for s in _STAGES[:i]))


def test_density_experiment_transforms(small_table, monkeypatch):
    # one granularization; prime-length transforms only for a, mu, beta and
    # a1 (inverse and forward); set counts run at powers of two
    grans = []
    original = roth.granularize

    def counted(a, bohr):
        grans.append(a.N)
        return original(a, bohr)

    monkeypatch.setattr(roth, "granularize", counted)
    lengths = []
    for name in ("fft", "ifft", "rfft"):
        fn = getattr(np.fft, name)

        def traced(x, *args, fn=fn, **kwargs):
            lengths.append(len(x))
            return fn(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, traced)
    stash = {}
    rep = roth.density_experiment("random-subset-of-primes", 2000,
                                  small_table, seed=1, artifacts=stash)
    N = rep["w_trick"]["N"]
    assert len(grans) == 1
    assert lengths.count(N) == 5
    assert all(n == N or n & (n - 1) == 0 for n in lengths)
    # one rfft for the source's line count, one for both counts of A
    assert sum(n != N for n in lengths) == 2
    assert stash["bohr"].beta() is stash["bohr"].beta()
