import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeaps.errors import ConfigError, ParameterError, PreconditionError, TableRangeError
from primeaps import fourier, sieve

import paper


def _trial_factorize(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _simple_primes(limit):
    mark = np.ones(limit + 1, dtype=bool)
    mark[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mark[p]:
            mark[p * p :: p] = False
    return np.flatnonzero(mark)


def test_build_table_range_errors():
    for limit in (1, 10**8 + 1, 2 * 10**8):
        with pytest.raises(ConfigError, match=re.escape(
                f"limit must be in [2, 100000000], got {limit}")):
            sieve.build_factor_table(limit)
    assert sieve.build_factor_table(2).primes().tolist() == [2]


def test_spf_matches_trial_division(spf_table):
    # the oracle the prime table is held to
    rng = np.random.default_rng(0)
    for n in rng.integers(2, 20_000, size=300).tolist():
        expect = _trial_factorize(n)[0][0]
        assert spf_table.spf[n] == expect


@pytest.fixture(scope="module")
def spf_1e6():
    return paper.build_spf_table(10**6)


def _edge_limits(oracle: paper.FactorTable) -> list[int]:
    # 2, 3, 4, and p^2 - 1, p^2, p^2 + 1 for every prime with p^2 <= 10^6:
    # the edges of the strike loop's range, which stops at isqrt(limit)
    ps = oracle.primes_up_to(math.isqrt(oracle.limit)).tolist()
    squares = [p * p + d for p in ps for d in (-1, 0, 1)]
    return [2, 3, 4] + [v for v in squares if v <= oracle.limit]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_prime_table_matches_spf_oracle(spf_1e6, data):
    limit = data.draw(st.one_of(st.integers(min_value=2, max_value=spf_1e6.limit),
                                st.sampled_from(_edge_limits(spf_1e6))),
                      label="limit")
    table = sieve.build_factor_table(limit)
    truth = spf_1e6.is_prime(np.arange(limit + 1))
    assert table.limit == limit
    assert np.array_equal(table.is_prime(np.arange(limit + 1)), truth)
    assert np.array_equal(table.primes(), np.flatnonzero(truth))
    # scalar lookups at the edges, and at a drawn point
    r = math.isqrt(limit)
    points = {2, limit, limit - 1, r * r, r * r - 1, r * r + 1,
              data.draw(st.integers(min_value=0, max_value=limit), label="n")}
    for n in sorted(v for v in points if 0 <= v <= limit):
        got = table.is_prime(n)
        assert type(got) is bool and got == bool(truth[n]), n
    q = data.draw(st.integers(min_value=0, max_value=limit), label="q")
    for cut in (q, limit):
        assert np.array_equal(table.primes_up_to(cut), spf_1e6.primes_up_to(cut))
    with pytest.raises(TableRangeError):
        table.is_prime(limit + 1)
    with pytest.raises(TableRangeError):
        table.is_prime(np.array([2, -1]))
    with pytest.raises(TableRangeError):
        table.primes_up_to(limit + 1)


def _phi_by_factorization(n: int, oracle: paper.FactorTable) -> int:
    return math.prod((p - 1) * p ** (k - 1) for p, k in oracle.factorize(n))


def test_euler_phi_matches_factorization(spf_1e6):
    for n in range(1, 10**5 + 1):
        assert sieve.euler_phi(n) == _phi_by_factorization(n, spf_1e6), n


def test_euler_phi_of_every_w_trick_modulus():
    from primeaps import roth

    moduli = sorted({roth.w_modulus(W) for W in range(1, 23)})
    assert moduli[-1] == 9_699_690  # 2 * 3 * ... * 19, from W = 19 to 22
    oracle = paper.build_spf_table(moduli[-1])
    for m in moduli:
        assert sieve.euler_phi(m) == _phi_by_factorization(m, oracle), m


def test_is_prime_matches_oracle(small_table):
    oracle = set(_simple_primes(20_000).tolist())
    ns = np.arange(2, 20_001)
    got = small_table.is_prime(ns)
    expect = np.array([int(n) in oracle for n in ns])
    assert np.array_equal(got, expect)


def test_primes_up_to(small_table):
    assert np.array_equal(small_table.primes_up_to(30), _simple_primes(30))
    assert small_table.primes_up_to(1).size == 0


def test_primes_up_to_refuses_beyond_table():
    # primes <= limit in place of primes <= q would feed a wrong count into
    # the majorant denominator without an error
    table = sieve.build_factor_table(100)
    assert table.primes_up_to(100).size == 25
    with pytest.raises(TableRangeError):
        table.primes_up_to(1000)
    with pytest.raises(TableRangeError):
        fourier.majorant_denominator(4.0, 1000, table, fourier.TorusGrid(oversample=8))


def test_check_range(small_table):
    small_table.check_range(20_000)
    with pytest.raises(TableRangeError):
        small_table.check_range(20_001)


@given(n=st.integers(min_value=2, max_value=20_000))
@settings(max_examples=200, deadline=None)
def test_factorize_reconstructs(small_table, spf_table, n):
    prod = 1
    last_p = 1
    for p, e in spf_table.factorize(n):
        assert small_table.is_prime(p)
        assert p > last_p
        last_p = p
        prod *= p**e
    assert prod == n


def test_mobius_matches_oracle(spf_table):
    for n in range(1, 500):
        fac = _trial_factorize(n)
        if any(e > 1 for _, e in fac):
            expect = 0
        else:
            expect = (-1) ** len(fac)
        assert paper.mobius(n, spf_table) == expect


def test_euler_phi_matches_oracle():
    for n in range(1, 300):
        expect = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert sieve.euler_phi(n) == expect


def test_rough_smooth_brute(spf_table):
    for n in range(1, 200):
        for q in (1, 2, 3, 7, 50):
            fac = [p for p, _ in _trial_factorize(n)]
            rough = all(p > q for p in fac)
            smooth = q >= 2 and all(p <= q for p in fac)
            assert paper.is_rough(n, q, spf_table) == rough
            assert paper.is_smooth(n, q, spf_table) == smooth


def test_no_one_smooth_numbers(spf_table):
    # Q < 2 admits no smooth numbers, not even 1
    assert not paper.is_smooth(1, 1, spf_table)
    assert not paper.is_smooth(6, 1, spf_table)
    assert paper.is_rough(1, 50, spf_table)


def test_mertens_product_direct(small_table):
    for q, m in [(10, 1), (30, 6), (2, 1), (97, 10)]:
        expect = 1.0
        for p in _simple_primes(q).tolist():
            if m % p != 0:
                expect *= 1.0 - 1.0 / p
        assert sieve.mertens_product(q, m, small_table) == pytest.approx(expect, rel=1e-14)


def test_mertens_product_validation(small_table):
    with pytest.raises(ParameterError):
        sieve.mertens_product(0, 1, small_table)
    with pytest.raises(TableRangeError):
        sieve.mertens_product(30_000, 1, small_table)


def test_ramanujan_mobius(spf_table):
    rng = np.random.default_rng(1)
    for q in range(1, 400):
        a = int(rng.integers(0, q)) if q > 1 else 0
        while math.gcd(a, q) != 1:
            a = int(rng.integers(0, q))
        got = paper.ramanujan_sum(q, a)
        assert abs(got - paper.mobius(q, spf_table)) < 1e-9


def test_ramanujan_general_formula(spf_table):
    # c_q(a) = mu(q/g) phi(q) / phi(q/g), g = gcd(a, q)
    for q in (12, 30, 36, 49, 100):
        for a in range(q):
            g = math.gcd(a, q) if a else q
            expect = (
                paper.mobius(q // g, spf_table)
                * sieve.euler_phi(q)
                / sieve.euler_phi(q // g)
            )
            assert abs(paper.ramanujan_sum(q, a) - expect) < 1e-9


def test_ramanujan_at_zero():
    for q in (1, 2, 7, 12):
        assert abs(paper.ramanujan_sum(q, 0) - sieve.euler_phi(q)) < 1e-9


def test_check_residue_pair():
    sieve.check_residue_pair(1, 1)
    sieve.check_residue_pair(0, 1)
    sieve.check_residue_pair(5, 2)
    with pytest.raises(PreconditionError):
        sieve.check_residue_pair(2, 4)
    with pytest.raises(PreconditionError):
        sieve.check_residue_pair(-1, 3)
    with pytest.raises(PreconditionError):
        sieve.check_residue_pair(1, 0)


def test_warn_if_large_modulus():
    with pytest.warns(UserWarning):
        assert not sieve.warn_if_large_modulus(30, 1000)
    assert sieve.warn_if_large_modulus(6, 1000)


def test_prime_shifted_support_brute(small_table):
    oracle = set(_simple_primes(20_000).tolist())
    sup = sieve.prime_shifted_support(1, 2, 500, small_table)
    expect = [n for n in range(1, 501) if 2 * n + 1 in oracle]
    assert sup.tolist() == expect
    assert sup.dtype == np.int64
    assert len(sup) == len(expect)


def test_prime_shifted_support_range(small_table):
    with pytest.raises(TableRangeError):
        sieve.prime_shifted_support(1, 2, 15_000, small_table)


@pytest.mark.filterwarnings("ignore::primeaps.errors.DeskScaleWarning")
def test_rough_support_brute(small_table):
    for b, m, q in [(1, 2, 7), (2, 3, 5), (0, 1, 11), (1, 6, 4), (1, 1, 1)]:
        sup = sieve.rough_support(b, m, 300, q, small_table)
        expect = []
        for n in range(1, 301):
            v = m * n + b
            fac = [p for p, _ in _trial_factorize(v)] if v > 1 else []
            if all(p > q for p in fac):
                expect.append(n)
        assert sup.tolist() == expect, (b, m, q)
        assert sup.dtype == np.int64
