import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeaps.errors import (
    DeskScaleWarning,
    ParameterError,
    PreconditionError,
    TableRangeError,
)
from primeaps import cli, measures, sieve
from primeaps.arcs import ArcParams
from primeaps.measures import Measure, MeasureParams
from primeaps.numutil import fsum_real

import paper


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


# --- the measures themselves -------------------------------------------------

def test_lambda_weights_formula(small_table):
    b, m, N = 2, 3, 400
    params = MeasureParams(b=b, m=m, N=N)
    lam = measures.lambda_measure(params, small_table)
    phi_m = sieve.euler_phi(m)
    for n in range(1, N + 1):
        v = m * n + b
        expect = phi_m * math.log(v) / (m * N) if _is_prime(v) else 0.0
        assert lam.weights[n - 1] == pytest.approx(expect, abs=1e-15)


def test_lambda_mass_near_one(table):
    for b, m in [(1, 1), (1, 2)]:
        params = MeasureParams(b=b, m=m, N=100_000)
        lam = measures.lambda_measure(params, table)
        assert 0.93 <= lam.total <= 1.07


def test_lambda_q_uniform_on_rough_support(small_table):
    params = MeasureParams(b=1, m=2, N=500)
    lamq = measures.lambda_q_measure(params, 8, small_table)
    pref = measures.rough_prefactor(8, 2, small_table)
    sup = measures.rough_support(params, 8, small_table)
    expect = np.zeros(500)
    expect[sup - 1] = pref / 500.0
    assert np.allclose(lamq.weights, expect, rtol=0, atol=1e-15)


def test_desk_scale_warning_names_the_caller(small_table):
    # m = 30 > log 500: the warning points at the line that built the
    # measure, here this file, not inside the library
    params = MeasureParams(b=1, m=30, N=500)
    with pytest.warns(DeskScaleWarning) as caught:
        measures.lambda_measure(params, small_table)
        measures.lambda_q_measure(params, 8, small_table)
    assert [w.filename for w in caught] == [__file__, __file__]


def test_lambda_one_is_zero_measure(small_table):
    params = MeasureParams(b=1, m=2, N=100)
    lamq = measures.lambda_q_measure(params, 1, small_table)
    assert lamq.total == 0.0
    assert np.all(lamq.weights == 0.0)


def test_rough_mass_near_one(table):
    # the Mertens prefactor normalizes the rough counts; the error grows
    # with Q (Mertens + Chebyshev second-order terms), still small here
    for Q, tol in [(4, 0.001), (64, 0.01), (1024, 0.05)]:
        params = MeasureParams(b=1, m=1, N=500_000)
        lamq = measures.lambda_q_measure(params, Q, table)
        assert lamq.total == pytest.approx(1.0, abs=tol)


# --- dyadic decomposition ----------------------------------------------------

def test_dyadic_cutoff_minimal():
    # p = 2 + 4/A gives A = 4/(p-2) exactly at these A
    for N, A in [(1000, 2.0), (10**6, 4.0), (50, 1.0)]:
        K = measures.dyadic_cutoff(N, 2.0 + 4.0 / A)
        x = math.log(N) ** A / 10.0
        assert 2.0**K > x
        assert K == 0 or 2.0 ** (K - 1) <= x


def test_dyadic_telescopes_exactly(table):
    cases = [
        (1, 1, 2_000, 3.0),
        (1, 2, 5_000, 2.5),
        (2, 3, 10_000, 4.0),
        (5, 6, 1_000, 6.0),
    ]
    for b, m, N, p in cases:
        params = MeasureParams(b=b, m=m, N=N)
        lam = measures.lambda_measure(params, table)
        pieces, K = measures.dyadic_pieces(params, lam, p, table)
        assert len(pieces) == K + 1
        recon = np.zeros(N)
        for piece in pieces:
            assert piece.signed
            recon += piece.weights
        assert np.max(np.abs(recon - lam.weights)) <= 1e-12
        # per level: psi_1 + ... + psi_j is lambda^(2^j), on its support
        partial = np.zeros(N)
        for j, piece in enumerate(pieces[:K], start=1):
            partial += piece.weights
            Q = 2**j
            members = measures.rough_support(params, Q, table)
            assert np.array_equal(np.flatnonzero(partial) + 1, members), (b, m, N, j)
            lamq = measures.lambda_q_measure(params, Q, table)
            np.testing.assert_allclose(partial, lamq.weights, rtol=1e-12, atol=0)


def test_dyadic_needs_table(small_table):
    params = MeasureParams(b=1, m=1, N=10_000)
    lam = measures.lambda_measure(params, small_table)
    with pytest.raises(TableRangeError):
        measures.dyadic_pieces(params, lam, 2.5, small_table)


def test_dyadic_checks_table_before_building_pieces(small_table, monkeypatch):
    params = MeasureParams(b=1, m=1, N=10_000)
    lam = measures.lambda_measure(params, small_table)
    built = []
    monkeypatch.setattr(measures, "Measure", lambda *args, **kw: built.append(args))
    with pytest.raises(TableRangeError):
        measures.dyadic_pieces(params, lam, 2.5, small_table)
    assert built == []


def test_dyadic_cutoff_past_the_float_range_names_p():
    # A = 4/(p-2) is about 4e4, and (log 1000)^A overflows
    with pytest.raises(TableRangeError, match="p = 2.0001"):
        measures.dyadic_cutoff(1000, 2.0001)


def test_dyadic_cutoff_past_the_table_limit_names_p():
    # (log 1000)^80 / 10 is finite, but the split would need primes up to a
    # 2^K of 67 digits; 2^26 fits the table and 2^27 does not
    with pytest.raises(TableRangeError, match="p = 2.05 .* past any factor table"):
        measures.dyadic_cutoff(1000, 2.05)
    for K in (26, 27):
        # the p whose (log N)^A / 10 is just below 2^K
        N = 10**6
        A = math.log(10.0 * 2.0**K * (1 - 1e-9)) / math.log(math.log(N))
        p = 2.0 + 4.0 / A
        x = math.log(N) ** measures.a_exponent(p) / 10.0
        assert 2.0 ** (K - 1) <= x < 2.0**K
        if 2**K <= sieve.MAX_TABLE_LIMIT:
            assert measures.dyadic_cutoff(N, p) == K
        else:
            with pytest.raises(TableRangeError, match=f"p = {p}"):
                measures.dyadic_cutoff(N, p)


def test_piece_sup_norms_shape(table):
    params = MeasureParams(b=1, m=2, N=3_000)
    lam = measures.lambda_measure(params, table)
    pieces, K = measures.dyadic_pieces(params, lam, 4.0, table)
    norms = measures.piece_sup_norms(pieces)
    assert [n.j for n in norms] == list(range(1, K + 2))
    for n in norms:
        assert n.sup >= 0.0
        assert n.reference > 0.0


# --- local densities ---------------------------------------------------------

def test_gamma_prime_formula(spf_table):
    params = MeasureParams(b=1, m=2, N=100)
    for q in (1, 2, 3, 10, 36):
        for r in range(q):
            got = paper.gamma_rq(r, q, params, None, spf_table)
            if math.gcd(2 * r + 1, 2 * q) == 1:
                expect = (
                    sieve.euler_phi(2)
                    * q
                    / sieve.euler_phi(2 * q)
                )
            else:
                expect = 0.0
            assert got == pytest.approx(expect, rel=1e-14)


def test_gamma_rough_formula(small_table, spf_table):
    params = MeasureParams(b=2, m=3, N=100)
    pref = measures.rough_prefactor(8, 3, small_table)
    for q in (1, 2, 5, 12):
        for r in range(q):
            got = paper.gamma_rq(r, q, params, 8, spf_table)
            g = math.gcd(3 * r + 2, 3 * q)
            if all(p > 8 for p in _prime_factors(g)):
                expect = pref * sieve.mertens_product(8, 3 * q, small_table)
            else:
                expect = 0.0
            assert got == pytest.approx(expect, rel=1e-14), (q, r)


def test_gamma_rough_zero_at_Q1(spf_table):
    params = MeasureParams(b=1, m=1, N=100)
    for q in (1, 2, 5):
        for r in range(q):
            assert paper.gamma_rq(r, q, params, 1, spf_table) == 0.0


@given(
    q=st.integers(min_value=1, max_value=60),
    r=st.integers(min_value=0, max_value=59),
    b=st.integers(min_value=0, max_value=6),
    m=st.integers(min_value=1, max_value=6),
    Q=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=150, deadline=None)
def test_gamma_bounded_by_q(spf_table, q, r, b, m, Q):
    if math.gcd(b, m) != 1 or r >= q:
        return
    params = MeasureParams(b=b, m=m, N=100)
    for cutoff in (None, Q):
        gam = paper.gamma_rq(r, q, params, cutoff, spf_table)
        assert 0.0 <= gam <= q + 1e-12


def test_empirical_gamma_tracks_gamma(table, spf_table):
    params = MeasureParams(b=1, m=1, N=1_000_000)
    lam = measures.lambda_measure(params, table)
    for r, q in [(1, 3), (2, 3), (2, 4), (1, 4), (3, 4)]:
        gam = paper.gamma_rq(r, q, params, None, spf_table)
        emp = paper.empirical_gamma(lam, r, q)
        if gam == 0.0:
            # n+1 shares a factor with q along these residues: no mass
            assert emp < 0.01, (r, q, emp)
        else:
            assert emp == pytest.approx(gam, abs=0.12), (r, q, gam, emp)


def test_empirical_gamma_validation(small_table):
    params = MeasureParams(b=1, m=2, N=100)
    lam = measures.lambda_measure(params, small_table)
    with pytest.raises(ParameterError):
        paper.empirical_gamma(lam, 0, 5)
    with pytest.raises(ParameterError):
        paper.empirical_gamma(lam, 1, 5, L=30)


# --- sigma closed forms ------------------------------------------------------

def test_sigma_closed_vs_direct_spot(spf_table):
    for rough in (False, True):
        for b, m, q, Q in [(1, 1, 12, 8), (2, 3, 7, 4), (1, 6, 25, 32), (5, 2, 9, 16)]:
            params = MeasureParams(b=b, m=m, N=200)
            cutoff = Q if rough else None
            direct = paper.sigma_aq_direct_all(q, params, cutoff, spf_table)
            for a in range(q):
                if math.gcd(a, q) != 1:
                    continue
                closed = paper.sigma_aq(a, q, params, cutoff, spf_table)
                assert abs(closed - direct[a]) < 1e-10


def test_sigma_gates(spf_table):
    # (m, q) sharing a factor kills the prime closed form
    params = MeasureParams(b=1, m=2, N=100)
    assert paper.sigma_aq(1, 4, params, None, spf_table) == 0
    # mu(q) = 0 kills it too
    assert paper.sigma_aq(1, 9, params, None, spf_table) == 0
    # the rough measure needs q to be Q-smooth
    assert paper.sigma_aq(1, 5, params, 4, spf_table) == 0
    assert paper.sigma_aq(2, 3, params, 4, spf_table) != 0
    # Q = 1 is the zero measure
    assert paper.sigma_aq(2, 3, params, 1, spf_table) == 0


def test_sigma_requires_coprime_a(spf_table):
    params = MeasureParams(b=1, m=1, N=100)
    with pytest.raises(PreconditionError):
        paper.sigma_aq(2, 4, params, None, spf_table)


def test_sigma_q1_is_one(spf_table):
    # q = 1: sigma = 1 for the prime measure (empty phase, mu(1)=phi(1)=1)
    params = MeasureParams(b=1, m=1, N=100)
    assert paper.sigma_aq(0, 1, params, None, spf_table) == pytest.approx(1.0)


# --- Brun truncation ---------------------------------------------------------

def test_brun_completes_to_product(spf_table):
    params = MeasureParams(b=1, m=1, N=100)
    est = paper.brun_truncated(0, 2, 10, 7, 3, params, spf_table)
    # t = number of primes <= 7 not dividing q: {3, 5, 7} -> exact
    assert est.estimate == pytest.approx(est.full_product, rel=1e-12)
    assert not est.gated_zero


def test_brun_truncations_alternate(spf_table):
    params = MeasureParams(b=1, m=1, N=100)
    full = paper.brun_truncated(1, 1, 10, 13, 6, params, spf_table).full_product
    for t in range(0, 6):
        est = paper.brun_truncated(1, 1, 10, 13, t, params, spf_table)
        if t % 2 == 0:
            assert est.estimate >= full - 1e-12
        else:
            assert est.estimate <= full + 1e-12


def test_brun_gated_zero(spf_table):
    # m*r + b divisible by 3 <= Q: exact zero, flagged
    params = MeasureParams(b=1, m=1, N=100)
    est = paper.brun_truncated(2, 3, 10, 7, 2, params, spf_table)
    assert est.gated_zero
    assert est.estimate == 0.0


def test_brun_depth_guard(spf_table):
    params = MeasureParams(b=1, m=1, N=100)
    with pytest.raises(ParameterError):
        paper.brun_truncated(1, 1, 10, 100, 7, params, spf_table)
    # deep k with shallow t is allowed
    est = paper.brun_truncated(1, 1, 10, 100, 3, params, spf_table)
    assert est.num_primes == 25


def test_default_brun_depth():
    N = 10**6
    raw = math.log(N) / (2 * 8.0 * math.log(math.log(N)))
    assert paper.default_brun_depth(N, 8.0) == max(1, math.floor(raw))


# --- Measure plumbing --------------------------------------------------------

def test_measure_validation():
    with pytest.raises(PreconditionError):
        Measure(3, np.array([0.1, -0.2, 0.3]))
    Measure(3, np.array([0.1, -0.2, 0.3]), signed=True)
    with pytest.raises(ParameterError):
        Measure(4, np.array([0.1, 0.2]))
    with pytest.raises(ParameterError):
        Measure(2, np.array([0.1, 0.2]), base="bad")


def test_measure_params_validation(small_table, spf_table):
    with pytest.raises(PreconditionError):
        MeasureParams(b=2, m=4, N=100)
    with pytest.raises(ParameterError):
        MeasureParams(b=1, m=1, N=0)
    assert [f.name for f in dataclasses.fields(MeasureParams)] == ["b", "m", "N"]
    # a rough cutoff below 1 is refused wherever it enters
    params = MeasureParams(b=1, m=1, N=100)
    for call in (lambda: measures.lambda_q_measure(params, 0, small_table),
                 lambda: paper.gamma_rq(0, 1, params, 0, spf_table),
                 lambda: paper.sigma_aq(0, 1, params, 0, spf_table),
                 lambda: paper.sigma_aq_direct_all(1, params, 0, spf_table)):
        with pytest.raises(ParameterError):
            call()
    with pytest.raises(ParameterError):
        measures.a_exponent(2.0)
    assert measures.a_exponent(4.0) == 2.0


@pytest.mark.parametrize("p", [2.0, 1.5, math.inf, -math.inf, math.nan])
def test_p_exponent_outside_open_interval_is_refused(p):
    # A = 4/(p-2), which p = inf would make 0, has one home, and the arc
    # parameters take it from there
    with pytest.raises(ParameterError):
        measures.a_exponent(p)
    with pytest.raises(ParameterError):
        ArcParams(N=100, p_exponent=p)


@pytest.mark.parametrize("base", [measures.BASE_ONE, measures.BASE_ZN])
def test_support_is_the_nonzero_positions(base):
    w = np.array([0.0, 2.0, 0.0, -0.0, 5.0, 1e-300])
    f = Measure(6, w, base=base)
    pos, weights = f.support()
    keep = w != 0
    assert pos.dtype == np.int64
    assert pos.tolist() == f.positions()[keep].tolist()
    assert weights.tolist() == w[keep].tolist()


_SUM_TERMS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324]),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.floats(allow_nan=False),
)


def _fsum_outcome(fn, values):
    try:
        return repr(fn(values))
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


@given(st.lists(st.tuples(_SUM_TERMS, st.integers(min_value=1, max_value=6)),
                max_size=12))
@settings(max_examples=300, deadline=None)
def test_fsum_real_equals_fsum_of_every_term(runs):
    # zero terms are skipped; that must not move the sum, its sign of zero,
    # or which sums overflow or meet both infinities
    values = [v for v, count in runs for _ in range(count)]
    assert (_fsum_outcome(fsum_real, np.array(values, dtype=np.float64))
            == _fsum_outcome(math.fsum, values))


def test_zn_embedding_rolls():
    f = Measure(4, np.array([1.0, 2.0, 3.0, 4.0]))
    # n = 4 maps to x = 0 in Z_4
    assert f.zn_weights().tolist() == [4.0, 1.0, 2.0, 3.0]
    g = f.as_zn()
    assert g.base == measures.BASE_ZN
    assert g.positions().tolist() == [0, 1, 2, 3]
    assert g.total == f.total


def test_measure_weights_are_a_read_only_copy():
    w = np.arange(5, dtype=np.float64)
    f = Measure(5, w)
    w[0] = 9.0
    assert f.weights[0] == 0.0
    with pytest.raises(ValueError):
        f.weights[0] = 1.0


@given(
    weights=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=64
    )
)
@settings(max_examples=100, deadline=None)
def test_measure_total_is_fsum(weights):
    f = Measure(len(weights), np.array(weights), signed=True)
    assert f.total == math.fsum(weights)


def test_measure_total_is_summed_on_first_read_only(monkeypatch, small_table):
    calls = []

    def counted(values):
        calls.append(len(values))
        return math.fsum(values)

    monkeypatch.setattr(measures, "fsum_real", counted)
    params = MeasureParams(b=1, m=1, N=300)
    lam = measures.lambda_measure(params, small_table)
    measures.lambda_q_measure(params, 16, small_table)
    pieces, _ = measures.dyadic_pieces(params, lam, 3.0, small_table)
    assert calls == []
    assert lam.total == math.fsum(lam.weights.tolist())
    assert lam.total == lam.total
    assert calls == [300]
    assert pieces[-1].total == math.fsum(pieces[-1].weights.tolist())
    assert calls == [300, 300]


def test_measure_total_overflows_only_when_read():
    f = Measure(2, [1e308, 1e308])
    assert f.weights.tolist() == [1e308, 1e308]
    with pytest.raises(OverflowError):
        f.total


def test_measure_io_roundtrip(tmp_path, small_table):
    params = MeasureParams(b=1, m=2, N=200)
    lam = measures.lambda_measure(params, small_table)
    em = cli.Emitter(tmp_path, "csv")
    em.measure("m", lam)
    em.commit()
    back = measures.load_measure_csv(tmp_path / "m.csv")
    assert np.array_equal(back.weights, lam.weights)
    assert back.N == lam.N

    # base zn: the file holds x = 0..N-1
    zn = lam.as_zn()
    em.measure("m_zn", zn)
    em.commit()
    back_zn = measures.load_measure_csv(tmp_path / "m_zn.csv", base=measures.BASE_ZN)
    assert np.array_equal(back_zn.weights, zn.weights)

    em.raw("m.bin", measures.measure_to_bytes(lam))
    em.commit()
    back2 = measures.load_measure_binary(tmp_path / "m.bin")
    assert np.array_equal(back2.weights, lam.weights)
    assert back2.base == lam.base
    assert not back2.signed

    blob = measures.measure_to_bytes(lam)
    assert measures.measure_from_bytes(blob).total == lam.total
    with pytest.raises(ParameterError):
        measures.measure_from_bytes(b"nope" + blob)


_GOOD_CSV = "index,weight\n1,0.5\n2,0.0\n3,0.25\n"


@pytest.mark.parametrize(
    "text, base",
    [
        ("index,weight\n0,0.5\n1,0.0\n2,0.25\n", measures.BASE_ONE),  # 0 in base one
        ("index,weight\n1,0.5\n2,0.0\n3,0.25\n", measures.BASE_ZN),  # N in base zn
        ("index,weight\n1,0.5\n1,0.0\n3,0.25\n", measures.BASE_ONE),  # 1 twice
        ("index,weight\n1,0.5\n3,0.25\n", measures.BASE_ONE),  # 2 missing
        ("index,weight\n1,0.5\n2\n", measures.BASE_ONE),  # short row
        ("index,weight\n1,0.5\n\n", measures.BASE_ONE),  # blank row
        ("index,weight\n1,half\n", measures.BASE_ONE),  # weight does not parse
        ("index,weight\n1.0,0.5\n", measures.BASE_ONE),  # index does not parse
        ("index,weight\n1,-0.5\n", measures.BASE_ONE),  # negative, unsigned
        ("index,weight\n1,inf\n", measures.BASE_ONE),  # non-finite
        ("index,weight\n1,1e308\n2,1e308\n", measures.BASE_ONE),  # total overflows
        ("n,w\n1,0.5\n", measures.BASE_ONE),  # header
        ("", measures.BASE_ONE),  # no header
        (_GOOD_CSV, "torus"),  # unknown base
    ],
)
def test_load_measure_csv_rejects(tmp_path, text, base):
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParameterError):
        measures.load_measure_csv(path, base=base)


def test_load_measure_csv_rejects_non_utf8(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"index,weight\n1,\xff\n")
    with pytest.raises(ParameterError):
        measures.load_measure_csv(path)


def test_load_measure_csv_accepts_any_row_order(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("index,weight\n3,0.25\n1,0.5\n2,-1.0\n", encoding="utf-8")
    f = measures.load_measure_csv(path, signed=True)
    assert f.weights.tolist() == [0.5, -1.0, 0.25]


def _blob(N=2, signed=0, base=0, weights=(0.5, 0.25)):
    return (b"PMSR" + struct.pack("<QBB", N, signed, base)
            + np.asarray(weights, dtype="<f8").tobytes())


@pytest.mark.parametrize(
    "blob",
    [
        b"PMSR",  # no header
        _blob()[:13],  # header cut short
        _blob(base=2),  # base byte
        _blob(base=255),
        _blob(signed=2),  # signed byte
        _blob(N=3),  # payload shorter than N says
        _blob()[:-3],  # payload not whole weights
        _blob(weights=(0.5, -0.25)),  # negative, unsigned
        _blob(weights=(0.5, float("nan"))),  # non-finite
        _blob(weights=(1e308, 1e308)),  # total overflows
    ],
)
def test_measure_from_bytes_rejects(blob):
    with pytest.raises(ParameterError):
        measures.measure_from_bytes(blob)


def test_measure_from_bytes_flags():
    f = measures.measure_from_bytes(_blob(signed=1, base=1, weights=(0.5, -0.25)))
    assert f.signed and f.base == measures.BASE_ZN
    assert f.weights.tolist() == [0.5, -0.25]


_csv_token = st.one_of(
    st.integers(min_value=-3, max_value=8).map(str),
    st.sampled_from(["0.5", "-1.5", "1e308", "nan", "inf", "", "x", " 2", "1_0",
                     '"3"', "0x1"]),
    st.text(max_size=4),
)


# dense rows 1..n in any order; they load in base one when the weights allow
_csv_dense = st.lists(st.floats(-2, 2, allow_nan=False), max_size=6).flatmap(
    lambda ws: st.permutations(range(len(ws))).map(
        lambda perm: [[str(i + 1), repr(ws[i])] for i in perm]
    )
)


@given(
    header=st.sampled_from(["index,weight", "index,weight,extra", "weight,index", ""]),
    rows=st.one_of(st.lists(st.lists(_csv_token, max_size=3), max_size=6), _csv_dense),
    raw=st.one_of(st.none(), st.binary(max_size=40)),
    signed=st.booleans(),
    base=st.sampled_from([measures.BASE_ONE, measures.BASE_ZN]),
)
@settings(max_examples=300, deadline=None)
def test_load_measure_csv_fuzz(tmp_path_factory, header, rows, raw, signed, base):
    path = tmp_path_factory.mktemp("fuzz") / "m.csv"
    if raw is None:
        path.write_text(header + "\n" + "".join(",".join(r) + "\n" for r in rows),
                        encoding="utf-8")
    else:
        path.write_bytes(header.encode() + b"\n" + raw)
    try:
        f = measures.load_measure_csv(path, signed=signed, base=base)
    except ParameterError:
        return
    assert isinstance(f, Measure)
    if raw is None:
        assert f.N == len(rows)
    assert np.all(np.isfinite(f.weights))


@given(
    data=st.one_of(
        st.binary(max_size=40),
        st.builds(
            lambda N, s, b, tail: b"PMSR" + struct.pack("<QBB", N, s, b) + tail,
            st.integers(min_value=0, max_value=4) | st.integers(0, 2**64 - 1),
            st.integers(0, 255),
            st.integers(0, 255),
            st.binary(max_size=40),
        ),
        st.builds(lambda b, k: b[:k], st.just(b"PMSR" + bytes(10)),
                  st.integers(0, 14)),
    )
)
@settings(max_examples=400, deadline=None)
def test_measure_from_bytes_fuzz(data):
    try:
        f = measures.measure_from_bytes(data)
    except ParameterError:
        return
    assert isinstance(f, Measure)
    assert len(data) == 14 + 8 * f.N
    assert np.all(np.isfinite(f.weights))
