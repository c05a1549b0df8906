import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeaps import arcs, fourier, measures
from primeaps.arcs import ArcParams, MAJOR, MINOR
from primeaps.errors import ParameterError
from primeaps.fourier import TorusGrid
from primeaps.numutil import loglog_clamped

import paper


# --- rational approximation --------------------------------------------------

def test_dirichlet_guarantee_seeded_sweep():
    rng = np.random.default_rng(20)
    thetas = rng.random(10_000)
    for qmax in (1, 7, 100, 5000):
        for theta in thetas[:2500]:
            r = arcs.dirichlet_approx(float(theta), qmax)
            assert 1 <= r.q <= qmax
            err = abs(Fraction(float(theta)) - Fraction(r.a, r.q))
            assert err * r.q * qmax <= 1


@given(
    theta=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    qmax=st.integers(min_value=1, max_value=10_000),
)
@settings(max_examples=300, deadline=None)
def test_dirichlet_guarantee_property(theta, qmax):
    r = arcs.dirichlet_approx(theta, qmax)
    assert 1 <= r.q <= qmax
    assert abs(Fraction(theta) - Fraction(r.a, r.q)) * r.q * qmax <= 1


def _fraction_convergent_up_to(x: Fraction, qmax: int) -> Fraction:
    p0, q0 = 1, 0
    p1, q1 = int(math.floor(x)), 1
    frac = x - math.floor(x)
    while frac != 0 and q1 <= qmax:
        frac = 1 / frac
        a = int(math.floor(frac))
        frac -= a
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        if q1 > qmax:
            return Fraction(p0, q0)
    return Fraction(p1, q1)


def _fraction_dirichlet(theta: float, qmax: int) -> tuple[int, int]:
    """(a, q) of dirichlet_approx as computed with Fraction objects, kept
    as the oracle of the integer version."""
    x = Fraction(theta)
    best = x.limit_denominator(qmax)
    if abs(x - best) * best.denominator * qmax > 1:
        best = _fraction_convergent_up_to(x, qmax)
    return best.numerator, best.denominator


def _near_tie(a: int, q: int, b: int, s: int, steps: int) -> float:
    """The float nearest the midpoint of a/q and b/s, moved by steps ulps."""
    theta = float((Fraction(a, q) + Fraction(b, s)) / 2)
    for _ in range(abs(steps)):
        theta = math.nextafter(theta, math.copysign(math.inf, steps))
    return theta


_THETAS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1.0),
    st.builds(lambda n, k: n / 2**k, st.integers(-(2**40), 2**40),
              st.integers(0, 60)),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 0.25, 0.75]),
    st.builds(_near_tie, st.integers(-50, 50), st.integers(1, 1000),
              st.integers(-50, 50), st.integers(1, 1000), st.integers(-3, 3)),
)


@given(theta=_THETAS, qmax=st.one_of(st.integers(1, 10**6),
                                     st.integers(1, 64)))
@settings(max_examples=300, deadline=None)
def test_dirichlet_approx_equals_the_fraction_oracle(theta, qmax):
    r = arcs.dirichlet_approx(theta, qmax)
    want = _fraction_dirichlet(theta, qmax)
    assert (r.a, r.q) == want
    assert type(r.a) is int and type(r.q) is int
    # the Dirichlet guarantee |theta - a/q| <= 1/(q qmax), exactly
    assert abs(Fraction(theta) - Fraction(r.a, r.q)) <= Fraction(1, r.q * qmax)


def test_dirichlet_exact_rationals():
    r = arcs.dirichlet_approx(3.0 / 8.0, 10)
    assert (r.a, r.q) == (3, 8) and Fraction(r.a, r.q) == Fraction(3.0 / 8.0)
    r = arcs.dirichlet_approx(0.0, 50)
    assert (r.a, r.q) == (0, 1)
    r = arcs.dirichlet_approx(0.5, 1)
    assert r.q == 1 and abs(0.5 - r.a) <= 0.5
    with pytest.raises(ParameterError):
        arcs.dirichlet_approx(0.3, 0)


# --- arc geometry ------------------------------------------------------------

def test_arc_params_formulas():
    p = ArcParams(N=100_000, p_exponent=4.0)
    assert p.A == pytest.approx(2.0)
    assert p.B_formula == pytest.approx(24.0)
    assert p.B == p.B_formula
    assert p.q_cutoff == pytest.approx(math.log(100_000) ** 24.0)
    # cutoff far exceeds N at this scale: everything is major
    assert p.Qmax == 1
    assert p.degenerate

    q = ArcParams(N=100_000, p_exponent=4.0, b_override=2.0)
    assert q.B == 2.0
    assert q.q_cutoff == pytest.approx(math.log(100_000) ** 2)
    assert q.Qmax == math.floor(100_000 / q.q_cutoff)
    assert not q.degenerate


def test_arc_params_validation():
    with pytest.raises(ParameterError):
        ArcParams(N=2, p_exponent=4.0)
    with pytest.raises(ParameterError):
        ArcParams(N=100, p_exponent=2.0)
    for b in (0.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            ArcParams(N=100, p_exponent=4.0, b_override=b)
    for p in (float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            ArcParams(N=100, p_exponent=p)


def test_classify_agrees_with_own_approx():
    params = ArcParams(N=100_000, p_exponent=4.0, b_override=1.5)
    rng = np.random.default_rng(21)
    for theta in rng.random(400):
        lab = arcs.classify(float(theta), params)
        expect = MAJOR if lab.q <= params.q_cutoff else MINOR
        assert lab.kind == expect
        assert math.gcd(lab.a, lab.q) == 1 or lab.a == 0


def test_classify_degenerate_is_all_major():
    params = ArcParams(N=1000, p_exponent=3.0)
    assert params.degenerate
    for theta in (0.1, 0.37, 0.5, 0.998):
        lab = arcs.classify(theta, params)
        assert lab.kind == MAJOR


# --- major-arc prediction ----------------------------------------------------

def test_major_prediction_rejects_minor():
    params = ArcParams(N=100_000, p_exponent=4.0, b_override=1.0)
    mp = measures.MeasureParams(b=1, m=1, N=100_000)
    lab = arcs.classify(0.38, params)
    assert lab.kind == MINOR
    with pytest.raises(paper.DomainError):
        paper.major_prediction(0.38, lab, mp, None, None)


def test_major_prediction_at_centers_is_sigma_over_q(spf_table):
    mp = measures.MeasureParams(b=1, m=1, N=10_000)
    params = ArcParams(N=10_000, p_exponent=4.0, b_override=3.0)
    for a, q in [(0, 1), (1, 2), (1, 3), (2, 3), (1, 6), (5, 6)]:
        theta = a / q
        lab = arcs.classify(theta, params)
        assert (lab.a, lab.q) == (a, q)
        pred = paper.major_prediction(theta, lab, mp, None, spf_table)
        sig = paper.sigma_aq(a % q, q, mp, None, spf_table)
        assert pred == pytest.approx(sig / q, abs=1e-12)


def test_major_prediction_tracks_prime_measure(small_table, spf_table):
    # at arc centers the prediction should land within the desk-scale
    # error of the true exponential sum
    mp = measures.MeasureParams(b=1, m=1, N=10_000)
    params = ArcParams(N=10_000, p_exponent=4.0, b_override=3.0)
    lam = measures.lambda_measure(mp, small_table)
    for a, q in [(0, 1), (1, 2), (1, 3), (1, 4), (1, 6)]:
        theta = a / q
        lab = arcs.classify(theta, params)
        pred = paper.major_prediction(theta, lab, mp, None, spf_table)
        emp = paper.exp_sum(lam, theta)
        assert abs(pred - emp) < 0.05


def test_major_prediction_offsets_use_tau(small_table, spf_table):
    mp = measures.MeasureParams(b=1, m=1, N=10_000)
    params = ArcParams(N=10_000, p_exponent=4.0, b_override=3.0)
    delta = 1.0 / (16 * mp.N)
    lab = arcs.classify(delta, params)
    assert (lab.a, lab.q) == (0, 1)
    pred = paper.major_prediction(delta, lab, mp, None, spf_table)
    sig = paper.sigma_aq(0, 1, mp, None, spf_table)
    assert pred == pytest.approx(sig * paper.tau(delta, mp.N), abs=1e-12)
    lam = measures.lambda_measure(mp, small_table)
    assert abs(pred - paper.exp_sum(lam, delta)) < 0.05


def test_prime_transform_decays_off_zero(table):
    # the first few nonzero frequencies sit where tau has cancelled
    mp = measures.MeasureParams(b=1, m=1, N=1_000_000)
    lam = measures.lambda_measure(mp, table)
    spec = fourier.spectrum(lam)
    at0 = abs(spec[0])
    assert at0 > 0.9
    for r in (1, 2, 3):
        assert abs(spec[r]) < 0.2 * at0


# --- sup-difference scan -----------------------------------------------------

def test_profile_indices_stride_and_argmax():
    mags = np.zeros(100)
    # the stride grid alone when the argmax lies on it: no duplicate
    mags[30] = 1.0
    assert arcs.profile_indices(mags, 10).tolist() == list(range(0, 100, 10))
    # an argmax off the stride goes in once, in ascending order
    mags[37] = 2.0
    idx = arcs.profile_indices(mags, 10)
    assert idx.tolist() == sorted([*range(0, 100, 10), 37])
    # the last index, past the final stride point
    mags[99] = 3.0
    assert arcs.profile_indices(mags, 10).tolist() == [*range(0, 100, 10), 99]
    # stride M // points: 100 // 7 = 14
    assert arcs.profile_indices(mags, 7).tolist() == [*range(0, 100, 14), 99]
    # every index once when points >= M
    for points in (100, 101, 10_000):
        assert arcs.profile_indices(mags, points).tolist() == list(range(100))
    with pytest.raises(ParameterError):
        arcs.profile_indices(mags, 0)


@pytest.mark.parametrize("M, points", [(7, 3), (64, 5), (1000, 64), (4096, 4096)])
def test_profile_indices_matches_membership_rule(M, points):
    rng = np.random.default_rng(M)
    for _ in range(20):
        mags = rng.random(M)
        stride = max(1, M // points)
        want = set(range(0, M, stride)) | {int(np.argmax(mags))}
        idx = arcs.profile_indices(mags, points)
        assert idx.tolist() == sorted(want)
        assert idx.dtype == np.int64


@pytest.mark.filterwarnings("ignore::primeaps.errors.DeskScaleWarning")
def test_sup_diff_scan_profile_and_sup(small_table):
    mp = measures.MeasureParams(b=1, m=1, N=2000)
    grid = TorusGrid(oversample=2)
    lam = measures.lambda_measure(mp, small_table)
    res = arcs.sup_diff_scan(mp, lam, 4, grid, small_table,
                             ArcParams(N=2000, p_exponent=3.0), profile_points=64)
    assert res.reference == pytest.approx(loglog_clamped(4) / 4)
    assert res.sup >= res.theta0_mass_diff >= 0

    lamq = measures.lambda_q_measure(mp, 4, small_table)
    assert res.theta0_mass_diff == pytest.approx(
        abs(lam.total - lamq.total), abs=1e-12
    )
    # argmax is reachable from the profile and has the sup value
    prof = res.profile
    assert list(prof) == ["theta", "re", "im", "abs", "arc_kind", "a", "q"]
    assert len({len(col) for col in prof.values()}) == 1
    best = max(prof["abs"])
    assert best == pytest.approx(res.sup, rel=1e-12)
    assert res.argmax_theta in prof["theta"]
    # the profile samples the grid of the given oversample
    M = grid.points(2000)
    diff = fourier.wedge_grid(
        measures.Measure(2000, lam.weights - lamq.weights, signed=True), M)
    assert prof["theta"].tolist() == (
        arcs.profile_indices(np.abs(diff), 64) / M).tolist()
    assert len(prof["abs"]) <= 64 + 2
    for re, im, mag, kind in zip(prof["re"], prof["im"], prof["abs"],
                                 prof["arc_kind"]):
        assert mag == pytest.approx(math.hypot(re, im), rel=1e-9)
        assert kind in (MAJOR, MINOR)
    major = np.array(prof["arc_kind"]) == MAJOR
    if major.any():
        assert res.sup_major_profiled == pytest.approx(max(prof["abs"][major]))
    if not major.all():
        assert res.sup_minor_profiled == pytest.approx(max(prof["abs"][~major]))
    # direct check of the reported sup at the argmax
    direct = paper.exp_sum(lam, res.argmax_theta) - paper.exp_sum(
        lamq, res.argmax_theta
    )
    assert abs(direct) == pytest.approx(res.sup, rel=1e-9)


def _complex_grid(f, M):
    """f^(j/M) for j = 0..M-1 from one complex ifft (the oracle)."""
    pad = np.zeros(M, dtype=np.complex128)
    pad[np.asarray(f.positions()) % M] = f.weights
    return M * np.fft.ifft(pad)


@pytest.mark.filterwarnings("ignore::primeaps.errors.DeskScaleWarning")
@pytest.mark.parametrize("N, oversample", [(2000, 2), (1999, 3)])
def test_sup_diff_scan_grid_is_the_difference_of_two_grids(
        small_table, monkeypatch, N, oversample):
    # one grid of the signed measure lambda - lambda_Q stands for the
    # difference of the two measures' grids
    grids = []
    original = fourier.wedge_grid

    def recorded(f, M):
        grids.append(original(f, M))
        return grids[-1]

    monkeypatch.setattr(fourier, "wedge_grid", recorded)
    mp = measures.MeasureParams(b=1, m=1, N=N)
    res = arcs.sup_diff_scan(mp, measures.lambda_measure(mp, small_table), 16,
                             TorusGrid(oversample=oversample), small_table,
                             ArcParams(N=N, p_exponent=3.0), profile_points=64)
    M = oversample * N
    assert [g.shape for g in grids] == [(M,)]
    want = (_complex_grid(measures.lambda_measure(mp, small_table), M)
            - _complex_grid(measures.lambda_q_measure(mp, 16, small_table), M))
    tol = 1e-12 * res.sup
    assert float(np.max(np.abs(grids[0] - want))) <= tol
    assert abs(res.sup - float(np.max(np.abs(want)))) <= tol
    assert abs(res.theta0_mass_diff - abs(want[0])) <= tol


@pytest.mark.filterwarnings("ignore::primeaps.errors.DeskScaleWarning")
def test_sup_diff_scan_oversample_stable(small_table):
    mp = measures.MeasureParams(b=1, m=1, N=2000)
    ap = ArcParams(N=2000, p_exponent=3.0)
    lam = measures.lambda_measure(mp, small_table)
    s2 = arcs.sup_diff_scan(mp, lam, 4, TorusGrid(oversample=2), small_table, ap,
                            profile_points=16)
    s4 = arcs.sup_diff_scan(mp, lam, 4, TorusGrid(oversample=4), small_table, ap,
                            profile_points=16)
    assert s4.sup >= s2.sup * 0.999
    assert s4.sup == pytest.approx(s2.sup, rel=0.15)


# --- minor-arc bounds --------------------------------------------------------

def test_minor_bound_formulas():
    N, q = 100_000, 50
    lg = math.log(N)
    assert paper.minor_bound_lambda(q, N) == pytest.approx(
        lg**10 * (q**-0.5 + N**-0.2 + math.sqrt(q / N))
    )
    assert paper.minor_bound_rough(q, N, A=2.0) == pytest.approx(
        lg**3 * (1.0 / q + q / N + N ** (-1.0 / 16.0))
    )
    with pytest.raises(ParameterError):
        paper.minor_bound_lambda(0, N)
    with pytest.raises(ParameterError):
        paper.minor_bound_rough(q, N, A=0.0)


def test_weyl_min_sum_matches_direct():
    N, m, theta = 400, 1, 0.37
    got = paper.weyl_min_sum(theta, N, m)
    acc = 0.0
    for n in range(1, math.isqrt(N) + 1):
        d = float(paper.dist_to_int(np.array([theta * n]))[0])
        inv = math.inf if d == 0 else 1.0 / d
        acc += min(inv, 2.0 * m * N / n)
    assert got.value == pytest.approx(acc, rel=1e-12)
    assert got.bound == pytest.approx(
        math.log(N) ** 3 * (math.sqrt(N) + got.q + N / got.q)
    )


def test_weyl_min_sum_rational_theta_caps():
    # theta = 1/3: multiples of 3 land on integers, the cap applies there
    N, m = 900, 2
    got = paper.weyl_min_sum(1.0 / 3.0, N, m)
    assert got.q == 3
    assert math.isfinite(got.value)
    acc = 0.0
    for n in range(1, 31):
        d = float(paper.dist_to_int(np.array([n / 3.0]))[0])
        inv = math.inf if d < 1e-12 else 1.0 / d
        acc += min(inv, 2.0 * m * N / n)
    assert got.value == pytest.approx(acc, rel=1e-9)
    with pytest.raises(ParameterError):
        paper.weyl_min_sum(0.3, 2, 1)


# --- dyadic piece bounds -----------------------------------------------------

def test_interpolated_piece_bound_formulas():
    N, p, K = 10_000, 4.0, 8
    t = 1.0 - 2.0 / p
    for j in (2, 3, 5, 8):
        expect = (
            j ** (2.0 / p)
            * max(math.log(j), 1.0) ** t
            * 2.0 ** (-t * j)
            * N ** (-2.0 / p)
        )
        assert paper.interpolated_piece_bound(j, K, N, p) == pytest.approx(expect)
    # log j floored at 1, so j=1 does not vanish
    assert paper.interpolated_piece_bound(1, K, N, p) == pytest.approx(
        2.0 ** (-t) * N ** (-2.0 / p)
    )
    assert paper.interpolated_piece_bound(K + 1, K, N, p) == pytest.approx(
        math.log(N) ** (-1.0 / p) * N ** (-2.0 / p)
    )


def test_interpolated_piece_bound_decays():
    # exponential factor wins past a small p-dependent ramp
    N, K = 10_000, 12
    vals = [paper.interpolated_piece_bound(j, K, N, 3.0) for j in range(5, K + 1)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    vals = [paper.interpolated_piece_bound(j, K, N, 4.0) for j in range(2, K + 1)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_interpolated_piece_bound_validation():
    with pytest.raises(ParameterError):
        paper.interpolated_piece_bound(0, 5, 100, 4.0)
    with pytest.raises(ParameterError):
        paper.interpolated_piece_bound(7, 5, 100, 4.0)
    with pytest.raises(ParameterError):
        paper.interpolated_piece_bound(1, 5, 100, 2.0)
    with pytest.raises(ParameterError):
        paper.interpolated_piece_bound(1, 5, 2, 4.0)
