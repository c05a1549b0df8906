"""Major/minor arc machinery: Dirichlet rational approximation, arc
classification at the (log N)^B cutoff, closed-form major-arc predictions,
empirical sup-difference scans, and the minor-arc bound formulas.

ArcParams takes A = 4/(p-2) from measures.a_exponent; the rough cutoff Q
is an argument of what reads it, with Q = None for lambda itself.

All bound formulas are evaluated with implicit constant 1. No CLI output
reports them yet, and the tests check the formulas themselves (values,
decay in their parameters, input validation), not a measured quantity
against a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fourier, measures
from .errors import DomainError, ParameterError
from .fourier import TorusGrid, tau
from .numutil import dist_to_int, loglog_clamped
from .sieve import FactorTable

MAJOR = "major"
MINOR = "minor"


@dataclass(frozen=True)
class RationalApprox:
    a: int
    q: int
    err: float


@dataclass(frozen=True)
class ArcParams:
    """Arc geometry at scale N with exponent p: A = a_exponent(p), B = 2A + 20.

    b_override replaces B for experiments; both values are stamped into
    results so overridden runs are recognizable.
    """

    N: int
    p_exponent: float
    b_override: float | None = None

    def __post_init__(self) -> None:
        if self.N < 3:
            raise ParameterError(f"N must be >= 3, got {self.N}")
        measures.a_exponent(self.p_exponent)  # refuses p outside (2, inf)
        if self.b_override is not None and not 0 < self.b_override < math.inf:
            raise ParameterError(
                f"b_override must lie in (0, inf), got {self.b_override}")

    @property
    def A(self) -> float:
        return measures.a_exponent(self.p_exponent)

    @property
    def B_formula(self) -> float:
        return 2.0 * self.A + 20.0

    @property
    def B(self) -> float:
        return self.b_override if self.b_override is not None else self.B_formula

    @property
    def q_cutoff(self) -> float:
        """Denominator cutoff (log N)^B separating major from minor; inf
        where it leaves the float range, which makes every theta major."""
        try:
            return math.log(self.N) ** self.B
        except OverflowError:
            return math.inf

    @property
    def Qmax(self) -> int:
        """Dirichlet denominator bound floor(N (log N)^-B), floored at 1."""
        return max(1, math.floor(self.N / self.q_cutoff))

    @property
    def degenerate(self) -> bool:
        """True when the major-arc cutoff swallows the Dirichlet range,
        i.e. (log N)^(2B) >= N; every theta is then 'major'."""
        return self.q_cutoff >= self.Qmax


@dataclass(frozen=True)
class ArcLabel:
    """The arc of theta and its Dirichlet approximation a/q."""

    kind: str
    a: int
    q: int


def _convergent_up_to(n: int, d: int, qmax: int) -> tuple[int, int]:
    """Last continued-fraction convergent (a, q) of n/d (d >= 1) with
    q <= qmax."""
    a = n // d
    p0, q0, p1, q1 = 1, 0, a, 1
    r, s = n - a * d, d  # n/d - a = r/s, in [0, 1)
    while r and q1 <= qmax:
        a, r, s = s // r, s % r, r  # s/r = a + (s % r)/r
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        if q1 > qmax:
            return p0, q0
    return p1, q1


def _limit_denominator(n: int, d: int, qmax: int) -> tuple[int, int]:
    """The fraction (a, q) closest to n/d (d >= 1, coprime) with q <= qmax,
    as Fraction.limit_denominator finds it: the closer of the last
    convergent and the last semiconvergent, the convergent on a tie."""
    if d <= qmax:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    u, v = n, d
    while True:
        a = u // v
        q2 = q0 + a * q1
        if q2 > qmax:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        u, v = v, u - a * v
    k = (qmax - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n/d| <= |p2/q2 - n/d|, cleared of the denominators
    if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1:
        return p1, q1
    return p2, q2


def dirichlet_approx(theta: float, qmax: int) -> RationalApprox:
    """Best rational a/q with q <= qmax; always satisfies the Dirichlet
    guarantee |theta - a/q| <= 1/(q*qmax).

    Runs the stdlib continued-fraction best approximation on the exact
    integer ratio n/d of theta; in the rare case the closest fraction misses
    the guarantee, the plain convergent (which always satisfies it) is
    returned instead. Exact integer arithmetic: the test is
    |n*q - a*d| * qmax <= d, and err is |n*q - a*d| / (d*q), one correctly
    rounded division.
    """
    if qmax < 1:
        raise ParameterError(f"qmax must be >= 1, got {qmax}")
    n, d = float(theta).as_integer_ratio()
    a, q = _limit_denominator(n, d, qmax)
    gap = abs(n * q - a * d)
    if gap * qmax > d:
        a, q = _convergent_up_to(n, d, qmax)
        gap = abs(n * q - a * d)
    return RationalApprox(a=a, q=q, err=gap / (d * q))


def classify(theta: float, params: ArcParams) -> ArcLabel:
    """Label theta Major when its Dirichlet denominator is <= (log N)^B."""
    approx = dirichlet_approx(theta, params.Qmax)
    kind = MAJOR if approx.q <= params.q_cutoff else MINOR
    return ArcLabel(kind=kind, a=approx.a, q=approx.q)


def major_prediction(
    theta: float,
    label: ArcLabel,
    mparams: measures.MeasureParams,
    Q: int | None,
    table: FactorTable,
) -> complex:
    """Closed-form major-arc main term q^(-1) sigma_{a,q} tau(theta - a/q)
    of lambda (Q = None) or lambda^{(Q)}. Raises DomainError on minor-arc
    labels.
    """
    if label.kind != MAJOR:
        raise DomainError("major_prediction needs a major-arc label")
    a, q = label.a, label.q
    sig = measures.sigma_aq(a % q if q > 1 else 0, q, mparams, Q, table)
    return sig / q * tau(theta - a / q, mparams.N)


def profile_indices(mags: np.ndarray, points: int) -> np.ndarray:
    """The grid indices a profile samples: every max(1, M // points)-th of
    the M = len(mags) indices, plus the argmax of mags when the stride
    misses it, in ascending order."""
    if points < 1:
        raise ParameterError(f"points must be >= 1, got {points}")
    stride = max(1, mags.size // points)
    idx = np.arange(0, mags.size, stride, dtype=np.int64)
    j_star = int(np.argmax(mags))
    if j_star % stride:
        idx = np.insert(idx, j_star // stride + 1, j_star)
    return idx


@dataclass
class ScanResult:
    """Outcome of a sup-difference scan |lambda^ - lambda^{(Q)^}| over the
    oversampled grid. `profile` holds the columns theta, re, im, abs,
    arc_kind, a and q of the classified profile, in table order."""

    sup: float
    argmax_theta: float
    theta0_mass_diff: float
    reference: float
    Q: int
    oversample: int
    profile: dict[str, object] = field(repr=False)
    sup_major_profiled: float | None = None
    sup_minor_profiled: float | None = None


def sup_diff_scan(
    mparams: measures.MeasureParams,
    Q: int,
    grid: TorusGrid,
    table: FactorTable,
    arc_params: ArcParams,
    profile_points: int,
) -> ScanResult:
    """Scan |lambda^(theta) - lambda^{(Q)^}(theta)| over theta = j/M.

    Returns the grid sup at its argmax, the theta=0 mass mismatch, the
    loglog(Q)/Q reference, and the profile at
    profile_indices(|diff|, profile_points), classified by arc_params
    (classification is done per profiled point, not for all M).
    """
    N = mparams.N
    lam = measures.lambda_measure(mparams, table)
    lamq = measures.lambda_q_measure(mparams, Q, table)
    # both measures sit on {1..N}, so their difference is one signed measure
    # and one grid
    signed = measures.Measure(N, lam.weights - lamq.weights, signed=True)
    M = grid.points(N)
    diff = fourier.wedge_grid(signed, M)
    absdiff = np.abs(diff)
    idx = profile_indices(absdiff, profile_points)
    mags = absdiff[idx]
    # the first maximum of the profile is the first maximum of the grid
    j_star = int(idx[np.argmax(mags)])
    thetas = idx / M
    labels = [classify(theta, arc_params) for theta in thetas.tolist()]
    kinds = [lab.kind for lab in labels]
    major = np.array(kinds) == MAJOR
    return ScanResult(
        sup=float(absdiff[j_star]),
        argmax_theta=j_star / M,
        theta0_mass_diff=float(absdiff[0]),
        reference=loglog_clamped(Q) / Q,
        Q=Q,
        oversample=grid.oversample,
        profile={"theta": thetas, "re": diff[idx].real, "im": diff[idx].imag,
                 "abs": mags, "arc_kind": kinds,
                 "a": [lab.a for lab in labels], "q": [lab.q for lab in labels]},
        sup_major_profiled=float(mags[major].max()) if major.any() else None,
        sup_minor_profiled=float(mags[~major].max()) if not major.all() else None,
    )


def minor_bound_lambda(q: int, N: int) -> float:
    """(log N)^10 (q^(-1/2) + N^(-1/5) + N^(-1/2) q^(1/2)).

    Pure formula with implicit constant 1, for the theta with
    |theta - a/q| <= 1/q^2.
    """
    if N < 3 or q < 1:
        raise ParameterError("need N >= 3 and q >= 1")
    lg = math.log(N)
    return lg**10 * (q**-0.5 + N**-0.2 + math.sqrt(q / N))


def minor_bound_rough(q: int, N: int, A: float) -> float:
    """(log N)^3 (q^(-1) + q/N + N^(-1/(8A)))."""
    if N < 3 or q < 1:
        raise ParameterError("need N >= 3 and q >= 1")
    if A <= 0:
        raise ParameterError(f"A must be > 0, got {A}")
    lg = math.log(N)
    return lg**3 * (1.0 / q + q / N + N ** (-1.0 / (8.0 * A)))


@dataclass(frozen=True)
class WeylSum:
    value: float
    bound: float
    q: int


def weyl_min_sum(theta: float, N: int, m: int) -> WeylSum:
    """sum over n <= sqrt(N) of min(||theta n||^(-1), 2mN/n), evaluated
    exactly, next to the (log N)^3 (sqrt(N) + q + N/q) reference with q
    the Dirichlet denominator of theta at cutoff sqrt(N)."""
    if N < 3:
        raise ParameterError(f"N must be >= 3, got {N}")
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    top = math.isqrt(N)
    n = np.arange(1, top + 1, dtype=np.float64)
    d = dist_to_int(theta * n)
    cap = 2.0 * m * N / n
    with np.errstate(divide="ignore"):
        inv = np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), np.inf)
    value = float(np.sum(np.minimum(inv, cap)))
    q = dirichlet_approx(theta, max(1, top)).q
    bound = math.log(N) ** 3 * (math.sqrt(N) + q + N / q)
    return WeylSum(value=value, bound=bound, q=q)


def interpolated_piece_bound(j: int, K: int, N: int, p: float) -> float:
    """Interpolated L^p bound for the j-th dyadic piece.

    j <= K: j^(2/p) (log j)^(1-2/p) 2^(-(1-2/p) j) N^(-2/p), with log j
    floored at 1 (relevant at j=1 where it would vanish).
    j = K+1: (log N)^(-1/p) N^(-2/p).
    """
    if not p > 2:
        raise ParameterError(f"p must be > 2, got {p}")
    if N < 3:
        raise ParameterError(f"N must be >= 3, got {N}")
    if not 1 <= j <= K + 1:
        raise ParameterError(f"j={j} outside 1..{K + 1}")
    if j == K + 1:
        return math.log(N) ** (-1.0 / p) * N ** (-2.0 / p)
    t = 1.0 - 2.0 / p
    logj = max(math.log(j), 1.0)
    return j ** (2.0 / p) * logj**t * 2.0 ** (-t * j) * N ** (-2.0 / p)
