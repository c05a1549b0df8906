"""Major/minor arc machinery: Dirichlet rational approximation, arc
classification at the (log N)^B cutoff, and the empirical sup-difference
scan of lambda against lambda^{(Q)}.

ArcParams takes A = 4/(p-2) from measures.a_exponent. The closed-form
major-arc main term and the minor-arc bound formulas are not computed by
any subcommand; they live with the tests, in tests/paper.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fourier, measures
from .errors import ParameterError
from .fourier import TorusGrid
from .numutil import loglog_clamped
from .sieve import PrimeTable

MAJOR = "major"
MINOR = "minor"


@dataclass(frozen=True)
class RationalApprox:
    a: int
    q: int


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


def _limit_denominator(n: int, d: int, qmax: int) -> tuple[tuple, tuple]:
    """The fraction (a, q) closest to n/d (d >= 1, coprime) with q <= qmax,
    as Fraction.limit_denominator finds it: the closer of the last
    convergent and the last semiconvergent, the convergent on a tie. Also
    that last continued-fraction convergent with q <= qmax, which the same
    walk ends on."""
    if d <= qmax:
        return (n, d), (n, d)
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
        return (p1, q1), (p1, q1)
    return (p2, q2), (p1, q1)


def dirichlet_approx(theta: float, qmax: int) -> RationalApprox:
    """Best rational a/q with q <= qmax; always satisfies the Dirichlet
    guarantee |theta - a/q| <= 1/(q*qmax).

    Runs the stdlib continued-fraction best approximation on the exact
    integer ratio n/d of theta. The closest fraction often misses the
    guarantee (for one in six theta and qmax drawn uniformly from [0, 1)
    and 1..10^6); the last convergent with q <= qmax, which always
    satisfies it and which the same walk ends on, is returned instead.
    Exact integer arithmetic: the test is |n*q - a*d| * qmax <= d.
    """
    if qmax < 1:
        raise ParameterError(f"qmax must be >= 1, got {qmax}")
    n, d = float(theta).as_integer_ratio()
    (a, q), convergent = _limit_denominator(n, d, qmax)
    if abs(n * q - a * d) * qmax > d:
        a, q = convergent
    return RationalApprox(a=a, q=q)


def classify(theta: float, params: ArcParams) -> ArcLabel:
    """Label theta Major when its Dirichlet denominator is <= (log N)^B."""
    approx = dirichlet_approx(theta, params.Qmax)
    kind = MAJOR if approx.q <= params.q_cutoff else MINOR
    return ArcLabel(kind=kind, a=approx.a, q=approx.q)


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
    profile: dict[str, object] = field(repr=False)
    sup_major_profiled: float | None = None
    sup_minor_profiled: float | None = None


def sup_diff_scan(
    mparams: measures.MeasureParams,
    lam: measures.Measure,
    Q: int,
    grid: TorusGrid,
    table: PrimeTable,
    arc_params: ArcParams,
    profile_points: int,
) -> ScanResult:
    """Scan |lambda^(theta) - lambda^{(Q)^}(theta)| over theta = j/M, with
    lam = lambda_measure(mparams, table) built once by the caller for all
    its Q.

    Returns the grid sup at its argmax, the theta=0 mass mismatch, the
    loglog(Q)/Q reference, and the profile at
    profile_indices(|diff|, profile_points), classified by arc_params
    (classification is done per profiled point, not for all M).
    """
    N = mparams.N
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
        profile={"theta": thetas, "re": diff[idx].real, "im": diff[idx].imag,
                 "abs": mags, "arc_kind": kinds,
                 "a": [lab.a for lab in labels], "q": [lab.q for lab in labels]},
        sup_major_profiled=float(mags[major].max()) if major.any() else None,
        sup_minor_profiled=float(mags[~major].max()) if not major.all() else None,
    )
