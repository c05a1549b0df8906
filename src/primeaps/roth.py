"""Bohr-set granularization pipeline: the W-trick rescaling of a dense set
of primes, large-spectrum Bohr sets, the convolution smoothing a -> a*b*b,
the set-like sup chain, exact 3AP counting, and the closing inequality,
plus the base-3 progression-free set used as control input.

Every inequality the pipeline decides is one `Check` in the report's
ledger, made by `check`, the one home of its slack rule.

Counts are ordered (x, d) pairs with d = 0 included in 'total'; the
nontrivial count removes the diagonal. An integer set is counted on the
line by `line_3aps`, from exact linear convolutions: x, x+d, x+2d in S
means x + z = 2y with y in S, and x = z (mod 2), so each parity class
takes its own. The W-trick image A lies in [1, N/2] with N an odd prime,
so its count in Z_N is that line count. Every Z_N transform goes through
`fourier`.
"""

from __future__ import annotations

import contextlib
import math
import operator
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from . import measures, sieve
from .errors import (
    DegenerateInputError,
    ParameterError,
    PreconditionError,
    StageError,
    TableRangeError,
    shown,
)
from .fourier import (
    idft,
    self_triple_count,
    set_convolution,
    spectrum,
    triple_count,
)
from .measures import BASE_ZN, Measure
from .numutil import fsum_real, loglog_clamped, rng_stream

DEFAULT_CONSTANTS = {
    "C": 1.0,
    "C_prime": 1.0,
    "C1": 1.0,
    "C2": 1.0,
}


def closing_constants(overrides: dict | None) -> dict:
    """DEFAULT_CONSTANTS with the given entries replaced."""
    return DEFAULT_CONSTANTS | (overrides or {})


# ---------------------------------------------------------------------------
# the check ledger

CHECK_RTOL = 1e-9  # the slack of a side read off a transform, of the larger side
_RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Check:
    """One inequality of the argument as the report records it: whether
    `lhs relation rhs` holds at `stage`, allowing `slack`. margin is
    log10 of the ratio of the sides, signed so that it is positive when
    the relation holds with room (for "==", minus the distance from
    equality); None unless both sides are positive."""

    name: str
    stage: str
    lhs: float
    relation: str
    rhs: float
    slack: float
    holds: bool
    margin: float | None


def check(name: str, stage: str, lhs, relation: str, rhs, transform: bool) -> Check:
    """The ledger entry of `lhs relation rhs`. The one slack rule: when a
    side is read off a floating-point transform (`transform`), the sides
    may miss the relation by CHECK_RTOL of the larger side; exact sides
    allow none, so a tie of "<=", ">=" or "==" holds and one of "<" does
    not."""
    slack = CHECK_RTOL * max(abs(lhs), abs(rhs)) if transform else 0.0
    holds = _RELATIONS[relation](lhs, rhs) or abs(lhs - rhs) < slack
    margin = None
    if lhs > 0 and rhs > 0:
        # each difference is +0.0, not -0.0, at a tie
        up = math.log10(lhs) - math.log10(rhs)
        down = math.log10(rhs) - math.log10(lhs)
        margin = {"<=": down, "<": down, ">=": up, "==": min(up, down)}[relation]
    return Check(name, stage, lhs, relation, rhs, slack, bool(holds), margin)


# ---------------------------------------------------------------------------
# W-trick

@dataclass
class WTrickResult:
    A: np.ndarray
    b: int
    m: int
    N: int


def w_modulus(W: int) -> int:
    """m = the product of the primes <= max(W, 2); the W-trick always uses
    p = 2, so m is even.

    Every W-trick modulus must fit the prime table, so the product stops
    as soon as it passes sieve.MAX_TABLE_LIMIT (from W = 23 on) with a
    TableRangeError that names W, before a huge W is trial-divided or a
    huge product formatted."""
    m = 1
    for p in range(2, max(W, 2) + 1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            m *= p
            if m > sieve.MAX_TABLE_LIMIT:
                raise TableRangeError(
                    f"W = {shown(W)}: the product of the primes <= {p} already "
                    f"exceeds the prime-table limit {sieve.MAX_TABLE_LIMIT}")
    return m


def w_trick(A0, table: sieve.PrimeTable, W: int, n: int) -> WTrickResult:
    """Rescale A0 (a set of primes) into A = ((A0 cap [n]) - b)/m inside
    {1..floor(N/2)} with N the smallest prime in (2n/m, 4n/m].

    m = w_modulus(W) is the product of the primes <= max(W, 2); b is the
    residue class mod m maximizing the log-weighted count (ties to the
    smallest b). The density alpha of A is its lambda_{b,m,N} mass, read
    off the measure (density_experiment's measure stage).
    """
    A0 = np.unique(np.asarray(A0, dtype=np.int64))
    if A0.size == 0:
        raise DegenerateInputError("A0 is empty")
    A0 = A0[A0 <= n]
    if A0.size == 0:
        raise DegenerateInputError(f"A0 has no elements <= n={n}")
    if not np.all(table.is_prime(A0)):
        raise PreconditionError("A0 must consist of primes")
    if W < 1:
        raise ParameterError(f"W must be >= 1, got {W}")
    m = w_modulus(W)
    scores = np.zeros(m, dtype=np.float64)
    np.add.at(scores, A0 % m, np.log(A0))
    bs = np.arange(m)
    coprime = np.gcd(bs, m) == 1
    scores[~coprime] = -1.0
    b = int(np.argmax(scores))
    if scores[b] <= 0.0:
        raise DegenerateInputError("no coprime residue class carries mass")
    lo = 2 * n // m
    hi = (4 * n) // m
    table.check_range(hi)
    N = None
    for cand in range(lo + 1, hi + 1):
        if table.is_prime(cand):
            N = cand
            break
    if N is None:
        raise DegenerateInputError(f"no prime in ({lo}, {hi}]")
    sel = A0[A0 % m == b]
    A = (sel - b) // m
    A = A[(A >= 1) & (A <= N // 2)]
    if A.size == 0:
        raise DegenerateInputError(
            f"A is empty: no prime p <= n = {n} in the class b = {b} mod "
            f"m = {m} has (p - b)/m in [1, floor(N/2)] = [1, {N // 2}]")
    return WTrickResult(A=A, b=b, m=m, N=N)


# ---------------------------------------------------------------------------
# spectrum and Bohr sets

def spectrum_threshold(coeffs: np.ndarray, delta: float) -> np.ndarray:
    """Frequencies r with |f~(r)| >= delta, ascending, from the
    coefficients f~(0..N-1) that `spectrum` returns."""
    if not delta > 0:
        raise ParameterError(f"delta must be > 0, got {delta}")
    return np.flatnonzero(np.abs(coeffs) >= delta).astype(np.int64)


@dataclass
class BohrSet:
    """B(R, eps) = { x in Z_N : ||x r / N|| <= eps for all r in R }.

    Contains 0, is symmetric, and has at least eps^k N elements. Membership
    is decided in exact integers: N ||x r / N|| = min(d, N - d) with
    d = x r mod N is an integer, so x is in B exactly when
    min(d, N - d) <= floor(eps N) for every r, with floor(eps N) taken from
    the exact value of the float eps. No slack is added either way.
    """

    R: np.ndarray
    eps: float
    N: int
    members: np.ndarray = field(repr=False)
    _beta: Measure | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self) -> None:
        self.members.setflags(write=False)

    @property
    def k(self) -> int:
        return int(self.R.size)

    def __len__(self) -> int:
        return int(self.members.size)

    def beta(self) -> Measure:
        """The normalized indicator beta = 1_B / |B| on Z_N, built once."""
        if self._beta is None:
            w = np.zeros(self.N, dtype=np.float64)
            w[self.members] = 1.0 / self.members.size
            self._beta = Measure(self.N, w, signed=False, base=BASE_ZN)
        return self._beta


def bohr_set(R, eps: float, N: int) -> BohrSet:
    """B(R, eps) in Z_N, built from one progression and filtered.

    For the first nonzero r, with g = gcd(r, N) and N' = N / g, the x with
    ||x r / N|| <= eps are the lifts mod N of u t mod N', for
    |t| <= floor(eps N') and u the inverse of r / g mod N'. The other r of
    R only filter those candidates; 0 in R filters nothing. Members come
    out ascending.
    """
    if not 0 < eps < 1:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    R = np.unique(np.asarray(R, dtype=np.int64) % N)
    num, den = eps.as_integer_ratio()
    T = N * num // den  # floor(eps N), exactly
    nonzero = [int(r) for r in R if r]
    if not nonzero:
        return BohrSet(R=R, eps=eps, N=N, members=np.arange(N, dtype=np.int64))
    r0 = nonzero[0]
    g = math.gcd(r0, N)
    Np = N // g
    Tp = T // g  # floor(eps N'), as floor(floor(eps N) / g)
    if 2 * Tp + 1 < Np:
        t = np.arange(-Tp, Tp + 1, dtype=np.int64)  # distinct mod N'
        base = (pow(r0 // g, -1, Np) * t) % Np
    else:
        base = np.arange(Np, dtype=np.int64)
    x = (base[:, None] + Np * np.arange(g, dtype=np.int64)).ravel()
    for r in nonzero[1:]:
        d = (x * r) % N
        x = x[np.minimum(d, N - d) <= T]
    x.sort()
    return BohrSet(R=R, eps=eps, N=N, members=x)


def granularize(a: Measure, bohr: BohrSet) -> Measure:
    """a1 = a * beta * beta (Z_N convolution, FFT-backed).

    Preserves total mass; never increases the sup norm. Tiny negative
    float residue is clipped for unsigned inputs.
    """
    if a.N != bohr.N:
        raise ParameterError(f"measure N={a.N} vs Bohr N={bohr.N}")
    fb = spectrum(bohr.beta())
    out = idft(spectrum(a) * fb * fb)
    if not a.signed:
        np.maximum(out, 0.0, out=out)
    return Measure(a.N, out, signed=a.signed, base=BASE_ZN)


@dataclass
class SetlikeReport:
    """Each computable step of the sup-norm chain for a1 = a * beta * beta:

    sup a1  <=  N^-1 sum_r |mu~(r)| |beta~(r)|^2        (chain_spectral)
            <=  N^-1 |mu~(0)| + |B|^-1 sup_{r!=0}|mu~|  (chain_sup)
            <=  N^-1 + 2 loglog(W) / (W |B|)            (chain_reference)

    and its checks: the set-like verdict sup a1 <= 2/N, the first two
    steps, and the Bohr-dimension gate eps^k >= 2 loglog(W)/W. a1 itself
    is kept for reuse.
    """

    sup_a1: float
    chain_spectral: float
    chain_sup: float
    chain_reference: float
    checks: tuple[Check, ...]
    a1: Measure = field(repr=False)


def w_reference(W: int) -> float:
    """2 loglog(W) / W: the W-trick's bound on sup_{r != 0} |mu~(r)|, and
    the floor eps^k must clear in the Bohr-dimension gate."""
    return 2.0 * loglog_clamped(W) / W


def mu_sup_offzero(mu: Measure, W: int):
    """sup and argmax of |mu~(r)| over r != 0, with its w_reference(W)
    reference."""
    mags = np.abs(spectrum(mu))
    mags[0] = -1.0
    argmax = int(np.argmax(mags))
    return float(mags[argmax]), argmax, w_reference(W)


def setlike_check(a: Measure, mu: Measure, bohr: BohrSet, W: int) -> SetlikeReport:
    """Verify a <= mu pointwise, granularize, and evaluate the sup chain;
    its comparisons read transforms, the gate's sides do not."""
    if a.N != mu.N or a.N != bohr.N:
        raise ParameterError("a, mu and the Bohr set must share N")
    if float(np.max(a.zn_weights() - mu.zn_weights())) > 1e-12:
        raise PreconditionError("a must be dominated by mu pointwise")
    a1 = granularize(a, bohr)
    sup_a1 = float(np.max(a1.weights))
    mut = np.abs(spectrum(mu))
    bt2 = np.abs(spectrum(bohr.beta())) ** 2
    chain_spectral = float(np.sum(mut * bt2)) / a.N
    mass = float(mut[0])
    sup_off = float(np.max(mut[1:])) if a.N > 1 else 0.0
    size = len(bohr)
    chain_sup = mass / a.N + sup_off / size
    ref = w_reference(W)
    return SetlikeReport(
        sup_a1=sup_a1,
        chain_spectral=chain_spectral,
        chain_sup=chain_sup,
        chain_reference=1.0 / a.N + ref / size,
        checks=(
            check("setlike", "granularize", sup_a1, "<=", 2.0 / a.N, True),
            check("step1_ok", "granularize", sup_a1, "<=", chain_spectral, True),
            check("step2_ok", "granularize", chain_spectral, "<=", chain_sup, True),
            check("gate_ok", "granularize", bohr.eps**bohr.k, ">=", ref, False),
        ),
        a1=a1,
    )


# ---------------------------------------------------------------------------
# 3AP counting

@dataclass(frozen=True)
class Count3APs:
    total: float
    nontrivial: float


def count_3aps(a: Measure) -> Count3APs:
    """Count ordered triples (x, x+d, x+2d) in Z_N weighted by the measure
    a: the float total (d=0 included) and its nontrivial part. Integer sets
    are counted by `line_3aps`.
    """
    total = triple_count(a, a, a)
    return Count3APs(total=total, nontrivial=total - diagonal_cube_sum(a))


def line_3aps(S) -> Count3APs:
    """The integer-line 3AP count of an integer set S of values >= 0,
    counted on each parity class: x + z = 2y forces x = z (mod 2), so with
    S_c = {(s - c) / 2 : s in S, s = c (mod 2)}, the pairs of class c
    that meet at y are read off (1_{S_c} * 1_{S_c})(y - c). Each class
    takes its own `set_convolution`, at the power of two
    >= 2 max(S_c) + 1, about half the line of S.
    """
    S = np.unique(np.asarray(S, dtype=np.int64))
    if S.size and S.min() < 0:
        raise ParameterError("set elements must be >= 0")
    line = 0
    for c in (0, 1):
        half = (S[S % 2 == c] - c) // 2
        if half.size == 0:
            continue
        conv = set_convolution(half)
        k = S - c
        line += int(conv[k[(k >= 0) & (k < conv.size)]].sum())
    return Count3APs(total=line, nontrivial=line - S.size)


def diagonal_cube_sum(mu: Measure) -> float:
    """sum_x mu(x)^3, the d=0 diagonal of the trilinear form. Only the
    nonzero weights are cubed: a zero weight's cube adds nothing."""
    nonzero = mu.weights[mu.weights != 0]
    return fsum_real(np.power(nonzero, 3, out=nonzero))


# ---------------------------------------------------------------------------
# closing bounds

def _exp(x: float) -> float:
    """math.exp(x), inf where it leaves the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _closing_exponent(c: float, alpha: float, L: float) -> float:
    """c alpha^-2 L, the exponent of both closing bounds; +-inf, not an
    OverflowError, where it leaves the float range."""
    try:
        return c * alpha**-2 * L
    except OverflowError:  # alpha^-2 leaves the range; the product need not
        return c * L / alpha / alpha if c else 0.0


@dataclass(frozen=True)
class VarnavidesBound:
    M: float
    z_lower: float
    bound: float
    C2_effective: float | None
    checks: tuple[Check, ...]


def varnavides_bound(alpha: float, N: int, C1: float) -> VarnavidesBound:
    """Lower bound for sum_{x,d} a1(x) a1(x+d) a1(x+2d) when a1 is set-like
    with density alpha: progressions of length M = ceil(exp(C1 alpha^-2 L))
    give Z >= alpha N^2 / (8 M^2) three-term APs, each worth (alpha/2N)^3.

    L = log(1/alpha) clamped below at log 2 (the check varnavides_clamped).
    The check varnavides_vacuous is M >= N, where the subprogression
    argument has no room at this N. An exp(x) past the float range gives
    M = inf, one that underflows M = 1.
    """
    if not 0 < alpha <= 1:
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    if N < 3:
        raise ParameterError(f"N must be >= 3, got {N}")
    raw_L = math.log(1.0 / alpha)
    L = max(raw_L, math.log(2.0))
    x = _closing_exponent(C1, alpha, L)
    M = max(1, math.ceil(math.exp(x))) if x < 700 else math.inf
    if math.isinf(M):
        z_lower = 0.0
        bound = 0.0
    elif M < 1e150:
        z_lower = alpha * N**2 / (8.0 * M**2)
        bound = z_lower * alpha**3 / (8.0 * N**3)
    else:
        # M^2 leaves float range; evaluate in logs, underflow to 0
        log_z = math.log(alpha) + 2.0 * math.log(N) - math.log(8.0) \
            - 2.0 * math.log(M)
        z_lower = math.exp(log_z) if log_z > -745.0 else 0.0
        bound = z_lower * alpha**3 / (8.0 * N**3)
    C2_eff = None
    if bound > 0.0:
        C2_eff = -math.log(bound * N) * alpha**2 / L
    return VarnavidesBound(
        M=M,
        z_lower=z_lower,
        bound=bound,
        C2_effective=C2_eff,
        checks=(
            check("varnavides_vacuous", "bounds", M, ">=", N, False),
            check("varnavides_clamped", "bounds", raw_L, "<", math.log(2.0), False),
        ),
    )


@dataclass
class FinalInequality:
    """The closing comparison C' N^(-1/2) + 2^12 eps^2 delta^(-5/2)
    + C delta^(1/2)  >=  exp(-C2 alpha^-2 log(1/alpha)); a 3AP-free dense
    set forces it, so lhs < rhs would be the contradiction (its check),
    beside the Bohr-coefficient defects and their checks."""

    lhs: float
    rhs: float
    bohr_defect_linear: float
    bohr_defect_cubic: float
    checks: tuple[Check, ...]


def final_inequality(
    alpha: float,
    delta: float,
    eps: float,
    N: int,
    constants: dict | None,
    bohr: BohrSet,
) -> FinalInequality:
    """Evaluate both sides of the closing inequality and the coefficient
    bounds |1 - beta~(r)| <= 16 eps^2 and
    |1 - beta~(r)^4 beta~(-2r)^2| <= 2^12 eps^2 over the Bohr set's
    frequency set (0 and met when it is empty).
    `constants` overrides entries of DEFAULT_CONSTANTS. A side past the
    float range is inf."""
    if not 0 < alpha <= 1:
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    if not 0 < delta:
        raise ParameterError(f"delta must be > 0, got {delta}")
    if not 0 < eps < 1:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    c = closing_constants(constants)
    L = max(math.log(1.0 / alpha), math.log(2.0))
    try:
        spectral = 2.0**12 * eps**2 * delta**-2.5
    except OverflowError:  # delta^-2.5 leaves the float range
        spectral = _exp(12.0 * math.log(2.0) + 2.0 * math.log(eps)
                        - 2.5 * math.log(delta))
    lhs = c["C_prime"] * N**-0.5 + spectral + c["C"] * math.sqrt(delta)
    rhs = _exp(-_closing_exponent(c["C2"], alpha, L))
    R = bohr.R
    lin = cub = 0.0
    if R.size:
        bt = spectrum(bohr.beta())
        br = bt[R % bohr.N]
        br2 = bt[(-2 * R) % bohr.N]
        lin = float(np.max(np.abs(1.0 - br)))
        cub = float(np.max(np.abs(1.0 - br**4 * br2**2)))
    return FinalInequality(
        lhs=lhs,
        rhs=rhs,
        bohr_defect_linear=lin,
        bohr_defect_cubic=cub,
        checks=(
            check("contradiction", "bounds", lhs, "<", rhs, False),
            check("bohr_linear_ok", "bounds", lin, "<=", 16.0 * eps**2, True),
            check("bohr_cubic_ok", "bounds", cub, "<=", 2.0**12 * eps**2, True),
        ),
    )


# ---------------------------------------------------------------------------
# progression-free sets

def _greedy_free(values) -> list[int]:
    """Keep each value, in the given (ascending) order, that completes no
    3AP with two values already kept."""
    out: list[int] = []
    forbidden: set[int] = set()
    for x in values:
        if x in forbidden:
            continue
        for a in out:
            forbidden.add(2 * x - a)
        out.append(x)
    return out


BEHREND_MIN_N = 8  # the smallest N behrend_set takes
BEHREND_MAX_N = 10**8  # the largest; up to it no digit sphere is larger


def behrend_set(N: int) -> np.ndarray:
    """1 + {n < N : no base-3 digit of n is 2}, ascending: the greedy
    3AP-free set on 1..N (Odlyzko-Stanley); x + z = 2y adds such digits
    without carries. At N = 3^k it has 2^k values, so behrend's fitted_c,
    -log(|S|/N)/sqrt(log N), is (1 - log 2/log 3) sqrt(log N) there. Up to
    BEHREND_MAX_N no Behrend digit sphere with d^dim <= N is larger."""
    if not BEHREND_MIN_N <= N <= BEHREND_MAX_N:
        raise ParameterError(
            f"N must be in [{BEHREND_MIN_N}, {BEHREND_MAX_N}], got {shown(N)}")
    n = np.zeros(1, dtype=np.int64)
    power = 1
    while power < N:
        n = np.concatenate((n, n + power))
        power *= 3
    return n[:np.searchsorted(n, N)] + 1


# ---------------------------------------------------------------------------
# full pipeline

SOURCES = ("primes", "behrend-in-primes", "random-subset-of-primes")
SUBSET_DENSITY = 0.5  # chance that random-subset-of-primes keeps each prime


def _build_source(source: str, n: int, table, seed: int):
    ps = table.primes_up_to(n)
    if ps.size == 0:
        raise DegenerateInputError(f"no primes <= {n}")
    if source == "primes":
        return ps, ps
    if source == "random-subset-of-primes":
        rng = rng_stream(seed, "source")
        keep = rng.random(ps.size) < SUBSET_DENSITY
        return ps[keep], ps
    if source == "behrend-in-primes":
        idx = behrend_set(int(ps.size))
        free = _greedy_free(ps[idx - 1].tolist())
        return np.asarray(free, dtype=np.int64), ps
    raise ParameterError(f"unknown source {source!r}; pick one of {SOURCES}")


@contextlib.contextmanager
def _stage(name: str):
    """Retag any failure inside the block as StageError(name), chained to
    the original exception."""
    try:
        yield
    except Exception as exc:  # noqa: BLE001 - retagged per stage
        raise StageError(name, str(exc)) from exc


def density_experiment(
    source: str,
    n: int,
    table: sieve.PrimeTable,
    *,
    seed: int,
    delta: float,
    eps: float,
    W: int,
    constants: dict | None,
    keep: Callable[[str, object], None],
) -> dict:
    """Run the full chain source -> W-trick -> measure -> spectrum -> Bohr
    -> granularize -> counts -> closing bounds and return a plain-JSON
    report: a block of numbers per stage, and under "checks" the ledger of
    every inequality decided on the way, one `Check` each, in stage order.
    Deterministic for a fixed seed. A failing stage raises
    StageError tagged source, w-trick, measure, transform, bohr,
    granularize, counts or bounds.

    W selects the W-trick's modulus (w_modulus), and `constants` overrides
    entries of DEFAULT_CONSTANTS. The report itself stays scalar-only. Each
    intermediate goes to the callback keep(name, value) once its stage has
    made it, in this order: "A0" (source), "A" (w-trick), "mu" and "a"
    (measure), "spectrum" (transform), "bohr" (bohr) and "a1"
    (granularize). No value changes after it is kept, so a caller may read
    it while the later stages run (the CLI writes its tables meanwhile).
    keep runs inside its stage: an error it raises is tagged with that
    stage.
    """
    report: dict = {
        "params": {
            "source": source,
            "n": n,
            "seed": seed,
            "delta": delta,
            "eps": eps,
            "W": W,
            "constants": closing_constants(constants),
            "subset_density": SUBSET_DENSITY,
        }
    }
    checks: list[Check] = []
    with _stage("source"):
        A0, ps = _build_source(source, n, table, seed)
        if A0.size == 0:
            raise DegenerateInputError("source selection is empty")
        src_counts = line_3aps(A0)
        report["source"] = {
            "size": int(A0.size),
            "primes_below_n": int(ps.size),
            "alpha0": float(A0.size / ps.size),
            "line_3aps_nontrivial": int(src_counts.nontrivial),
        }
        checks.append(check("three_ap_free", "source", int(src_counts.nontrivial),
                            "==", 0, False))
        keep("A0", A0)
    with _stage("w-trick"):
        wt = w_trick(A0, table, W=W, n=n)
        report["w_trick"] = {"b": wt.b, "m": wt.m, "N": wt.N, "size_A": int(wt.A.size)}
        checks.append(check("m_le_logN", "w-trick", wt.m, "<=", math.log(wt.N), False))
        keep("A", wt.A)
    with _stage("measure"):
        mparams = measures.MeasureParams(b=wt.b, m=wt.m, N=wt.N)
        mu = measures.lambda_measure(mparams, table).as_zn()
        aw = np.zeros(wt.N, dtype=np.float64)
        aw[wt.A % wt.N] = mu.weights[wt.A % wt.N]
        a = Measure(wt.N, aw, signed=False, base=BASE_ZN)
        del aw  # a owns the array now, read-only
        # mass_a is the W-trick's density alpha
        report["measure"] = {"mass_mu": mu.total, "mass_a": a.total}
        keep("mu", mu)
        keep("a", a)
    with _stage("transform"):
        at = spectrum(a)
        R = spectrum_threshold(at, delta)
        # how far the nearest |a~(r)| sits from the threshold
        margin = float(np.min(np.abs(np.abs(at) - delta)))
        sup_off, arg_off, ref_off = mu_sup_offzero(mu, W=W)
        report["spectrum"] = {
            "k": int(R.size),
            "R_head": [int(r) for r in R[:32]],
            "delta_margin": margin,
            "mu_sup_offzero": sup_off,
            "mu_sup_argmax": arg_off,
            "mu_sup_reference": ref_off,
        }
        keep("spectrum", at)
    with _stage("bohr"):
        B = bohr_set(R, eps, wt.N)
        size_floor = float(eps**B.k * wt.N)
        report["bohr"] = {"size": len(B), "size_floor": size_floor}
        checks.append(check("size_ok", "bohr", len(B), ">=", size_floor, False))
        keep("bohr", B)
    with _stage("granularize"):
        sl = setlike_check(a, mu, B, W=W)
        report["setlike"] = {
            "sup_a1": sl.sup_a1,
            "chain_spectral": sl.chain_spectral,
            "chain_sup": sl.chain_sup,
            "chain_reference": sl.chain_reference,
        }
        checks.extend(sl.checks)
        keep("a1", sl.a1)
    with _stage("counts"):
        t_a = count_3aps(a)
        # a1's count reads its weights, not a~ beta~^2, so the difference
        # residual below stays an independent check
        a1_total = self_triple_count(sl.a1)
        t_a1 = Count3APs(total=a1_total,
                         nontrivial=a1_total - diagonal_cube_sum(sl.a1))
        bt = spectrum(B.beta())
        idx = (-2 * np.arange(wt.N)) % wt.N
        # a~^2 a~(-2r) (1 - b~^4 b~(-2r)^2), its products taken in place
        # in that order
        terms = at**2
        terms *= at[idx]
        defect = bt**4
        defect *= bt[idx] ** 2
        np.subtract(1.0, defect, out=defect)
        terms *= defect
        spectral_diff = float(np.sum(terms).real / wt.N)
        del terms, defect
        # A lies in [1, N/2] with N an odd prime (N = 2 needs n < m, which
        # leaves A empty and w_trick refuses), so x + z and 2y lie in
        # [2, N - 1], where congruence mod N is equality, and A's Z_N
        # count is its line count
        exact = line_3aps(wt.A)
        report["counts"] = {
            "triple_a": t_a.total,
            "triple_a_nontrivial": t_a.nontrivial,
            "triple_a1": t_a1.total,
            "triple_a1_nontrivial": t_a1.nontrivial,
            "spectral_difference": spectral_diff,
            "difference_residual": abs((t_a.total - t_a1.total) - spectral_diff),
            "diagonal_mu_cubed": diagonal_cube_sum(mu),
            "A_3aps_wrapped_nontrivial": exact.nontrivial,
            "A_3aps_line_nontrivial": exact.nontrivial,
        }
    with _stage("bounds"):
        consts = report["params"]["constants"]
        alpha = min(a.total, 1.0)
        vb = varnavides_bound(alpha, wt.N, C1=consts["C1"])
        fi = final_inequality(alpha, delta, eps, wt.N,
                              constants=consts, bohr=B)
        report["bounds"] = {
            "varnavides_M": vb.M,
            "varnavides_z_lower": vb.z_lower,
            "varnavides_bound": vb.bound,
            "lhs": fi.lhs,
            "rhs": fi.rhs,
            "bohr_defect_linear": fi.bohr_defect_linear,
            "bohr_defect_cubic": fi.bohr_defect_cubic,
        }
        checks.extend(vb.checks + fi.checks)
    report["checks"] = [asdict(c) for c in checks]
    return report
