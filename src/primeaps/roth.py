"""Bohr-set granularization pipeline: the W-trick rescaling of a dense set
of primes, large-spectrum Bohr sets, the convolution smoothing a -> a*b*b,
the set-like sup chain, exact 3AP counting, and the closing inequality,
plus the Behrend progression-free construction used as control input.

Counts are ordered (x, d) pairs with d = 0 included in 'total'; the
nontrivial count removes the diagonal. On integer sets both kinds are read
from one exact linear convolution (1_A * 1_C)(k), since x, x+d, x+2d in
A, B, C means x + z = 2y with y in B: the integer-line count sums it at
k = 2y, the Z_N count sums it at k = 2y mod N after folding k mod N.
Every Z_N transform goes through `fourier`.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import measures, sieve
from .errors import (
    DegenerateInputError,
    ParameterError,
    PreconditionError,
    StageError,
    TableRangeError,
)
from .fourier import idft, set_convolution, spectrum, triple_count
from .measures import BASE_ZN, Measure
from .numutil import fsum_real, loglog_clamped, rng_stream

DEFAULT_CONSTANTS = {
    "C": 1.0,
    "C_prime": 1.0,
    "C1": 1.0,
    "C2": 1.0,
    "C3": 1.0,
    "C4": 1.0,
}


# ---------------------------------------------------------------------------
# W-trick

@dataclass
class WTrickResult:
    A: np.ndarray
    b: int
    m: int
    N: int
    W: int
    alpha: float
    n_source: int
    m_le_logN: bool


def default_w(n: int) -> int:
    """W = max(1, floor(log log n / 4))."""
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    return max(1, math.floor(0.25 * math.log(math.log(n))))


def w_modulus(W: int) -> int:
    """m = the product of the primes <= max(W, 2); the W-trick always uses
    p = 2, so m is even.

    Every W-trick modulus must fit the factor table, so the product stops
    as soon as it passes sieve.MAX_TABLE_LIMIT (from W = 23 on) with a
    TableRangeError that names W, before a huge W is trial-divided or a
    huge product formatted."""
    m = 1
    for p in range(2, max(W, 2) + 1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            m *= p
            if m > sieve.MAX_TABLE_LIMIT:
                raise TableRangeError(
                    f"W = {W}: the product of the primes <= {p} already "
                    f"exceeds the factor-table limit {sieve.MAX_TABLE_LIMIT}")
    return m


def w_trick(
    A0,
    table: sieve.FactorTable,
    W: int | None = None,
    n: int | None = None,
) -> WTrickResult:
    """Rescale A0 (a set of primes) into A = ((A0 cap [n]) - b)/m inside
    {1..floor(N/2)} with N the smallest prime in (2n/m, 4n/m].

    m = w_modulus(W) is the product of the primes <= max(W, 2), b the
    residue class mod m maximizing the log-weighted
    count (ties to the smallest b). alpha is the lambda_{b,m,N} mass of A.
    """
    A0 = np.unique(np.asarray(A0, dtype=np.int64))
    if A0.size == 0:
        raise DegenerateInputError("A0 is empty")
    if n is None:
        n = int(A0.max())
    A0 = A0[A0 <= n]
    if A0.size == 0:
        raise DegenerateInputError(f"A0 has no elements <= n={n}")
    if not np.all(table.is_prime(A0)):
        raise PreconditionError("A0 must consist of primes")
    if W is None:
        W = default_w(n)
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
    vals = m * A + b
    phi_m = sieve.euler_phi(m, table)
    alpha = fsum_real(phi_m * np.log(vals) / (m * N)) if A.size else 0.0
    return WTrickResult(
        A=A,
        b=b,
        m=m,
        N=N,
        W=W,
        alpha=alpha,
        n_source=n,
        m_le_logN=(m <= math.log(N)),
    )


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
    uses a 1e-12 slack toward inclusion so exact-boundary points stay in.
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
    if not 0 < eps < 1:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    R = np.unique(np.asarray(R, dtype=np.int64)) % N
    R = np.unique(R)
    x = np.arange(N, dtype=np.int64)
    keep = np.ones(N, dtype=bool)
    for r in R:
        d = (x * int(r)) % N
        dist = np.minimum(d, N - d) / N
        keep &= dist <= eps + 1e-12
    return BohrSet(R=R, eps=eps, N=N, members=np.flatnonzero(keep))


def granularize(a: Measure, bohr: BohrSet) -> Measure:
    """a1 = a * beta * beta (Z_N convolution, FFT-backed).

    Preserves total mass; never increases the sup norm. Tiny negative
    float residue is clipped for unsigned inputs.
    """
    if a.N != bohr.N:
        raise ParameterError(f"measure N={a.N} vs Bohr N={bohr.N}")
    fb = spectrum(bohr.beta())
    out = idft(spectrum(a) * fb * fb).real
    if not a.signed:
        out = np.maximum(out, 0.0)
    return Measure(a.N, out, signed=a.signed, base=BASE_ZN)


@dataclass
class SetlikeReport:
    """Each computable step of the sup-norm chain for a1 = a * beta * beta:

    sup a1  <=  N^-1 sum_r |mu~(r)| |beta~(r)|^2        (chain_spectral)
            <=  N^-1 |mu~(0)| + |B|^-1 sup_{r!=0}|mu~|  (chain_sup)
            <=  N^-1 + 2 loglog(W) / (W |B|)            (chain_reference)

    with the set-like verdict sup a1 <= 2/N and the Bohr-dimension gate
    eps^k >= 2 loglog(W)/W stamped alongside. a1 itself is kept for reuse.
    """

    sup_a1: float
    chain_spectral: float
    chain_sup: float
    chain_reference: float | None
    mass_mu: float
    mu_sup_offzero: float
    bohr_size: int
    setlike: bool
    step1_ok: bool
    step2_ok: bool
    gate_ok: bool | None
    a1: Measure = field(repr=False)


def w_reference(W: int) -> float:
    """2 loglog(W) / W: the W-trick's bound on sup_{r != 0} |mu~(r)|, and
    the floor eps^k must clear in the Bohr-dimension gate."""
    return 2.0 * loglog_clamped(W) / W


def mu_sup_offzero(mu: Measure, W: int | None = None):
    """sup and argmax of |mu~(r)| over r != 0, with the w_reference(W)
    reference when W is supplied."""
    mags = np.abs(spectrum(mu))
    mags[0] = -1.0
    argmax = int(np.argmax(mags))
    sup = float(mags[argmax])
    reference = w_reference(W) if W is not None else None
    return sup, argmax, reference


def setlike_check(
    a: Measure,
    mu: Measure,
    bohr: BohrSet,
    W: int | None = None,
) -> SetlikeReport:
    """Verify a <= mu pointwise, granularize, and evaluate the sup chain;
    each comparison of the chain allows 1e-9 of float residue."""
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
    chain_reference = None
    gate_ok = None
    if W is not None:
        ref = w_reference(W)
        chain_reference = 1.0 / a.N + ref / size
        gate_ok = bohr.eps**bohr.k >= ref
    slack = 1e-9
    return SetlikeReport(
        sup_a1=sup_a1,
        chain_spectral=chain_spectral,
        chain_sup=chain_sup,
        chain_reference=chain_reference,
        mass_mu=mass,
        mu_sup_offzero=sup_off,
        bohr_size=size,
        setlike=sup_a1 <= 2.0 / a.N + slack,
        step1_ok=sup_a1 <= chain_spectral + slack,
        step2_ok=chain_spectral <= chain_sup + slack,
        gate_ok=gate_ok,
        a1=a1,
    )


# ---------------------------------------------------------------------------
# 3AP counting

@dataclass(frozen=True)
class Count3APs:
    total: float
    nontrivial: float
    unordered: int | None = None


def _int_set(x) -> np.ndarray:
    if isinstance(x, (set, frozenset)):
        x = sorted(x)
    return np.unique(np.asarray(x, dtype=np.int64))


def count_3aps(a: Measure, b: Measure | None = None,
               c: Measure | None = None) -> Count3APs:
    """Count ordered triples (x, x+d, x+2d) in Z_N weighted by the measures
    a, b, c (b and c default to a): the float total (d=0 included) and its
    nontrivial part. Integer sets are counted by `count_set_3aps`.
    """
    b = a if b is None else b
    c = a if c is None else c
    total = triple_count(a, b, c)
    diag = fsum_real(a.zn_weights() * b.zn_weights() * c.zn_weights())
    return Count3APs(total=total, nontrivial=total - diag)


def count_set_3aps(a, b=None, c=None, *, N: int) -> tuple[Count3APs, Count3APs]:
    """The (Z_N, integer-line) 3AP counts of integer sets in [0, N), both
    read from one exact linear convolution 1_a * 1_c (fourier.set_convolution,
    at a power of two >= 2N-1) summed over y in b: at 2y for the line, at
    2y mod N after folding the convolution mod N for Z_N.
    """
    S = _int_set(a)
    Sb = S if b is None else _int_set(b)
    Sc = S if c is None else _int_set(c)
    for T in (S, Sb, Sc):
        if T.size and (T.min() < 0 or T.max() >= N):
            raise ParameterError(f"set elements must lie in [0, {N})")
    conv = set_convolution(S, Sc, N)
    folded = conv[:N].copy()
    folded[: N - 1] += conv[N:]
    trivial = int(np.intersect1d(np.intersect1d(S, Sb), Sc).size)
    same = np.array_equal(S, Sb) and np.array_equal(S, Sc)
    # in Z_N with N even, the (x, d=N/2) triples are their own reversal
    self_paired = (int(np.intersect1d(S, (S + N // 2) % N).size)
                   if same and N % 2 == 0 else 0)

    def count(total: int, paired: int) -> Count3APs:
        nontrivial = total - trivial
        unordered = (nontrivial - paired) // 2 + paired if same else None
        return Count3APs(total=total, nontrivial=nontrivial, unordered=unordered)

    return (count(int(folded[(2 * Sb) % N].sum()), self_paired),
            count(int(conv[2 * Sb].sum()), 0))


def has_3ap_line(S) -> bool:
    """Brute-force: does S (integers) contain x, x+d, x+2d with d != 0?"""
    vals = sorted(set(int(v) for v in S))
    have = set(vals)
    for i, x in enumerate(vals):
        for z in vals[i + 2 :]:
            if (x + z) % 2 == 0 and (x + z) // 2 in have:
                if (x + z) // 2 != x and (x + z) // 2 != z:
                    return True
    return False


def diagonal_cube_sum(mu: Measure) -> float:
    """sum_x mu(x)^3, the d=0 diagonal of the trilinear form."""
    return fsum_real(mu.weights**3)


# ---------------------------------------------------------------------------
# closing bounds

@dataclass(frozen=True)
class VarnavidesBound:
    M: float
    z_lower: float
    bound: float
    C2_effective: float | None
    clamped: bool
    vacuous: bool


def varnavides_bound(alpha: float, N: int, C1: float = 1.0) -> VarnavidesBound:
    """Lower bound for sum_{x,d} a1(x) a1(x+d) a1(x+2d) when a1 is set-like
    with density alpha: progressions of length M = ceil(exp(C1 alpha^-2 L))
    give Z >= alpha N^2 / (8 M^2) three-term APs, each worth (alpha/2N)^3.

    L = log(1/alpha) clamped below at log 2 (flagged). vacuous marks
    M >= N, where the subprogression argument has no room at this N.
    """
    if not 0 < alpha <= 1:
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    if N < 3:
        raise ParameterError(f"N must be >= 3, got {N}")
    raw_L = math.log(1.0 / alpha)
    clamped = raw_L < math.log(2.0)
    L = max(raw_L, math.log(2.0))
    x = C1 * alpha**-2 * L
    M = math.ceil(math.exp(x)) if x < 700 else math.inf
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
        clamped=clamped,
        vacuous=(M >= N),
    )


@dataclass
class FinalInequality:
    """The closing comparison C' N^(-1/2) + 2^12 eps^2 delta^(-5/2)
    + C delta^(1/2)  >=  exp(-C2 alpha^-2 log(1/alpha)); a 3AP-free dense
    set forces it, so lhs < rhs would be the contradiction."""

    lhs: float
    rhs: float
    term_count_error: float
    term_spectrum: float
    term_tail: float
    contradiction: bool
    gate_ok: bool | None
    bohr_defect_linear: float | None
    bohr_defect_cubic: float | None
    bohr_linear_ok: bool | None
    bohr_cubic_ok: bool | None


def final_inequality(
    alpha: float,
    delta: float,
    eps: float,
    k: int,
    W: int,
    N: int,
    constants: dict | None = None,
    bohr: BohrSet | None = None,
) -> FinalInequality:
    """Evaluate both sides of the closing inequality and, when a Bohr set
    is supplied, the coefficient bounds |1 - beta~(r)| <= 16 eps^2 and
    |1 - beta~(r)^4 beta~(-2r)^2| <= 2^12 eps^2 over its frequency set."""
    if not 0 < alpha <= 1:
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    if not 0 < delta:
        raise ParameterError(f"delta must be > 0, got {delta}")
    if not 0 < eps < 1:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    c = dict(DEFAULT_CONSTANTS)
    c.update(constants or {})
    L = max(math.log(1.0 / alpha), math.log(2.0))
    t1 = c["C_prime"] * N**-0.5
    t2 = 2.0**12 * eps**2 * delta**-2.5
    t3 = c["C"] * math.sqrt(delta)
    lhs = t1 + t2 + t3
    rhs = math.exp(-c["C2"] * alpha**-2 * L)
    gate_ok = None
    lin = cub = None
    lin_ok = cub_ok = None
    if W is not None:
        gate_ok = eps**k >= w_reference(W)
    if bohr is not None:
        bt = spectrum(bohr.beta())
        R = bohr.R
        if R.size:
            br = bt[R % bohr.N]
            br2 = bt[(-2 * R) % bohr.N]
            lin = float(np.max(np.abs(1.0 - br)))
            cub = float(np.max(np.abs(1.0 - br**4 * br2**2)))
            lin_ok = lin <= 16.0 * eps**2 + 1e-9
            cub_ok = cub <= 2.0**12 * eps**2 + 1e-9
        else:
            lin = cub = 0.0
            lin_ok = cub_ok = True
    return FinalInequality(
        lhs=lhs,
        rhs=rhs,
        term_count_error=t1,
        term_spectrum=t2,
        term_tail=t3,
        contradiction=(lhs < rhs),
        gate_ok=gate_ok,
        bohr_defect_linear=lin,
        bohr_defect_cubic=cub,
        bohr_linear_ok=lin_ok,
        bohr_cubic_ok=cub_ok,
    )


# ---------------------------------------------------------------------------
# Behrend construction

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


def _best_sphere(d: int, dim: int) -> np.ndarray:
    """Largest sphere {x = sum x_i d^i : x_i <= (d-1)//2, sum x_i^2 = rho}
    shifted into {1..d^dim}. Digit cap < d/2 rules out carries, the fixed
    square-sum rules out nontrivial progressions (strict convexity)."""
    xs = np.arange(d**dim, dtype=np.int64)
    half = (d - 1) // 2
    tmp = xs.copy()
    ok = np.ones(xs.size, dtype=bool)
    sq = np.zeros(xs.size, dtype=np.int64)
    for _ in range(dim):
        digit = tmp % d
        ok &= digit <= half
        sq += digit * digit
        tmp //= d
    sq_ok = sq[ok]
    if sq_ok.size == 0:
        return np.empty(0, dtype=np.int64)
    rho = int(np.argmax(np.bincount(sq_ok)))
    return xs[ok & (sq == rho)] + 1


def behrend_set(N: int) -> np.ndarray:
    """A 3AP-free subset of {1..N}: the best digit-sphere construction,
    or the greedy progression-free fallback when that is larger."""
    if N < 8:
        raise ParameterError(f"N must be >= 8, got {N}")
    best = np.asarray(_greedy_free(range(1, N + 1)), dtype=np.int64)
    d = 3
    while d * d <= N:
        dim = 2
        while d**dim <= N:
            cand = _best_sphere(d, dim)
            if cand.size > best.size:
                best = cand
            dim += 1
        d += 1
    return np.sort(best)


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
    table: sieve.FactorTable,
    seed: int = 0,
    delta: float = 0.1,
    eps: float = 0.1,
    W: int | None = None,
    constants: dict | None = None,
    artifacts: dict | None = None,
) -> dict:
    """Run the full chain source -> W-trick -> measure -> spectrum -> Bohr
    -> granularize -> counts -> closing bounds and return a plain-JSON
    report. Deterministic for a fixed seed. A failing stage raises
    StageError tagged source, w-trick, measure, transform, bohr,
    granularize, counts or bounds.

    Pass a dict as `artifacts` to receive the intermediate arrays (the
    rescaled set, measures, spectrum, Bohr members, granularized measure)
    for export; the report itself stays scalar-only.
    """
    artifacts = {} if artifacts is None else artifacts
    report: dict = {
        "params": {
            "source": source,
            "n": n,
            "seed": seed,
            "delta": delta,
            "eps": eps,
            "W": W,
            "constants": dict(DEFAULT_CONSTANTS) | (constants or {}),
            "subset_density": SUBSET_DENSITY,
        }
    }
    with _stage("source"):
        A0, ps = _build_source(source, n, table, seed)
        if A0.size == 0:
            raise DegenerateInputError("source selection is empty")
        _, src_counts = count_set_3aps(A0, N=int(A0.max()) + 1)
        report["source"] = {
            "size": int(A0.size),
            "primes_below_n": int(ps.size),
            "alpha0": float(A0.size / ps.size),
            "line_3aps_nontrivial": int(src_counts.nontrivial),
            "three_ap_free": bool(src_counts.nontrivial == 0),
        }
        artifacts["A0"] = A0
    with _stage("w-trick"):
        wt = w_trick(A0, table, W=W, n=n)
        report["w_trick"] = {
            "b": wt.b,
            "m": wt.m,
            "N": wt.N,
            "W": wt.W,
            "alpha": wt.alpha,
            "size_A": int(wt.A.size),
            "m_le_logN": wt.m_le_logN,
        }
        artifacts["A"] = wt.A
        artifacts["w_trick"] = wt
    with _stage("measure"):
        mparams = measures.MeasureParams(b=wt.b, m=wt.m, N=wt.N)
        mu = measures.lambda_measure(mparams, table).as_zn()
        aw = np.zeros(wt.N, dtype=np.float64)
        aw[wt.A % wt.N] = mu.weights[wt.A % wt.N]
        a = Measure(wt.N, aw, signed=False, base=BASE_ZN)
        report["measure"] = {"mass_mu": mu.total, "mass_a": a.total}
        artifacts["mu"] = mu
        artifacts["a"] = a
    with _stage("transform"):
        at = spectrum(a)
        R = spectrum_threshold(at, delta)
        sup_off, arg_off, ref_off = mu_sup_offzero(mu, W=wt.W)
        report["spectrum"] = {
            "delta": delta,
            "k": int(R.size),
            "R_head": [int(r) for r in R[:32]],
            "mu_sup_offzero": sup_off,
            "mu_sup_argmax": arg_off,
            "mu_sup_reference": ref_off,
        }
        artifacts["spectrum"] = at
        artifacts["R"] = R
    with _stage("bohr"):
        B = bohr_set(R, eps, wt.N)
        report["bohr"] = {
            "eps": eps,
            "k": B.k,
            "size": len(B),
            "size_floor": float(eps**B.k * wt.N),
            "size_ok": bool(len(B) >= eps**B.k * wt.N),
        }
        artifacts["bohr"] = B
    with _stage("granularize"):
        sl = setlike_check(a, mu, B, W=wt.W)
        report["setlike"] = {
            "sup_a1": sl.sup_a1,
            "chain_spectral": sl.chain_spectral,
            "chain_sup": sl.chain_sup,
            "chain_reference": sl.chain_reference,
            "setlike": sl.setlike,
            "step1_ok": sl.step1_ok,
            "step2_ok": sl.step2_ok,
            "gate_ok": sl.gate_ok,
        }
        artifacts["a1"] = sl.a1
    with _stage("counts"):
        t_a = count_3aps(a)
        # a1 is transformed afresh here, not taken from a~ beta~^2, so the
        # difference residual below stays an independent check
        t_a1 = count_3aps(sl.a1)
        bt = spectrum(B.beta())
        idx = (-2 * np.arange(wt.N)) % wt.N
        spectral_diff = float(
            np.sum(at**2 * at[idx] * (1.0 - bt**4 * bt[idx] ** 2)).real / wt.N
        )
        exact_wrapped, exact_line = count_set_3aps(wt.A, N=wt.N)
        report["counts"] = {
            "triple_a": t_a.total,
            "triple_a_nontrivial": t_a.nontrivial,
            "triple_a1": t_a1.total,
            "triple_a1_nontrivial": t_a1.nontrivial,
            "spectral_difference": spectral_diff,
            "difference_residual": abs((t_a.total - t_a1.total) - spectral_diff),
            "diagonal_mu_cubed": diagonal_cube_sum(mu),
            "A_3aps_wrapped_nontrivial": int(exact_wrapped.nontrivial),
            "A_3aps_line_nontrivial": int(exact_line.nontrivial),
            "A_3aps_unordered": int(exact_line.unordered or 0),
        }
    with _stage("bounds"):
        consts = report["params"]["constants"]
        vb = varnavides_bound(min(wt.alpha, 1.0), wt.N, C1=consts["C1"])
        fi = final_inequality(
            min(wt.alpha, 1.0), delta, eps, int(R.size), wt.W, wt.N,
            constants=consts, bohr=B,
        )
        report["bounds"] = {
            "varnavides_M": vb.M if not math.isinf(vb.M) else "inf",
            "varnavides_z_lower": vb.z_lower,
            "varnavides_bound": vb.bound,
            "varnavides_vacuous": vb.vacuous,
            "varnavides_clamped": vb.clamped,
            "lhs": fi.lhs,
            "rhs": fi.rhs,
            "contradiction": fi.contradiction,
            "gate_ok": fi.gate_ok,
            "bohr_defect_linear": fi.bohr_defect_linear,
            "bohr_defect_cubic": fi.bohr_defect_cubic,
            "bohr_linear_ok": fi.bohr_linear_ok,
            "bohr_cubic_ok": fi.bohr_cubic_ok,
        }
    # the headline density threshold uses 5-fold iterated logs; it is out of
    # numeric range at any computable N and is carried as a formula only
    report["headline"] = {
        "formula": "alpha >= C4 * sqrt(log5(N) / log4(N))",
        "numeric": None,
    }
    return report
