"""Prime and almost-prime measures on {1..N}, their dyadic decomposition,
and the local (mod q) densities with exponential-sum coefficients in both
closed form and direct summation.

lambda_{b,m,N} puts weight phi(m) log(nm+b) / (mN) on each n <= N with
nm+b prime; lambda^{(Q)} puts the Mertens-normalized uniform weight on the
Q-rough support. Q=1 is the zero measure by convention, which also fixes
every local density of that measure to 0.
"""

from __future__ import annotations

import csv
import functools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import sieve
from .errors import (
    DegenerateInputError,
    ParameterError,
    PreconditionError,
    TableRangeError,
)
from .numutil import e, fsum_real

BASE_ONE = "one"  # index i holds the weight of n = i + 1, ambient {1..N}
BASE_ZN = "zn"  # index i holds the weight of the residue x = i, ambient Z_N

KIND_PRIME = "prime"
KIND_ROUGH = "rough"

_BINARY_MAGIC = b"PMSR"


@dataclass
class Measure:
    """A weighted function on {1..N} (base "one") or Z_N (base "zn").

    total is the compensated sum of all weights, computed once at
    construction. The weights are a read-only copy of the input, so an
    instance is immutable and the Z_N spectrum that `fourier.spectrum`
    caches in _spectrum cannot go stale.
    """

    N: int
    weights: np.ndarray = field(repr=False)
    signed: bool = False
    base: str = BASE_ONE
    total: float = field(init=False)
    _spectrum: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.weights = np.array(self.weights, dtype=np.float64)
        self.weights.setflags(write=False)
        if self.weights.shape != (self.N,):
            raise ParameterError(
                f"weights must have shape ({self.N},), got {self.weights.shape}"
            )
        if self.base not in (BASE_ONE, BASE_ZN):
            raise ParameterError(f"unknown base {self.base!r}")
        if not self.signed and self.weights.size and float(self.weights.min()) < 0.0:
            raise PreconditionError("unsigned measure has negative weights")
        self.total = fsum_real(self.weights)

    def weight_at(self, n: int) -> float:
        if self.base == BASE_ONE:
            if not 1 <= n <= self.N:
                raise ParameterError(f"n={n} outside {{1..{self.N}}}")
            return float(self.weights[n - 1])
        return float(self.weights[n % self.N])

    def zn_weights(self) -> np.ndarray:
        """Weights reindexed by residue x = n mod N (the Z_N embedding)."""
        if self.base == BASE_ZN:
            return self.weights
        return np.roll(self.weights, 1)

    def positions(self) -> np.ndarray:
        """The ambient point n (or residue x) held at each array index."""
        if self.base == BASE_ONE:
            return np.arange(1, self.N + 1, dtype=np.int64)
        return np.arange(self.N, dtype=np.int64)

    def as_zn(self) -> "Measure":
        if self.base == BASE_ZN:
            return self
        return Measure(self.N, self.zn_weights(), signed=self.signed, base=BASE_ZN)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.weights))) if self.N else 0.0


@dataclass(frozen=True)
class MeasureParams:
    """Parameters shared by the measure family: residue b mod m, scale N,
    rough cutoff Q, and the restriction exponent p that sets A = 4/(p-2)."""

    b: int
    m: int
    N: int
    Q: int | None = None
    p_exponent: float | None = None

    def __post_init__(self) -> None:
        sieve.check_residue_pair(self.b, self.m)
        if self.N < 1:
            raise ParameterError(f"N must be >= 1, got {self.N}")
        if self.Q is not None and self.Q < 1:
            raise ParameterError(f"Q must be >= 1, got {self.Q}")
        if self.p_exponent is not None and not self.p_exponent > 2:
            raise ParameterError(f"p_exponent must be > 2, got {self.p_exponent}")

    @property
    def A(self) -> float:
        if self.p_exponent is None:
            raise ParameterError("p_exponent is not set")
        return 4.0 / (self.p_exponent - 2.0)

    def require_Q(self) -> int:
        if self.Q is None:
            raise ParameterError("Q is not set")
        return self.Q


def lambda_measure(params: MeasureParams, table: sieve.FactorTable) -> Measure:
    """The log-weighted prime measure lambda_{b,m,N}; mass ~ 1."""
    supp = sieve.prime_shifted_support(params.b, params.m, params.N, table)
    w = np.zeros(params.N, dtype=np.float64)
    if len(supp):
        vals = params.m * supp.members + params.b
        phi_m = sieve.euler_phi(params.m, table)
        w[supp.members - 1] = phi_m * np.log(vals) / (params.m * params.N)
    return Measure(params.N, w, signed=False, base=BASE_ONE)


def rough_prefactor(Q: int, m: int, table: sieve.FactorTable) -> float:
    """prod over p <= Q, p not dividing m, of (1 - 1/p)^(-1)."""
    return 1.0 / sieve.mertens_product(Q, m, table)


def lambda_q_measure(params: MeasureParams, table: sieve.FactorTable) -> Measure:
    """The Mertens-normalized uniform measure on the Q-rough support.

    Q=1 returns the zero measure (separate convention, not the vacuous
    all-of-{1..N} support).
    """
    Q = params.require_Q()
    if Q == 1:
        return Measure(params.N, np.zeros(params.N), signed=False, base=BASE_ONE)
    supp = sieve.rough_support(params.b, params.m, params.N, Q, table)
    w = np.zeros(params.N, dtype=np.float64)
    w[supp.members - 1] = rough_prefactor(Q, params.m, table) / params.N
    return Measure(params.N, w, signed=False, base=BASE_ONE)


def dyadic_cutoff(N: int, A: float) -> int:
    """Smallest integer K with 2^K > (log N)^A / 10."""
    if N < 3:
        raise ParameterError(f"N must be >= 3, got {N}")
    x = math.log(N) ** A / 10.0
    K = 0
    while 2.0**K <= x:
        K += 1
    return K


def dyadic_pieces(
    params: MeasureParams, table: sieve.FactorTable
) -> tuple[list[Measure], int]:
    """Split lambda into psi_1..psi_{K+1} with psi_j = lambda^{(2^j)} -
    lambda^{(2^{j-1})} and psi_{K+1} = lambda - lambda^{(2^K)}.

    The pieces telescope back to lambda exactly (lambda^{(1)} = 0). The
    rough supports are sieved incrementally, one pass over primes <= 2^K.
    """
    A = params.A
    K = dyadic_cutoff(params.N, A)
    b, m, N = params.b, params.m, params.N
    lam = lambda_measure(params, table)
    if 2**K > table.limit:
        raise TableRangeError(
            f"dyadic split needs primes up to 2^{K}={2**K}, table covers {table.limit}"
        )
    cap = m * N + b
    keep = np.ones(N + 1, dtype=bool)
    keep[0] = False
    inv_mert = 1.0
    prev = np.zeros(N, dtype=np.float64)
    pieces: list[Measure] = []
    lo = 1
    for j in range(1, K + 1):
        hi = 2**j
        ps = table.primes_up_to(hi)
        ps = ps[(ps > lo) & (m % ps != 0)]
        for p in ps.tolist():
            inv_mert /= 1.0 - 1.0 / p
        sieve.strike_divisible(keep, b, m, ps[ps <= cap])
        cur = np.where(keep[1:], inv_mert / N, 0.0)
        pieces.append(Measure(N, cur - prev, signed=True, base=BASE_ONE))
        prev = cur
        lo = hi
    pieces.append(Measure(N, lam.weights - prev, signed=True, base=BASE_ONE))
    return pieces, K


@dataclass(frozen=True)
class PieceNorm:
    j: int
    sup: float
    reference: float


def piece_sup_norms(pieces: list[Measure]) -> list[PieceNorm]:
    """Sup norm of each dyadic piece next to its reference scale:
    j/N for j <= K and log(N)/N for the tail piece."""
    if not pieces:
        raise DegenerateInputError("no pieces")
    N = pieces[0].N
    K = len(pieces) - 1
    out = []
    for j, psi in enumerate(pieces, start=1):
        ref = (math.log(N) / N) if j == K + 1 else (j / N)
        out.append(PieceNorm(j=j, sup=psi.sup_norm(), reference=ref))
    return out


def gamma_rq(
    kind: str,
    r: int,
    q: int,
    params: MeasureParams,
    table: sieve.FactorTable,
) -> float:
    """Local density of the measure on the progression r mod q.

    prime kind: phi(m) q / phi(mq) when gcd(mr+b, mq) = 1, else 0.
    rough kind: prod_{p<=Q, p∤m}(1-1/p)^(-1) * prod_{p<=Q, p∤mq}(1-1/p)
    when gcd(mr+b, mq) is Q-rough, else 0. Q=1 is the zero measure, so
    every gamma is 0 there.
    """
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if not 0 <= r < q:
        raise ParameterError(f"r={r} outside [0, {q})")
    b, m = params.b, params.m
    g = math.gcd(m * r + b, m * q)
    if kind == KIND_PRIME:
        if g != 1:
            return 0.0
        return sieve.euler_phi(m, table) * q / sieve.euler_phi(m * q, table)
    if kind == KIND_ROUGH:
        Q = params.require_Q()
        if Q == 1:
            return 0.0
        if not sieve.is_rough(g, Q, table):
            return 0.0
        return rough_prefactor(Q, m, table) * sieve.mertens_product(Q, m * q, table)
    raise ParameterError(f"unknown kind {kind!r}")


def empirical_gamma(
    measure: Measure, r: int, q: int, L: int | None = None
) -> float:
    """(N/L) * measure(X) over the progression X = {r, r+q, ..., r+(L-1)q}.

    Default L = floor(N / (8q)). The progression must stay inside {1..N}.
    """
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    N = measure.N
    if L is None:
        L = N // (8 * q)
    if L < 1:
        raise ParameterError(f"L must be >= 1, got {L}")
    last = r + (L - 1) * q
    if r < 1 or last > N:
        raise ParameterError(
            f"progression [{r}, {last}] step {q} leaves {{1..{N}}}"
        )
    idx = np.arange(L, dtype=np.int64) * q + r
    if measure.base == BASE_ZN:
        return N / L * fsum_real(measure.weights[idx % N])
    return N / L * fsum_real(measure.weights[idx - 1])


def _sigma_gate(kind, q, params, table):
    """Common gate + magnitude for the closed-form sigma.

    Returns None when sigma vanishes, else the real prefactor
    q*mu(q)/phi(q).
    """
    m = params.m
    if math.gcd(m, q) != 1:
        return None
    if kind == KIND_ROUGH:
        Q = params.require_Q()
        if Q == 1:
            return None
    elif kind != KIND_PRIME:
        raise ParameterError(f"unknown kind {kind!r}")
    # one factorization gives mu(q), phi(q) and Q-smoothness; this gate runs
    # once per sigma_aq call, so a factorization per quantity is its main cost
    factors = table.factorize(q)
    if any(k > 1 for _, k in factors):
        return None  # mu(q) = 0
    if kind == KIND_ROUGH and factors and factors[-1][0] > Q:
        return None  # q is not Q-smooth
    mu = -1 if len(factors) % 2 else 1
    return q * mu / math.prod(p - 1 for p, _ in factors)


def sigma_aq(
    kind: str,
    a: int,
    q: int,
    params: MeasureParams,
    table: sieve.FactorTable,
    method: str = "closed",
) -> complex:
    """sigma_{a,q} = sum_r e(ar/q) gamma_{r,q}.

    closed: q*mu(q)/phi(q) * e(-a*b*minv/q) when gcd(m,q)=1 (and, for the
    rough kind, q is Q-smooth), else 0. minv is the inverse of m mod q.
    direct: the literal sum over r of e(ar/q) * gamma_rq.
    """
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if math.gcd(a, q) != 1:
        raise PreconditionError(f"gcd(a, q) must be 1, got gcd({a}, {q})")
    if method == "direct":
        return complex(sigma_aq_direct_all(kind, q, params, table)[a % q])
    if method != "closed":
        raise ParameterError(f"unknown method {method!r}")
    pref = _sigma_gate(kind, q, params, table)
    if pref is None:
        return 0.0 + 0.0j
    minv = pow(params.m % q, -1, q) if q > 1 else 0
    return pref * e(-a * params.b * minv / q)


def sigma_aq_direct_all(
    kind: str,
    q: int,
    params: MeasureParams,
    table: sieve.FactorTable,
) -> np.ndarray:
    """Direct summation sigma_{a,q} for every residue a = 0..q-1 at once.

    Entries at a with gcd(a,q) > 1 are the same character sums evaluated
    formally; the closed form is stated for coprime a only.
    """
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    b, m = params.b, params.m
    r = np.arange(q, dtype=np.int64)
    g = np.gcd(m * r + b, m * q)
    if kind == KIND_PRIME:
        val = sieve.euler_phi(m, table) * q / sieve.euler_phi(m * q, table)
        gam = np.where(g == 1, val, 0.0)
    elif kind == KIND_ROUGH:
        Q = params.require_Q()
        if Q == 1:
            return np.zeros(q, dtype=complex)
        table.check_range(m * q)
        rough = (g == 1) | (table.spf[g] > Q)  # 1 <= g <= m*q
        val = rough_prefactor(Q, m, table) * sieve.mertens_product(Q, m * q, table)
        gam = np.where(rough, val, 0.0)
    else:
        raise ParameterError(f"unknown kind {kind!r}")
    return _phase_matrix(q) @ gam


@functools.lru_cache(maxsize=64)
def _phase_matrix(q: int) -> np.ndarray:
    """The q x q matrix e(a*r/q), read-only.

    a*r is reduced mod q exactly, in integers, so q phases fill all q^2
    entries. Cached: the direct sums are taken for a few small q at a time.
    """
    r = np.arange(q, dtype=np.int64)
    phases = e(r / q)[np.outer(r, r) % q]
    phases.setflags(write=False)
    return phases


@dataclass(frozen=True)
class BrunEstimate:
    """Truncated inclusion-exclusion estimate of the Q-rough density on a
    progression, with the completed product and the advertised tail bound."""

    estimate: float
    tail_bound: float
    full_product: float
    num_primes: int
    depth: int
    gated_zero: bool = False


def default_brun_depth(N: int, A: float) -> int:
    """t = max(1, floor(log N / (2 A log log N)))."""
    if N < 3:
        raise ParameterError(f"N must be >= 3, got {N}")
    raw = math.log(N) / (2.0 * A * math.log(math.log(N)))
    return max(1, math.floor(raw))


def brun_truncated(
    r: int,
    q: int,
    L: int,
    Q: int,
    t: int,
    params: MeasureParams,
    table: sieve.FactorTable,
) -> BrunEstimate:
    """Brun's truncated inclusion-exclusion for the density of Q-rough
    values of m*x+b along x in {r, r+q, ..., r+(L-1)q}.

    Primes p <= Q dividing q contribute epsilon_p = 0 (the event is fixed
    along the progression); if such a p already divides gcd(mr+b, mq) the
    density is exactly 0 and the estimate short-circuits. Depth t keeps
    elementary symmetric sums up to order t; t >= #primes completes the
    product. Guard: #primes <= 20 or t <= 6.
    """
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    if L < 1:
        raise ParameterError(f"L must be >= 1, got {L}")
    if Q < 1:
        raise ParameterError(f"Q must be >= 1, got {Q}")
    b, m = params.b, params.m
    ps = [int(p) for p in table.primes_up_to(Q) if m % int(p) != 0]
    k = len(ps)
    if k > 20 and t > 6:
        raise ParameterError(
            f"refusing k={k} primes at depth t={t}; lower t or Q"
        )
    loglog = max(math.log(math.log(Q)), 0.0) if Q >= 3 else 0.0
    tail = 2.0 * loglog**t / math.factorial(t)
    if not sieve.is_rough(math.gcd(m * r + b, m * q), Q, table):
        return BrunEstimate(0.0, tail, 0.0, k, t, gated_zero=True)
    recips = [1.0 / p for p in ps if q % p != 0]
    coeffs = np.zeros(t + 1, dtype=np.float64)
    coeffs[0] = 1.0
    for v in recips:
        upper = min(t, len(recips))
        for s in range(upper, 0, -1):
            coeffs[s] += coeffs[s - 1] * v
    signs = (-1.0) ** np.arange(t + 1)
    estimate = fsum_real(signs * coeffs)
    full = float(np.prod([1.0 - v for v in recips])) if recips else 1.0
    return BrunEstimate(estimate, tail, full, k, t)


# ---------------------------------------------------------------------------
# serialization

def load_measure_csv(path, signed: bool = False, base: str = BASE_ONE) -> Measure:
    """Read the (index, weight) CSV that `cli.Emitter.measure` writes.

    N is the number of data rows, and every index of the ambient set (n =
    1..N in base "one", x = 0..N-1 in base "zn") must appear exactly once.
    A bad header, a short row, an unparsable number, an index out of range
    or repeated (so another one is missing), a file that is not UTF-8 CSV,
    or weights no measure holds (see _checked_measure) raise ParameterError.
    """
    if base not in (BASE_ONE, BASE_ZN):
        raise ParameterError(f"unknown base {base!r}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParameterError(f"unreadable measure CSV: {exc}") from exc
    if not rows or rows[0][:2] != ["index", "weight"]:
        raise ParameterError(f"unexpected CSV header {rows[0] if rows else None!r}")
    N = len(rows) - 1
    off = 1 if base == BASE_ONE else 0
    w = np.zeros(N, dtype=np.float64)
    seen = np.zeros(N, dtype=bool)
    for line, row in enumerate(rows[1:], start=2):
        if len(row) < 2:
            raise ParameterError(f"line {line}: expected index,weight, got {row!r}")
        try:
            i, v = int(row[0]), float(row[1])
        except ValueError as exc:
            raise ParameterError(f"line {line}: {exc}") from exc
        k = i - off
        if not 0 <= k < N:
            raise ParameterError(
                f"line {line}: index {i} outside {off}..{N - 1 + off} for {N} rows"
            )
        if seen[k]:
            raise ParameterError(f"line {line}: index {i} repeats")
        seen[k] = True
        w[k] = v
    # N rows, each index in range and none repeated: every index is present
    return _checked_measure(N, w, signed, base)


def _checked_measure(N: int, w: np.ndarray, signed: bool, base: str) -> Measure:
    """Measure(N, w) for loaded weights; weights that no measure holds
    (non-finite, negative when unsigned, or overflowing the total) raise
    ParameterError."""
    if not np.all(np.isfinite(w)):
        raise ParameterError("non-finite weight")
    if not signed and w.size and float(w.min()) < 0.0:
        raise ParameterError("negative weight in an unsigned measure")
    try:
        return Measure(N, w, signed=signed, base=base)
    except OverflowError as exc:
        raise ParameterError(f"weights overflow their total: {exc}") from exc


def measure_to_bytes(measure: Measure) -> bytes:
    """Compact form: magic, N (uint64 LE), signed flag, base flag, then the
    weights as little-endian float64."""
    base_code = 0 if measure.base == BASE_ONE else 1
    header = _BINARY_MAGIC + struct.pack(
        "<QBB", measure.N, int(measure.signed), base_code
    )
    return header + measure.weights.astype("<f8").tobytes()


def save_measure_binary(measure: Measure, path) -> None:
    with open(path, "wb") as fh:
        fh.write(measure_to_bytes(measure))


def measure_from_bytes(blob: bytes) -> Measure:
    """Inverse of measure_to_bytes. A wrong magic, a truncated header, a
    flag byte other than 0 or 1, a payload of the wrong size or weights no
    measure holds (see _checked_measure) raise ParameterError."""
    head = len(_BINARY_MAGIC) + struct.calcsize("<QBB")
    if blob[: len(_BINARY_MAGIC)] != _BINARY_MAGIC:
        raise ParameterError("not a measure binary file")
    if len(blob) < head:
        raise ParameterError(f"truncated header: {len(blob)} of {head} bytes")
    N, signed, base_code = struct.unpack("<QBB", blob[len(_BINARY_MAGIC) : head])
    if signed not in (0, 1) or base_code not in (0, 1):
        raise ParameterError(
            f"flag bytes must be 0 or 1, got signed={signed} base={base_code}"
        )
    payload = len(blob) - head
    if payload != 8 * N:
        raise ParameterError(f"payload has {payload} bytes, header says {N} weights")
    w = np.frombuffer(blob[head:], dtype="<f8").astype(np.float64)
    return _checked_measure(int(N), w, bool(signed), BASE_ZN if base_code else BASE_ONE)


def load_measure_binary(path) -> Measure:
    with open(path, "rb") as fh:
        return measure_from_bytes(fh.read())
