"""Prime and almost-prime measures on {1..N}, the supports they live on,
their dyadic decomposition, and the two forms a measure is written in:
the `PMSR` binary and the (index, weight) CSV, each with its reader.

lambda_{b,m,N} puts weight phi(m) log(nm+b) / (mN) on each n <= N with
nm+b prime; lambda^{(Q)} puts the Mertens-normalized uniform weight on the
Q-rough support. MeasureParams is (b, m, N): the cutoff Q is an argument
of what reads it. Q=1 is the zero measure by convention. The exponent
p > 2 enters only through A = a_exponent(p).
"""

from __future__ import annotations

import csv
import functools
import math
import struct
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import sieve
from .errors import (
    DeskScaleWarning,
    ParameterError,
    PreconditionError,
    TableRangeError,
    shown,
)
from .numutil import fsum_real

BASE_ONE = "one"  # index i holds the weight of n = i + 1, ambient {1..N}
BASE_ZN = "zn"  # index i holds the weight of the residue x = i, ambient Z_N

_BINARY_MAGIC = b"PMSR"


@dataclass
class Measure:
    """A weighted function on {1..N} (base "one") or Z_N (base "zn").

    The weights are read-only, so an instance is immutable: neither
    `total`, summed on first read, nor the Z_N spectrum that
    `fourier.spectrum` caches in _spectrum can go stale. A C-contiguous
    float64 array that owns its data is taken as it is and set read-only
    in place, so its caller writes to it no more; anything else (a view, a
    list, another dtype) is copied.
    """

    N: int
    weights: np.ndarray = field(repr=False)
    signed: bool = False
    base: str = BASE_ONE
    _spectrum: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        w = self.weights
        if not (isinstance(w, np.ndarray) and w.dtype == np.float64
                and w.flags.owndata and w.flags.c_contiguous):
            w = np.array(w, dtype=np.float64)
        if w.shape != (self.N,):
            raise ParameterError(f"weights must have shape ({self.N},), got {w.shape}")
        if self.base not in (BASE_ONE, BASE_ZN):
            raise ParameterError(f"unknown base {self.base!r}")
        if not self.signed and w.size and float(w.min()) < 0.0:
            raise PreconditionError("unsigned measure has negative weights")
        w.setflags(write=False)
        self.weights = w

    @functools.cached_property
    def total(self) -> float:
        """The compensated sum of all weights, summed on first read; it
        raises OverflowError when the sum leaves the float range."""
        return fsum_real(self.weights)

    def zn_weights(self) -> np.ndarray:
        """Weights reindexed by residue x = n mod N (the Z_N embedding)."""
        if self.base == BASE_ZN:
            return self.weights
        # along axis 0, roll returns an array of its own, which as_zn's
        # Measure takes without a copy
        return np.roll(self.weights, 1, axis=0)

    def positions(self) -> range:
        """The ambient point n (or residue x) held at each array index, as
        a range, so that no N-long index array is made to name them."""
        if self.base == BASE_ONE:
            return range(1, self.N + 1)
        return range(self.N)

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(positions, weights) of the nonzero weights, positions ascending
        and given as ambient points like positions()."""
        idx = np.flatnonzero(self.weights)
        pos = idx + 1 if self.base == BASE_ONE else idx
        return pos.astype(np.int64, copy=False), self.weights[idx]

    def as_zn(self) -> "Measure":
        if self.base == BASE_ZN:
            return self
        return Measure(self.N, self.zn_weights(), signed=self.signed, base=BASE_ZN)

    def sup_norm(self) -> float:
        """max |w|, read off the largest and the smallest weight, with no
        |w| array; + 0.0 turns the -0.0 of an all-zero measure into 0.0."""
        if not self.N:
            return 0.0
        return float(max(self.weights.max(), -self.weights.min())) + 0.0


def check_residue_pair(b: int, m: int) -> None:
    """Validate the (b, m) residue data: m >= 1, b >= 0, gcd(b, m) = 1.

    b larger than m is allowed; the support values nm + b just shift and
    every mod-m quantity reduces b anyway.
    """
    if m < 1:
        raise PreconditionError(f"m must be >= 1, got {shown(m)}")
    if b < 0:
        raise PreconditionError(f"b must be >= 0, got {shown(b)}")
    if math.gcd(b, m) != 1:
        raise PreconditionError(
            f"gcd(b, m) must be 1, got gcd({shown(b)}, {shown(m)})")


@dataclass(frozen=True)
class MeasureParams:
    """The measure lambda_{b,m,N}: residue b mod m (coprime) and scale N.
    Construction is the one check of (b, m, N); what takes the params
    reads them as they are."""

    b: int
    m: int
    N: int

    def __post_init__(self) -> None:
        check_residue_pair(self.b, self.m)
        if self.N < 1:
            raise ParameterError(f"N must be >= 1, got {self.N}")


def warn_if_large_modulus(m: int, N: int) -> bool:
    """Warn (not error) when m exceeds log N; returns True when it holds.
    Called by the measure builders, so the warning names their caller."""
    ok = m <= math.log(N) if N >= 3 else m == 1
    if not ok:
        warnings.warn(
            f"m={m} exceeds log N = {math.log(N):.3f}; asymptotic error terms "
            "are not meaningful at this scale",
            DeskScaleWarning,
            stacklevel=3,
        )
    return ok


def prime_shifted_support(params: MeasureParams, table: sieve.PrimeTable) -> np.ndarray:
    """{ n <= N : n*m + b is prime }, as a sorted int64 array; a value
    n*m + b past the table's limit raises TableRangeError."""
    values = params.m * np.arange(1, params.N + 1, dtype=np.int64) + params.b
    return np.flatnonzero(table.is_prime(values)).astype(np.int64) + 1


def rough_support(params: MeasureParams, Q: int, table: sieve.PrimeTable) -> np.ndarray:
    """{ n <= N : every prime factor of n*m + b exceeds Q }, as a sorted
    int64 array.

    Q=1 keeps all of {1..N} (no primes <= 1). Only primes up to
    min(Q, m*N + b) can divide any n*m + b, so marking stops there; a
    bound past the table's limit raises TableRangeError.
    """
    keep = np.ones(params.N + 1, dtype=bool)
    keep[0] = False
    cap = min(Q, params.m * params.N + params.b)
    strike_divisible(keep, params.b, params.m, table.primes_up_to(cap))
    return np.flatnonzero(keep).astype(np.int64)


def strike_divisible(keep: np.ndarray, b: int, m: int, primes) -> None:
    """Clear keep[n] for every 1 <= n < keep.size with n*m + b divisible by
    some p in primes; a p dividing m divides no n*m + b (gcd(b, m) = 1) and
    is skipped. The one marking loop of the Q-rough sieve."""
    N = keep.size - 1
    for p in primes.tolist():
        if m % p == 0:
            continue
        r = (-b * pow(m, -1, p)) % p
        first = r if r >= 1 else p
        if first <= N:
            keep[first::p] = False


def a_exponent(p: float) -> float:
    """A = 4/(p-2), the power of log N that the restriction exponent p sets
    for the dyadic split and the arc cutoff; p must lie in (2, inf)."""
    if not 2 < p < math.inf:
        raise ParameterError(f"p_exponent must lie in (2, inf), got {p}")
    return 4.0 / (p - 2.0)


def _zero_measure(Q: int) -> bool:
    """True for the cutoff Q = 1, whose rough measure is the zero measure;
    a Q below 1 raises ParameterError."""
    if Q < 1:
        raise ParameterError(f"Q must be >= 1, got {Q}")
    return Q == 1


def lambda_measure(params: MeasureParams, table: sieve.PrimeTable) -> Measure:
    """The log-weighted prime measure lambda_{b,m,N}; mass ~ 1. The one
    home of its weight: the W-trick's density alpha of A is the mass of
    this measure on A."""
    warn_if_large_modulus(params.m, params.N)
    supp = prime_shifted_support(params, table)
    w = np.zeros(params.N, dtype=np.float64)
    if supp.size:
        vals = params.m * supp + params.b
        phi_m = sieve.euler_phi(params.m)
        w[supp - 1] = phi_m * np.log(vals) / (params.m * params.N)
    return Measure(params.N, w, signed=False, base=BASE_ONE)


def rough_prefactor(Q: int, m: int, table: sieve.PrimeTable) -> float:
    """prod over p <= Q, p not dividing m, of (1 - 1/p)^(-1)."""
    return 1.0 / sieve.mertens_product(Q, m, table)


def lambda_q_measure(
    params: MeasureParams, Q: int, table: sieve.PrimeTable
) -> Measure:
    """The Mertens-normalized uniform measure on the Q-rough support.

    Q=1 returns the zero measure (separate convention, not the vacuous
    all-of-{1..N} support).
    """
    if _zero_measure(Q):
        return Measure(params.N, np.zeros(params.N), signed=False, base=BASE_ONE)
    warn_if_large_modulus(params.m, params.N)
    supp = rough_support(params, Q, table)
    w = np.zeros(params.N, dtype=np.float64)
    w[supp - 1] = rough_prefactor(Q, params.m, table) / params.N
    return Measure(params.N, w, signed=False, base=BASE_ONE)


def dyadic_cutoff(N: int, p: float) -> int:
    """Smallest integer K with 2^K > (log N)^A / 10, A = a_exponent(p).

    The split needs primes up to 2^K, so a 2^K above sieve.MAX_TABLE_LIMIT,
    as where (log N)^A leaves the float range, is past any prime table:
    TableRangeError, naming p and A."""
    if N < 3:
        raise ParameterError(f"N must be >= 3, got {N}")
    A = a_exponent(p)
    try:
        x = math.log(N) ** A / 10.0
    except OverflowError:
        x = math.inf
    K = 0
    while 2.0**K <= x:
        K += 1
        if 2**K > sieve.MAX_TABLE_LIMIT:
            raise TableRangeError(f"dyadic split at p = {p} (A = {A}) needs 2^K > "
                                  f"(log {N})^A / 10, past the prime-table limit "
                                  f"{sieve.MAX_TABLE_LIMIT}")
    return K


def dyadic_pieces(
    params: MeasureParams, lam: Measure, p: float, table: sieve.PrimeTable,
    take: Callable[[int, Measure], None],
) -> int:
    """Split lam = lambda_measure(params, table) into psi_1..psi_{K+1} with
    psi_j = lambda^{(2^j)} - lambda^{(2^{j-1})} and psi_{K+1} = lambda -
    lambda^{(2^K)}, K = dyadic_cutoff(N, p), and return K.

    Each piece goes to take(j, psi_j) as soon as it is made, in order of j,
    and none is kept, so the split holds one piece at a time whatever K is.
    psi_j is written into the buffer of lambda^{(2^{j-1})}, which no later
    level reads, so a level allocates only its rough measure, and the tail
    piece none. The pieces telescope back to lambda exactly (lambda^{(1)}
    = 0). The rough supports are sieved incrementally, one pass over primes
    <= 2^K.
    """
    b, m, N = params.b, params.m, params.N
    K = dyadic_cutoff(N, p)
    if 2**K > table.limit:
        raise TableRangeError(
            f"dyadic split needs primes up to 2^{K}={2**K}, table covers {table.limit}"
        )
    cap = m * N + b
    keep = np.ones(N + 1, dtype=bool)
    keep[0] = False
    inv_mert = 1.0
    prev = np.zeros(N, dtype=np.float64)
    lo = 1
    for j in range(1, K + 1):
        hi = 2**j
        ps = table.primes_up_to(hi)
        ps = ps[(ps > lo) & (m % ps != 0)]
        for p in ps.tolist():
            inv_mert /= 1.0 - 1.0 / p
        strike_divisible(keep, b, m, ps[ps <= cap])
        cur = np.where(keep[1:], inv_mert / N, 0.0)
        take(j, Measure(N, np.subtract(cur, prev, out=prev), signed=True,
                        base=BASE_ONE))
        prev = cur
        lo = hi
    take(K + 1, Measure(N, np.subtract(lam.weights, prev, out=prev), signed=True,
                        base=BASE_ONE))
    return K


@dataclass(frozen=True)
class PieceNorm:
    j: int
    sup: float
    reference: float


def piece_sup_norm(j: int, K: int, psi: Measure) -> PieceNorm:
    """Sup norm of the dyadic piece psi = psi_j of a split at cutoff K next
    to its reference scale: j/N for j <= K and log(N)/N for the tail piece
    j = K + 1."""
    N = psi.N
    ref = (math.log(N) / N) if j == K + 1 else (j / N)
    return PieceNorm(j=j, sup=psi.sup_norm(), reference=ref)


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
    measure = Measure(N, w, signed=signed, base=base)
    try:
        measure.total  # summed here, so an overflow is a load error
    except OverflowError as exc:
        raise ParameterError(f"weights overflow their total: {exc}") from exc
    return measure


def measure_to_bytes(measure: Measure) -> tuple[bytes, np.ndarray]:
    """The `PMSR` binary form, as two chunks whose concatenation is the
    file: the header (magic, N as uint64 LE, signed flag, base flag) and
    the weights as little-endian float64, given as a uint8 view of the
    weights' own buffer (copied only on a big-endian machine). The CLI
    writes the chunks atomically through `cli.Emitter.raw`."""
    base_code = 0 if measure.base == BASE_ONE else 1
    header = _BINARY_MAGIC + struct.pack(
        "<QBB", measure.N, int(measure.signed), base_code
    )
    return header, measure.weights.astype("<f8", copy=False).view(np.uint8)


def measure_from_bytes(blob: bytes) -> Measure:
    """Inverse of measure_to_bytes, given its chunks joined. A wrong
    magic, a truncated header, a flag byte other than 0 or 1, a payload of
    the wrong size or weights no measure holds (see _checked_measure)
    raise ParameterError."""
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
