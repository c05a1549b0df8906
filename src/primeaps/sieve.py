"""Arithmetic substrate: smallest-prime-factor table, multiplicative
functions, Mertens products, Ramanujan sums, and the prime / rough support
sets that the measures live on.

The table is a flat int32 array spf with spf[n] = smallest prime factor of
n (spf[n] = n exactly when n is prime, 0 for n < 2). Everything downstream
factors integers by chasing spf, so mu and phi are O(log n) per query.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DeskScaleWarning,
    ParameterError,
    PreconditionError,
    TableRangeError,
)
from .numutil import e

MAX_TABLE_LIMIT = 10**8  # memory guard: int32 table, ~400 MB at the cap


@dataclass
class FactorTable:
    """Smallest-prime-factor table covering 2..limit."""

    limit: int
    spf: np.ndarray = field(repr=False)
    _primes: np.ndarray | None = field(default=None, init=False, repr=False)
    # mertens_product values by (q, m): the local densities ask for the same
    # few products once per residue class
    _mertens: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def check_range(self, n) -> None:
        arr = np.asarray(n)
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) > self.limit):
            raise TableRangeError(
                f"value outside table range [0, {self.limit}]"
            )

    def is_prime(self, n):
        """Vectorized primality lookup; n may be a scalar or array."""
        arr = np.asarray(n)
        self.check_range(arr)
        out = (arr >= 2) & (self.spf[arr] == arr)
        if out.ndim == 0:
            return bool(out)
        return out

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization of n as (p, exponent) pairs, p ascending."""
        if not 1 <= n <= self.limit:
            raise TableRangeError(f"n={n} outside table range [1, {self.limit}]")
        out: list[tuple[int, int]] = []
        while n > 1:
            p = int(self.spf[n])
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        return out

    def primes(self) -> np.ndarray:
        """All primes <= limit, ascending (cached)."""
        if self._primes is None:
            idx = np.arange(2, self.limit + 1, dtype=np.int32)
            self._primes = np.flatnonzero(self.spf[2:] == idx).astype(np.int64) + 2
        return self._primes

    def primes_up_to(self, q: int) -> np.ndarray:
        """All primes <= q, ascending; q may not exceed the table limit."""
        if q > self.limit:
            raise TableRangeError(f"q={q} exceeds table limit {self.limit}")
        ps = self.primes()
        return ps[: np.searchsorted(ps, q, side="right")]

    def smallest_prime_factor(self, n: int) -> int:
        if not 2 <= n <= self.limit:
            raise TableRangeError(f"n={n} outside table range [2, {self.limit}]")
        return int(self.spf[n])

    def largest_prime_factor(self, n: int) -> int:
        return self.factorize(n)[-1][0] if n > 1 else 1


def build_factor_table(limit: int) -> FactorTable:
    """Sieve the smallest-prime-factor table for 2..limit.

    Vectorized Eratosthenes variant: each composite gets marked first by its
    smallest prime (primes ascend and marking starts at p*p), so the table
    is identical to the classical linear sieve's.
    """
    if not 2 <= limit <= MAX_TABLE_LIMIT:
        raise ConfigError(f"limit must be in [2, {MAX_TABLE_LIMIT}], got {limit}")
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    rest = np.flatnonzero(spf[2:] == 0).astype(np.int64) + 2
    spf[rest] = rest
    return FactorTable(limit=limit, spf=spf)


def mobius(n: int, table: FactorTable) -> int:
    """Moebius function via the factor table."""
    if n == 1:
        return 1
    mu = 1
    for _, k in table.factorize(n):
        if k > 1:
            return 0
        mu = -mu
    return mu


def euler_phi(n: int, table: FactorTable) -> int:
    """Euler totient via the factor table."""
    if n == 1:
        return 1
    phi = 1
    for p, k in table.factorize(n):
        phi *= (p - 1) * p ** (k - 1)
    return phi


def is_rough(n: int, q: int, table: FactorTable) -> bool:
    """True when every prime factor of n exceeds q (vacuously for n=1)."""
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if n == 1:
        return True
    return table.smallest_prime_factor(n) > q


def is_smooth(n: int, q: int, table: FactorTable) -> bool:
    """True when every prime factor of n is <= q.

    Convention: there are no 1-smooth numbers (not even n=1); for q >= 2 the
    condition is vacuous at n=1.
    """
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if q < 2:
        return False
    if n == 1:
        return True
    return table.largest_prime_factor(n) <= q


def mertens_product(q: int, m: int, table: FactorTable) -> float:
    """prod over primes p <= q, p not dividing m, of (1 - 1/p)."""
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if q > table.limit:
        raise TableRangeError(f"q={q} exceeds table limit {table.limit}")
    cached = table._mertens.get((q, m))
    if cached is not None:
        return cached
    ps = table.primes_up_to(q)
    if m > 1:
        ps = ps[m % ps != 0]
    prod = float(np.prod(1.0 - 1.0 / ps)) if ps.size else 1.0
    table._mertens[(q, m)] = prod
    return prod


def ramanujan_sum(q: int, a: int, table: FactorTable | None = None) -> complex:
    """c_q(a) = sum over t mod q, gcd(t,q)=1, of e(at/q) by direct summation.

    Equals mu(q) whenever gcd(a,q)=1; the table argument is accepted for
    signature symmetry but the sum itself never needs it.
    """
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    # strike the multiples of each prime factor of q (trial division): the
    # same residues as gcd(t, q) == 1, without a gcd per residue
    coprime = np.ones(q, dtype=bool)
    n, p = q, 2
    while p * p <= n:
        if n % p == 0:
            coprime[::p] = False
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        coprime[::n] = False
    co = np.flatnonzero(coprime)
    return complex(np.sum(e(a * co / q)))


@dataclass
class SupportSet:
    """A sorted subset of {1..N} carrying its defining kind."""

    N: int
    members: np.ndarray
    kind: str

    def __len__(self) -> int:
        return int(self.members.size)


def check_residue_pair(b: int, m: int) -> None:
    """Validate the (b, m) residue data: m >= 1, b >= 0, gcd(b, m) = 1.

    b larger than m is allowed; the support values nm + b just shift and
    every mod-m quantity reduces b anyway.
    """
    if m < 1:
        raise PreconditionError(f"m must be >= 1, got {m}")
    if b < 0:
        raise PreconditionError(f"b must be >= 0, got {b}")
    if math.gcd(b, m) != 1:
        raise PreconditionError(f"gcd(b, m) must be 1, got gcd({b}, {m})")


def warn_if_large_modulus(m: int, N: int) -> bool:
    """Warn (not error) when m exceeds log N; returns True when it holds."""
    ok = m <= math.log(N) if N >= 3 else m == 1
    if not ok:
        warnings.warn(
            f"m={m} exceeds log N = {math.log(N):.3f}; asymptotic error terms "
            "are not meaningful at this scale",
            DeskScaleWarning,
            stacklevel=3,
        )
    return ok


def prime_shifted_support(b: int, m: int, N: int, table: FactorTable) -> SupportSet:
    """{ n <= N : n*m + b is prime }."""
    check_residue_pair(b, m)
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    warn_if_large_modulus(m, N)
    values = m * np.arange(1, N + 1, dtype=np.int64) + b
    if int(values[-1]) > table.limit:
        raise TableRangeError(
            f"need primality up to {int(values[-1])}, table covers {table.limit}"
        )
    members = np.flatnonzero(table.is_prime(values)).astype(np.int64) + 1
    return SupportSet(N=N, members=members, kind="prime-shifted")


def rough_support(b: int, m: int, N: int, q: int, table: FactorTable) -> SupportSet:
    """{ n <= N : every prime factor of n*m + b exceeds q }.

    q=1 keeps all of {1..N} (no primes <= 1). Only primes up to
    min(q, m*N + b) can divide any n*m + b, so marking stops there.
    """
    check_residue_pair(b, m)
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    warn_if_large_modulus(m, N)
    cap = min(q, m * N + b)
    if cap > table.limit:
        raise TableRangeError(f"need primes up to {cap}, table covers {table.limit}")
    keep = np.ones(N + 1, dtype=bool)
    keep[0] = False
    strike_divisible(keep, b, m, table.primes_up_to(cap))
    members = np.flatnonzero(keep).astype(np.int64)
    return SupportSet(N=N, members=members, kind="q-rough")


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
