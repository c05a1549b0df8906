"""Arithmetic substrate: the prime table, Euler's phi, Mertens products,
and the prime / rough support sets that the measures live on.

The program reads two arithmetic facts: whether n*m + b is prime (the
measure lambda_{b,m,N}, the W-trick's N, the rough sieve's primes) and
phi(m) of one modulus. So the table is one boolean per integer, prime[n]
for 0 <= n <= limit, and phi is trial division.
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

MAX_TABLE_LIMIT = 10**8  # memory guard: 1 byte per integer, ~100 MB at the cap


@dataclass
class PrimeTable:
    """Primality of 0..limit: prime[n] is True exactly when n is prime."""

    limit: int
    prime: np.ndarray = field(repr=False)
    _primes: np.ndarray | None = field(default=None, init=False, repr=False)

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
        out = self.prime[arr]
        if out.ndim == 0:
            return bool(out)
        return out

    def primes(self) -> np.ndarray:
        """All primes <= limit, ascending (cached)."""
        if self._primes is None:
            self._primes = np.flatnonzero(self.prime).astype(np.int64)
        return self._primes

    def primes_up_to(self, q: int) -> np.ndarray:
        """All primes <= q, ascending; q may not exceed the table limit."""
        if q > self.limit:
            raise TableRangeError(f"q={q} exceeds table limit {self.limit}")
        ps = self.primes()
        return ps[: np.searchsorted(ps, q, side="right")]


def build_factor_table(limit: int) -> PrimeTable:
    """Sieve the prime table for 0..limit (Eratosthenes by numpy slicing).

    The even numbers past 2 are struck at once; each odd prime p <= sqrt
    (limit) then strikes its odd multiples from p*p on, step 2p, since its
    smaller multiples carry a smaller prime factor.
    """
    if not 2 <= limit <= MAX_TABLE_LIMIT:
        raise ConfigError(f"limit must be in [2, {MAX_TABLE_LIMIT}], got {limit}")
    prime = np.ones(limit + 1, dtype=bool)
    prime[:2] = False
    prime[4::2] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if prime[p]:
            prime[p * p :: 2 * p] = False
    return PrimeTable(limit=limit, prime=prime)


def euler_phi(n: int) -> int:
    """Euler totient by trial division, at most sqrt(n) steps: 10^4 for a
    modulus up to MAX_TABLE_LIMIT; n >= 1."""
    phi = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            phi -= phi // p
        p += 1
    if n > 1:
        phi -= phi // n
    return phi


def mertens_product(q: int, m: int, table: PrimeTable) -> float:
    """prod over primes p <= q, p not dividing m, of (1 - 1/p)."""
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if q > table.limit:
        raise TableRangeError(f"q={q} exceeds table limit {table.limit}")
    ps = table.primes_up_to(q)
    if m > 1:
        ps = ps[m % ps != 0]
    return float(np.prod(1.0 - 1.0 / ps)) if ps.size else 1.0


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


def prime_shifted_support(b: int, m: int, N: int, table: PrimeTable) -> np.ndarray:
    """{ n <= N : n*m + b is prime }, as a sorted int64 array."""
    check_residue_pair(b, m)
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    warn_if_large_modulus(m, N)
    values = m * np.arange(1, N + 1, dtype=np.int64) + b
    if int(values[-1]) > table.limit:
        raise TableRangeError(
            f"need primality up to {int(values[-1])}, table covers {table.limit}"
        )
    return np.flatnonzero(table.is_prime(values)).astype(np.int64) + 1


def rough_support(b: int, m: int, N: int, q: int, table: PrimeTable) -> np.ndarray:
    """{ n <= N : every prime factor of n*m + b exceeds q }, as a sorted
    int64 array.

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
