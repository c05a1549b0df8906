"""Arithmetic: the prime table, Euler's phi and Mertens products.

The program reads two arithmetic facts: whether n*m + b is prime (the
measure lambda_{b,m,N}, the W-trick's N, the rough sieve's primes) and
phi(m) of one modulus. So the table is one boolean per integer, prime[n]
for 0 <= n <= limit, and phi is trial division. The supports that the
measures live on are built in `measures`, from the measure's (b, m, N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParameterError, TableRangeError

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
    """prod over primes p <= q, p not dividing m, of (1 - 1/p); a q past
    the table's limit raises TableRangeError."""
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    ps = table.primes_up_to(q)
    if m > 1:
        ps = ps[m % ps != 0]
    return float(np.prod(1.0 - 1.0 / ps)) if ps.size else 1.0
