"""The paper's closed forms and bounds, and the direct-summation oracles
that the tests hold the program to.

None of these runs on a CLI path, so none of them lives in `primeaps`:
tests/test_package.py::test_every_def_is_reached_from_the_cli keeps it so.
Here are the arithmetic oracles (the smallest-prime-factor table and its
factorizations, Moebius, Ramanujan sums, rough and smooth numbers), the local densities gamma_{r,q} and sigma_{a,q} in closed form
and by direct summation, Brun's truncated inclusion-exclusion, the
exponential sum f^(theta) by compensated summation and the torus grid
of f^ by one full-length rfft (`rfft_grid`), the kernels tau and
Fejer, the major-arc main term q^(-1) sigma_{a,q} tau(theta - a/q), the
minor-arc bounds and the Weyl min-sum, the interpolated L^p bound of each
dyadic piece, a brute-force 3AP test, the exact 3AP counts of an integer
set in Z_N and on the line by direct summation (`count_set_3aps`), the
pair-sum counts of an integer set at a power of two (`pair_sum_counts`),
and the greedy progression-free pass and Behrend digit-sphere search that the
base-3 set is held to.

All bound formulas are evaluated with implicit constant 1; the tests check
the formulas themselves (values, decay in their parameters, input
validation), not a measured quantity against a bound.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from primeaps import sieve
from primeaps.arcs import MAJOR, ArcLabel, dirichlet_approx
from primeaps.errors import ConfigError, ParameterError, PreconditionError, TableRangeError
from primeaps.measures import (
    BASE_ZN,
    Measure,
    MeasureParams,
    _zero_measure,
    rough_prefactor,
)
from primeaps.numutil import e, fsum_real
from primeaps.roth import BEHREND_MIN_N, Count3APs


class DomainError(ValueError):
    """Operation applied outside its domain (e.g. wrong arc kind)."""


# ---------------------------------------------------------------------------
# arithmetic


@dataclass
class FactorTable:
    """Smallest-prime-factor table covering 2..limit: the oracle that the
    program's sieve.PrimeTable is held to, and the factorizations that
    mobius, is_rough, is_smooth and the sigma oracles read."""

    limit: int
    spf: np.ndarray = field(repr=False)
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


def build_spf_table(limit: int) -> FactorTable:
    """Sieve the smallest-prime-factor table for 2..limit.

    Vectorized Eratosthenes variant: each composite gets marked first by its
    smallest prime (primes ascend and marking starts at p*p), so the table
    is identical to the classical linear sieve's.
    """
    if not 2 <= limit <= sieve.MAX_TABLE_LIMIT:
        raise ConfigError(f"limit must be in [2, {sieve.MAX_TABLE_LIMIT}], got {limit}")
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


def is_rough(n: int, q: int, table: FactorTable) -> bool:
    """True when every prime factor of n exceeds q (vacuously for n=1)."""
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if n == 1:
        return True
    return int(table.spf[n]) > q


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
    return table.factorize(n)[-1][0] <= q


def ramanujan_sum(q: int, a: int) -> complex:
    """c_q(a) = sum over t mod q, gcd(t,q)=1, of e(at/q) by direct summation.

    Equals mu(q) whenever gcd(a,q)=1.
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


def dist_to_int(x):
    """Distance to the nearest integer, the torus norm ||x||."""
    arr = np.asarray(x, dtype=float)
    d = np.abs(arr - np.round(arr))
    if d.ndim == 0:
        return float(d)
    return d


def fsum_complex(values) -> complex:
    """Compensated sum of complex values (real/imag parts separately)."""
    arr = np.asarray(values, dtype=complex)
    return complex(math.fsum(arr.real.tolist()), math.fsum(arr.imag.tolist()))


# ---------------------------------------------------------------------------
# local densities


def gamma_rq(
    r: int,
    q: int,
    params: MeasureParams,
    Q: int | None,
    table: FactorTable,
) -> float:
    """Local density on the progression r mod q of lambda (Q = None) or of
    lambda^{(Q)}.

    lambda: phi(m) q / phi(mq) when gcd(mr+b, mq) = 1, else 0.
    lambda^{(Q)}: prod_{p<=Q, p∤m}(1-1/p)^(-1) * prod_{p<=Q, p∤mq}(1-1/p)
    when gcd(mr+b, mq) is Q-rough, else 0. Q=1 is the zero measure, so
    every gamma is 0 there.
    """
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if not 0 <= r < q:
        raise ParameterError(f"r={r} outside [0, {q})")
    b, m = params.b, params.m
    g = math.gcd(m * r + b, m * q)
    if Q is None:
        if g != 1:
            return 0.0
        return sieve.euler_phi(m) * q / sieve.euler_phi(m * q)
    if _zero_measure(Q) or not is_rough(g, Q, table):
        return 0.0
    return rough_prefactor(Q, m, table) * sieve.mertens_product(Q, m * q, table)


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


def sigma_aq(
    a: int,
    q: int,
    params: MeasureParams,
    Q: int | None,
    table: FactorTable,
) -> complex:
    """sigma_{a,q} = sum_r e(ar/q) gamma_{r,q} of lambda (Q = None) or of
    lambda^{(Q)}, in closed form: q*mu(q)/phi(q) * e(-a*b*minv/q) when
    gcd(m,q)=1 (and, for lambda^{(Q)}, Q > 1 and q is Q-smooth), else 0.
    minv is the inverse of m mod q. The literal sum over r is the oracle
    sigma_aq_direct_all.
    """
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if math.gcd(a, q) != 1:
        raise PreconditionError(f"gcd(a, q) must be 1, got gcd({a}, {q})")
    if (Q is not None and _zero_measure(Q)) or math.gcd(params.m, q) != 1:
        return 0.0 + 0.0j
    factors = table.factorize(q)  # gives mu(q), phi(q) and Q-smoothness
    if any(k > 1 for _, k in factors):
        return 0.0 + 0.0j  # mu(q) = 0
    if Q is not None and q > 1 and factors[-1][0] > Q:
        return 0.0 + 0.0j  # q is not Q-smooth
    mu = -1 if len(factors) % 2 else 1
    minv = pow(params.m % q, -1, q) if q > 1 else 0
    return q * mu / math.prod(p - 1 for p, _ in factors) * e_scalar(-a * params.b * minv / q)


def sigma_aq_direct_all(
    q: int,
    params: MeasureParams,
    Q: int | None,
    table: FactorTable,
) -> np.ndarray:
    """Direct summation sigma_{a,q} of lambda (Q = None) or lambda^{(Q)}
    for every residue a = 0..q-1 at once.

    Entries at a with gcd(a,q) > 1 are the same character sums evaluated
    formally; the closed form is stated for coprime a only.
    """
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    b, m = params.b, params.m
    r = np.arange(q, dtype=np.int64)
    g = np.gcd(m * r + b, m * q)
    if Q is None:
        val = sieve.euler_phi(m) * q / sieve.euler_phi(m * q)
        gam = np.where(g == 1, val, 0.0)
    elif _zero_measure(Q):
        return np.zeros(q, dtype=complex)
    else:
        table.check_range(m * q)
        rough = (g == 1) | (table.spf[g] > Q)  # 1 <= g <= m*q
        val = rough_prefactor(Q, m, table) * sieve.mertens_product(Q, m * q, table)
        gam = np.where(rough, val, 0.0)
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
    table: FactorTable,
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
    if not is_rough(math.gcd(m * r + b, m * q), Q, table):
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
# exponential sums and kernels


def e_scalar(x: float) -> complex:
    """e(x) = exp(2*pi*i*x) of one float, with x reduced mod 1 first: the
    scalar form of numutil.e. x % 1.0 is exactly x - floor(x), and
    cmath.exp matches np.exp on a scalar bit for bit."""
    return cmath.exp(2j * math.pi * (x % 1.0))


def exp_sum(f: Measure, theta: float) -> complex:
    """f^(theta) = sum over the support of f(n) e(n*theta), compensated."""
    pos, w = f.support()
    return fsum_complex(w * e(pos * theta))


def rfft_grid(f: Measure, M: int) -> np.ndarray:
    """f^(j/M) for j = 0..M-1 from one full-length rfft of the real
    weights scattered mod M, completed by Hermitian symmetry: the
    conjugate of bin j for j <= M/2, and f^((M - j)/M) = conj f^(j/M) for
    the rest, so |f^| ties exactly at mirrored points. This is how
    `fourier.wedge_grid` took the grid before it ran the real four-step
    pass on the support's rows."""
    pos, w = f.support()
    pad = np.zeros(M)
    pad[pos % M] = w
    half = np.fft.rfft(pad)
    vals = np.empty(M, dtype=np.complex128)
    np.conjugate(half, out=vals[:half.size])
    vals[half.size:] = half[(M + 1) // 2 - 1:0:-1]
    return vals


def tau(theta: float, N: int) -> complex:
    """tau(theta) = N^(-1) sum_{n=1..N} e(n*theta).

    Closed form e((N+1) v / 2) sin(pi N v) / (N sin(pi v)) with v the
    signed distance from theta to the nearest integer. Unlike the geometric
    form (e(N v) - 1) / (e(v) - 1), it has no cancellation near integers.
    """
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    v = theta - round(theta)
    if v == 0.0:
        return 1.0 + 0.0j
    if abs(N * v) < 1e-9:
        # the ratio is 1 - O((N v)^2), which rounds to 1.0; the sines would
        # be subnormal for tiny v and lose their precision
        ratio = 1.0
    else:
        s = math.sin(math.pi * v)
        ratio = math.sin(math.pi * math.fmod(N * v, 2.0)) / (N * s)
    return complex(ratio * e_scalar(math.fmod((N + 1) * v / 2.0, 1.0)))


def fejer(theta: float, N: int) -> float:
    """Fejer kernel K_N(theta) = N^(-1) (sin(pi N theta)/sin(pi theta))^2.

    K_N(0) = N, K_N >= 0, and the torus integral is exactly 1.
    """
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    u = dist_to_int(theta)
    if N * u < 1e-9:
        # K_N = N (1 - O((N u)^2)), which rounds to N; for tiny u the sines
        # lose precision and s * s underflows to 0
        return float(N)
    s = math.sin(math.pi * u)
    sN = math.sin(math.pi * math.fmod(N * u, 1.0))
    return (sN * sN) / (s * s) / N


# ---------------------------------------------------------------------------
# arcs


def major_prediction(
    theta: float,
    label: ArcLabel,
    mparams: MeasureParams,
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
    sig = sigma_aq(a % q if q > 1 else 0, q, mparams, Q, table)
    return sig / q * tau(theta - a / q, mparams.N)


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


# ---------------------------------------------------------------------------
# progressions


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


def count_set_3aps(S, *, N: int) -> tuple[Count3APs, Count3APs]:
    """The (Z_N, integer-line) 3AP counts of an integer set S in [0, N), by
    direct summation: every pair sum s + t, from np.add.outer, is tallied
    by bincount, on the line at k and in Z_N at k mod N, and summed over y
    in S at 2y and at 2y mod N. No transform is taken, so it shares no code
    with `roth.line_3aps`, the count the program takes."""
    if isinstance(S, (set, frozenset)):
        S = sorted(S)
    S = np.unique(np.asarray(S, dtype=np.int64))
    if S.size and (S.min() < 0 or S.max() >= N):
        raise ParameterError(f"set elements must lie in [0, {N})")
    sums = np.add.outer(S, S).ravel()
    line = int(np.bincount(sums, minlength=2 * N - 1)[2 * S].sum())
    wrapped = int(np.bincount(sums % N, minlength=N)[(2 * S) % N].sum())
    return (Count3APs(total=wrapped, nontrivial=wrapped - S.size),
            Count3APs(total=line, nontrivial=line - S.size))


def pair_sum_counts(S) -> tuple[np.ndarray, float]:
    """(1_S * 1_S)(k) = #{(s, t) in S x S : s + t = k} for k = 0..2 max(S),
    for a nonempty set S of integers >= 0, and the worst distance of the
    float convolution from its rounded integers. One rfft and one irfft
    at the power of two P >= 2 max(S) + 1, where no sum wraps around, each
    one call at the full length P. `fourier.set_convolution` takes the
    real four-step pass pair at its least 5-smooth length instead, so the
    two share no transform call."""
    S = np.asarray(S, dtype=np.int64)
    n = int(S.max()) + 1
    P = 1 << (2 * n - 2).bit_length()
    u = np.zeros(n)
    u[S] = 1.0
    F = np.fft.rfft(u, P)
    del u
    F *= F
    conv = np.fft.irfft(F, P)[:2 * n - 1]
    del F
    rounded = np.rint(conv)
    residual = float(np.max(np.abs(conv - rounded)))
    return rounded.astype(np.int64), residual


def greedy_free(values) -> list[int]:
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


@functools.cache  # behrend_search and the sphere-count test share it; both only read it
def best_sphere(d: int, dim: int) -> np.ndarray:
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


def behrend_search(N: int) -> np.ndarray:
    """A 3AP-free subset of {1..N}: the best digit-sphere construction,
    or the greedy progression-free fallback when that is larger (the
    search that roth.behrend_set's closed form replaced)."""
    if N < BEHREND_MIN_N:
        raise ParameterError(f"N must be >= {BEHREND_MIN_N}, got {N}")
    best = np.asarray(greedy_free(range(1, N + 1)), dtype=np.int64)
    d = 3
    while d * d <= N:
        dim = 2
        while d**dim <= N:
            cand = best_sphere(d, dim)
            if cand.size > best.size:
                best = cand
            dim += 1
        d += 1
    return np.sort(best)
