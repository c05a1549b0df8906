"""Exponential sums, Z_N transforms, torus-grid L^p norms, Fejer kernels,
the trilinear 3AP form, and exact set convolutions.

Conventions. The wedge transform is f^(theta) = sum_n f(n) e(n*theta) over
the ambient points of the measure. The Z_N transform is
f~(r) = sum_x f(x) e(-rx/N), i.e. exactly numpy's FFT sign, so the bridge
f~(r) = f^(-r/N) is an identity under the Z_N embedding of {1..N}.

This module is the only place Z_N transforms are taken. `spectrum` computes
a measure's transform once and caches it on the (read-only) measure, so a
pipeline that reuses a, mu or beta pays one length-N FFT for each. Counts
on integer sets never transform at the (often prime) length N:
`set_convolution` forms the linear convolution at a power of two >= 2N-1,
from which both the line count and the Z_N count (after folding mod N) are
read.

The torus-grid path is separate. `wedge_grid` evaluates f^ on the grid j/M
with one length-M transform. The L^p norms come from one ladder,
`_lp_norm_checked`, that never evaluates a grid twice: the first level,
M = oversample * N, is one transform (an rfft for real coefficients, whose
grid is Hermitian), and each doubling keeps the sum of |f^|^p over the M
grid as the even samples of the 2M grid and adds the odd ones with one
length-M transform of twisted coefficients. At even integer p the M-point
rule is exact once M > (p/2) * span, and the ladder stops there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    GridConvergenceWarning,
    ParameterError,
    PreconditionError,
    StageError,
)
from .measures import Measure
from .numutil import dist_to_int, e, fsum_complex, fsum_real
from .sieve import FactorTable

REL_CONSISTENCY = 1e-3  # grid-doubling self-consistency contract (0.1%)
MAX_OVERSAMPLE = 16  # escalation cap before warning
INTEGRALITY_TOL = 0.25  # a rounded count this far from an integer is an error


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid j/M on the torus with M = oversample * N."""

    oversample: int = 8

    def __post_init__(self) -> None:
        if self.oversample < 2:
            raise ParameterError(f"oversample must be >= 2, got {self.oversample}")

    def points(self, N: int) -> int:
        return self.oversample * N


def exp_sum(f: Measure, theta: float) -> complex:
    """f^(theta) = sum over the support of f(n) e(n*theta), compensated."""
    pos, w = f.support()
    return fsum_complex(w * e(pos * theta))


def spectrum(f: Measure) -> np.ndarray:
    """f~(r) = sum_x f(x) e(-rx/N) for r = 0..N-1, as a read-only array.

    One FFT on first use, cached on f; the weights of a Measure are
    read-only, so the cached coefficients cannot go stale.
    """
    coeffs = f._spectrum
    if coeffs is None:
        coeffs = np.fft.fft(f.zn_weights())
        coeffs.setflags(write=False)
        f._spectrum = coeffs
    return coeffs


def idft(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of spectrum: the Z_N weights with transform coeffs."""
    return np.fft.ifft(coeffs)


def _scatter(positions: np.ndarray, values: np.ndarray, M: int) -> np.ndarray:
    """The length-M coefficient array holding values at positions mod M."""
    pad = np.zeros(M, dtype=values.dtype)
    pad[positions % M] = values
    return pad


def wedge_grid(f: Measure, M: int) -> np.ndarray:
    """Evaluate f^(j/M) = sum_n f(n) e(n * j/M) for j = 0..M-1 via one
    length-M FFT.

    The support points must be distinct mod M, which holds for M >= f.N.
    """
    pos, w = f.support()
    return M * np.fft.ifft(_scatter(pos, w.astype(np.complex128), M))


def _power_sum(pad: np.ndarray, p: float) -> float:
    """sum over j = 0..M-1 of |sum_n pad_n e(nj/M)|^p, with M = len(pad).

    Over a full period the sign of the phase only permutes j, so one forward
    transform serves. A real pad has a Hermitian transform: its rfft holds
    bins 0..M//2, and every bin but 0 and (for even M) M/2 stands for two.
    """
    real = not np.iscomplexobj(pad)
    mags = np.abs(np.fft.rfft(pad) if real else np.fft.fft(pad))
    mags **= p
    if not real:
        return float(np.sum(mags))
    total = 2.0 * np.sum(mags) - mags[0]
    if pad.size % 2 == 0:
        total -= mags[-1]
    return float(total)


def _lp_norm_checked(positions, values, N, p, grid: TorusGrid) -> float:
    """Torus L^p norm (mean of |f^|^p over the grid j/M, to the power 1/p)
    with the grid-doubling self-consistency ladder.

    The first level, M = oversample * N, takes one transform (an rfft when
    the values are real). Each doubling keeps the sum of |f^|^p over the
    M grid as the even samples of the 2M grid and adds only the odd ones,
    f^((2j+1)/2M) = sum_n v_n e(n/2M) e(nj/M): one length-M transform of
    the twisted values. The ladder doubles until two consecutive levels
    agree to 0.1%; if the pair at oversample 16 still disagrees, a
    GridConvergenceWarning is issued and the finer value returned.

    For even integer p, |f^|^p is a trigonometric polynomial of degree at
    most (p/2) * span, span = max - min of the positions, so the M-point
    rule is exact once M > (p/2) * span: that level is returned without
    doubling, and no warning can arise. Every L^p norm and ratio of this
    module comes here, so this is where p outside [1, inf), NaN included,
    is refused.
    """
    if not 1 <= p < math.inf:
        raise ParameterError(f"p must lie in [1, inf), got {p}")
    positions = np.asarray(positions, dtype=np.int64)
    values = np.asarray(values)
    if np.iscomplexobj(values) and not np.any(values.imag):
        values = values.real
    span = int(np.ptp(positions)) if positions.size else 0
    even = p % 2 == 0
    o = grid.oversample
    total = _power_sum(_scatter(positions, values, o * N), p)
    cur = (total / (o * N)) ** (1.0 / p)
    while not (even and o * N > p / 2 * span):
        M = o * N
        twisted = values * e(positions / (2 * M))  # the odd samples of 2M
        total += _power_sum(_scatter(positions, twisted, M), p)
        nxt = (total / (2 * M)) ** (1.0 / p)
        scale = max(abs(nxt), 1e-300)
        if abs(cur - nxt) / scale < REL_CONSISTENCY:
            return nxt
        if o >= MAX_OVERSAMPLE:
            warnings.warn(
                f"L^{p} grid norm not self-consistent at oversample {o} "
                f"(rel diff {abs(cur - nxt) / scale:.2e})",
                GridConvergenceWarning,
                stacklevel=3,
            )
            return nxt
        o *= 2
        cur = nxt
    return cur


def lp_norm_torus(f: Measure, p: float, grid: TorusGrid) -> float:
    """(integral over the torus of |f^|^p)^(1/p) by uniform-grid quadrature."""
    pos, w = f.support()
    return _lp_norm_checked(pos, w, f.N, p, grid)


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
    return complex(ratio * e(math.fmod((N + 1) * v / 2.0, 1.0)))


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


def mz_ratio(f: Measure, p: float, grid: TorusGrid) -> float:
    """sum_r |f^(r/N)|^p divided by N * integral |f^(theta)|^p dtheta.

    The discrete-to-continuous comparison behind the dual restriction
    estimates; equals 1 exactly at p=2 by Parseval on both sides.
    """
    den = f.N * lp_norm_torus(f, p, grid) ** p
    if den == 0.0:
        raise DegenerateInputError("zero measure has no mz ratio")
    return float(np.sum(np.abs(spectrum(f)) ** p)) / den


def triple_count(f: Measure, g: Measure, h: Measure) -> float:
    """sum over x, d in Z_N of f(x) g(x+d) h(x+2d), d=0 included.

    Spectral form N^(-1) sum_r f~(r) g~(-2r) h~(r); all three measures
    must share N. The spectra come from `spectrum`, so f = g = h costs one
    transform.
    """
    if not (f.N == g.N == h.N):
        raise ParameterError("measures must share N")
    N = f.N
    F, G, H = spectrum(f), spectrum(g), spectrum(h)
    idx = (-2 * np.arange(N)) % N
    val = np.sum(F * H * G[idx]) / N
    return float(val.real)


def set_convolution(S: np.ndarray, T: np.ndarray, N: int) -> np.ndarray:
    """(1_S * 1_T)(k) = #{(s, t) in S x T : s + t = k} for k = 0..2N-2,
    exactly, for integer sets S, T inside [0, N).

    One zero-padded linear convolution with rfft/irfft at the power of two
    P >= 2N-1, where no sum wraps around; T equal to S reuses S's transform.
    Every value is rounded to an integer, and a value 0.25 or more away from
    its integer raises StageError instead of being rounded away.
    """
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    L = 2 * N - 1
    P = 1 << (L - 1).bit_length()

    def transform(U: np.ndarray) -> np.ndarray:
        u = np.zeros(P, dtype=np.float64)
        u[U] = 1.0
        return np.fft.rfft(u)

    FS = transform(S)
    FT = FS if np.array_equal(S, T) else transform(T)
    conv = np.fft.irfft(FS * FT, P)[:L]
    rounded = np.rint(conv)
    residual = float(np.max(np.abs(conv - rounded)))
    if residual >= INTEGRALITY_TOL:
        raise StageError(
            "integrality",
            f"set convolution is {residual:.3g} from an integer "
            f"(length {P}, tolerance {INTEGRALITY_TOL})",
        )
    return rounded.astype(np.int64)


def majorant_denominator(p: float, N: int, table: FactorTable, grid: TorusGrid) -> float:
    """|| sum over primes n <= N of e(n theta) ||_p, the denominator of
    every majorant_ratio at (p, N, grid)."""
    primes = table.primes_up_to(N)
    if primes.size == 0:
        raise DegenerateInputError(f"no primes <= {N}")
    return _lp_norm_checked(primes, np.ones(primes.size, dtype=np.complex128),
                            N, p, grid)


def majorant_ratio(
    signs: np.ndarray,
    p: float,
    N: int,
    table: FactorTable,
    grid: TorusGrid,
    den: float | None = None,
) -> float:
    """|| sum over primes n <= N of a_n e(n theta) ||_p divided by the same
    norm with all a_n = 1. Requires |a_n| <= 1 (majorized coefficients).
    `den`, when given, is majorant_denominator(p, N, table, grid), which a
    caller drawing many coefficient vectors computes once."""
    primes = table.primes_up_to(N)
    signs = np.asarray(signs, dtype=np.complex128)
    if signs.shape != primes.shape:
        raise ParameterError(
            f"need one coefficient per prime <= {N} ({primes.size}), got {signs.size}"
        )
    if signs.size == 0:
        raise DegenerateInputError(f"no primes <= {N}")
    if float(np.max(np.abs(signs))) > 1.0 + 1e-12:
        raise PreconditionError("majorant coefficients must satisfy |a_n| <= 1")
    num = _lp_norm_checked(primes, signs, N, p, grid)
    if den is None:
        den = majorant_denominator(p, N, table, grid)
    return num / den


def restriction_ratio(
    fvals: np.ndarray,
    p: float,
    lam: Measure,
    grid: TorusGrid,
) -> float:
    """||(f lambda)^||_p * N^(1/p) / ||f||_{L^2(d lambda)}.

    fvals holds f on the support of lam (in ascending support order); the
    empirical restriction constant is the sup of this over ||f|| <= 1.
    """
    if not p > 2:
        raise ParameterError(f"p must be > 2, got {p}")
    pos, wsup = lam.support()
    if wsup.size == 0:
        raise DegenerateInputError("lambda has empty support")
    fvals = np.asarray(fvals, dtype=np.complex128)
    if fvals.shape != wsup.shape:
        raise ParameterError(
            f"need one value per support point ({wsup.size}), got {fvals.size}"
        )
    l2 = math.sqrt(fsum_real(np.abs(fvals) ** 2 * wsup))
    if l2 == 0.0:
        raise DegenerateInputError("f vanishes in L^2(d lambda)")
    norm = _lp_norm_checked(pos, fvals * wsup, lam.N, p, grid)
    return norm * lam.N ** (1.0 / p) / l2

