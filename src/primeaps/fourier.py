"""Z_N transforms, torus-grid L^p norms, the trilinear 3AP form, and exact
set convolutions.

Conventions. The wedge transform is f^(theta) = sum_n f(n) e(n*theta) over
the ambient points of the measure. The Z_N transform is
f~(r) = sum_x f(x) e(-rx/N), i.e. exactly numpy's FFT sign, so the bridge
f~(r) = f^(-r/N) is an identity under the Z_N embedding of {1..N}.

This module is the only place Z_N transforms are taken, and none runs at
the (often prime) length N itself. `spectrum` computes a measure's
transform on each call and caches nothing: a pipeline that reads a, mu or
beta more than once takes each spectrum once, holds it as a plain array
and drops it after its last reader. The weights are real, so only the
half r <= N/2 is computed, by Bluestein's chirp convolution (L.
Bluestein, "A linear filtering approach to the computation of the
discrete Fourier transform", 1970) at a 5-smooth length L ~ 1.5 N; the
rest is its exact conjugate mirror, so every spectrum is exactly
Hermitian. `idft` inverts a Hermitian spectrum, given as its half
r <= N/2, to real weights with one convolution of the same kind. Both
use the chirp, kernel transform and twiddles of `_chirp_plan`, built
once per N. Each
transform of a convolution is a four-step one (`_four_step`): L = L1 L2
with L1 ~ sqrt(L), so it is two batched calls of short FFTs on the
(L1, L2) view of the buffer, in place, and never one call at the full
length L, whose scratch pocketfft would allocate afresh. Counts on integer
sets run at 5-smooth lengths too: `_self_convolution` takes the linear
self-convolution of a real vector of n values at the least 5-smooth
L >= 2n - 1 by the real four-step pass pair, `_real_forward` (an rfft down
axis 0 of the pad's (L1, L2) view, L1 = `_split(L)`, the twiddle, an fft
along axis 1: the rows k1 <= L1/2) and `_real_inverse` (an ifft along
axis 1, the conjugate twiddle, an irfft down axis 0), squared in between.
`set_convolution` forms from it the exact pair-sum counts of a set's
indicator, L >= 2 max(S) + 1, from which the line count is read.
`self_triple_count` counts the 3APs of one real measure from the same
self-convolution, L >= 2N - 1, folded mod N: it reads only the measure's
weights, never a spectrum. `triple_count` reads the same form off three
spectra. Each full-length product of a count is built into one array a
block of `BLOCK` points at a time (`index_blocks`), and then summed whole.

The torus-grid path is separate. `wedge_grid` evaluates f^ on the grid j/M
with one length-M rfft, completed by Hermitian symmetry, since the weights
of a measure are real. The L^p norms come from one ladder, `_lp_ladder`,
over the levels M = oversample * N, 2M, 4M, ..., which stops once two
consecutive levels agree. Each grid of L = s N points is a four-step
transform too, on the (L1, L2) view of its pad, L1 = s * `_split(N)`, with
no full-length call. Real coefficients take one `_real_grid_powers` (the
powers of `_real_forward`'s rows k1 <= L1/2, whose conjugate mirrors are
the rest) per comparison, since the grid of 2M points holds the M grid as
its rows k1 = 0 mod 2. Complex coefficients
(only `restriction_ratio` has them) take one transform of M points, and
each doubling adds the odd samples of the 2M grid with one of twisted
coefficients. At even integer p the M-point rule is exact once
M > (p/2) * span, and the ladder stops at the first exact level; when that
is the first, it costs one transform of M points. `mz_ratio` reads its
discrete sum over r/N off the rows k1 = 0 mod s of the ladder's first
grid, so it takes no length-N transform of its own.

The ladder refuses, with ParameterError, a p outside [1, inf) and a p at
which the grid mean of |f^|^p leaves the float range: infinite or NaN
(|f^|^p overflows), or 0 while some coefficient is nonzero (every power
underflows). A grid's oversample must lie in 2..MAX_OVERSAMPLE, the
furthest the ladder escalates.
"""

from __future__ import annotations

import functools
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
    shown,
)
from .measures import Measure
from .numutil import e, fsum_real
from .sieve import PrimeTable

REL_CONSISTENCY = 1e-3  # grid-doubling self-consistency contract (0.1%)
MAX_OVERSAMPLE = 16  # escalation cap before warning
INTEGRALITY_TOL = 0.25  # a rounded count this far from an integer is an error


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid j/M on the torus with M = oversample * N, for
    oversample in 2..MAX_OVERSAMPLE: the L^p ladder escalates no further,
    so a grid starting above it would skip the self-consistency check."""

    oversample: int

    def __post_init__(self) -> None:
        if not 2 <= self.oversample <= MAX_OVERSAMPLE:
            raise ParameterError(f"oversample must be in 2..{MAX_OVERSAMPLE}, "
                                 f"got {shown(self.oversample)}")

    def points(self, N: int) -> int:
        return self.oversample * N


def _smooth_length(n: int) -> int:
    """The least 5-smooth integer >= n (1 for n <= 1)."""
    best = 1 << max(n - 1, 0).bit_length()
    five = 1
    while five < best:
        three = five
        while three < best:
            m = three
            while m < n:
                m *= 2
            best = min(best, m)
            three *= 3
        five *= 5
    return best


def _split(n: int) -> int:
    """The largest divisor d of n with d * d <= n (1 for prime n)."""
    d = math.isqrt(n)
    while n % d:
        d -= 1
    return d


def _twiddles(L1: int, L2: int, rows: int) -> tuple[np.ndarray, ...]:
    """The twiddle w^(k1 n2), w = exp(-2 pi i / L), of the four-step
    transform on the (L1, L2) view of a length-L buffer at its rows
    k1 < rows, as two small tables: with n2 = B a + b, B = `_split(L2)`,
    it is w^(k1 B a) (shape (rows, L2 / B, 1)) times w^(k1 b) (shape
    (rows, 1, B)), about rows (L2 / B + B) values. k1 B a and k1 b lie
    below L, so every phase is an exact integer and within one rounding
    of its value. None is cached beyond `_chirp_plan`'s: a table held
    between a ladder's large transient arrays keeps the heap from
    shrinking back, which costs more peak memory than the tables save."""
    B = _split(L2)
    k1 = np.arange(rows, dtype=np.int64)[:, None, None]
    phases = (k1 * (B * np.arange(L2 // B))[:, None], k1 * np.arange(B))
    return tuple(np.exp((-2j * math.pi / (L1 * L2)) * m) for m in phases)


@functools.lru_cache(maxsize=1)
def _chirp_plan(N: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The half-length Bluestein plan of Z_N: the chirp
    cbar(n) = exp(-i pi n^2 / N) for n < N, the transform of the kernel
    V[k mod L] = conj cbar(|k|) for -(N-1) <= k <= R-1, with R = N//2 + 1
    and L the least 5-smooth integer >= N + R - 1, so that no sum of a
    convolution with V wraps around onto r < R, and the twiddles of the
    four-step transform at L (`_four_step`).

    The four-step transform runs on the (L1, L2) view of a length-L
    buffer, L1 = `_split(L)` <= L2 = L / L1 (1215 x 1250 at N = 1,000,003,
    where its `_twiddles` take 1.5 MB against 24 MB for the full table).
    The kernel's transform is kept in the transform's own (k1, k2) order,
    k = k1 + L1 k2, as an (L1, L2) array. n^2 is reduced mod 2N in
    integers, so every phase of the chirp is an exact integer too. One
    plan is kept: a run transforms at one N.
    """
    R = N // 2 + 1
    L = _smooth_length(N + R - 1)
    L1 = _split(L)
    n = np.arange(N, dtype=np.int64)
    chirp = np.exp((-1j * math.pi / N) * (n * n % (2 * N)))
    del n
    twiddles = _twiddles(L1, L // L1, L1)
    kernel = np.zeros(L, dtype=np.complex128)
    np.conjugate(chirp[:R], out=kernel[:R])
    np.conjugate(chirp[:0:-1], out=kernel[L - N + 1:])
    kernel = kernel.reshape(L1, -1)
    _four_step(kernel, twiddles, inverse=False)
    for a in (chirp, kernel, *twiddles):
        a.setflags(write=False)
    return chirp, kernel, twiddles


def _four_step(v: np.ndarray, twiddles: tuple[np.ndarray, ...],
               inverse: bool) -> None:
    """Transform the (L1, L2) array v in place, as the length-L buffer it
    views, by the four-step split (D. H. Bailey, "FFTs in external or
    hierarchical memory", 1990) with n = L2 n1 + n2 and k = k1 + L1 k2.

    Forward: L2 ffts of length L1 down axis 0, the twiddle w^(k1 n2),
    then L1 ffts of length L2 along axis 1, so the spectrum comes out in
    (k1, k2) order. Inverse, from that order: iffts along axis 1, the
    conjugate twiddle, then iffts down axis 0, which leave the result in
    natural order. Each pass is one batched call with `out=v`, so no
    full-length array is allocated. No n-dimensional transform is used:
    numpy 2.4.6's ifft2 ignores `out=`, so ifft2(v, out=v) would leave v
    as it was.
    """
    transform = np.fft.ifft if inverse else np.fft.fft
    first, last = (1, 0) if inverse else (0, 1)
    transform(v, axis=first, out=v)
    _twiddle(v, twiddles, inverse)
    transform(v, axis=last, out=v)


def _twiddle(v: np.ndarray, twiddles: tuple[np.ndarray, ...],
             inverse: bool) -> None:
    """v *= the twiddle of `_twiddles` at v's rows (conjugate if inverse)."""
    view = v.reshape(v.shape[0], -1, twiddles[1].shape[2])
    for t in twiddles:
        view *= np.conjugate(t) if inverse else t


def _chirp_convolution(u: np.ndarray, kernel: np.ndarray,
                       twiddles: tuple[np.ndarray, ...]) -> None:
    """Replace u by its cyclic convolution with the plan's kernel: a
    forward four-step transform of u's (L1, L2) view, the product with
    the kernel's transform in the same (k1, k2) order, and the inverse
    four-step transform, all in place."""
    v = u.reshape(kernel.shape)
    _four_step(v, twiddles, inverse=False)
    v *= kernel
    _four_step(v, twiddles, inverse=True)


def spectrum(f: Measure) -> np.ndarray:
    """f~(r) = sum_x f(x) e(-rx/N) for r = 0..N-1, as a read-only array.

    Each call takes the transform afresh: a caller that reads a spectrum
    more than once holds it, and drops it after its last reader. The
    weights are real, so only r <= N/2 are transformed, by Bluestein's
    identity rx = (r^2 + x^2 - (r - x)^2) / 2:

        f~(r) = cbar(r) sum_x (f(x) cbar(x)) c(r - x),   c = conj cbar,

    one convolution with the kernel of `_chirp_plan` at its 5-smooth
    length L ~ 1.5 N, in place in one length-L buffer: a forward and an
    inverse four-step transform, four batched calls of FFTs of length
    about sqrt(L). f~(0), and f~(N/2) for even N, are made real, and
    f~(N - r) = conj f~(r) is filled in, so the spectrum is exactly
    Hermitian, bit for bit.
    """
    w = f.zn_weights()
    N = w.size
    R = N // 2 + 1
    chirp, kernel, twiddles = _chirp_plan(N)
    u = np.zeros(kernel.size, dtype=np.complex128)
    np.multiply(w, chirp, out=u[:N])
    _chirp_convolution(u, kernel, twiddles)
    coeffs = np.empty(N, dtype=np.complex128)
    np.multiply(u[:R], chirp[:R], out=coeffs[:R])
    del u
    coeffs[0] = coeffs[0].real
    if N % 2 == 0:
        coeffs[N // 2] = coeffs[N // 2].real
    np.conjugate(coeffs[N - R:0:-1], out=coeffs[R:])
    coeffs.setflags(write=False)
    return coeffs


def idft(half: np.ndarray, N: int) -> np.ndarray:
    """Inverse of spectrum: the real Z_N weights whose transform is
    Hermitian with the values half at r = 0..N//2.

    w(n) = Re sum_{r <= N/2} om(r) conj(half(r)) e(-rn/N) / N, with
    om = 1 at r = 0 (and at N/2 for even N) and 2 elsewhere: a forward
    transform, by the same plan, kernel and four-step convolution as
    `spectrum`. The kernel is even, c(n - r) = c(r - n), so
    u(r) = om(r) conj(half(r)) cbar(r) is placed at -r mod L, and output n
    is read at -n mod L and multiplied by cbar(n) in the convolution's own
    buffer; the real part over N is the one array of N points allocated.
    half is only read, and the reference to it is dropped once its
    conjugate is taken, so a temporary passed in is freed before the
    buffer is allocated.
    """
    R = N // 2 + 1
    if half.shape != (R,):
        raise ParameterError(f"need the {R} coefficients r <= N/2 of N = {N}, "
                             f"got shape {half.shape}")
    chirp, kernel, twiddles = _chirp_plan(N)
    L = kernel.size
    v = np.conjugate(half)
    del half
    v *= chirp[:R]
    v[1:N - R + 1] *= 2.0  # om(r) = 2 at r = 1..N-R
    u = np.zeros(L, dtype=np.complex128)
    u[0] = v[0]
    u[L - R + 1:] = v[:0:-1]
    del v
    _chirp_convolution(u, kernel, twiddles)
    w = np.empty(N, dtype=np.float64)
    # n = 0 at 0, and n = 1..N-1 at L - n, a view that runs backwards;
    # chirp[0] = 1, so the product at n = 0 is exact
    for z, n in ((u[:1], slice(0, 1)), (u[L - 1:L - N:-1], slice(1, N))):
        z *= chirp[n]
        np.divide(z.real, N, out=w[n])
    return w


def _scatter(positions: np.ndarray, values: np.ndarray, M: int) -> np.ndarray:
    """The length-M coefficient array holding values at positions mod M."""
    pad = np.zeros(M, dtype=values.dtype)
    pad[positions % M] = values
    return pad


def wedge_grid(f: Measure, M: int) -> np.ndarray:
    """Evaluate f^(j/M) = sum_n f(n) e(n * j/M) for j = 0..M-1 via one
    length-M rfft.

    The weights are real, so f^(j/M) is the conjugate of rfft bin j for
    j <= M//2, and the rest of the grid is Hermitian:
    f^((M - j)/M) = conj f^(j/M), so |f^| ties exactly at mirrored points.
    The support points must be distinct mod M, which holds for M >= f.N.
    """
    pos, w = f.support()
    half = np.fft.rfft(_scatter(pos, w, M))
    vals = np.empty(M, dtype=np.complex128)
    np.conjugate(half, out=vals[:half.size])
    vals[half.size:] = half[(M + 1) // 2 - 1:0:-1]
    return vals


def _powers(v: np.ndarray, p: float) -> np.ndarray:
    """|v|^p, an overflow to inf left to _lp_ladder to refuse."""
    mags = np.abs(v)
    with np.errstate(over="ignore"):
        mags **= p
    return mags


def _real_forward(v: np.ndarray) -> np.ndarray:
    """X(k) = sum_n pad_n e(-nk/L) for the real length-L pad whose (L1, L2)
    view is v, at the rows k1 <= L1/2 of the (k1, k2) order of
    `_four_step`, k = k1 + L1 k2: an rfft down axis 0, the twiddle on those
    rows and an fft along axis 1 in the rfft's own output. The pad is real,
    so X(L - k) = conj X(k) and row L1 - k1 mirrors row k1: these rows are
    the whole transform."""
    L1, L2 = v.shape
    X = np.fft.rfft(v, axis=0)
    _twiddle(X, _twiddles(L1, L2, X.shape[0]), inverse=False)
    np.fft.fft(X, axis=1, out=X)
    return X


def _real_inverse(X: np.ndarray, L1: int) -> np.ndarray:
    """The inverse of `_real_forward`: the real (L1, L2) view of the pad
    whose transform has the rows X, for X the rows k1 <= L1/2 of a
    Hermitian transform, X(L - k) = conj X(k). An ifft along axis 1 and the
    conjugate twiddle, in X's own buffer, then an irfft of length L1 down
    axis 0. After the twiddle each column's rows are Hermitian in k1, so
    the irfft, which reads only those rows, is exact in form."""
    np.fft.ifft(X, axis=1, out=X)
    _twiddle(X, _twiddles(L1, X.shape[1], X.shape[0]), inverse=True)
    return np.fft.irfft(X, L1, axis=0)


def _real_grid_powers(v: np.ndarray, p: float) -> np.ndarray:
    """|X(k)|^p at the rows k1 <= L1/2 of the transform X of the real pad
    whose (L1, L2) view is v (`_real_forward`). Row L1 - k1 mirrors row k1,
    so each row is weighted by the rows it stands for, 1 for row 0 and
    (for even L1) row L1/2 and 2 for the others: the sum over the bins
    k = 0 mod t, t | L1, is that of the rows k1 = 0 mod t."""
    L1 = v.shape[0]
    powers = _powers(_real_forward(v), p)
    with np.errstate(over="ignore"):
        powers[1:(L1 + 1) // 2] *= 2.0
    return powers


def _lp_ladder(positions, values, N, p, grid: TorusGrid):
    """Torus L^p norm (mean of |f^|^p over the grid j/M, to the power 1/p)
    with the grid-doubling self-consistency ladder, and the first grid it
    took.

    Levels run over M = oversample * N, 2M, 4M, ... The ladder doubles
    until two consecutive levels agree to 0.1%; if the pair at oversample 16
    still disagrees, a GridConvergenceWarning is issued and the finer value
    returned.

    Each grid of L = s N points is one four-step transform of the (L1, L2)
    view of its scattered pad, L1 = s * `_split(N)`, so its sub-grids of
    every s-th and every 2nd bin are sets of rows k1. Real values take one
    `_real_grid_powers` per comparison: the grid of 2M points holds the M
    grid as its even bins, so the first pair costs one grid of 2M points,
    and each doubling after it one at the new finer length. Complex values
    take one `_four_step` of M points for the first level, in place and
    summed over every bin, so its (k1, k2) order needs no reordering; each
    doubling keeps the sum over the M grid as the even samples of the 2M
    grid and adds the odd ones, f^((2j+1)/2M) = sum_n v_n e(n/2M) e(nj/M):
    one more transform of M points, of the twisted values.

    For even integer p, |f^|^p is a trigonometric polynomial of degree at
    most (p/2) * span, span = max - min of the positions, so the M-point
    rule is exact once M > (p/2) * span: the first such level is returned,
    and when the first level is exact it is one transform of M points.
    Every L^p norm and ratio of this module comes here, so this is where p
    outside [1, inf), NaN included, is refused, and so is a p at which the
    grid mean of |f^|^p leaves the float range: infinite or NaN, or 0 for
    nonzero values.

    Returns the norm and, for real values, (powers, s): the first grid the
    ladder took, as the weighted rows of `_real_grid_powers` for its
    L = s N points, with s = oversample when that level is exact and
    2 * oversample otherwise; the sum over its bins r s is that of the
    rows powers[::s]. For complex values the second item is None.
    """
    if not 1 <= p < math.inf:
        raise ParameterError(f"p must lie in [1, inf), got {p}")
    positions = np.asarray(positions, dtype=np.int64)
    values = np.asarray(values)
    span = int(np.ptp(positions)) if positions.size else 0
    nonzero = bool(np.any(values))

    def exact(M: int) -> bool:
        return p % 2 == 0 and M > p / 2 * span

    def mean(total: float, M: int) -> float:
        value = total / M
        if not math.isfinite(value) or (value == 0.0 and nonzero):
            raise ParameterError(
                f"p = {p} is out of float range at N = {N}: the mean of "
                f"|f^|^p over the grid of {M} points is {value!r}")
        return value

    def view(v, L: int) -> np.ndarray:
        # v scattered on the grid of L points, as its (L1, L2) view
        return _scatter(positions, v, L).reshape(L // N * _split(N), -1)

    def complex_sum(v, M: int) -> float:
        pad = view(v, M)
        L1, L2 = pad.shape
        _four_step(pad, _twiddles(L1, L2, L1), inverse=False)
        return float(np.sum(_powers(pad, p)))

    real = not np.iscomplexobj(values)
    o = grid.oversample
    M = o * N
    first = None
    if real:
        # L is the length of the latest grid, M or 2M
        L = M if exact(M) else 2 * M
        powers = _real_grid_powers(view(values, L), p)
        first = (powers, L // N)
        total = float(np.sum(powers[::L // M]))
    else:
        total = complex_sum(values, M)
    cur = mean(total, M) ** (1.0 / p)
    while not exact(M):
        if real:
            if L == M:
                L = 2 * M
                powers = _real_grid_powers(view(values, L), p)
            total = float(np.sum(powers))
        else:
            twisted = values * e(positions / (2 * M))  # the odd samples of 2M
            total += complex_sum(twisted, M)
        nxt = mean(total, 2 * M) ** (1.0 / p)
        scale = max(abs(nxt), 1e-300)
        if abs(cur - nxt) / scale < REL_CONSISTENCY:
            return nxt, first
        if o >= MAX_OVERSAMPLE:
            warnings.warn(
                f"L^{p} grid norm not self-consistent at oversample {o} "
                f"(rel diff {abs(cur - nxt) / scale:.2e})",
                GridConvergenceWarning,
                stacklevel=3,  # the caller of the norm or ratio
            )
            return nxt, first
        o *= 2
        M *= 2
        cur = nxt
    return cur, first


def lp_norm_torus(f: Measure, p: float, grid: TorusGrid) -> float:
    """(integral over the torus of |f^|^p)^(1/p) by uniform-grid quadrature."""
    pos, w = f.support()
    return _lp_ladder(pos, w, f.N, p, grid)[0]


def mz_ratio(f: Measure, p: float, grid: TorusGrid) -> float:
    """sum_r |f^(r/N)|^p divided by N * integral |f^(theta)|^p dtheta.

    The discrete-to-continuous comparison behind the dual restriction
    estimates; equals 1 exactly at p=2 by Parseval on both sides. Both sums
    come from one ladder: its first grid has L = s N points, and
    f~(r) = f^(-r/N) is its bin r s, so the numerator is the sum of that
    grid's every s-th bin, which are the rows k1 = 0 mod s of its
    four-step (k1, k2) order, each weighted by its mirror row (the weights
    are real, so |f~| is Hermitian).
    """
    pos, w = f.support()
    norm, (powers, s) = _lp_ladder(pos, w, f.N, p, grid)
    den = f.N * norm ** p
    if den == 0.0:
        raise DegenerateInputError("zero measure has no mz ratio")
    return float(np.sum(powers[::s])) / den


BLOCK = 1 << 14  # points per block of a full-length product


def index_blocks(N: int, c: int):
    """The points r < N in consecutive blocks of BLOCK, each as its slice
    and the residues c r mod N on it, so that a product reading an array
    at c r is built one block at a time with no N-long index array.

    A complex product built this way keeps the bits of the whole-array
    one when every multiplication writes to an array other than its
    inputs: numpy's in-place complex multiply of a view of one to three
    points can round differently from the same points inside a longer
    array, and a last block can be that short."""
    for start in range(0, N, BLOCK):
        r = np.arange(start, min(start + BLOCK, N), dtype=np.int64)
        yield slice(start, start + r.size), (c * r) % N


def triple_count(F: np.ndarray, G: np.ndarray, H: np.ndarray) -> float:
    """sum over x, d in Z_N of f(x) g(x+d) h(x+2d), d=0 included, from
    the spectra F = f~, G = g~, H = h~ (`spectrum`) of three measures on
    one Z_N.

    Spectral form N^(-1) sum_r f~(r) g~(-2r) h~(r). The product is built
    block by block into one array (`index_blocks`), so it takes no
    transform and no N-long temporary besides it.
    """
    N = F.size
    if not (F.shape == G.shape == H.shape == (N,)):
        raise ParameterError("spectra must share N")
    prod = np.empty(N, dtype=np.complex128)
    for block, minus_2r in index_blocks(N, -2):
        np.multiply(F[block] * H[block], G[minus_2r], out=prod[block])
    val = np.sum(prod) / N
    return float(val.real)


def _self_convolution(u: np.ndarray) -> np.ndarray:
    """(u * u)(k) for k = 0..2n-2, the linear self-convolution of a real
    vector u of length n, at the least 5-smooth length L >= 2n-1, where no
    sum wraps around: the real four-step pass pair on the (L1, L2) view of
    u's zero pad, L1 = `_split(L)`, with the transform's rows squared in
    place between the passes. The square of a Hermitian transform is
    Hermitian, so the inverse pass is exact in form. The result is a view
    of the pass's (L1, L2) output."""
    n = u.size
    L = _smooth_length(2 * n - 1)
    L1 = _split(L)
    pad = np.zeros(L, dtype=np.float64)
    pad[:n] = u
    X = _real_forward(pad.reshape(L1, -1))
    del pad
    X *= X
    return _real_inverse(X, L1).reshape(-1)[:2 * n - 1]


def set_convolution(S: np.ndarray) -> np.ndarray:
    """(1_S * 1_S)(k) = #{(s, t) in S x S : s + t = k} for
    k = 0..2 max(S), exactly, for a set S of integers >= 0.

    One zero-padded linear convolution (`_self_convolution`) of the
    indicator of S on [0, max S], at the least 5-smooth length
    >= 2 max(S) + 1; an empty S gives an empty array and takes no
    transform. Every value is rounded to an integer, and a value 0.25 or
    more away from its integer raises StageError instead of being rounded
    away.
    """
    if len(S) == 0:
        return np.zeros(0, dtype=np.int64)
    u = np.zeros(int(np.max(S)) + 1, dtype=np.float64)
    u[S] = 1.0
    conv = _self_convolution(u)
    rounded = np.rint(conv)
    residual = float(np.max(np.abs(conv - rounded)))
    if residual >= INTEGRALITY_TOL:
        raise StageError(
            "integrality",
            f"set convolution is {residual:.3g} from an integer "
            f"(length {conv.size}, tolerance {INTEGRALITY_TOL})",
        )
    return rounded.astype(np.int64)


def self_triple_count(f: Measure) -> float:
    """triple_count(F, F, F) for F = f~, d = 0 included, as
    sum_y f(y) (f * f)(2y mod N): the Z_N self-convolution is the linear
    one of f's weights (`_self_convolution`, at the least 5-smooth length
    >= 2N-1) folded mod N in its own buffer, read at 2y mod N one block
    at a time (`index_blocks`). It takes no length-N transform and reads
    only the weights, never a spectrum, so it checks spectral counts
    independently."""
    N = f.N
    w = f.zn_weights()
    conv = _self_convolution(w)
    conv[:N - 1] += conv[N:]  # folded mod N, in place
    at_twice = np.empty(N, dtype=np.float64)
    for block, twice in index_blocks(N, 2):
        np.take(conv, twice, out=at_twice[block])
    return float(np.dot(w, at_twice))


def majorant_denominator(p: float, N: int, table: PrimeTable, grid: TorusGrid) -> float:
    """|| sum over primes n <= N of e(n theta) ||_p, the denominator of
    every majorant_ratio at (p, N, grid)."""
    primes = table.primes_up_to(N)
    if primes.size == 0:
        raise DegenerateInputError(f"no primes <= {N}")
    return _lp_ladder(primes, np.ones(primes.size), N, p, grid)[0]


def majorant_ratio(
    signs: np.ndarray,
    p: float,
    N: int,
    table: PrimeTable,
    grid: TorusGrid,
    den: float,
) -> float:
    """|| sum over primes n <= N of a_n e(n theta) ||_p divided by the same
    norm with all a_n = 1, which is `den` = majorant_denominator(p, N,
    table, grid): a caller drawing many coefficient vectors computes it
    once. Requires real a_n with |a_n| <= 1 (majorized coefficients)."""
    primes = table.primes_up_to(N)
    signs = np.asarray(signs, dtype=np.float64)
    if signs.shape != primes.shape:
        raise ParameterError(
            f"need one coefficient per prime <= {N} ({primes.size}), got {signs.size}"
        )
    if signs.size == 0:
        raise DegenerateInputError(f"no primes <= {N}")
    if float(np.max(np.abs(signs))) > 1.0 + 1e-12:
        raise PreconditionError("majorant coefficients must satisfy |a_n| <= 1")
    return _lp_ladder(primes, signs, N, p, grid)[0] / den


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
    norm = _lp_ladder(pos, fvals * wsup, lam.N, p, grid)[0]
    return norm * lam.N ** (1.0 / p) / l2
