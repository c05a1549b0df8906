"""Compare the sums the torus L^p ladder reads off its four-step grids
with the same sums over numpy's full-length FFT, and `fourier.wedge_grid`
with the full-length rfft grid of `paper.rfft_grid`.

    PYTHONPATH=src python tests/sweep_grid_transform.py --count 40 --seed 0

For each N of the sweep it draws weights on {1..N}, real for half the runs
and complex for the others, dense or sparse, and runs `fourier._lp_ladder`
at oversample 2, 3 or 4 and p = 2.5, 3 or 4, recording every grid the
ladder takes. A real grid of L = s N points is compared through its
weighted rows (`fourier._real_grid_powers`): the sums over the bins
k = 0 mod t, for t = 1, 2 (when s is even) and s, against the sums of
|numpy.fft.fft(pad)|^p over the same bins. A complex grid's sum over every
bin is compared likewise. The N are `count` random lengths up to 2 * 10^5,
as many random primes, the benchmark's 100,000 and 200,000, the primes
100,003 and 200,003 (where L1 = s), and 2^k - 1, 2^k and 2^k + 1 for
k = 1..17. Prints the worst relative error of the real and of the complex
sums, with the N, s and t where it occurred. At `--count 40 --seed 0`
(133 lengths up to 200,003, 15 s on 2 vCPUs with numpy 2.4.6) the worst
were 1.4e-15 for the real sums (N = 8193, s = 4, t = 2) and 1.5e-15 for
the complex ones (N = 78,831), far below the 1e-13 the tier-1 test
allows.

Then it draws `count` triples (N, M, kind): N up to 2 * 10^5, M = o N
for an oversample o in 2..16 (every other triple) or any M in [2N, 16N],
and weights on {1..N} that are dense and signed, sparse, positive, or one
point. It reads the whole wedge grid at natural indices
(`fourier.grid_values`) and prints the worst of max |grid - oracle| over
max |oracle|, and how many `fourier.grid_argmax` differ from the oracle's
first maximum where that maximum is one point and its mirror (one point
mass has |f^| constant, an exact tie that rounding breaks). At
`--count 40 --seed 0` (22 s in all) the worst was 3.2e-15 relative
(N = 179,597, M = 1,347,532, a point mass), and the argmax matched at
all 30 triples with one maximum. Needs numpy only; the name keeps
pytest from collecting it.
"""

from __future__ import annotations

import argparse
import math
import time
import warnings

import numpy as np

from primeaps import fourier
from primeaps.errors import GridConvergenceWarning
from primeaps.fourier import TorusGrid
from primeaps.measures import Measure

import paper


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def lengths(count: int, rng: np.random.Generator) -> list[int]:
    """The N of one sweep, ascending."""
    powers = {2 ** k + d for k in range(1, 18) for d in (-1, 0, 1)} - {1}
    drawn = rng.integers(2, 2 * 10 ** 5, count, endpoint=True).tolist()
    primes = set()
    while len(primes) < count:
        n = int(rng.integers(2, 2 * 10 ** 5, endpoint=True))
        if _is_prime(n):
            primes.add(n)
    return sorted(powers | set(drawn) | primes
                  | {100_000, 200_000, 100_003, 200_003})


def _recorded(positions, values, N, p, grid) -> list:
    """The grids one ladder takes: ("real", pad, weighted rows) or
    ("complex", pad, transform)."""
    grids, pads = [], []
    forward, real_pass = fourier._real_forward, fourier._real_grid_powers
    four_step = fourier._four_step

    def real_forward(v, L1):
        pad = np.zeros((L1, v.shape[1]))
        pad[:v.shape[0]] = v
        pads.append(pad.ravel())
        return forward(v, L1)

    def real(X, L1, q):
        powers = real_pass(X, L1, q)
        grids.append(("real", pads.pop(), powers))
        return powers

    def complex_(v, twiddles, inverse):
        pad = v.ravel().copy()
        four_step(v, twiddles, inverse)
        grids.append(("complex", pad, v.copy()))

    fourier._real_forward, fourier._real_grid_powers = real_forward, real
    fourier._four_step = complex_
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridConvergenceWarning)
            fourier._lp_ladder(positions, values, N, p, grid)
    finally:
        fourier._real_forward, fourier._real_grid_powers = forward, real_pass
        fourier._four_step = four_step
    return grids


def sweep(count: int, seed: int) -> dict:
    """Worst relative errors of the real and complex grid sums."""
    rng = np.random.default_rng(seed)
    worst = {"real": (0.0, 0, 0, 0), "complex": (0.0, 0, 0, 0)}
    Ns = lengths(count, rng)
    for i, N in enumerate(Ns):
        w = rng.standard_normal(N)
        if i % 4 >= 2:
            w *= rng.random(N) < 0.05
            w[rng.integers(N)] = 1.0
        if i % 2:
            w = w + 1j * rng.standard_normal(N) * (w != 0)
        p = (2.5, 3.0, 4.0)[i % 3]
        positions = np.flatnonzero(w) + 1
        grid = TorusGrid(oversample=2 + i % 3)
        for kind, pad, out in _recorded(positions, w[positions - 1], N, p, grid):
            full = np.abs(np.fft.fft(pad)) ** p
            s = pad.size // N
            strides = [1] if kind == "complex" else \
                sorted({1, s} | ({2} if s % 2 == 0 else set()))
            for t in strides:
                got = float(np.sum(np.abs(out) ** p if kind == "complex" else out[::t]))
                want = float(np.sum(full[::t]))
                worst[kind] = max(worst[kind], (abs(got - want) / want, N, s, t))
    return {"lengths": len(Ns), "largest": Ns[-1], **worst}


def wedge_sweep(count: int, rng: np.random.Generator) -> dict:
    """Worst relative error of `wedge_grid` against `paper.rfft_grid`,
    and the triples whose argmax differs from the oracle's."""
    worst, moved, compared = (0.0, 0, 0, ""), [], 0
    for i in range(count):
        N = int(rng.integers(1, 2 * 10 ** 5, endpoint=True))
        M = (N * int(rng.integers(2, 16, endpoint=True)) if i % 2 == 0
             else int(rng.integers(2 * N, 16 * N, endpoint=True)))
        kind = ("dense", "sparse", "positive", "point")[i % 4]
        w = rng.standard_normal(N)
        if kind == "sparse":
            w *= rng.random(N) < 0.05
            w[rng.integers(N)] = 1.0
        elif kind == "positive":
            w = np.abs(w)
        elif kind == "point":
            w[:] = 0.0
            w[rng.integers(N)] = 1.0
        f = Measure(N, w, signed=True)
        rows = fourier.wedge_grid(f, M)
        got = fourier.grid_values(rows, M, np.arange(M))
        want = paper.rfft_grid(f, M)
        mags = np.abs(want)
        err = float(np.max(np.abs(got - want)) / np.max(mags))
        worst = max(worst, (err, N, M, kind))
        # the argmax is compared where the oracle's maximum is one point
        # and its mirror, with no other point within rounding of it
        first = int(np.argmax(mags))
        near = set(np.flatnonzero(mags >= mags[first] * (1 - 1e-12)).tolist())
        j_star = fourier.grid_argmax(np.abs(rows), M)
        if near <= {first, -first % M}:
            compared += 1
            if j_star != first:
                moved.append((N, M, kind, j_star, first))
    return {"worst": worst, "compared": compared, "argmax_moved": moved}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    t0 = time.perf_counter()
    result = sweep(args.count, args.seed)
    elapsed = time.perf_counter() - t0
    print(f"lengths: {result['lengths']} (up to {result['largest']})  "
          f"seed: {args.seed}  seconds: {elapsed:.1f}")
    for kind in ("real", "complex"):
        err, N, s, t = result[kind]
        print(f"{kind} grid sums vs numpy.fft.fft: worst {err:.3e} relative, "
              f"at N = {N}, s = {s}, bins k = 0 mod {t}")
    t0 = time.perf_counter()
    wedge = wedge_sweep(args.count, np.random.default_rng(args.seed))
    err, N, M, kind = wedge["worst"]
    print(f"wedge_grid vs paper.rfft_grid at {args.count} triples "
          f"({time.perf_counter() - t0:.1f} s): worst {err:.3e} relative, at "
          f"N = {N}, M = {M}, {kind}; argmax differs at "
          f"{len(wedge['argmax_moved'])} of the {wedge['compared']} with one "
          f"maximum: {wedge['argmax_moved']}")


if __name__ == "__main__":
    main()
