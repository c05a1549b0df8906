"""Compare the sums the torus L^p ladder reads off its four-step grids
with the same sums over numpy's full-length FFT.

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
allows. Needs numpy only; the name keeps pytest from collecting it.
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
    grids = []
    real_pass, four_step = fourier._real_grid_powers, fourier._four_step

    def real(v, q):
        pad = v.ravel().copy()
        powers = real_pass(v, q)
        grids.append(("real", pad, powers))
        return powers

    def complex_(v, twiddles, inverse):
        pad = v.ravel().copy()
        four_step(v, twiddles, inverse)
        grids.append(("complex", pad, v.copy()))

    fourier._real_grid_powers, fourier._four_step = real, complex_
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridConvergenceWarning)
            fourier._lp_ladder(positions, values, N, p, grid)
    finally:
        fourier._real_grid_powers, fourier._four_step = real_pass, four_step
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


if __name__ == "__main__":
    main()
