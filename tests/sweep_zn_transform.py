"""Compare the Z_N transforms of `primeaps.fourier` with numpy's FFT.

    PYTHONPATH=src python tests/sweep_zn_transform.py --count 40 --seed 0

For each N of the sweep it draws real weights f, some nonnegative and some
signed, and compares `fourier.spectrum(f)` with `numpy.fft.fft(f)` and
`fourier.idft` of that spectrum with `numpy.fft.ifft` of it (real part).
The N are `count` random lengths up to 2 * 10^6, the pipeline's
N = 1,000,003, and 2^k - 1, 2^k and 2^k + 1 for k = 1..20. Prints the
worst error of each against numpy, relative to ||f||_1 for the spectrum and
to ||f||_1 / N for the inverse, with the N where it occurred; both are far
below the 1e-13 the tier-1 tests allow. With the four-step transforms, at
`--count 20 --seed 0` (80 lengths up to 1,941,486; 2 vCPUs, numpy 2.4.6)
the worst were 8.1e-16 ||f||_1 for the spectrum and 8.9e-15 ||f||_1 / N
for the inverse, against 9.2e-16 and 8.3e-15 with one full-length FFT per
transform. Needs numpy only; the name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from primeaps import fourier
from primeaps.measures import BASE_ZN, Measure


def lengths(count: int, rng: np.random.Generator) -> list[int]:
    """The N of one sweep, ascending."""
    powers = {2 ** k + d for k in range(1, 21) for d in (-1, 0, 1)}
    drawn = rng.integers(1, 2 * 10 ** 6, count, endpoint=True).tolist()
    return sorted(powers | set(drawn) | {1, 1_000_003})


def sweep(count: int, seed: int) -> dict:
    """Worst relative errors of spectrum and idft against numpy."""
    rng = np.random.default_rng(seed)
    worst = {"spectrum": (0.0, 0), "idft": (0.0, 0)}
    Ns = lengths(count, rng)
    for i, N in enumerate(Ns):
        w = rng.standard_normal(N)
        if i % 2:
            w = np.abs(w)
        norm = float(np.sum(np.abs(w)))
        X = fourier.spectrum(Measure(N, w, signed=True, base=BASE_ZN))
        err = float(np.max(np.abs(X - np.fft.fft(w)))) / norm
        worst["spectrum"] = max(worst["spectrum"], (err, N))
        back = fourier.idft(X)
        err = float(np.max(np.abs(back - np.fft.ifft(X).real))) * N / norm
        worst["idft"] = max(worst["idft"], (err, N))
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
    err, N = result["spectrum"]
    print(f"spectrum vs numpy.fft.fft: worst {err:.3e} ||f||_1, at N = {N}")
    err, N = result["idft"]
    print(f"idft vs numpy.fft.ifft: worst {err:.3e} ||f||_1 / N, at N = {N}")


if __name__ == "__main__":
    main()
