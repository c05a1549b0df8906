"""Check the exact pair-sum counts of `fourier.set_convolution` on the
primes against the power-of-two oracle `paper.pair_sum_counts`.

    PYTHONPATH=src python tests/sweep_set_convolution.py --limits 1000000,4000000,20000000

For each limit X, S is the set of primes <= X and both paths count
#{(p, q) in S x S : p + q = k} for k = 0..2 max(S). The program's integers
must equal the oracle's, and they must sum to |S|^2. Prints, per limit,
|S|, the program's 5-smooth length L = L1 x L2 and the oracle's power of
two P, the worst distance of each float convolution from its rounded
integers (the program's read off `fourier._self_convolution`, the float
array that `set_convolution` rounds) and each path's seconds; exits 1 if
any count differs. At the default limits the oracle holds the largest
arrays, about 2 GB at X = 2 * 10^7 (P = 2^26). Needs numpy only; the name
keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from primeaps import fourier, sieve

import paper


def check(S: np.ndarray) -> dict:
    """The program's and the oracle's counts of S compared, with the
    residual and time of each."""
    t0 = time.perf_counter()
    want, oracle_residual = paper.pair_sum_counts(S)
    t1 = time.perf_counter()
    got = fourier.set_convolution(S)
    t2 = time.perf_counter()
    u = np.zeros(int(S.max()) + 1)
    u[S] = 1.0
    conv = fourier._self_convolution(u)
    del u
    residual = float(np.max(np.abs(conv - np.rint(conv))))
    del conv
    L = fourier._smooth_length(2 * int(S.max()) + 1)
    L1 = fourier._split(L)
    return {
        "size": S.size,
        "L": f"{L} = {L1} x {L // L1}",
        "P": 1 << (2 * int(S.max())).bit_length(),
        "equal": bool(np.array_equal(got, want)),
        "total": int(got.sum()) == S.size ** 2,
        "residual": residual,
        "oracle_residual": oracle_residual,
        "program_s": t2 - t1,
        "oracle_s": t1 - t0,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limits", default="1000000,4000000,20000000",
                        help="comma-separated limits X; S = primes <= X")
    args = parser.parse_args()
    limits = sorted(int(x) for x in args.limits.split(","))
    table = sieve.build_factor_table(max(limits))
    ok = True
    for X in limits:
        row = check(table.primes_up_to(X))
        ok &= row["equal"] and row["total"]
        print(f"X={X}  |S|={row['size']}  L={row['L']}  P={row['P']}  "
              f"equal={row['equal']}  sum=|S|^2: {row['total']}  "
              f"residual {row['residual']:.2e} (oracle {row['oracle_residual']:.2e})  "
              f"{row['program_s']:.2f} s (oracle {row['oracle_s']:.2f} s)",
              flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
