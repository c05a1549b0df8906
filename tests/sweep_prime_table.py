"""Hold the program's prime table to the smallest-prime-factor oracle at
the pipeline's sizes, and measure what each costs to build.

    PYTHONPATH=src python tests/sweep_prime_table.py

At each limit (4,000,018, the table of `roth-pipeline --N 1000000`, and
3 * 10^7 by default) it builds `sieve.build_factor_table(limit)` and
`paper.build_spf_table(limit)`, each in a fresh process, and asserts that
the two give the same primality for every n <= limit. For each build it
prints the seconds taken by the build plus its list of primes, and the
process's peak RSS over what it held after the imports. Needs numpy only;
the name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

LIMITS = (4_000_018, 30_000_000)


def _peak_mb() -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    unit = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / 1e6


def build(kind: str, limit: int, out: Path) -> dict:
    """Build one table in this process, save its primality as a bool array
    to `out`, and return its cost."""
    from primeaps import sieve

    import paper

    before = _peak_mb()
    t0 = time.perf_counter()
    if kind == "prime":
        table = sieve.build_factor_table(limit)
    else:
        table = paper.build_spf_table(limit)
    primes = table.primes()
    seconds = time.perf_counter() - t0
    peak = _peak_mb() - before
    prime = np.zeros(limit + 1, dtype=bool)
    prime[primes] = True
    np.save(out, prime)
    return {"seconds": seconds, "peak_rss_mb": peak, "primes": int(primes.size)}


def sweep(limits) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for limit in limits:
            got = {}
            for kind in ("prime", "spf"):
                out = Path(tmp) / f"{kind}-{limit}.npy"
                proc = subprocess.run(
                    [sys.executable, __file__, "--build", kind, "--limit",
                     str(limit), "--out", str(out)],
                    check=True, capture_output=True, text=True)
                got[kind] = np.load(out)
                out.unlink()
                rows.append({"limit": limit, "table": kind,
                             **json.loads(proc.stdout)})
            assert np.array_equal(got["prime"], got["spf"]), limit
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limits", type=lambda t: [int(v) for v in t.split(",")],
                        default=list(LIMITS))
    # one build in this process, as the sweep runs each
    parser.add_argument("--build", choices=("prime", "spf"), help=argparse.SUPPRESS)
    parser.add_argument("--limit", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.build:
        print(json.dumps(build(args.build, args.limit, args.out)))
        return
    for row in sweep(args.limits):
        print(f"limit {row['limit']:>11,}  {row['table']:>5}  "
              f"{row['seconds']:.3f} s  peak RSS +{row['peak_rss_mb']:.1f} MB  "
              f"{row['primes']:,} primes")
    print("the prime table and the spf oracle agree at every limit")


if __name__ == "__main__":
    main()
