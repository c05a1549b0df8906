"""The benchmark's workloads: the primeaps CLI invocations of one operation.

An operation is one pass over a workload's invocations, in order. Every
scale is fixed here; the workload seed only reaches the program through
`--seed`. `smoke=True` gives tiny scales that exercise the same code and
the same checks in a few seconds.
"""

from __future__ import annotations

WORKLOADS = ("pipeline", "export-json", "torus")


def _pipeline(seed: int, smoke: bool) -> list[list[str]]:
    n = 20_000 if smoke else 1_000_000
    return [["roth-pipeline", "--N", str(n), "--source", "random-subset-of-primes",
             "--seed", str(seed), "--format", "csv"]]


def _export_json(seed: int, smoke: bool) -> list[list[str]]:
    # --p 3 gives A = 4 and a dyadic cutoff 2^K = 4096 at N = 5e5 (1024 at
    # 2e4), inside the factor table of size N + 1; --p 2.5 would need 2^27.
    n = 20_000 if smoke else 500_000
    return [["measure-build", "--N", str(n), "--Q", "16,256", "--p", "3",
             "--seed", str(seed), "--format", "json"]]


def _torus(seed: int, smoke: bool) -> list[list[str]]:
    # N = 2^a * 5^5 (2^a * 5^3 in smoke), so every grid length oversample * N,
    # and every doubling of it, is 5-smooth: no transform runs at prime length.
    big, small, draws = (2_000, 1_000, 3) if smoke else (200_000, 100_000, 12)
    pair = f"{small},{big}"
    seeded = ["--seed", str(seed), "--format", "csv"]
    return [
        ["transform-scan", "--N", str(big), "--oversample", "8", "--p", "2.5",
         *seeded],
        ["arc-scan", "--N", str(big), "--Q", "16,256", "--B-override", "2",
         "--oversample", "4", *seeded],
        ["majorant", "--N", pair, "--p", "4", "--draws", str(draws),
         "--oversample", "2", *seeded],
        ["restriction", "--N", pair, "--p", "2.5", "--draws", str(draws),
         "--oversample", "2", *seeded],
        ["mz-check", "--N", pair, "--p", "2.5", "--draws", str(draws),
         "--oversample", "2", *seeded],
    ]


_BUILDERS = {"pipeline": _pipeline, "export-json": _export_json, "torus": _torus}


def invocations(workload: str, seed: int, smoke: bool) -> list[list[str]]:
    """CLI argument lists of one operation, without --output-dir."""
    return _BUILDERS[workload](seed, smoke)
