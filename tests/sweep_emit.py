"""Time each table of one roth-pipeline and one measure-build invocation,
through the numeric kernel and cell by cell.

    PYTHONPATH=src python tests/sweep_emit.py
    PYTHONPATH=src python tests/sweep_emit.py --pipeline-n 100000 --measure-n 50000 --repeat 3

Runs each invocation once through `primeaps.cli.main`, in this process,
with the flags of its benchmark workload (`pipeline` in CSV, `export-json`
in JSON) at the given scale, and keeps the columns of every
`Emitter.table` call. Then writes each table again into a temporary
directory, `--repeat` times by each route: as the program does, where a
block of int and float arrays goes through the numeric kernel
(`cli._NumericRows`), and cell by cell, with `cli._numeric` refusing every
block so that each cell goes through `_fmt` and csv.writer or through
`_json_cell`. Both routes must write the same bytes. Prints, per table, its
rows, its MB (10^6 bytes) and the best time of each route, then each
invocation's totals and what the cell-by-cell route costs on top of the
kernel per operation. An invocation's tables are held until each is
timed, so memory peaks above the invocation's own. The name keeps pytest
from collecting it.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from primeaps import cli

MB = 1e6


def invocations(pipeline_n: int, measure_n: int, seed: int) -> list[list[str]]:
    """The argv of the two invocations, without --output-dir."""
    return [
        ["roth-pipeline", "--N", str(pipeline_n), "--source", "random-subset-of-primes",
         "--seed", str(seed), "--format", "csv"],
        ["measure-build", "--N", str(measure_n), "--Q", "16,256", "--p", "3",
         "--seed", str(seed), "--format", "json"],
    ]


def captured_tables(argv: list[str], out: Path) -> tuple[str, list]:
    """Run one invocation and return its format and its tables, as
    (stem, header, columns) in the order written."""
    tables = []
    table = cli.Emitter.table

    def keep(self, stem, header, columns):
        columns = list(columns)
        tables.append((stem, header, columns))
        return table(self, stem, header, columns)

    cli.Emitter.table = keep
    try:
        code = cli.main([*argv, "--output-dir", str(out / "run")])
    finally:
        cli.Emitter.table = table
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return argv[argv.index("--format") + 1], tables


def timed_write(fmt: str, out: Path, stem: str, header, columns,
                repeat: int) -> tuple[float, dict]:
    """The best time of `repeat` writes of one table into out, and the
    table's manifest entry."""
    best = float("inf")
    for _ in range(repeat):
        em = cli.Emitter(out, fmt)
        t0 = time.perf_counter()
        em.table(stem, header, columns)
        best = min(best, time.perf_counter() - t0)
        (entry,) = em.outputs
        em.discard()
    return best, entry


def cell_by_cell(block: list, finite: bool) -> None:
    """cli._numeric refusing every block."""
    return None


def sweep(argv: list[str], repeat: int) -> None:
    """Print the table times of one invocation and their totals."""
    print(" ".join(argv))
    numeric = cli._numeric
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        fmt, tables = captured_tables(argv, out)
        width = max([len(stem) for stem, _, _ in tables] + [5])
        print(f"  {'table':<{width}}  {'rows':>9}  {'MB':>7}  {'kernel s':>8}  "
              f"{'cells s':>8}")
        totals = [0.0, 0.0]
        while tables:
            stem, header, columns = tables.pop(0)
            kernel, entry = timed_write(fmt, out / "t", stem, header, columns, repeat)
            cli._numeric = cell_by_cell
            try:
                cells, same = timed_write(fmt, out / "t", stem, header, columns, repeat)
            finally:
                cli._numeric = numeric
            if same["sha256"] != entry["sha256"]:
                raise SystemExit(f"{stem}: the two routes wrote different bytes")
            rows = len(columns[0]) if columns else 0
            print(f"  {stem:<{width}}  {rows:9d}  {entry['bytes'] / MB:7.2f}  "
                  f"{kernel:8.3f}  {cells:8.3f}")
            totals = [totals[0] + kernel, totals[1] + cells]
    print(f"  {'total':<{width}}  {'':>9}  {'':>7}  {totals[0]:8.3f}  {totals[1]:8.3f}")
    print(f"  cell by cell costs {totals[1] - totals[0]:.3f} s more per operation")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pipeline-n", type=int, default=1_000_000,
                        help="roth-pipeline --N (the pipeline workload's)")
    parser.add_argument("--measure-n", type=int, default=500_000,
                        help="measure-build --N (the export-json workload's)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=1,
                        help="writes of each table by each route; the best counts")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    print(f"numpy {np.__version__}, {os.cpu_count()} CPUs, "
          f"{args.repeat} write(s) per table and route")
    for argv in invocations(args.pipeline_n, args.measure_n, args.seed):
        sweep(argv, args.repeat)


if __name__ == "__main__":
    main()
