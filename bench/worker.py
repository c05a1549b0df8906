"""One benchmark process: set up primeaps from the checkout's `src`, then run
a workload's operations in a closed loop, each operation starting after the
previous one returns.

run.py starts this script with `--spawned-at`, its `time.perf_counter()`
reading just before the spawn (CLOCK_MONOTONIC, shared by all processes), so
set-up time covers interpreter start, imports and tracer installation up to
the first call into `primeaps.cli`. With `--probe` the process stops there.

With `--trace 1` operations alternate untraced and traced, so the same
process yields both the untraced wall time and the traced one; their
difference is the tracing overhead. The result goes to `--result` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    """High-water resident set of this process image, in 10^6 bytes."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _run_op(cli, argvs, op_dir: Path, tracer, traced: bool) -> dict:
    if tracer is not None:
        tracer.reset()
        tracer.enabled = traced
    rcs = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with tracer.span("bench.op") if traced else contextlib.nullcontext():
        for i, argv in enumerate(argvs):
            out = op_dir / f"{i}-{argv[0]}"
            rcs.append(cli.main([*argv, "--output-dir", str(out)]))
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    record = {"dir": str(op_dir), "rcs": rcs, "wall_s": wall, "cpu_s": cpu,
              "traced": traced}
    if traced:
        tracer.enabled = False
        record["spans"] = [[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans]
        record["counts"] = dict(tracer.counts)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spawned-at", dest="spawned_at", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_fft(tracer)
    from primeaps import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"primeaps imported from {cli.__file__}, not {SRC}\n")
        return 2
    if tracer is not None:
        tracing.install_layers(tracer)
    setup_s = time.perf_counter() - args.spawned_at
    result: dict = {"setup_s": setup_s}
    if not args.probe:
        import workloads

        argvs = workloads.invocations(args.workload, args.seed, args.smoke)
        out = Path(args.out)
        ops = []
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(ops) % 2 == 1
            ops.append(_run_op(cli, argvs, out / f"op{len(ops)}", tracer, traced))
            whole = tracer is None or len(ops) % 2 == 0
            if whole and time.perf_counter() - start >= args.seconds:
                break
        result.update(ops=ops, peak_rss_mb=_peak_rss_mb(),
                      missing=tracer.missing if tracer is not None else [])
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
