"""primeaps benchmark.

    python3 bench/run.py --workload {pipeline,export-json,torus} --seed N \
        --seconds S --trace {0,1} [--smoke]

Runs one workload in a fresh one-thread process (bench/worker.py) that calls
`primeaps.cli.main` in a closed loop for at least S seconds, then checks every
operation's outputs here (bench/checks.py) and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones of bench/tracing.py, and the spans go to
bench/out/traces/. An operation fails when an invocation exits non-zero or
a check of its outputs fails; `correct` is false when any output of an
operation that ran to its end is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROBES = 5  # extra set-up-only processes; setup_s is the median of PROBES + 1
TIMEOUT_S = 150  # probes plus worker, leaving the checks room within 180 s
MB = 1e6

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, invocations  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}
PER_LAYER = {
    "sieve.table_s": "s",
    "sieve.table_calls": "count",
    "measures.build_s": "s",
    "measures.measure_count": "count",
    "fourier.fft_calls": "count",
    "fourier.fft_points": "count",
    "fourier.fft_nonsmooth_calls": "count",
    "fourier.fft_s": "s",
    "fourier.triple_count_s": "s",
    "fourier.lp_norm_s": "s",
    "fourier.lp_grids": "count",
    "arcs.scan_s": "s",
    "arcs.classify_calls": "count",
    "roth.experiment_s": "s",
    "roth.w_trick_s": "s",
    "roth.bohr_set_s": "s",
    "roth.setlike_s": "s",
    "roth.granularize_s": "s",
    "roth.granularize_calls": "count",
    "roth.count_3aps_s": "s",
    "roth.bounds_s": "s",
    "cli.emit_s": "s",
    "cli.emit_rows": "count",
    "cli.emit_mb": "MB",
    "cli.manifest_s": "s",
    "sieve.self_s": "s",
    "measures.self_s": "s",
    "fourier.self_s": "s",
    "arcs.self_s": "s",
    "roth.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("PRIMEAPS_OUTPUT_DIR", None)  # would redirect every output
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args, run_dir: Path, name: str, probe: bool, timeout: float) -> dict:
    result = run_dir / f"{name}.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(run_dir), "--result", str(result)]
    if args.smoke:
        cmd.append("--smoke")
    if probe:
        cmd.append("--probe")
    cmd += ["--spawned-at", repr(time.perf_counter())]
    proc = subprocess.run(cmd, stdout=sys.stderr, env=_child_env(), cwd=ROOT,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} process exited with {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _check_ledger(args, hashes: list[str]) -> list[str]:
    """deterministic_hash must repeat across every run of the same code
    and inputs; the first run of given invocations and sources records it."""
    path = OUT / "hashes.json"
    argvs = invocations(args.workload, args.seed, args.smoke)
    key = f"{json.dumps(argvs)}|src={_src_digest()}"
    try:
        ledger = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        ledger = {}
    if key in ledger:
        if ledger[key] != hashes:
            return ["deterministic_hash differs from an earlier run of the "
                    "same code and inputs"]
        return []
    ledger[key] = hashes
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return []


def _check_ops(args, ops: list[dict]) -> tuple[list[bool], list[str]]:
    """(per-op failed flags, messages of wrong outputs)."""
    import checks  # numpy loads only after the worker has exited

    failed, wrong = [], []
    first = None  # (sha256 of every output, deterministic hashes) of op 0
    for op in ops:
        op_dir = Path(op["dir"])
        if any(rc != 0 for rc in op["rcs"]):
            failed.append(True)
            sys.stderr.write(f"{op_dir.name}: exit codes {op['rcs']}\n")
            continue
        dirs = checks.invocation_dirs(op_dir)
        if first is None:
            errors = checks.check_op(args.workload, op_dir)
        else:
            errors = [e for d in dirs for e in checks.verify_manifest(d)]
        if not errors:
            mans = [checks.manifest(d) for d in dirs]
            shas = [[o["sha256"] for o in m["outputs"]] for m in mans]
            hashes = [m["deterministic_hash"] for m in mans]
            if first is None:
                errors = _check_ledger(args, hashes)
                first = (shas, hashes)
            elif (shas, hashes) != first:
                # same inputs: the bytes must be those checked in full
                errors.append("outputs differ from the first operation's")
        op["output_bytes"] = checks.output_bytes(op_dir)
        failed.append(bool(errors))
        wrong += [f"{op_dir.name}: {e}" for e in errors]
    return failed, wrong


def _layer_metrics(op: dict) -> tuple[dict, dict]:
    import tracing

    s = tracing.summarize(op["spans"])
    groups, counts, by_name = s["groups"], op["counts"], s["by_name"]

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    m = {name: groups.get(name, 0.0) for name in PER_LAYER
         if PER_LAYER[name] == "s" and name in tracing.TIME_GROUPS.values()}
    m.update({
        "sieve.table_calls": calls("sieve.build_factor_table"),
        "measures.measure_count": counts.get("measures.measure_count", 0),
        "fourier.fft_calls": counts.get("fourier.fft_calls", 0),
        "fourier.fft_points": counts.get("fourier.fft_points", 0),
        "fourier.fft_nonsmooth_calls": counts.get("fourier.fft_nonsmooth_calls", 0),
        "fourier.lp_grids": calls("fourier.wedge_grid"),
        "arcs.classify_calls": counts.get("arcs.classify_calls", 0),
        "roth.granularize_calls": calls("roth.granularize"),
        "cli.emit_rows": counts.get("cli.emit_rows", 0),
        "cli.emit_mb": counts.get("cli.emit_bytes", 0) / MB,
        "cli.manifest_s": s["manifest_s"],
        "trace.wall_s": op["wall_s"],
        "trace.self_sum_s": s["self_sum_s"],
    })
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = s["layers"].get(layer, 0.0)
    return m, s


def _trace_metrics(args, ops: list[dict], wrong: list[str], missing) -> dict:
    if missing:
        sys.stderr.write(f"not traced (name not found): {', '.join(missing)}\n")
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    per_op = [_layer_metrics(op) for op in traced]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            continue
        vals = [m[name] for m, _ in per_op]
        if unit == "count":
            if len(set(vals)) != 1:
                wrong.append(f"count {name} differs between traced operations")
            metrics[name] = vals[0]
        else:
            metrics[name] = statistics.median(vals)
    metrics["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in traced)
                                   - statistics.median(op["wall_s"] for op in plain))
    for m, _ in per_op:
        if m["trace.self_sum_s"] > m["trace.wall_s"]:
            wrong.append("self times sum to more than the traced wall time")

    rows = sorted(per_op[0][1]["by_name"].items(), key=lambda kv: -kv[1]["self_s"])
    print(f"{'span':34} {'calls':>8} {'total_s':>10} {'self_s':>10}")
    for name, row in rows:
        print(f"{name:34} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    print(f"tracing overhead: {metrics['trace.overhead_s']:+.4f} s per operation")

    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "metrics": metrics, "unwrapped": missing,
        "ops": [{"wall_s": op["wall_s"], "by_name": s["by_name"],
                 "spans": op["spans"]} for op, (_, s) in zip(traced, per_op)],
    }), encoding="utf-8")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny scales, same checks; finishes in seconds")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "primeaps" / "cli.py").is_file():
        sys.stderr.write(f"no primeaps sources under {ROOT / 'src'}\n")
        return 2

    t_start = time.perf_counter()
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        setups = [_spawn(args, run_dir, f"probe{i}", True, 60)["setup_s"]
                  for i in range(PROBES)]
        left = TIMEOUT_S - (time.perf_counter() - t_start)
        worker = _spawn(args, run_dir, "worker", False, left)
        setups.append(worker["setup_s"])
        ops = worker["ops"]
        failed, wrong = _check_ops(args, ops)
        if args.trace:
            metrics = _trace_metrics(args, ops, wrong, worker["missing"])
            units = PER_LAYER
        else:
            good = [op for op, f in zip(ops, failed) if not f] or ops
            metrics = {
                "wall_s": statistics.median(op["wall_s"] for op in good),
                "cpu_s": statistics.median(op["cpu_s"] for op in good),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": worker["peak_rss_mb"],
                "output_mb": statistics.median(op.get("output_bytes", 0)
                                               for op in good) / MB,
            }
            units = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for msg in wrong:
        sys.stderr.write(f"WRONG OUTPUT {msg}\n")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(ops),
        "failed": sum(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
