"""Peak resident memory of one CLI invocation, by stage and by library call.

    PYTHONPATH=src python tests/sweep_peak_rss.py measure-build --N 500000 --Q 16,256 --p 3 --format json
    PYTHONPATH=src python tests/sweep_peak_rss.py --repeat 2 transform-scan --N 200000 --oversample 8

Runs `primeaps.cli.main` on the arguments after the sweep's own options, in
this process, while a thread reads the resident set size from
/proc/self/statm every millisecond. Each `roth._stage` block and
each library call of SPANS is a span: its peak is the largest size read
while it was open, its entry and exit sizes included, and its rise is that
peak less the size at its entry; its faults are the process's minor page
faults (`ru_minflt`, each a fresh page the kernel had to map) from its
entry to its exit. Prints, per invocation, its exit code, wall time, the
sampled peak, the process's `ru_maxrss` high-water mark (what a manifest's
`timings.peak_rss_mb` and the benchmark's `peak_rss_mb` read) and its
minor faults, for `roth-pipeline` that mark in bytes per point of its
`--N`, then each span's calls, largest peak and largest rise, in MB of
10^6 bytes, and largest fault count. The sampler runs only when the
interpreter lock is free, as during an FFT or a file write, so a peak
inside pure-numpy code that holds the lock shows only at the next
boundary. Without `--output-dir` the files go to a temporary directory
that is removed afterwards. Linux only (it reads /proc); the name keeps
pytest from collecting it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import resource
import tempfile
import threading
import time
import types

from primeaps import arcs, cli, fourier, measures, roth, sieve

_PAGE = os.sysconf("SC_PAGE_SIZE")
MB = 1e6
INTERVAL = 0.001  # seconds between two samples

# (owner, attribute) of each library call that is a span
SPANS = [
    (sieve, "build_factor_table"),
    (measures, "lambda_measure"),
    (measures, "lambda_q_measure"),
    (measures, "dyadic_pieces"),
    (fourier, "wedge_grid"),
    (fourier, "lp_norm_torus"),
    (fourier, "majorant_ratio"),
    (fourier, "restriction_ratio"),
    (fourier, "mz_ratio"),
    (fourier, "spectrum"),
    (fourier, "idft"),
    (fourier, "triple_count"),
    (fourier, "self_triple_count"),
    (roth, "setlike_check"),
    (roth, "granularize"),
    (roth, "count_3aps"),
    (roth, "line_3aps"),
    (arcs, "sup_diff_scan"),
    (roth, "density_experiment"),
    (cli.Emitter, "table"),
    (cli.Emitter, "raw"),
    (cli.Emitter, "json_file"),
]


def minor_faults() -> int:
    """The minor page faults of this process so far, all threads."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def rss() -> int:
    """The resident set size of this process, in bytes."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Sampler:
    """The largest resident size seen while each open span was open."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.open: dict[int, list] = {}  # id -> [name, entry, peak]
        self.stats: dict[str, list] = {}  # name -> [calls, peak, rise, faults]
        self.ids = itertools.count()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _see(self, size: int) -> None:
        with self.lock:
            for span in self.open.values():
                span[2] = max(span[2], size)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL):
            self._see(rss())

    def __enter__(self) -> Sampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    @contextlib.contextmanager
    def span(self, name: str):
        size = rss()
        self._see(size)
        with self.lock:
            key = next(self.ids)
            self.open[key] = [name, size, size]
        faults = minor_faults()
        try:
            yield
        finally:
            faults = minor_faults() - faults
            self._see(rss())
            with self.lock:
                _, entry, peak = self.open.pop(key)
                calls, top, rise, most = self.stats.get(name, (0, 0, 0, 0))
                self.stats[name] = [calls + 1, max(top, peak), max(rise, peak - entry),
                                    max(most, faults)]


def install(sampler: Sampler) -> None:
    """Open a span around every `roth._stage` block and every call of
    SPANS, in each primeaps module that binds the same function."""
    stage = roth._stage

    @contextlib.contextmanager
    def traced_stage(name: str):
        with sampler.span(f"stage {name}"), stage(name):
            yield

    roth._stage = traced_stage
    modules = [sieve, measures, fourier, arcs, roth, cli]
    for owner, attr in SPANS:
        original = getattr(owner, attr)
        prefix = (owner.__name__ if isinstance(owner, types.ModuleType)
                  else f"{owner.__module__}.{owner.__qualname__}")
        name = f"{prefix}.{attr}".removeprefix("primeaps.")

        def make(original=original, name=name):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                with sampler.span(name):
                    return original(*args, **kwargs)
            return traced

        traced = make()
        setattr(owner, attr, traced)
        for module in modules:
            if module is not owner and getattr(module, attr, None) is original:
                setattr(module, attr, traced)


def invoke(sampler: Sampler, argv: list[str]) -> None:
    """Run one invocation and print its peak and its spans'."""
    sampler.stats.clear()
    with tempfile.TemporaryDirectory() as out:
        if "--output-dir" not in argv:
            argv = [*argv, "--output-dir", os.path.join(out, "run")]
        t0 = time.perf_counter()
        with sampler.span("invocation"):
            code = cli.main(argv)
        wall = time.perf_counter() - t0
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    _, peak, rise, faults = sampler.stats.pop("invocation")
    print(f"exit {code}  {wall:.2f} s  peak {peak / MB:.1f} MB "
          f"(rise {rise / MB:.1f})  ru_maxrss {maxrss / MB:.1f} MB  "
          f"minor faults {faults}")
    if argv[0] == "roth-pipeline":
        n = cli.build_parser().parse_args(argv).N
        print(f"  ru_maxrss is {maxrss / n:.0f} bytes per point of --N {n}")
    width = max([len(name) for name in sampler.stats] + [4])
    print(f"  {'span':<{width}}  calls  peak MB  rise MB   faults")
    for name, (calls, peak, rise, faults) in sampler.stats.items():
        print(f"  {name:<{width}}  {calls:5d}  {peak / MB:7.1f}  {rise / MB:7.1f}"
              f"  {faults:7d}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=1,
                        help="invocations in a row, in this process")
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="the subcommand and its flags")
    args = parser.parse_args()
    if not args.argv or args.repeat < 1:
        parser.error("give a subcommand and --repeat >= 1")
    print(" ".join(args.argv))
    with Sampler() as sampler:
        install(sampler)
        for _ in range(args.repeat):
            invoke(sampler, args.argv)


if __name__ == "__main__":
    main()
