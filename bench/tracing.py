"""Span recorder for the traced run.

Spans are recorded from outside the program: the benchmark replaces public
functions of the primeaps modules (and the FFT entry points of numpy.fft and
scipy.fft) with wrappers that open a span around the original call. A name
imported with `from ... import` is wrapped in every module that looks it up
(for example `roth.triple_count` next to `fourier.triple_count`).

Spans live in memory as (name, start, end, parent) and are summarised when the
run ends. Wrappers cost a flag test while tracing is disabled, so untraced
operations in the same process run the original code paths.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import math
import sys
import time
from collections import Counter
from operator import itemgetter

# transform entry points shared by numpy.fft and scipy.fft
_FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
_FFT_ND = ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn",
           "irfftn", "hfft2", "ihfft2", "hfftn", "ihfftn")


def _largest_prime_factor(n: int) -> int:
    best, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            best, n = p, n // p
        p += 1
    return max(best, n)


class Tracer:
    """Spans and counters of one process; recording runs while `enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._fft_depth = 0
        self._smooth: dict[int, bool] = {}

    # -- recording --------------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._begin(name) if self.enabled else None
        try:
            yield
        finally:
            if idx is not None:
                self._end(idx)

    def reset(self) -> None:
        self.spans, self.counts = [], Counter()

    # -- wrapping ---------------------------------------------------------

    def _install(self, owner, attr: str, make) -> None:
        if isinstance(owner, dict):
            original = owner.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', 'dict')}.{attr}")
            return
        wrapped = make(original)
        if isinstance(owner, dict):
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Record a span `name` around every call of owner.attr.

        `before(args, kwargs)` returns the (args, kwargs) to call with;
        `after(args, kwargs)` runs once the call has returned or raised.
        """
        tracer = self

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                if before is not None:
                    args, kwargs = before(args, kwargs)
                idx = tracer._begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._end(idx)
                    if after is not None:
                        after(args, kwargs)

            return traced

        self._install(owner, attr, make)

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls of owner.attr without opening a span."""
        tracer = self

        def make(original):
            @functools.wraps(original)
            def counted(*args, **kwargs):
                if tracer.enabled:
                    tracer.counts[counter] += 1
                return original(*args, **kwargs)

            return counted

        self._install(owner, attr, make)

    # -- FFT entry points ---------------------------------------------------

    def _is_smooth(self, n: int) -> bool:
        if n not in self._smooth:
            self._smooth[n] = _largest_prime_factor(n) <= 5
        return self._smooth[n]

    def _fft_lengths(self, func: str, args, kwargs) -> list[int]:
        shape = getattr(args[0], "shape", None) if args else None
        if shape is None:
            shape = getattr(kwargs.get("a", kwargs.get("x")), "shape", ())
        if func in _FFT_1D:
            n = args[1] if len(args) > 1 else kwargs.get("n")
            if n is None:
                axis = args[2] if len(args) > 2 else kwargs.get("axis", -1)
                m = shape[axis] if shape else 1
                n = 2 * (m - 1) if func in ("irfft", "hfft") else m
            return [int(n)]
        s = args[1] if len(args) > 1 else kwargs.get("s")
        if s is not None:
            return [int(v) for v in s]
        axes = args[2] if len(args) > 2 else kwargs.get("axes")
        if axes is None:
            axes = (-2, -1) if func.endswith("2") else range(len(shape))
        return [int(shape[a]) for a in axes]

    def wrap_fft(self, module_name: str) -> None:
        """Count and time every transform requested through one FFT module."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(module_name)
            return
        tracer = self
        for func in _FFT_1D + _FFT_ND:
            if not hasattr(module, func):
                continue

            def make(original, func=func):
                @functools.wraps(original)
                def traced(*args, **kwargs):
                    # only the outermost transform counts, in case one
                    # backend routes through another
                    if not tracer.enabled or tracer._fft_depth:
                        return original(*args, **kwargs)
                    lengths = tracer._fft_lengths(func, args, kwargs)
                    tracer.counts["fourier.fft_calls"] += 1
                    tracer.counts["fourier.fft_points"] += math.prod(lengths)
                    if not all(tracer._is_smooth(n) for n in lengths):
                        tracer.counts["fourier.fft_nonsmooth_calls"] += 1
                    tracer._fft_depth += 1
                    idx = tracer._begin("fourier.fft")
                    try:
                        return original(*args, **kwargs)
                    finally:
                        tracer._end(idx)
                        tracer._fft_depth -= 1

                return traced

            self._install(module, func, make)


def install_fft(tracer: Tracer) -> None:
    """Wrap numpy.fft and scipy.fft; call before primeaps is imported so a
    `from numpy.fft import fft` inside the program binds the wrapper."""
    tracer.wrap_fft("numpy.fft")
    tracer.wrap_fft("scipy.fft")


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions of the six primeaps layers."""
    cli = sys.modules["primeaps.cli"]
    sieve = sys.modules["primeaps.sieve"]
    measures = sys.modules["primeaps.measures"]
    fourier = sys.modules["primeaps.fourier"]
    arcs = sys.modules["primeaps.arcs"]
    roth = sys.modules["primeaps.roth"]

    tracer.wrap(sieve, "build_factor_table", "sieve.build_factor_table")

    for fn in ("lambda_measure", "lambda_q_measure", "dyadic_pieces"):
        tracer.wrap(measures, fn, f"measures.{fn}")
    tracer.count(measures.Measure, "__post_init__", "measures.measure_count")

    tracer.wrap(fourier, "triple_count", "fourier.triple_count")
    tracer.wrap(roth, "triple_count", "fourier.triple_count")
    for fn in ("lp_norm_torus", "majorant_ratio", "restriction_ratio", "mz_ratio"):
        tracer.wrap(fourier, fn, f"fourier.{fn}")
    tracer.wrap(fourier, "wedge_grid", "fourier.wedge_grid")

    tracer.wrap(arcs, "sup_diff_scan", "arcs.sup_diff_scan")
    tracer.count(arcs, "classify", "arcs.classify_calls")

    for fn in ("density_experiment", "w_trick", "bohr_set", "setlike_check",
               "granularize", "count_3aps", "varnavides_bound",
               "final_inequality"):
        tracer.wrap(roth, fn, f"roth.{fn}")

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "run", "cli.run")
    handlers = getattr(cli, "_HANDLERS", None)
    if isinstance(handlers, dict):
        for key in list(handlers):
            tracer.wrap(handlers, key, "cli.handler")
    else:
        tracer.missing.append("cli._HANDLERS")

    # bytes are counted once per outermost Emitter call (measure -> table)
    seen: list[int] = []

    # rows pass through C-level zip/map, so counting adds no Python frame
    # per row; table() does not nest, so one counter is live at a time
    row_counter: list = []

    def table_before(args, kwargs):
        counter = itertools.count()
        row_counter.append(counter)
        if len(args) >= 4:
            rows = map(itemgetter(0), zip(args[3], counter))
            args = (*args[:3], rows, *args[4:])
        elif "rows" in kwargs:
            rows = map(itemgetter(0), zip(kwargs["rows"], counter))
            kwargs = dict(kwargs, rows=rows)
        return emit_before(args, kwargs)

    def table_after(args, kwargs):
        tracer.counts["cli.emit_rows"] += next(row_counter.pop())
        emit_after(args, kwargs)

    def emit_before(args, kwargs):
        seen.append(len(args[0].outputs))
        return args, kwargs

    def emit_after(args, kwargs):
        start = seen.pop()
        if not seen:
            new = args[0].outputs[start:]
            tracer.counts["cli.emit_bytes"] += sum(o["bytes"] for o in new)

    for fn in ("json_file", "raw", "measure"):
        tracer.wrap(cli.Emitter, fn, f"cli.emit.{fn}", before=emit_before,
                    after=emit_after)
    tracer.wrap(cli.Emitter, "table", "cli.emit.table", before=table_before,
                after=table_after)


# span name -> metric group whose time is the union of its spans
TIME_GROUPS = {
    "sieve.build_factor_table": "sieve.table_s",
    "measures.lambda_measure": "measures.build_s",
    "measures.lambda_q_measure": "measures.build_s",
    "measures.dyadic_pieces": "measures.build_s",
    "fourier.fft": "fourier.fft_s",
    "fourier.triple_count": "fourier.triple_count_s",
    "fourier.lp_norm_torus": "fourier.lp_norm_s",
    "fourier.majorant_ratio": "fourier.lp_norm_s",
    "fourier.restriction_ratio": "fourier.lp_norm_s",
    "fourier.mz_ratio": "fourier.lp_norm_s",
    "arcs.sup_diff_scan": "arcs.scan_s",
    "roth.density_experiment": "roth.experiment_s",
    "roth.w_trick": "roth.w_trick_s",
    "roth.bohr_set": "roth.bohr_set_s",
    "roth.setlike_check": "roth.setlike_s",
    "roth.granularize": "roth.granularize_s",
    "roth.count_3aps": "roth.count_3aps_s",
    "roth.varnavides_bound": "roth.bounds_s",
    "roth.final_inequality": "roth.bounds_s",
    "cli.emit.table": "cli.emit_s",
    "cli.emit.json_file": "cli.emit_s",
    "cli.emit.raw": "cli.emit_s",
    "cli.emit.measure": "cli.emit_s",
}
LAYERS = ("sieve", "measures", "fourier", "arcs", "roth", "cli")


def summarize(spans: list[list]) -> dict:
    """Per-name calls, total and self time; per-group and per-layer times.

    A span's self time is its duration minus the durations of its direct
    children, so self times of all spans sum to the roots' durations.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    by_name: dict[str, dict] = {}
    groups = Counter()
    layers = Counter()
    manifest = 0.0
    for i, (name, _, _, parent) in enumerate(spans):
        own = dur[i] - child[i]
        row = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur[i]
        row["self_s"] += own
        layers[name.split(".")[0]] += own
        group = TIME_GROUPS.get(name)
        if group is not None:
            # count a span only when no enclosing span is in the same group
            p = parent
            while p >= 0 and TIME_GROUPS.get(spans[p][0]) != group:
                p = spans[p][3]
            if p < 0:
                groups[group] += dur[i]
        if name == "cli.run":
            manifest += own
    return {
        "by_name": by_name,
        "groups": dict(groups),
        "layers": dict(layers),
        "manifest_s": manifest,
        "self_sum_s": sum(dur[i] - child[i] for i in range(n)),
    }
