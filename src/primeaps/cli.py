"""Batch experiment runner.

Each subcommand wraps one library surface, writes its outputs (CSV or
JSON) plus a run manifest, and exits 0. Validation failures exit 2,
compute failures 3, I/O failures 4, always with an error JSON on stderr.

Determinism contract: a fixed config and seed reproduce every output file
byte for byte; the manifest's deterministic_hash covers everything except
wall-clock timings.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import secrets
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, arcs, fourier, measures, roth, sieve
from .errors import (
    ConfigError,
    DegenerateInputError,
    DomainError,
    ParameterError,
    PreconditionError,
    StageError,
    TableRangeError,
)
from .numutil import fsum_real, rng_stream

OUTPUT_DIR_ENV = "PRIMEAPS_OUTPUT_DIR"
TABLE_BLOCK_ROWS = 1 << 16  # rows formatted per block by Emitter.table
VALIDATION_ERRORS = (
    ConfigError,
    ParameterError,
    PreconditionError,
    TableRangeError,
    DegenerateInputError,
    DomainError,
)

@dataclass
class RunConfig:
    subcommand: str
    N: object = None
    b: int = 1
    m: int = 1
    Q: list[int] | None = None
    p_exponent: float = 2.5
    W: int | None = None
    delta: float = 0.1
    eps: float = 0.1
    oversample: int = 8
    B_override: float | None = None
    seed: int = 0
    output_dir: str = "primeaps-out"
    format: str = "csv"
    source: str = "primes"
    alpha: float | None = None
    draws: int = 20
    constants: dict | None = None


@dataclass
class RunManifest:
    tool: str
    version: str
    subcommand: str
    config: dict
    effective: dict
    results: dict
    outputs: list[dict]
    deterministic_hash: str = ""
    timings: dict = field(default_factory=dict)


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of printing usage + SystemExit(2)."""

    def error(self, message):
        raise ConfigError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _json_dict(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"constants must be a JSON object: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("constants must be a JSON object")
    return obj


def _count(text: str) -> int:
    """An integer >= 1 (an argparse type)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _counts(text: str) -> list[int]:
    """One or more comma-separated integers, each >= 1 (an argparse type)."""
    values = [_count(part) for part in text.split(",") if part != ""]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


# argparse keywords of each flag, shared by every subcommand that takes it;
# the checks on outside input live in the types
_OPTIONS = {
    "--N": {"type": _count, "help": "scale"},
    "--seed": {"type": int},
    "--output-dir": {},
    "--format": {"choices": ("csv", "json")},
    "--b": {"type": int},
    "--m": {"type": int},
    "--Q": {"type": _int_list},
    "--p": {"dest": "p_exponent", "type": float,
            "help": "exponent p (measure-build: enables the dyadic split)"},
    "--oversample": {"type": int},
    "--B-override": {"type": float},
    "--draws": {"type": _count},
    "--source": {"choices": roth.SOURCES},
    "--delta": {"type": float},
    "--eps": {"type": float},
    "--W": {"type": int},
    "--alpha": {"type": float},
    "--constants": {"type": _json_dict},
}
# a subcommand's entry gives each of its flags a default, or one of these
# keyword sets merged over _OPTIONS
_REQUIRED = {"required": True}
_N_LIST = {"required": True, "type": _counts, "help": "scales, comma-separated"}
_COMMON = {"--seed": 0, "--output-dir": "primeaps-out", "--format": "csv"}


def build_parser() -> _Parser:
    parser = _Parser(prog="primeaps", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name, (_, options) in _COMMANDS.items():
        sp = subs.add_parser(name)
        for flag, spec in (options | _COMMON).items():
            extra = spec if isinstance(spec, dict) else {"default": spec}
            sp.add_argument(flag, **(_OPTIONS[flag] | extra))
    return parser


# ---------------------------------------------------------------------------
# output plumbing

def _clean(obj):
    """JSON-safe copy: numpy scalars unwrapped, non-finite floats stringified."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _atomic_write(path: Path, chunks) -> tuple[str, int]:
    """Write the byte chunks to a fresh temporary file, then rename it over
    path; returns the sha256 hex digest and the size of what was written.
    The chunks are hashed as they go, so no whole file is held in memory.
    The file is created with mode 0o666 less the umask, as open() would."""
    digest = hashlib.sha256()
    size = 0
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
                size += len(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest(), size


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def _json_cell(v) -> str:
    """One table cell as json.dumps writes it at the depth of a row item."""
    return json.dumps(_clean(v), sort_keys=True, indent=2).replace("\n", "\n      ")


def _fast_cells(values: list, finite: bool):
    """C-level reprs of a block that is all int or all float (and finite
    when `finite`); None for any other block."""
    kinds = set(map(type, values))
    if kinds == {int}:
        return map(int.__repr__, values)
    if kinds == {float} and (not finite or all(map(math.isfinite, values))):
        return map(float.__repr__, values)
    return None


def _blocks(columns: list, n: int):
    """The columns as lists of Python values, TABLE_BLOCK_ROWS rows at a time."""
    for lo in range(0, n, TABLE_BLOCK_ROWS):
        hi = lo + TABLE_BLOCK_ROWS
        yield [col[lo:hi].tolist() if isinstance(col, np.ndarray) else col[lo:hi]
               for col in columns]


def _csv_text(header: list[str], columns: list, n: int):
    """The CSV text of a table, one block at a time. Blocks of numbers are
    joined directly, since a number never needs quoting; any other block
    goes through csv.writer, cell by cell through _fmt."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    yield buf.getvalue()
    for block in _blocks(columns, n):
        cells = [_fast_cells(values, finite=False) for values in block]
        if None not in cells:
            yield "\n".join(map(",".join, zip(*cells))) + "\n"
            continue
        buf.seek(0)
        buf.truncate()
        writer.writerows(zip(*(map(_fmt, values) if fast is None else fast
                               for values, fast in zip(block, cells))))
        yield buf.getvalue()


def _json_text(header: list[str], columns: list, n: int):
    """The text of json.dumps({"columns": header, "rows": rows},
    sort_keys=True, indent=2) + newline, one block of rows at a time."""
    head = json.dumps(header, indent=2).replace("\n", "\n  ")
    if n == 0:
        yield '{\n  "columns": %s,\n  "rows": []\n}\n' % head
        return
    yield '{\n  "columns": %s,\n  "rows": [' % head
    row = "\n    [\n      " + ",\n      ".join(["%s"] * len(columns)) + "\n    ]"
    sep = ""
    for block in _blocks(columns, n):
        cells = []
        for values in block:
            fast = _fast_cells(values, finite=True)
            cells.append(map(_json_cell, values) if fast is None else fast)
        yield sep + ",".join(map(row.__mod__, zip(*cells)))
        sep = ","
    yield "\n  ]\n}\n"


def _transpose(rows, width: int) -> list:
    """The columns of a few rows; `width` empty columns if there are none."""
    return list(zip(*rows)) or [()] * width


class Emitter:
    """Writes output files atomically and records (path, sha256, bytes)."""

    def __init__(self, outdir: Path, fmt: str):
        self.outdir = outdir
        self.format = fmt
        self.outputs: list[dict] = []

    def _record(self, name: str, chunks) -> None:
        sha256, size = _atomic_write(self.outdir / name, chunks)
        self.outputs.append({"path": name, "sha256": sha256, "bytes": size})

    def table(self, stem: str, header: list[str], columns) -> None:
        """Tabular output in the configured format (csv or json), from
        equally long columns (numpy arrays, lists or tuples).

        The bytes are those of formatting each row's cells with _fmt and
        csv.writer, or with _clean and json.dumps(indent=2); the file is
        formatted and written TABLE_BLOCK_ROWS rows at a time."""
        columns = list(columns)
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(f"{stem}: columns differ in length {sorted(lengths)}")
        n = lengths.pop() if lengths else 0
        if self.format == "json":
            self._record(stem + ".json", map(str.encode, _json_text(header, columns, n)))
        else:
            self._record(stem + ".csv", map(str.encode, _csv_text(header, columns, n)))

    def json_file(self, stem: str, obj) -> None:
        text = json.dumps(_clean(obj), sort_keys=True, indent=2) + "\n"
        self._record(stem + ".json", [text.encode("utf-8")])

    def raw(self, name: str, data: bytes) -> None:
        self._record(name, [data])

    def measure(self, stem: str, f: measures.Measure) -> None:
        self.table(stem, ["index", "weight"], [f.positions(), f.weights])


def emit_plotdata(emitter: Emitter, stem: str, rows) -> None:
    """Long-form (x, series, value) rows, sorted for bit-stable output."""
    ordered = sorted(rows, key=lambda r: (str(r[1]), float(r[0])))
    emitter.table(stem, ["x", "series", "value"], _transpose(ordered, 3))


def _scan_profile_rows(result: arcs.ScanResult):
    for row in result.profile:
        yield (row.theta, row.re, row.im, row.abs, row.arc_kind, row.a, row.q)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (effective, results)

def _measure_params(cfg: RunConfig, N: int, Q: int | None = None) -> measures.MeasureParams:
    return measures.MeasureParams(b=cfg.b, m=cfg.m, N=N, Q=Q,
                                  p_exponent=cfg.p_exponent)


def _table_for(limit: int) -> sieve.FactorTable:
    return sieve.build_factor_table(max(int(limit), 4))


def _run_sieve_stats(cfg: RunConfig, em: Emitter):
    N = cfg.N
    table = _table_for(max([N, *(cfg.Q or [])]))
    ps = table.primes_up_to(N)
    theta = fsum_real(np.log(ps.astype(np.float64))) if ps.size else 0.0
    results = {
        "pi_N": int(ps.size),
        "chebyshev_theta_over_N": theta / N,
        "largest_prime": int(ps[-1]) if ps.size else None,
    }
    rows = []
    for Q in cfg.Q or []:
        prod = sieve.mertens_product(Q, 1, table)
        rows.append((Q, "mertens_product", prod))
        if Q >= 3:
            rows.append((Q, "mertens_reference",
                         math.exp(-np.euler_gamma) / math.log(Q)))
    if rows:
        emit_plotdata(em, "sieve_stats", rows)
    return {"table_limit": table.limit}, results


def _run_measure_build(cfg: RunConfig, em: Emitter):
    N = cfg.N
    params = _measure_params(cfg, N)
    # the dyadic split sieves with primes up to 2^K: size the table for it
    # now, so an out-of-range split fails before any output is written
    limit = cfg.m * N + cfg.b
    if cfg.p_exponent is not None:
        limit = max(limit, 2 ** measures.dyadic_cutoff(N, params.A))
    table = _table_for(limit)
    lam = measures.lambda_measure(params, table)
    em.measure("measure_lambda", lam)
    em.raw("measure_lambda.bin", measures.measure_to_bytes(lam))
    results = {"total": lam.total, "sup": lam.sup_norm()}
    effective = {"table_limit": table.limit}
    rough_totals = {}
    for Q in cfg.Q or []:
        pq = _measure_params(cfg, N, Q=Q)
        lamq = measures.lambda_q_measure(pq, table)
        em.measure(f"measure_rough_Q{Q}", lamq)
        rough_totals[str(Q)] = lamq.total
    if rough_totals:
        results["rough_totals"] = rough_totals
    if cfg.p_exponent is not None:
        pieces, K = measures.dyadic_pieces(params, table)
        norms = measures.piece_sup_norms(pieces)
        em.table("dyadic_sup_norms", ["j", "sup", "reference"],
                 _transpose([(n.j, n.sup, n.reference) for n in norms], 3))
        recon = np.zeros(N)
        for piece in pieces:
            recon += piece.weights
        effective["A"] = params.A
        effective["K"] = K
        results["dyadic_pieces"] = len(pieces)
        results["reconstruction_max_err"] = float(
            np.max(np.abs(recon - lam.weights))
        )
    return effective, results


def _run_transform_scan(cfg: RunConfig, em: Emitter):
    N = cfg.N
    table = _table_for(cfg.m * N + cfg.b)
    Qs = cfg.Q or [None]
    grid = fourier.TorusGrid(oversample=cfg.oversample)
    effective = {"table_limit": table.limit, "grid_points": grid.points(N)}
    results = {}
    for Q in Qs:
        params = _measure_params(cfg, N, Q=Q)
        f = (measures.lambda_measure(params, table) if Q is None
             else measures.lambda_q_measure(params, table))
        M = grid.points(N)
        vals = fourier.measure_wedge_grid(f, M)
        mags = np.abs(vals)
        step = max(1, M // 4096)
        idx = np.arange(0, M, step)
        j_star = int(np.argmax(mags))
        if j_star not in idx:
            idx = np.sort(np.append(idx, j_star))
        tag = "lambda" if Q is None else f"rough_Q{Q}"
        em.table(
            f"transform_{tag}",
            ["theta", "re", "im", "abs"],
            [[j / M for j in idx.tolist()], vals[idx].real, vals[idx].imag,
             mags[idx]],
        )
        off = mags.copy()
        off[0] = -1.0
        results[tag] = {
            "mass": f.total,
            "sup_offzero_grid": float(np.max(off)),
            "l2_norm": fourier.lp_norm_torus(f, 2.0, grid),
            "lp_norm": fourier.lp_norm_torus(f, cfg.p_exponent, grid),
        }
    return effective, results


def _run_arc_scan(cfg: RunConfig, em: Emitter):
    N = cfg.N
    table = _table_for(max(cfg.m * N + cfg.b, max(cfg.Q) + 1))
    grid = fourier.TorusGrid(oversample=cfg.oversample)
    aparams = arcs.ArcParams(N=N, p_exponent=cfg.p_exponent,
                             b_override=cfg.B_override)
    effective = {
        "table_limit": table.limit,
        "A": aparams.A,
        "B_formula": aparams.B_formula,
        "B": aparams.B,
        "q_cutoff": aparams.q_cutoff,
        "Qmax": aparams.Qmax,
        "degenerate": aparams.degenerate,
        "grid_points": grid.points(N),
    }
    results = {}
    summary_rows = []
    for Q in cfg.Q:
        params = _measure_params(cfg, N, Q=Q)
        scan = arcs.sup_diff_scan(params, grid, table, arc_params=aparams)
        em.table(
            f"arc_scan_Q{Q}",
            ["theta", "re", "im", "abs", "arc_kind", "a", "q"],
            _transpose(_scan_profile_rows(scan), 7),
        )
        results[str(Q)] = {
            "sup": scan.sup,
            "argmax_theta": scan.argmax_theta,
            "theta0_mass_diff": scan.theta0_mass_diff,
            "reference": scan.reference,
            "sup_major_profiled": scan.sup_major_profiled,
            "sup_minor_profiled": scan.sup_minor_profiled,
        }
        summary_rows.append((Q, "sup", scan.sup))
        summary_rows.append((Q, "reference", scan.reference))
    emit_plotdata(em, "arc_summary", summary_rows)
    return effective, results


def _draw_sweep(cfg: RunConfig, em: Emitter, name: str, setup) -> dict:
    """cfg.draws random ratios at each N of cfg.N, drawn from the stream
    rng_stream(cfg.seed, f"{name}-N{N}"). setup(N) returns (draw, extra):
    draw(rng) gives one ratio, extra the results kept beside max_ratio.
    Writes {name}_draws and {name}_sweep; returns the results by N."""
    results = {}
    sweep_rows = []
    draw_rows = []
    for N in cfg.N:
        draw, extra = setup(N)
        rng = rng_stream(cfg.seed, f"{name}-N{N}")
        ratios = [draw(rng) for _ in range(cfg.draws)]
        draw_rows.extend((N, d, ratio) for d, ratio in enumerate(ratios))
        results[str(N)] = {"max_ratio": max(ratios), **extra}
        sweep_rows.append((N, "max_ratio", max(ratios)))
    em.table(f"{name}_draws", ["N", "draw", "ratio"], _transpose(draw_rows, 3))
    emit_plotdata(em, f"{name}_sweep", sweep_rows)
    return results


def _run_majorant(cfg: RunConfig, em: Emitter):
    table = _table_for(max(cfg.N))
    grid = fourier.TorusGrid(oversample=cfg.oversample)

    def setup(N):
        n_primes = int(table.primes_up_to(N).size)
        den = fourier.majorant_denominator(cfg.p_exponent, N, table, grid)

        def draw(rng):
            signs = rng.integers(0, 2, size=n_primes) * 2 - 1
            return fourier.majorant_ratio(signs.astype(np.float64),
                                          cfg.p_exponent, N, table, grid,
                                          den=den)

        return draw, {"draws": cfg.draws}

    results = _draw_sweep(cfg, em, "majorant", setup)
    return {"table_limit": table.limit, "p": cfg.p_exponent}, results


def _run_restriction(cfg: RunConfig, em: Emitter):
    table = _table_for(cfg.m * max(cfg.N) + cfg.b)
    grid = fourier.TorusGrid(oversample=cfg.oversample)

    def setup(N):
        lam = measures.lambda_measure(_measure_params(cfg, N), table)
        support = int(np.count_nonzero(lam.weights))

        def draw(rng):
            fvals = rng.standard_normal(support) + 1j * rng.standard_normal(support)
            return fourier.restriction_ratio(fvals, cfg.p_exponent, lam, grid)

        return draw, {"support": support}

    results = _draw_sweep(cfg, em, "restriction", setup)
    return {"table_limit": table.limit, "p": cfg.p_exponent}, results


def _run_mz_check(cfg: RunConfig, em: Emitter):
    grid = fourier.TorusGrid(oversample=cfg.oversample)

    def setup(N):
        def draw(rng):
            f = measures.Measure(N, rng.standard_normal(N), signed=True)
            return fourier.mz_ratio(f, cfg.p_exponent, grid)

        return draw, {}

    results = _draw_sweep(cfg, em, "mz", setup)
    return {"p": cfg.p_exponent, "oversample": cfg.oversample}, results


def _run_roth_pipeline(cfg: RunConfig, em: Emitter):
    n = cfg.N
    W = cfg.W if cfg.W is not None else roth.default_w(n)
    table = _table_for(4 * n + roth.w_modulus(W) + 16)
    artifacts: dict = {}
    report = roth.density_experiment(
        cfg.source, n, table, seed=cfg.seed, delta=cfg.delta, eps=cfg.eps,
        W=cfg.W, constants=cfg.constants, artifacts=artifacts,
    )
    em.json_file("report", report)
    em.table("set_A0", ["value"], [artifacts["A0"]])
    em.table("set_A", ["value"], [artifacts["A"]])
    em.table("bohr_members", ["value"], [artifacts["bohr"].members])
    coeffs = artifacts["spectrum"].coeffs
    em.table("spectrum_a", ["r", "re", "im"],
             [np.arange(coeffs.size), coeffs.real, coeffs.imag])
    em.measure("measure_mu", artifacts["mu"])
    em.measure("measure_a", artifacts["a"])
    em.measure("granular_a1", artifacts["a1"])
    wt = artifacts["w_trick"]
    effective = {
        "table_limit": table.limit,
        "W": wt.W,
        "m": wt.m,
        "b": wt.b,
        "N": wt.N,
        "m_le_logN": wt.m_le_logN,
    }
    results = {
        "alpha": report["w_trick"]["alpha"],
        "k": report["spectrum"]["k"],
        "bohr_size": report["bohr"]["size"],
        "sup_a1": report["setlike"]["sup_a1"],
        "setlike": report["setlike"]["setlike"],
        "A_3aps_line_nontrivial": report["counts"]["A_3aps_line_nontrivial"],
        "contradiction": report["bounds"]["contradiction"],
    }
    return effective, results


def _run_behrend(cfg: RunConfig, em: Emitter):
    results = {}
    rows = []
    for N in cfg.N:
        S = roth.behrend_set(N)
        em.table(f"behrend_N{N}", ["value"], [S])
        size = int(S.size)
        fitted_c = -math.log(size / N) / math.sqrt(math.log(N)) if size < N else 0.0
        results[str(N)] = {"size": size, "fitted_c": fitted_c}
        rows.append((N, "size", size))
        rows.append((N, "fitted_c", fitted_c))
    emit_plotdata(em, "behrend_sweep", rows)
    return {}, results


def _run_varnavides(cfg: RunConfig, em: Emitter):
    consts = dict(roth.DEFAULT_CONSTANTS)
    consts.update(cfg.constants or {})
    if cfg.alpha is None:
        raise ConfigError("--alpha is required")
    vb = roth.varnavides_bound(cfg.alpha, cfg.N, C1=consts["C1"])
    results = asdict(vb)
    em.json_file("varnavides", results)
    return {"C1": consts["C1"]}, _clean(results)


# subcommand -> (handler, its flags besides _COMMON)
_COMMANDS = {
    "sieve-stats": (_run_sieve_stats, {"--N": _REQUIRED, "--Q": None}),
    "measure-build": (_run_measure_build, {
        "--N": _REQUIRED, "--b": 1, "--m": 1, "--Q": None, "--p": None}),
    "transform-scan": (_run_transform_scan, {
        "--N": _REQUIRED, "--b": 1, "--m": 1, "--Q": None, "--p": 2.5,
        "--oversample": 8}),
    "arc-scan": (_run_arc_scan, {
        "--N": _REQUIRED, "--b": 1, "--m": 1, "--Q": _REQUIRED, "--p": 2.5,
        "--oversample": 4, "--B-override": None}),
    "majorant": (_run_majorant, {
        "--N": _N_LIST, "--p": 4.0, "--draws": 20, "--oversample": 2}),
    "restriction": (_run_restriction, {
        "--N": _N_LIST, "--b": 1, "--m": 1, "--p": 2.5, "--draws": 20,
        "--oversample": 2}),
    "mz-check": (_run_mz_check, {
        "--N": _N_LIST, "--p": 2.5, "--draws": 20, "--oversample": 2}),
    "roth-pipeline": (_run_roth_pipeline, {
        "--N": _REQUIRED, "--source": "primes", "--delta": 0.1, "--eps": 0.1,
        "--W": None, "--constants": None}),
    "behrend": (_run_behrend, {"--N": _N_LIST}),
    "varnavides": (_run_varnavides, {
        "--N": _REQUIRED, "--alpha": _REQUIRED, "--constants": None}),
}
# run() looks each handler up here at call time, so a wrapper put into this
# dict (bench/tracing.py installs one per entry) takes effect
_HANDLERS = {name: handler for name, (handler, _) in _COMMANDS.items()}


# ---------------------------------------------------------------------------
# driver

def _config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=ns.subcommand)
    for key, value in vars(ns).items():
        if key != "subcommand" and hasattr(cfg, key):
            setattr(cfg, key, value)
    return cfg


def run(cfg: RunConfig) -> RunManifest:
    """Execute one experiment; writes outputs and manifest.json."""
    outdir = Path(os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    em = Emitter(outdir, cfg.format)
    t0 = time.perf_counter()
    effective, results = _HANDLERS[cfg.subcommand](cfg, em)
    elapsed = time.perf_counter() - t0
    effective = _clean(dict(effective, output_dir=str(outdir)))
    results = _clean(results)
    base = {
        "tool": "primeaps",
        "version": __version__,
        "subcommand": cfg.subcommand,
        "config": _clean(asdict(cfg)),
        "effective": effective,
        "results": results,
        "outputs": em.outputs,
    }
    # hash covers content, not file locations: identical experiments hash
    # equal no matter where their outputs land
    basis = dict(base)
    basis["config"] = {k: v for k, v in base["config"].items() if k != "output_dir"}
    basis["effective"] = {
        k: v for k, v in base["effective"].items() if k != "output_dir"
    }
    canon = json.dumps(basis, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    manifest = RunManifest(
        tool="primeaps",
        version=__version__,
        subcommand=cfg.subcommand,
        config=base["config"],
        effective=effective,
        results=results,
        outputs=em.outputs,
        deterministic_hash=digest,
        timings={"wall_seconds": elapsed},
    )
    data = json.dumps(asdict(manifest), sort_keys=True, indent=2) + "\n"
    _atomic_write(outdir / "manifest.json", [data.encode("utf-8")])
    return manifest


def _emit_error(kind: str, exc: Exception, stage: str | None = None) -> None:
    payload = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    if stage is not None:
        payload["stage"] = stage
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = _config_from_namespace(ns)
    except ConfigError as exc:
        _emit_error("validation", exc)
        return 2
    try:
        run(cfg)
        return 0
    except VALIDATION_ERRORS as exc:
        _emit_error("validation", exc)
        return 2
    except StageError as exc:
        _emit_error("compute", exc, stage=exc.stage)
        return 3
    except OSError as exc:
        _emit_error("io", exc)
        return 4
    except Exception as exc:  # noqa: BLE001 - tagged as internal
        _emit_error("compute", exc, stage="internal")
        return 3


if __name__ == "__main__":
    sys.exit(main())
