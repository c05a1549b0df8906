import argparse
import csv
import hashlib
import json
import math
import os
import stat
import time
from pathlib import Path

import numpy as np
import pytest

from primeaps import cli, measures, sieve
from primeaps.cli import OUTPUT_DIR_ENV


@pytest.fixture(autouse=True)
def _no_env_override(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


def _manifest(outdir: Path) -> dict:
    return json.loads((outdir / "manifest.json").read_text())


def _run(args, outdir: Path) -> dict:
    rc = cli.main(args + ["--output-dir", str(outdir)])
    assert rc == 0
    return _manifest(outdir)


# --- happy paths -------------------------------------------------------------

def test_measure_build_outputs(tmp_path):
    man = _run(["measure-build", "--N", "500"], tmp_path)
    assert man["tool"] == "primeaps"
    assert man["subcommand"] == "measure-build"
    assert man["config"]["N"] == 500
    assert man["config"]["b"] == 1 and man["config"]["m"] == 1
    assert 0.9 < man["results"]["total"] < 1.1
    names = {o["path"] for o in man["outputs"]}
    assert {"measure_lambda.csv", "measure_lambda.bin"} <= names
    # recorded hashes match what is on disk
    for out in man["outputs"]:
        data = (tmp_path / out["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == out["sha256"]
        assert len(data) == out["bytes"]
    # binary round-trips to the same weights as the csv
    lam = measures.measure_from_bytes(
        (tmp_path / "measure_lambda.bin").read_bytes()
    )
    with (tmp_path / "measure_lambda.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 500
    for row in rows[:50]:
        i = int(row["index"])
        assert float(row["weight"]) == lam.weights[i - 1]


def test_measure_build_rough_and_dyadic(tmp_path):
    man = _run(
        ["measure-build", "--N", "2000", "--Q", "4,16", "--p", "3.0"],
        tmp_path,
    )
    assert set(man["results"]["rough_totals"]) == {"4", "16"}
    assert man["results"]["reconstruction_max_err"] <= 1e-12
    names = {o["path"] for o in man["outputs"]}
    assert {"measure_rough_Q4.csv", "measure_rough_Q16.csv",
            "dyadic_sup_norms.csv"} <= names


def test_csv_dialect_is_unix_repr(tmp_path):
    _run(["measure-build", "--N", "100"], tmp_path)
    raw = (tmp_path / "measure_lambda.csv").read_bytes()
    assert b"\r" not in raw
    line = raw.decode().splitlines()[1]
    weight = line.split(",")[1]
    # repr round-trip: the printed float parses back exactly
    assert repr(float(weight)) == weight


def test_json_format(tmp_path):
    man = _run(["behrend", "--N", "8", "--format", "json"], tmp_path)
    payload = json.loads((tmp_path / "behrend_N8.json").read_text())
    assert payload["columns"] == ["value"]
    assert [r[0] for r in payload["rows"]] == [1, 2, 4, 5]
    assert man["results"]["8"]["size"] == 4


def test_behrend_plotdata_sorted(tmp_path):
    _run(["behrend", "--N", "100,8"], tmp_path)
    with (Path(tmp_path) / "behrend_sweep.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "series", "value"]
    keys = [(r[1], float(r[0])) for r in rows[1:]]
    assert keys == sorted(keys)


def test_varnavides_results(tmp_path):
    man = _run(
        ["varnavides", "--N", "211", "--alpha", "0.9",
         "--constants", '{"C1": 0.1}'],
        tmp_path,
    )
    assert man["results"]["M"] == 2
    assert man["results"]["z_lower"] == pytest.approx(1252.153125)
    assert man["effective"]["C1"] == 0.1
    assert json.loads((tmp_path / "varnavides.json").read_text())["M"] == 2


def test_constants_accept_known_finite_numbers(tmp_path):
    man = _run(["varnavides", "--N", "211", "--alpha", "0.9",
                "--constants", '{"C1": 1, "C2": -0.5}'], tmp_path)
    assert man["config"]["constants"] == {"C1": 1, "C2": -0.5}
    assert man["effective"]["C1"] == 1


def test_transform_scan_l2_norm_is_parseval(tmp_path):
    # without --Q the scan covers lambda, with --Q each rough measure
    N = 300
    table = sieve.build_factor_table(N + 1)
    cases = [([], "lambda", measures.lambda_measure(
                 measures.MeasureParams(b=1, m=1, N=N), table)),
             (["--Q", "16"], "rough_Q16", measures.lambda_q_measure(
                 measures.MeasureParams(b=1, m=1, N=N, Q=16), table))]
    for extra, tag, f in cases:
        out = tmp_path / tag
        man = _run(["transform-scan", "--N", str(N), "--oversample", "4", *extra],
                   out)
        got = man["results"][tag]
        sum_sq = math.fsum((f.weights ** 2).tolist())
        assert got["l2_norm"] ** 2 == pytest.approx(sum_sq, rel=1e-15, abs=0)
        # M = 1200 <= 4096, so the profile holds every grid point
        with (out / f"transform_{tag}.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        off = max(float(r["abs"]) for r in rows if float(r["theta"]) != 0.0)
        assert off == got["sup_offzero_grid"]


def test_sieve_stats(tmp_path):
    man = _run(["sieve-stats", "--N", "1000", "--Q", "4,16"], tmp_path)
    assert man["results"]["pi_N"] == 168
    assert 0.9 < man["results"]["chebyshev_theta_over_N"] < 1.1


def test_roth_pipeline_cli(tmp_path):
    man = _run(["roth-pipeline", "--N", "400", "--source", "primes"], tmp_path)
    names = {o["path"] for o in man["outputs"]}
    assert {"report.json", "set_A0.csv", "set_A.csv", "bohr_members.csv",
            "spectrum_a.csv", "measure_mu.csv", "measure_a.csv",
            "granular_a1.csv"} <= names
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["bounds"]["contradiction"] is False
    assert man["results"]["contradiction"] is False
    assert man["results"]["A_3aps_line_nontrivial"] > 0
    assert man["effective"]["m"] == 2
    # exported rescaled set matches the report size
    with (tmp_path / "set_A.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == report["w_trick"]["size_A"]


# --- determinism -------------------------------------------------------------

def test_rerun_hashes_identical(tmp_path):
    a = _run(["measure-build", "--N", "300", "--seed", "7"], tmp_path / "a")
    b = _run(["measure-build", "--N", "300", "--seed", "7"], tmp_path / "b")
    assert a["deterministic_hash"] == b["deterministic_hash"]
    ha = {o["path"]: o["sha256"] for o in a["outputs"]}
    hb = {o["path"]: o["sha256"] for o in b["outputs"]}
    assert ha == hb
    c = _run(["measure-build", "--N", "301", "--seed", "7"], tmp_path / "c")
    assert c["deterministic_hash"] != a["deterministic_hash"]


def test_majorant_seed_changes_hash(tmp_path):
    a = _run(["majorant", "--N", "256", "--draws", "3", "--seed", "1"],
             tmp_path / "a")
    b = _run(["majorant", "--N", "256", "--draws", "3", "--seed", "1"],
             tmp_path / "b")
    c = _run(["majorant", "--N", "256", "--draws", "3", "--seed", "2"],
             tmp_path / "c")
    assert a["deterministic_hash"] == b["deterministic_hash"]
    assert a["deterministic_hash"] != c["deterministic_hash"]
    for key, entry in a["results"].items():
        assert entry["max_ratio"] <= 1.0 + 1e-9


def test_env_var_overrides_flag(tmp_path, monkeypatch):
    envdir = tmp_path / "from-env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(envdir))
    rc = cli.main(["behrend", "--N", "8",
                   "--output-dir", str(tmp_path / "from-flag")])
    assert rc == 0
    assert (envdir / "manifest.json").exists()
    assert not (tmp_path / "from-flag").exists()
    man = _manifest(envdir)
    assert man["effective"]["output_dir"] == str(envdir)


# --- failure modes -----------------------------------------------------------

def test_bad_flags_exit_2(tmp_path, capsys):
    rc = cli.main(["measure-build", "--output-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    rc = cli.main(["measure-build", "--N", "100of"])
    assert rc == 2
    rc = cli.main(["not-a-subcommand"])
    assert rc == 2


@pytest.mark.parametrize("args", [
    ["majorant", "--N", "256", "--draws", "0"],
    ["majorant", "--N", "256", "--draws", "-1"],
    ["restriction", "--N", "300", "--draws", "0"],
    ["restriction", "--N", "300", "--draws", "-1"],
    ["mz-check", "--N", "256", "--draws", "0"],
    ["mz-check", "--N", "256", "--draws", "-1"],
    ["majorant", "--N", ""],
    ["behrend", "--N", "100,0"],
    ["sieve-stats", "--N", "0"],
    ["arc-scan", "--N", "100", "--Q", ""],
    ["measure-build", "--N", "100", "--Q", "0"],
    ["roth-pipeline", "--N", "300", "--W", "0"],
    ["roth-pipeline", "--N", "300", "--delta", "0"],
    ["roth-pipeline", "--N", "300", "--eps", "1.5"],
    ["majorant", "--N", "100", "--p", "nan"],
    ["transform-scan", "--N", "100", "--p", "inf"],
    ["arc-scan", "--N", "100", "--Q", "4", "--B-override", "nan"],
    ["arc-scan", "--N", "100", "--Q", "4", "--B-override", "-inf"],
    ["roth-pipeline", "--N", "300", "--delta", "inf"],
    ["roth-pipeline", "--N", "300", "--constants", '{"C2": "1"}'],
    ["majorant", "--N", "100", "--seed", "-1", "--draws", "1"],
    ["restriction", "--N", "100", "--seed", "-1", "--draws", "1"],
    ["mz-check", "--N", "100", "--seed", "-1", "--draws", "1"],
    ["roth-pipeline", "--N", "300", "--seed", "-3", "--source",
     "random-subset-of-primes"],
    ["measure-build", "--N", "100", "--Q", "4,4"],
    ["arc-scan", "--N", "100", "--Q", "4,16,4"],
    ["majorant", "--N", "100,100", "--draws", "2"],
    ["behrend", "--N", "8,16,8"],
], ids=" ".join)
def test_out_of_range_counts_exit_2(args, tmp_path, capsys):
    # rejected by the parser, before a handler reaches max([]), divides by
    # N or runs a pipeline stage, and before the output directory exists
    out = tmp_path / "out"
    rc = cli.main(args + ["--output-dir", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert "--" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("W", ["2000", "20000", "1000000007"])
def test_w_past_the_factor_table_exits_2_at_once(W, tmp_path, capsys):
    # the W-trick modulus, the product of the primes <= W, stops at the
    # factor-table limit: no trial division up to W and no number of
    # hundreds of digits in the message
    out = tmp_path / "out"
    t0 = time.perf_counter()
    rc = cli.main(["roth-pipeline", "--N", "300", "--W", W,
                   "--output-dir", str(out)])
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert rc == 2
    assert elapsed < 1.0
    assert len(err.encode("utf-8")) < 200
    payload = json.loads(err)
    assert payload["error"] == "validation"
    assert payload["message"].startswith(f"W = {W}: ")
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["majorant", "--N", "100", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["measure-build", "--N", "100", "--Q", "4,16,4,16"],
     "argument --Q: repeated values [4, 16]"),
    (["mz-check", "--N", "100,100"], "argument --N: repeated values [100]"),
], ids=" ".join)
def test_negative_seed_and_repeated_values_messages(args, message, tmp_path, capsys):
    assert cli.main(args + ["--output-dir", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == message


@pytest.mark.parametrize("text, message", [
    ("[1]", "argument --constants: constants must be a JSON object"),
    ("{1", "argument --constants: constants must be a JSON object: Expecting"),
    ('{"C2": "1"}', "argument --constants: constant C2 must be a finite number"),
    ('{"C1": "x"}', "argument --constants: constant C1 must be a finite number"),
    ('{"Cx": 1}', "argument --constants: unknown constant 'Cx'"),
    ('{"C1": true}', "argument --constants: constant C1 must be a finite number"),
    ('{"C1": null}', "argument --constants: constant C1 must be a finite number"),
    ('{"C1": NaN}', "argument --constants: constant C1 must be a finite number"),
    ('{"C1": -Infinity}', "argument --constants: constant C1 must be a finite number"),
    ('{"C1": 1e400}', "argument --constants: constant C1 must be a finite number"),
    ('{"C1": 1%s}' % ("0" * 400), "argument --constants: constant C1 must be a finite"),
], ids=["not-an-object", "unparsable", "string-number", "string", "unknown-name",
        "boolean", "null", "nan", "infinity", "overflowing-float", "huge-int"])
def test_constants_must_be_a_json_object(text, message, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["varnavides", "--N", "211", "--alpha", "0.5",
                   "--constants", text, "--output-dir", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert err["message"].startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["roth-pipeline", "--N", "2"],
    ["transform-scan", "--N", "100", "--oversample", "1"],
    ["measure-build", "--N", "100", "--b", "2", "--m", "4"],
    ["behrend", "--N", "100,5"],
], ids=" ".join)
def test_handler_rejection_leaves_no_output_dir(args, tmp_path, capsys):
    # these pass the parser and fail inside their handler, before the
    # first write, which is what creates the output directory
    out = tmp_path / "out"
    rc = cli.main(args + ["--output-dir", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"
    assert not out.exists()


def test_incoherent_params_exit_2(tmp_path, capsys):
    rc = cli.main(["measure-build", "--N", "100", "--b", "2", "--m", "4",
                   "--output-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "gcd" in err["message"]
    assert err["type"] == "PreconditionError"


def test_stage_error_exit_3(tmp_path, capsys, monkeypatch):
    from primeaps import roth

    def fail(*args, **kwargs):
        raise RuntimeError("spectrum_threshold failed")

    monkeypatch.setattr(roth, "spectrum_threshold", fail)
    rc = cli.main(["roth-pipeline", "--N", "300",
                   "--output-dir", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "compute"
    assert err["stage"] == "transform"


def test_unwritable_output_exit_4(tmp_path, capsys):
    target = tmp_path / "blocker"
    target.write_text("a file, not a directory\n")
    rc = cli.main(["behrend", "--N", "8", "--output-dir", str(target)])
    assert rc == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "io"


def test_manifest_excludes_output_dir_from_hash(tmp_path):
    # config echo keeps the directory, the hash basis drops it
    man = _run(["behrend", "--N", "8"], tmp_path / "somewhere")
    assert man["config"]["output_dir"] == str(tmp_path / "somewhere")
    man2 = _run(["behrend", "--N", "8"], tmp_path / "elsewhere")
    assert man["deterministic_hash"] == man2["deterministic_hash"]
    assert man["timings"]["wall_seconds"] >= 0.0


# --- table sizing and output files ---------------------------------------------

def test_sieve_stats_q_beyond_n(tmp_path):
    man = _run(["sieve-stats", "--N", "100", "--Q", "1000"], tmp_path)
    assert man["results"]["pi_N"] == 25
    table = sieve.build_factor_table(1000)
    with (tmp_path / "sieve_stats.csv").open() as fh:
        rows = [r for r in csv.DictReader(fh) if r["series"] == "mertens_product"]
    assert [(int(r["x"]), float(r["value"])) for r in rows] == [
        (1000, sieve.mertens_product(1000, 1, table))
    ]


def test_measure_build_default_p_runs(tmp_path):
    man = _run(["measure-build", "--N", "1000", "--p", "2.5"], tmp_path)
    assert man["effective"]["K"] == 19
    assert man["effective"]["table_limit"] >= 2**19
    assert man["results"]["reconstruction_max_err"] <= 1e-12


def test_measure_build_out_of_range_split_writes_nothing(tmp_path, capsys):
    rc = cli.main(["measure-build", "--N", "1000000", "--Q", "16", "--p", "2.5",
                   "--output-dir", str(tmp_path)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "validation"
    assert list(tmp_path.iterdir()) == []


def test_output_files_follow_umask(tmp_path):
    old = os.umask(0o022)
    try:
        man = _run(["behrend", "--N", "8"], tmp_path)
    finally:
        os.umask(old)
    for name in [o["path"] for o in man["outputs"]] + ["manifest.json"]:
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [o["path"] for o in man["outputs"]] + ["manifest.json"]
    )


def test_roth_pipeline_builds_one_factor_table(tmp_path, monkeypatch):
    limits = []
    original = sieve.build_factor_table

    def counted(limit):
        limits.append(limit)
        return original(limit)

    monkeypatch.setattr(sieve, "build_factor_table", counted)
    man = _run(["roth-pipeline", "--N", "2000", "--W", "3"], tmp_path)
    assert man["effective"]["m"] == 6
    assert limits == [man["effective"]["table_limit"]] == [4 * 2000 + 6 + 16]


def test_majorant_denominator_once_per_N(tmp_path, monkeypatch):
    from primeaps import fourier

    calls = []
    original = fourier.majorant_denominator

    def counted(p, N, table, grid):
        calls.append(N)
        return original(p, N, table, grid)

    monkeypatch.setattr(fourier, "majorant_denominator", counted)
    _run(["majorant", "--N", "256,300", "--draws", "4"], tmp_path)
    assert calls == [256, 300]


def _transforms(args, outdir: Path) -> list[tuple[str, int]]:
    """The (name, length) of every numpy.fft transform one run takes."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft"):
            original = getattr(np.fft, name)

            def counted(a, *rest, _name=name, _original=original, **kwargs):
                calls.append((_name, len(a)))
                return _original(a, *rest, **kwargs)

            mp.setattr(np.fft, name, counted)
        _run(args, outdir)
    return calls


@pytest.mark.parametrize("args, want", [
    # per measure: one rfft for the grid, one at twice its length for the
    # first comparison of the L^p ladder (p = 2.5, which agrees there)
    (["transform-scan", "--N", "2000", "--Q", "16", "--oversample", "8"],
     [("rfft", 16000), ("rfft", 32000)]),
    # one rfft of lambda - lambda_Q per Q
    (["arc-scan", "--N", "2000", "--Q", "16,256", "--B-override", "2",
      "--oversample", "4"],
     [("rfft", 8000)] * 2),
    # per draw, one rfft for the ladder's first comparison, which also holds
    # the sum over r/N; no length-N transform
    (["mz-check", "--N", "1000,2000", "--draws", "2", "--oversample", "2"],
     [("rfft", 4000)] * 2 + [("rfft", 8000)] * 2),
], ids=["transform-scan", "arc-scan", "mz-check"])
def test_torus_transform_budget(args, want, tmp_path):
    # real coefficients never take a complex transform
    assert _transforms(args, tmp_path) == want


def test_tables_stream_in_blocks(tmp_path, monkeypatch):
    # a block of 7 rows splits every table of the pipeline; the bytes
    # must not depend on the block size
    args = ["roth-pipeline", "--N", "2000"]
    want = {fmt: _run(args + ["--format", fmt], tmp_path / f"{fmt}-default")
            for fmt in ("csv", "json")}
    monkeypatch.setattr(cli, "TABLE_BLOCK_ROWS", 7)
    for fmt, man in want.items():
        got = _run(args + ["--format", fmt], tmp_path / f"{fmt}-7")
        assert got["outputs"] == man["outputs"]


# --- the dispatch the benchmark's tracer wraps ---------------------------------

def test_run_dispatches_through_handlers(tmp_path, monkeypatch):
    parser = cli.build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == set(cli._HANDLERS)
    calls = []

    def handler(cfg, em):
        calls.append(cfg.N)
        return {}, {"replaced": True}

    monkeypatch.setitem(cli._HANDLERS, "behrend", handler)
    man = _run(["behrend", "--N", "8"], tmp_path)
    assert calls == [[8]]
    assert man["results"] == {"replaced": True}
