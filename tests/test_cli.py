import csv
import hashlib
import json
import math
import os
import re
import stat
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from primeaps import cli, fourier, measures, roth, sieve
from primeaps.errors import shown


def _manifest(outdir: Path) -> dict:
    return json.loads((outdir / "manifest.json").read_text())


def _run(args, outdir: Path) -> dict:
    rc = cli.main(args + ["--output-dir", str(outdir)])
    assert rc == 0
    return _manifest(outdir)


# a flag value of 41 digits
_BIG = "12345678901234567890123456789012345678901"


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
    # the manifest's results are the plot data, one (x, series) pair per
    # value, written in sorted order
    man = _run(["behrend", "--N", "100,8"], tmp_path)
    results = man["results"]
    assert all(set(row) == {"size", "fitted_c"} for row in results.values())
    keys = [(x, series) for x, row in results.items() for series in row]
    assert sorted(results) == ["100", "8"]
    assert keys == sorted(keys)


def test_behrend_fitted_c_at_powers_of_3(tmp_path):
    # at N = 3^k the set has 2^k values, so fitted_c = -log(|S|/N)/sqrt(log N)
    # is (1 - log 2/log 3) sqrt(log N): it grows with N
    Ns = [3**k for k in range(2, 17)]
    man = _run(["behrend", "--N", ",".join(map(str, Ns))], tmp_path)
    for k, N in enumerate(Ns, start=2):
        got = man["results"][str(N)]
        assert got["size"] == 2**k
        assert got["fitted_c"] == pytest.approx(
            (1 - math.log(2) / math.log(3)) * math.sqrt(math.log(N)), rel=1e-12)


def test_behrend_n_runs_up_to_its_cap(tmp_path, capsys):
    # roth.BEHREND_MAX_N runs; one more exits 2 naming --N, with no output
    # of the --N before it
    out = tmp_path / "out"
    assert cli.main(["behrend", "--N", "100,100000001", "--output-dir", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "argument --N: must be int in [8, 100000000], got 100000001"
    assert not out.exists()
    man = _run(["behrend", "--N", str(roth.BEHREND_MAX_N)], out)
    assert man["results"][str(roth.BEHREND_MAX_N)]["size"] == 2**17


def test_shown_writes_huge_integers_to_three_digits():
    assert shown(-5) == "-5"
    assert shown(10**30 - 1) == "9" * 30
    assert shown(10**30) == "1.00e+30"
    assert shown(int(_BIG)) == "1.23e+40"
    assert shown(-(10**30 - 1)) == "-" + "9" * 30
    assert shown(-int(_BIG)) == "-1.23e+40"
    # past the 4,300 digits that str() of an int allows
    assert shown(7 * 10**5000) == "7.00e+5000"


def test_varnavides_results(tmp_path):
    man = _run(
        ["varnavides", "--N", "211", "--alpha", "0.9",
         "--constants", '{"C1": 0.1}'],
        tmp_path,
    )
    assert man["results"]["M"] == 2
    assert man["results"]["z_lower"] == pytest.approx(1252.153125)
    assert man["effective"]["C1"] == 0.1
    # the bound and its two ledger entries are in the manifest, no file
    assert man["outputs"] == []
    assert sorted(tmp_path.iterdir()) == [tmp_path / "manifest.json"]
    checks = {c["name"]: c["holds"] for c in man["results"]["checks"]}
    assert checks == {"varnavides_vacuous": man["results"]["vacuous"],
                      "varnavides_clamped": man["results"]["clamped"]}


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
                 measures.MeasureParams(b=1, m=1, N=N), 16, table))]
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
    (entry,) = [c for c in report["checks"] if c["name"] == "contradiction"]
    assert entry["holds"] is False
    assert man["results"]["contradiction"] is False
    assert man["results"]["A_3aps_line_nontrivial"] > 0
    assert man["effective"]["m"] == 2
    # exported rescaled set matches the report size
    with (tmp_path / "set_A.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == report["w_trick"]["size_A"]


def _spectrum_rows(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The r column and the coefficients of a spectrum_a file, csv or json."""
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        assert doc["columns"] == ["r", "re", "im"]
        rows = doc["rows"]
    else:
        with path.open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["r", "re", "im"]
    r = np.array([int(row[0]) for row in rows], dtype=np.int64)
    coeffs = np.array([complex(float(row[1]), float(row[2])) for row in rows])
    return r, coeffs


def test_spectrum_a_half_is_lossless(tmp_path):
    # spectrum_a holds r = 0..N//2 of a~; a is real, so the rest is
    # a~(N - r) = conj a~(r), and the rebuilt spectrum is fourier.spectrum
    # of the exported measure a, bit for bit
    args = ["roth-pipeline", "--N", "2000", "--source",
            "random-subset-of-primes", "--seed", "1"]
    mans = {fmt: _run(args + ["--format", fmt], tmp_path / fmt)
            for fmt in ("csv", "json")}
    a = measures.load_measure_csv(tmp_path / "csv" / "measure_a.csv",
                                  base=measures.BASE_ZN)
    want = fourier.spectrum(a).view(np.uint64)
    for fmt, man in mans.items():
        N = man["effective"]["N"]
        r, half = _spectrum_rows(tmp_path / fmt / f"spectrum_a.{fmt}")
        assert np.array_equal(r, np.arange(N // 2 + 1))
        k = np.arange(N)
        j = np.minimum(k, N - k)
        full = np.where(k <= N // 2, half[j], half[j].conj())
        assert np.array_equal(full.view(np.uint64), want)
        report = json.loads((tmp_path / fmt / "report.json").read_text())
        R = np.flatnonzero(np.abs(full) >= man["config"]["delta"])
        assert R.size == report["spectrum"]["k"]
        assert R[:32].tolist() == report["spectrum"]["R_head"]


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
    # the Bohr set's eps is in (0, 1): 1 itself is refused
    ["roth-pipeline", "--N", "300", "--eps", "1"],
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
    # prime-table limit: no trial division up to W and no number of
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
    (["majorant", "--N", "100", "--seed", "-1"],
     "argument --seed: must be int in [0, inf), got -1"),
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
    # no computation reads a C3 or a C4, so there are none to set
    ('{"C3": 1}', "argument --constants: unknown constant 'C3'"),
    ('{"C1": true}', "argument --constants: constant C1 must be a finite number"),
    ('{"C1": null}', "argument --constants: constant C1 must be a finite number"),
    ('{"C1": NaN}', "argument --constants: constant C1 must be a finite number"),
    ('{"C1": -Infinity}', "argument --constants: constant C1 must be a finite number"),
    ('{"C1": 1e400}', "argument --constants: constant C1 must be a finite number"),
    ('{"C1": 1%s}' % ("0" * 400), "argument --constants: constant C1 must be a finite"),
], ids=["not-an-object", "unparsable", "string-number", "string", "unknown-name",
        "unread-name", "boolean", "null", "nan", "infinity", "overflowing-float",
        "huge-int"])
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
    ["roth-pipeline", "--N", "300", "--W", "19"],
    ["roth-pipeline", "--N", "300", "--W", "22"],
    ["transform-scan", "--N", "100", "--oversample", "1"],
    ["measure-build", "--N", "100", "--b", "2", "--m", "4"],
    ["behrend", "--N", "100,5"],
    # |f^|^p leaves the float range: inf - inf in the grid sum, or every
    # grid power underflowing to 0
    ["majorant", "--N", "20000", "--p", "100", "--draws", "2"],
    ["mz-check", "--N", "1000", "--p", "300", "--draws", "2"],
    ["restriction", "--N", "2000", "--p", "1000", "--draws", "2"],
    # the Q = 2 measure has mass 1 and passes; Q = 5 underflows after it
    ["transform-scan", "--N", "100", "--Q", "2,5", "--p", "40000"],
    # an oversample past fourier.MAX_OVERSAMPLE, once a MemoryError
    ["transform-scan", "--N", "100", "--oversample", "100000000000"],
    ["mz-check", "--N", "100", "--oversample", "3000000000000"],
    # a --Q past the prime-table limit 10^8
    ["measure-build", "--N", "100", "--Q", "100000001"],
    ["transform-scan", "--N", "100", "--Q", "100000001"],
    # a flag of 41 digits past the limit, named without its digits
    ["sieve-stats", "--N", _BIG],
    ["measure-build", "--N", _BIG],
    ["roth-pipeline", "--N", _BIG],
    ["majorant", "--N", _BIG, "--draws", "1"],
    ["measure-build", "--N", "100", "--Q", _BIG],
    ["transform-scan", "--N", "100", "--Q", _BIG],
    ["arc-scan", "--N", "100", "--Q", _BIG],
    ["roth-pipeline", "--N", "300", "--W", _BIG],
    # behrend --N past roth.BEHREND_MAX_N, checked before the first table
    ["behrend", "--N", "100,100000001"],
    ["behrend", "--N", _BIG],
    # a scale past its declared range: mz-check's draws would hold --N
    # floats each, and varnavides' N**3 would leave the float range
    ["mz-check", "--N", _BIG],
    ["varnavides", "--N", str(10**103), "--alpha", "0.5"],
    # a value of 41 digits that the library refuses, or the parser
    ["majorant", "--N", "100", "--oversample", _BIG],
    ["measure-build", "--N", "100", "--m", "-" + _BIG],
    ["measure-build", "--N", "100", "--b", "-" + _BIG],
    ["majorant", "--N", "100", "--seed", "-" + _BIG],
    ["restriction", "--N", f"{_BIG},{_BIG}"],
    # (log N)^A leaves the float range at A = 4/(p-2), about 4e4
    ["measure-build", "--N", "1000", "--p", "2.0001"],
    # (log N)^A / 10 is about 1.7e67 at A = 80: finite, but 2^K is past
    # the prime-table limit
    ["measure-build", "--N", "1000", "--p", "2.05"],
    # the restriction ratio needs p > 2
    ["restriction", "--N", "100", "--p", "2", "--draws", "2"],
    # behrend-in-primes needs 8 primes <= n, and pi(18) = 7
    ["roth-pipeline", "--N", "18", "--source", "behrend-in-primes"],
], ids=" ".join)
def test_handler_rejection_leaves_no_output_dir(args, tmp_path, capsys):
    # these fail in their flag's declared range, inside their handler or in
    # the library: a failed run keeps none of its files, nor the directory
    # its first write made
    out = tmp_path / "out"
    rc = cli.main(args + ["--output-dir", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    # a message speaks of the flags, never of a huge number made from them
    assert not re.search(r"\d{31}", err["message"])
    if args[0] == "measure-build" and "--p" in args:
        assert f"p = {args[args.index('--p') + 1]}" in err["message"]
    if args[0] == "behrend":
        assert err["message"].startswith("argument --N: ")
    assert not out.exists()


def test_behrend_source_needs_eight_primes(tmp_path, capsys):
    # refused before any stage runs, naming n, the source and the primes it
    # needs; pi(19) = 8 runs
    out = tmp_path / "out"
    assert cli.main(["roth-pipeline", "--N", "18", "--source", "behrend-in-primes",
                     "--output-dir", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and "stage" not in err
    assert err["message"] == ("--source behrend-in-primes needs at least 8 "
                              "primes <= n; n = 18 has 7")
    assert not out.exists()
    assert cli.main(["roth-pipeline", "--N", "19", "--source", "behrend-in-primes",
                     "--output-dir", str(out)]) == 0


_LIMIT = " exceeds the prime-table limit 100000000"
_PAST_THE_TABLE = [
    (["measure-build", "--N", "100", "--m", "1000000"],
     "TableRangeError", "--m 1000000 * --N 100 + --b 1 = 100000001" + _LIMIT),
    (["transform-scan", "--N", "100", "--m", "1000000", "--b", "3"],
     "TableRangeError", "--m 1000000 * --N 100 + --b 3 = 100000003" + _LIMIT),
    (["arc-scan", "--N", "100", "--m", "1000000", "--Q", "16"],
     "TableRangeError", "--m 1000000 * --N 100 + --b 1 = 100000001" + _LIMIT),
    # a single flag's value past the limit is refused by its declared range
    (["arc-scan", "--N", "100", "--Q", "16,100000001"],
     "ConfigError", "argument --Q: must be int in [1, 100000000], got 100000001"),
    (["restriction", "--N", "50,100", "--m", "1000000"],
     "TableRangeError", "--m 1000000 * --N 100 + --b 1 = 100000001" + _LIMIT),
    (["sieve-stats", "--N", "100", "--Q", "100000001"],
     "ConfigError", "argument --Q: must be int in [1, 100000000], got 100000001"),
    (["sieve-stats", "--N", "100000001"],
     "ConfigError", "argument --N: must be int in [1, 100000000], got 100000001"),
    (["majorant", "--N", "100000001", "--draws", "1"],
     "ConfigError", "argument --N: must be int in [1, 100000000], got 100000001"),
    (["roth-pipeline", "--N", "30000000"],
     "TableRangeError",
     "4 * --N 30000000 + m + 16 = 120000018 (m = 2 at --W 2)" + _LIMIT),
    # a value of more than 30 digits is written to three
    (["sieve-stats", "--N", _BIG],
     "ConfigError", "argument --N: must be int in [1, 100000000], got 1.23e+40"),
    (["measure-build", "--N", "100", "--m", _BIG],
     "TableRangeError", "--m 1.23e+40 * --N 100 + --b 1 = 1.23e+42" + _LIMIT),
]


@pytest.mark.parametrize("args, kind, message", _PAST_THE_TABLE,
                         ids=[" ".join(args) for args, _, _ in _PAST_THE_TABLE])
def test_measure_table_past_the_limit_names_its_flags(args, kind, message, tmp_path,
                                                      capsys):
    # one table-size rule for every handler: m*N + b, the pipeline's
    # 4n + m + 16, and the ranges of --N and every --Q, refused before the
    # first write
    out = tmp_path / "out"
    assert cli.main(args + ["--output-dir", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["type"]) == ("validation", kind)
    assert err["message"] == message
    assert not out.exists()


@pytest.mark.parametrize("W, m", [("11", 2310), ("19", 9699690), ("22", 9699690)])
def test_w_modulus_past_2n_names_w_m_and_n(W, m, tmp_path, capsys):
    # m > 2n leaves no prime in (2n/m, 4n/m] for the W-trick's N: a flag
    # combination, refused before any stage runs
    out = tmp_path / "out"
    assert cli.main(["roth-pipeline", "--N", "300", "--W", W,
                     "--output-dir", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and "stage" not in err
    assert err["message"].startswith(f"W = {W}: m = {m}, ")
    assert "n = 300" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("n", ["1", "2"])
def test_pipeline_n_below_3_names_the_flag(n, tmp_path, capsys):
    # 2 is the one prime below 3 and divides every W-trick modulus: refused
    # before any stage runs, at any --W
    out = tmp_path / "out"
    for W in ("1", "2", "3"):
        assert cli.main(["roth-pipeline", "--N", n, "--W", W,
                         "--output-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and "stage" not in err
        assert err["message"] == f"argument --N: must be int in [3, inf), got {n}"
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


@pytest.mark.parametrize("n, W", [("5", "3"), ("105", "7")])
def test_empty_w_trick_image_exits_3_at_w_trick(n, W, tmp_path, capsys):
    # N = 2, and no prime of the chosen class maps into [1, floor(N/2)]:
    # the run stops at the w-trick stage, before a measure is built, and
    # the set_A0 table it had handed to the writer is gone
    out = tmp_path / "nested" / "out"
    rc = cli.main(["roth-pipeline", "--N", n, "--W", W,
                   "--output-dir", str(out)])
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert (err["error"], err["stage"]) == ("compute", "w-trick")
    assert err["type"] == "StageError"
    assert "A is empty" in err["message"]
    assert list(tmp_path.iterdir()) == []


def test_unwritable_output_exit_4(tmp_path, capsys):
    target = tmp_path / "blocker"
    target.write_text("a file, not a directory\n")
    rc = cli.main(["behrend", "--N", "8", "--output-dir", str(target)])
    assert rc == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "io"


# --- roth-pipeline's writer thread ---------------------------------------------

_PIPELINE = ["roth-pipeline", "--N", "2000", "--source", "random-subset-of-primes",
             "--seed", "1"]


def test_pipeline_tables_are_written_while_later_stages_compute(tmp_path,
                                                                 monkeypatch):
    # the bounds stage waits for granular_a1's staged file, which the
    # granularize stage kept: it appears only if a thread other than the
    # compute writes it
    from primeaps import roth

    out = tmp_path / "out"
    writers = []
    table = cli.Emitter.table
    original = roth.final_inequality

    def recorded(self, stem, *args):
        writers.append((stem, threading.current_thread().name))
        return table(self, stem, *args)

    def waiting(*args, **kwargs):
        # granular_a1 is staged under a temporary name until the run ends
        deadline = time.monotonic() + 30
        while not any(out.glob("granular_a1.csv.*.tmp")):
            assert time.monotonic() < deadline, "no table was written meanwhile"
            time.sleep(0.01)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli.Emitter, "table", recorded)
    monkeypatch.setattr(roth, "final_inequality", waiting)
    before = threading.active_count()
    man = _run(_PIPELINE, out)
    assert threading.active_count() == before
    # every table on the one writer, in the order the stages keep them;
    # report.json last, once the writer has drained
    stems = ["set_A0", "set_A", "measure_mu", "measure_a", "spectrum_a",
             "bohr_members", "granular_a1"]
    assert writers == [(stem, "primeaps-writer") for stem in stems]
    assert [o["path"] for o in man["outputs"]] == [
        *(f"{stem}.csv" for stem in stems), "report.json"]


def test_pipeline_stage_failure_after_writes_leaves_nothing(tmp_path, capsys,
                                                            monkeypatch):
    # by the bounds stage every table has been handed to the writer; the
    # run still exits 3 with the stage's tag, and once the writer has
    # drained its outputs and the directory it made are gone
    from primeaps import roth

    kept = []
    original = roth.density_experiment

    def counted(*args, keep, **kwargs):
        def counting(name, value):
            kept.append(name)
            keep(name, value)
        return original(*args, keep=counting, **kwargs)

    def fail(*args, **kwargs):
        raise RuntimeError("final_inequality failed")

    monkeypatch.setattr(roth, "density_experiment", counted)
    monkeypatch.setattr(roth, "final_inequality", fail)
    out = tmp_path / "nested" / "out"
    before = threading.active_count()
    rc = cli.main([*_PIPELINE, "--output-dir", str(out)])
    assert threading.active_count() == before
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["stage"]) == ("compute", "bounds")
    assert err["message"] == "[bounds] final_inequality failed"
    assert len(kept) == 7
    assert list(tmp_path.iterdir()) == []


def test_pipeline_writer_failure_exits_4_and_leaves_nothing(tmp_path, capsys):
    # the run cannot put spectrum_a.csv in place of a directory when it
    # renames its staged outputs: an I/O failure of the run, not a stage's,
    # and the tables renamed before it are removed; the directory the run
    # did not make stays
    (tmp_path / "spectrum_a.csv").mkdir()
    before = threading.active_count()
    rc = cli.main([*_PIPELINE, "--output-dir", str(tmp_path)])
    assert threading.active_count() == before
    assert rc == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "io" and "stage" not in err
    assert err["type"] == "IsADirectoryError"
    assert [p.name for p in tmp_path.iterdir()] == ["spectrum_a.csv"]
    assert list((tmp_path / "spectrum_a.csv").iterdir()) == []


def test_failed_run_keeps_an_existing_directory(tmp_path, capsys, monkeypatch):
    # a failure removes only what the run wrote
    from primeaps import roth

    def fail(*args, **kwargs):
        raise RuntimeError("final_inequality failed")

    monkeypatch.setattr(roth, "final_inequality", fail)
    (tmp_path / "notes.txt").write_text("kept\n")
    assert cli.main([*_PIPELINE, "--output-dir", str(tmp_path)]) == 3
    assert json.loads(capsys.readouterr().err)["stage"] == "bounds"
    assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]


def _tree(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in directory.iterdir()}


def test_failed_rerun_leaves_the_earlier_run_as_it_was(tmp_path, capsys,
                                                       monkeypatch):
    # every output is staged under a temporary name and renamed only once
    # the handler has returned, so a later run that fails in its last stage,
    # after all its tables were written, leaves the earlier run's files,
    # manifest.json included, byte for byte
    from primeaps import roth

    man = _run(["roth-pipeline", "--N", "2000"], tmp_path)
    before = _tree(tmp_path)
    assert set(before) == {o["path"] for o in man["outputs"]} | {"manifest.json"}

    def fail(*args, **kwargs):
        raise RuntimeError("final_inequality failed")

    monkeypatch.setattr(roth, "final_inequality", fail)
    assert cli.main(["roth-pipeline", "--N", "2000",
                     "--output-dir", str(tmp_path)]) == 3
    assert json.loads(capsys.readouterr().err)["stage"] == "bounds"
    assert _tree(tmp_path) == before
    assert not list(tmp_path.glob("*.tmp"))


def test_manifest_is_the_same_wherever_it_lands(tmp_path):
    # the manifest records no path, so relocating the outputs, even to a
    # path of another length, changes no byte of it but its timings
    texts = []
    for outdir in (tmp_path / "a", tmp_path / "somewhere" / "else"):
        man = _run(["measure-build", "--N", "100", "--Q", "4"], outdir)
        assert man["timings"]["wall_seconds"] >= 0.0
        data = (outdir / "manifest.json").read_bytes()
        assert str(tmp_path).encode() not in data
        data, timings = re.subn(
            rb'\n  "timings": \{\n(    [^\n]*\n)*  \},', b"", data)
        assert timings == 1
        texts.append(data)
    assert texts[0] == texts[1]


def test_manifest_timings_are_outside_the_hash(tmp_path):
    man = _run(["measure-build", "--N", "100", "--Q", "4"], tmp_path)
    timings = man["timings"]
    assert set(timings) == {"wall_seconds", "minor_faults", "peak_rss_mb"}
    assert isinstance(timings["minor_faults"], int)
    assert timings["minor_faults"] >= 0
    # the process holds at least numpy, so its high-water mark is no less
    # than a megabyte
    assert timings["peak_rss_mb"] >= 1.0
    # the hash is that of the manifest without its timings, so no page
    # fault count or RSS can move it
    rest = {k: v for k, v in man.items()
            if k not in ("timings", "deterministic_hash")}
    canon = json.dumps(rest, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canon.encode()).hexdigest() == man["deterministic_hash"]


# a small run of each subcommand
SMALL_RUNS = {
    "sieve-stats": ["--N", "10"],
    "measure-build": ["--N", "10"],
    "transform-scan": ["--N", "10"],
    "arc-scan": ["--N", "10", "--Q", "4"],
    "majorant": ["--N", "16", "--draws", "1"],
    "restriction": ["--N", "16", "--draws", "1"],
    "mz-check": ["--N", "16", "--draws", "1"],
    "roth-pipeline": ["--N", "300"],
    "behrend": ["--N", "8"],
    "varnavides": ["--N", "211", "--alpha", "0.9"],
}


@pytest.mark.parametrize("name", sorted(cli._HANDLERS))
def test_manifest_config_is_the_subcommands_flags(name, flag_dests, tmp_path):
    man = _run([name, *SMALL_RUNS[name]], tmp_path)
    assert set(man["config"]) == {"subcommand"} | flag_dests[name] - {"output_dir"}
    assert man["config"]["subcommand"] == name


# --- declared flag ranges ------------------------------------------------------

def _declared_ranges() -> list:
    """(subcommand, flag, range) of every flag whose argparse type is a
    cli._Range, a list's included, merged from cli._OPTIONS and
    cli._COMMANDS as build_parser merges them."""
    found = []
    for name, (_, options) in cli._COMMANDS.items():
        for flag, spec in (options | cli._COMMON).items():
            extra = spec if isinstance(spec, dict) else {}
            kind = (cli._OPTIONS[flag] | extra).get("type")
            if isinstance(kind, cli._Range):
                found.append((name, flag, kind))
    return found


_RANGES = _declared_ranges()


def _edges(rng) -> tuple[list, list]:
    """The values a range takes at each finite end (the end if kept, else
    the next value inside), and the texts of values it refuses: the value
    just past each finite end, a 41-digit value past one, and nan and
    +-inf for a float."""
    def step(value, toward):
        if rng.kind is int:
            return value + toward
        return math.nextafter(value, toward * math.inf)

    inside, outside = [], []
    for end, kept, away in ((rng.lo, rng.brackets[0] == "[", -1),
                            (rng.hi, rng.brackets[1] == "]", 1)):
        if abs(end) < math.inf:
            inside.append(end if kept else step(end, -away))
            outside.append(repr(step(end, away) if kept else end))
            if abs(end) < int(_BIG):
                outside.append(_BIG if away > 0 else "-" + _BIG)
    if rng.kind is float:
        outside += ["nan", "inf", "-inf"]
    return inside, outside


@pytest.mark.parametrize("name, flag, rng", _RANGES,
                         ids=[f"{name} {flag}" for name, flag, _ in _RANGES])
def test_every_declared_range_holds_at_its_edges(name, flag, rng, tmp_path, capsys):
    # each finite end of a flag's range is taken, and every value past one
    # exits 2 at the parser, naming the flag and no huge number, with no
    # output directory
    inside, outside = _edges(rng)
    listed = isinstance(rng, cli._RangeList)
    for value in inside:
        assert rng(repr(value)) == ([value] if listed else value)
    assert outside
    out = tmp_path / "out"
    for text in outside:
        assert cli.main([name, *SMALL_RUNS[name], flag, text,
                         "--output-dir", str(out)]) == 2, text
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert (payload["error"], payload["type"]) == ("validation", "ConfigError")
        assert payload["message"].startswith(f"argument {flag}: "), text
        assert not re.search(r"\d{31}", payload["message"]), text
        assert not out.exists()


@pytest.mark.parametrize("argv, cut", [
    # int() refuses more than 4,300 digits, float() a text with a letter
    (["sieve-stats", "--N", "1" * 5000], "1" * 5000),
    (["arc-scan", "--N", "10", "--Q", "4," + "7" * 5000], "7" * 5000),
    (["roth-pipeline", "--N", "300", "--delta", "2" * 5000 + "x"], "2" * 5000 + "x"),
], ids=["sieve-stats --N", "arc-scan --Q", "roth-pipeline --delta"])
def test_a_malformed_value_is_echoed_cut(argv, cut, tmp_path, capsys):
    # the message keeps 30 characters of a text that is not a number of
    # the flag's kind, and its length
    out = tmp_path / "out"
    assert cli.main([*argv, "--output-dir", str(out)]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.endswith(f", got {cut[:30]!r}... ({len(cut)} characters)")
    assert message.startswith(f"argument {argv[-2]}: ")
    assert not re.search(r"\d{31}", message)
    assert not out.exists()


def test_readme_lists_every_declared_range():
    # the README's table of ranges is the declarations, row for row
    cells = {}
    for name, flag, rng in _RANGES:
        kind = rng.kind.__name__
        if isinstance(rng, cli._RangeList):
            kind = f"list of {kind}"
        cells.setdefault(name, []).append(f"`{flag}` {kind} in {rng}")
    table = "\n".join(["| subcommand | declared ranges |", "|---|---|",
                       *(f"| `{name}` | {'; '.join(row)} |" for name, row in cells.items())])
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert table in readme, table


def _output_pattern(path: str) -> str:
    """An output's name with each --Q or --N value in it written <Q> or
    <N>."""
    return re.sub(r"_([QN])\d+", r"_\1<\1>", path)


def test_readme_lists_every_output(tmp_path):
    # the README's table of output files is what the golden configs write,
    # row for row; under --format json each .csv table is a .json one
    import test_golden

    rows = {}
    for case, args in test_golden.CASES.items():
        names = {fmt: list(dict.fromkeys(
            _output_pattern(o["path"])
            for o in _run(args + ["--format", fmt], tmp_path / case / fmt)["outputs"]))
            for fmt in ("csv", "json")}
        assert names["json"] == [n.replace(".csv", ".json") for n in names["csv"]], case
        assert rows.setdefault(args[0], names["csv"]) == names["csv"], case
    table = "\n".join(["| subcommand | files written (`--format csv`) |", "|---|---|",
                       *(f"| `{name}` | {', '.join(f'`{n}`' for n in row)} |"
                         for name, row in rows.items())])
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert table in readme, table


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


@pytest.mark.parametrize("name", ["measure-build", "transform-scan", "arc-scan"])
def test_rough_q_beyond_the_measure_range(name, tmp_path):
    # the table covers every --Q, past m*N + b too
    man = _run([name, "--N", "100", "--Q", "1000"], tmp_path)
    assert man["effective"]["table_limit"] >= 1000
    stem = {"measure-build": "measure_rough_Q1000",
            "transform-scan": "transform_rough_Q1000",
            "arc-scan": "arc_scan_Q1000"}[name]
    assert f"{stem}.csv" in {o["path"] for o in man["outputs"]}


def test_arc_scan_builds_lambda_once(tmp_path, monkeypatch):
    # one lambda serves every --Q; each cutoff builds its own rough measure
    built = []
    for name in ("lambda_measure", "lambda_q_measure"):
        def counted(*args, name=name, original=getattr(measures, name)):
            built.append(name)
            return original(*args)

        monkeypatch.setattr(measures, name, counted)
    _run(["arc-scan", "--N", "300", "--Q", "4,16,64"], tmp_path)
    assert built == ["lambda_measure"] + ["lambda_q_measure"] * 3


@pytest.mark.parametrize("p", ["2", "1.5"])
def test_transform_scan_takes_any_p_the_ladder_takes(p, tmp_path):
    man = _run(["transform-scan", "--N", "300", "--p", p], tmp_path)
    got = man["results"]["lambda"]
    if p == "2":
        # p = 2 is the Parseval norm the scan reports beside it
        assert got["lp_norm"] == pytest.approx(got["l2_norm"], rel=1e-12, abs=0)
    else:
        assert got["lp_norm"] > 0


@pytest.mark.parametrize("extra", [["--p", "2.0000000001"], ["--B-override", "1e308"]],
                         ids=" ".join)
def test_arc_cutoff_past_the_float_range_is_inf(extra, tmp_path):
    # (log N)^B overflows: every theta is major, with Qmax = 1
    man = _run(["arc-scan", "--N", "100", "--Q", "5", *extra], tmp_path)
    eff = man["effective"]
    assert (eff["q_cutoff"], eff["Qmax"], eff["degenerate"]) == ("inf", 1, True)
    with (tmp_path / "arc_scan_Q5.csv").open() as fh:
        assert {r["arc_kind"] for r in csv.DictReader(fh)} == {"major"}


@pytest.mark.parametrize("args, key, want", [
    # alpha^-2 overflows: M = inf and the bound is vacuous
    (["varnavides", "--N", "3", "--alpha", "1e-300"], "M", "inf"),
    # exp(C1 alpha^-2 L) underflows: M = 1
    (["varnavides", "--N", "300", "--alpha", "0.5", "--constants",
      '{"C1": -1e308}'], "M", 1),
    # delta^-2.5 overflows: the left side is inf
    (["roth-pipeline", "--N", "300", "--delta", "1e-308"], "lhs", "inf"),
    # exp(-C2 alpha^-2 L) overflows: the right side is inf
    (["roth-pipeline", "--N", "300", "--constants", '{"C2": -1000}'], "rhs", "inf"),
], ids=["tiny-alpha", "C1-underflow", "tiny-delta", "C2-overflow"])
def test_closing_bounds_past_the_float_range(args, key, want, tmp_path):
    man = _run(args, tmp_path)
    if args[0] == "varnavides":
        got = man["results"]
    else:
        got = json.loads((tmp_path / "report.json").read_text())["bounds"]
    assert got[key] == want


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


def _traced_peak(call) -> int:
    """The most bytes allocated at once while call() runs, as tracemalloc
    sees them (numpy reports its arrays to it)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dyadic_split_holds_one_piece_at_a_time(tmp_path, monkeypatch):
    # at N = 5*10^4, --p 3 splits lambda into K + 1 = 12 pieces and --p 6
    # into 2; the split's peak, the handler's use of each piece included,
    # may differ by less than one piece of N floats
    N = 50_000
    original = measures.dyadic_pieces
    peaks = {}

    def traced(params, lam, p, table, take):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        K = original(params, lam, p, table, take)
        peaks[K] = tracemalloc.get_traced_memory()[1] - base
        return K

    monkeypatch.setattr(measures, "dyadic_pieces", traced)
    for p in ("3", "6"):
        _traced_peak(lambda: _run(["measure-build", "--N", str(N), "--p", p],
                                  tmp_path / p))
    assert sorted(peaks) == [1, 11]
    assert peaks[11] < peaks[1] + 8 * N


def test_measure_build_split_holds_no_rough_measure(tmp_path, monkeypatch):
    # no rough measure outlives its table and total, so --Q 16,256 raises
    # the split's peak by less than half an array of N floats, where a kept
    # one adds a whole array. Inside the split a level holds keep (N bytes),
    # the rough measure of the level before, whose buffer takes psi_j, and
    # its own: it rises by less than 2.5 arrays of N floats above its entry,
    # where a fresh psi_j makes three
    N = 50_000
    original = measures.dyadic_pieces
    split = []  # (peak, rise) of each call, as tracemalloc sees them

    def traced(params, lam, p, table, take):
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        K = original(params, lam, p, table, take)
        peak = tracemalloc.get_traced_memory()[1]
        split.append((peak, peak - entry))
        return K

    monkeypatch.setattr(measures, "dyadic_pieces", traced)
    args = ["measure-build", "--N", str(N), "--p", "3"]
    _run(args, tmp_path / "first")  # what a process builds once is built
    for name, flags in (("bare", []), ("rough", ["--Q", "16,256"])):
        _traced_peak(lambda: _run(args + flags, tmp_path / name))
    (bare, bare_rise), (rough, rough_rise) = split[1:]
    assert rough < bare + 4 * N, (bare, rough, 8 * N)
    assert max(bare_rise, rough_rise) < 2.5 * 8 * N, (bare_rise, rough_rise, 8 * N)


def test_transform_scan_frees_its_grid_before_the_ladder(tmp_path):
    # the run's peak is the L^p ladder's own (at oversample 8, one grid of
    # 16N points) plus less than 8N floats; the grid's rows hold about 4N
    # complex values, and their magnitudes 4N floats
    N = 20_000
    args = ["transform-scan", "--N", str(N), "--oversample", "8", "--p", "2.5"]
    _run(args, tmp_path / "first")  # what a process builds once is built
    lam = measures.lambda_measure(measures.MeasureParams(b=1, m=1, N=N),
                                  sieve.build_factor_table(N + 1))
    grid = fourier.TorusGrid(oversample=8)
    ladder = _traced_peak(lambda: fourier.lp_norm_torus(lam, 2.5, grid))
    run = _traced_peak(lambda: _run(args, tmp_path / "traced"))
    assert run < ladder + 8 * 8 * N, (run / (8 * N), ladder / (8 * N))


# the traced peak of transform-scan at N = 2 * 10^4 and --oversample 8,
# per point of its grid of M = 8N points: 26.2 bytes with the grid taken
# as the rows k1 <= L1/2 of the real four-step pass on the support's rows
# and the ladder's powers in the pass's own buffer; 42.2 when the grid was
# one full-length rfft and a full M-point complex copy, and the ladder
# scattered a full pad and took its powers in a fresh array. The bound
# sits about halfway.
TRANSFORM_SCAN_PEAK_BYTES_PER_GRID_POINT = 34


def test_transform_scan_peak_bytes_per_grid_point(tmp_path):
    N = 20_000
    args = ["transform-scan", "--N", str(N), "--oversample", "8", "--p", "2.5"]
    _run(args, tmp_path / "first")  # what a process builds once is built
    peak = _traced_peak(lambda: _run(args, tmp_path / "traced"))
    assert peak / (8 * N) <= TRANSFORM_SCAN_PEAK_BYTES_PER_GRID_POINT, (
        f"{peak / (8 * N):.1f} bytes per grid point")


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


@pytest.mark.parametrize("args, want, grids", [
    # per measure: the grid of 16,000 points by the real four-step passes
    # on its (125, 128) view, an rfft down axis 0 and an fft along axis 1
    # of its 63 rows k1 <= 62, and one grid of twice its length for the
    # first comparison of the L^p ladder (p = 2.5, which agrees there):
    # the passes on its (640, 50) view, of its 321 rows k1 <= 320
    (["transform-scan", "--N", "2000", "--Q", "16", "--oversample", "8"],
     [("rfft", 125, 128), ("fft", 128, 63), ("rfft", 640, 50), ("fft", 50, 321)],
     [32000]),
    # the passes of one grid of lambda - lambda_Q per Q, on its (80, 100)
    # view
    (["arc-scan", "--N", "2000", "--Q", "16,256", "--B-override", "2",
      "--oversample", "4"],
     [("rfft", 80, 100), ("fft", 100, 41)] * 2, []),
    # per draw, the two passes of the ladder's first grid of 4N points,
    # which also holds the sum over r/N; no length-N transform
    (["mz-check", "--N", "1000,2000", "--draws", "2", "--oversample", "2"],
     [("rfft", 100, 40), ("fft", 40, 51)] * 2
     + [("rfft", 160, 50), ("fft", 50, 81)] * 2, [4000] * 2 + [8000] * 2),
], ids=["transform-scan", "arc-scan", "mz-check"])
def test_torus_transform_budget(args, want, grids, tmp_path, transforms):
    # real coefficients never take a complex transform
    _run(args, tmp_path)
    assert transforms == want
    # each ladder grid is two passes whose lengths multiply to its points,
    # and neither transforms an axis of the grid's full length
    ladder = transforms[len(transforms) - 2 * len(grids):]
    pairs = list(zip(ladder[::2], ladder[1::2]))
    assert [a[1] * b[1] for a, b in pairs] == grids
    assert all(a[1] < L and b[1] < L for L, (a, b) in zip(grids, pairs))


def test_tables_stream_in_blocks(tmp_path, monkeypatch):
    # a block of 7 rows splits every table of the pipeline; the bytes
    # must not depend on the block size, nor on how often the interpreter
    # switches between the compute and the writer thread
    args = ["roth-pipeline", "--N", "2000"]
    want = {fmt: _run(args + ["--format", fmt], tmp_path / f"{fmt}-default")
            for fmt in ("csv", "json")}
    monkeypatch.setattr(cli, "TABLE_BLOCK_ROWS", 7)
    interval = sys.getswitchinterval()
    for fmt, man in want.items():
        got = _run(args + ["--format", fmt], tmp_path / f"{fmt}-7")
        assert got["outputs"] == man["outputs"]
        sys.setswitchinterval(1e-6)
        try:
            got = _run(args + ["--format", fmt], tmp_path / f"{fmt}-7-switching")
        finally:
            sys.setswitchinterval(interval)
        assert got["outputs"] == man["outputs"]


# --- the dispatch the benchmark's tracer wraps ---------------------------------

def test_run_dispatches_through_handlers(flag_dests, tmp_path, monkeypatch):
    assert set(flag_dests) == set(cli._HANDLERS)
    calls = []

    def handler(cfg, em):
        calls.append(cfg.N)
        return {}, {"replaced": True}

    monkeypatch.setitem(cli._HANDLERS, "behrend", handler)
    man = _run(["behrend", "--N", "8"], tmp_path)
    assert calls == [[8]]
    assert man["results"] == {"replaced": True}
