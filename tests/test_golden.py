"""Golden results: each subcommand at one small fixed config (roth-pipeline
at two sources), in csv and in json, compared with the values recorded in
golden_results.json.

For every case and format the file records the manifest `results` block,
the `outputs` list (path, sha256, bytes) and the `deterministic_hash`.
Results compare integers, booleans, strings and None exactly and floats to
1e-9 relative; outputs and the hash compare exactly, so every byte written
is pinned. A change here is a deliberate, documented event: regenerate with
`PYTHONPATH=src python tests/test_golden.py` and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from primeaps import cli

GOLDEN = Path(__file__).with_name("golden_results.json")
REL_TOL = 1e-9
FORMATS = ("csv", "json")

CASES = {
    "sieve-stats": ["sieve-stats", "--N", "1000", "--Q", "4,16"],
    "measure-build": ["measure-build", "--N", "500", "--Q", "4,16", "--p", "3"],
    "transform-scan": ["transform-scan", "--N", "300", "--Q", "16",
                       "--oversample", "4"],
    "arc-scan": ["arc-scan", "--N", "500", "--Q", "16", "--B-override", "2",
                 "--oversample", "4"],
    "majorant": ["majorant", "--N", "256", "--draws", "3", "--seed", "1"],
    "restriction": ["restriction", "--N", "300", "--draws", "3", "--seed", "1"],
    "mz-check": ["mz-check", "--N", "256,257", "--draws", "3", "--seed", "1"],
    "roth-pipeline": ["roth-pipeline", "--N", "2000", "--source",
                      "random-subset-of-primes", "--seed", "1"],
    "roth-pipeline-behrend": ["roth-pipeline", "--N", "2000", "--source",
                              "behrend-in-primes", "--seed", "1"],
    "behrend": ["behrend", "--N", "100"],
    "varnavides": ["varnavides", "--N", "211", "--alpha", "0.9"],
}


def _record(args: list[str], fmt: str, outdir: Path) -> dict:
    rc = cli.main(args + ["--format", fmt, "--output-dir", str(outdir)])
    if rc != 0:
        raise RuntimeError(f"{args} --format {fmt} exited {rc}")
    man = json.loads((outdir / "manifest.json").read_text())
    return {key: man[key] for key in ("results", "outputs", "deterministic_hash")}


def _compare(got, want, path: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got}"
                    f" != {sorted(want)}"]
        return [e for k in want for e in _compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [e for i, (g, w) in enumerate(zip(got, want))
                for e in _compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and type(got) in (int, float):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != {want!r} (rel tol {REL_TOL})"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_results(name, golden, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    want = golden[name]["csv"]["results"]
    got = _record(CASES[name], "csv", tmp_path)["results"]
    assert _compare(got, want, name) == []


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, fmt, golden, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    want = golden[name][fmt]
    got = _record(CASES[name], fmt, tmp_path)
    assert _compare(got["results"], want["results"], f"{name}/{fmt}") == []
    assert got["outputs"] == want["outputs"]
    assert got["deterministic_hash"] == want["deterministic_hash"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: {fmt: _record(args, fmt, Path(tmp) / name / fmt)
                         for fmt in FORMATS}
                  for name, args in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=2) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
