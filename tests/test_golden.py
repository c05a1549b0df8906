"""Golden results: each subcommand at one small fixed config (roth-pipeline
at two sources), in csv and in json, compared with the values recorded in
golden_results.json.

For every case and format the file records the manifest `results` block,
the `outputs` list (path, sha256, bytes) and the `deterministic_hash`.
Everything compares exactly, floats included: the hash already pins the
results byte for byte, and a tolerance would only let a stale recorded
value stand next to a hash that disagrees with it. So every byte written
is pinned. A change here is a deliberate, documented event: regenerate with
`PYTHONPATH=src python tests/test_golden.py`, which prints each entry's old
and new deterministic_hash and what moved: the paths of the outputs whose
sha256 or size changed, and the `results` keys whose value changed; and
say why in CHANGES.md. `PYTHONPATH=src python tests/test_golden.py --check`
prints the same lines, writes nothing, and exits 1 if any hash, output or
result moved.
"""

from __future__ import annotations

import json
import math
import operator
import sys
import tempfile
from pathlib import Path

import pytest

from primeaps import cli, roth

GOLDEN = Path(__file__).with_name("golden_results.json")
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
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def _moved(got: dict, was: dict) -> list[str]:
    """What moved from the recorded entry `was` to `got`: the paths of the
    outputs whose sha256 or size changed, or that came or went ("order" if
    only their order changed), and the `results` keys whose value changed."""
    moved = []
    old = {o["path"]: o for o in was.get("outputs", [])}
    new = {o["path"]: o for o in got["outputs"]}
    paths = sorted(p for p in old.keys() | new.keys() if old.get(p) != new.get(p))
    if paths or got["outputs"] != was.get("outputs"):
        moved.append(f"outputs moved ({', '.join(paths) or 'order'})")
    old, new = was.get("results", {}), got["results"]
    keys = sorted(k for k in old.keys() | new.keys()
                  if k not in old or k not in new or _compare(new[k], old[k], k))
    if keys:
        moved.append(f"results moved ({', '.join(keys)})")
    return moved


def test_moved_names_paths_and_keys():
    was = {"outputs": [{"path": "a.csv", "sha256": "1", "bytes": 3},
                       {"path": "b.csv", "sha256": "2", "bytes": 4}],
           "results": {"x": 1, "y": {"z": 2.0}, "gone": 0}}
    assert _moved(was, was) == []
    got = {"outputs": [{"path": "a.csv", "sha256": "1", "bytes": 3},
                       {"path": "b.csv", "sha256": "9", "bytes": 4},
                       {"path": "c.csv", "sha256": "3", "bytes": 1}],
           "results": {"x": 1, "y": {"z": 2.5}, "new": 0}}
    assert _moved(got, was) == ["outputs moved (b.csv, c.csv)",
                                "results moved (gone, new, y)"]
    swapped = {"outputs": was["outputs"][::-1], "results": was["results"]}
    assert _moved(swapped, was) == ["outputs moved (order)"]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_results(name, golden, tmp_path):
    want = golden[name]["csv"]["results"]
    got = _record(CASES[name], "csv", tmp_path)["results"]
    assert _compare(got, want, name) == []


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, fmt, golden, tmp_path):
    want = golden[name][fmt]
    got = _record(CASES[name], fmt, tmp_path)
    assert _compare(got["results"], want["results"], f"{name}/{fmt}") == []
    assert got["outputs"] == want["outputs"]
    assert got["deterministic_hash"] == want["deterministic_hash"]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", ["measure-build", "roth-pipeline",
                                  "roth-pipeline-behrend", "transform-scan"])
def test_program_tables_stay_on_the_float_kernel(name, fmt, tmp_path, monkeypatch):
    # the float text kernel writes the program's own values: at most 1% of
    # those it is given go on to float.__repr__
    formatted, left = [], []
    cells, fallback = cli._repr_cells, cli._repr_fallback

    def counted_cells(bits):
        formatted.append(bits.size)
        return cells(bits)

    def counted_fallback(bits):
        left.append(bits.size)
        return fallback(bits)

    monkeypatch.setattr(cli, "_repr_cells", counted_cells)
    monkeypatch.setattr(cli, "_repr_fallback", counted_fallback)
    _record(CASES[name], fmt, tmp_path)
    assert sum(formatted) > 0
    assert sum(left) <= 0.01 * sum(formatted)


# each ledger entry of the golden configs: its stage, its relation, whether
# a side is read off a transform, and its verdict at each config, which is
# the boolean the report (or the varnavides output) wrote before the ledger
_ENTRIES = {
    "three_ap_free": ("source", "==", False),
    "m_le_logN": ("w-trick", "<=", False),
    "size_ok": ("bohr", ">=", False),
    "setlike": ("granularize", "<=", True),
    "step1_ok": ("granularize", "<=", True),
    "step2_ok": ("granularize", "<=", True),
    "gate_ok": ("granularize", ">=", False),
    "varnavides_vacuous": ("bounds", ">=", False),
    "varnavides_clamped": ("bounds", "<", False),
    "contradiction": ("bounds", "<", False),
    "bohr_linear_ok": ("bounds", "<=", True),
    "bohr_cubic_ok": ("bounds", "<=", True),
}
_PIPELINE_VERDICTS = dict.fromkeys(_ENTRIES, True) | {
    "varnavides_clamped": False, "contradiction": False}
_VERDICTS = {
    "roth-pipeline": _PIPELINE_VERDICTS | {"three_ap_free": False, "gate_ok": False},
    "roth-pipeline-behrend": _PIPELINE_VERDICTS,
    "varnavides": {"varnavides_vacuous": False, "varnavides_clamped": True},
}
_RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, "==": operator.eq}


def _side(value):
    """A side as the ledger's JSON writes it: a non-finite float as text."""
    return float(value) if isinstance(value, str) else value


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(_VERDICTS))
def test_check_ledger_keeps_every_verdict(name, fmt, tmp_path):
    results = _record(CASES[name], fmt, tmp_path)["results"]
    doc = (results if name == "varnavides"
           else json.loads((tmp_path / "report.json").read_text()))
    entries = {c["name"]: c for c in doc["checks"]}
    assert list(entries) == list(_VERDICTS[name])
    for key, c in entries.items():
        stage, relation, transform = _ENTRIES[key]
        lhs, rhs = _side(c["lhs"]), _side(c["rhs"])
        assert (c["stage"], c["relation"], c["holds"]) == (
            stage, relation, _VERDICTS[name][key]), key
        # one slack rule: CHECK_RTOL of the larger side of a transformed
        # pair, none for exact sides
        assert c["slack"] == (roth.CHECK_RTOL * max(abs(lhs), abs(rhs))
                              if transform else 0.0), key
        assert c["holds"] is (_RELATIONS[relation](lhs, rhs)
                              or abs(lhs - rhs) < c["slack"]), key
        if lhs > 0 and rhs > 0:
            up = math.log10(lhs) - math.log10(rhs)
            room = {"<=": -up, "<": -up, ">=": up, "==": -abs(up)}[relation]
            assert _side(c["margin"]) == pytest.approx(room, rel=1e-12, abs=1e-12), key
        else:
            assert c["margin"] is None, key
    if name == "roth-pipeline-behrend":
        # exact ties hold with no slack
        assert [(entries[k]["lhs"], entries[k]["rhs"], entries[k]["slack"])
                for k in ("gate_ok", "size_ok")] == [(1.0, 1.0, 0.0), (2003, 2003.0, 0.0)]
    if name == "roth-pipeline":
        # the closing comparison misses by about 17 orders of magnitude
        assert round(entries["contradiction"]["margin"]) == -17


if __name__ == "__main__":
    check = sys.argv[1:] == ["--check"]
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: {fmt: _record(args, fmt, Path(tmp) / name / fmt)
                         for fmt in FORMATS}
                  for name, args in sorted(CASES.items())}
    # one line per entry: the hash it had and has, and which output files
    # and results values moved, which an announced hash change must not
    changed = False
    for name, entries in golden.items():
        for fmt, got in entries.items():
            was = recorded.get(name, {}).get(fmt, {})
            moved = _moved(got, was)
            changed |= bool(moved) or got["deterministic_hash"] != was.get(
                "deterministic_hash")
            sys.stdout.write(f"{name}/{fmt}: {was.get('deterministic_hash')} -> "
                             f"{got['deterministic_hash']}, "
                             f"{', '.join(moved) or 'no output or result moved'}\n")
    if check:
        sys.exit(1 if changed or set(recorded) != set(golden) else 0)
    GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=2) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
