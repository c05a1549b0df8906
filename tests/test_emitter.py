"""Emitter.table against a row-wise oracle.

The oracle is the per-cell writer the column-wise, block-streamed writer
replaced: each row's cells through `_fmt` and csv.writer, or through
`_clean` and json.dumps(sort_keys=True, indent=2). Both are copied here so
that the oracle cannot move with the program. Every case must give the
same bytes in both formats, and the manifest entry must describe the file
on disk.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeaps import cli

BLOCK = cli.TABLE_BLOCK_ROWS


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def _clean(obj):
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


def _oracle(fmt: str, header: list[str], columns) -> bytes:
    rows = list(zip(*columns))
    if fmt == "json":
        payload = {"columns": header, "rows": [[_clean(v) for v in r] for r in rows]}
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue().encode("utf-8")


def _emit(tmp_path, fmt: str, header: list[str], columns) -> bytes:
    em = cli.Emitter(tmp_path, fmt)
    em.table("t", header, columns)
    (out,) = em.outputs
    data = (tmp_path / out["path"]).read_bytes()
    assert out["path"] == f"t.{fmt}"
    assert out["bytes"] == len(data)
    assert out["sha256"] == hashlib.sha256(data).hexdigest()
    return data


def _assert_same(tmp_path, fmt, header, columns):
    want = _oracle(fmt, header, columns)
    assert _emit(tmp_path, fmt, header, columns) == want


INF, NAN = float("inf"), float("nan")

CASES = {
    "empty": (["a", "b"], [[], []]),
    "empty-arrays": (["index", "weight"],
                     [np.array([], dtype=np.int64), np.array([], dtype=np.float64)]),
    "no-columns": ([], []),
    "one-empty-string": (["value"], [[""]]),
    "empty-strings": (["value"], [["", "", ""]]),
    "quoting": (["s", "n"], [["a,b", 'say "hi"', "two\nlines", "cr\r", "plain"],
                             [1, 2, 3, 4, 5]]),
    "header-quoting": (['x,"y"', "z\n"], [[1], [2.5]]),
    "non-finite": (["x"], [[1.0, INF, -INF, NAN, -0.0]]),
    "non-finite-array": (["x", "y"], [np.array([INF, 0.5, NAN]),
                                      np.array([1, 2, 3], dtype=np.int64)]),
    "numpy-scalars": (["v"], [[np.int64(3), np.float64(0.5), np.float32(0.1),
                               np.int8(-7), np.float64(INF), np.float64(NAN)]]),
    "bools-none": (["v", "w"], [[True, False, None, np.bool_(True)],
                                [1, None, 2.5, np.bool_(False)]]),
    "bool-array": (["v"], [np.array([True, False])]),
    "mixed-blank-int": (["kind", "a", "q"], [["major", "minor", "minor"],
                                             [1, "", ""], [3, "", ""]]),
    "int-and-float": (["n", "x"], [[1, 2, 3], [0.5, 2.0, 1e-300]]),
    "tuples": (["x", "series", "value"],
               [(4, 16, 16), ("mertens_product", "mertens_product", "ref"),
                (0.5, 0.25, 0.125)]),
    "float32-array": (["x"], [np.array([0.1, 1e30, -2.5], dtype=np.float32)]),
    "big-ints": (["n"], [[2**70, -(2**63), 0]]),
    "unicode": (["s"], [["été", "→", "ok"]]),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_table_matches_oracle(case, fmt, tmp_path):
    header, columns = CASES[case]
    _assert_same(tmp_path, fmt, header, columns)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_table_block_edges(rows, fmt, tmp_path):
    rng = np.random.default_rng(rows)
    weights = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
    columns = [np.arange(1, rows + 1, dtype=np.int64), weights]
    _assert_same(tmp_path, fmt, ["index", "weight"], columns)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_fallback_in_last_block_only(fmt, tmp_path):
    # the first block takes the fast path, the second falls back
    weights = np.linspace(0.0, 1.0, BLOCK + 2)
    weights[-1] = NAN
    labels = [7] * (BLOCK + 1) + [""]
    _assert_same(tmp_path, fmt, ["weight", "label"], [weights, labels])


def test_table_accepts_a_one_shot_iterable_of_columns(tmp_path):
    columns = [np.arange(5), [0.5] * 5]
    em = cli.Emitter(tmp_path, "csv")
    em.table("t", ["a", "b"], iter(columns))
    assert (tmp_path / "t.csv").read_bytes() == _oracle("csv", ["a", "b"], columns)


def test_table_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        cli.Emitter(tmp_path, "csv").table("t", ["a", "b"], [[1, 2], [3]])
    assert list(tmp_path.iterdir()) == []


_cell = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.booleans(),
    st.none(),
)


@given(
    data=st.data(),
    width=st.integers(min_value=1, max_value=3),
    rows=st.integers(min_value=0, max_value=9),
    fmt=st.sampled_from(["csv", "json"]),
)
@settings(max_examples=150, deadline=None)
def test_table_matches_oracle_small_blocks(data, width, rows, fmt, tmp_path_factory):
    # a block of 2 rows makes every table cross block boundaries; each
    # column is homogeneous or mixed, so fast and fallback blocks interleave
    columns = []
    for _ in range(width):
        kind = data.draw(st.sampled_from(["int", "float", "mixed"]))
        cell = {"int": st.integers(min_value=-(2**40), max_value=2**40),
                "float": st.floats(allow_nan=True, allow_infinity=True),
                "mixed": _cell}[kind]
        columns.append(data.draw(st.lists(cell, min_size=rows, max_size=rows)))
    header = [f"c{i}" for i in range(width)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "TABLE_BLOCK_ROWS", 2)
        _assert_same(tmp_path_factory.mktemp("t"), fmt, header, columns)
