"""Emitter.table against a row-wise oracle.

The oracle is the per-cell writer the column-wise, block-streamed writer
replaced: each row's cells through `_fmt` and csv.writer, or through
`_clean` and json.dumps(sort_keys=True, indent=2). Both are copied here so
that the oracle cannot move with the program. Every case must give the
same bytes in both formats, and the manifest entry must describe the file
on disk. The float text kernel behind the numeric blocks is also checked
value by value against float.__repr__ itself.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import struct
import sys

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
    em.commit()
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
    "int64-array-extremes": (["n"], [np.array([-(2**63), 2**63 - 1, 0, -1, 10, -10],
                                              dtype=np.int64)]),
    "uint64-array": (["n"], [np.array([2**64 - 1, 2**63, 0, 7], dtype=np.uint64)]),
    "small-int-arrays": (["a", "b"], [np.array([-128, 127, 0], dtype=np.int8),
                                      np.array([255, 0, 1], dtype=np.uint8)]),
    "float-runs-array": (["i", "x"], [np.arange(8, dtype=np.int64),
                                      np.array([0.0, 0.0, -0.0, 0.5, 0.5, 5e-324,
                                                1e300, 1e300])]),
    "strided-array": (["re", "im"], [np.array([1 + 2j, 0j, -3.5j]).real,
                                     np.array([1 + 2j, 0j, -3.5j]).imag]),
    "unicode": (["s"], [["été", "→", "ok"]]),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_table_matches_oracle(case, fmt, tmp_path):
    header, columns = CASES[case]
    _assert_same(tmp_path, fmt, header, columns)


# row counts one short of, at and one past the fourth block boundary, so
# each table also joins several full blocks
EDGES = [4 * BLOCK - 1, 4 * BLOCK, 4 * BLOCK + 1]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", EDGES)
def test_table_block_edges(rows, fmt, tmp_path):
    rng = np.random.default_rng(rows)
    weights = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
    columns = [np.arange(1, rows + 1, dtype=np.int64), weights]
    _assert_same(tmp_path, fmt, ["index", "weight"], columns)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", EDGES)
def test_table_sparse_block_edges(rows, fmt, tmp_path):
    # a measure-like column: mostly +0.0, with -0.0, one lone value and one
    # constant whose run crosses the block boundary
    weights = np.zeros(rows)
    weights[4 * BLOCK - 4:4 * BLOCK + 3] = 0.1 / 3
    weights[5] = -0.0
    weights[6] = 7.5e-310
    columns = [np.arange(1, rows + 1, dtype=np.int64), weights]
    _assert_same(tmp_path, fmt, ["index", "weight"], columns)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_fallback_in_last_block_only(fmt, tmp_path):
    # the first block takes the fast path, the second falls back
    weights = np.linspace(0.0, 1.0, BLOCK + 2)
    weights[-1] = NAN
    labels = [7] * (BLOCK + 1) + [""]
    _assert_same(tmp_path, fmt, ["weight", "label"], [weights, labels])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_numeric_arrays_skip_the_cell_writers(fmt, tmp_path, monkeypatch):
    # int and finite float arrays are written by the block kernel alone
    def refuse(v):
        raise AssertionError(f"cell writer called on {v!r}")

    monkeypatch.setattr(cli, "_fmt", refuse)
    monkeypatch.setattr(cli, "_json_cell", refuse)
    columns = [np.arange(5, dtype=np.int64), np.array([0.0, 0.5, 0.5, -0.0, 1e-300]),
               np.array([1.5, 2.5, 0.0, 0.0, 0.0], dtype=np.float32)]
    _assert_same(tmp_path, fmt, ["a", "b", "c"], columns)


def test_each_float_run_or_sparse_value_is_formatted_once(tmp_path, monkeypatch):
    # each run, or each distinct value of a sparse column, reaches the
    # kernel once
    formatted = []
    original = cli._repr_cells

    def counted(bits):
        formatted.append(bits.view(np.float64).tolist())
        return original(bits)

    monkeypatch.setattr(cli, "_repr_cells", counted)
    sorts = []
    unique = np.unique

    def counted_unique(*args, **kwargs):
        sorts.append(args[0].size)
        return unique(*args, **kwargs)

    monkeypatch.setattr(cli.np, "unique", counted_unique)
    # sparse: 8 runs in 16 values, +0.0 between runs of one constant and of
    # one lone value; each distinct value is formatted once
    sparse = np.array([0.0, 0.0, 0.0, 0.25, 0.25, 0.0, 0.0, 0.0,
                       0.25, 0.5, 0.5, 0.0, -0.0, -0.0, 0.0, 0.0])
    _assert_same(tmp_path, "csv", ["x"], [sparse])
    (values,) = formatted
    assert sorted(map(repr, values)) == ["-0.0", "0.0", "0.25", "0.5"]
    assert sorts == [8]
    # dense: one call per run of bit-identical values, repeats included
    formatted.clear()
    dense = np.array([1.5, 1.5, 2.5, 1.5, -0.0, -0.0])
    _assert_same(tmp_path, "json", ["x"], [dense])
    assert formatted == [[1.5, 2.5, 1.5, -0.0]]
    # dense with a +0.0 run: more than half the values start a run, so
    # there is no sort
    formatted.clear()
    dense = np.array([0.0, 1.5, 2.5, 2.5, 1.5, 3.0])
    _assert_same(tmp_path, "csv", ["x"], [dense])
    assert formatted == [[0.0, 1.5, 2.5, 1.5, 3.0]]
    assert sorts == [8]


def test_each_float_run_or_sparse_value_is_formatted_once_by_the_kernel(
        tmp_path, monkeypatch):
    # however few distinct values a block holds, the kernel formats them
    # itself: one _repr_cells call per float column, and no value of these
    # handed on to float.__repr__
    calls = []
    original = cli._repr_cells

    def counted(bits):
        calls.append(bits.view(np.float64).tolist())
        return original(bits)

    fallback = []
    repr_fallback = cli._repr_fallback

    def counted_fallback(bits):
        fallback.extend(bits.view(np.float64).tolist())
        return repr_fallback(bits)

    monkeypatch.setattr(cli, "_repr_cells", counted)
    monkeypatch.setattr(cli, "_repr_fallback", counted_fallback)
    for fmt in ("csv", "json"):
        calls.clear()
        # one value in one run, two values each in a run of its own, and
        # two values in three runs (sparse, so deduplicated in bit order)
        _assert_same(tmp_path, fmt, ["a", "b", "c"],
                     [np.full(6, 0.1), np.array([0.3, 0.0, 0.3, 0.0, 0.3, 0.0]),
                      np.array([-2.7, -2.7, 1e-7, 1e-7, 1e-7, -2.7])])
        assert calls == [[0.1], [0.3, 0.0, 0.3, 0.0, 0.3, 0.0], [1e-7, -2.7]]
    assert fallback == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scaffold_and_sparse_memo_follow_each_block(fmt, tmp_path, monkeypatch):
    # 4-row blocks. The int cells widen from 9 to 10 digits at block 2, the
    # dense float cells widen at block 3 and narrow back at block 4, and
    # the sparse column's distinct set changes at block 2 and comes back at
    # block 3. The bytes are the oracle's; the scaffold is laid only when a
    # width changes, and the sparse column is formatted only when its
    # distinct set differs from the last one formatted
    monkeypatch.setattr(cli, "TABLE_BLOCK_ROWS", 4)
    ints = np.array([999_999_990 + i for i in range(8)]
                    + [1_000_000_000 + i for i in range(14)], dtype=np.int64)
    short, wide = [0.1, 0.2, 0.3, 0.4], [-1.2345678901234567e-300, 0.7, 0.8, 0.9]
    dense = np.array(short * 3 + wide + short + short[:2])
    c, d = 0.1 / 3, 0.2 / 3
    sparse = np.array([0.0, 0.0, c, c,  c, c, 0.0, 0.0,  0.0, d, d, d,
                       0.0, 0.0, 0.0, c,  c, 0.0, 0.0, 0.0,  c, c])
    laid, formatted = [], []
    lay, repr_cells = cli._NumericRows._lay, cli._repr_cells

    def counted_lay(self, n, widths):
        laid.append((n, widths))
        return lay(self, n, widths)

    def counted_repr(bits):
        formatted.append(bits.view(np.float64).tolist())
        return repr_cells(bits)

    monkeypatch.setattr(cli._NumericRows, "_lay", counted_lay)
    monkeypatch.setattr(cli, "_repr_cells", counted_repr)
    _assert_same(tmp_path, fmt, ["n", "dense", "sparse"], [ints, dense, sparse])
    # laid at blocks 0, 2, 3 and 4; blocks 1 and 5 (2 rows) reuse the scaffold
    assert [n for n, _ in laid] == [4, 4, 4, 4]
    assert [w[0] for _, w in laid] == [9, 10, 10, 10]
    (narrow, _, widened, back) = [w[1] for _, w in laid]
    assert narrow == laid[1][1][1] == back < widened
    assert len({w[2] for _, w in laid}) == 1
    assert [v for v in formatted if set(v) <= {0.0, c, d}] == [
        [0.0, c], [0.0, d], [0.0, c], [c]]


def test_staged_write_takes_bytes_and_uint8_arrays(tmp_path):
    chunks = [b"head,", np.frombuffer(b"0123456789", dtype=np.uint8)[2:7], b"",
              np.zeros(0, dtype=np.uint8), np.array([65, 66, 10], dtype=np.uint8)]
    joined = b"".join(bytes(chunk) for chunk in chunks)
    tmp, sha256, size = cli._staged_write(tmp_path / "t.csv", chunks)
    assert joined == b"head,23456AB\n"
    assert tmp.read_bytes() == joined
    assert size == len(joined)
    assert sha256 == hashlib.sha256(joined).hexdigest()


def test_table_accepts_a_one_shot_iterable_of_columns(tmp_path):
    columns = [np.arange(5), [0.5] * 5]
    em = cli.Emitter(tmp_path, "csv")
    em.table("t", ["a", "b"], iter(columns))
    em.commit()
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


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                2.225073858507201e-308, 1e300, -1e-300, 1.7976931348623157e308,
                0.1, 1.0, INF, -INF, NAN]

# numpy column kinds: (dtype, cell strategy)
_ARRAYS = {
    "int64-array": (np.int64, st.one_of(
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.sampled_from([0, -1, 9, -10, -(2**63), 2**63 - 1]))),
    "uint64-array": (np.uint64, st.one_of(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.sampled_from([0, 2**63, 2**64 - 1]))),
    "float64-array": (np.float64, st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from(_EDGE_FLOATS))),
    "float32-array": (np.float32, st.one_of(
        st.floats(width=32, allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 1e-45, 3.4028234663852886e38, 0.1]))),
}


def _array_column(data, kind: str, rows: int) -> np.ndarray:
    """A column of `rows` values drawn from a pool of a few, so that runs
    of equal values and +0.0 next to -0.0 come up often."""
    dtype, cell = _ARRAYS[kind]
    pool = data.draw(st.lists(cell, min_size=1, max_size=4))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                               min_size=rows, max_size=rows))
    return np.array([pool[i] for i in picks], dtype=dtype)


@given(
    data=st.data(),
    width=st.integers(min_value=1, max_value=3),
    rows=st.integers(min_value=0, max_value=9),
    fmt=st.sampled_from(["csv", "json"]),
)
@settings(max_examples=300, deadline=None)
def test_table_matches_oracle_small_blocks(data, width, rows, fmt, tmp_path_factory):
    # a block of 2 rows makes every table cross block boundaries; list
    # columns are homogeneous or mixed and numpy columns take the block
    # kernel, so kernel and fallback blocks interleave (non-finite floats
    # send a JSON block to the fallback)
    columns = []
    for _ in range(width):
        kind = data.draw(st.sampled_from(["int", "float", "mixed", *_ARRAYS]))
        if kind in _ARRAYS:
            columns.append(_array_column(data, kind, rows))
            continue
        cell = {"int": st.integers(min_value=-(2**40), max_value=2**40),
                "float": st.floats(allow_nan=True, allow_infinity=True),
                "mixed": _cell}[kind]
        columns.append(data.draw(st.lists(cell, min_size=rows, max_size=rows)))
    header = [f"c{i}" for i in range(width)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "TABLE_BLOCK_ROWS", 2)
        _assert_same(tmp_path_factory.mktemp("t"), fmt, header, columns)


# --- the float text kernel against float.__repr__ ----------------------------

def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _float_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _kernel_texts(values) -> list[str]:
    """The kernel's text of each value: the NUL-free bytes of its row. The
    first and the last column of the cells hold some value's text."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    cells = cli._repr_cells(bits)
    assert cells.shape[1] <= 32
    assert cells[:, 0].any() and cells[:, -1].any()
    rows = np.zeros((cells.shape[0], cells.shape[1] + 1), dtype=np.uint8)
    rows[:, :-1] = cells
    rows[:, -1] = ord(",")
    flat = rows.ravel()
    return flat[flat != 0].tobytes().decode().split(",")[:-1]


def _ulps_from(value: float, steps: int) -> float:
    """The float `steps` bit patterns from a positive value, stopping at 0
    and at inf."""
    return _bits_float(min(max(_float_bits(value) + steps, 0), _float_bits(math.inf)))


# values around the switch between positional and d.ddde+XX text
_SWITCHES = [1e16, 9999999999999998.0, 1e-4, 1e-5, 1e15, 0.001]
_EDGES = [0.0, -0.0, sys.float_info.max, -sys.float_info.max,
          sys.float_info.min, -sys.float_info.min]


def _kernel_cases(bits: int, steps: int) -> list[float]:
    """A value of each class, picked by 64 random bits and moved `steps`
    bit patterns where the class has neighbours."""
    sign = -1.0 if bits >> 63 else 1.0
    return [
        # any 64 bits, nan and inf included
        _bits_float(bits),
        # a subnormal
        sign * _bits_float(bits % (2**52 - 1) + 1),
        # a power of two, whose gap below is half the gap above
        sign * _ulps_from(math.ldexp(1.0, bits % 2098 - 1074), steps % 3 - 1),
        # a power of ten and its neighbours within 3 ulps
        sign * _ulps_from(float(f"1e{bits % 632 - 323}"), steps),
        # around the switch between positional and exponent text
        sign * _ulps_from(_SWITCHES[bits % len(_SWITCHES)], steps),
        _EDGES[bits % len(_EDGES)],
        # short decimals and short binary significands fall on the ends of
        # rounding intervals and on ties between two shortest candidates
        sign * float(f"{bits % 10**6}e{(bits >> 20) % 640 - 330}"),
        sign * math.ldexp(bits % 2**21, (bits >> 21) % 2100 - 1100),
    ]


@given(st.integers(0, 2**64 - 1), st.integers(-3, 3))
@settings(max_examples=500, deadline=None)
def test_kernel_text_is_float_repr(bits, steps):
    # bit for bit, nan and inf included
    values = _kernel_cases(bits, steps)
    assert _kernel_texts(values) == [repr(v) for v in values]


def test_kernel_text_is_float_repr_on_random_bits():
    rng = np.random.default_rng(20240518)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    values = bits[(bits >> 52 & 0x7FF) != 0x7FF].view(np.float64)  # finite
    texts = _kernel_texts(values)
    wrong = [(repr(v), got) for v, got in zip(values.tolist(), texts) if repr(v) != got]
    assert not wrong, f"{len(wrong)} texts differ from repr, e.g. {wrong[:5]}"


def test_kernel_fallback_is_rare_on_fft_coefficients(monkeypatch):
    # the digits of a transform scaled as fourier.spectrum's (|v| <= 1)
    # come from the kernel: at most 1% of the values go through
    # float.__repr__, and those still read as repr
    left = []
    original = cli._repr_fallback

    def counted(bits):
        left.extend(bits.view(np.float64).tolist())
        return original(bits)

    monkeypatch.setattr(cli, "_repr_fallback", counted)
    rng = np.random.default_rng(7)
    weights = rng.random(BLOCK) * (rng.random(BLOCK) < 0.5)
    coeffs = np.fft.fft(weights) / weights.sum()
    texts = {}
    for part in (coeffs.real, coeffs.imag):
        values = np.ascontiguousarray(part)
        texts.update(zip(values.tolist(), _kernel_texts(values)))
    assert len(left) <= 0.01 * 2 * BLOCK
    assert [texts[v] for v in left] == [repr(v) for v in left]


def test_kernel_leaves_wide_positional_powers_of_two_and_exact_ends_to_repr(
        monkeypatch):
    # positional |v| >= 10, powers of two from 2^-1021 on and values with an
    # interval end on an integer go to float.__repr__; the smallest normal
    # power of two, short decimals, the exponent form and the zeros do not
    left = []
    original = cli._repr_fallback

    def counted(bits):
        left.extend(bits.view(np.float64).tolist())
        return original(bits)

    monkeypatch.setattr(cli, "_repr_fallback", counted)
    fallback = [12.0, 1.5, 3.0, 0.25, math.ldexp(1.0, -1021)]
    kernel = [math.ldexp(1.0, -1022), 0.3, 1e-5, 0.0, -0.0]
    values = fallback + kernel
    assert _kernel_texts(values) == [repr(v) for v in values]
    assert left == fallback
