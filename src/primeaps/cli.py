"""Batch experiment runner.

Each subcommand wraps one library surface, writes its outputs (CSV or
JSON) plus a run manifest, and exits 0. Validation failures exit 2,
compute failures 3, I/O failures 4, always with an error JSON on stderr.
A failed run leaves none of its files behind, nor a directory it made.

roth-pipeline writes each table on one writer thread as soon as its stage
has made it, while the later stages compute (every transform releases the
GIL); report.json is written once the writer has drained. The bytes are
those of writing the tables one after another.

Determinism contract: a fixed config and seed reproduce every output file
byte for byte; the manifest's deterministic_hash covers everything except
its timings (wall time, page faults, peak RSS).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import secrets
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, arcs, fourier, measures, roth, sieve
from .errors import (
    ConfigError,
    DegenerateInputError,
    ParameterError,
    PreconditionError,
    StageError,
    TableRangeError,
    shown,
)
from .numutil import fsum_real, rng_stream

# rows formatted per block by Emitter.table. Measured on 2 cores with numpy
# 2.4.6 against 2^16: the export-json workload's measure-build, 8 runs in
# one process, took a median 0.41 s rather than 0.45-0.50 s at an unchanged
# VmHWM of 120.3 MB, and roth-pipeline --N 1000000, whose tables are written
# while later stages compute, peaked at 300 MB rather than 320 MB. 2^15
# peaked at 307 MB; 2^13 was no faster, and raised measure-build's VmHWM to
# 122.7 MB
TABLE_BLOCK_ROWS = 1 << 14
VALIDATION_ERRORS = (
    ConfigError,
    ParameterError,
    PreconditionError,
    TableRangeError,
    DegenerateInputError,
)


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of printing usage + SystemExit(2)."""

    def error(self, message):
        raise ConfigError(message)


def _constants(text: str) -> dict:
    """A JSON object mapping names of roth.DEFAULT_CONSTANTS to finite
    numbers (an argparse type)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(
            f"constants must be a JSON object: {exc}") from exc
    if not isinstance(obj, dict):
        raise argparse.ArgumentTypeError("constants must be a JSON object")
    for name, value in obj.items():
        if name not in roth.DEFAULT_CONSTANTS:
            raise argparse.ArgumentTypeError(
                f"unknown constant {name!r}, expected one of "
                f"{sorted(roth.DEFAULT_CONSTANTS)}")
        # bool is not a number here; abs(nan) and abs(inf) fail the bound,
        # as does an int too large to become a float
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise argparse.ArgumentTypeError(
                f"constant {name} must be a finite number, got {value!r}")
    return obj


def _end(value) -> str:
    """An end or a value of a _Range as its messages write it."""
    return shown(value) if isinstance(value, int) else repr(value)


class _Range:
    """A number of `kind` (int or float) between the ends lo and hi, each
    kept or dropped as its bracket in `brackets` ("[]", "[)", "(]" or
    "()") says, an infinite end dropped (an argparse type). nan is in no
    range, so a float range with open infinite ends takes the finite
    floats."""

    def __init__(self, kind, brackets: str, lo, hi):
        self.kind, self.brackets, self.lo, self.hi = kind, brackets, lo, hi

    def __str__(self) -> str:
        return f"{self.brackets[0]}{_end(self.lo)}, {_end(self.hi)}{self.brackets[1]}"

    def __call__(self, text: str):
        try:
            value = self.kind(text)
        except ValueError:
            value = None
        if value is not None and (
                (value >= self.lo if self.brackets[0] == "[" else value > self.lo)
                and (value <= self.hi if self.brackets[1] == "]" else value < self.hi)):
            return value
        if value is not None:
            got = _end(value)
        elif len(text) <= 30:
            got = repr(text)
        else:  # a malformed text is cut, so no long run of digits is echoed
            got = f"{text[:30]!r}... ({len(text)} characters)"
        raise argparse.ArgumentTypeError(
            f"must be {self.kind.__name__} in {self}, got {got}")


class _RangeList(_Range):
    """One or more distinct comma-separated values, each in the range (an
    argparse type)."""

    def __call__(self, text: str) -> list:
        one = super().__call__
        values = [one(part) for part in text.split(",") if part != ""]
        if not values:
            raise argparse.ArgumentTypeError("expected at least one integer")
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise argparse.ArgumentTypeError(
                f"repeated values [{', '.join(map(_end, repeated))}]")
        return values


# argparse keywords of each flag, shared by every subcommand that takes it.
# Each type holds the flag's own range; a check that combines flags stays
# in its handler, and a flag with no range here is checked by the library
# (--b and --m by MeasureParams, --oversample by TorusGrid, --alpha by
# varnavides_bound)
_OPTIONS = {
    "--N": {"type": _Range(int, "[)", 1, math.inf), "help": "scale"},
    "--seed": {"type": _Range(int, "[)", 0, math.inf)},
    "--output-dir": {},
    "--format": {"choices": ("csv", "json")},
    "--b": {"type": int},
    "--m": {"type": int},
    # a Mertens product reads the primes up to each Q
    "--Q": {"type": _RangeList(int, "[]", 1, sieve.MAX_TABLE_LIMIT)},
    "--p": {"dest": "p_exponent", "type": _Range(float, "()", -math.inf, math.inf),
            "help": "exponent p (measure-build: enables the dyadic split)"},
    "--oversample": {"type": int},
    "--B-override": {"type": _Range(float, "()", 0, math.inf)},
    # each draw is an L^p ladder, so an unbounded count runs until killed
    "--draws": {"type": _Range(int, "[]", 1, 10**5)},
    "--source": {"choices": roth.SOURCES},
    "--delta": {"type": _Range(float, "()", 0, math.inf)},
    "--eps": {"type": _Range(float, "()", 0, 1)},
    "--W": {"type": _Range(int, "[)", 1, math.inf)},
    "--alpha": {"type": float},
    "--constants": {"type": _constants},
}
# a subcommand's entry gives each of its flags a default, or one of these
# keyword sets merged over _OPTIONS
_REQUIRED = {"required": True}
_N_LIST = {"required": True, "help": "scales, comma-separated"}
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


def _json_bytes(obj) -> bytes:
    """The encoding of every JSON file: json.dumps(sort_keys=True,
    indent=2) of the _clean copy, plus a newline."""
    return (json.dumps(_clean(obj), sort_keys=True, indent=2) + "\n").encode("utf-8")


def _staged_write(path: Path, chunks) -> tuple[Path, str, int]:
    """Write the chunks (bytes, or contiguous uint8 arrays, taken as their
    buffers) to a fresh temporary file beside path, to be renamed over it
    later; returns the temporary path, the sha256 hex digest and the size
    of what was written. The chunks are hashed as they go, so no whole file
    is held in memory. The file is created with mode 0o666 less the umask,
    as open() would."""
    digest = hashlib.sha256()
    size = 0
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in map(memoryview, chunks):
                fh.write(chunk)
                digest.update(chunk)
                size += chunk.nbytes
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return tmp, digest.hexdigest(), size


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def _json_cell(v) -> str:
    """One table cell as json.dumps writes it at the depth of a row item."""
    return json.dumps(_clean(v), sort_keys=True, indent=2).replace("\n", "\n      ")


_TEN = np.uint64(10)


def _int_cells(values: np.ndarray) -> np.ndarray:
    """The decimal text of an int array as a (rows, width) uint8 matrix:
    each row holds one value's ASCII sign and digits in order, with NUL
    bytes as padding."""
    if values.dtype.kind == "u":
        mag, neg = values.astype(np.uint64), None
    else:
        signed = values.astype(np.int64)
        neg = signed < 0
        # |v| in uint64, which holds |-2**63| too
        mag = signed.view(np.uint64)
        np.negative(mag, out=mag, where=neg)
    digits = len(str(int(mag.max())))
    width = digits + int(neg is not None and bool(neg.any()))
    # built one digit position per row, so every write is contiguous
    out = np.zeros((width, mag.size), dtype=np.uint8)
    rest = mag
    for k in range(digits):
        quot = rest // _TEN
        digit = out[width - 1 - k]
        np.subtract(rest, quot * _TEN, out=digit, casting="unsafe")
        digit += 48
        if k:
            # blank unless the value has more than k digits
            digit *= rest > 0
        rest = quot
    if width > digits:
        out[0, neg] = ord("-")  # the NUL padding between goes with the rest
    return out.T


# ---------------------------------------------------------------------------
# shortest float text
#
# float.__repr__ writes the shortest decimal that reads back as the same
# float and, of several, the one closest to it, ties going to an even last
# digit. _repr_cells finds those digits for a whole block at once by the
# Schubfach method (R. Giulietti, "The Schubfach way to render doubles",
# 2020). Write a finite v > 0 as c 2^q and let k be the largest integer with
# 10^k no wider than the interval of reals that round to v. That interval
# then holds at most one multiple of 10^(k+1): if it does, that one is the
# shortest decimal. Otherwise the shortest decimals are the multiples of
# 10^k in it, and the closer of the two around v is the answer.

_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
_POW10 = np.array([10 ** j for j in range(18)], dtype=np.uint64)
# values per pass of _repr_words. 2^13 keeps each uint64 temporary at
# 64 KiB; measured on 2 cores with numpy 2.4, chunks of 2^14 and more ran
# 1.7 times as slow per value, and 2^12 paid 1.4 times as much in numpy's
# per-call overhead
_REPR_CHUNK = 1 << 13


@functools.cache
def _shortest_tables() -> dict:
    """The constants of each float64 exponent field, computed exactly
    from Python ints.

    Row bexp is for v = c 2^q with q = max(bexp, 1) - 1075, whose rounding
    interval is 2^q wide (a power of two from bexp = 2 on has a narrower
    gap below it; _shortest_digits leaves those to float.__repr__). With k
    the largest integer such that 10^k <= 2^q, a row holds:
    - g = floor(10^-k 2^-r) + 1 in (2^125, 2^126), as g >> 63 and
      g & (2^63 - 1), for the shift h = q + r + 127 with which x 2^q / 10^k
      lies in [(x << h) (g - 1), (x << h) g) 2^-127;
    - the offset 2 2^q / 10^k from 4v / 10^k to either end of the interval,
      times 2^63 and rounded down, as integer part and 63-bit fraction;
    - h and k + 1024, packed in bits 0-7 and 8 on of one word.
    Built on first use rather than at import, as the loop takes about ten
    milliseconds."""
    cols = {name: [] for name in ("g", "gap", "small")}
    for bexp in range(2048):
        q = max(bexp, 1) - 1075
        k = len(str(2 ** q)) - 1 if q >= 0 else -len(str(2 ** -q))
        p = 10 ** abs(k)
        r = p.bit_length() - 126 if k <= 0 else -p.bit_length() - 125
        g = (p << -r if r < 0 else p >> r) + 1 if k <= 0 else (1 << -r) // p + 1
        assert 1 << 125 < g < 1 << 126
        h = q + r + 127
        # every x of _repr_words is < 2^55 + 3, so x << h < 2^63
        assert 0 <= h <= 7
        # 2 2^q / 10^k times 2^63 is the true g over 2^(63 - h), whose
        # floor is that of floor(g) = g - 1
        gap = (g - 1) >> (63 - h)
        cols["g"].append((g >> 63, g & _M63))
        cols["gap"].append((gap >> 63, gap & _M63))
        cols["small"].append(h | (k + 1024) << 8)
    tables = {name: np.array(col, dtype=np.uint64).T.copy() for name, col in cols.items()}
    for table in tables.values():
        table.flags.writeable = False  # one copy serves every caller
    return tables


def _word(text: str, end: int = -1) -> int:
    """The bytes of text as a uint64, lowest byte first: from byte 0, or
    ending at byte `end`."""
    data = text.encode()
    return int.from_bytes(data, "little") << 8 * max(end + 1 - len(data), 0)


def _digit_groups() -> np.ndarray:
    """n < 10^4 as 4 ASCII digits, lowest byte first, then (at n + 10^4)
    with the zeros after its last nonzero digit as NUL."""
    n = np.arange(10 ** 4, dtype=np.uint64)
    full = np.zeros_like(n)
    trimmed = np.zeros_like(n)
    seen = np.zeros(n.size, dtype=bool)
    for place in range(3, -1, -1):
        digit = n // 10 ** (3 - place) % 10
        seen |= digit != 0
        full |= (digit + 0x30) << (8 * place)
        trimmed |= (digit + 0x30) * seen << (8 * place)
    return np.concatenate([full, trimmed])


_GROUPS = _digit_groups()
# a text's head, right-aligned in a word, by 10 (2 kind + (1 if negative))
# + its leading digit: kinds 0 to 3 are "0.", that many zeros and the digit,
# kind 4 the digit and a point, kind 5 the digit alone
_HEAD = np.array([_word(sign + before + str(lead) + after, 7)
                  for before, after in (("0.", ""), ("0.0", ""), ("0.00", ""),
                                        ("0.000", ""), ("", "."), ("", ""))
                  for sign in ("", "-") for lead in range(10)], dtype=np.uint64)
# e-324 .. e+308 by exponent + 324, then none
_EXPONENT = np.array([_word(f"e{e:+03d}") for e in range(-324, 309)] + [0],
                     dtype=np.uint64)


def _mulhi(a0, a1, b0, b1):
    """The high 64 bits of the products a b of uint64 arrays, given as
    their 32-bit halves a = a1 2^32 + a0 and b = b1 2^32 + b0."""
    low = a0 * b0
    low >>= 32
    m1 = a0 * b1
    m2 = a1 * b0
    low += m1 & _M32
    low += m2 & _M32
    low >>= 32
    m1 >>= 32
    m2 >>= 32
    high = a1 * b1
    high += m1
    high += m2
    high += low
    return high


def _text_bits(w: np.ndarray) -> np.ndarray:
    """8 times the number of bytes of each w (ASCII) up to its last nonzero
    one, from the exponent of w as a float: a top byte below 0x80 keeps the
    rounding from reaching the next byte."""
    e = w.astype(np.float64).view(np.int64)
    e >>= 52
    e -= 1015
    e &= -8
    return np.maximum(e, 0, out=e)


def _shortest_digits(bits: np.ndarray) -> tuple:
    """The shortest, closest decimal of each float64 bit pattern as 17
    digits d (an int in [10^16, 10^17), or 0 for +-0.0) and decpt, the
    value's magnitude being 0.d 10^decpt; and a mask of the values left to
    float.__repr__: nan, inf, powers of two from 2^-1021 on (their
    rounding interval is not the table's), and any value whose digits the
    error bounds below leave open."""
    t = _shortest_tables()
    bexp = bits >> 52
    bexp &= 0x7FF
    c = bits & ((1 << 52) - 1)
    left = c == 0
    left &= bexp > 1
    left |= bexp == 0x7FF
    row = bexp.view(np.int64)
    c |= np.minimum(bexp, 1) << 52
    # a zero is worked as 2^-1022, then given d = 0 and decpt = 1
    zero = c == 0
    c |= zero.astype(np.uint64) << 52
    small = t["small"][row]
    # 4v / 10^k as vb + f 2^-63, f < 2^63, from g's 63-bit halves: the
    # exact value is at most 2^-64 below it and less than 2^-62 above (the
    # +1 of g, the low bits dropped); every factor is < 2^63, so no sum
    # overflows
    x = c << 2
    x <<= small & 0xFF
    x0 = x & _M32
    x1 = x >> 32
    g1 = t["g"][0][row]
    g0 = t["g"][1][row]
    f = g1 * x
    f >>= 1
    f += _mulhi(g0 & _M32, g0 >> 32, x0, x1)
    vb = _mulhi(g1 & _M32, g1 >> 32, x0, x1)
    vb += f >> 63
    f &= _M63
    # the ends of the rounding interval, 4 (v -+ half a gap) / 10^k, one
    # more rounded constant off: at most 1.5 2^-63 below their exact values
    # and less than 3 2^-63 above
    gap1 = t["gap"][0][row]
    gap0 = t["gap"][1][row]
    fl = f - gap0
    vbl = vb - gap1
    vbl -= fl >> 63
    fl &= _M63
    fr = f + gap0
    vbr = vb + gap1
    vbr += fr >> 63
    fr &= _M63
    # rounded to odd (floor | 1), each is ordered against even integers as
    # its exact value is, unless it is within 4 2^-63 of an integer: then
    # the value is left to float.__repr__
    for end, part in ((vb, f), (vbl, fl), (vbr, fr)):
        part += 4
        part &= _M63
        left |= part < 8
        end |= 1
    # the one multiple of 10^(k+1) in the interval, else of the multiples
    # s, s + 1 of 10^k around v the one in it, or the closer; an odd c
    # leaves the ends out
    s = vb >> 2
    half = vb & ~np.uint64(3)
    odd = c & 1
    vbl += odd
    vbr -= odd
    take_s = vbl <= half
    half += 2
    take_s &= ((half + 2 > vbr) | (vb < half) | ((vb == half) & ((s & 1) == 0)))
    digits = s + 1
    digits -= take_s
    s //= 10
    s *= 40
    upin = vbl <= s
    s += 40
    coarse = np.flatnonzero(upin != (s <= vbr))
    if coarse.size:
        digits[coarse] = (s[coarse] >> 2) - upin[coarse] * np.uint64(10)
    # digits 10^k as 17 digits d, the value being 0.d 10^decpt
    lo, hi = (len(str(int(d))) for d in (digits.min(), digits.max()))
    decpt = np.full(digits.size, lo, dtype=np.int64)
    for j in range(lo, min(hi, 17)):
        decpt += digits >= _POW10[j]
    digits *= _POW10[17 - decpt]
    decpt += (small >> 8).view(np.int64) - 1024
    if zero.any():
        digits *= ~zero
        decpt[zero] = 1
    return digits, decpt, left


def _repr_words(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the repr text of each float64 bit pattern to its row of four
    uint64 words in `out`, lowest byte first, and return the indices of
    the values left to float.__repr__: those of _shortest_digits, and the
    positional ones with more than one digit before the point (|v| >= 10).

    The text is one run of bytes: its head (sign, "0." and zeros below 1,
    leading digit, a point after it) right-aligned in word 0, then the
    other digits up to the last nonzero one and the exponent from word 1
    on; every other byte is NUL, so that the NUL filter of _NumericRows
    meets few edges."""
    digits, decpt, left = _shortest_digits(bits)
    # repr's form: d.ddde+XX when the point falls after more than 16
    # digits or before 4 zeros, positional otherwise
    sci = (decpt > 16) | (decpt < -3)
    left |= (decpt > 1) & ~sci
    below1 = ~sci & (decpt < 1)
    first = decpt == 1
    # word 0: the head, right-aligned
    lead = digits // 10 ** 16
    digits -= lead * 10 ** 16
    # words 1 and 2: the other 16 digits in groups of 4, each looked up as
    # 4 ASCII bytes, or with its zeros as NUL from its last nonzero digit
    # on if every later group is 0
    groups = []
    for scale in (10 ** 12, 10 ** 8, 10 ** 4):
        group = digits // scale
        digits -= group * scale
        groups.append(group)
    groups.append(digits)
    last = np.ones(digits.size, dtype=bool)
    for group in groups[::-1]:
        trimmed = group + last * np.uint64(10 ** 4)
        last &= group == 0
        group[...] = _GROUPS[trimmed.view(np.int64)]
    w1 = groups[0] | groups[1] << 32
    w2 = groups[2] | groups[3] << 32
    point = first | (sci & (w1 != 0))
    # "5.0" keeps its "0"
    w1 |= first * np.uint64(0x30)
    kind = 5 - point - below1 * (5 + decpt)
    kind *= 2
    kind += (bits >> 63).view(np.int64)
    kind *= 10
    kind += lead.view(np.int64)
    out[:, 0] = _HEAD[kind]
    w3 = np.zeros_like(w1)
    if sci.any():
        exp = _EXPONENT[633 - sci * (310 - decpt)]
        at = (_text_bits(w1) + _text_bits(w2)).view(np.uint64)
        # shifts past 63 bits give 0, and so do the wrapped negative ones
        w1 |= exp << at
        w2 |= exp << (at - 64) | exp >> (64 - at)
        w3 |= exp << (at - 128) | exp >> (128 - at)
    out[:, 1] = w1
    out[:, 2] = w2
    out[:, 3] = w3
    return np.flatnonzero(left)


def _repr_fallback(bits: np.ndarray) -> list:
    """float.__repr__ of the float64 bit patterns _repr_words leaves open,
    as bytes."""
    return [float.__repr__(v).encode() for v in bits.view(np.float64).tolist()]


def _repr_cells(bits: np.ndarray) -> np.ndarray:
    """float.__repr__ of float64 bit patterns as a (values, width) uint8
    matrix, one value per row: its text is one run of bytes in the row,
    with NUL bytes before and after it. The matrix keeps only the columns
    from the first to the last one that some value's text reaches, so no
    column is NUL in every row.

    The digits are the shortest and closest ones, found by the Schubfach
    method in uint64 arithmetic (see above) _REPR_CHUNK values at a time,
    and laid out as repr does: d.ddde+XX with at least two exponent digits
    when the point falls before the -3rd or after the 16th digit, otherwise
    positional, with ".0" on an integral value. The kernel writes the
    values of |v| < 10 and the d.ddde+XX ones. Every number that decides
    the digits has an error bound. The rest goes through float.__repr__
    itself (_repr_fallback): nan and inf, positional |v| >= 10, powers of
    two from 2^-1021 on, and any value whose bound leaves its digits open,
    so the bytes are always repr's."""
    n = bits.size
    words = np.empty((n, 4), dtype="<u8")
    redo = np.concatenate([
        lo + _repr_words(bits[lo:lo + _REPR_CHUNK], words[lo:lo + _REPR_CHUNK])
        for lo in range(0, n, _REPR_CHUNK)] or [np.zeros(0, dtype=np.int64)])
    cells = words.view(np.uint8)
    for i, text in zip(redo.tolist(), _repr_fallback(bits[redo])):
        cells[i] = 0
        cells[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    used = np.flatnonzero(np.bitwise_or.reduce(words, axis=0).view(np.uint8))
    if used.size:
        cells = cells[:, used[0]:used[-1] + 1]
    return cells


def _float_cells(values: np.ndarray, memo: dict) -> np.ndarray:
    """The float.__repr__ text of a float64 array as a (rows, width) uint8
    matrix, one value per row with NUL bytes around its text. A run of
    bit-identical values is formatted once, by _repr_cells.

    memo carries a sparse column's distinct values and their cells from
    one block of the column to the next, so a block with the same distinct
    values as the last formatted one formats none."""
    bits = values.view(np.uint64)
    new = np.empty(values.size, dtype=bool)
    new[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    heads = bits[starts]
    if 2 * heads.size <= values.size:
        # a column of few runs holds a measure on a sparse support, and such
        # a measure often repeats one value across its runs (a rough
        # measure's constant): format each distinct value once. A column of
        # many runs rarely repeats, and the sort would cost more than it saves
        distinct, which = np.unique(heads, return_inverse=True)
        if "distinct" not in memo or not np.array_equal(memo["distinct"], distinct):
            memo["distinct"], memo["cells"] = distinct, _repr_cells(distinct)
        runs = memo["cells"][which]
    else:
        runs = _repr_cells(heads)
    if starts.size == values.size:
        return runs
    return np.take(runs, np.cumsum(new) - 1, axis=0)


def _numeric(block: list, finite: bool) -> list | None:
    """The block, with float arrays as contiguous float64 and a range as an
    int64 array, if every column is a range or an int or float array (with
    only finite floats when `finite`); None for any other block."""
    out = []
    for values in block:
        if isinstance(values, range):
            values = np.arange(values.start, values.stop, values.step, dtype=np.int64)
        kind = values.dtype.kind if isinstance(values, np.ndarray) else None
        if kind == "f":
            values = np.ascontiguousarray(values, dtype=np.float64)
            if finite and not np.isfinite(values).all():
                return None
        elif kind not in ("i", "u"):
            return None
        out.append(values)
    return out


class _NumericRows:
    """The text of one table's _numeric blocks, as a uint8 array per block:
    each row is `before`, its cells separated by `between`, then `after`,
    and rows are separated by `join`.

    The rows are laid out in one uint8 matrix, the scaffold, each column
    of cells in a slot as wide as its cell matrix; the NUL padding in the
    slots is then dropped, which leaves the rows' bytes in order. No Python
    object is made per row. The scaffold is made, with its literals, for
    the table's first numeric block and sized by it; a later block, never
    longer, writes only its cell slots, and the scaffold is made again only
    when a column's cell width changes. Each float column keeps its
    _float_cells memo from block to block."""

    def __init__(self, width: int, before: bytes, between: bytes, after: bytes,
                 join: bytes):
        self._literals = [np.frombuffer(text, dtype=np.uint8)
                          for text in (before, *[between] * (width - 1), after + join)]
        self._join = len(join)
        self._memos = [{} for _ in range(width)]
        self._rows = np.empty((0, 0), dtype=np.uint8)
        self._widths: list[int] = []  # no block's, so the first block lays
        self._slots: list[slice] = []

    def _lay(self, n: int, widths: list[int]) -> None:
        """A scaffold of n rows with the literals in place, for cells of
        the given widths."""
        rows = np.empty((n, sum(widths) + sum(map(len, self._literals))),
                        dtype=np.uint8)
        self._slots = []
        pos = 0
        for literal, width in zip(self._literals, widths):
            rows[:, pos:pos + literal.size] = literal
            pos += literal.size
            self._slots.append(slice(pos, pos + width))
            pos += width
        rows[:, pos:] = self._literals[-1]
        self._rows, self._widths = rows, widths

    def __call__(self, block: list) -> np.ndarray:
        cells = [_float_cells(values, memo) if values.dtype.kind == "f"
                 else _int_cells(values) for values, memo in zip(block, self._memos)]
        widths = [c.shape[1] for c in cells]
        n = len(block[0])
        if widths != self._widths:
            self._lay(n, widths)
        rows = self._rows[:n]
        for slot, c in zip(self._slots, cells):
            rows[:, slot] = c
        flat = rows.ravel()
        text = flat[flat != 0]
        return text[:text.size - self._join]


def _blocks(columns: list, n: int):
    """The columns, TABLE_BLOCK_ROWS rows at a time."""
    for lo in range(0, n, TABLE_BLOCK_ROWS):
        yield [col[lo:lo + TABLE_BLOCK_ROWS] for col in columns]


def _values(values) -> list:
    """A block column as Python values, for the cell-by-cell writers."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def _csv_text(header: list[str], columns: list, n: int):
    """The CSV bytes of a table, one block at a time. A block of int and
    float arrays goes through the table's _NumericRows, since a number
    never needs quoting; any other block goes through csv.writer, cell by
    cell through _fmt."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    yield buf.getvalue().encode()
    numeric_rows = _NumericRows(len(columns), b"", b",", b"\n", b"")
    for block in _blocks(columns, n):
        numeric = _numeric(block, finite=False)
        if numeric is not None:
            yield numeric_rows(numeric)
            continue
        buf.seek(0)
        buf.truncate()
        writer.writerows(zip(*(map(_fmt, _values(values)) for values in block)))
        yield buf.getvalue().encode()


def _json_text(header: list[str], columns: list, n: int):
    """The bytes of json.dumps({"columns": header, "rows": rows},
    sort_keys=True, indent=2) + newline, one block of rows at a time. A
    block of int and finite float arrays goes through the table's
    _NumericRows; any other block goes cell by cell through _json_cell.
    The "," between two blocks goes out as a chunk of its own."""
    head = json.dumps(header, indent=2).replace("\n", "\n  ")
    if n == 0:
        yield ('{\n  "columns": %s,\n  "rows": []\n}\n' % head).encode()
        return
    yield ('{\n  "columns": %s,\n  "rows": [' % head).encode()
    row = "\n    [\n      " + ",\n      ".join(["%s"] * len(columns)) + "\n    ]"
    numeric_rows = _NumericRows(len(columns), b"\n    [\n      ", b",\n      ",
                                b"\n    ]", b",")
    for i, block in enumerate(_blocks(columns, n)):
        if i:
            yield b","
        numeric = _numeric(block, finite=True)
        if numeric is not None:
            yield numeric_rows(numeric)
        else:
            cells = [map(_json_cell, _values(values)) for values in block]
            yield ",".join(map(row.__mod__, zip(*cells))).encode()
    yield b"\n  ]\n}\n"


class Emitter:
    """Writes output files into outdir, which the first write creates, and
    records (path, sha256, bytes) of each output.

    Each output is written and hashed under a temporary name; commit
    renames them all into place, in the order written, and manifest.json
    comes last. Until commit, a directory that holds an earlier run's files
    keeps them as they were."""

    def __init__(self, outdir: Path, fmt: str):
        self.outdir = outdir
        self.format = fmt
        self.outputs: list[dict] = []
        self._made: list[Path] | None = None  # directories the first write made
        self._staged: list[tuple[Path, Path]] = []  # (temporary, final) paths
        self._placed: list[Path] = []  # the outputs commit has renamed

    def _write(self, name: str, chunks) -> tuple[str, int]:
        if self._made is None:
            missing = [d for d in (self.outdir, *self.outdir.parents)
                       if not d.exists()]
            self.outdir.mkdir(parents=True, exist_ok=True)
            self._made = missing
        path = self.outdir / name
        tmp, sha256, size = _staged_write(path, chunks)
        self._staged.append((tmp, path))
        return sha256, size

    def commit(self) -> None:
        """Rename every staged file over its final name, in the order
        written."""
        for tmp, path in self._staged:
            os.replace(tmp, path)
            self._placed.append(path)
        self._staged.clear()

    def discard(self) -> None:
        """Delete every staged file and every output commit has renamed
        (a failed commit leaves some of each), then each directory the
        first write made, deepest first, while it is empty."""
        for path in [tmp for tmp, _ in self._staged] + self._placed:
            with contextlib.suppress(OSError):
                path.unlink()
        self._staged.clear()
        self._placed.clear()
        self.outputs.clear()
        for directory in self._made or []:
            try:
                directory.rmdir()
            except OSError:
                break

    def _record(self, name: str, chunks) -> None:
        sha256, size = self._write(name, chunks)
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
            self._record(stem + ".json", _json_text(header, columns, n))
        else:
            self._record(stem + ".csv", _csv_text(header, columns, n))

    def json_file(self, stem: str, obj) -> None:
        self._record(stem + ".json", [_json_bytes(obj)])

    def manifest(self, obj) -> None:
        """manifest.json, encoded as json_file does (it is not an output),
        staged last and committed with the outputs, so it lands last."""
        self._write("manifest.json", [_json_bytes(obj)])
        self.commit()

    def raw(self, name: str, chunks) -> None:
        """The file `name`, the chunks as they are, in order; see
        _staged_write for what a chunk may be."""
        self._record(name, chunks)

    def measure(self, stem: str, f: measures.Measure) -> None:
        self.table(stem, ["index", "weight"], [f.positions(), f.weights])


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (effective, results)

def _table_for(sizes, *limits: tuple[str, int]) -> sieve.PrimeTable:
    """The prime table up to the largest of `sizes`, values that their
    flags' ranges keep within sieve.MAX_TABLE_LIMIT, and of `limits`, each
    a (what sets it, value) pair for a value that flags set together: one
    past the limit is refused with a TableRangeError that names the flags
    and values setting it, before any stage runs or any output is
    written."""
    for what, value in limits:
        if value > sieve.MAX_TABLE_LIMIT:
            raise TableRangeError(
                f"{what} exceeds the prime-table limit {sieve.MAX_TABLE_LIMIT}")
    return sieve.build_factor_table(max(4, *sizes, *(value for _, value in limits)))


def _measure_table(cfg: argparse.Namespace, N: int, Qs,
                   *limits: tuple[str, int]) -> sieve.PrimeTable:
    """The prime table of a measure handler: it covers the support values
    up to m*N + b of measures at scale N, each rough cutoff in Qs, and any
    further limits."""
    span = cfg.m * N + cfg.b
    return _table_for(Qs, (f"--m {shown(cfg.m)} * --N {shown(N)} + --b {shown(cfg.b)} "
                           f"= {shown(span)}", span), *limits)


def _run_sieve_stats(cfg: argparse.Namespace, em: Emitter):
    N = cfg.N
    table = _table_for([N, *(cfg.Q or [])])
    ps = table.primes_up_to(N)
    theta = fsum_real(np.log(ps.astype(np.float64))) if ps.size else 0.0
    results = {
        "pi_N": int(ps.size),
        "chebyshev_theta_over_N": theta / N,
        "largest_prime": int(ps[-1]) if ps.size else None,
    }
    # long-form (x, series, value) rows, by series and then x
    Qs = sorted(cfg.Q or [])
    rows = [(Q, "mertens_product", sieve.mertens_product(Q, 1, table)) for Q in Qs]
    rows += [(Q, "mertens_reference", math.exp(-np.euler_gamma) / math.log(Q))
             for Q in Qs if Q >= 3]
    if rows:
        em.table("sieve_stats", ["x", "series", "value"], list(zip(*rows)))
    return {"table_limit": table.limit}, results


def _run_measure_build(cfg: argparse.Namespace, em: Emitter):
    N = cfg.N
    params = measures.MeasureParams(b=cfg.b, m=cfg.m, N=N)
    # size the table for every --Q and the dyadic split's 2^K now, so an
    # out-of-range cutoff fails before any output is written
    K = (measures.dyadic_cutoff(N, cfg.p_exponent)
         if cfg.p_exponent is not None else None)
    split = ([(f"the dyadic split at --p {cfg.p_exponent}", 2 ** K)]
             if K is not None else [])
    table = _measure_table(cfg, N, cfg.Q or [], *split)
    lam = measures.lambda_measure(params, table)
    em.measure("measure_lambda", lam)
    em.raw("measure_lambda.bin", measures.measure_to_bytes(lam))
    results = {"total": lam.total, "sup": lam.sup_norm()}
    effective = {"table_limit": table.limit}
    rough_totals = {}
    for Q in cfg.Q or []:
        lamq = measures.lambda_q_measure(params, Q, table)
        em.measure(f"measure_rough_Q{Q}", lamq)
        rough_totals[str(Q)] = lamq.total
        # the loop variable would keep the last rough measure, N floats,
        # alive through the split below
        del lamq
    if rough_totals:
        results["rough_totals"] = rough_totals
    if K is not None:
        # each piece is added into recon and measured as it comes, then
        # dropped, so the split holds one piece at a time
        recon = np.zeros(N)
        norms = []

        def take(j: int, psi: measures.Measure) -> None:
            np.add(recon, psi.weights, out=recon)
            norms.append(measures.piece_sup_norm(j, K, psi))

        measures.dyadic_pieces(params, lam, cfg.p_exponent, table, take)
        em.table("dyadic_sup_norms", ["j", "sup", "reference"],
                 list(zip(*[(n.j, n.sup, n.reference) for n in norms])))
        effective["A"] = measures.a_exponent(cfg.p_exponent)
        effective["K"] = K
        results["dyadic_pieces"] = len(norms)
        # |recon - lambda| in recon's own buffer, which nothing reads after
        np.subtract(recon, lam.weights, out=recon)
        results["reconstruction_max_err"] = float(np.abs(recon, out=recon).max())
    return effective, results


def _run_transform_scan(cfg: argparse.Namespace, em: Emitter):
    N = cfg.N
    table = _measure_table(cfg, N, cfg.Q or [])
    params = measures.MeasureParams(b=cfg.b, m=cfg.m, N=N)
    Qs = cfg.Q or [None]
    grid = fourier.TorusGrid(oversample=cfg.oversample)
    M = grid.points(N)
    effective = {"table_limit": table.limit, "grid_points": M}
    results = {}
    for Q in Qs:
        f = (measures.lambda_measure(params, table) if Q is None
             else measures.lambda_q_measure(params, Q, table))
        rows = fourier.wedge_grid(f, M)
        mags = np.abs(rows)
        idx = arcs.profile_indices(mags, M, 4096)
        vals = fourier.grid_values(rows, M, idx)
        tag = "lambda" if Q is None else f"rough_Q{Q}"
        em.table(f"transform_{tag}", ["theta", "re", "im", "abs"],
                 [idx / M, vals.real, vals.imag, np.abs(vals)])
        # every j > 0 is a point of the rows or the mirror of one, of
        # the same magnitude; the rows' first point is j = 0
        sup_offzero = float(np.max(mags.reshape(-1)[1:]))
        # the grid is read; free it before the L^p ladder takes its own
        del rows, mags
        results[tag] = {
            "mass": f.total,
            "sup_offzero_grid": sup_offzero,
            # Parseval; the p = 2 grid rule is exact, since M > span
            "l2_norm": math.sqrt(fsum_real(f.weights**2)),
            "lp_norm": fourier.lp_norm_torus(f, cfg.p_exponent, grid),
        }
    return effective, results


def _run_arc_scan(cfg: argparse.Namespace, em: Emitter):
    N = cfg.N
    table = _measure_table(cfg, N, cfg.Q)
    grid = fourier.TorusGrid(oversample=cfg.oversample)
    params = measures.MeasureParams(b=cfg.b, m=cfg.m, N=N)
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
    lam = measures.lambda_measure(params, table)
    for Q in cfg.Q:
        scan = arcs.sup_diff_scan(params, lam, Q, grid, table, arc_params=aparams,
                                  profile_points=2048)
        em.table(f"arc_scan_Q{Q}", list(scan.profile), scan.profile.values())
        results[str(Q)] = {
            "sup": scan.sup,
            "argmax_theta": scan.argmax_theta,
            "theta0_mass_diff": scan.theta0_mass_diff,
            "reference": scan.reference,
            "sup_major_profiled": scan.sup_major_profiled,
            "sup_minor_profiled": scan.sup_minor_profiled,
        }
    return effective, results


def _draw_sweep(cfg: argparse.Namespace, em: Emitter, name: str, setup) -> dict:
    """cfg.draws random ratios at each N of cfg.N, drawn from the stream
    rng_stream(cfg.seed, f"{name}-N{N}"). setup(N) returns (draw, extra):
    draw(rng) gives one ratio, extra the results kept beside max_ratio.
    Writes {name}_draws; returns the results by N."""
    results = {}
    draw_rows = []
    for N in cfg.N:
        draw, extra = setup(N)
        rng = rng_stream(cfg.seed, f"{name}-N{N}")
        ratios = [draw(rng) for _ in range(cfg.draws)]
        draw_rows.extend((N, d, ratio) for d, ratio in enumerate(ratios))
        results[str(N)] = {"max_ratio": max(ratios), **extra}
    em.table(f"{name}_draws", ["N", "draw", "ratio"], list(zip(*draw_rows)))
    return results


def _run_majorant(cfg: argparse.Namespace, em: Emitter):
    table = _table_for(cfg.N)
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


def _run_restriction(cfg: argparse.Namespace, em: Emitter):
    table = _measure_table(cfg, max(cfg.N), [])
    grid = fourier.TorusGrid(oversample=cfg.oversample)

    def setup(N):
        lam = measures.lambda_measure(
            measures.MeasureParams(b=cfg.b, m=cfg.m, N=N), table)
        support = int(np.count_nonzero(lam.weights))

        def draw(rng):
            fvals = rng.standard_normal(support) + 1j * rng.standard_normal(support)
            return fourier.restriction_ratio(fvals, cfg.p_exponent, lam, grid)

        return draw, {"support": support}

    results = _draw_sweep(cfg, em, "restriction", setup)
    return {"table_limit": table.limit, "p": cfg.p_exponent}, results


def _run_mz_check(cfg: argparse.Namespace, em: Emitter):
    grid = fourier.TorusGrid(oversample=cfg.oversample)

    def setup(N):
        def draw(rng):
            f = measures.Measure(N, rng.standard_normal(N), signed=True)
            return fourier.mz_ratio(f, cfg.p_exponent, grid)

        return draw, {}

    results = _draw_sweep(cfg, em, "mz", setup)
    return {"p": cfg.p_exponent, "oversample": cfg.oversample}, results


def _spectrum_table(em: Emitter, coeffs: np.ndarray) -> None:
    # a is real and fourier.spectrum mirrors it exactly, a~(N - r) =
    # conj a~(r), so the rows r <= N/2 hold the whole spectrum
    half = coeffs[: coeffs.size // 2 + 1]
    em.table("spectrum_a", ["r", "re", "im"],
             [np.arange(half.size), half.real, half.imag])


# the values roth.density_experiment keeps that roth-pipeline writes, each
# with the Emitter call that writes it
_PIPELINE_TABLES = {
    "A0": lambda em, A0: em.table("set_A0", ["value"], [A0]),
    "A": lambda em, A: em.table("set_A", ["value"], [A]),
    "mu": lambda em, mu: em.measure("measure_mu", mu),
    "a": lambda em, a: em.measure("measure_a", a),
    "spectrum": _spectrum_table,
    "bohr": lambda em, bohr: em.table("bohr_members", ["value"], [bohr.members]),
    "a1": lambda em, a1: em.measure("granular_a1", a1),
}


def _run_roth_pipeline(cfg: argparse.Namespace, em: Emitter):
    import queue  # here, so that importing the CLI loads no more modules
    import threading

    n, W = cfg.N, cfg.W
    m = roth.w_modulus(W)
    # the W-trick takes the smallest prime in (2n/m, 4n/m]; by Bertrand's
    # postulate there is one unless 4n/m < 2, which is a flag combination
    # to refuse here rather than a failure of the w-trick stage
    if m > 2 * n:
        raise ParameterError(
            f"W = {W}: m = {m}, the product of the primes <= {max(W, 2)}, "
            f"leaves no prime in (2n/m, 4n/m] for n = {n}; it needs m <= 2n")
    # the w-trick reads primes up to 4n/m and the measure values up to
    # m N + b <= 4n + m
    limit = 4 * n + m + 16
    table = _table_for(
        [], (f"4 * --N {shown(n)} + m + 16 = {shown(limit)} (m = {m} at --W {W})",
             limit))
    # behrend-in-primes runs behrend_set on the indices of the primes <= n
    pi_n = int(table.primes_up_to(n).size)
    if cfg.source == "behrend-in-primes" and pi_n < roth.BEHREND_MIN_N:
        raise ParameterError(
            f"--source behrend-in-primes needs at least {roth.BEHREND_MIN_N} "
            f"primes <= n; n = {n} has {pi_n}")
    # each table goes to one writer thread as soon as its stage keeps it,
    # and is written while the later stages compute; every Emitter call
    # runs there until it has drained, report.json last
    jobs = queue.SimpleQueue()
    failed = []  # the first failure of either thread; the writer skips the rest

    def drain():
        while (job := jobs.get()) is not None:
            if not failed:
                try:
                    job()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    failed.append(exc)

    def keep(name, value):
        if name in _PIPELINE_TABLES:
            jobs.put(functools.partial(_PIPELINE_TABLES[name], em, value))

    writer = threading.Thread(target=drain, name="primeaps-writer")
    writer.start()
    try:
        report = roth.density_experiment(
            cfg.source, n, table, seed=cfg.seed, delta=cfg.delta, eps=cfg.eps,
            W=cfg.W, constants=cfg.constants, keep=keep,
        )
    except BaseException as exc:
        failed.append(exc)
        raise
    finally:
        jobs.put(None)
        writer.join()
    if failed:
        raise failed[0]
    em.json_file("report", report)
    holds = {c["name"]: c["holds"] for c in report["checks"]}
    wt = report["w_trick"]
    effective = {"table_limit": table.limit, "W": W, "m_le_logN": holds["m_le_logN"],
                 **{key: wt[key] for key in ("m", "b", "N")}}
    results = {
        "alpha": report["measure"]["mass_a"],
        "k": report["spectrum"]["k"],
        "bohr_size": report["bohr"]["size"],
        "sup_a1": report["setlike"]["sup_a1"],
        "setlike": holds["setlike"],
        "A_3aps_line_nontrivial": report["counts"]["A_3aps_line_nontrivial"],
        "contradiction": holds["contradiction"],
    }
    return effective, results


def _run_behrend(cfg: argparse.Namespace, em: Emitter):
    results = {}
    for N in cfg.N:
        S = roth.behrend_set(N)
        em.table(f"behrend_N{N}", ["value"], [S])
        size = int(S.size)
        fitted_c = -math.log(size / N) / math.sqrt(math.log(N))
        results[str(N)] = {"size": size, "fitted_c": fitted_c}
    return {}, results


def _run_varnavides(cfg: argparse.Namespace, em: Emitter):
    # writes no file: the bound and its two ledger entries (`checks`) are
    # all in the manifest's results, which also reads each entry's verdict
    # as vacuous or clamped
    C1 = roth.closing_constants(cfg.constants)["C1"]
    vb = roth.varnavides_bound(cfg.alpha, cfg.N, C1=C1)
    results = asdict(vb)
    results |= {c.name.removeprefix("varnavides_"): c.holds for c in vb.checks}
    return {"C1": C1}, results


# subcommand -> (handler, its flags besides _COMMON)
_COMMANDS = {
    "sieve-stats": (_run_sieve_stats, {
        "--N": _REQUIRED | {"type": _Range(int, "[]", 1, sieve.MAX_TABLE_LIMIT)},
        "--Q": None}),
    "measure-build": (_run_measure_build, {
        "--N": _REQUIRED, "--b": 1, "--m": 1, "--Q": None, "--p": None}),
    "transform-scan": (_run_transform_scan, {
        "--N": _REQUIRED, "--b": 1, "--m": 1, "--Q": None, "--p": 2.5,
        "--oversample": 8}),
    "arc-scan": (_run_arc_scan, {
        "--N": _REQUIRED, "--b": 1, "--m": 1, "--Q": _REQUIRED, "--p": 2.5,
        "--oversample": 4, "--B-override": None}),
    "majorant": (_run_majorant, {
        "--N": _N_LIST | {"type": _RangeList(int, "[]", 1, sieve.MAX_TABLE_LIMIT)},
        "--p": 4.0, "--draws": 20, "--oversample": 2}),
    "restriction": (_run_restriction, {
        "--N": _N_LIST | {"type": _RangeList(int, "[)", 1, math.inf)},
        "--b": 1, "--m": 1, "--p": 2.5, "--draws": 20, "--oversample": 2}),
    # mz-check builds no table, but each draw holds N floats: its --N
    # stops at the prime table's cap
    "mz-check": (_run_mz_check, {
        "--N": _N_LIST | {"type": _RangeList(int, "[]", 1, sieve.MAX_TABLE_LIMIT)},
        "--p": 2.5, "--draws": 20, "--oversample": 2}),
    # every W-trick modulus is even and 2 is the one prime below 3, so an
    # n < 3 leaves the W-trick no prime coprime to m
    "roth-pipeline": (_run_roth_pipeline, {
        "--N": _REQUIRED | {"type": _Range(int, "[)", 3, math.inf)},
        "--source": "primes", "--delta": 0.1, "--eps": 0.1, "--W": 2,
        "--constants": None}),
    "behrend": (_run_behrend, {"--N": _N_LIST | {"type": _RangeList(
        int, "[]", roth.BEHREND_MIN_N, roth.BEHREND_MAX_N)}}),
    # varnavides_bound takes 8.0 * N**3 as a float, which overflows once N
    # passes (1.798e308)^(1/3) = 5.64e102
    "varnavides": (_run_varnavides, {
        "--N": _REQUIRED | {"type": _Range(int, "[]", 3, 10**102)},
        "--alpha": _REQUIRED, "--constants": None}),
}
# run() looks each handler up here at call time, so a wrapper put into this
# dict (bench/tracing.py installs one per entry) takes effect
_HANDLERS = {name: handler for name, (handler, _) in _COMMANDS.items()}


# ---------------------------------------------------------------------------
# driver

def run(cfg: argparse.Namespace) -> dict:
    """Execute one experiment, given the parsed flags of its subcommand;
    writes its outputs and manifest.json, and returns the manifest.

    The manifest's config holds the subcommand and its flags, all but
    --output-dir: the manifest records no path, so identical experiments
    write identical manifests wherever their outputs land. Its
    deterministic_hash covers everything but the timings: the wall time,
    the minor page faults taken and the process's peak RSS (10^6 B)."""
    import resource  # here, so that importing the CLI loads no more modules

    em = Emitter(Path(cfg.output_dir), cfg.format)
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    try:
        effective, results = _HANDLERS[cfg.subcommand](cfg, em)
        elapsed = time.perf_counter() - t0
        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is in bytes on macOS and in KiB elsewhere
        rss_unit = 1 if sys.platform == "darwin" else 1024
        manifest = {
            "tool": "primeaps",
            "version": __version__,
            "subcommand": cfg.subcommand,
            "config": _clean({k: v for k, v in vars(cfg).items() if k != "output_dir"}),
            "effective": _clean(effective),
            "results": _clean(results),
            "outputs": em.outputs,
        }
        canon = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
        manifest["deterministic_hash"] = hashlib.sha256(canon.encode("utf-8")).hexdigest()
        manifest["timings"] = {
            "wall_seconds": elapsed,
            "minor_faults": usage.ru_minflt - faults0,
            "peak_rss_mb": usage.ru_maxrss * rss_unit / 1e6,
        }
        em.manifest(manifest)
    except BaseException:
        em.discard()  # a failed run leaves none of its files
        raise
    return manifest


def _emit_error(kind: str, exc: Exception, stage: str | None = None) -> None:
    payload = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    if stage is not None:
        payload["stage"] = stage
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv)
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
