"""Compare the float text kernel of the table writer with float.__repr__.

    PYTHONPATH=src python tests/sweep_float_repr.py --count 10000000 --seed 0

Draws `count` uniformly random 64-bit patterns, reads them as float64 and
formats them with `primeaps.cli._repr_cells` in blocks of
`cli.TABLE_BLOCK_ROWS`, as the table writer does. Prints the number of
values whose text differs from float.__repr__ (it must be 0) and the share
of values the kernel left to float.__repr__, by class: nan and inf,
positional text with |v| >= 10, powers of two from 2^-1021 on, and the
rest, whose rounding interval has an end too near an integer for the
kernel's error bounds. Needs the standard library and numpy only; the name
keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from primeaps import cli


def sweep(count: int, seed: int) -> dict:
    """Mismatches and fallbacks of the kernel on `count` random bit patterns."""
    rng = np.random.default_rng(seed)
    fallback = cli._repr_fallback
    left = []

    def counted(bits):
        left.append(bits.copy())
        return fallback(bits)

    cli._repr_fallback = counted
    mismatches = 0
    examples = []
    try:
        for lo in range(0, count, cli.TABLE_BLOCK_ROWS):
            size = min(cli.TABLE_BLOCK_ROWS, count - lo)
            bits = rng.integers(0, 1 << 64, size, dtype=np.uint64, endpoint=False)
            cells = cli._repr_cells(bits)
            flat = cells.ravel()
            got = flat[flat != 0].tobytes()
            want = "".join(map(repr, bits.view(np.float64).tolist())).encode()
            if got != want:
                for row, value in zip(cells, bits.view(np.float64).tolist()):
                    text = row[row != 0].tobytes().decode()
                    if text != repr(value):
                        mismatches += 1
                        examples.append((repr(value), text))
    finally:
        cli._repr_fallback = fallback
    left = np.concatenate(left) if left else np.zeros(0, dtype=np.uint64)
    return {"count": count, "mismatches": mismatches, "examples": examples[:10],
            "fallback": int(left.size), **fallback_classes(left)}


def fallback_classes(bits: np.ndarray) -> dict:
    """How many of the float64 bit patterns fall in each fallback class;
    a value is counted in the first class that holds it."""
    values = np.abs(bits.view(np.float64))
    bexp = (bits >> 52) & 0x7FF
    nonfinite = bexp == 0x7FF
    # repr is positional from 1e-4 up to, not including, 1e16
    wide = ~nonfinite & (values >= 10) & (values < 1e16)
    power = ~nonfinite & ~wide & ((bits & ((1 << 52) - 1)) == 0) & (bexp > 1)
    rest = ~(nonfinite | wide | power)
    return {name: int(np.count_nonzero(mask)) for name, mask in
            (("nan/inf", nonfinite), ("positional >= 10", wide),
             ("power of two", power), ("open end", rest))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=10 ** 6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    t0 = time.perf_counter()
    result = sweep(args.count, args.seed)
    elapsed = time.perf_counter() - t0
    count = result["count"]
    print(f"patterns: {count}  seed: {args.seed}  seconds: {elapsed:.1f}")
    print(f"mismatches: {result['mismatches']}")
    for want, got in result["examples"]:
        print(f"  repr {want}  kernel {got}")
    print(f"fallback: {result['fallback']} ({result['fallback'] / count:.3%})")
    for name in ("nan/inf", "positional >= 10", "power of two", "open end"):
        print(f"  {name}: {result[name]} ({result[name] / count:.4%})")


if __name__ == "__main__":
    main()
