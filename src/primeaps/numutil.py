"""Small numeric helpers: unit phases, compensated sums, torus distance,
seeded per-stage random streams."""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np


def e(x: np.ndarray) -> np.ndarray:
    """e(x) = exp(2*pi*i*x) of an array, with x reduced mod 1 before
    evaluation. The mod-1 reduction keeps phases accurate for arguments
    much larger than 1.
    """
    frac = x - np.floor(x)
    return np.exp(2j * np.pi * frac)


FSUM_CHUNK = 1 << 16  # values that fsum_real turns into Python floats at a time


def fsum_real(values) -> float:
    """Exactly rounded sum of real values (compensated summation).

    Only the nonzero values are summed: a +-0.0 term adds nothing to
    math.fsum, and most weights of a measure on a sparse support are 0.
    One math.fsum reads them in order, FSUM_CHUNK values at a time, so the
    sum, and any OverflowError or ValueError, is that of math.fsum over
    the whole list, while no more than one chunk is held as Python floats.
    """
    arr = np.asarray(values, dtype=float).ravel()
    chunks = (arr[lo:lo + FSUM_CHUNK] for lo in range(0, arr.size, FSUM_CHUNK))
    return math.fsum(itertools.chain.from_iterable(
        chunk[chunk != 0].tolist() for chunk in chunks))


def loglog_clamped(q: float) -> float:
    """log log q, clamped at 1 (and taken as 1 for q below 16).

    The clamp keeps reciprocal reference quantities like loglog(Q)/Q finite
    and monotone at small Q, where the double log dips below 1 (or 0).
    """
    if q < 16.0:
        return 1.0
    return max(math.log(math.log(q)), 1.0)


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Independent deterministic generator for (seed, label).

    The label is folded in through a stable hash so adding a stream to one
    stage never shifts the draws of another.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    tag = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))
