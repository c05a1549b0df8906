import argparse
import math

import numpy as np
import pytest

from primeaps import cli
from primeaps.sieve import build_factor_table

import paper

# covers m*N + b up to m=6, N=1e6 used by the heaviest checks
TABLE_LIMIT = 6_000_010


@pytest.fixture(scope="session")
def table():
    return build_factor_table(TABLE_LIMIT)


@pytest.fixture(scope="session")
def small_table():
    return build_factor_table(20_000)


@pytest.fixture(scope="session")
def spf_table():
    """The smallest-prime-factor oracle over the small table's range, for
    the paper.* oracles; calls into primeaps take table or small_table."""
    return paper.build_spf_table(20_000)


@pytest.fixture(scope="session")
def flag_dests():
    """Each subcommand's flag dests, as its parser declares them."""
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest for a in sp._actions if a.dest != "help"}
            for name, sp in subs.choices.items()}


# the 1-D transform entry points of numpy.fft, as bench/tracing.py lists them
_FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")


@pytest.fixture
def transforms(monkeypatch):
    """The (name, length, rows) of every 1-D numpy.fft transform taken
    while the test runs, in call order. The length is the transform's: `n`
    when it is given, else the input's length along the call's axis, or
    2 (m - 1) for irfft and hfft of m bins, as bench/tracing.py reads it.
    The rows are how many transforms of that length one call batches: the
    input's size over its length along the axis, 1 for a 1-D input. Clear
    the list to record one call on its own."""
    calls = []

    def record(name, original):
        def transform(a, *args, **kwargs):
            n = args[0] if args else kwargs.get("n")
            axis = args[1] if len(args) > 1 else kwargs.get("axis", -1)
            shape = list(np.shape(a))
            m = shape.pop(axis)
            if n is None:
                n = 2 * (m - 1) if name in ("irfft", "hfft") else m
            calls.append((name, int(n), math.prod(shape)))
            return original(a, *args, **kwargs)
        return transform

    for name in _FFT_1D:
        monkeypatch.setattr(np.fft, name, record(name, getattr(np.fft, name)))
    return calls
