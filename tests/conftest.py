import argparse

import pytest

from primeaps import cli
from primeaps.sieve import build_factor_table

# covers m*N + b up to m=6, N=1e6 used by the heaviest checks
TABLE_LIMIT = 6_000_010


@pytest.fixture(scope="session")
def table():
    return build_factor_table(TABLE_LIMIT)


@pytest.fixture(scope="session")
def small_table():
    return build_factor_table(20_000)


@pytest.fixture(scope="session")
def flag_dests():
    """Each subcommand's flag dests, as its parser declares them."""
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest for a in sp._actions if a.dest != "help"}
            for name, sp in subs.choices.items()}
