"""Desk-scale computational companion to the circle-method proof that
dense subsets of the primes contain three-term arithmetic progressions.

Subpackages by role:

- sieve: factor tables, Euler phi, Mertens products, prime/rough supports
- measures: prime and almost-prime measures, dyadic split, PMSR round trip
- fourier: Z_N spectra, torus grids and L^p norms, trilinear 3AP counting
- arcs: rational approximation, arc classification, sup-difference scans
- roth: W-trick, Bohr-set granularization, closing bounds, Behrend sets
- cli: batch experiment runner with reproducible manifests

The paper's closed forms and bounds that no subcommand runs (local
densities, major-arc main terms, minor-arc and dyadic-piece bounds) and
the direct-summation oracles live beside the tests, in tests/paper.py.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateInputError,
    DeskScaleWarning,
    DomainError,
    GridConvergenceWarning,
    ParameterError,
    PreconditionError,
    StageError,
    TableRangeError,
)
from .sieve import FactorTable, build_factor_table
from .measures import (
    Measure,
    MeasureParams,
    dyadic_pieces,
    lambda_measure,
    lambda_q_measure,
)
from .fourier import TorusGrid, idft, lp_norm_torus, spectrum, triple_count
from .arcs import ArcParams, classify, dirichlet_approx, sup_diff_scan
from .roth import (
    BohrSet,
    WTrickResult,
    behrend_set,
    bohr_set,
    count_3aps,
    density_experiment,
    final_inequality,
    granularize,
    setlike_check,
    varnavides_bound,
    w_trick,
)

__all__ = [
    "__version__",
    "ConfigError",
    "TableRangeError",
    "PreconditionError",
    "ParameterError",
    "DegenerateInputError",
    "DomainError",
    "StageError",
    "DeskScaleWarning",
    "GridConvergenceWarning",
    "FactorTable",
    "build_factor_table",
    "Measure",
    "MeasureParams",
    "lambda_measure",
    "lambda_q_measure",
    "dyadic_pieces",
    "TorusGrid",
    "spectrum",
    "idft",
    "lp_norm_torus",
    "triple_count",
    "ArcParams",
    "dirichlet_approx",
    "classify",
    "sup_diff_scan",
    "WTrickResult",
    "w_trick",
    "BohrSet",
    "bohr_set",
    "granularize",
    "setlike_check",
    "count_3aps",
    "varnavides_bound",
    "final_inequality",
    "behrend_set",
    "density_experiment",
]
