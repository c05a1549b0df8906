"""Desk-scale computational companion to the circle-method proof that
dense subsets of the primes contain three-term arithmetic progressions.

Subpackages by role:

- sieve: factor tables, multiplicative functions, rough/smooth supports
- measures: prime and almost-prime measures, dyadic split, local densities
- fourier: exponential sums, torus norms, trilinear 3AP counting
- arcs: rational approximation, major/minor arc scans, minor-arc bounds
- roth: W-trick, Bohr-set granularization, closing bounds, Behrend sets
- cli: batch experiment runner with reproducible manifests
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
    gamma_rq,
    lambda_measure,
    lambda_q_measure,
    sigma_aq,
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
    "gamma_rq",
    "sigma_aq",
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
