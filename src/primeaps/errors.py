"""Exception and warning types shared across the package, and how their
messages write an integer.

All validation-style failures derive from ValueError so the CLI can map
them uniformly to the bad-input exit code; compute-stage failures are
wrapped in StageError and carry the stage tag.
"""


def shown(value: int) -> str:
    """An integer as a message writes it: in full when |value| < 10^30, to
    three digits past that (1.23e+40, -1.23e+40), so no message carries a
    huge number."""
    if abs(value) < 10**30:
        return str(value)
    from decimal import Decimal  # here, so that importing loads no more modules
    return f"{Decimal(value):.2e}"


class ConfigError(ValueError):
    """A constructor argument is outside its supported range."""


class TableRangeError(ValueError):
    """A query left the range covered by a precomputed table."""


class PreconditionError(ValueError):
    """A mathematical precondition of the operation is violated."""


class ParameterError(ValueError):
    """A tuning parameter is outside its admissible set."""


class DegenerateInputError(ValueError):
    """Input is structurally empty or degenerate for the operation."""


class StageError(RuntimeError):
    """A pipeline stage failed; message is tagged with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class DeskScaleWarning(UserWarning):
    """An asymptotic hypothesis is violated at desk scale (recorded, not fatal)."""


class GridConvergenceWarning(UserWarning):
    """A torus-grid quadrature failed its self-consistency contract."""
