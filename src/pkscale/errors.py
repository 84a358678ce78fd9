"""Exception types shared across the package.

Kernels raise these instead of bare ValueError/IndexError so callers (and the
CLI exit-code mapping) can tell configuration mistakes from bad input data.
"""


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class IndexOutOfRange(IndexError):
    """A projection or translation index lies outside its valid range."""


class DomainError(ValueError):
    """A numeric parameter violates the operation's stated domain."""


class SingularMatrix(ValueError):
    """A projection matrix is singular or too ill-conditioned to invert."""


class CounterMismatch(RuntimeError):
    """An instrumented operation counter disagrees with the analytic model."""


class EmptyGallery(ValueError):
    """A feature gallery contains no entries to match against."""


class EmptyDb(ValueError):
    """A signal database contains no entries to match against."""


class ZeroReference(ValueError):
    """The reference signal for an error metric has zero energy."""


class ParseError(ValueError):
    """A data file could not be parsed; the message names the file."""


class HeterogeneousDims(ValueError):
    """Images in one ingestion batch disagree in their dimensions."""


class ConfigError(ValueError):
    """Command-line or benchmark configuration is invalid."""


class ZeroEnergyEntry(UserWarning):
    """Warning category for database entries skipped due to zero energy."""
