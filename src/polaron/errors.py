"""Exception hierarchy shared by all modules, and the memory budget
above which a computation is refused with ResourceError."""

BYTE_BUDGET = 2**30  # max bytes counted by oracle._bytes_needed or selfenergy._PAIR_ARRAYS


class PolaronError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PolaronError):
    """Malformed or inconsistent input (dimension mismatch, bad config key)."""


class DomainError(PolaronError):
    """Evaluation requested outside the mathematical domain of an operation."""


class NumericError(PolaronError):
    """A numerical procedure failed to converge."""


class ResourceError(PolaronError):
    """A requested computation exceeds the configured memory/cost budget."""
