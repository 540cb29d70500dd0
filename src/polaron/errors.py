"""Exception hierarchy shared by all modules, and the memory budget
above which a computation is refused with ResourceError."""

# max bytes counted before a build: by oracle._bytes_needed, by
# selfenergy._PAIR_ARRAYS and by quadrature._continuum_words
BYTE_BUDGET = 2**30


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
