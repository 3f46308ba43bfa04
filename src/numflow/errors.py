"""Exception types, and the type rules for numbers read from files, shared
across the package."""

import numbers


def _is_int(v) -> bool:
    """Whether ``v`` is an integer, numpy's included, and not a bool."""
    return type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))


def _real(v, name: str) -> float:
    """``v`` as a float. A file's real-valued field must hold a JSON number:
    a bool or a string raises TypeError naming ``name``."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        raise TypeError(f"{name} must be a number, got {v!r}")
    return float(v)


class NumflowError(Exception):
    """Base class for all library errors."""


class NoPath(NumflowError):
    """Destination unreachable from source."""


class InvalidPath(NumflowError):
    """A class path is not a directed walk src -> dst of distinct integer link ids 1..L."""


class TooManyClasses(NumflowError):
    """Requested more classes than admissible source-destination pairs."""


class InsufficientPaths(NumflowError):
    """Fewer link-disjoint paths exist than requested."""


class NotLegendre(NumflowError):
    """Operation requires a strictly concave differentiable (Legendre) family."""


class MixedTags(NumflowError):
    """Class members must share a single utility family."""


class MixedExponent(NumflowError):
    """Negative-power members of one class must share the exponent."""


class DomainError(NumflowError):
    """Argument lies outside the function's effective domain."""


class DimensionMismatch(NumflowError):
    """Vector/matrix dimensions inconsistent with the instance."""


class NotSupportedUtility(NumflowError):
    """Solver does not handle this utility family."""


class MaxIterExceeded(NumflowError):
    """An inner loop gave up: the projection's NNLS solve hit its iteration
    limit or degenerated (ill-conditioned projection), or a projected-gradient
    step found no ascent within 30 halvings of its trial step."""


class InconsistentTargets(NumflowError):
    """Path aggregates and per-flow targets disagree beyond tolerance."""


class NonConvergence(NumflowError):
    """Reference oracle failed to reach its residual target."""


class IoError(NumflowError):
    """A file could not be read, parsed or written."""
