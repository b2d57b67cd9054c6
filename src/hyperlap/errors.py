"""Exception types shared across the library.

Everything derives from HyperlapError so callers can catch library failures
with one except clause; most also derive from ValueError because they signal
bad inputs.
"""


class HyperlapError(Exception):
    """Base class for all library-specific errors."""


class BadVertex(HyperlapError, ValueError):
    """Vertex label out of range, repeated, or not an integer."""


class BadRank(HyperlapError, ValueError):
    """Colex rank outside [0, C(n,s))."""


class BadParams(HyperlapError, ValueError):
    """Parameter combination violates a documented precondition."""


class DegenerateKneser(HyperlapError, ValueError):
    """Kneser graph K(n,s) needs n >= 2s."""


class NotLoose(BadParams):
    """Stop size s must satisfy 1 <= s <= r/2."""


class TooLarge(HyperlapError, ValueError):
    """Requested enumeration or matrix exceeds the work budget."""


class StopTooLarge(HyperlapError, ValueError):
    """Stop size s exceeds the edge size r."""


class EigenFail(HyperlapError, RuntimeError):
    """Symmetric eigensolver failed to converge."""


class Disconnected(HyperlapError, ValueError):
    """Operation needs a connected auxiliary graph."""


class DimMismatch(HyperlapError, ValueError):
    """Matrix or vector dimensions do not agree."""


class EmptySample(HyperlapError, ValueError):
    """Statistic of an empty sample requested."""


class NotGood(HyperlapError, ValueError):
    """Walk is not good: some edge appears exactly once."""


class EmptyFamily(HyperlapError, ValueError):
    """Set family must be nonempty."""


class ZeroDegree(HyperlapError, ValueError):
    """Operation needs every s-set to have positive degree."""
