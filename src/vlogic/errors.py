"""Exception hierarchy shared by all vlogic modules."""


class VectorLogicError(Exception):
    """Base class for all vlogic errors."""


class DimensionMismatch(VectorLogicError):
    pass


class NotUnitNorm(VectorLogicError):
    """A truth vector is not unit-norm; caller must pre-normalize."""


class NearlyDependent(VectorLogicError):
    """|<s,n>| too close to 1; the dual-vector formula blows up."""


class BadEpsilon(VectorLogicError):
    pass


class QTooSmall(VectorLogicError):
    pass


class UnknownName(VectorLogicError):
    pass


class UnknownGate(UnknownName):
    pass


class UnsupportedArity(VectorLogicError):
    """No reference signatures exist for the requested gate arity."""


class NonCommuting(VectorLogicError):
    """Series argument is not in span{I, N}, the commutative logic algebra."""


class SeriesNotConverged(VectorLogicError):
    pass


class BadArgument(VectorLogicError):
    """An argument of the wrong type or out of range: a dim or seed that is
    no int (bool, float, str), a negative seed, a dim beyond the largest
    array length, a gate name that is no str. The message names the argument."""
