"""Exception types shared across the package."""


class OptbasisError(Exception):
    """Base class for all errors raised by this package."""


class SingularOperator(OptbasisError):
    """Factorization found an exactly or numerically singular operator."""


class DimensionMismatch(OptbasisError):
    """Operand shapes are incompatible."""


class NotReciprocal(OptbasisError):
    """An operator's transpose is not the operator under the given reversal, Lᵀ != P L P."""


class SvdFailure(OptbasisError):
    """Dense SVD did not converge."""


class OrderTooHigh(OptbasisError):
    """Requested difference order does not fit on the grid."""


class ProblemTooLarge(OptbasisError):
    """Refused before the work starts: a dense verification path exceeds its size guard,
    or a block LU's entries exceed the process's address-space limit."""


class SingularTheta(OptbasisError):
    """Observation Gram matrix is numerically singular."""


class RankDeficient(OptbasisError):
    """A matrix that must have full column rank does not."""


class RankExhausted(OptbasisError):
    """Requested truncation level exceeds the available basis rank."""


class Diverged(OptbasisError):
    """An iteration left its trust region or did not converge within its budget."""


class VanishingReference(OptbasisError):
    """The reference solution vanishes, so relative errors against it are undefined."""


class NonFiniteResult(OptbasisError):
    """A computed result overflowed or is NaN."""


class BoundViolation(OptbasisError):
    """A theoretical inequality failed beyond its roundoff allowance."""


class ConfigInvalid(OptbasisError):
    """Experiment configuration failed validation; message names the key."""


class InvalidArgument(OptbasisError, ValueError):
    """A library function was given a value outside its domain.

    Also a ValueError, the builtin type for such a value, so callers that
    catch that catch this one too.
    """


class SidecarMismatch(OptbasisError, OSError):
    """A basis file's metadata sidecar is malformed or describes a different basis.

    Also an OSError, like the other malformed-file errors of ``obf.read_basis``,
    so callers that catch those catch this one too.
    """


class RankDeficientWarning(UserWarning):
    """Non-fatal notice that a sketch's numerical rank fell below the requested rank."""
