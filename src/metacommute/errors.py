"""Exception types raised across the package."""

# the most characters of an input that an error message echoes
_ECHO_MAX = 40


def _echo(text: str) -> str:
    """text as an error message quotes it: cut to _ECHO_MAX characters and
    "..." when longer, so a huge input gives a short error line."""
    return text if len(text) <= _ECHO_MAX else text[:_ECHO_MAX] + "..."


class MetacommuteError(Exception):
    """Base class for all errors raised by this package."""


class ParityError(MetacommuteError, ValueError):
    """Doubled coordinates are not all congruent mod 2."""


class ZeroInput(MetacommuteError, ValueError):
    """Operation is undefined for the zero quaternion or the zero vector."""


class DomainError(MetacommuteError, ValueError):
    """An argument lies outside the set a function or value type is defined on."""


class DivideByZero(MetacommuteError, ZeroDivisionError):
    """Division by the zero quaternion."""


class UnsupportedPrime(MetacommuteError, ValueError):
    """p is 2 or not a rational prime; the mod-p machinery needs an odd prime."""


class ModulusMismatch(MetacommuteError, ValueError):
    """Two mod-p values with different moduli were combined."""


class SingularMatrix(MetacommuteError, ArithmeticError):
    """Matrix inverse or projective action requested for det = 0."""


class CoprimalityError(MetacommuteError, ValueError):
    """N(Q) shares a factor with p; the metacommutation map needs gcd(N(Q), p) = 1."""


class NonPrimeNorm(MetacommuteError, ValueError):
    """A norm is not a rational prime: a prime class needs one."""


class ScaleLimit(MetacommuteError, ValueError):
    """Exhaustive enumeration requested beyond its supported size."""


class InternalInvariantViolation(MetacommuteError, RuntimeError):
    """A checked internal invariant failed; indicates a defect, not bad input."""


class ParseError(MetacommuteError, ValueError):
    """Malformed quaternion literal or CLI value."""
