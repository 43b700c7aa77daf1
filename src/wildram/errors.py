"""Exception types shared across the package.

Every mathematically meaningful failure gets its own class so callers
(and the CLI exit-code logic) can distinguish "the input is malformed"
from "the computation would exceed its enumeration budget".
"""


class WildramError(Exception):
    """Base class for all package errors."""


class NotPrime(WildramError):
    """A parameter required to be prime is not."""


class ReducibleModulus(WildramError):
    """A user-supplied field modulus is not irreducible."""


class DegreeMismatch(WildramError):
    """Polynomial or field degrees are incompatible."""


class NoEmbedding(WildramError):
    """No field embedding exists (source degree does not divide target degree)."""


class ZeroPolynomial(WildramError):
    """The zero polynomial was passed where a nonzero one is required."""


class ZeroBase(WildramError):
    """Root extraction from zero requested."""


class FieldMismatch(WildramError):
    """Operands live over different coefficient fields."""


class Inseparable(WildramError):
    """An operation requires a separable polynomial."""


class BudgetExceeded(WildramError):
    """An enumeration would exceed the configured budget."""


class DegenerateMap(WildramError):
    """The rational map is constant or has identically vanishing derivative."""


class NotFixed(WildramError):
    """Multiplier requested at a point that is not fixed."""


class NotAdditiveShape(WildramError):
    """Input polynomial is not of additive (plus constant) shape."""


class UnsupportedExtension(WildramError):
    """Root extraction would need a field extension this domain cannot build."""


class ZeroDivisor(WildramError):
    """Inversion hit a zero divisor; carries the offending factor."""

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class BadResidueChoice(WildramError):
    """The chosen residue of the parameter s is inconsistent with s^(p-1) = a."""


class NegativeValuation(WildramError):
    """Residue requested for an element with a pole at the ramified prime."""


class BadDenominator(WildramError):
    """A coordinate denominator is divisible by the residue characteristic."""


class BadParameter(WildramError):
    """A numeric parameter is outside its allowed range."""


class NotPolynomial(WildramError):
    """A polynomial map was required but a genuine rational map was given."""


class BadInput(WildramError):
    """An input file is malformed: not JSON, or missing or mistyped fields."""


class CertificateFailed(WildramError):
    """An internal verification of a computed result failed (a bug, not bad input)."""


def _certify(cond, msg: str) -> None:
    """Raise CertificateFailed unless cond; unlike assert, kept under -O."""
    if not cond:
        raise CertificateFailed(msg)
