"""Exception hierarchy for the theta-lift calculator.

Every domain error derives from ThetaLiftError so callers can catch the
whole family at once. Errors that mean a bug rather than bad input derive
from InternalError as well; the CLI maps them to exit code 3 and every
other domain error, which arises from user input, to exit code 2.
"""

from __future__ import annotations


class ThetaLiftError(Exception):
    """Base class for all domain errors raised by this package."""


class InternalError(ThetaLiftError):
    """An internal-consistency check failed; a bug, not bad input.

    Raised explicitly rather than by assert, so it survives python -O.
    """


class WrongParityClass(ThetaLiftError):
    """An entry does not lie in the required coset of (1/2)Z."""


class NotDominant(ThetaLiftError):
    """A coordinate block that must strictly decrease fails to."""


class RepeatedEntry(ThetaLiftError):
    """Harish-Chandra parameters must have globally distinct entries."""


class ChainNotPresent(ThetaLiftError):
    """A requested centered chain is not contained in either part."""


class UnclassifiableZero(ThetaLiftError):
    """A zero survives outside the removed chain in a strict split."""


class ParityMismatch(ThetaLiftError):
    """Character exponents and dimensions disagree modulo 2."""


class SignatureMismatch(ThetaLiftError):
    """A computed signature differs from the requested target."""


class InternalWeaklyFairViolation(InternalError):
    """A constructed induction datum left the weakly fair range; a bug."""


class ChamberAmbiguous(ThetaLiftError):
    """A tie across compact factors leaves the dominant chamber unset."""


class NotCompactLevi(ThetaLiftError):
    """A block of mixed signature admits no discrete-series reading."""


class NotGoodRange(ThetaLiftError):
    """Block values are outside the good range for the requested move."""


class MalformedCharacter(ThetaLiftError):
    """A sign character violates the constraints of its component group."""


class InternalLemmaMismatch(InternalError):
    """Two derivations that must agree disagreed; a bug, not bad input."""


class PreconditionViolation(ThetaLiftError):
    """A documented precondition of an operation does not hold."""


class PatternMismatch(ThetaLiftError):
    """Highest-weight data fails the shape constraints of a correspondence."""
