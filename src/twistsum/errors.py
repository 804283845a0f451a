"""Exception types shared across the package."""

from __future__ import annotations


class TwistsumError(Exception):
    """Base class for all errors raised by this package."""


class NotDivisible(TwistsumError):
    """Exact Laurent division left a nonzero remainder."""


class NotAlexanderLike(TwistsumError):
    """Polynomial cannot be normalized as an Alexander polynomial (value at 1 is not +-1)."""


class NotAKnot(TwistsumError):
    """Braid closure has more than one component where a knot is required."""


class InternalInvariantViolation(TwistsumError):
    """An identity that must hold mathematically failed; indicates a bug, not bad input."""


class TooManyStrands(TwistsumError):
    """Bracket computation refused: the diagram basis would be too large.

    Carries ``strands``, ``threshold`` and ``basis_size`` (the Catalan number
    of the strand count, or the text "C(<strands>)" where that number has too
    many digits to print) so callers can report why the computation was skipped.
    """

    def __init__(self, strands: int, threshold: int, basis_size: int | str):
        super().__init__(f"strands {strands} exceeds threshold {threshold}")
        self.strands = strands
        self.threshold = threshold
        self.basis_size = basis_size


class ExponentNotDivisibleBy4(InternalInvariantViolation):
    """Writhe-corrected bracket had an exponent not divisible by 4; convention bug detector."""


class EmptyDiagram(TwistsumError):
    """The braid word has no crossings, so there is no planar diagram to emit."""


class ExpressionSyntaxError(TwistsumError):
    """Knot-expression text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position
