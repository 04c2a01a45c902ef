"""Exception types shared across the package."""


class LogboundError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LogboundError):
    """Expression text does not conform to the grammar.

    Carries the 0-based character position of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(LogboundError):
    """Evaluation left the natural domain of a function (ln of a
    non-positive number, sqrt of a negative number, division by zero,
    argument outside a bound's region)."""


class OutOfRegionError(DomainError):
    """A bound was evaluated outside its region of validity."""


class NonDifferentiableError(DomainError):
    """A jet was requested at a point where the expression is not
    differentiable to the requested order (e.g. sqrt at 0)."""


class PrecisionError(LogboundError):
    """The working precision is insufficient to resolve the quantity
    being computed."""


class BudgetError(LogboundError):
    """A bounded search exhausted its budget without a verified result.
    Usually a sign that the working precision should be raised."""


class QVanishesError(DomainError):
    """The denominator polynomial of a rational candidate vanishes or
    changes sign on the region under test."""
