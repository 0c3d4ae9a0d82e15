"""Exception types shared across the package."""


class BordcalcError(Exception):
    """Base class for every error raised by this package."""


class ContractViolation(BordcalcError):
    """An operation was called outside its documented precondition."""


class CapacityError(BordcalcError):
    """A request went past the configured degree cap."""


class NotDivisible(BordcalcError):
    """Division by the Euler class failed; carries the obstructing augmentation."""

    def __init__(self, remainder):
        super().__init__('not divisible by e: augmentation is %s' % (remainder,))
        self.remainder = remainder


class IntegrityError(BordcalcError):
    """An internal cross-check failed; indicates an inconsistent catalog."""


class ParseError(BordcalcError):
    """Syntax error carrying the offset and the tokens that would have been legal."""

    def __init__(self, position, expected, found=None):
        self.position = position
        self.expected = tuple(expected)
        self.found = found
        super().__init__('syntax error at position %d: expected %s'
                         % (position, ', '.join(self.expected)))
