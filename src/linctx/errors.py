"""Exception types shared across the package."""


class LinctxError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(LinctxError):
    """An operation was called on inputs that violate its stated precondition."""


class MalformedTermError(LinctxError):
    """A term is not locally closed where local closure is required."""


class SyntaxError_(LinctxError):
    """A parse failure, carrying the offending position in the input."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnboundIdentifierError(SyntaxError_):
    """An identifier was used that is neither binder-bound nor a declared nominal."""


class LinearityError(LinctxError):
    """A variable was used a number of times other than exactly once."""


class UnmappedVariableError(LinctxError):
    """A free variable has no entry in the translation context."""


class ShapeError(LinctxError):
    """A statement or specification does not have the shape a procedure requires."""

