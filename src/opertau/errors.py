"""Exception types shared across the library."""


class OpertauError(Exception):
    """Base class for every error raised by this package."""


class NotInvertible(OpertauError):
    """Inversion of a series or operator with no invertible leading part."""


class TailOverflow(OpertauError):
    """A microdifferential computation left no trusted coefficient window."""


class NotMonic(OpertauError):
    """Operator expected to have top coefficient exactly 1."""


class BadArgument(OpertauError):
    """Argument outside the documented domain."""


class BadMiuraInput(OpertauError):
    """Miura data must be pole-free power series."""


class NotOperForm(OpertauError):
    """Connection matrix is not in oper form (unit subdiagonal, zeros below)."""


class WindowOverflow(OpertauError):
    """A state or frame left the configured finite window."""


class DegenerateFrame(OpertauError):
    """Frame columns are linearly dependent inside the window."""


class ChargeMismatch(OpertauError):
    """Operation requires a charge-zero Grassmannian point."""


class SingularPair(OpertauError):
    """Coincident evaluation points in a contraction kernel."""


class NotCommuting(OpertauError):
    """Spectral-relation search requires a commuting pair of operators."""


class Unsupported(OpertauError):
    """Requested combination of parameters is documented as out of scope."""


class ParseError(OpertauError):
    """Malformed input: a syntax error in an operator expression or a JSON
    file, or a JSON document of the wrong shape.  Carries line and column
    when the input text locates the error."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class InvariantViolation(OpertauError):
    """An internal contract failed; indicates a bug, not bad input."""
