"""Exception hierarchy shared by the whole package: every library check raises
an NPatchError.  The CLI exits with 2 on a NumericError, 1 on any other."""

import numbers
import operator


class NPatchError(Exception):
    """Base class for all library errors."""


class ParseError(NPatchError):
    """Input document could not be parsed; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = "%s (line %d, column %d)" % (message, line, column or 0)
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(NPatchError):
    """Document parsed but a field is missing or invalid."""


class ClosureError(NPatchError):
    """Boundary loop corners do not meet within tolerance."""


class DomainError(NPatchError, ValueError):
    """Parameter or point outside its admissible domain (a ValueError too)."""


class NumericError(NPatchError):
    """A numerical procedure failed to converge."""


def integer(value, name, least=None):
    """value as a Python int; DomainError unless it is a Python or numpy integer >= least."""
    # int first: the ABC check alone is slow, and the kernel passes a Python int per block
    if not isinstance(value, (int, numbers.Integral)) or (least is not None and value < least):
        raise DomainError("%s must be an integer%s, got %r"
                          % (name, "" if least is None else " >= %d" % least, value))
    return operator.index(value)  # a narrow numpy int would overflow in arithmetic
