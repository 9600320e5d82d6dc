"""Exception hierarchy and the checks shared by the whole package: every library check raises an
NPatchError, these DomainError.  The CLI exits with 2 on a NumericError, 1 on any other."""

import math
import numbers
import operator

import numpy as np

# most triangles, off-edge table entries or contour levels a size argument may ask for
SIZE_BUDGET = 2**28


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
    """Document parsed but a field is missing or invalid (read_loop, the CLI's eval flags)."""


class ClosureError(NPatchError):
    """Boundary loop corners do not meet within tolerance."""


class DomainError(NPatchError, ValueError):
    """Parameter or point outside its admissible domain (a ValueError too)."""


class NumericError(NPatchError):
    """A numerical procedure failed to converge."""


def _bounds(least, most):  # " >= least and <= most" for a message, infinite bounds left out
    return " and".join(" %s %s" % b for b in ((">=", least), ("<=", most)) if math.isfinite(b[1]))


def integer(value, name, least=-math.inf, most=math.inf):
    """value as a Python int; DomainError unless a Python or numpy integer, not a boolean,
    in [least, most]."""
    # int first: the ABC check alone is slow, and eval_boundary checks a side index per query
    if (not isinstance(value, (int, numbers.Integral)) or isinstance(value, bool)
            or not least <= value <= most):
        raise DomainError("%s must be an integer%s, got %r" % (name, _bounds(least, most), value))
    return operator.index(value)  # a narrow numpy int would overflow in arithmetic


def real(value, name, least=-math.inf, most=math.inf):
    """value as a Python float; DomainError unless it is a finite number in [least, most]:
    an array() of shape (), so not a boolean."""
    number = float(array(value, name, ()))  # a narrow numpy float would round in arithmetic
    if not (least <= number <= most and math.isfinite(number)):
        raise DomainError("%s must be a finite number%s, got %r"
                          % (name, _bounds(least, most), value))
    return number


def array(value, name, *shapes):
    """np.asarray(value), its dtype kept; DomainError unless it is a rectangular array of
    integers or reals of one of shapes, if any, where None matches any length."""
    try:
        value = np.asarray(value)
    except (TypeError, ValueError):  # ragged nesting; numpy's message varies by version
        raise DomainError("%s must be a rectangular array of numbers" % name) from None
    got = value.shape
    # by kind, before any cast: bool, complex, str and object arrays fail without a warning
    if value.dtype.kind not in "iuf" or shapes and got not in [
            tuple([v if k is None else k for k, v in zip(shape, got)])
            for shape in shapes if len(shape) == len(got)]:
        raise DomainError("%s must be numbers of shape %s, got %s %s" % (name, " or ".join(
            map(str, shapes)).replace("None, None", "k, d").replace("None", "k") or "any",
            value.dtype, got))
    return value


class overflow:
    """Context that runs its block under np.errstate(over="raise") and turns the
    FloatingPointError of an overflow into DomainError("<what> overflows the float range")."""

    def __init__(self, what):  # a class: a contextlib generator costs about 2 µs more per entry
        self.what = what
        self.state = np.errstate(over="raise")

    def __enter__(self):
        self.state.__enter__()

    def __exit__(self, kind, error, trace):
        self.state.__exit__(kind, error, trace)
        if kind is not None and issubclass(kind, FloatingPointError):
            raise DomainError("%s overflows the float range" % self.what) from None
