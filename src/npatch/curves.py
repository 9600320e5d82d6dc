"""Bezier space curves: the only curve primitive used by the rest of the package."""

from functools import cache
from math import comb

import numpy as np

from .errors import DomainError, array, real

# C(1030, 515) is past the float range: 1029 is the highest degree with finite binomials
MAX_DEGREE = 1029


class BezierCurve:
    """Polynomial Bezier curve in R^3 of arbitrary degree >= 0.

    Degree 0 is a legitimate constant curve, such as the degenerate
    opposite curve of a three-sided loop.  The degree is at most
    MAX_DEGREE.  Instances are immutable after construction.
    """

    def __init__(self, control_points):
        pts = array(control_points, "control points", (None, 3)).astype(float)  # a copy
        if not 0 < len(pts) <= MAX_DEGREE + 1 or not np.isfinite(pts).all():
            raise DomainError("a curve needs 1 to %d control points, all finite" % (MAX_DEGREE + 1))
        pts.setflags(write=False)
        self.control_points = pts

    @property
    def degree(self):
        return self.control_points.shape[0] - 1

    def eval(self, t):
        """Point at parameter t, one number in [0, 1]."""
        return self._points(np.float64(real(t, "curve parameter", 0, 1)))[0]

    def eval_many(self, t):
        """Bernstein-basis evaluation: t in [0, 1] of shape (k,) -> points of shape (k, 3)."""
        t = array(t, "curve parameter").astype(float, copy=False)
        if not ((t >= 0.0) & (t <= 1.0)).all():
            raise DomainError("curve parameter outside [0, 1]")
        return self._points(t)

    def _points(self, t):  # checked float t of shape () or (k,): a scalar is a batch of one
        basis = bernstein_basis(t, binomials(self.degree))
        return basis.reshape(self.degree + 1, -1).T @ self.control_points

    def __repr__(self):
        return "BezierCurve(degree=%d)" % self.degree


@cache  # one read-only row per degree (MAX_DEGREE + 1 at most), shared by every curve and patch
def binomials(degree):
    row = np.array([comb(degree, j) for j in range(degree + 1)], dtype=float)
    row.setflags(write=False)
    return row


def bernstein_basis(t, binomials):
    """Bernstein basis, unchecked, of float parameters t in [0, 1] of any shape: row j of the
    (degree + 1,) + t.shape result is binomials(degree)[j] t^j (1 - t)^(degree - j)."""
    basis = np.empty((len(binomials),) + t.shape)  # t^j, then the basis
    rest = np.empty_like(basis)  # (1 - t)^j; rows as [j, ...], views even for a 0-d t
    basis[0] = rest[0] = 1.0
    basis[1:2] = t  # j = 1, none for degree 0
    np.subtract(1.0, t, out=rest[1:2])
    for j in range(1, len(binomials) - 1):
        np.multiply(basis[j, ...], basis[1, ...], out=basis[j + 1, ...])
        np.multiply(rest[j, ...], rest[1, ...], out=rest[j + 1, ...])
    basis *= binomials.reshape((-1,) + (1,) * t.ndim)
    basis *= rest[::-1]
    return basis


def _elevate(points, degree):
    """Control points of the same Bezier curve(s) at a higher degree.

    points has shape (d + 1, ...) with d <= degree; the result has shape
    (degree + 1, ...).  Each step is Farin's elevation by one,
    q_i = a_i p_{i-1} + (1 - a_i) p_i with a_i = i / (d + 1), and keeps
    the end points bit for bit.
    """
    p = np.asarray(points, dtype=float)
    for d in range(len(p) - 1, degree):
        a = (np.arange(1, d + 1) / (d + 1)).reshape((-1,) + (1,) * (p.ndim - 1))
        p = np.concatenate([p[:1], a * p[:-1] + (1.0 - a) * p[1:], p[-1:]])
    return p
