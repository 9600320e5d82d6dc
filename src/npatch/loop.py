"""Cyclic boundary loops of Bezier curves and the per-side opposite curve.

Side indices are 0-based throughout the library; the CLI converts from
the 1-based indices it presents to users.
"""

import math
from collections.abc import Sequence

import numpy as np

from .curves import BezierCurve
from .errors import ClosureError, DomainError, overflow, real


class BoundaryLoop:
    """Ordered cyclic list of n >= 3 welded Bezier curves.

    Construct via make_loop, which enforces closure.  Corner points are
    welded so side i's last control point and side i+1's first control
    point are bit-identical.
    """

    def __init__(self, sides, corner_gaps):
        self.sides = tuple(sides)
        self.corner_gaps = corner_gaps  # pre-weld residuals, diagnostic only

    @property
    def n(self):
        return len(self.sides)


def make_loop(curves, weld_tolerance=None):
    """Validate closure and weld corners by averaging the meeting endpoints; DomainError
    unless curves is a sequence of BezierCurve instances and weld_tolerance finite and >= 0."""
    if not isinstance(curves, Sequence) or not all(isinstance(c, BezierCurve) for c in curves):
        raise DomainError("loop sides must be a sequence of BezierCurve instances")
    if len(curves) < 3:
        raise ClosureError("need at least 3 sides, got %d" % len(curves))
    if weld_tolerance is None:
        pts = np.vstack([c.control_points for c in curves])
        # the bbox diagonal, scaled: inf only when the diagonal is
        weld_tolerance = 1e-9 * math.dist(pts.max(axis=0), pts.min(axis=0))
        if math.isinf(weld_tolerance):
            raise DomainError("control points span more than the float range")
    weld_tolerance = real(weld_tolerance, "weld_tolerance", 0)

    n = len(curves)
    ends = [(curves[i].control_points[-1], curves[(i + 1) % n].control_points[0])
            for i in range(n)]
    gaps = np.array([math.dist(a, b) for a, b in ends])
    bad = np.nonzero(gaps > weld_tolerance)[0]
    if bad.size:
        i = int(bad[0])
        raise ClosureError("sides %d and %d do not meet: gap %.3e > tolerance %.3e"
                           % (i + 1, (i + 1) % n + 1, gaps[i], weld_tolerance))

    corners = [0.5 * a + 0.5 * b for a, b in ends]  # no overflow
    welded = []
    for i in range(n):
        pts = curves[i].control_points.copy()
        pts[0] = corners[(i - 1) % n]
        pts[-1] = corners[i]
        welded.append(BezierCurve(pts))
    return BoundaryLoop(welded, gaps)


def opposite_curve(loop, i):
    """The curve closing ribbon i across the far side of the loop.

    For n >= 4 this is the cubic bridging corner i+1 to corner i-2
    with end tangents borrowed from sides i+2 and i-2 (zero for a side of
    degree 0).  For n = 3 the two far corners coincide and the curve
    degenerates to that point.  DomainError: a control point overflows.
    """
    sides, n = loop.sides, loop.n
    p0 = sides[(i + 1) % n].control_points[-1]
    if n == 3:
        return BezierCurve([p0])
    p3 = sides[(i - 1) % n].control_points[0]
    q, r = sides[(i + 2) % n].control_points, sides[(i - 2) % n].control_points
    dq, dr = len(q) - 1, len(r) - 1  # their degrees
    with overflow("opposite curve"):
        p1 = p0 + dq * (q[min(1, dq)] - q[0]) / 3.0
        p2 = p3 - dr * (r[-1] - r[-1 - min(1, dr)]) / 3.0
    return BezierCurve([p0, p1, p2, p3])
