"""Cyclic boundary loops of Bezier curves and the per-side opposite curve.

Side indices are 0-based throughout the library; the CLI converts from
the 1-based indices it presents to users.
"""

import numpy as np

from .curves import BezierCurve
from .errors import ClosureError, DomainError


class BoundaryLoop:
    """Ordered cyclic list of n >= 3 welded Bezier curves.

    Construct via make_loop, which enforces closure.  Corner points are
    welded so side i's last control point and side i+1's first control
    point are bit-identical.
    """

    def __init__(self, sides, weld_tolerance, corner_gaps):
        self.sides = tuple(sides)
        self.weld_tolerance = weld_tolerance
        self.corner_gaps = corner_gaps  # pre-weld residuals, diagnostic only

    @property
    def n(self):
        return len(self.sides)

    def side(self, i):
        return self.sides[i % self.n]

    def corner(self, i):
        """Shared corner C_i(1) = C_{i+1}(0)."""
        return self.sides[i % self.n].end_point()

    def control_points(self):
        return np.vstack([c.control_points for c in self.sides])

    def bbox_diagonal(self):
        return _bbox_diagonal(self.sides)


def _bbox_diagonal(curves):
    pts = np.vstack([c.control_points for c in curves])
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def make_loop(curves, weld_tolerance=None):
    """Validate closure and weld corners by averaging the meeting endpoints."""
    if len(curves) < 3:
        raise ClosureError("need at least 3 sides, got %d" % len(curves))
    if weld_tolerance is None:
        weld_tolerance = 1e-9 * _bbox_diagonal(curves)
    if not weld_tolerance >= 0:  # NaN too
        raise DomainError("weld_tolerance must be >= 0, got %r" % (weld_tolerance,))

    n = len(curves)
    gaps = np.empty(n)
    for i in range(n):
        gaps[i] = np.linalg.norm(curves[i].end_point() - curves[(i + 1) % n].start_point())
    bad = np.nonzero(gaps > weld_tolerance)[0]
    if bad.size:
        i = int(bad[0])
        raise ClosureError(
            "sides %d and %d do not meet: gap %.3e > tolerance %.3e"
            % (i + 1, (i + 1) % n + 1, gaps[i], weld_tolerance)
        )

    corners = [
        0.5 * (curves[i].end_point() + curves[(i + 1) % n].start_point())
        for i in range(n)
    ]
    welded = []
    for i in range(n):
        pts = curves[i].control_points.copy()
        pts[0] = corners[(i - 1) % n]
        pts[-1] = corners[i]
        welded.append(BezierCurve(pts))
    return BoundaryLoop(welded, weld_tolerance, gaps)


def opposite_curve(loop, i):
    """The curve closing ribbon i across the far side of the loop.

    For n >= 4 this is the cubic bridging corner i+1 to corner i-2
    with end tangents borrowed from sides i+2 and i-2.  For n = 3 the
    two far corners coincide and the curve degenerates to that point.
    """
    n = loop.n
    p0 = loop.side(i + 1).end_point()
    if n == 3:
        return BezierCurve([p0])
    p3 = loop.side(i - 1).start_point()
    p1 = p0 + loop.side(i + 2).end_derivative("start") / 3.0
    p2 = p3 - loop.side(i - 2).end_derivative("end") / 3.0
    return BezierCurve([p0, p1, p2, p3])
