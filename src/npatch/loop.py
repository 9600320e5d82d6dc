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
    """Ordered cyclic list of n >= 3 Bezier curves, closure checked and corners welded.

    Side i's last control point and side i+1's first are both their average, bit-identical;
    corner_gaps holds the pre-weld residuals, a diagnostic only.  The welded table is kept,
    read-only: points stacks every side's control points, side i in rows first[i] to last[i].
    DomainError unless curves is a sequence of BezierCurve instances and weld_tolerance (default
    1e-9 of the control points' bbox diagonal) finite and >= 0.
    """

    def __init__(self, curves, weld_tolerance=None):
        if not isinstance(curves, Sequence) or not all(isinstance(c, BezierCurve) for c in curves):
            raise DomainError("loop sides must be a sequence of BezierCurve instances")
        if len(curves) < 3:
            raise ClosureError("need at least 3 sides, got %d" % len(curves))
        counts = [len(c.control_points) for c in curves]
        last = np.cumsum(counts) - 1
        first = last - counts + 1
        pts = np.concatenate([c.control_points for c in curves])  # a copy, welded below
        if weld_tolerance is None:
            # the bbox diagonal, scaled: inf only when the diagonal is
            weld_tolerance = 1e-9 * math.dist(pts.max(axis=0), pts.min(axis=0))
            if math.isinf(weld_tolerance):
                raise DomainError("control points span more than the float range")
        weld_tolerance = real(weld_tolerance, "weld_tolerance", 0)

        ends, starts = pts[last], pts[(last + 1) % len(pts)]  # side i's end, side i + 1's start
        gaps = np.array(list(map(math.dist, ends.tolist(), starts.tolist())))
        bad = np.nonzero(gaps > weld_tolerance)[0]
        if bad.size:
            i = int(bad[0])
            raise ClosureError("sides %d and %d do not meet: gap %.3e > tolerance %.3e"
                               % (i + 1, (i + 1) % len(curves) + 1, gaps[i], weld_tolerance))

        corners = 0.5 * ends + 0.5 * starts  # no overflow
        pts[(last + 1) % len(pts)] = corners  # side i + 1 starts at corner i
        pts[last] = corners  # after the starts: a side of degree 0 ends at its corner
        self.sides = tuple(BezierCurve(pts[a:b + 1]) for a, b in zip(first, last))
        self.corner_gaps = gaps
        for table in (pts, first, last):
            table.setflags(write=False)
        self.points, self.first, self.last = pts, first, last

    @property
    def n(self):
        return len(self.sides)


def make_loop(curves, weld_tolerance=None):
    return BoundaryLoop(curves, weld_tolerance)


def opposite_curve(loop):
    """Control points (4, n, 3), from the loop's welded table, of the n curves closing the
    ribbons across the far side: for n >= 4 column i is the cubic bridging corner i+1 to corner
    i-2 with end tangents borrowed from sides i+2 and i-2 (zero for a side of degree 0).  For
    n = 3 the far corners coincide and the shape is (1, 3, 3).  DomainError: a point overflows."""
    points, first, last = loop.points, loop.first, loop.last
    n, i = loop.n, np.arange(loop.n)
    p0, p3 = points[last[(i + 1) % n]], points[first[i - 1]]
    if n == 3:
        return p0[None]
    degree = (last - first)[:, None]
    step = np.minimum(1, last - first)  # to the next point, none on a side of degree 0
    with overflow("opposite curve"):  # each side's end derivatives, over 3
        start = degree * (points[first + step] - points[first]) / 3.0
        end = degree * (points[last] - points[last - step]) / 3.0
        return np.stack([p0, p0 + start[(i + 2) % n], p3 - end[i - 2], p3])
