import math
import warnings

import numpy as np
import pytest
from conftest import bundled_loop

from npatch import BezierCurve, BoundaryLoop, DomainPolygon, make_loop
from npatch.loop import opposite_curve
from npatch.errors import ClosureError, DomainError
from npatch.fixtures import random_loop


def test_square_fixture_valid():
    loop = bundled_loop("square")
    assert loop.n == 4
    assert np.all(loop.corner_gaps == 0)


def test_open_corner_rejected():
    curves = [
        BezierCurve([(0, 0, 0), (1, 0, 0)]),
        BezierCurve([(1, 1e-3, 0), (0.5, 1, 0)]),  # gap at corner 1
        BezierCurve([(0.5, 1, 0), (0, 0, 0)]),
    ]
    with pytest.raises(ClosureError, match="sides 1 and 2"):
        make_loop(curves, weld_tolerance=1e-9)


def test_the_loop_constructor_checks_closure():
    # a loop is made only through its checking constructor: a 0.5 gap at corner 1 is refused
    # there, not left for the patch to evaluate and mesh
    curves = [
        BezierCurve([(0, 0, 0), (1, 0, 0)]),
        BezierCurve([(1, 0.5, 0), (0.5, 1, 0)]),
        BezierCurve([(0.5, 1, 0), (0, 0, 0)]),
    ]
    with pytest.raises(ClosureError, match="sides 1 and 2 do not meet"):
        BoundaryLoop(curves)


def test_too_few_sides():
    seg = BezierCurve([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ClosureError, match="at least 3"):
        make_loop([seg, seg])


def test_welding_averages_perturbed_corners():
    corners = np.column_stack([DomainPolygon(5).vertices, np.zeros(5)])
    rng = np.random.default_rng(3)
    curves = []
    ends = []
    for i in range(5):
        a = corners[(i - 1) % 5] + rng.normal(scale=1e-12, size=3)
        b = corners[i] + rng.normal(scale=1e-12, size=3)
        curves.append(BezierCurve([a, 0.5 * (a + b), b]))
        ends.append((a, b))
    loop = make_loop(curves, weld_tolerance=1e-9)
    for i in range(5):
        expected = 0.5 * (ends[i][1] + ends[(i + 1) % 5][0])
        assert np.array_equal(loop.sides[i].control_points[-1], expected)
        # shared corners stored bit-identically
        end, start = loop.sides[i].control_points[-1], loop.sides[(i + 1) % 5].control_points[0]
        assert np.array_equal(end, start)


@pytest.mark.parametrize("fraction", [0.9, 1.1])
def test_default_weld_tolerance_is_1e_9_of_the_diagonal(fraction):
    # a pentagon of chords with side 1's start, corner 0 at x = 0, moved along x inside the
    # bounding box: a gap of 0.9e-9 times the diagonal welds, one of 1.1e-9 is open
    corners = np.column_stack([DomainPolygon(5).vertices, np.zeros(5)])
    sides = [np.array([a, b]) for a, b in zip(np.roll(corners, 1, axis=0), corners)]
    gap = fraction * 1e-9 * math.dist(corners.max(axis=0), corners.min(axis=0))
    sides[1][0, 0] += gap
    curves = [BezierCurve(p) for p in sides]
    if fraction < 1:
        loop = make_loop(curves)
        assert loop.corner_gaps[0] == pytest.approx(gap, rel=1e-6)
        assert np.array_equal(loop.sides[0].control_points[-1], loop.sides[1].control_points[0])
    else:
        with pytest.raises(ClosureError, match="sides 1 and 2"):
            make_loop(curves)


def test_welding_idempotent():
    loop = make_loop(list(random_loop(5, 3, np.random.default_rng(4)).sides))
    again = make_loop(list(loop.sides))
    for a, b in zip(loop.sides, again.sides):
        assert np.array_equal(a.control_points, b.control_points)


def test_opposite_curve_n3_is_constant_point():
    loop = bundled_loop("triangle")
    assert opposite_curve(loop).shape == (1, 3, 3)
    for i in range(3):
        opp = BezierCurve(opposite_curve(loop)[:, i])
        assert np.array_equal(opp.eval(0.0), loop.sides[(i + 1) % 3].control_points[-1])
        # for a triangle the two far corners coincide
        assert np.allclose(opp.eval(1.0), loop.sides[i - 1].control_points[0], atol=0)


def test_opposite_curve_n4_reproduces_far_side():
    loop = random_loop(4, 3, np.random.default_rng(5))
    for i in range(4):
        far = loop.sides[(i + 2) % 4]
        assert np.allclose(opposite_curve(loop)[:, i], far.control_points, atol=1e-14)


def test_opposite_curve_pentagon_hand_computed():
    corners = np.column_stack([DomainPolygon(5).vertices, np.zeros(5)])
    loop = make_loop([BezierCurve([a, b]) for a, b in zip(np.roll(corners, 1, axis=0), corners)])
    opp = opposite_curve(loop)[:, 0]
    # endpoints: the two far corners
    p0 = corners[1]
    p3 = corners[3]
    # far edges are straight: derivative = chord vector
    p1 = p0 + (corners[2] - corners[1]) / 3.0
    p2 = p3 - (corners[3] - corners[2]) / 3.0
    assert np.allclose(opp, [p0, p1, p2, p3], atol=1e-14)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_opposite_curve_endpoints(n):
    loop = random_loop(n, 3, np.random.default_rng(n))
    assert opposite_curve(loop).shape == (1 if n == 3 else 4, n, 3)
    for i in range(n):
        opp = BezierCurve(opposite_curve(loop)[:, i])
        assert np.array_equal(opp.eval(0.0), loop.sides[(i + 1) % n].control_points[-1])
        assert np.array_equal(opp.eval(1.0), loop.sides[i - 1].control_points[0])


def _loop_with_far_sides(far):
    """Five-sided loop whose sides 2 and 3, the ones ribbon 0's opposite curve takes its
    end tangents from, are far and far translated to start where far ends."""
    far = np.array(far, dtype=float)
    next_far = far - far[0] + far[-1]
    c4, c0 = (0.0, -2, 0), (-1.0, -1, 0)
    sides = [[c4, c0], [c0, far[0]], far, next_far, [next_far[-1], c4]]
    return make_loop([BezierCurve(p) for p in sides])


@pytest.mark.parametrize("far, start, end", [
    ([(0, 0, 0), (2, 0, 0)], (2, 0, 0), (2, 0, 0)),
    ([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)], (3, 0, 0), (3, 0, 0)),
    ([(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)], (0, 3, 0), (0, -3, 0)),
    ([(1, 2, 3)], (0, 0, 0), (0, 0, 0)),  # a point has no direction: a zero tangent
], ids=["segment", "collinear cubic", "cubic", "constant"])
def test_opposite_curve_takes_the_far_end_tangents(far, start, end):
    # the inner control points sit a third of the far sides' end derivatives inside the ends
    loop = _loop_with_far_sides(far)
    p0, p3 = loop.sides[1].control_points[-1], loop.sides[4].control_points[0]
    expected = [p0, p0 + np.array(start) / 3.0, p3 - np.array(end) / 3.0, p3]
    assert np.array_equal(opposite_curve(loop)[:, 0], expected)


def test_opposite_curve_past_the_float_range_names_the_overflow():
    # the far sides' end derivative, 2 * 1e308, is beyond the float range
    loop = _loop_with_far_sides([(0, 0, 0), (1e308, 0, 0), (0, 0, 0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="opposite curve overflows the float range"):
            opposite_curve(loop)


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def _mixed_degree_loop(n, rng):
    """Loop of n random sides of degree 0 to 7 (side 0 at least 1), each side's ends moved by
    about 1e-12 so that welding moves them back."""
    degrees = rng.integers(0, 8, size=n)
    degrees[0] = max(degrees[0], 1)
    corners = rng.normal(size=(n, 3))
    for i in range(1, n):  # a side of degree 0 joins two equal corners
        if degrees[i] == 0:
            corners[i] = corners[i - 1]
    sides = []
    for i, degree in enumerate(degrees):
        pts = rng.normal(size=(degree + 1, 3))
        pts[[0, -1]] = corners[[i - 1, i]] + rng.normal(scale=1e-12, size=(2, 3))
        sides.append(BezierCurve(pts))
    return make_loop(sides)


def _restacked_opposite(loop):
    """opposite_curve's formula on the sides' control points stacked again, not on the loop's
    table."""
    counts = [len(c.control_points) for c in loop.sides]
    last = np.cumsum(counts) - 1
    points, first = np.concatenate([c.control_points for c in loop.sides]), last - counts + 1
    n, i = loop.n, np.arange(loop.n)
    p0, p3 = points[last[(i + 1) % n]], points[first[i - 1]]
    if n == 3:
        return p0[None]
    degree = (last - first)[:, None]
    step = np.minimum(1, last - first)
    start = degree * (points[first + step] - points[first]) / 3.0
    end = degree * (points[last] - points[last - step]) / 3.0
    return np.stack([p0, p0 + start[(i + 2) % n], p3 - end[i - 2], p3])


def test_the_welded_table_is_the_sides_stacked_and_read_only():
    loop = _mixed_degree_loop(9, np.random.default_rng(11))
    assert loop.corner_gaps.all()  # welding moved every corner
    stacked = np.concatenate([c.control_points for c in loop.sides])
    assert np.array_equal(_bits(loop.points), _bits(stacked))
    assert np.array_equal(loop.last - loop.first, [c.degree for c in loop.sides])
    assert np.array_equal(loop.first[1:], loop.last[:-1] + 1)
    assert loop.first[0] == 0 and loop.last[-1] == len(stacked) - 1
    for table in (loop.points, loop.first, loop.last):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


@pytest.mark.parametrize("n", range(3, 17))
def test_opposite_curve_equals_the_restacked_sides_on_mixed_degrees(n):
    for seed in range(4):
        loop = _mixed_degree_loop(n, np.random.default_rng([n, seed]))
        assert np.array_equal(_bits(opposite_curve(loop)), _bits(_restacked_opposite(loop)))
