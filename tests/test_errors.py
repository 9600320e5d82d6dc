"""The error contract: every check in the library raises an NPatchError.

DomainError is also a ValueError, so callers that catch ValueError keep
working.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import bulging_triangle_doc, bundled_loop, scaled_doc, scaled_square_doc
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from npatch import (BezierCurve, BoundaryLoop, DomainPolygon, Patch, TriMesh, make_loop,
                    make_patch, mesh_patch)
from npatch.analysis import (ContourSet, contours, curvature_map, dirichlet_energy,
                             harmonic_fill, mean_curvature)
from npatch.curves import MAX_DEGREE
from npatch.errors import DomainError, NPatchError
from npatch.fileio import read_loop, write_obj, write_ply_scalar
from npatch.fixtures import random_loop
from npatch.mesher import tessellate_domain

LINE = [[0.0, 0, 0], [1, 0, 0]]
TRIANGLE = [[0.0, 0, 0], [1, 0, 0], [0, 1, 1]]
SQUARE_LOOP = bundled_loop("square")
SQUARE = make_patch(SQUARE_LOOP)


def _contours_of(vertices, triangles=((0, 1, 2),), axis=(0, 0, 1), count=3):
    return lambda: contours(TriMesh(vertices, triangles), axis, count)

CHECKS = {
    "curve shape": lambda: BezierCurve(np.zeros((2, 2))),
    "curve without points": lambda: BezierCurve(np.zeros((0, 3))),
    "curve not finite": lambda: BezierCurve([[0.0, 0, np.inf]]),
    "polygon sides": lambda: DomainPolygon(2),
    "negative weld tolerance": lambda: make_loop(SQUARE_LOOP.sides, weld_tolerance=-1.0),
    "NaN weld tolerance": lambda: make_loop(SQUARE_LOOP.sides, weld_tolerance=float("nan")),
    "resolution": lambda: tessellate_domain(DomainPolygon(4), 0),
    # a resolution that is not an integer counts no rings
    "resolution not an integer": lambda: tessellate_domain(DomainPolygon(4), 2.5),
    "resolution NaN": lambda: tessellate_domain(DomainPolygon(4), float("nan")),
    "resolution string": lambda: tessellate_domain(DomainPolygon(4), "3"),
    "mesh resolution not an integer": lambda: mesh_patch(SQUARE, 2.5),
    "curvature map resolution string": lambda: curvature_map(SQUARE, "3"),
    "contour count": lambda: contours(mesh_patch(SQUARE, 2), [0, 0, 1], 0),
    "contour count not an integer": _contours_of(TRIANGLE, count=2.5),
    "contour count NaN": _contours_of(TRIANGLE, count=float("nan")),
    # an integral float is refused too, as a float resolution m is
    "contour count float": _contours_of(TRIANGLE, count=3.0),
    # levels that are not finite would cross no triangle: an empty, plausible result
    "contour NaN vertex": _contours_of(TRIANGLE + [[0.0, 0, np.nan]]),
    "contour inf vertex": _contours_of(TRIANGLE + [[0.0, 0, -np.inf]]),
    "contour NaN axis": _contours_of(TRIANGLE, axis=(0, np.nan, 1)),
    "contour inf axis": _contours_of(TRIANGLE, axis=(np.inf, 0, 0)),
    "contour axis of two numbers": _contours_of(TRIANGLE, axis=(0, 1)),
    "contour axis of strings": _contours_of(TRIANGLE, axis=("0", "0", "1")),
    "contour range past the float range": _contours_of([[0.0, 0, -1e308], [1, 0, 1e308], [0, 1, 0]]),
    "contour levels past the float range": _contours_of([[0.0, 0, 0], [1, 0, 1.7e308], [0, 1, 0]]),
    "random loop degree 0": lambda: random_loop(5, 0, np.random.default_rng(0)),
    "contour count string": _contours_of(TRIANGLE, count="3"),
    "contour count None": _contours_of(TRIANGLE, count=None),
    "contour count 1e300": _contours_of(TRIANGLE, count=1e300),
    # more levels than one array can hold: numpy refuses 2**62 and wraps the
    # lengths of the next two to 0, which gave no levels and no error
    "contour count 2**62": _contours_of(TRIANGLE, count=2**62),
    "contour count 2**63 - 1": _contours_of(TRIANGLE, count=2**63 - 1),
    "contour count uint64 2**63": _contours_of(TRIANGLE, count=np.uint64(2**63)),
    "eval of one coordinate": lambda: SQUARE.eval([0.1]),
    "eval of three coordinates": lambda: SQUARE.eval([0.1, 0.2, 0.3]),
    "eval of a string": lambda: SQUARE.eval("ab"),
    "eval_many of a flat array": lambda: SQUARE.eval_many(np.zeros(2)),
    "mean curvature of 3-D points": lambda: mean_curvature(SQUARE, np.zeros((2, 3))),
    "boundary side index not an integer": lambda: SQUARE.eval_boundary(1.5, 0.5),
    "polygon sides not an integer": lambda: DomainPolygon(3.5),
    "polygon sides string": lambda: DomainPolygon("5"),
    "boundary edge parameter string": lambda: SQUARE.eval_boundary(1, "x"),
    # inf made a NaN domain point, with a RuntimeWarning first
    "boundary edge parameter inf": lambda: SQUARE.eval_boundary(1, np.inf),
    "boundary edge parameter NaN": lambda: SQUARE.eval_boundary(1, np.nan),
    "boundary edge parameter above 1": lambda: SQUARE.eval_boundary(1, 1.5),
    "boundary edge parameter below 0": lambda: SQUARE.eval_boundary(1, -0.1),
    "curvature step string": lambda: mean_curvature(SQUARE, [0.1, 0.1], h="x"),
    "curvature step None": lambda: mean_curvature(SQUARE, [0.1, 0.1], h=None),
    # a zero step used to be reported as a degenerate tangent plane (a NumericError)
    "curvature step 0": lambda: mean_curvature(SQUARE, [0.1, 0.1], h=0),
    "curvature step negative": lambda: mean_curvature(SQUARE, [0.1, 0.1], h=-1e-4),
    "curve of a string": lambda: BezierCurve("abc"),
    "curve of ragged points": lambda: BezierCurve([[1, 2, [3]]]),
    "loop of numbers": lambda: make_loop([1, 2, 3]),
    "weld tolerance string": lambda: make_loop(SQUARE_LOOP.sides, "x"),
    # ragged nesting raised numpy's plain ValueError before any check ran
    "eval_many of ragged points": lambda: SQUARE.eval_many([[0.1], [0.2, 0.3]]),
    "mean curvature of ragged points": lambda: mean_curvature(SQUARE, [[0.1], [0.2, 0.3]]),
    "contour axis ragged": _contours_of(TRIANGLE, axis=(0, [0], 1)),
    # a complex array lost its imaginary part, with a ComplexWarning
    "curve of complex points": lambda: BezierCurve(np.array([[0.0, 0, 1j]])),
    "loop of None": lambda: make_loop(None),
    # the constructor is the one way to make a loop: None and strings reached Patch unchecked
    "loop constructor of None": lambda: BoundaryLoop(None),
    "loop constructor of strings": lambda: BoundaryLoop(["a", "b", "c"]),
    # a patch of anything but a BoundaryLoop raised AttributeError (no attribute 'n')
    "patch of None": lambda: Patch(None),
    "patch of a string": lambda: make_patch("abc"),
    # sizes past errors.SIZE_BUDGET that numpy itself refuses to allocate (a MemoryError)
    "resolution 2**40": lambda: tessellate_domain(DomainPolygon(4), 2**40),
    "mesh resolution 2**40": lambda: mesh_patch(SQUARE, 2**40),
    "polygon sides 10**6": lambda: DomainPolygon(10**6),
    "contour count 2**45": _contours_of(TRIANGLE, count=2**45),
    # a degree no evaluation can use (C(1030, 515) is past the float range): refused where
    # the curve is made, not at its first use
    "curve of 1031 control points": lambda: BezierCurve(np.zeros((1031, 3))),
    "random loop degree 2**40": lambda: random_loop(5, 2**40, np.random.default_rng(0)),
    # None raised AttributeError at the first draw, and a legacy RandomState drew other loops
    "random loop without a generator": lambda: random_loop(5, 3, None),
    "random loop of a RandomState": lambda: random_loop(5, 3, np.random.RandomState(0)),
    # a step whose square underflows divided 0 by 0 in the second differences
    "curvature step 1e-170": lambda: mean_curvature(SQUARE, [0.1, 0.1], h=1e-170),
    "curvature step 5e-324": lambda: mean_curvature(SQUARE, [0.1, 0.1], h=5e-324),
    # a boolean is not a number to the argument checks: True meshed at m = 1 and drew one level
    "mesh resolution True": lambda: mesh_patch(SQUARE, True),
    "mesh resolution numpy True": lambda: mesh_patch(SQUARE, np.True_),
    "contour count True": _contours_of(TRIANGLE, count=True),
    "boundary side index True": lambda: SQUARE.eval_boundary(True, 0.5),
    "boundary edge parameter True": lambda: SQUARE.eval_boundary(0, True),
    "boundary edge parameter numpy True": lambda: SQUARE.eval_boundary(0, np.True_),
    "curvature step True": lambda: mean_curvature(lambda q: np.pad(q, ((0, 0), (0, 1))),
                                                  [0.1, 0.1], h=True),
    "weld tolerance False": lambda: make_loop(SQUARE_LOOP.sides, False),
    # a NaN boundary vertex passed the span check, and the solve warned of an invalid value
    "harmonic fill of a NaN boundary vertex": lambda: harmonic_fill(TriMesh(
        TRIANGLE[:2] + [[0, 1, np.nan], [0.3, 0.3, 0]], [[0, 1, 3], [1, 2, 3], [2, 0, 3]],
        boundary=[0, 1, 2])),
    "Dirichlet energy past the float range": lambda: dirichlet_energy(
        TriMesh([[0.0, 0, -1e308], [1, 0, 1e308], [0, 1, 0]], [[0, 1, 2]])),
    # an inf vertex gave an infinite energy without an overflow, a NaN one a NaN energy
    "Dirichlet energy of an inf vertex":
        lambda: dirichlet_energy(TriMesh(TRIANGLE[:2] + [[0, 1, np.inf]], [[0, 1, 2]])),
    "Dirichlet energy of a NaN vertex":
        lambda: dirichlet_energy(TriMesh(TRIANGLE[:2] + [[0, 1, np.nan]], [[0, 1, 2]])),
    # H ~ 1 / size of a loop of subnormal size, where numpy warned of an overflow in ldexp
    "mean curvature past the float range": lambda: mean_curvature(make_patch(make_loop(
        [BezierCurve(np.ldexp(c.control_points, -1030)) for c in bundled_loop("pentagon").sides])),
        [0.0, 0.0]),
    # a boolean array is no more a number than a boolean is: eval_many gave the centre point
    # and the curve its end point
    "eval_many of booleans": lambda: SQUARE.eval_many(np.zeros((1, 2), bool)),
    "eval_rotations of booleans": lambda: SQUARE.eval_rotations(np.zeros((1, 2), bool)),
    "curve of boolean points": lambda: BezierCurve(np.ones((2, 3), bool)),
    "curve parameters of booleans": lambda: BezierCurve(LINE).eval_many([True]),
    "contour axis of booleans": _contours_of(TRIANGLE, axis=(False, False, True)),
    "mean curvature of a boolean point": lambda: mean_curvature(SQUARE, np.zeros(2, bool)),
    "mesh vertices of booleans": lambda: TriMesh(np.eye(3, dtype=bool), [[0, 1, 2]]),
    "mesh domain of booleans":
        lambda: TriMesh(np.eye(3), [[0, 1, 2]], domain=np.zeros((3, 2), bool)),
    "PLY scalar of booleans":
        lambda: write_ply_scalar(TriMesh(np.eye(3), [[0, 1, 2]]), np.zeros(3, bool)),
    # an index table has an integer dtype, as a resolution m is an integer: 2.0 is refused
    "integral-float triangle table": lambda: TriMesh(np.eye(3), [[0.0, 1.0, 2.0]]),
    "integral-float boundary table":
        lambda: TriMesh(np.eye(3), [[0, 1, 2]], boundary=[0.0, 1.0]),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_library_checks_raise_domain_error(name):
    with pytest.raises(DomainError) as info:
        CHECKS[name]()
    assert isinstance(info.value, NPatchError)
    assert isinstance(info.value, ValueError)


# an infinite bound is left out of the message, a finite one kept
MESSAGES = {
    "side index": (lambda: SQUARE.eval_boundary("1", 0.5),
                   "side index must be an integer, got '1'"),
    "curvature step": (lambda: mean_curvature(SQUARE, [0.1, 0.1], h=-1.0),
                       "step h must be a finite number >= %r, got -1.0" % 2.0**-511),
    "weld tolerance": (lambda: make_loop(SQUARE_LOOP.sides, weld_tolerance=-1.0),
                       "weld_tolerance must be a finite number >= 0, got -1.0"),
    "edge parameter": (lambda: SQUARE.eval_boundary(0, 2.0),
                       "edge parameter must be a finite number >= 0 and <= 1, got 2.0"),
    "resolution": (lambda: tessellate_domain(DomainPolygon(5), 0),
                   "resolution m must be an integer >= 1 and <= 7327, got 0"),
    "random loop degree": (lambda: random_loop(5, MAX_DEGREE + 1, np.random.default_rng(0)),
                           "random_loop degree must be an integer >= 1 and <= 1029, got 1030"),
    # two free dimensions are independent, so each has its own letter
    "mesh vertices": (lambda: TriMesh(np.arange(4.0), [[0, 1, 2]]),
                      "vertices must be numbers of shape (k, d), got float64 (4,)"),
    "mesh domain": (lambda: TriMesh(np.eye(3), [[0, 1, 2]], domain=np.zeros((7, 5))),
                    "domain must be numbers of shape (3, 2), got float64 (7, 5)"),
}


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_check_messages_name_only_finite_bounds(name):
    call, message = MESSAGES[name]
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_patch_of_huge_square_names_the_overflow():
    # the opposite cubics' end tangents of a +-1e308 square are beyond the float range
    loop = read_loop(scaled_square_doc(1e308, weld_tolerance=1e-9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows the float range"):
            make_patch(loop)


# relative deviation of a loop scaled by 0.9e308 from its unit loop's mesh, times 0.9e308: the
# factor is not a power of two, so the scaled input and each sum round a few times (at most
# 6e-16 measured on the triangle, square, pentagon and pocket4 at m = 2, 6 and 30)
NEAR_RANGE_TOL = 4 * np.finfo(float).eps


@pytest.mark.parametrize("fixture", ["triangle", "square"])
def test_patch_near_the_float_range_meshes(fixture):
    # the corner chords sit in the side columns, so no corner term is added onto a side's sum
    loop = read_loop(scaled_doc(bundled_loop(fixture), 0.9e308, weld_tolerance=1e-9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vertices = mesh_patch(make_patch(loop), 6).vertices
    unit = mesh_patch(make_patch(bundled_loop(fixture)), 6).vertices
    assert np.abs(vertices - 0.9e308 * unit).max() <= NEAR_RANGE_TOL * 0.9e308


def test_patch_of_a_side_far_from_its_chord_names_the_overflow():
    # corners at z = -1.7e308 and middle control points at +1.7e308: a side minus its corner
    # chord passes the float range when the patch is built
    loop = read_loop(bulging_triangle_doc(2, -1.7e308, 1.7e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows the float range"):
            make_patch(loop)


@pytest.mark.parametrize("z", [1.7e308, -1.7e308])
def test_evaluating_a_far_bulging_triangle_names_the_overflow(z):
    # the patch builds, but its Coons sum near the centre passes the float range
    patch = make_patch(read_loop(bulging_triangle_doc(3, 0.0, z)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows the float range"):
            patch.eval_many([[0.0, 0.0]])
        with pytest.raises(DomainError, match="overflows the float range"):
            mesh_patch(patch, 2)


def test_patch_of_the_pentagon_past_the_float_range_names_the_overflow():
    # an opposite cubic's end tangent of the pentagon scaled by 1.7e308 passes the float range
    loop = read_loop(scaled_doc(bundled_loop("pentagon"), 1.7e308, weld_tolerance=1e-9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="opposite curve overflows the float range"):
            make_patch(loop)


@pytest.mark.parametrize("triangles", [
    [[0, 1, 2], [0, 1, 3], [1, 0, 4]],  # edge 0-1 in three triangles
    [[0, 1, 2], [0, 1, 3], [0, 1, 3]],  # a triangle listed twice
    [[0, 0, 2]],                        # a triangle with a repeated vertex
    [[2, 1, 2], [0, 1, 3]],
])
def test_contour_graph_of_degree_above_two_is_domain_error(triangles):
    # the segments could not be chained: a cut edge would join three segments,
    # or a segment would join a node to itself
    vertices = [[0.0, 0, 0], [1, 0, 1], [0, 1, 0.5], [0, -1, 0.5], [1, 1, 0.5]]
    with pytest.raises(DomainError):
        contours(TriMesh(vertices, triangles), [0, 0, 1], 3)


SQUARE_MESH = mesh_patch(SQUARE, 3)
RIM = SQUARE_MESH.boundary


def _harmonic_with(boundary):
    """harmonic_fill of the square's m = 3 mesh with another boundary (TriMesh checks it)."""
    return lambda: harmonic_fill(TriMesh(SQUARE_MESH.vertices, SQUARE_MESH.triangles,
                                         boundary=boundary))


MALFORMED_MESHES = {
    # an index past the end or below zero would alias another vertex's edge key
    "triangle index past the end": lambda: TriMesh(np.eye(4, 3), [[0, 1, 5]]),
    "negative triangle index": lambda: TriMesh(np.eye(4, 3), [[0, 1, -1]]),
    "triangle without vertices": lambda: TriMesh(np.zeros((0, 3)), [[0, 0, 0]]),
    # 1-D vertices have no coordinates to solve: harmonic_fill raised numpy's TypeError
    "harmonic fill of 1-D vertices":
        lambda: harmonic_fill(TriMesh(np.arange(4.0), [[0, 1, 3], [1, 2, 3]], boundary=[0, 1, 2])),
    "energy of a triangle index past the end":
        lambda: dirichlet_energy(TriMesh(np.eye(4, 3), [[0, 1, 5]])),
    # a fractional index would be truncated to another vertex (energy 6.0)
    "fractional triangle index": lambda: TriMesh(np.eye(4, 3), [[0, 1, 2.7]]),
    "energy of a fractional triangle index":
        lambda: dirichlet_energy(TriMesh(np.eye(4, 3), [[0, 1, 2.7]])),
    "NaN triangle index": lambda: TriMesh(np.eye(4, 3), [[0, 1, np.nan]]),
    "flat triangle table": lambda: TriMesh(np.eye(4, 3), [0, 1, 2]),
    "string triangle index": lambda: TriMesh(np.eye(4, 3), [["0", "1", "2"]]),
    # numpy indexing would read -1 as the last vertex and pin that one
    "harmonic boundary index past the end": _harmonic_with(np.r_[999, RIM[1:]]),
    "harmonic fractional boundary index": _harmonic_with(np.r_[0.5, RIM[1:]]),
    "harmonic negative boundary index": _harmonic_with(np.r_[-1, RIM[1:]]),
    "contours of a triangle index past the end": _contours_of(TRIANGLE, triangles=[[0, 1, 3]]),
    "contours without vertices": _contours_of(np.zeros((0, 3)), triangles=np.zeros((0, 3), int)),
    "contours of planar vertices": _contours_of(np.eye(3, 2)),
    "ragged triangle table": lambda: TriMesh(np.eye(3), [[0, 1], [0, 1, 2]]),
    "boundary that is not a 1-D index array":
        lambda: TriMesh(np.eye(3), [[0, 1, 2]], boundary=[[0]]),
    # a boolean mask was read as the indices 0 and 1: the triangle [1, 0, 1], and a harmonic
    # fill that pinned vertices 0 and 1 only and came out 0.62 off, without an error
    "boolean triangle indices": lambda: TriMesh(np.eye(3), [[True, False, True]]),
    "boolean boundary indices":
        lambda: TriMesh(np.eye(3), [[0, 1, 2]], boundary=[True, False, True]),
    "harmonic boundary mask": _harmonic_with(np.isin(np.arange(len(SQUARE_MESH.vertices)), RIM)),
    # three corners is the only face width: edges, contours and the writers read no other
    "quad face table": lambda: TriMesh(np.eye(4, 3), [[0, 1, 2, 3]]),
    "two-corner face table": lambda: TriMesh(np.eye(3), [[0, 1]]),
    # curvature_map samples H at a domain point per vertex: any domain value was kept
    "string domain": lambda: TriMesh(np.eye(3), [[0, 1, 2]], domain="abc"),
    "domain of the wrong shape": lambda: TriMesh(np.eye(3), [[0, 1, 2]], domain=np.zeros((7, 5))),
    "domain of three coordinates": lambda: TriMesh(np.eye(3), [[0, 1, 2]], domain=np.eye(3)),
    "domain of two points for three vertices":
        lambda: TriMesh(np.eye(3), [[0, 1, 2]], domain=[[0, 0], [1, 0]]),
    # the writers, harmonic_fill, contours and dirichlet_energy trust a TriMesh's construction
    # check and take nothing else, so a mesh-like object with bad faces is refused too
    "write_obj face out of range":
        lambda: write_obj(SimpleNamespace(vertices=np.eye(3), triangles=np.array([[0, 1, 5]]))),
    "write_ply_scalar fractional face": lambda: write_ply_scalar(
        SimpleNamespace(vertices=np.eye(3), triangles=np.array([[0, 1, 1.5]])), np.zeros(3)),
    "harmonic fill of a mesh-like object": lambda: harmonic_fill(SimpleNamespace(
        vertices=np.eye(4, 3), triangles=np.array([[0, 1, 5]]), boundary=np.arange(3))),
    # numpy's IndexError, and an AttributeError (no edges method)
    "contours of a mesh-like object": lambda: contours(SimpleNamespace(
        vertices=np.eye(4, 3), triangles=np.array([[0, 1, 5]])), [0, 0, 1], 3),
    "Dirichlet energy of a mesh-like object": lambda: dirichlet_energy(SimpleNamespace(
        vertices=np.eye(4, 3), triangles=np.array([[0, 1, 5]]))),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MESHES))
def test_malformed_meshes_are_domain_errors(name):
    with pytest.raises(DomainError):
        MALFORMED_MESHES[name]()


MESH = mesh_patch(SQUARE, 2)
TRI = TriMesh(np.eye(3), [[0, 1, 2]])


# the value arguments of the public entry points, one drawn value each
ENTRY_POINTS = {
    "BezierCurve": BezierCurve,
    "BezierCurve.eval": BezierCurve(LINE).eval,
    "BezierCurve.eval_many": BezierCurve(LINE).eval_many,
    "BoundaryLoop": BoundaryLoop,
    "make_loop": make_loop,
    "make_loop weld_tolerance": lambda x: make_loop(SQUARE_LOOP.sides, weld_tolerance=x),
    "Patch": Patch,
    "Patch.eval": SQUARE.eval,
    "Patch.eval_many": SQUARE.eval_many,
    "Patch.eval_rotations": SQUARE.eval_rotations,
    "Patch.eval_boundary side": lambda x: SQUARE.eval_boundary(x, 0.5),
    "Patch.eval_boundary t": lambda x: SQUARE.eval_boundary(1, x),
    "mesh_patch m": lambda x: mesh_patch(SQUARE, x),
    "TriMesh vertices": lambda x: TriMesh(x, [[0, 1, 2]]),
    "TriMesh triangles": lambda x: TriMesh(np.eye(3), x),
    "TriMesh boundary": lambda x: TriMesh(np.eye(3), [[0, 1, 2]], boundary=x),
    "TriMesh domain": lambda x: TriMesh(np.eye(3), [[0, 1, 2]], domain=x),
    "DomainPolygon": DomainPolygon,
    "mean_curvature p": lambda x: mean_curvature(SQUARE, x),
    "mean_curvature h": lambda x: mean_curvature(SQUARE, [0.1, 0.1], h=x),
    "mean_curvature surface values": lambda x: mean_curvature(lambda q: x, [0.1, 0.2]),
    "curvature_map m": lambda x: curvature_map(SQUARE, x),
    "contours axis": lambda x: contours(MESH, x, 3),
    "contours count": lambda x: contours(MESH, [0, 0, 1], x),
    # a mesh is read-only: a drawn field goes through TriMesh's check on its way to the callee
    "harmonic_fill boundary index":
        lambda x: harmonic_fill(TriMesh(np.eye(3), [[0, 1, 2]], boundary=x)),
    "write_obj triangles": lambda x: write_obj(TriMesh(np.eye(3), x)),
    "read_loop": read_loop,
    "write_obj vertices": lambda x: write_obj(TriMesh(x, np.zeros((0, 3), int))),
    "write_obj polyline": lambda x: write_obj(MESH, ContourSet([0, 0, 1], [0.5], [x])),
    "write_ply_scalar scalar": lambda x: write_ply_scalar(TRI, x),
    "random_loop rng": lambda x: random_loop(5, 3, x),
}

# every size at most 3, so no drawn value makes the package allocate much, and a
# table of three columns (points, faces) gets past the shape checks to the value checks
_NUMBERS = st.sampled_from([-1, -0.5, 0, 0.5, 1, 2, np.nan, np.inf, -np.inf])
_LEAVES = st.one_of(st.none(), st.booleans(), st.text(max_size=2), _NUMBERS, st.just(1j))
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)
MALFORMED = st.one_of(
    _LEAVES,
    st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=4),  # ragged too
    hnp.arrays(float, _SHAPES, elements=_NUMBERS),
    hnp.arrays(int, _SHAPES, elements=st.integers(-2, 2)),
    hnp.arrays(st.sampled_from([bool, complex, "U1"]), _SHAPES),
    hnp.arrays(object, _SHAPES, elements=_LEAVES),
)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=60)
@given(value=MALFORMED)
def test_malformed_values_give_a_result_or_an_npatch_error(name, value):
    # numpy's own exceptions and warnings (a ComplexWarning, a RuntimeWarning) fail the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ENTRY_POINTS[name](value)
        except NPatchError:
            pass
