"""The error contract: every check in the library raises an NPatchError.

DomainError is also a ValueError, so callers that catch ValueError keep
working.
"""

import warnings

import numpy as np
import pytest
from conftest import scaled_doc, scaled_square_doc

from npatch import (BezierCurve, DomainPolygon, TriMesh, make_loop, make_patch, mesh_patch,
                    tessellate_domain)
from npatch.analysis import (contours, curvature_map, dirichlet_energy, harmonic_fill,
                             mean_curvature)
from npatch.errors import DomainError, NPatchError, SchemaError
from npatch.fileio import read_loop
from npatch.fixtures import random_loop, square_loop, triangle_loop

LINE = [[0.0, 0, 0], [1, 0, 0]]
TRIANGLE = [[0.0, 0, 0], [1, 0, 0], [0, 1, 1]]
SQUARE = make_patch(square_loop())


def _contours_of(vertices, triangles=((0, 1, 2),), axis=(0, 0, 1), count=3):
    return lambda: contours(TriMesh(vertices, triangles), axis, count)

CHECKS = {
    "curve shape": lambda: BezierCurve(np.zeros((2, 2))),
    "curve without points": lambda: BezierCurve(np.zeros((0, 3))),
    "curve not finite": lambda: BezierCurve([[0.0, 0, np.inf]]),
    "curve end name": lambda: BezierCurve(LINE).end_derivative("middle"),
    "polygon sides": lambda: DomainPolygon(2),
    "negative weld tolerance": lambda: make_loop(square_loop().sides, weld_tolerance=-1.0),
    "NaN weld tolerance": lambda: make_loop(square_loop().sides, weld_tolerance=float("nan")),
    "resolution": lambda: tessellate_domain(DomainPolygon(4), 0),
    # a resolution that is not an integer counts no rings
    "resolution not an integer": lambda: tessellate_domain(DomainPolygon(4), 2.5),
    "resolution NaN": lambda: tessellate_domain(DomainPolygon(4), float("nan")),
    "resolution string": lambda: tessellate_domain(DomainPolygon(4), "3"),
    "mesh resolution not an integer": lambda: mesh_patch(make_patch(square_loop()), 2.5),
    "curvature map resolution string": lambda: curvature_map(make_patch(square_loop()), "3"),
    "contour count": lambda: contours(mesh_patch(make_patch(square_loop()), 2), [0, 0, 1], 0),
    "contour count not an integer": _contours_of(TRIANGLE, count=2.5),
    "contour count NaN": _contours_of(TRIANGLE, count=float("nan")),
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
    # counts that numpy refuses to allocate an array for
    "contour count 1e300": _contours_of(TRIANGLE, count=1e300),
    "contour count 2**62": _contours_of(TRIANGLE, count=2**62),
    "eval of one coordinate": lambda: SQUARE.eval([0.1]),
    "eval of three coordinates": lambda: SQUARE.eval([0.1, 0.2, 0.3]),
    "eval of a string": lambda: SQUARE.eval("ab"),
    "eval_many of a flat array": lambda: SQUARE.eval_many(np.zeros(2)),
    "mean curvature of 3-D points": lambda: mean_curvature(SQUARE, np.zeros((2, 3))),
    "boundary side index not an integer": lambda: SQUARE.eval_boundary(1.5, 0.5),
    "polygon sides not an integer": lambda: DomainPolygon(3.5),
    "polygon sides string": lambda: DomainPolygon("5"),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_library_checks_raise_domain_error(name):
    with pytest.raises(DomainError) as info:
        CHECKS[name]()
    assert isinstance(info.value, NPatchError)
    assert isinstance(info.value, ValueError)


def test_patch_of_huge_square_names_the_overflow():
    # the opposite cubics' end tangents of a +-1e308 square are beyond the float range
    loop = read_loop(scaled_square_doc(1e308, weld_tolerance=1e-9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows the float range"):
            make_patch(loop)


def test_patch_of_huge_triangle_names_the_overflow():
    # a triangle has no opposite tangents: its corner terms overflow first
    loop = read_loop(scaled_doc(triangle_loop(), 0.9e308, weld_tolerance=1e-9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows the float range"):
            make_patch(loop)


def test_evaluating_huge_square_names_the_overflow():
    # the patch builds, but the Coons sums at three of its corners pass the float range
    patch = make_patch(read_loop(scaled_doc(square_loop(), 0.9e308, weld_tolerance=1e-9)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows the float range"):
            patch.eval_many(patch.domain.vertices)
        with pytest.raises(DomainError, match="overflows the float range"):
            mesh_patch(patch, 2)


@pytest.mark.parametrize("triangles", [
    [[0, 1, 2], [0, 1, 3], [1, 0, 4]],  # edge 0-1 in three triangles
    [[0, 1, 2], [0, 1, 3], [0, 1, 3]],  # a triangle listed twice
    [[0, 0, 2]],                        # a triangle with a repeated vertex
    [[2, 1, 2], [0, 1, 3]],
])
def test_contour_graph_of_degree_above_two_is_schema_error(triangles):
    # the segments could not be chained: a cut edge would join three segments,
    # or a segment would join a node to itself
    vertices = [[0.0, 0, 0], [1, 0, 1], [0, 1, 0.5], [0, -1, 0.5], [1, 1, 0.5]]
    with pytest.raises(SchemaError):
        contours(TriMesh(vertices, triangles), [0, 0, 1], 3)


def _harmonic_pinning(index):
    """harmonic_fill of a square mesh whose boundary table's first index is replaced."""
    def fill():
        mesh = mesh_patch(make_patch(square_loop()), 3)
        mesh.boundary = mesh.boundary._replace(index=np.r_[index, mesh.boundary.index[1:]])
        return harmonic_fill(mesh)
    return fill


MALFORMED_MESHES = {
    # an index past the end or below zero would alias another vertex's edge key
    "triangle index past the end": lambda: TriMesh(np.eye(4, 3), [[0, 1, 5]]),
    "negative triangle index": lambda: TriMesh(np.eye(4, 3), [[0, 1, -1]]),
    "triangle without vertices": lambda: TriMesh(np.zeros((0, 3)), [[0, 0, 0]]),
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
    "harmonic boundary index past the end": _harmonic_pinning(999),
    "harmonic fractional boundary index": _harmonic_pinning(0.5),
    "harmonic negative boundary index": _harmonic_pinning(-1),
    "contours of a triangle index past the end": _contours_of(TRIANGLE, triangles=[[0, 1, 3]]),
    "contours without vertices": _contours_of(np.zeros((0, 3)), triangles=np.zeros((0, 3), int)),
    "contours of planar vertices": _contours_of(np.eye(3, 2)),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MESHES))
def test_malformed_meshes_are_schema_errors(name):
    with pytest.raises(SchemaError):
        MALFORMED_MESHES[name]()
