import warnings

import numpy as np
import pytest
from conftest import loop_doc, random_interior_points
from hypothesis import given, settings
from hypothesis import strategies as st

from npatch import BezierCurve, DomainPolygon, TriMesh, make_loop, make_patch, mesh_patch
from npatch.analysis import (contours, curvature_map, dirichlet_energy,
                             harmonic_fill, mean_curvature, pull_inward)
from npatch.errors import DomainError, NumericError, SchemaError
from npatch.fileio import read_loop
from npatch.mesher import Boundary
from npatch.fixtures import pentagon_loop, random_loop, square_loop


def test_curvature_plane():
    plane = lambda p: np.array([p[0], p[1], 0.0])
    assert abs(mean_curvature(plane, np.array([0.2, -0.1]))) <= 1e-6


@pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
def test_curvature_sphere(r):
    def sphere(p):
        u, v = 0.3 + p[0], 0.2 + p[1]  # keep away from the poles
        return r * np.array([np.cos(u) * np.cos(v), np.cos(u) * np.sin(v), np.sin(u)])

    h = abs(mean_curvature(sphere, np.array([0.1, 0.05])))
    assert abs(h - 1 / r) / (1 / r) <= 1e-3


@pytest.mark.parametrize("r", [0.5, 2.0])
def test_curvature_cylinder(r):
    def cylinder(p):
        return np.array([r * np.cos(p[0]), r * np.sin(p[0]), p[1]])

    h = abs(mean_curvature(cylinder, np.array([0.4, 0.1])))
    assert abs(h - 1 / (2 * r)) / (1 / (2 * r)) <= 1e-3


def test_curvature_step_consistency():
    # halving h: second-order method, error should shrink ~4x (allow slack)
    def surf(p):
        return np.array([p[0], p[1], np.sin(p[0]) * np.cos(p[1])])

    p = np.array([0.3, 0.2])
    exact = mean_curvature(surf, p, h=1e-5)
    e1 = abs(mean_curvature(surf, p, h=4e-3) - exact)
    e2 = abs(mean_curvature(surf, p, h=2e-3) - exact)
    assert e2 <= e1 / 4 * 4  # within 4x of the expected O(h^2) ratio
    assert e2 < e1


def test_patch_boundary_margin_enforced():
    patch = make_patch(pentagon_loop())
    near_edge = patch.domain.edge_point(0, 0.5) * 0.99999
    with pytest.raises(DomainError):
        mean_curvature(patch, near_edge)


def test_patch_boundary_margin_enforced_batch():
    patch = make_patch(pentagon_loop())
    points = np.array([[0.0, 0.0], [0.2, -0.1], patch.domain.edge_point(0, 0.5) * 0.99999])
    assert mean_curvature(patch, points[:2]).shape == (2,)
    with pytest.raises(DomainError):
        mean_curvature(patch, points)


def test_constant_surface_has_no_tangent_plane():
    with pytest.raises(NumericError, match="degenerate tangent plane"):
        mean_curvature(lambda q: np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2]))


def test_mean_curvature_batch_matches_points():
    rng = np.random.default_rng(31)
    patch = make_patch(random_loop(6, 3, rng))
    points = 0.9 * random_interior_points(rng, patch.domain, 25)
    batch = mean_curvature(patch, points)
    single = [mean_curvature(patch, q) for q in points]
    assert np.abs(batch - single).max() <= 1e-6


def test_mean_curvature_of_no_points_is_empty():
    assert mean_curvature(make_patch(square_loop()), np.zeros((0, 2))).shape == (0,)


def test_pull_inward():
    poly = DomainPolygon(5)
    q = pull_inward(poly, poly.edge_point(2, [0.0, 0.3, 0.9]), 0.01)
    assert poly.edge_distances_many(q).min() >= 0.01 - 1e-12


def test_pull_inward_batch_matches_rows():
    poly = DomainPolygon(5)
    points = np.array([poly.edge_point(i, t) for i in range(5) for t in (0.0, 0.3, 0.9)]
                      + [[0.0, 0.0], [0.1, -0.2]])
    rows = [pull_inward(poly, q, 0.01) for q in points]
    assert np.array_equal(pull_inward(poly, points, 0.01), rows)


def test_curvature_map_planar_loop():
    flat = make_loop([
        BezierCurve(c.control_points * [1, 1, 0]) for c in pentagon_loop().sides
    ])
    mesh = curvature_map(make_patch(flat), 4)
    assert mesh.scalar is not None
    assert np.abs(mesh.scalar).max() <= 1e-6


def test_curvature_map_pentagon_smooth():
    mesh = curvature_map(make_patch(pentagon_loop()), 6)
    assert np.all(np.isfinite(mesh.scalar))
    # frozen regression bounds from the first verified run
    assert -2.0 < mesh.scalar.min() < mesh.scalar.max() < 2.0


def test_contours_single_triangle():
    mesh = TriMesh(
        np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 0, 1.0]]),
        np.array([[0, 1, 2]]),
    )
    cs = contours(mesh, np.array([0.0, 0, 1.0]), 1)
    assert cs.levels == [0.5]
    assert len(cs.polylines) == 1
    poly = cs.polylines[0]
    assert len(poly) == 2
    assert np.allclose(sorted(poly[:, 0]), [0.0, 0.5], atol=1e-12)
    assert np.allclose(poly[:, 2], 0.5, atol=1e-12)


def test_contours_planar_square():
    from npatch.fixtures import square_loop

    mesh = mesh_patch(make_patch(square_loop()), 8)
    cs = contours(mesh, np.array([1.0, 0, 0]), 5)
    assert len(cs.levels) == 5
    for poly in cs.polylines:
        # straight lines of constant x
        assert np.abs(poly[:, 0] - poly[0, 0]).max() <= 1e-9
    # each level produces at least one polyline on a convex planar mesh
    xs = sorted({round(p[0, 0], 6) for p in cs.polylines})
    assert len(xs) == 5


def test_contour_points_on_plane_and_boundary():
    mesh = mesh_patch(make_patch(pentagon_loop()), 10)
    axis = np.array([0.0, 0, 1.0])
    cs = contours(mesh, axis, 7)
    assert len(cs.polylines) >= 7
    for poly in cs.polylines:
        level_vals = poly @ axis
        assert np.abs(level_vals - level_vals[0]).max() <= 1e-9
        closed = np.allclose(poly[0], poly[-1], atol=1e-12)
        assert closed or len(poly) >= 2


def test_closed_contours_close_bitwise():
    # the square fixture with every side bowed up by 1: the two top levels
    # circle the crown
    loop = make_loop([BezierCurve([c.control_points[0], c.eval(0.5) + [0, 0, 1],
                                   c.control_points[-1]]) for c in square_loop().sides])
    cs = contours(mesh_patch(make_patch(loop), 12), np.array([0.0, 0, 1.0]), 5)
    closed = [poly for poly in cs.polylines if np.allclose(poly[0], poly[-1])]
    assert len(closed) == 2
    assert all(np.array_equal(poly[0], poly[-1]) for poly in closed)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(3, 12), degree=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       axis=st.sampled_from(np.eye(3).tolist()))
def test_contours_on_level_planes(n, degree, seed, axis):
    loop = random_loop(n, degree, np.random.default_rng(seed))
    cs = contours(mesh_patch(make_patch(loop), 8), np.array(axis), 5)
    levels = np.array(cs.levels)
    for poly in cs.polylines:
        proj = poly @ cs.axis
        level = levels[np.abs(levels - proj[0]).argmin()]
        assert np.abs(proj - level).max() <= 1e-12 * loop.bbox_diagonal()


def test_harmonic_planar_loop():
    flat = make_loop([
        BezierCurve(c.control_points * [1, 1, 0]) for c in pentagon_loop().sides
    ])
    mesh = harmonic_fill(mesh_patch(make_patch(flat), 6))
    assert np.abs(mesh.vertices[:, 2]).max() <= 1e-9


def test_harmonic_umbrella_and_max_principle():
    loop = pentagon_loop()
    mesh = harmonic_fill(mesh_patch(make_patch(loop), 6))
    boundary = set(mesh.boundary.index.tolist())
    nbr = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            nbr.setdefault(int(a), set()).add(int(b))
            nbr.setdefault(int(b), set()).add(int(a))
    scale = loop.bbox_diagonal()
    bpts = mesh.vertices[sorted(boundary)]
    lo, hi = bpts.min(axis=0), bpts.max(axis=0)
    for v, ns in nbr.items():
        if v in boundary:
            continue
        avg = mesh.vertices[sorted(ns)].mean(axis=0)
        assert np.abs(mesh.vertices[v] - avg).max() <= 1e-9 * scale
        # discrete maximum principle, componentwise
        assert np.all(mesh.vertices[v] >= lo - 1e-9)
        assert np.all(mesh.vertices[v] <= hi + 1e-9)


def test_harmonic_energy_below_patch_energy():
    loop = pentagon_loop()
    m = 8
    harmonic = harmonic_fill(mesh_patch(make_patch(loop), m))
    patch_mesh = mesh_patch(make_patch(loop), m)
    assert np.array_equal(harmonic.triangles, patch_mesh.triangles)
    e_h = dirichlet_energy(harmonic)
    e_p = dirichlet_energy(patch_mesh)
    assert e_h <= e_p


@pytest.mark.parametrize("n", [3, 4, 6])
def test_harmonic_other_fixtures(n):
    loop = random_loop(n, 3, np.random.default_rng(80 + n))
    mesh = harmonic_fill(mesh_patch(make_patch(loop), 5))
    assert np.all(np.isfinite(mesh.vertices))


def _triangle_mesh(vertices, pinned):
    """One triangle plus any extra vertices; the first `pinned` vertices are boundary."""
    index = np.arange(pinned)
    return TriMesh(vertices, [[0, 1, 2]], boundary=Boundary(index, index, np.zeros(pinned)))


@pytest.mark.parametrize("source", ["no table", "empty table"])
def test_harmonic_needs_boundary_table(source):
    if source == "no table":
        patch_mesh = mesh_patch(make_patch(square_loop()), 3)
        mesh = TriMesh(patch_mesh.vertices, patch_mesh.triangles)
    else:
        mesh = _triangle_mesh(np.eye(3), 0)
    with pytest.raises(SchemaError, match="boundary"):
        harmonic_fill(mesh)


def test_harmonic_without_interior_vertices_is_unchanged():
    mesh = _triangle_mesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 1]]), 3)
    assert np.array_equal(harmonic_fill(mesh).vertices, mesh.vertices)


def test_harmonic_isolated_interior_vertex_is_numeric_error():
    # no neighbors to average: the umbrella residual is NaN, not a pass
    mesh = _triangle_mesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 1], [5, 5, 5]]), 3)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        harmonic_fill(mesh)


DEGENERATE_LOOPS = {
    # the unit square, one corner raised, with a fifth side of length zero at (1, 0, 0)
    "zero-length side": loop_doc([[0, 1, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]],
                                 [[1, 0, 0], [1, 0, 0]], [[1, 0, 0], [1, 1, 0.5]],
                                 [[1, 1, 0.5], [0, 1, 0]]),
    # a side that is the single point (1, 0, 0)
    "degree-0 side": loop_doc([[0, 0, 0], [1, 0, 0]], [[1, 0, 0]],
                              [[1, 0, 0], [0.5, 0.5, 0.5], [0, 1, 0]], [[0, 1, 0], [0, 0, 0]]),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_LOOPS))
def test_degenerate_sides_mesh_fill_and_curve_finitely(name):
    patch = make_patch(read_loop(DEGENERATE_LOOPS[name]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh = mesh_patch(patch, 8)
        assert np.all(np.isfinite(mesh.vertices))
        assert np.all(np.isfinite(harmonic_fill(mesh).vertices))
        assert np.all(np.isfinite(curvature_map(patch, 6).scalar))
