import warnings

import numpy as np
import pytest
from conftest import bbox_diagonal, bundled_loop, loop_doc, random_interior_points, scaled_doc
from hypothesis import given, settings
from hypothesis import strategies as st

from npatch import BezierCurve, DomainPolygon, TriMesh, make_loop, make_patch, mesh_patch
from npatch.analysis import (_pull_inward, contours, curvature_map, dirichlet_energy,
                             harmonic_fill, mean_curvature)
from npatch.errors import DomainError, NumericError
from npatch.fileio import read_loop
from npatch.fixtures import random_loop
from npatch.mesher import tessellate_domain


# the analytic surfaces map a (k, 2) array of domain points to (k, 3) points
def _plane(q):
    return np.column_stack([q, np.zeros(len(q))])


def test_curvature_plane():
    assert abs(mean_curvature(_plane, np.array([0.2, -0.1]))) <= 1e-6


@pytest.mark.parametrize("k", [1, 3])
def test_callable_surface_is_called_once_on_the_stencil(k):
    shapes = []

    def plane(q):
        shapes.append(q.shape)
        return _plane(q)

    assert mean_curvature(plane, np.full((k, 2), 0.1)).shape == (k,)
    assert shapes == [(9 * k, 2)]


# three points a call, kept away from the poles of the sphere
POINTS = np.array([[0.1, 0.05], [0.4, 0.1], [-0.2, 0.3]])


@pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
def test_curvature_sphere(r):
    def sphere(q):
        u, v = 0.3 + q[:, 0], 0.2 + q[:, 1]
        return r * np.column_stack([np.cos(u) * np.cos(v), np.cos(u) * np.sin(v), np.sin(u)])

    h = np.abs(mean_curvature(sphere, POINTS))
    assert np.all(np.abs(h - 1 / r) / (1 / r) <= 1e-3)


@pytest.mark.parametrize("r", [0.5, 2.0])
def test_curvature_cylinder(r):
    def cylinder(q):
        return np.column_stack([r * np.cos(q[:, 0]), r * np.sin(q[:, 0]), q[:, 1]])

    h = np.abs(mean_curvature(cylinder, POINTS))
    assert np.all(np.abs(h - 1 / (2 * r)) / (1 / (2 * r)) <= 1e-3)


def test_curvature_step_consistency():
    # halving h: second-order method, error should shrink ~4x (allow slack)
    def surf(q):
        return np.column_stack([q, np.sin(q[:, 0]) * np.cos(q[:, 1])])

    p = np.array([0.3, 0.2])
    exact = mean_curvature(surf, p, h=1e-5)
    e1 = abs(mean_curvature(surf, p, h=4e-3) - exact)
    e2 = abs(mean_curvature(surf, p, h=2e-3) - exact)
    assert e2 <= e1 / 4 * 4  # within 4x of the expected O(h^2) ratio
    assert e2 < e1


def test_patch_boundary_margin_enforced():
    patch = make_patch(bundled_loop("pentagon"))
    near_edge = patch.domain._edge_point(0, 0.5) * 0.99999
    with pytest.raises(DomainError):
        mean_curvature(patch, near_edge)


def test_patch_boundary_margin_enforced_batch():
    patch = make_patch(bundled_loop("pentagon"))
    points = np.array([[0.0, 0.0], [0.2, -0.1], patch.domain._edge_point(0, 0.5) * 0.99999])
    assert mean_curvature(patch, points[:2]).shape == (2,)
    with pytest.raises(DomainError):
        mean_curvature(patch, points)


def test_constant_surface_has_no_tangent_plane():
    with pytest.raises(NumericError, match="degenerate tangent plane"):
        mean_curvature(lambda q: np.full((len(q), 3), [1.0, 2.0, 3.0]), np.array([0.1, 0.2]))


def test_mean_curvature_batch_matches_points():
    rng = np.random.default_rng(31)
    patch = make_patch(random_loop(6, 3, rng))
    points = 0.9 * random_interior_points(rng, patch.domain, 25)
    batch = mean_curvature(patch, points)
    single = [mean_curvature(patch, q) for q in points]
    assert np.abs(batch - single).max() <= 1e-6


def test_mean_curvature_of_no_points_is_empty():
    assert mean_curvature(make_patch(bundled_loop("square")), np.zeros((0, 2))).shape == (0,)


def test_pull_inward():
    poly = DomainPolygon(5)
    q = _pull_inward(poly, poly._edge_point(2, [0.0, 0.3, 0.9]), 0.01)
    assert poly.edge_distances_many(q).min() >= 0.01 - 1e-12


def test_pull_inward_batch_matches_rows():
    poly = DomainPolygon(5)
    points = np.array([poly._edge_point(i, t) for i in range(5) for t in (0.0, 0.3, 0.9)]
                      + [[0.0, 0.0], [0.1, -0.2]])
    rows = [_pull_inward(poly, q, 0.01) for q in points]
    assert np.array_equal(_pull_inward(poly, points, 0.01), rows)


def test_curvature_map_planar_loop():
    flat = make_loop([
        BezierCurve(c.control_points * [1, 1, 0]) for c in bundled_loop("pentagon").sides
    ])
    mesh, h = curvature_map(make_patch(flat), 4)
    assert h.shape == (len(mesh.vertices),)
    assert np.abs(h).max() <= 1e-6


def test_curvature_map_pentagon_smooth():
    h = curvature_map(make_patch(bundled_loop("pentagon")), 6)[1]
    assert np.all(np.isfinite(h))
    # frozen regression bounds from the first verified run
    assert -2.0 < h.min() < h.max() < 2.0


# at a corner of a 3-sided loop H has a limit along each direction of approach, but none at
# the corner itself (curvature_map reports the bisector's); at a 4-sided loop's they agree
@pytest.mark.parametrize("name, spread", [("pocket3b", (1e-2, np.inf)), ("pocket4", (0.0, 1e-4))])
def test_curvature_at_a_corner_depends_on_the_direction_at_n3(name, spread):
    patch, r = make_patch(bundled_loop(name)), 1e-4
    # r from domain vertex 0, 20, 50 and 80 % of the way across its angle
    v = patch.domain.vertices
    phi = np.arctan2(*(v[1] - v[0])[::-1]) + np.array([0.2, 0.5, 0.8]) * np.pi * (1 - 2 / len(v))
    points = v[0] + r * np.column_stack([np.cos(phi), np.sin(phi)])
    # FD at h = r/25, r/50 and r/100 extrapolated to h = 0 (Richardson, error O(h^2))
    h1, h2, h3 = (mean_curvature(patch, points, h=r / k) for k in (25, 50, 100))
    coarse, fine = (4 * h2 - h1) / 3, (4 * h3 - h2) / 3
    assert np.abs(fine - coarse).max() / 15 <= 1e-5  # the extrapolation's error estimate
    assert spread[0] < np.ptp((16 * fine - coarse) / 15) < spread[1]


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
    mesh = mesh_patch(make_patch(bundled_loop("square")), 8)
    cs = contours(mesh, np.array([1.0, 0, 0]), 5)
    assert len(cs.levels) == 5
    for poly in cs.polylines:
        # straight lines of constant x
        assert np.abs(poly[:, 0] - poly[0, 0]).max() <= 1e-9
    # each level produces at least one polyline on a convex planar mesh
    xs = sorted({round(p[0, 0], 6) for p in cs.polylines})
    assert len(xs) == 5


def test_contour_points_on_plane_and_boundary():
    mesh = mesh_patch(make_patch(bundled_loop("pentagon")), 10)
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
                                   c.control_points[-1]]) for c in bundled_loop("square").sides])
    cs = contours(mesh_patch(make_patch(loop), 12), np.array([0.0, 0, 1.0]), 5)
    closed = [poly for poly in cs.polylines if np.allclose(poly[0], poly[-1])]
    assert len(closed) == 2
    assert all(np.array_equal(poly[0], poly[-1]) for poly in closed)


@settings(max_examples=25)
@given(n=st.integers(3, 12), degree=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       axis=st.sampled_from(np.eye(3).tolist()))
def test_contours_on_level_planes(n, degree, seed, axis):
    loop = random_loop(n, degree, np.random.default_rng(seed))
    cs = contours(mesh_patch(make_patch(loop), 8), np.array(axis), 5)
    levels = np.array(cs.levels)
    for poly in cs.polylines:
        proj = poly @ cs.axis
        level = levels[np.abs(levels - proj[0]).argmin()]
        assert np.abs(proj - level).max() <= 1e-12 * bbox_diagonal(loop)


def test_harmonic_planar_loop():
    flat = make_loop([
        BezierCurve(c.control_points * [1, 1, 0]) for c in bundled_loop("pentagon").sides
    ])
    mesh = harmonic_fill(mesh_patch(make_patch(flat), 6))
    assert np.abs(mesh.vertices[:, 2]).max() <= 1e-9


def test_harmonic_umbrella_and_max_principle():
    loop = bundled_loop("pentagon")
    mesh = harmonic_fill(mesh_patch(make_patch(loop), 6))
    boundary = set(mesh.boundary.tolist())
    nbr = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            nbr.setdefault(int(a), set()).add(int(b))
            nbr.setdefault(int(b), set()).add(int(a))
    scale = bbox_diagonal(loop)
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
    loop = bundled_loop("pentagon")
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


@pytest.mark.parametrize("shift", [1e6, 1e10])
def test_harmonic_fill_of_a_translated_loop(shift):
    # the solve runs about the boundary's bbox centre, so the umbrella check reads the fill's
    # own rounding, not rounding at the size of the offset
    loop = bundled_loop("pentagon")
    moved = make_loop([BezierCurve(c.control_points + shift) for c in loop.sides])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filled = harmonic_fill(mesh_patch(make_patch(moved), 6)).vertices
    unshifted = harmonic_fill(mesh_patch(make_patch(loop), 6)).vertices
    assert np.abs(filled - (unshifted + shift)).max() <= 16 * np.spacing(shift)


def test_harmonic_fill_near_the_float_range():
    # the solve's unit is the power of two at or below the boundary's 1.27e308 diagonal: the
    # one above it, 2**1024, is past the float range
    loop = read_loop(scaled_doc(bundled_loop("square"), 0.9e308, weld_tolerance=1e-9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filled = harmonic_fill(mesh_patch(make_patch(loop), 6)).vertices
    assert np.all(np.isfinite(filled))


def _lifted(mesh):
    """mesh with a zero coordinate appended to every vertex."""
    return TriMesh(np.pad(mesh.vertices, ((0, 0), (0, 1))), mesh.triangles, boundary=mesh.boundary)


# each coordinate is its own solve: the 2-D domain mesh fills as its lift to z = 0 does
# (it raised numpy's IndexError), and 4-D vertices as their 3-D columns (the fourth
# was left unsolved, and the umbrella check failed)
@pytest.mark.parametrize("mesh, columns", [
    (_lifted(TriMesh(*tessellate_domain(DomainPolygon(5), 3))), [0, 1]),
    (mesh_patch(make_patch(bundled_loop("pentagon")), 6), [0, 1, 2, 2]),
], ids=["2-D", "4-D"])
def test_harmonic_fill_solves_every_coordinate(mesh, columns):
    picked = TriMesh(mesh.vertices[:, columns], mesh.triangles, boundary=mesh.boundary)
    filled = harmonic_fill(mesh).vertices[:, columns]
    assert np.abs(harmonic_fill(picked).vertices - filled).max() <= 1e-12


# (k, 0) vertices have no coordinate to solve and no extent for the tolerances' length:
# the mesh fills to itself
@pytest.mark.parametrize("k", [4, 5])
def test_harmonic_fill_of_vertices_without_coordinates_is_the_mesh(k):
    mesh = TriMesh(np.zeros((k, 0)), [[0, 1, 3], [1, 2, 3], [2, 0, k - 1]], boundary=[0, 1, 2])
    filled = harmonic_fill(mesh)
    assert filled.vertices.shape == (k, 0)
    assert np.array_equal(filled.triangles, mesh.triangles)
    assert dirichlet_energy(filled) == 0.0


def test_harmonic_fill_ignores_degenerate_triangles():
    # a triangle that repeats a side adds no neighbor, and one of a single vertex a loop
    # that counts in its degree and its neighbor sum alike
    mesh = mesh_patch(make_patch(bundled_loop("pentagon")), 4)
    extra = np.vstack([mesh.triangles, mesh.triangles[0, [0, 1, 0]], [7, 7, 7]])
    degenerate = harmonic_fill(TriMesh(mesh.vertices, extra, boundary=mesh.boundary))
    assert np.array_equal(degenerate.vertices, harmonic_fill(mesh).vertices)


def _triangle_mesh(vertices, pinned):
    """One triangle plus any extra vertices; the first `pinned` vertices are boundary."""
    return TriMesh(vertices, [[0, 1, 2]], boundary=np.arange(pinned))


@pytest.mark.parametrize("point", [(1.0, 2, 3), (-0.5, 0.1, 7e-6), (1e-300, 0, 0)],
                         ids=["unit", "mixed", "tiny"])
def test_harmonic_fill_of_a_point_loop_is_the_point(point):
    # a boundary of one point has no extent; the tolerances take its size instead
    mesh = mesh_patch(make_patch(make_loop([BezierCurve([point])] * 4)), 6)
    filled = harmonic_fill(mesh).vertices
    assert np.abs(filled - point).max() <= 1e-15 * np.abs(point).max()


@pytest.mark.parametrize("source", ["no table", "empty table"])
def test_harmonic_needs_boundary_table(source):
    if source == "no table":
        patch_mesh = mesh_patch(make_patch(bundled_loop("square")), 3)
        mesh = TriMesh(patch_mesh.vertices, patch_mesh.triangles)
    else:
        mesh = _triangle_mesh(np.eye(3), 0)
    with pytest.raises(DomainError, match="boundary"):
        harmonic_fill(mesh)


def test_harmonic_without_interior_vertices_is_unchanged():
    mesh = _triangle_mesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 1]]), 3)
    assert np.array_equal(harmonic_fill(mesh).vertices, mesh.vertices)


def test_harmonic_solve_that_does_not_converge_is_numeric_error(monkeypatch):
    # one CG step leaves the square's m = 6 interior far from its solution
    import scipy.sparse.linalg as spla
    cg = spla.cg
    monkeypatch.setattr(spla, "cg", lambda *args, **kwargs: cg(*args, **{**kwargs, "maxiter": 1}))
    mesh = mesh_patch(make_patch(bundled_loop("square")), 6)
    with pytest.raises(NumericError, match=r"harmonic solve did not converge \(residual "):
        harmonic_fill(mesh)


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
        assert np.all(np.isfinite(curvature_map(patch, 6)[1]))


@settings(max_examples=30)
@given(n=st.integers(3, 12), degree=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       k=st.sampled_from([-260, -1, 1, 260]))
def test_power_of_two_scale_equivariance(n, degree, seed, k):
    # scaling a loop by 2**k scales every product and sum of the kernel, the mesh, the
    # curvature stencils and the harmonic solve exactly, so the mesh and the harmonic fill
    # scale by 2**k and H by 2**-k bit for bit
    loop = random_loop(n, degree, np.random.default_rng(seed))
    scaled = make_loop([BezierCurve(np.ldexp(c.control_points, k)) for c in loop.sides])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh, mesh_k = (mesh_patch(make_patch(lp), 5) for lp in (loop, scaled))
        assert np.array_equal(mesh_k.vertices, np.ldexp(mesh.vertices, k))
        curvature, curvature_k = (curvature_map(make_patch(lp), 5)[1] for lp in (loop, scaled))
        assert np.array_equal(curvature_k, np.ldexp(curvature, -k))
        harmonic, harmonic_k = (harmonic_fill(m).vertices for m in (mesh, mesh_k))
    assert np.array_equal(harmonic_k, np.ldexp(harmonic, k))
