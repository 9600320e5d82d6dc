import warnings

import numpy as np
import pytest
from conftest import bbox_diagonal, bundled_loop, loop_doc, random_interior_points, scaled_doc
from hypothesis import given, settings
from hypothesis import strategies as st

from npatch import BezierCurve, DomainPolygon, TriMesh, analysis, make_loop, make_patch, mesh_patch
from npatch.analysis import (_pull_inward, contours, curvature_map, dirichlet_energy,
                             harmonic_fill, mean_curvature)
from npatch.errors import DomainError, NumericError
from npatch.fileio import read_loop
from npatch.fixtures import FIXTURE_DIR, random_loop
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


# every free coordinate is solved: the 2-D domain mesh fills as its lift to z = 0 does
# (it raised numpy's IndexError), and 4-D vertices as their 3-D columns (the fourth
# was left unsolved, and the umbrella check failed)
@pytest.mark.parametrize("mesh, columns", [
    (_lifted(TriMesh(*tessellate_domain(DomainPolygon(5), 3)[:3])), [0, 1]),
    (mesh_patch(make_patch(bundled_loop("pentagon")), 6), [0, 1, 2, 2]),
], ids=["2-D", "4-D"])
def test_harmonic_fill_solves_every_coordinate(mesh, columns):
    picked = TriMesh(mesh.vertices[:, columns], mesh.triangles, boundary=mesh.boundary)
    filled = harmonic_fill(mesh).vertices[:, columns]
    assert np.abs(harmonic_fill(picked).vertices - filled).max() <= 1e-12


# (k, 0) vertices have no coordinate to solve (the tolerances' length is 0): the mesh fills
# to itself
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


def _bits(a):
    """A float array's bit patterns, in which -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("point", [(1.0, 2, 3), (-0.5, 0.1, 7e-6), (1e-300, 0, 0)],
                         ids=["unit", "mixed", "tiny"])
def test_harmonic_fill_of_a_point_loop_is_the_point(point, monkeypatch):
    # every coordinate is constant on the boundary, so none is solved and each is copied,
    # without a V-cycle for a solve of no coordinate
    monkeypatch.setattr(analysis, "_v_cycle", lambda a: pytest.fail("V-cycle built"))
    mesh = mesh_patch(make_patch(make_loop([BezierCurve([point])] * 4)), 6)
    filled = harmonic_fill(mesh).vertices
    assert np.array_equal(_bits(filled), _bits(np.broadcast_to(point, filled.shape)))


def _flat(loop):
    """loop projected to z = 0."""
    return make_loop([BezierCurve(c.control_points * [1, 1, 0]) for c in loop.sides])


def _signed_zeros(mesh):
    """mesh with -0.0 for z at every other boundary vertex, the lowest-numbered one first."""
    vertices = mesh.vertices.copy()
    vertices[np.sort(mesh.boundary)[::2], 2] = -0.0
    return TriMesh(vertices, mesh.triangles, boundary=mesh.boundary)


# a coordinate constant on the boundary never reaches the solve: CG sees the other two, and
# the interior copies the lowest-numbered boundary vertex's z, so 0.0 and -0.0 mixed fill
# with that vertex's sign
@pytest.mark.parametrize("mesh", [
    mesh_patch(make_patch(bundled_loop("square")), 8),
    mesh_patch(make_patch(bundled_loop("triangle")), 8),
    mesh_patch(make_patch(_flat(random_loop(7, 3, np.random.default_rng(7)))), 8),
    _signed_zeros(mesh_patch(make_patch(bundled_loop("square")), 8)),
], ids=["square", "triangle", "flat random", "signed zeros"])
def test_harmonic_fill_copies_a_coordinate_constant_on_the_boundary(mesh, monkeypatch):
    cg, sizes = analysis._cg, []

    def recorded(a, b, *args, **kwargs):
        sizes.append(b.size)
        return cg(a, b, *args, **kwargs)

    monkeypatch.setattr(analysis, "_cg", recorded)
    interior = np.setdiff1d(np.arange(len(mesh.vertices)), mesh.boundary)
    z = harmonic_fill(mesh).vertices[:, 2]
    assert sizes == [2 * len(interior)]
    assert np.array_equal(_bits(z[interior]), _bits(np.full(len(interior), z[mesh.boundary.min()])))
    assert np.array_equal(_bits(z[mesh.boundary]), _bits(mesh.vertices[mesh.boundary, 2]))


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
    # one CG step leaves the square's m = 20 interior far from its solution (at m = 6 the
    # whole system is the V-cycle's dense level, and one step solves it)
    cg = analysis._cg
    monkeypatch.setattr(analysis, "_cg",
                        lambda *args, **kwargs: cg(*args, **{**kwargs, "maxiter": 1}))
    mesh = mesh_patch(make_patch(bundled_loop("square")), 20)
    with pytest.raises(NumericError, match=r"harmonic solve did not converge \(residual "):
        harmonic_fill(mesh)


def test_harmonic_isolated_interior_vertex_is_numeric_error():
    # no neighbors to average: refused before the umbrella check could divide 0 by 0
    mesh = _triangle_mesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 1], [5, 5, 5]]), 3)
    with pytest.raises(NumericError, match="interior vertex 3 has no neighbors"):
        harmonic_fill(mesh)


def test_harmonic_umbrella_check_refuses_a_wrong_solve(monkeypatch):
    # a solve that reports success but returns its start, the boundary's mean
    monkeypatch.setattr(analysis, "_cg", lambda a, b, x, **kwargs: (x, 0))
    with pytest.raises(NumericError, match="umbrella residual"):
        harmonic_fill(mesh_patch(make_patch(bundled_loop("pentagon")), 6))


# pocket6 at m = 40: 4681 interior vertices, three levels
SOLVE_BOUND = 20


def test_harmonic_solve_work_is_bounded(monkeypatch):
    # the V-cycle takes 14 CG steps; unpreconditioned CG took 685 over its three solves,
    # and without the coarse correction the V-cycle takes 135; a step applies the V-cycle once
    cg = analysis._cg
    steps = []

    def counted(a, b, x, precond, **kwargs):
        def cycle(r):
            steps.append(r)
            return precond(r)
        return cg(a, b, x, **{**kwargs, "maxiter": SOLVE_BOUND, "precond": cycle})

    monkeypatch.setattr(analysis, "_cg", counted)
    harmonic_fill(mesh_patch(make_patch(bundled_loop("pocket6")), 40))
    assert 1 <= len(steps) <= SOLVE_BOUND


@pytest.mark.parametrize("maxiter", [1, 4, 100])
@pytest.mark.parametrize("preconditioned", [False, True], ids=["plain", "V-cycle"])
def test_cg_repeats_scipys_cg(preconditioned, maxiter):
    # the package's CG on (k, d) blocks and scipy's cg on the interleaved vector give the same
    # bits, after 1 or 4 steps (not converged) or on convergence, and the same b = 0 return
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(20, 20))
    a = (sp.kron(line, sp.eye(20)) + sp.kron(sp.eye(20), line)).tocsr()  # 400 > COARSE_SIZE
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(400, 3))
    cycle = analysis._v_cycle(a) if preconditioned else None
    assert not preconditioned or cycle is not None

    def operator(f):
        return spla.LinearOperator((1200, 1200), lambda v: f(v.reshape(400, 3)).ravel(),
                                   dtype=float)

    for b in (rng.normal(size=(400, 3)), np.zeros((400, 3))):
        tol = {"rtol": 1e-14, "atol": 1e-14, "maxiter": maxiter}
        x, info = analysis._cg(a, b, x0.copy(), precond=cycle, **tol)
        expected, expected_info = spla.cg(operator(a.dot), b.ravel(), x0=x0.ravel(),
                                          M=cycle and operator(cycle), **tol)
        assert info == expected_info
        assert np.array_equal(_bits(x), _bits(expected.reshape(400, 3)))


def _direct_fill(mesh):
    """The harmonic fill by np.linalg.solve of the dense interior graph Laplacian."""
    k = len(mesh.vertices)
    lap = np.zeros((k, k))
    for a, b in mesh.edges():
        if a != b:
            lap[[a, b], [b, a]] -= 1.0
    lap[np.diag_indices(k)] = -lap.sum(axis=1)
    inner = np.ones(k, dtype=bool)
    inner[mesh.boundary] = False
    filled = mesh.vertices.copy()
    filled[inner] = np.linalg.solve(lap[inner][:, inner],
                                    -lap[inner][:, ~inner] @ mesh.vertices[~inner])
    return filled


# within 6 eps on these loops (past 300 interior vertices, through the V-cycle's levels)
DIRECT_TOL = 16 * np.finfo(float).eps


@pytest.mark.parametrize("m", [2, 5, 8])
@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURE_DIR.glob("*.json")))
def test_harmonic_fill_is_the_direct_solution(name, m):
    loop = bundled_loop(name)
    mesh = mesh_patch(make_patch(loop), m)
    err = np.abs(harmonic_fill(mesh).vertices - _direct_fill(mesh)).max()
    assert err <= DIRECT_TOL * bbox_diagonal(loop)


@settings(max_examples=15)
@given(n=st.integers(3, 16), m=st.integers(2, 8), degree=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_harmonic_fill_of_random_loops_is_the_direct_solution(n, m, degree, seed):
    loop = random_loop(n, degree, np.random.default_rng(seed))
    mesh = mesh_patch(make_patch(loop), m)
    err = np.abs(harmonic_fill(mesh).vertices - _direct_fill(mesh)).max()
    assert err <= DIRECT_TOL * bbox_diagonal(loop)


def test_harmonic_isolated_vertex_of_a_large_interior_is_numeric_error():
    # in a system above the V-cycle's dense size too, refused before any solve
    mesh = mesh_patch(make_patch(bundled_loop("pentagon")), 20)
    lone = TriMesh(np.vstack([mesh.vertices, [5.0, 5, 5]]), mesh.triangles, boundary=mesh.boundary)
    with pytest.raises(NumericError, match="vertex %d has no neighbors" % len(mesh.vertices)):
        harmonic_fill(lone)


def test_harmonic_interior_vertex_with_only_a_loop_is_numeric_error():
    # a triangle of one vertex, [v, v, v], joins v to itself alone: its Laplacian row is 0,
    # so it has no neighbors to average, as if it were in no triangle
    mesh = mesh_patch(make_patch(bundled_loop("pocket6")), 40)
    k = len(mesh.vertices)
    lone = TriMesh(np.vstack([mesh.vertices, [5.0, 5, 5]]), np.vstack([mesh.triangles, [k] * 3]),
                   boundary=mesh.boundary)
    with pytest.raises(NumericError, match="interior vertex %d has no neighbors" % k):
        harmonic_fill(lone)


def test_harmonic_fill_of_an_interior_apart_from_the_boundary():
    # a triangle of interior vertices joined to no boundary vertex has no unique fill: its
    # singular block fails the V-cycle's Cholesky factor, and CG leaves it at the start
    # value, the boundary's mean, while the rest fills as without it
    mesh = mesh_patch(make_patch(bundled_loop("pentagon")), 6)
    k = len(mesh.vertices)
    apart = [[0.1, 0.2, 0.3], [0.4, 0.1, 0.9], [0.3, 0.3, 0.3]]
    island = TriMesh(np.vstack([mesh.vertices, apart]),
                     np.vstack([mesh.triangles, [k, k + 1, k + 2]]), boundary=mesh.boundary)
    filled = harmonic_fill(island).vertices
    assert np.abs(filled[k:] - mesh.vertices[mesh.boundary].mean(axis=0)).max() <= 1e-15
    assert np.abs(filled[:k] - harmonic_fill(mesh).vertices).max() <= 1e-14


def test_harmonic_fill_of_an_interior_without_interior_edges():
    # 400 interior vertices, each in one triangle with boundary vertices 0 and 1 only: the
    # aggregation cannot coarsen, and CG runs without the V-cycle
    k = 403
    vertices = np.zeros((k, 3))
    vertices[:3] = [[0.0, 0, 0], [2, 0, 0], [0, 2, 0]]
    triangles = np.vstack([[0, 1, 2], np.column_stack([np.zeros(k - 3, int), np.ones(k - 3, int),
                                                       np.arange(3, k)])])
    filled = harmonic_fill(TriMesh(vertices, triangles, boundary=[0, 1, 2])).vertices
    assert np.abs(filled[3:] - [1.0, 0, 0]).max() <= 1e-15


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
