import numpy as np
import pytest
from conftest import DEGREES, SEEDS, bbox_diagonal, bundled_loop
from hypothesis import given, settings
from hypothesis import strategies as st

from npatch import BezierCurve, DomainPolygon, TriMesh, make_loop, make_patch, mesh_patch, mesher
from npatch.analysis import dirichlet_energy, harmonic_fill
from npatch.fixtures import random_loop
from npatch.mesher import tessellate_domain


def reference_tessellation(poly, m):
    """The ring tessellation through a cyclic ring index: the oracle of tessellate_domain.

    Returns (vertices, triangles, (index, side, t) of the boundary table, sectors).
    """
    n = poly.n

    def ring_vertex(level, k):
        # ring `level`'s cyclic vertex k = side * level + slot; ring 0 is the center
        return n * level * (level - 1) // 2 + (level > 0) + k % np.maximum(n * level, 1)

    levels = np.arange(1, m + 1)
    level = np.repeat(levels, n * levels)
    side, k = np.divmod(np.arange(level.size) - n * level * (level - 1) // 2, level)
    t = k / level
    ring = (level / m)[:, None] * poly._edge_point(side, t)
    on_boundary = level == m
    boundary = (1 + np.nonzero(on_boundary)[0], side[on_boundary], t[on_boundary])

    # steps of one side's strip at level lev: outer i < lev, then inner j < lev-1
    lev = np.repeat(levels, 2 * levels - 1)
    step = np.arange(lev.size) - (lev - 1) ** 2
    inner = step >= lev
    j = step - lev
    a = np.where(inner, (j + 1) * lev // np.maximum(lev - 1, 1), step)  # outer steps before
    b = np.where(inner, j, np.maximum(((step + 1) * (lev - 1) - 1) // lev, 0))  # inner steps before
    s = np.arange(n)[:, None]
    triangles = np.empty((n * m * m, 3), dtype=int)
    triangles[n * (lev - 1) ** 2 + s * (2 * lev - 1) + a + b] = np.stack([
        ring_vertex(lev, s * lev + a),
        np.where(inner, ring_vertex(lev - 1, s * (lev - 1) + b + 1),
                 ring_vertex(lev, s * lev + a + 1)),
        ring_vertex(lev - 1, s * (lev - 1) + b),
    ], axis=-1)
    # side q's ring vertices, level by level and slot by slot
    sectors = 1 + np.stack([np.nonzero(side == q)[0] for q in range(n)], axis=1)
    return np.vstack([np.zeros((1, 2)), ring]), triangles, boundary, sectors


def boundary_table(mesh, n, m):
    """(index, side, t) of a ring mesh's boundary: boundary[q*m + j] lies on side q at t = j/m."""
    return mesh.boundary, np.repeat(np.arange(n), m), np.tile(np.arange(m) / m, n)


@pytest.mark.parametrize("n", range(3, 17))
def test_tessellation_matches_the_reference(n):
    # bit for bit: the goldens pin the tessellation digest for n = 3 to 6 only; the large m
    # hold long strips, whose closed-form order must still be the merge by normalized ends
    poly = DomainPolygon(n)
    for m in [*range(1, 14), 31, 64]:
        *arrays, sectors = tessellate_domain(poly, m)
        mesh = TriMesh(*arrays)
        vertices, triangles, boundary, want = reference_tessellation(poly, m)
        assert sectors.dtype == want.dtype and sectors.tobytes() == want.tobytes()
        assert mesh.vertices.tobytes() == vertices.tobytes()
        assert mesh.triangles.dtype == triangles.dtype
        assert np.array_equal(mesh.triangles, triangles)
        for got, want in zip(boundary_table(mesh, n, m), boundary, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def edge_counts(mesh):
    t = mesh.triangles
    e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    e.sort(axis=1)
    _, counts = np.unique(e, axis=0, return_counts=True)
    return counts


def test_smallest_tessellation():
    mesh = TriMesh(*tessellate_domain(DomainPolygon(3), 1)[:3])
    assert len(mesh.vertices) == 4
    assert len(mesh.triangles) == 3


def test_square_m2_counts():
    mesh = TriMesh(*tessellate_domain(DomainPolygon(4), 2)[:3])
    assert len(mesh.vertices) == 13  # 8 boundary + 4 inner ring + center
    assert len(mesh.triangles) == 16


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("m", [1, 2, 5, 8, 30])
def test_counts_and_euler(n, m):
    mesh = TriMesh(*tessellate_domain(DomainPolygon(n), m)[:3])
    v = len(mesh.vertices)
    f = len(mesh.triangles)
    assert f == n * m * m
    assert v == 1 + n * m * (m + 1) // 2
    counts = edge_counts(mesh)
    e = len(counts)
    assert v - e + f == 1  # disk
    # manifold: every edge borders one or two triangles
    assert set(np.unique(counts)) <= {1, 2}
    # boundary edges form the single outer loop
    assert (counts == 1).sum() == n * m


@pytest.mark.parametrize("m", [1, 3, 6])
def test_no_degenerate_triangles(m):
    mesh = TriMesh(*tessellate_domain(DomainPolygon(5), m)[:3])
    t = mesh.triangles
    assert np.all(t >= 0) and np.all(t < len(mesh.vertices))
    assert np.all(t[:, 0] != t[:, 1])
    assert np.all(t[:, 1] != t[:, 2])
    assert np.all(t[:, 0] != t[:, 2])
    # consistent CCW orientation in the domain
    a = mesh.vertices[t[:, 1]] - mesh.vertices[t[:, 0]]
    b = mesh.vertices[t[:, 2]] - mesh.vertices[t[:, 0]]
    assert np.all(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0] > 0)


def test_boundary_table_covers_outer_ring():
    n, m = 5, 4
    mesh = TriMesh(*tessellate_domain(DomainPolygon(n), m)[:3])
    index, side, t = boundary_table(mesh, n, m)
    assert len(index) == len(side) == len(t) == n * m
    assert sorted(index) == list(range(len(mesh.vertices) - n * m, len(mesh.vertices)))
    by_side = {}
    for s, tt in zip(side.tolist(), t.tolist()):
        by_side.setdefault(s, []).append(tt)
    assert sorted(by_side) == list(range(n))
    for s, ts in by_side.items():
        assert sorted(ts) == [k / m for k in range(m)]
    for v, s, tt in zip(index, side, t):
        assert np.abs(mesh.vertices[v] - DomainPolygon(n)._edge_point(s, tt)).max() <= 1e-15


@pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (5, 8), (8, 4), (8, 30), (16, 13)])
@settings(max_examples=3)
@given(degree=DEGREES, seed=SEEDS)
def test_boundary_vertices_exactly_on_curves(n, m, degree, seed):
    loop = random_loop(n, degree, np.random.default_rng(seed))
    mesh = mesh_patch(make_patch(loop), m)
    for v, side, t in zip(*boundary_table(mesh, n, m)):
        assert np.abs(mesh.vertices[v] - loop.sides[side].eval(t)).max() <= 1e-15


def test_planar_loop_planar_mesh():
    flat = make_loop([
        BezierCurve(c.control_points * [1, 1, 0]) for c in bundled_loop("pentagon").sides
    ])
    mesh = mesh_patch(make_patch(flat), 8)
    assert not mesh.vertices[:, 2].any()


def test_square_mesh_is_bilinear():
    # straight-edged square -> the patch is the bilinear (here planar) patch
    mesh = mesh_patch(make_patch(bundled_loop("square")), 6)
    assert np.abs(mesh.vertices[:, 2]).max() <= 1e-12
    assert mesh.vertices[:, 0].min() >= -1e-12
    assert mesh.vertices[:, 0].max() <= 1 + 1e-12


def test_bad_resolution():
    with pytest.raises(ValueError):
        tessellate_domain(DomainPolygon(4), 0)


def test_edge_table_follows_the_triangles():
    dm = TriMesh(*tessellate_domain(DomainPolygon(5), 3)[:3])
    table = dm.edges()
    # a triangle that repeats a vertex has a side from that vertex to itself
    mesh = TriMesh(dm.vertices, np.vstack([dm.triangles[::2], [[4, 7, 4]]]))
    edges = mesh.edges()
    want = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    assert len(edges) < len(table)
    assert np.array_equal(edges, np.unique(want, axis=0))
    assert [4, 4] in edges.tolist()


def test_a_mesh_is_read_only():
    vertices, triangles = np.eye(4, 3), np.array([[0, 1, 2], [0, 2, 3]])
    boundary, domain = np.array([0, 1, 2]), np.zeros((4, 2))
    mesh = TriMesh(vertices, triangles, boundary=boundary, domain=domain)
    for name in ("vertices", "triangles", "boundary", "domain"):
        with pytest.raises(AttributeError):
            setattr(mesh, name, getattr(mesh, name))
        with pytest.raises(ValueError):
            getattr(mesh, name)[0] = 0
    with pytest.raises(AttributeError):
        mesh.scalar = np.zeros(4)
    # the checked arrays are the mesh's own copies, and the caller's own stay writeable
    for given, held in ((vertices, mesh.vertices), (triangles, mesh.triangles),
                        (boundary, mesh.boundary), (domain, mesh.domain)):
        assert not np.shares_memory(held, given) and given.flags.writeable
    # faces [[0, 1, 5]] on four vertices reach no consumer, by assignment or in place
    with pytest.raises(AttributeError):
        mesh.triangles = np.array([[0, 1, 5]])
    with pytest.raises(ValueError):
        mesh.triangles[0, 2] = 5
    assert np.array_equal(mesh.triangles, triangles)
    # and so is every mesh the package makes
    for made in (mesh_patch(make_patch(bundled_loop("square")), 2), harmonic_fill(mesh)):
        assert not any(a.flags.writeable for a in (made.vertices, made.triangles, made.boundary))


def test_a_write_into_the_callers_arrays_reaches_no_mesh():
    # faces [[0, 1, 5]] on four vertices made the edge keys alias: an energy of 4.0, no error;
    # a domain list was kept as the caller's own object
    vertices, triangles, domain = np.eye(4, 3), np.array([[0, 1, 2]]), [[0, 0]] * 4
    mesh = TriMesh(vertices, triangles, domain=domain)
    energy = dirichlet_energy(mesh)
    triangles[0, 2] = 5
    vertices[0] = 7.0
    domain[0] = [5, 5]
    assert dirichlet_energy(mesh) == energy
    assert np.array_equal(mesh.triangles, [[0, 1, 2]])
    assert np.array_equal(mesh.vertices, np.eye(4, 3))
    assert mesh.domain.dtype == float and np.array_equal(mesh.domain, np.zeros((4, 2)))


def test_mesh_patch_builds_one_mesh(monkeypatch):
    # the tessellation hands its arrays on unchecked: the patch mesh checks them once
    built, init = [], TriMesh.__init__

    def counted(self, vertices, *args, **kwargs):
        built.append(len(vertices))
        init(self, vertices, *args, **kwargs)

    monkeypatch.setattr(TriMesh, "__init__", counted)
    patch = make_patch(bundled_loop("pentagon"))
    tessellate_domain(patch.domain, 4)
    assert built == []
    mesh = mesh_patch(patch, 4)
    assert built == [len(mesh.vertices)]


def test_mesh_patch_builds_one_sector_table(monkeypatch):
    # the tessellation hands its sector table on for the rotation scatter
    calls, sectors = [], mesher._sectors
    monkeypatch.setattr(mesher, "_sectors", lambda *args: calls.append(args) or sectors(*args))
    mesh_patch(make_patch(bundled_loop("pentagon")), 4)
    assert calls == [(5, 4)]


def test_mesh_patch_keeps_its_domain_points():
    patch = make_patch(bundled_loop("pentagon"))
    mesh = mesh_patch(patch, 4)
    domain_mesh = TriMesh(*tessellate_domain(patch.domain, 4)[:3])
    assert np.array_equal(mesh.domain, domain_mesh.vertices)
    assert np.array_equal(mesh.triangles, domain_mesh.triangles)


def _off_boundary(mesh):
    inner = np.ones(len(mesh.vertices), dtype=bool)
    inner[mesh.boundary] = False
    return inner


@settings(max_examples=40)
@given(n=st.integers(3, 16), degree=st.integers(1, 7), m=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_sector_vertices_match_the_kernel(n, degree, m, seed):
    # mesh_patch evaluates one sector and rotates it; eval_many sees every point
    loop = random_loop(n, degree, np.random.default_rng(seed))
    patch = make_patch(loop)
    mesh = mesh_patch(patch, m)
    inner = _off_boundary(mesh)
    want = patch.eval_many(mesh.domain[inner])
    assert np.abs(mesh.vertices[inner] - want).max() <= 1e-14 * bbox_diagonal(loop)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8])
def test_narrow_numpy_integers_mesh_like_ints(dtype):
    # n and m are kept as Python ints: a narrow numpy int overflowed in the index arithmetic
    patch = make_patch(bundled_loop("pentagon"))
    for got, want in [(mesh_patch(patch, dtype(100)), mesh_patch(patch, 100)),
                      (TriMesh(*tessellate_domain(DomainPolygon(dtype(100)), 10)[:3]),
                       TriMesh(*tessellate_domain(DomainPolygon(100), 10)[:3]))]:
        assert got.vertices.tobytes() == want.vertices.tobytes()
        assert got.triangles.tobytes() == want.triangles.tobytes()
        assert got.boundary.dtype == want.boundary.dtype
        assert got.boundary.tobytes() == want.boundary.tobytes()


@pytest.mark.parametrize("n", [32, 64])
def test_many_sided_loops(n):
    loop = random_loop(n, 3, np.random.default_rng(n))
    patch = make_patch(loop)
    scale = bbox_diagonal(loop)
    mesh = mesh_patch(patch, 10)
    assert np.all(np.isfinite(mesh.vertices))
    inner = _off_boundary(mesh)
    assert np.abs(mesh.vertices[inner] - patch.eval_many(mesh.domain[inner])).max() <= 1e-14 * scale
    # the patch meets the boundary curves before the snap replaces those vertices
    unsnapped = patch.eval_many(mesh.domain[mesh.boundary])
    assert np.abs(unsnapped - mesh.vertices[mesh.boundary]).max() <= 1e-12 * scale
    for i in range(n):
        near_corner = patch.eval(patch.domain.vertices[i] * (1 - 1e-9))
        assert np.all(np.isfinite(near_corner))
        assert np.abs(near_corner - loop.sides[i].control_points[-1]).max() <= 1e-6 * scale
