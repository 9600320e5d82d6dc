import numpy as np
import pytest

from npatch import BezierCurve, DomainPolygon, make_loop, make_patch, mesh_patch, tessellate_domain
from npatch.fixtures import pentagon_loop, random_loop, square_loop


def edge_counts(mesh):
    t = mesh.triangles
    e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    e.sort(axis=1)
    _, counts = np.unique(e, axis=0, return_counts=True)
    return counts


def test_smallest_tessellation():
    mesh = tessellate_domain(DomainPolygon(3), 1)
    assert len(mesh.vertices) == 4
    assert len(mesh.triangles) == 3


def test_square_m2_counts():
    mesh = tessellate_domain(DomainPolygon(4), 2)
    assert len(mesh.vertices) == 13  # 8 boundary + 4 inner ring + center
    assert len(mesh.triangles) == 16


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("m", [1, 2, 5, 8])
def test_counts_and_euler(n, m):
    mesh = tessellate_domain(DomainPolygon(n), m)
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
    mesh = tessellate_domain(DomainPolygon(5), m)
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
    mesh = tessellate_domain(DomainPolygon(n), m)
    index, side, t = mesh.boundary
    assert len(index) == len(side) == len(t) == n * m
    assert sorted(index) == list(range(len(mesh.vertices) - n * m, len(mesh.vertices)))
    by_side = {}
    for s, tt in zip(side.tolist(), t.tolist()):
        by_side.setdefault(s, []).append(tt)
    assert sorted(by_side) == list(range(n))
    for s, ts in by_side.items():
        assert sorted(ts) == [k / m for k in range(m)]
    for v, s, tt in zip(index, side, t):
        assert np.abs(mesh.vertices[v] - DomainPolygon(n).edge_point(s, tt)).max() <= 1e-15


@pytest.mark.parametrize("n,m", [(3, 2), (5, 8), (8, 4)])
def test_boundary_vertices_exactly_on_curves(n, m):
    loop = random_loop(n, 3, np.random.default_rng(70 + n))
    mesh = mesh_patch(make_patch(loop), m)
    for v, side, t in zip(*mesh.boundary):
        assert np.abs(mesh.vertices[v] - loop.side(side).eval(t)).max() <= 1e-15


def test_planar_loop_planar_mesh():
    flat = make_loop([
        BezierCurve(c.control_points * [1, 1, 0]) for c in pentagon_loop().sides
    ])
    mesh = mesh_patch(make_patch(flat), 8)
    assert np.abs(mesh.vertices[:, 2]).max() <= 1e-12


def test_square_mesh_is_bilinear():
    # straight-edged square -> the patch is the bilinear (here planar) patch
    mesh = mesh_patch(make_patch(square_loop()), 6)
    assert np.abs(mesh.vertices[:, 2]).max() <= 1e-12
    assert mesh.vertices[:, 0].min() >= -1e-12
    assert mesh.vertices[:, 0].max() <= 1 + 1e-12


def test_bad_resolution():
    with pytest.raises(ValueError):
        tessellate_domain(DomainPolygon(4), 0)


def test_edge_table_follows_the_triangles():
    mesh = tessellate_domain(DomainPolygon(5), 3)
    table = mesh.edges()
    assert all(a is b for a, b in zip(mesh.edges(), table))  # kept between calls
    # assigning new triangles drops the kept table
    mesh.triangles = mesh.triangles[::2]
    edges, sides = mesh.edges()
    want = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    assert len(edges) < len(table[0])
    assert np.array_equal(edges, np.unique(want, axis=0))
    assert np.array_equal(edges[sides].reshape(-1, 2), want)


def test_mesh_patch_keeps_its_domain_points():
    patch = make_patch(pentagon_loop())
    mesh = mesh_patch(patch, 4)
    assert np.array_equal(mesh.domain, tessellate_domain(patch.domain, 4).vertices)
