import numpy as np
import pytest
from conftest import random_interior_points

from npatch import DomainPolygon, local_params
from npatch.errors import DomainError


def test_vertex_placement_square():
    poly = DomainPolygon(4)
    expected = [(0, 1), (-1, 0), (0, -1), (1, 0)]
    assert np.allclose(poly.vertices, expected, atol=1e-15)


def test_vertex_placement_triangle():
    poly = DomainPolygon(3)
    assert np.allclose(np.linalg.norm(poly.vertices, axis=1), 1.0, atol=1e-15)
    assert np.allclose(poly.vertices[0], (0, 1), atol=1e-15)


def test_hexagon_edge_length():
    poly = DomainPolygon(6)
    e = poly.vertices[1] - poly.vertices[0]
    assert np.isclose(np.linalg.norm(e), 2 * np.sin(np.pi / 6), atol=1e-14)


def test_rejects_small_n():
    with pytest.raises(ValueError):
        DomainPolygon(2)


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_center_distances_equal_apothem(n):
    poly = DomainPolygon(n)
    d = poly.edge_distances_many(np.zeros((1, 2)))
    assert np.allclose(d, np.cos(np.pi / n), atol=1e-15)


def test_edge_midpoint_distance_zero():
    poly = DomainPolygon(5)
    mids = poly.edge_point(np.arange(5), 0.5)
    assert np.all(np.diag(poly.edge_distances_many(mids)) == 0.0)


def test_square_distances_hand_case():
    poly = DomainPolygon(4)
    # square rotated 45 deg, apothem sqrt(2)/2; offset point along +x
    d = poly.edge_distances_many(np.array([[0.1, 0.0]]))[0]
    a = np.sqrt(2) / 2
    s = 0.1 * np.sqrt(2) / 2
    # edges 0 and 3 face +x-ish, edges 1 and 2 face -x-ish
    assert np.allclose(sorted(d), sorted([a - s, a + s, a + s, a - s]), atol=1e-15)
    assert np.allclose(d[0] + d[2], 2 * a, atol=1e-15)


def test_outside_point_rejected():
    poly = DomainPolygon(4)
    with pytest.raises(DomainError):
        poly.edge_distances_many(np.array([[1.0, 1.0]]))
    with pytest.raises(DomainError):
        poly.wachspress_many(np.array([[0.0, 1.01]]))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 10])
def test_wachspress_center(n):
    lam = DomainPolygon(n).wachspress_many(np.zeros((1, 2)))
    assert np.allclose(lam, 1.0 / n, atol=1e-14)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_wachspress_vertices(n):
    poly = DomainPolygon(n)
    lam = poly.wachspress_many(poly.vertices)
    assert np.allclose(lam, np.eye(n), atol=1e-14)


def test_wachspress_square_equals_bilinear():
    # on a square Wachspress coincides with bilinear coordinates
    poly = DomainPolygon(4)
    rng = np.random.default_rng(2)
    a, b = rng.uniform(0, 1, size=(2, 50))
    # bilinear points over vertex cycle v0..v3
    w = np.column_stack([(1 - a) * (1 - b), a * (1 - b), a * b, (1 - a) * b])
    assert np.allclose(poly.wachspress_many(w @ poly.vertices), w, atol=1e-12)
    # edge midpoint case: the two edge vertices get 1/2
    mid = 0.5 * (poly.vertices[0] + poly.vertices[1])
    assert np.allclose(poly.wachspress_many(mid[None]), [0.5, 0.5, 0, 0], atol=1e-14)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 10])
def test_partition_of_unity_and_linear_precision(n):
    poly = DomainPolygon(n)
    rng = np.random.default_rng(n)
    pts = random_interior_points(rng, poly, 2000)
    lam = poly.wachspress_many(pts)
    assert np.abs(lam.sum(axis=1) - 1).max() <= 1e-12
    assert np.abs(lam @ poly.vertices - pts).max() <= 1e-12
    assert lam.min() >= 0


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_edge_lambda_linear_in_arclength(n):
    poly = DomainPolygon(n)
    t = np.linspace(0, 1, 33)
    for i in range(n):
        pts = np.array([poly.edge_point(i, tk) for tk in t])
        lam = poly.wachspress_many(pts)
        # only the edge's two vertex coordinates survive, varying linearly
        assert np.abs(lam[:, (i - 1) % n] - (1 - t)).max() <= 1e-10
        assert np.abs(lam[:, i % n] - t).max() <= 1e-10


def test_local_params_center():
    for n in (3, 4, 5, 7):
        poly = DomainPolygon(n)
        lp = local_params(poly.wachspress_many(np.zeros((1, 2))))
        assert np.allclose(lp.d, 1 - 2.0 / n, atol=1e-14)
        assert np.allclose(lp.s, 0.5, atol=1e-14)
        assert lp.valid.all()


def test_local_params_edge_midpoint():
    poly = DomainPolygon(5)
    lp = local_params(poly.wachspress_many(poly.edge_point(2, [0.5])))
    assert abs(lp.d[0, 2]) <= 1e-12
    assert abs(lp.s[0, 2] - 0.5) <= 1e-12


def test_local_params_far_edge():
    poly = DomainPolygon(6)
    lp = local_params(poly.wachspress_many(poly.edge_point(3, [0.25])))
    for i in range(6):
        if i in (2, 3, 4):
            continue
        assert abs(lp.d[0, i] - 1) <= 1e-12
        assert not lp.valid[0, i]


@pytest.mark.parametrize("n", range(3, 11))
def test_d_properties(n):
    poly = DomainPolygon(n)
    t = np.linspace(0, 1, 100)
    for i in range(n):
        pts = np.array([poly.edge_point(i, tk) for tk in t])
        lp = local_params(poly.wachspress_many(pts))
        assert np.abs(lp.d[:, i]).max() <= 1e-12
        assert np.abs(lp.d[:, (i - 1) % n] + lp.d[:, (i + 1) % n] - 1).max() <= 1e-12
        for j in range(n):
            if j in ((i - 1) % n, i, (i + 1) % n):
                continue
            assert np.abs(lp.d[:, j] - 1).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 5, 8, 10])
def test_sd_ranges(n):
    poly = DomainPolygon(n)
    rng = np.random.default_rng(100 + n)
    lam = poly.wachspress_many(random_interior_points(rng, poly, 100_000))
    lp = local_params(lam)
    assert lp.d.min() >= 0 and lp.d.max() <= 1
    s = lp.s[lp.valid]
    assert s.min() >= 0 and s.max() <= 1
