import numpy as np
import pytest
from conftest import (CORNER_DISTANCES, EPS64, SEEDS, SIDES, probe_points,
                      random_interior_points)
from hypothesis import given, settings
from hypothesis import strategies as st

from npatch.domain import DomainPolygon, local_params
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
    mids = poly._edge_point(np.arange(5), 0.5)
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


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16])
def test_snap_band_zeroes_the_off_edge_coordinates(n):
    # a distance within EPS_GEOM = 1e-12 of edge i snaps to 0, so 5e-13 inside it only
    # lambda_{i-1} and lambda_i are nonzero; 1e-11 inside, every coordinate is positive
    poly = DomainPolygon(n)
    i = np.arange(n)
    on_edge = (i[:, None] == i) | ((i[:, None] - 1) % n == i)  # row i: lambda_{i-1}, lambda_i
    for t in (0.1, 0.5, 0.8):
        points = poly._edge_point(i, t)
        near = poly.wachspress_many(points - 5e-13 * poly.edge_normals)
        assert np.all(near[~on_edge] == 0.0) and np.all(near[on_edge] > 0.0)
        assert np.all(poly.wachspress_many(points - 1e-11 * poly.edge_normals) > 0.0)


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


@pytest.mark.parametrize("n", SIDES)
@settings(max_examples=5)
@given(seed=SEEDS, distance=CORNER_DISTANCES)
def test_partition_of_unity_and_linear_precision(n, seed, distance):
    poly = DomainPolygon(n)
    pts = probe_points(np.random.default_rng(seed), poly, distance, count=1000)
    lam = poly.wachspress_many(pts)
    assert np.abs(lam.sum(axis=1) - 1).max() <= EPS64
    assert np.abs(lam @ poly.vertices - pts).max() <= EPS64
    assert lam.min() >= 0


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_edge_lambda_linear_in_arclength(n):
    poly = DomainPolygon(n)
    t = np.linspace(0, 1, 33)
    for i in range(n):
        pts = np.array([poly._edge_point(i, tk) for tk in t])
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
    lp = local_params(poly.wachspress_many(poly._edge_point(2, [0.5])))
    assert abs(lp.d[0, 2]) <= 1e-12
    assert abs(lp.s[0, 2] - 0.5) <= 1e-12


def test_local_params_far_edge():
    poly = DomainPolygon(6)
    lp = local_params(poly.wachspress_many(poly._edge_point(3, [0.25])))
    for i in range(6):
        if i in (2, 3, 4):
            continue
        assert abs(lp.d[0, i] - 1) <= 1e-12
        assert not lp.valid[0, i]
        assert lp.s[0, i] == 0.0


@pytest.mark.parametrize("n", SIDES)
@settings(max_examples=5)
@given(t=st.lists(st.floats(0, 1), min_size=1, max_size=20), seed=SEEDS,
       distance=CORNER_DISTANCES)
def test_d_properties(n, t, seed, distance):
    poly = DomainPolygon(n)
    i = np.arange(n)
    t = np.r_[0.0, t, distance, 1.0 - distance, 1.0]
    # d[i, k, j]: side j's d at edge i's point t[k]
    s, d, _ = local_params(poly.wachspress_many(poly._edge_point(i[:, None], t).reshape(-1, 2)))
    d = d.reshape(n, t.size, n)
    assert np.abs(d[i, :, i]).max() <= EPS64
    assert np.abs(d[i, :, i - 1] + d[i, :, (i + 1) % n] - 1).max() <= EPS64
    far = np.abs((i - i[:, None] + 1) % n - 1) > 1  # [i, j]: j is not side i - 1, i or i + 1
    assert np.abs(d - 1).transpose(0, 2, 1)[far].max(initial=0.0) <= EPS64
    # at random interior points every side is at a distance strictly between 0 and 1
    # (near a corner the far sides' d rounds to 1)
    pts = probe_points(np.random.default_rng(seed), poly, distance, count=200)
    inner_s, d, _ = local_params(poly.wachspress_many(pts))
    assert d[:200].min() > 0 and d[:200].max() < 1
    # s lies in [0, 1] on every side, on the edges, inside and near the corners
    s = np.vstack([s, inner_s])
    assert s.min() >= 0 and s.max() <= 1


@settings(max_examples=40)
@given(n=st.integers(3, 16), seed=st.integers(0, 2**32 - 1))
def test_rotation_shifts_the_coordinates(n, seed):
    # lambda_i(R p) = lambda_{i-1}(p) for the rotation R by 2 pi / n, and so
    # for s_i and d_i; s_i's rounding grows as its weight 1 - d_i -> 0, so it
    # is compared scaled by that weight
    poly = DomainPolygon(n)
    pts = random_interior_points(np.random.default_rng(seed), poly, 100)
    lam = poly.wachspress_many(pts)
    lp = local_params(lam)
    for q in range(n):
        a = 2 * np.pi * q / n
        rotated = pts @ np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])
        lam_q = poly.wachspress_many(rotated)
        lp_q = local_params(lam_q)
        assert np.abs(lam_q - np.roll(lam, q, axis=1)).max() <= 1e-15
        assert np.array_equal(lp_q.valid, np.roll(lp.valid, q, axis=1))
        assert np.abs(lp_q.d - np.roll(lp.d, q, axis=1)).max() <= 1e-15
        weight = 1.0 - np.roll(lp.d, q, axis=1)
        assert np.abs((lp_q.s - np.roll(lp.s, q, axis=1)) * weight).max() <= 1e-15


def test_edge_normals_equal_the_roll_and_norm_formula():
    # the normals come from an index gather and row sums; this is the formula they replace
    for n in range(3, 401):
        poly = DomainPolygon(n)
        angles = np.pi / 2 + 2 * np.pi * np.arange(n) / n
        vertices = np.column_stack([np.cos(angles), np.sin(angles)])
        mids = 0.5 * (np.roll(vertices, 1, axis=0) + vertices)
        normals = mids / np.linalg.norm(mids, axis=1, keepdims=True)
        assert np.array_equal(poly.vertices.view(np.uint64), vertices.view(np.uint64))
        assert np.array_equal(poly.edge_normals.view(np.uint64), normals.view(np.uint64))
