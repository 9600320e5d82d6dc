import warnings

import numpy as np
import pytest
from conftest import bundled_loop, random_affine, random_interior_points
from hypothesis import given, settings
from hypothesis import strategies as st

from npatch import BezierCurve, DomainPolygon, make_loop, make_patch
from npatch.domain import local_params
from npatch.errors import DomainError
from npatch.fixtures import random_loop
from npatch.ribbon import Ribbon
from npatch.surface import BLOCK_VALUES


def classical_coons(loop, lam):
    """Independent oracle: the four-sided C0 Coons patch.

    Bilinear parameters recovered from the (bilinear-on-a-square)
    vertex coordinates; the standard two-ruled-surfaces-minus-bilinear
    formula is assembled directly from the loop's curves and corners.
    """
    a = lam[1] + lam[2]
    b = lam[2] + lam[3]
    c0, c1, c2, c3 = loop.sides
    p00 = c1.control_points[0]
    p10 = c1.control_points[-1]
    p11 = c2.control_points[-1]
    p01 = c3.control_points[-1]
    return (
        (1 - b) * c1.eval(a) + b * c3.eval(1 - a)
        + (1 - a) * c0.eval(1 - b) + a * c2.eval(b)
        - ((1 - a) * (1 - b) * p00 + a * (1 - b) * p10
           + a * b * p11 + (1 - a) * b * p01)
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_boundary_interpolation(n):
    loop = random_loop(n, 5, np.random.default_rng(40 + n))
    patch = make_patch(loop)
    tol = 1e-9 * loop.bbox_diagonal()
    t = np.linspace(0, 1, 50)
    for i in range(n):
        pts = np.array([patch.domain.edge_point(i, tk) for tk in t])
        err = np.abs(patch.eval_many(pts) - loop.sides[i].eval_many(t)).max()
        assert err <= tol


def test_corner_interpolation():
    for n in (3, 5, 8):
        loop = random_loop(n, 3, np.random.default_rng(50 + n))
        patch = make_patch(loop)
        for i in range(n):
            got = patch.eval(patch.domain.vertices[i])
            assert np.abs(got - loop.sides[i].control_points[-1]).max() <= 1e-12


def test_planar_loop_planar_patch():
    loop = random_loop(6, 3, np.random.default_rng(51))
    flat = make_loop([BezierCurve(c.control_points * [1, 1, 0]) for c in loop.sides])
    patch = make_patch(flat)
    pts = random_interior_points(np.random.default_rng(52), patch.domain, 500)
    assert np.abs(patch.eval_many(pts)[:, 2]).max() <= 1e-12


@pytest.mark.parametrize("n", range(3, 11))
def test_blend_partition_of_unity(n):
    patch_domain = make_patch(random_loop(n, 3, np.random.default_rng(60 + n))).domain
    pts = random_interior_points(np.random.default_rng(61), patch_domain, 5000)
    lp = local_params(patch_domain.wachspress_many(pts))
    blend = 0.5 * (1.0 - lp.d)
    assert np.abs(blend.sum(axis=1) - 1).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_matches_per_ribbon_sum(n):
    # reference: S = sum over valid sides of R_i(s_i, d_i) (1 - d_i) / 2,
    # one Ribbon evaluation per side
    loop = random_loop(n, 5, np.random.default_rng(63 + n))
    patch = make_patch(loop)
    poly = patch.domain
    pts = np.vstack([
        random_interior_points(np.random.default_rng(64), poly, 400),
        poly.vertices, 0.5 * (poly.vertices + np.roll(poly.vertices, 1, axis=0)),
        poly.vertices * (1 - 1e-9), np.zeros((1, 2)),
    ])
    want = ribbon_sum(patch, pts)
    tol = 1e-13 * loop.bbox_diagonal()
    assert np.abs(patch.eval_many(pts) - want).max() <= tol
    assert np.abs(patch.eval(pts[0]) - want[0]).max() <= tol


def test_square_matches_classical_coons():
    rng = np.random.default_rng(62)
    loop = random_loop(4, 3, rng)
    patch = make_patch(loop)
    tol = 1e-9 * loop.bbox_diagonal()
    pts = random_interior_points(rng, patch.domain, 300)
    lam = patch.domain.wachspress_many(pts)
    got = patch.eval_many(pts)
    for k in range(len(pts)):
        assert np.abs(got[k] - classical_coons(loop, lam[k])).max() <= tol


def test_eval_boundary_matches_curves():
    loop = random_loop(5, 5, np.random.default_rng(63))
    patch = make_patch(loop)
    for i in range(5):
        assert np.abs(patch.eval_boundary(i, 0.0) - loop.sides[i].eval(0.0)).max() <= 1e-12
        assert np.abs(patch.eval_boundary(i, 1.0) - loop.sides[i].eval(1.0)).max() <= 1e-12
        assert np.abs(patch.eval_boundary(i, 0.37) - loop.sides[i].eval(0.37)).max() <= 1e-10


def test_affine_equivariance():
    rng = np.random.default_rng(64)
    loop = random_loop(5, 3, rng)
    patch = make_patch(loop)
    pts = random_interior_points(rng, patch.domain, 100)
    for _ in range(5):
        a, b = random_affine(rng)
        mapped = make_loop([BezierCurve(c.control_points @ a.T + b) for c in loop.sides])
        direct = make_patch(mapped).eval_many(pts)
        routed = patch.eval_many(pts) @ a.T + b
        assert np.abs(direct - routed).max() <= 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(3, 16), degree=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_invariants_on_random_loops(n, degree, seed):
    rng = np.random.default_rng(seed)
    loop = random_loop(n, degree, rng)
    patch = make_patch(loop)
    poly = patch.domain
    tol = 1e-9 * loop.bbox_diagonal()
    # boundary and corner interpolation, every side in one batch
    t = np.linspace(0, 1, 9)
    on_edges = poly.edge_point(np.repeat(np.arange(n), t.size), np.tile(t, n))
    want = np.vstack([c.eval_many(t) for c in loop.sides])
    assert np.abs(patch.eval_many(on_edges) - want).max() <= tol
    corners = np.array([loop.sides[i].control_points[-1] for i in range(n)])
    assert np.abs(patch.eval_many(poly.vertices) - corners).max() <= 1e-12
    # Wachspress and blend-weight partition of unity
    pts = random_interior_points(rng, poly, 50)
    lam = poly.wachspress_many(pts)
    assert np.abs(lam.sum(axis=1) - 1).max() <= 1e-12
    blend = 0.5 * (1.0 - local_params(lam).d)
    assert np.abs(blend.sum(axis=1) - 1).max() <= 1e-12
    # affine equivariance
    a, b = random_affine(rng)
    mapped = make_loop([BezierCurve(c.control_points @ a.T + b) for c in loop.sides])
    direct = make_patch(mapped).eval_many(pts)
    routed = patch.eval_many(pts) @ a.T + b
    assert np.abs(direct - routed).max() <= 1e-9


@settings(max_examples=30, deadline=None, derandomize=True)
@given(degree=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_square_matches_classical_coons_on_random_loops(degree, seed):
    # the opposite curve is a cubic with the far side's end tangents, so it is
    # that side itself only up to degree 3
    rng = np.random.default_rng(seed)
    loop = random_loop(4, degree, rng)
    patch = make_patch(loop)
    pts = random_interior_points(rng, patch.domain, 50)
    want = np.array([classical_coons(loop, lam) for lam in patch.domain.wachspress_many(pts)])
    assert np.abs(patch.eval_many(pts) - want).max() <= 1e-9 * loop.bbox_diagonal()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(3, 16), degree=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_planar_random_loops_give_planar_patches(n, degree, seed):
    rng = np.random.default_rng(seed)
    loop = random_loop(n, degree, rng)
    flat = make_loop([BezierCurve(c.control_points * [1, 1, 0]) for c in loop.sides])
    patch = make_patch(flat)
    pts = random_interior_points(rng, patch.domain, 50)
    assert np.abs(patch.eval_many(pts)[:, 2]).max() <= 1e-12


def test_continuity_across_skip_threshold():
    # pairs straddling the s-validity threshold near a far edge must not jump
    loop = random_loop(6, 3, np.random.default_rng(65))
    patch = make_patch(loop)
    poly = patch.domain
    rng = np.random.default_rng(66)

    # Lipschitz estimate from global sampling (shrink pairs stay interior)
    pts = random_interior_points(rng, poly, 2000)
    q = pts * (1.0 - 1e-6)
    step = np.linalg.norm(pts - q, axis=1)
    ok = step > 0
    diff = np.linalg.norm(patch.eval_many(pts) - patch.eval_many(q), axis=1)
    lips = (diff[ok] / step[ok]).max()

    # straddle points: on edge 0 the far sides' lambda pair sum crosses EPS_SD
    for t in rng.uniform(0.1, 0.9, 20):
        base = poly.edge_point(0, t)
        inward = -poly.edge_normals[0]
        p = base + inward * 1e-8
        qq = base + inward * 3e-8
        jump = np.linalg.norm(patch.eval(p) - patch.eval(qq))
        assert jump <= lips * np.linalg.norm(p - qq) * 2 + 1e-12


def test_outside_point_rejected():
    patch = make_patch(bundled_loop("square"))
    with pytest.raises(DomainError):
        patch.eval(np.array([2.0, 0.0]))


def test_triangle_patch_builds():
    patch = make_patch(bundled_loop("triangle"))
    assert patch.n == 3
    assert Ribbon(patch.loop, 0).opp.degree == 0


def ribbon_sum(patch, pts):
    """Per-ribbon oracle: S = sum over valid sides of R_i(s_i, d_i) (1 - d_i) / 2."""
    lp = local_params(patch.domain.wachspress_many(pts))
    want = np.zeros((len(pts), 3))
    for i in range(patch.n):
        v = lp.valid[:, i]
        s, d = lp.s[v, i], lp.d[v, i]
        want[v] += Ribbon(patch.loop, i).eval_many(s, d) * (0.5 * (1 - d))[:, None]
    return want


def mixed_degree_loop(n, rng):
    """Degree-1 sides but side 0, which is a degree-7 curve on the same corners."""
    sides = list(random_loop(n, 1, rng).sides)
    a, b = sides[0].control_points
    t = np.linspace(0, 1, 8)[:, None]
    pts = (1 - t) * a + t * b
    pts[1:-1] += rng.normal(scale=0.15, size=(6, 3))
    sides[0] = BezierCurve(pts)
    return make_loop(sides)


@pytest.mark.parametrize("n", [3, 4, 8, 12])
def test_stacked_kernel_on_mixed_degrees(n):
    # every curve but side 0 is elevated to degree 7: the degree-1 sides and
    # the opposite curves, cubics for n >= 4 and points for n = 3
    loop = mixed_degree_loop(n, np.random.default_rng(70 + n))
    patch = make_patch(loop)
    assert {Ribbon(loop, i).opp.degree for i in range(n)} == {0 if n == 3 else 3}
    poly = patch.domain
    pts = np.vstack([
        random_interior_points(np.random.default_rng(71), poly, 400),
        poly.vertices, 0.5 * (poly.vertices + np.roll(poly.vertices, 1, axis=0)),
        poly.vertices * (1 - 1e-9), np.zeros((1, 2)),
    ])
    assert np.abs(patch.eval_many(pts) - ribbon_sum(patch, pts)).max() <= 1e-13 * loop.bbox_diagonal()


def test_batch_of_several_blocks_matches_single_points():
    loop = random_loop(12, 4, np.random.default_rng(72))
    patch = make_patch(loop)
    block = BLOCK_VALUES // (4 * patch.n)
    pts = random_interior_points(np.random.default_rng(73), patch.domain, 3 * block + 7)
    single = np.array([patch.eval(p) for p in pts])
    assert np.abs(patch.eval_many(pts) - single).max() <= 1e-14 * loop.bbox_diagonal()


def test_rotations_of_several_blocks_match_rotated_points():
    loop = random_loop(7, 5, np.random.default_rng(76))
    patch = make_patch(loop)
    block = BLOCK_VALUES // (4 * patch.n)
    pts = random_interior_points(np.random.default_rng(77), patch.domain, 3 * block + 7)
    got = patch.eval_rotations(pts)
    assert got.shape == (len(pts), 7, 3)
    for q in range(7):
        a = 2 * np.pi * q / 7
        rotated = pts @ np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])
        assert np.abs(got[:, q] - patch.eval_many(rotated)).max() <= 1e-14 * loop.bbox_diagonal()


def test_huge_degree_seven_loop_evaluates_finitely():
    # the binomials stay in the basis: control points near 2e307 times
    # C(7, 3) = 35 would overflow
    loop = random_loop(5, 7, np.random.default_rng(74))
    scale = 4e307 / loop.bbox_diagonal()
    big = make_loop([BezierCurve(c.control_points * scale) for c in loop.sides])
    assert big.bbox_diagonal() == pytest.approx(4e307)
    poly = DomainPolygon(5)
    pts = np.vstack([random_interior_points(np.random.default_rng(75), poly, 200), poly.vertices])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = make_patch(big).eval_many(pts)
    assert np.isfinite(got).all()
