import numpy as np
import pytest
from conftest import random_affine, random_interior_points

from npatch import BezierCurve, local_params, make_loop, make_patch
from npatch.errors import DomainError
from npatch.fixtures import random_loop, square_loop, triangle_loop


def classical_coons(loop, lam):
    """Independent oracle: the four-sided C0 Coons patch.

    Bilinear parameters recovered from the (bilinear-on-a-square)
    vertex coordinates; the standard two-ruled-surfaces-minus-bilinear
    formula is assembled directly from the loop's curves and corners.
    """
    a = lam[1] + lam[2]
    b = lam[2] + lam[3]
    c0, c1, c2, c3 = loop.sides
    p00 = c1.start_point()
    p10 = c1.end_point()
    p11 = c2.end_point()
    p01 = c3.end_point()
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
        err = np.abs(patch.eval_many(pts) - loop.side(i).eval_many(t)).max()
        assert err <= tol


def test_corner_interpolation():
    for n in (3, 5, 8):
        loop = random_loop(n, 3, np.random.default_rng(50 + n))
        patch = make_patch(loop)
        for i in range(n):
            got = patch.eval(patch.domain.vertices[i])
            assert np.abs(got - loop.corner(i)).max() <= 1e-12


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
    lp = local_params(poly.wachspress_many(pts))
    want = np.zeros((len(pts), 3))
    for i, ribbon in enumerate(patch.ribbons):
        v = lp.valid[:, i]
        s, d = lp.s[v, i], lp.d[v, i]
        want[v] += ribbon.eval_many(s, d) * (0.5 * (1 - d))[:, None]
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
        assert np.abs(patch.eval_boundary(i, 0.0) - loop.side(i).eval(0.0)).max() <= 1e-12
        assert np.abs(patch.eval_boundary(i, 1.0) - loop.side(i).eval(1.0)).max() <= 1e-12
        assert np.abs(patch.eval_boundary(i, 0.37) - loop.side(i).eval(0.37)).max() <= 1e-10


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
    patch = make_patch(square_loop())
    with pytest.raises(DomainError):
        patch.eval(np.array([2.0, 0.0]))


def test_triangle_patch_builds():
    patch = make_patch(triangle_loop())
    assert patch.n == 3
    assert patch.ribbons[0].opp.degree == 0
