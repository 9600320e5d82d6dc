import warnings

import numpy as np
import pytest
from conftest import (CORNER_DISTANCES, DEGREES, EPS64, SEEDS, SIDES, bbox_diagonal,
                      bundled_loop, probe_points, random_affine, random_interior_points)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from npatch import BezierCurve, DomainPolygon, make_loop, make_patch
from npatch.domain import EPS_GEOM, local_params
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


@pytest.mark.parametrize("n", SIDES)
@settings(max_examples=5)
@given(degree=DEGREES, seed=SEEDS, distance=CORNER_DISTANCES)
def test_boundary_interpolation(n, degree, seed, distance):
    rng = np.random.default_rng(seed)
    loop = random_loop(n, degree, rng)
    patch = make_patch(loop)
    t = np.r_[distance, rng.uniform(0, 1, 20), 1.0 - distance]
    on_edges = patch.domain._edge_point(np.arange(n)[:, None], t).reshape(-1, 2)
    want = np.vstack([c.eval_many(t) for c in loop.sides])
    assert np.abs(patch.eval_many(on_edges) - want).max() <= EPS64 * bbox_diagonal(loop)


@settings(max_examples=20)
@given(n=st.sampled_from(SIDES), degree=DEGREES, seed=SEEDS)
def test_corner_interpolation(n, degree, seed):
    loop = random_loop(n, degree, np.random.default_rng(seed))
    corners = np.array([c.control_points[-1] for c in loop.sides])
    got = make_patch(loop).eval_many(DomainPolygon(n).vertices)
    assert np.abs(got - corners).max() <= EPS64 * bbox_diagonal(loop)


@pytest.mark.parametrize("n", SIDES)
@settings(max_examples=5)
@given(seed=SEEDS, distance=CORNER_DISTANCES)
def test_blend_partition_of_unity(n, seed, distance):
    poly = DomainPolygon(n)
    pts = probe_points(np.random.default_rng(seed), poly, distance)
    d = local_params(poly.wachspress_many(pts)).d
    assert np.abs((0.5 * (1.0 - d)).sum(axis=1) - 1).max() <= EPS64


@settings(max_examples=20)
@given(degree=st.integers(1, 3), seed=SEEDS, distance=CORNER_DISTANCES)
def test_square_matches_classical_coons(degree, seed, distance):
    # the opposite curve is a cubic with the far side's end tangents, so it is
    # that side itself only up to degree 3
    rng = np.random.default_rng(seed)
    loop = random_loop(4, degree, rng)
    patch = make_patch(loop)
    pts = probe_points(rng, patch.domain, distance)
    want = np.array([classical_coons(loop, lam) for lam in patch.domain.wachspress_many(pts)])
    assert np.abs(patch.eval_many(pts) - want).max() <= EPS64 * bbox_diagonal(loop)


@settings(max_examples=20)
@given(n=st.sampled_from(SIDES), degree=DEGREES, seed=SEEDS, distance=CORNER_DISTANCES)
def test_planar_loop_planar_patch(n, degree, seed, distance):
    # exactly: every term of the patch and of each ribbon is a multiple of a zero z
    rng = np.random.default_rng(seed)
    flat = make_loop([BezierCurve(c.control_points * [1, 1, 0])
                      for c in random_loop(n, degree, rng).sides])
    patch = make_patch(flat)
    assert not patch.eval_many(probe_points(rng, patch.domain, distance))[:, 2].any()
    s, d = rng.uniform(0, 1, (2, 50))
    assert not any(Ribbon(flat, i).eval_many(s, d)[:, 2].any() for i in range(n))


@settings(max_examples=25)
@given(n=st.sampled_from(SIDES), degree=DEGREES, seed=SEEDS, distance=CORNER_DISTANCES)
# 1e-5 from this corner a far side's lambda_{i-1} + lambda_i is about 6e-11: unless that side
# keeps its weight (about 3e-11), the weights miss one and the map's translation leaks in
@example(n=5, degree=3, seed=0, distance=1e-5)
def test_affine_equivariance(n, degree, seed, distance):
    # the patch, and each of its ribbons, commutes with an affine map of the loop
    rng = np.random.default_rng(seed)
    loop = random_loop(n, degree, rng)
    a, b = random_affine(np.random.default_rng(seed + 1))
    mapped = make_loop([BezierCurve(c.control_points @ a.T + b) for c in loop.sides])
    bound = EPS64 * bbox_diagonal(mapped)
    pts = probe_points(rng, DomainPolygon(n), distance)
    routed = make_patch(loop).eval_many(pts) @ a.T + b
    assert np.abs(make_patch(mapped).eval_many(pts) - routed).max() <= bound
    s, d = rng.uniform(0, 1, (2, 50))
    for i in range(n):
        routed = Ribbon(loop, i).eval_many(s, d) @ a.T + b
        assert np.abs(Ribbon(mapped, i).eval_many(s, d) - routed).max() <= bound


@pytest.mark.parametrize("n", SIDES)
@settings(max_examples=5)
@given(degree=DEGREES, seed=SEEDS, distance=CORNER_DISTANCES)
def test_exact_ribbon_sum(n, degree, seed, distance):
    # the patch is the paper's sum over all n ribbons, the far sides' tiny weights included
    rng = np.random.default_rng(seed)
    loop = random_loop(n, degree, rng)
    patch = make_patch(loop)
    pts = probe_points(rng, patch.domain, distance)
    err = np.abs(patch.eval_many(pts) - ribbon_sum(patch, pts)).max()
    assert err <= EPS64 * bbox_diagonal(loop)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_matches_per_ribbon_sum(n):
    # reference: S = sum_i R_i(s_i, d_i) (1 - d_i) / 2, one Ribbon evaluation per side
    loop = random_loop(n, 5, np.random.default_rng(63 + n))
    patch = make_patch(loop)
    poly = patch.domain
    pts = np.vstack([
        random_interior_points(np.random.default_rng(64), poly, 400),
        poly.vertices, 0.5 * (poly.vertices + np.roll(poly.vertices, 1, axis=0)),
        poly.vertices * (1 - 1e-9), np.zeros((1, 2)),
    ])
    want = ribbon_sum(patch, pts)
    tol = 1e-13 * bbox_diagonal(loop)
    assert np.abs(patch.eval_many(pts) - want).max() <= tol
    assert np.abs(patch.eval(pts[0]) - want[0]).max() <= tol


@settings(max_examples=30)
@given(n=st.sampled_from(SIDES), degree=DEGREES, seed=SEEDS)
def test_eval_boundary_matches_curves(n, degree, seed):
    # eval_boundary reads side i's curve; the patch sum at the edge point must agree with it
    rng = np.random.default_rng(seed)
    loop = random_loop(n, degree, rng)
    patch = make_patch(loop)
    v = patch.domain.vertices
    for i in range(n):
        for t in (0.0, 0.37, 1.0, rng.uniform(0, 1)):
            err = np.abs(patch.eval((1 - t) * v[i - 1] + t * v[i]) - patch.eval_boundary(i, t))
            assert err.max() <= EPS64 * bbox_diagonal(loop)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@settings(max_examples=40)
@given(n=st.sampled_from(SIDES), degree=DEGREES, seed=SEEDS)
def test_one_point_queries_are_one_point_batches_bit_for_bit(n, degree, seed):
    # eval runs eval_many's kernel on its point as a batch of one (a point inside a larger
    # batch may differ in its last bits), and eval_boundary is side i's curve at t
    rng = np.random.default_rng(seed)
    patch = make_patch(random_loop(n, degree, rng))
    v = patch.domain.vertices
    for p in np.vstack([random_interior_points(rng, patch.domain, 4), v]):
        assert (_bits(patch.eval(p)) == _bits(patch.eval_many(p[None])[0])).all()
    # side indices outside 0 .. n - 1 are taken cyclically; numpy scalars are checked as arrays
    for i, t in zip(rng.integers(-2 * n, 3 * n, 8), [0.0, 1.0, *rng.uniform(0, 1, 6)]):
        want = _bits(patch.loop.sides[i % n].eval(t))
        assert (_bits(patch.eval_boundary(int(i), float(t))) == want).all()
        assert (_bits(patch.eval_boundary(i, np.float64(t))) == want).all()


def test_continuity_across_skip_threshold():
    # 1e-8 and 3e-8 inside an edge the far sides' lambda_{i-1} + lambda_i are about 1e-9 to
    # 3e-8, so their weights are tiny and their s_i ratios of tiny numbers: the patch must not
    # jump between such pairs
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

    # pairs of points 1e-8 and 3e-8 inside edge 0
    for t in rng.uniform(0.1, 0.9, 20):
        base = poly._edge_point(0, t)
        inward = -poly.edge_normals[0]
        p = base + inward * 1e-8
        qq = base + inward * 3e-8
        jump = np.linalg.norm(patch.eval(p) - patch.eval(qq))
        assert jump <= lips * np.linalg.norm(p - qq) * 2 + 1e-12


def _point_checks(patch):
    """The three entries that check domain points, each called on a (k, 2) array; eval
    takes its first point."""
    return {"eval": lambda pts: patch.eval(pts[0]),
            "eval_many": patch.eval_many,
            "edge_distances_many": patch.domain.edge_distances_many}


@pytest.mark.parametrize("n", [3, 5, 8])
def test_snap_band_of_the_domain_edges(n):
    # 2 EPS_GEOM outside edge i a point is refused; EPS_GEOM / 2 outside it is on the edge:
    # its distance snaps to 0 and the patch there is side curve i at the point's s_i
    loop = random_loop(n, 3, np.random.default_rng(70 + n))
    patch = make_patch(loop)
    poly = patch.domain
    for entry, call in _point_checks(patch).items():
        for i in range(n):
            for t in (0.1, 0.5, 0.8):
                point = poly._edge_point(i, t)
                with pytest.raises(DomainError, match=r"^point outside the domain polygon$"):
                    call(np.array([point + 2 * EPS_GEOM * poly.edge_normals[i]]))
                near = np.array([point + 0.5 * EPS_GEOM * poly.edge_normals[i]])
                got = call(near)
                if entry == "edge_distances_many":
                    assert got[0, i] == 0.0
                    continue
                s = local_params(poly.wachspress_many(near)).s[0, i]
                err = np.abs(np.reshape(got, (-1, 3))[0] - loop.sides[i].eval(s)).max()
                assert err <= EPS64 * bbox_diagonal(loop)


@pytest.mark.parametrize("entry", ["eval", "eval_many", "edge_distances_many"])
@pytest.mark.parametrize("point", [(np.nan, 0.0), (np.inf, 0.0), (0.0, -np.inf),
                                   (np.inf, -np.inf)])
def test_points_that_are_not_finite_are_refused(entry, point):
    # finiteness is checked before the inside test, so a batch holding a NaN point and an
    # outside point names the NaN, in either order
    call = _point_checks(make_patch(random_loop(5, 3, np.random.default_rng(71))))[entry]
    batches = [[point]]
    if entry != "eval":
        batches += [[point, (2.0, 0.0)], [(2.0, 0.0), (0.0, 0.0), point]]
    for batch in batches:
        with pytest.raises(DomainError, match=r"^domain point is not finite$"):
            call(np.array(batch, dtype=float))


def test_wachspress_underflow_is_refused():
    # on an edge of a 1200-gon each nonzero product of n - 2 = 1198 distances underflows to
    # 0, so the coordinates would be 0 / 0: DomainError, not NaN; the centre still evaluates
    loop = random_loop(1200, 1, np.random.default_rng(77))
    patch = make_patch(loop)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(patch.eval([0.0, 0.0])))
        with pytest.raises(DomainError, match="underflow to 0"):
            patch.eval(patch.domain._edge_point(3, 0.5))


def test_outside_point_rejected():
    patch = make_patch(bundled_loop("square"))
    with pytest.raises(DomainError):
        patch.eval(np.array([2.0, 0.0]))


def test_triangle_patch_builds():
    patch = make_patch(bundled_loop("triangle"))
    assert patch.n == 3
    assert Ribbon(patch.loop, 0).opp.degree == 0


def ribbon_sum(patch, pts):
    """Per-ribbon oracle, with its own local parameters: S = sum_i R_i(s_i, d_i) (1 - d_i) / 2
    over every side, s_i = lambda_i / (lambda_{i-1} + lambda_i) and d_i = 1 - lambda_{i-1} -
    lambda_i; a side whose lambda pair sums to 0 has weight 0 and is left out."""
    lam = patch.domain.wachspress_many(pts)
    want = np.zeros((len(pts), 3))
    for i in range(patch.n):
        den = lam[:, i - 1] + lam[:, i]
        ok = den > 0
        d = np.clip(1.0 - den[ok], 0.0, 1.0)
        r = Ribbon(patch.loop, i).eval_many(lam[ok, i] / den[ok], d)
        want[ok] += r * (0.5 * (1 - d))[:, None]
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
    assert np.abs(patch.eval_many(pts) - ribbon_sum(patch, pts)).max() <= 1e-13 * bbox_diagonal(loop)


def test_batch_of_several_blocks_matches_single_points():
    loop = random_loop(12, 4, np.random.default_rng(72))
    patch = make_patch(loop)
    block = BLOCK_VALUES // (4 * patch.n)
    pts = random_interior_points(np.random.default_rng(73), patch.domain, 3 * block + 7)
    single = np.array([patch.eval(p) for p in pts])
    assert np.abs(patch.eval_many(pts) - single).max() <= 1e-14 * bbox_diagonal(loop)


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
        assert np.abs(got[:, q] - patch.eval_many(rotated)).max() <= 1e-14 * bbox_diagonal(loop)


@pytest.mark.parametrize("n", [3, 8, 16])
def test_block_edges_are_blocks_of_the_kernel_bit_for_bit(monkeypatch, n):
    # a batch of one block returns the kernel's array and a longer one fills an array block by
    # block: either way the bits are those of _eval_block run on each block alone
    patch = make_patch(random_loop(n, 3, np.random.default_rng(78 + n)))
    block = BLOCK_VALUES // (4 * n)
    kernel, seen = patch._eval_block, []
    monkeypatch.setattr(patch, "_eval_block",
                        lambda points, controls: seen.append(controls) or kernel(points, controls))
    rng = np.random.default_rng(81 + n)
    for k in (0, 1, block - 1, block, block + 1, 2 * block + 1):
        points = random_interior_points(rng, patch.domain, k)
        for query, shape in ((patch.eval_many, (k, 3)), (patch.eval_rotations, (k, n, 3))):
            seen.clear()
            got = query(points)
            assert got.shape == shape and got.dtype == np.float64
            assert len(seen) == -(-k // block)  # one kernel call per block, none for no points
            want = np.concatenate([np.empty((0, np.prod(shape[1:])))] + [
                kernel(points[start:start + block], controls)
                for start, controls in zip(range(0, k, block), seen)])
            assert (_bits(got).reshape(want.shape) == _bits(want)).all()


def test_huge_degree_seven_loop_evaluates_finitely():
    # the binomials stay in the basis: control points near 2e307 times
    # C(7, 3) = 35 would overflow
    loop = random_loop(5, 7, np.random.default_rng(74))
    scale = 4e307 / bbox_diagonal(loop)
    big = make_loop([BezierCurve(c.control_points * scale) for c in loop.sides])
    assert bbox_diagonal(big) == pytest.approx(4e307)
    poly = DomainPolygon(5)
    pts = np.vstack([random_interior_points(np.random.default_rng(75), poly, 200), poly.vertices])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = make_patch(big).eval_many(pts)
    assert np.isfinite(got).all()
