from math import comb

import numpy as np
import pytest
from conftest import bernstein_eval

from npatch import BezierCurve
from npatch.curves import _elevate, bernstein_basis, binomials
from npatch.errors import DomainError

CUBIC = [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)]


def test_linear_midpoint():
    c = BezierCurve([(0, 0, 0), (2, 0, 0)])
    assert np.allclose(c.eval(0.5), (1, 0, 0), atol=0)


def test_endpoints_are_control_points():
    c = BezierCurve(CUBIC)
    assert np.array_equal(c.eval(0.0), CUBIC[0])
    assert np.array_equal(c.eval(1.0), CUBIC[-1])


def test_repr_names_the_degree():
    assert repr(BezierCurve(CUBIC)) == "BezierCurve(degree=3)"


def test_cubic_midpoint_hand_value():
    # de Casteljau by hand on the arch cubic
    c = BezierCurve(CUBIC)
    assert np.allclose(c.eval(0.5), (0.5, 0.75, 0), atol=1e-15)


def test_matches_bernstein_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = rng.integers(1, 8)
        pts = rng.normal(size=(d + 1, 3))
        c = BezierCurve(pts)
        for t in rng.uniform(0, 1, size=10):
            assert np.allclose(c.eval(t), bernstein_eval(pts, t), atol=1e-12)


def test_convex_hull_bounding_box():
    rng = np.random.default_rng(8)
    for _ in range(30):
        pts = rng.normal(size=(rng.integers(2, 7), 3))
        c = BezierCurve(pts)
        samples = c.eval_many(np.linspace(0, 1, 50))
        assert np.all(samples >= pts.min(axis=0) - 1e-12)
        assert np.all(samples <= pts.max(axis=0) + 1e-12)


def test_degree_one_is_lerp():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(2, 3))
    c = BezierCurve([a, b])
    for t in rng.uniform(0, 1, size=20):
        assert np.allclose(c.eval(t), (1 - t) * a + t * b, atol=1e-15)


def test_parameter_out_of_range():
    c = BezierCurve(CUBIC)
    with pytest.raises(DomainError):
        c.eval(-0.01)
    with pytest.raises(DomainError):
        c.eval(1.01)
    with pytest.raises(DomainError):
        c.eval(np.nan)
    with pytest.raises(DomainError):
        c.eval_many([0.5, np.nan])


@pytest.mark.parametrize("degree", range(8))
def test_eval_checks_one_number_and_is_a_batch_of_one_bit_for_bit(degree):
    curve = BezierCurve(np.random.default_rng(20 + degree).normal(size=(degree + 1, 3)))
    for t in (0.0, 1.0, -0.0, 5e-324, 1 - 2.0**-53, 0.37, np.float32(0.3), np.float32(1),
              np.int64(0), np.uint8(1), 1, np.array(0.6)):
        got = curve.eval(t)
        assert got.shape == (3,) and got.dtype == np.float64
        assert (got.view(np.uint64) == curve.eval_many([t])[0].view(np.uint64)).all()
    for t in (np.nan, np.inf, -np.inf, 1 + 2.0**-52, -1e-300):
        with pytest.raises(DomainError, match=r"^curve parameter must be a finite number >= 0 "
                                              r"and <= 1, got "):
            curve.eval(t)
    for t in (True, np.bool_(False), np.array([0.5]), "0.5"):
        with pytest.raises(DomainError, match=r"^curve parameter must be numbers of shape \(\)"):
            curve.eval(t)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        BezierCurve(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        BezierCurve([(0, 0, np.nan)])
    with pytest.raises(ValueError):
        BezierCurve([(0, 0)])


@pytest.mark.parametrize("degree", range(8))
def test_elevate_keeps_the_curve(degree):
    rng = np.random.default_rng(90 + degree)
    pts = rng.normal(size=(degree + 1, 3))
    up = _elevate(pts, 7)
    assert up.shape == (8, 3)
    assert up[0].tobytes() == pts[0].tobytes()
    assert up[-1].tobytes() == pts[-1].tobytes()
    if degree == 0:  # a point: every elevated control point is that point
        assert np.abs(up - pts).max() <= 1e-15 * np.abs(pts).max()
    else:
        t = np.linspace(0, 1, 101)
        err = np.abs(BezierCurve(up).eval_many(t) - BezierCurve(pts).eval_many(t)).max()
        # evaluation rounds relative to the coordinates, not only to the extent
        assert err <= 1e-15 * max(np.linalg.norm(np.ptp(pts, axis=0)), np.abs(pts).max())
    # a stack of curves (degree + 1, m, 3) elevates curve by curve
    stack = rng.normal(size=(degree + 1, 4, 3))
    assert np.array_equal(_elevate(stack, 7),
                          np.stack([_elevate(stack[:, j], 7) for j in range(4)], axis=1))


@pytest.mark.parametrize("degree", range(8))
@pytest.mark.parametrize("make", [float, np.float64, np.array])
def test_bernstein_of_a_scalar_parameter(make, degree):
    # a scalar parameter runs the basis on a 0-d array: the point of its one-row batch
    curve = BezierCurve(np.random.default_rng(degree).normal(size=(degree + 1, 3)))
    for t in (0.0, 0.3, 1.0):
        got = curve.eval(make(t))
        assert got.shape == (3,)
        assert np.array_equal(got, curve.eval_many([t])[0])


@pytest.mark.parametrize("degree", range(8))
@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
def test_bernstein_basis_of_any_parameter_shape(shape, degree):
    # the kernel's basis straight, on 0-, 1- and 2-d parameters, the ends 0 and 1 included
    t = np.random.default_rng(degree).uniform(0, 1, shape)
    if t.ndim:
        t.flat[:2] = 0.0, 1.0
    weights = binomials(degree)
    basis = bernstein_basis(t, weights)
    assert basis.shape == (degree + 1,) + shape
    # a fresh array the caller may scale in place and flatten without a copy
    assert basis.flags.c_contiguous and basis.flags.writeable
    assert not np.shares_memory(basis, t) and not np.shares_memory(basis, weights)
    assert np.abs(basis.sum(axis=0) - 1).max() <= 4 * np.finfo(float).eps
    for j in range(degree + 1):
        want = [comb(degree, j) * x**j * (1 - x) ** (degree - j) for x in t.flat]
        assert np.abs(basis[j].ravel() - want).max() <= 4 * np.finfo(float).eps * max(want)


def reference_basis(x, degree):
    """The basis at one Python float through the kernel's running products, in its order:
    t^j = t^(j - 1) t, times C(degree, j), times (1 - t)^(degree - j), a running product too."""
    up, down = [1.0], [1.0]
    for _ in range(degree):
        up.append(up[-1] * x)
        down.append(down[-1] * (1.0 - x))
    return [up[j] * float(comb(degree, j)) * down[degree - j] for j in range(degree + 1)]


@pytest.mark.parametrize("degree", [*range(8), 40])
@pytest.mark.parametrize("shape", [(), (7,), (32, 5)])
def test_bernstein_basis_rounds_as_its_running_products(shape, degree):
    # bit for bit: every output of the package rests on this order of multiplies; the shapes
    # are a curve's one point and batch and the patch kernel's (4n, k) block
    rng = np.random.default_rng(degree)
    ends = [0.0, 1.0, 5e-324, 1 - 2.0**-53]
    if shape:
        t = rng.uniform(0, 1, shape)
        t.flat[:4] = ends
        params = [t]
    else:  # BezierCurve.eval's np.float64 and a 0-d array
        params = [make(x) for x in [*ends, rng.uniform()] for make in (np.float64, np.array)]
    for t in params:
        basis = bernstein_basis(t, binomials(degree))
        want = np.array([reference_basis(x, degree) for x in np.ravel(t)]).T.reshape(basis.shape)
        assert (basis.view(np.uint64) == want.view(np.uint64)).all()


def test_binomials_row_is_shared_and_read_only():
    row = binomials(5)
    assert binomials(5) is row and row.tolist() == [1, 5, 10, 10, 5, 1]
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 2.0
