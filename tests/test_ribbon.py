import numpy as np
import pytest
from conftest import random_affine

from npatch import BezierCurve, make_loop
from npatch.errors import DomainError
from npatch.fixtures import random_loop, square_loop
from npatch.ribbon import Ribbon


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_boundary_reproduction(n):
    loop = random_loop(n, 3, np.random.default_rng(20 + n))
    t = np.linspace(0, 1, 100)
    for i in range(n):
        r = Ribbon(loop, i)
        zeros = np.zeros_like(t)
        ones = np.ones_like(t)
        assert np.abs(r.eval_many(t, zeros) - loop.side(i).eval_many(t)).max() <= 1e-12
        assert np.abs(r.eval_many(zeros, t) - loop.side(i - 1).eval_many(1 - t)).max() <= 1e-12
        assert np.abs(r.eval_many(ones, t) - loop.side(i + 1).eval_many(t)).max() <= 1e-12
        assert np.abs(r.eval_many(t, ones) - r.opp.eval_many(1 - t)).max() <= 1e-12


def test_square_center():
    r = Ribbon(square_loop(), 0)
    assert np.allclose(r.eval_many(np.array([0.5]), np.array([0.5])), (0.5, 0.5, 0), atol=1e-14)


def test_planar_loop_stays_planar():
    # affine-combination property: planar input -> planar ribbon
    loop = random_loop(5, 3, np.random.default_rng(31))
    flat = make_loop([
        BezierCurve(c.control_points * [1, 1, 0]) for c in loop.sides
    ])
    rng = np.random.default_rng(32)
    for i in range(5):
        r = Ribbon(flat, i)
        s = rng.uniform(0, 1, 200)
        d = rng.uniform(0, 1, 200)
        assert np.abs(r.eval_many(s, d)[:, 2]).max() <= 1e-12


def test_affine_equivariance():
    rng = np.random.default_rng(33)
    loop = random_loop(6, 3, rng)
    for _ in range(5):
        a, b = random_affine(rng)
        mapped = make_loop([
            BezierCurve(c.control_points @ a.T + b) for c in loop.sides
        ])
        s = rng.uniform(0, 1, 50)
        d = rng.uniform(0, 1, 50)
        for i in (0, 3):
            direct = Ribbon(mapped, i).eval_many(s, d)
            routed = Ribbon(loop, i).eval_many(s, d) @ a.T + b
            assert np.abs(direct - routed).max() <= 1e-10


def test_parameters_out_of_range():
    r = Ribbon(square_loop(), 0)
    for s, d in [(1.2, 0.5), (0.5, -0.2), (np.nan, 0.5), (0.5, np.nan)]:
        with pytest.raises(DomainError):
            r.eval_many(np.array([s]), np.array([d]))


def test_triangle_far_side_is_point():
    loop = random_loop(3, 3, np.random.default_rng(34))
    r = Ribbon(loop, 1)
    t = np.linspace(0, 1, 20)
    far = r.eval_many(t, np.ones_like(t))
    assert np.abs(far - far[0]).max() <= 1e-12
