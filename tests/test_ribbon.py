import numpy as np
import pytest
from conftest import (CORNER_DISTANCES, DEGREES, EPS64, SEEDS, SIDES, bbox_diagonal,
                      bundled_loop)
from hypothesis import given, settings

from npatch.errors import DomainError
from npatch.fixtures import random_loop
from npatch.ribbon import Ribbon


@pytest.mark.parametrize("n", SIDES)
@settings(max_examples=2)
@given(degree=DEGREES, seed=SEEDS, distance=CORNER_DISTANCES)
def test_boundary_reproduction(n, degree, seed, distance):
    rng = np.random.default_rng(seed)
    loop = random_loop(n, degree, rng)
    bound = EPS64 * bbox_diagonal(loop)
    t = np.r_[0.0, distance, rng.uniform(0, 1, 20), 1.0 - distance, 1.0]
    zeros = np.zeros_like(t)
    ones = np.ones_like(t)
    for i in range(n):
        r = Ribbon(loop, i)
        assert np.abs(r.eval_many(t, zeros) - loop.sides[i].eval_many(t)).max() <= bound
        assert np.abs(r.eval_many(zeros, t) - loop.sides[i - 1].eval_many(1 - t)).max() <= bound
        assert np.abs(r.eval_many(ones, t) - loop.sides[(i + 1) % n].eval_many(t)).max() <= bound
        assert np.abs(r.eval_many(t, ones) - r.opp.eval_many(1 - t)).max() <= bound


def test_square_center():
    r = Ribbon(bundled_loop("square"), 0)
    assert np.allclose(r.eval_many(np.array([0.5]), np.array([0.5])), (0.5, 0.5, 0), atol=1e-14)


def test_parameters_out_of_range():
    r = Ribbon(bundled_loop("square"), 0)
    for s, d in [(1.2, 0.5), (0.5, -0.2), (np.nan, 0.5), (0.5, np.nan)]:
        with pytest.raises(DomainError):
            r.eval_many(np.array([s]), np.array([d]))


def test_triangle_far_side_is_point():
    loop = random_loop(3, 3, np.random.default_rng(34))
    r = Ribbon(loop, 1)
    t = np.linspace(0, 1, 20)
    far = r.eval_many(t, np.ones_like(t))
    assert np.abs(far - far[0]).max() <= 1e-12
