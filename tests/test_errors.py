"""The error contract: every check in the library raises an NPatchError.

DomainError is also a ValueError, so callers that catch ValueError keep
working.
"""

import warnings

import numpy as np
import pytest
from conftest import scaled_doc, scaled_square_doc

from npatch import BezierCurve, DomainPolygon, make_loop, make_patch, mesh_patch, tessellate_domain
from npatch.analysis import contours
from npatch.errors import DomainError, NPatchError
from npatch.fileio import read_loop
from npatch.fixtures import random_loop, square_loop, triangle_loop

LINE = [[0.0, 0, 0], [1, 0, 0]]

CHECKS = {
    "curve shape": lambda: BezierCurve(np.zeros((2, 2))),
    "curve without points": lambda: BezierCurve(np.zeros((0, 3))),
    "curve not finite": lambda: BezierCurve([[0.0, 0, np.inf]]),
    "curve end name": lambda: BezierCurve(LINE).end_derivative("middle"),
    "polygon sides": lambda: DomainPolygon(2),
    "negative weld tolerance": lambda: make_loop(square_loop().sides, weld_tolerance=-1.0),
    "NaN weld tolerance": lambda: make_loop(square_loop().sides, weld_tolerance=float("nan")),
    "resolution": lambda: tessellate_domain(DomainPolygon(4), 0),
    "contour count": lambda: contours(mesh_patch(make_patch(square_loop()), 2), [0, 0, 1], 0),
    "random loop degree 0": lambda: random_loop(5, 0, np.random.default_rng(0)),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_library_checks_raise_domain_error(name):
    with pytest.raises(DomainError) as info:
        CHECKS[name]()
    assert isinstance(info.value, NPatchError)
    assert isinstance(info.value, ValueError)


def test_patch_of_huge_square_names_the_overflow():
    # the opposite cubics' end tangents of a +-1e308 square are beyond the float range
    loop = read_loop(scaled_square_doc(1e308, weld_tolerance=1e-9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows the float range"):
            make_patch(loop)


def test_patch_of_huge_triangle_names_the_overflow():
    # a triangle has no opposite tangents: its corner terms overflow first
    loop = read_loop(scaled_doc(triangle_loop(), 0.9e308, weld_tolerance=1e-9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows the float range"):
            make_patch(loop)


def test_evaluating_huge_square_names_the_overflow():
    # the patch builds, but the Coons sums at three of its corners pass the float range
    patch = make_patch(read_loop(scaled_doc(square_loop(), 0.9e308, weld_tolerance=1e-9)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows the float range"):
            patch.eval_many(patch.domain.vertices)
