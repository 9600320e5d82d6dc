"""Bundled and procedurally generated boundary loops.

Run `python -m npatch.fixtures <dir>` to (re)write the bundled JSON
fixture files.
"""

import sys
from pathlib import Path

import numpy as np

from .curves import BezierCurve
from .errors import DomainError
from .loop import make_loop

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def _chord(a, b, degree):
    """degree + 1 control points sampling the straight chord a->b uniformly."""
    t = np.linspace(0.0, 1.0, degree + 1)[:, None]
    return (1.0 - t) * np.asarray(a) + t * np.asarray(b)


def polygon_corners(n):
    """Corners of the regular n-gon in the unit circle, in the z = 0 plane."""
    angles = np.pi / 2 + 2 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(angles), np.sin(angles), np.zeros(n)])


def straight_loop(corners, degree=1):
    """Loop of chord curves through the given 3D corner cycle."""
    corners = np.asarray(corners, dtype=float)
    n = len(corners)
    return make_loop(
        [BezierCurve(_chord(corners[(i - 1) % n], corners[i], degree)) for i in range(n)]
    )


def triangle_loop():
    return straight_loop(polygon_corners(3))


def square_loop():
    c = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    return straight_loop(c)


def pentagon_loop():
    """Regular pentagon with one corner raised to z = 0.8; cubic sides along the chords."""
    corners = polygon_corners(5)
    corners[0, 2] = 0.8
    return straight_loop(corners, degree=3)


def wavy_loop(n, seed=0):
    """n-sided loop: corners displaced in z (amplitude 0.35), bowed cubic sides."""
    rng = np.random.default_rng(seed)
    corners = polygon_corners(n)
    corners[:, 2] = 0.35 * np.sin(np.linspace(0, 2 * np.pi, n, endpoint=False) * 2)
    curves = []
    for i in range(n):
        pts = _chord(corners[(i - 1) % n], corners[i], 3)
        pts[1:-1] += rng.normal(scale=0.08, size=(2, 3))
        curves.append(BezierCurve(pts))
    return make_loop(curves)


def pocket_loops():
    """The 3/4/5/6-sided loop set used by the multi-patch demo fixtures."""
    return {
        "pocket3a": wavy_loop(3, seed=11),
        "pocket3b": wavy_loop(3, seed=12),
        "pocket4": wavy_loop(4, seed=13),
        "pocket5": wavy_loop(5, seed=14),
        "pocket6": wavy_loop(6, seed=15),
    }


def random_loop(n, degree, rng):
    """Seeded random closed loop: perturbed n-gon corners (|z| <= 0.4), jittered interiors."""
    if degree < 1:
        raise DomainError("random_loop needs degree >= 1: a degree-0 side "
                          "cannot join two distinct corners")
    corners = polygon_corners(n)
    corners[:, :2] += rng.normal(scale=0.05, size=(n, 2))
    corners[:, 2] = rng.uniform(-0.4, 0.4, size=n)
    curves = []
    for i in range(n):
        pts = _chord(corners[(i - 1) % n], corners[i], degree)
        pts[1:-1] += rng.normal(scale=0.15, size=(degree - 1, 3))
        curves.append(BezierCurve(pts))
    return make_loop(curves)


def bundled():
    loops = {
        "triangle": triangle_loop(),
        "square": square_loop(),
        "pentagon": pentagon_loop(),
    }
    loops.update(pocket_loops())
    return loops


def write_fixture_files(directory):
    from .fileio import write_loop

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, loop in bundled().items():
        (directory / (name + ".json")).write_text(write_loop(loop))


if __name__ == "__main__":
    write_fixture_files(sys.argv[1] if len(sys.argv) > 1 else FIXTURE_DIR)
