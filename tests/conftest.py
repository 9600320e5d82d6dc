import json
from functools import partial
from math import comb, dist

import numpy as np
from hypothesis import Phase, settings
from hypothesis import strategies as st

from npatch.fileio import read_loop
from npatch.fixtures import FIXTURE_DIR

# every hypothesis test draws the same examples on every run and is not timed;
# a failure is reported as drawn, unshrunk: a smaller seed is no simpler loop,
# and shrinking one ran for minutes; each test sets only its max_examples
settings.register_profile("npatch", deadline=None, derandomize=True,
                          phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.load_profile("npatch")

# the bound on the paper's invariants: 64 units of roundoff (they hold within about
# 6), times the loop's bbox diagonal where the values are points in space
EPS64 = 64 * np.finfo(float).eps
# the random loops the invariants are checked on: side counts, degrees and seeds
SIDES = range(3, 17)
DEGREES = st.integers(1, 7)
SEEDS = st.integers(0, 2**32 - 1)
# distances 10**e from a corner toward the center: on this range the far sides'
# lambda_{i-1} + lambda_i, and with them their weights, fall from about 1e-6 to
# 1e-18 (a partial, not a lambda, whose source hypothesis would parse on every run)
CORNER_DISTANCES = st.floats(-9, -3).map(partial(pow, 10.0))


def write_loop(loop):
    """A BoundaryLoop as loop document text: version 1 and each side's degree and control
    points, indented by two; the bundled fixture files are this text of their loops."""
    doc = {
        "version": 1,
        "sides": [
            {"degree": c.degree, "control_points": c.control_points.tolist()}
            for c in loop.sides
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def bundled_loop(name):
    """The bundled loop document FIXTURE_DIR/<name>.json, read and welded."""
    return read_loop((FIXTURE_DIR / (name + ".json")).read_text())


def bbox_diagonal(loop):
    """The diagonal of the bounding box of the loop's control points."""
    pts = np.vstack([c.control_points for c in loop.sides])
    return dist(pts.max(axis=0), pts.min(axis=0))


def bernstein_eval(control_points, t):
    """Independent Bezier oracle: direct Bernstein-basis summation."""
    pts = np.asarray(control_points, dtype=float)
    d = len(pts) - 1
    out = np.zeros(3)
    for k in range(d + 1):
        out += comb(d, k) * t**k * (1 - t) ** (d - k) * pts[k]
    return out


def random_interior_points(rng, poly, count):
    """Uniform-ish interior samples as random convex combinations of vertices."""
    w = rng.dirichlet(np.ones(poly.n), size=count)
    return w @ poly.vertices


def probe_points(rng, poly, distance, count=50):
    """count random interior points, then every corner moved distance toward the center."""
    return np.vstack([random_interior_points(rng, poly, count), poly.vertices * (1.0 - distance)])


def random_affine(rng):
    """Random well-conditioned affine map (A, b) on R^3."""
    while True:
        a = rng.normal(size=(3, 3))
        if abs(np.linalg.det(a)) > 0.1:
            return a, rng.normal(size=3)


def scaled_doc(loop, scale, **fields):
    """Loop document of loop with every control point multiplied by scale,
    with the given top-level fields."""
    doc = json.loads(write_loop(loop))
    for side in doc["sides"]:
        side["control_points"] = [[scale * x for x in p] for p in side["control_points"]]
    doc.update(fields)
    return json.dumps(doc)


def scaled_square_doc(scale, gap=0.0, **fields):
    """Loop document of the unit-square fixture mapped onto [-scale, scale]^2,
    with side 2's start moved by gap along y and the given top-level fields."""
    doc = json.loads(write_loop(bundled_loop("square")))
    for side in doc["sides"]:
        side["control_points"] = [[scale * (2 * x - 1), scale * (2 * y - 1), z]
                                  for x, y, z in side["control_points"]]
    doc["sides"][1]["control_points"][0][1] += gap
    doc.update(fields)
    return json.dumps(doc)


def loop_doc(*sides):
    """Loop document of the given sides' control points, each side's degree from its count."""
    return json.dumps({"sides": [{"degree": len(p) - 1, "control_points": p} for p in sides]})


def bulging_triangle_doc(degree, corner_z, interior_z):
    """Loop document of the triangle fixture's chords as sides of the given degree, with the
    corners lifted to corner_z and the interior control points to interior_z, and weld
    tolerance 1e-9 (the default is refused past the float range)."""
    doc = json.loads(write_loop(bundled_loop("triangle")))
    for side in doc["sides"]:
        a, b = np.array(side["control_points"])
        t = np.linspace(0.0, 1.0, degree + 1)[:, None]
        points = (1.0 - t) * a + t * b
        points[:, 2] = interior_z
        points[[0, -1], 2] = corner_z
        side.update(degree=degree, control_points=points.tolist())
    doc["weld_tolerance"] = 1e-9
    return json.dumps(doc)


def near_range_square_doc():
    """Loop document of the unit-square fixture scaled by 1.75e308, its first side raised to
    degree 12 with the second control point moved 0.025e308 past the first, away from the
    side, and weld tolerance 1e-9: every end derivative is finite, but the opposite cubic
    across that side starts 4 * 0.025e308 past its corner, beyond the float range."""
    doc = json.loads(scaled_doc(bundled_loop("square"), 1.75e308, weld_tolerance=1e-9))
    side = doc["sides"][0]
    a, b = np.array(side["control_points"])
    t = np.linspace(0.0, 1.0, 13)[:, None]
    points = (1.0 - t) * a + t * b
    points[1] = a + [0.0, 0.025e308, 0.0]
    side.update(degree=12, control_points=points.tolist())
    return json.dumps(doc)
