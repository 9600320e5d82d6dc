import json

import numpy as np
from scipy.special import comb

from npatch.fileio import write_loop
from npatch.fixtures import square_loop


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


def random_affine(rng):
    """Random well-conditioned affine map (A, b) on R^3."""
    while True:
        a = rng.normal(size=(3, 3))
        if abs(np.linalg.det(a)) > 0.1:
            return a, rng.normal(size=3)


def scaled_square_doc(scale, gap=0.0, **fields):
    """Loop document of the unit-square fixture mapped onto [-scale, scale]^2,
    with side 2's start moved by gap along y and the given top-level fields."""
    doc = json.loads(write_loop(square_loop()))
    for side in doc["sides"]:
        side["control_points"] = [[scale * (2 * x - 1), scale * (2 * y - 1), z]
                                  for x, y, z in side["control_points"]]
    doc["sides"][1]["control_points"][0][1] += gap
    doc.update(fields)
    return json.dumps(doc)
