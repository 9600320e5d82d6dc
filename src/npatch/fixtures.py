"""Bundled and procedurally generated boundary loops.

The bundled loops are the JSON loop documents in FIXTURE_DIR.
"""

from pathlib import Path

import numpy as np

from .curves import MAX_DEGREE, BezierCurve
from .domain import DomainPolygon
from .errors import DomainError, integer
from .fileio import read_loop
from .loop import make_loop

FIXTURE_DIR = Path(__file__).parent / "fixtures"
# the bundled documents' names, in the order bundled() returns them
BUNDLED = ("triangle", "square", "pentagon", "pocket3a", "pocket3b", "pocket4", "pocket5",
           "pocket6")


def random_loop(n, degree, rng):
    """Seeded random closed loop: perturbed n-gon corners (|z| <= 0.4), jittered interiors."""
    # a degree-0 side cannot join two distinct corners
    degree = integer(degree, "random_loop degree", 1, MAX_DEGREE)
    if not isinstance(rng, np.random.Generator):
        raise DomainError("random_loop rng must be a numpy Generator, got %s" % type(rng).__name__)
    corners = np.column_stack([DomainPolygon(n).vertices, np.zeros(n)])  # in the z = 0 plane
    corners[:, :2] += rng.normal(scale=0.05, size=(n, 2))
    corners[:, 2] = rng.uniform(-0.4, 0.4, size=n)
    # side i's control points sample the chord from corner i - 1 to corner i uniformly
    t = np.linspace(0.0, 1.0, degree + 1)[:, None]
    curves = []
    for i in range(n):
        pts = (1.0 - t) * corners[i - 1] + t * corners[i]
        pts[1:-1] += rng.normal(scale=0.15, size=(degree - 1, 3))
        curves.append(BezierCurve(pts))
    return make_loop(curves)


def bundled():
    """The bundled loops, read from their documents, by name in BUNDLED order."""
    return {name: read_loop((FIXTURE_DIR / (name + ".json")).read_text()) for name in BUNDLED}
