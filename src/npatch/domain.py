"""Regular n-gon parameter domain, Wachspress coordinates, local parameters.

Conventions (fixed project-wide):
  - vertex k sits at angle pi/2 + 2*pi*k/n on the unit circle (CCW);
  - edge i runs from vertex i-1 to vertex i and carries boundary curve i,
    with edge parameter t = 0 at vertex i-1 and t = 1 at vertex i;
  - barycentric coordinate lambda_i belongs to vertex i, the corner
    shared by curves i and i+1.

Under this alignment lambda_{i-1} and lambda_i are exactly the two
coordinates that survive on edge i, which is what makes the distance
parameter d_i vanish there and reach 1 on the far edges.
"""

from collections import namedtuple

import numpy as np

from .errors import DomainError

# threshold below which s_i is flagged invalid (the matching blend
# weight is of the same magnitude, so the skipped term is noise-level)
EPS_SD = 1e-10
# boundary band for the inside test; distances in it snap to the edge
EPS_GEOM = 1e-12


class DomainPolygon:
    """Regular n-gon inscribed in the unit circle, with precomputed edges."""

    def __init__(self, n):
        if not isinstance(n, (int, np.integer)) or n < 3:
            raise DomainError("polygon needs an integer n >= 3 sides, got %r" % (n,))
        self.n = n
        angles = np.pi / 2 + 2 * np.pi * np.arange(n) / n
        self.vertices = np.column_stack([np.cos(angles), np.sin(angles)])
        self.apothem = np.cos(np.pi / n)
        # outward unit normal of edge i (spanning vertex i-1 -> vertex i)
        mids = 0.5 * (np.roll(self.vertices, 1, axis=0) + self.vertices)
        self.edge_normals = mids / np.linalg.norm(mids, axis=1, keepdims=True)
        # row i: the edges vertex i does not lie on (it lies on edges i, i+1), ascending
        self._off_edges = np.sort((np.arange(n)[:, None] + np.arange(2, n)) % n, axis=1)

    def edge_point(self, i, t):
        """Domain point on edge i at edge parameter t; arrays i and t
        broadcast to points of shape (..., 2)."""
        t = np.asarray(t, dtype=float)[..., None]
        return (1.0 - t) * self.vertices[(i - 1) % self.n] + t * self.vertices[i % self.n]

    def edge_distances_many(self, points):
        """Perpendicular distances to all edge lines, shape (k, n).

        Points must be finite and lie inside or on the closed polygon;
        distances within EPS_GEOM of an edge snap to 0, making on-edge
        evaluation exact.
        """
        points = np.asarray(points, dtype=float)
        if not np.all(np.isfinite(points)):
            raise DomainError("domain point is not finite")
        d = self.apothem - points @ self.edge_normals.T
        if np.any(d < -EPS_GEOM):
            raise DomainError("point outside the domain polygon")
        d[np.abs(d) <= EPS_GEOM] = 0.0
        return d

    def wachspress_many(self, points):
        """Wachspress coordinates at each point, shape (k, n).

        lambda_i is proportional to the product of distances to every
        edge vertex i does not lie on (vertex i lies on edges i and i+1).
        The product form is evaluated directly even on the boundary:
        there exactly two numerators stay nonzero, which is benign.  Rows
        are points: the products come from one (k, n, n - 2) gather.
        """
        num = self.edge_distances_many(points)[:, self._off_edges].prod(axis=2)
        return num / num.sum(axis=1, keepdims=True)


LocalParams = namedtuple("LocalParams", "s d valid")
LocalParams.__doc__ = """Per-side sweep/distance parameters (s_i, d_i) at one or many points.

Arrays have shape (..., n).  Where lambda_{i-1} + lambda_i falls
below EPS_SD, s_i is undefined: s holds NaN and valid is False.  The
caller skips those sides; their blend weight vanishes anyway.
"""


def local_params(lam):
    """Compute (s_i, d_i) from Wachspress coordinates (last axis = side)."""
    lam = np.asarray(lam, dtype=float)
    den = lam[..., np.arange(-1, lam.shape[-1] - 1)] + lam  # lambda_{i-1} + lambda_i
    d = np.clip(1.0 - den, 0.0, 1.0)
    valid = den > EPS_SD
    s = np.divide(lam, den, out=np.full_like(lam, np.nan), where=valid)
    return LocalParams(s, d, valid)
