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

from .errors import SIZE_BUDGET, DomainError, integer

# boundary band for the inside test; distances in it snap to the edge
EPS_GEOM = 1e-12


class DomainPolygon:
    """Regular n-gon inscribed in the unit circle, with precomputed edges."""

    def __init__(self, n):
        # n (n - 2) = (n - 1)^2 - 1 entries of _off_edges within SIZE_BUDGET
        self.n = n = integer(n, "polygon side count n", 3, int(SIZE_BUDGET**0.5) + 1)
        angles = np.pi / 2 + 2 * np.pi * np.arange(n) / n
        self.vertices = np.column_stack([np.cos(angles), np.sin(angles)])
        self.apothem = np.cos(np.pi / n)
        # outward unit normal of edge i (spanning vertex i-1 -> vertex i)
        mids = 0.5 * (self.vertices[np.arange(n) - 1] + self.vertices)
        self.edge_normals = mids / np.sqrt((mids * mids).sum(axis=1, keepdims=True))
        # row i: the edges vertex i does not lie on (it lies on edges i, i+1), ascending
        self._off_edges = np.sort((np.arange(n)[:, None] + np.arange(2, n)) % n, axis=1)

    def _edge_point(self, i, t):
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
        if not np.isfinite(points).all():
            raise DomainError("domain point is not finite")
        d = self.apothem - points @ self.edge_normals.T
        if (d < -EPS_GEOM).any():
            raise DomainError("point outside the domain polygon")
        d[d <= EPS_GEOM] = 0.0  # every d >= -EPS_GEOM here
        return d

    def wachspress_many(self, points):
        """Wachspress coordinates at each point, shape (k, n).

        lambda_i is proportional to the product of distances to every
        edge vertex i does not lie on (vertex i lies on edges i and i+1).
        The product form is evaluated directly even on the boundary:
        there exactly two numerators stay nonzero, which is benign.  Rows
        are points: the products come from one (k, n, n - 2) gather.
        """
        # the gather leaves num point-fastest, and its row sums round by layout: take moves bits
        num = self.edge_distances_many(points)[:, self._off_edges].prod(axis=2)
        total = num.sum(axis=1, keepdims=True)
        if not total.all():  # 0 / 0 next: products stay below e^2 but underflow for n > ~1075
            raise DomainError("Wachspress products of %d distances underflow to 0" % (self.n - 2))
        return num / total


LocalParams = namedtuple("LocalParams", "s d valid")
LocalParams.__doc__ = """Per-side sweep/distance parameters (s_i, d_i) at one or many points.

Arrays have shape (..., n); s and d lie in [0, 1].  valid marks the
sides of non-zero weight, lambda_{i-1} + lambda_i > 0.  Elsewhere s_i
is undefined and holds 0, and d_i = 1, so the weight (1 - d_i)/2 is 0.
"""


def local_params(lam):
    """Compute (s_i, d_i) from Wachspress coordinates, all >= 0 (last axis = side):
    s_i = lambda_i / (lambda_{i-1} + lambda_i), d_i = 1 - lambda_{i-1} - lambda_i."""
    lam = np.asarray(lam, dtype=float)
    den = np.concatenate((lam[..., -1:], lam[..., :-1]), -1) + lam  # lambda_{i-1} + lambda_i >= 0
    d = np.maximum(1.0 - den, 0.0)
    valid = den > 0
    s = lam / np.where(valid, den, 1.0)  # lambda_i = 0 where den = 0
    return LocalParams(s, d, valid)
