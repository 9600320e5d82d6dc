"""The full multi-sided patch: blended sum of the n ribbons."""

import numpy as np

from .domain import DomainPolygon, local_params
from .ribbon import Ribbon


class Patch:
    """Transfinite n-sided surface over the regular n-gon domain.

    S(p) = sum_i R_i(s_i, d_i) * (1 - d_i) / 2, where the sum skips
    sides whose sweep parameter is undefined (their weight vanishes).
    No renormalization is applied.
    """

    def __init__(self, loop):
        self.loop = loop
        self.domain = DomainPolygon(loop.n)
        self.ribbons = [Ribbon(loop, i) for i in range(loop.n)]
        # bilinear corner terms of all ribbons in the basis 1, s, d, s*d
        corners = np.array([[r.c00, r.c01, r.c10, r.c11] for r in self.ribbons])
        c00, c01, c10, c11 = corners.transpose(1, 0, 2)
        self._corner_basis = (c00, c10 - c00, c01 - c00, c00 - c01 - c10 + c11)

    @property
    def n(self):
        return self.loop.n

    def eval(self, p):
        """Surface point at a single 2D domain point."""
        return self.eval_many(np.asarray(p, dtype=float)[None])[0]

    def eval_many(self, points):
        """Surface points at an array of 2D domain points, shape (k, 2) -> (k, 3).

        S = sum_i w_i R_i(s_i, d_i), w_i = (1 - d_i)/2 (0 where s_i is
        undefined), is linear in the curve samples: side curve j is
        evaluated in one call at s_j, 1 - d_{j+1} and d_{j-1} (base of
        ribbon j, prev of ribbon j+1, next of ribbon j-1), each opposite
        curve in another, and the corner terms are matrix products.
        """
        points = np.asarray(points, dtype=float)
        n, k = self.n, points.shape[0]
        lp = local_params(self.domain.wachspress_many(points))
        # sides with undefined s get weight 0 (and any finite s)
        s, d = lp.s, lp.d
        s[~lp.valid] = 0.0
        w = 0.5 * (1.0 - d)
        w[~lp.valid] = 0.0
        e0, es, ed, esd = self._corner_basis
        out = -(w @ e0 + (w * s) @ es + (w * d) @ ed + (w * s * d) @ esd)
        # side-major views (wachspress_many stores sides contiguously):
        # row i holds side i's parameters at every point
        s, d, w = s.T, d.T, w.T
        for j, curve in enumerate(self.loop.sides):
            a, b = (j + 1) % n, j - 1  # curve j is the prev of ribbon a, the next of ribbon b
            t = np.concatenate([s[j], 1.0 - d[a], d[b]])
            c = np.concatenate([w[j] * (1.0 - d[j]), w[a] * (1.0 - s[a]), w[b] * s[b]])
            samples = curve.eval_many(t)
            samples *= c[:, None]
            out += samples.reshape(3, k, 3).sum(axis=0)
            out += (w[j] * d[j])[:, None] * self.ribbons[j].opp.eval_many(1.0 - s[j])
        return out

    def eval_boundary(self, i, t):
        """Surface point on domain edge i at edge parameter t.

        By the interpolation property this equals curve i evaluated at t;
        it is still computed through the full patch.
        """
        return self.eval(self.domain.edge_point(i, t))


def make_patch(loop):
    return Patch(loop)
