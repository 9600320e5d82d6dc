"""The full multi-sided patch: blended sum of one Coons ribbon per side."""

import numpy as np

from .curves import bernstein, elevate
from .domain import DomainPolygon, local_params
from .errors import DomainError
from .loop import opposite_curve

# curve parameters per evaluation block (points x 4n curve columns): bounds
# the block's transients, the (points, n, n - 2) Wachspress gather
# included, whatever n is
BLOCK_VALUES = 2**14


class Patch:
    """Transfinite n-sided surface over the regular n-gon domain.

    S(p) = sum_i R_i(s_i, d_i) * (1 - d_i) / 2, where the sum skips
    sides whose sweep parameter is undefined (their weight vanishes).
    No renormalization is applied.
    """

    def __init__(self, loop):
        self.loop = loop
        self.domain = DomainPolygon(loop.n)
        # the n sides and the n opposite curves, elevated to the highest degree
        # D among them; the control tensor (D + 1, 4n, 3) holds in column
        # block r = 0..3 ribbon i's base, prev, next and opposite curve, and is
        # kept flattened and transposed, (3, (D + 1) 4n), for the kernel's matmul
        n = loop.n
        curves = loop.sides + tuple(opposite_curve(loop, i) for i in range(n))
        self._degree = degree = max(c.degree for c in curves)
        controls = np.empty((degree + 1, 2 * n, 3))
        for d in {c.degree for c in curves}:
            group = [j for j, c in enumerate(curves) if c.degree == d]
            controls[:, group] = elevate(
                np.stack([curves[j].control_points for j in group], axis=1), degree)
        i = np.arange(n)
        sides = controls[:, :n]
        self._controls_t = np.concatenate(
            [sides, sides[:, i - 1], sides[:, (i + 1) % n], controls[:, n:]], axis=1
        ).reshape(-1, 3).T.copy()
        # ribbon i's bilinear corner terms in the basis 1, s, d, s*d; its
        # corners c00, c01, c10 and c11 are loop corners i - 1, i - 2, i, i + 1
        corners = np.array([loop.corner(j) for j in range(n)])[(i[:, None] + [-1, -2, 0, 1]) % n]
        c00, c01, c10, c11 = corners.transpose(1, 0, 2)
        try:
            with np.errstate(over="raise"):
                self._corner_basis = (c00, c10 - c00, c01 - c00, c00 - c01 - c10 + c11)
        except FloatingPointError:
            raise DomainError("patch corner term overflows the float range") from None

    @property
    def n(self):
        return self.loop.n

    def eval(self, p):
        """Surface point at a single 2D domain point."""
        return self.eval_many(np.asarray(p)[None])[0]

    def eval_many(self, points):
        """Surface points at an array of 2D domain points, shape (k, 2) -> (k, 3).

        S = sum_i w_i R_i(s_i, d_i), w_i = (1 - d_i)/2 (0 where s_i is
        undefined), is linear in the curve samples.  Per block of
        BLOCK_VALUES / (4n) points, one Bernstein basis of degree D over
        all 4n curve columns, scaled by the Coons weights, multiplies the
        control tensor; the corner terms are matrix products.  A sum past
        the float range raises DomainError.
        """
        return self._eval_blocks(points, self._controls_t, self._corner_basis)

    def eval_rotations(self, points):
        """Surface points at every rotation of the domain points by 2 pi q / n,
        shape (k, 2) -> (k, n, 3), entry [:, q] at R^q p.

        Rotating p shifts its Wachspress coordinates cyclically,
        lambda_i(R p) = lambda_{i-1}(p), so the parameter basis at p gives
        rotation q's value against the control tensor and corner terms
        with their side axis rolled by q; the n rolled copies stack into
        one matrix product.
        """
        n = self.n
        roll = (np.arange(n)[:, None] + np.arange(n)) % n  # [q, j] -> side j + q
        controls = np.moveaxis(self._controls_t.reshape(3, -1, 4, n)[..., roll], 3, 0)
        corners = tuple(e[roll].transpose(1, 0, 2).reshape(n, 3 * n) for e in self._corner_basis)
        return self._eval_blocks(points, controls.reshape(3 * n, -1), corners).reshape(-1, n, 3)

    def _eval_blocks(self, points, controls, corners):
        points = np.asarray(points)
        if points.shape[1:] != (2,) or points.dtype.kind not in "biuf":
            raise DomainError("domain points must be a (k, 2) array of numbers")
        out = np.empty((len(points), len(controls)))
        block = max(1, BLOCK_VALUES // (4 * self.n))
        try:
            with np.errstate(over="raise"):
                for start in range(0, len(points), block):
                    out[start:start + block] = self._eval_block(
                        points[start:start + block], controls, corners)
        except FloatingPointError:
            raise DomainError("patch evaluation overflows the float range") from None
        return out

    def _eval_block(self, points, controls, corners):
        # values (k, r) of r / 3 stacked control tensors (r, (D + 1) 4n), corner terms (n, r)
        k, n = len(points), self.n
        lp = local_params(self.domain.wachspress_many(points))
        # sides with undefined s get weight 0 (and any finite s)
        s, d = lp.s, lp.d
        s[~lp.valid] = 0.0
        w = 0.5 * (1.0 - d)
        w[~lp.valid] = 0.0
        e0, es, ed, esd = corners
        out = -(w @ e0 + (w * s) @ es + (w * d) @ ed + (w * s * d) @ esd)
        # curve-major (4n, k) parameters and weights of ribbon i's base, prev,
        # next and opposite curve
        s, d, w = s.T, d.T, w.T
        t = np.concatenate([s, 1.0 - d, d, 1.0 - s])
        c = t.reshape(4, n, k)[[1, 3, 0, 2]]  # Coons weights 1 - d, 1 - s, s, d
        c *= w
        basis = bernstein(t, self._degree)
        basis *= c.reshape(4 * n, k)
        out += (controls @ basis.reshape(-1, k)).T
        return out

    def eval_boundary(self, i, t):
        """Surface point on domain edge i (an integer, taken cyclically) at edge parameter t.

        By the interpolation property this equals curve i evaluated at t;
        it is still computed through the full patch.
        """
        if not isinstance(i, (int, np.integer)):
            raise DomainError("side index must be an integer, got %r" % (i,))
        return self.eval(self.domain.edge_point(i, t))


def make_patch(loop):
    return Patch(loop)
