"""The full multi-sided patch: blended sum of one Coons ribbon per side."""

from contextlib import nullcontext

import numpy as np

from .curves import _elevate, bernstein_basis, binomials
from .domain import DomainPolygon, local_params
from .errors import DomainError, array, integer, overflow, real
from .loop import BoundaryLoop, opposite_curve

# curve parameters per evaluation block (points x 4n curve columns): bounds
# the block's transients, the (points, n, n - 2) Wachspress gather
# included, whatever n is
BLOCK_VALUES = 2**14
_COONS = np.array([1, 3, 0, 2])  # _eval_block's t = (s, 1 - d, d, 1 - s) in Coons weight order
_UNGUARDED = nullcontext()  # reusable: a patch sum within __init__'s bound needs no errstate


class Patch:
    """Transfinite n-sided surface over the regular n-gon domain.

    S(p) = sum_i R_i(s_i, d_i) * (1 - d_i) / 2 over all n sides, with no
    cut-off: a side with lambda_{i-1} + lambda_i = 0, where s_i is
    undefined, has weight exactly 0.  The weights sum to one, and no
    renormalization is applied.
    """

    def __init__(self, loop):
        if not isinstance(loop, BoundaryLoop):
            raise DomainError("a patch needs a BoundaryLoop, got %s" % type(loop).__name__)
        self.loop, self.n = loop, loop.n
        self.domain = DomainPolygon(loop.n)
        self._block = max(1, BLOCK_VALUES // (4 * loop.n))  # points per evaluation block
        # the n sides and the n opposite curves, elevated to the highest degree
        # D among them; the control tensor (D + 1, 4n, 3) holds in column
        # block r = 0..3 ribbon i's base, prev, next and opposite curve, and is
        # kept flattened and transposed, (3, (D + 1) 4n), for the kernel's matmul
        n, opposite, degrees = loop.n, opposite_curve(loop), loop.last - loop.first
        degree = max(len(opposite) - 1, int(degrees.max()))
        controls = np.empty((degree + 1, 2 * n, 3))
        for d in set(degrees.tolist()):  # the sides of degree d, (d + 1, sides, 3) from the table
            group = np.flatnonzero(degrees == d)
            rows = loop.first[group] + np.arange(d + 1)[:, None]
            controls[:, group] = _elevate(loop.points[rows], degree)
        controls[:, n:] = _elevate(opposite, degree)
        self._binomials = binomials(degree)
        i = np.arange(n)
        sides = controls[:, :n]
        # ribbon i's bilinear corner term is ruled in d, (1 - d) L0(s) + d L1(1 - s),
        # between the chords L0 from loop corner i - 1 to corner i and L1 from corner
        # i + 1 to corner i - 2, the opposite curve's way; the base and opposite
        # columns carry those Coons weights and parameters, so they hold curve - chord
        corners = sides[-1]  # corner i ends side i; elevation keeps it bit for bit
        start, end = (corners[np.concatenate(j)] for j in ([i - 1, (i + 1) % n], [i, i - 2]))
        u = np.linspace(0.0, 1.0, degree + 1)[:, None, None]
        with overflow("patch side minus its corner chord"):
            folded = controls - ((1.0 - u) * start + u * end)
        self._controls_t = np.concatenate(
            [folded[:, :n], sides[:, i - 1], sides[:, (i + 1) % n], folded[:, n:]], axis=1
        ).reshape(-1, 3).T.copy()
        # no partial sum of controls @ basis passes 2 max|C|: its weights times Bernstein values,
        # all >= 0, sum to sum_i (1 - d_i) / 2 * 2 = 2; the guard is for max|C| > float_max / 4
        self._near_range = np.abs(self._controls_t).max() > np.finfo(float).max / 4

    def eval(self, p):
        """Surface point at a single 2D domain point, shape (2,) -> (3,)."""
        return self._eval_blocks(array(p, "domain point", (2,))[None], self._controls_t)[0]

    def eval_many(self, points):
        """Surface points at an array of 2D domain points, shape (k, 2) -> (k, 3).

        S = sum_i w_i R_i(s_i, d_i), w_i = (1 - d_i)/2, over all n sides,
        is linear in the curve samples.  Per block of BLOCK_VALUES / (4n)
        points, one Bernstein basis of degree D over all 4n curve columns,
        scaled by the Coons weights, multiplies the control tensor, whose
        base and opposite columns hold the corner terms.  A sum past the
        float range raises DomainError.
        """
        return self._eval_blocks(array(points, "domain points", (None, 2)), self._controls_t)

    def eval_rotations(self, points):
        """Surface points at every rotation of the domain points by 2 pi q / n,
        shape (k, 2) -> (k, n, 3), entry [:, q] at R^q p.

        Rotating p shifts its Wachspress coordinates cyclically,
        lambda_i(R p) = lambda_{i-1}(p), so the parameter basis at p gives
        rotation q's value against the control tensor with its side axis
        rolled by q; the n rolled copies stack into one matrix product.
        """
        n = self.n
        roll = (np.arange(n)[:, None] + np.arange(n)) % n  # [q, j] -> side j + q
        points = array(points, "domain points", (None, 2))
        controls = np.moveaxis(self._controls_t.reshape(3, -1, 4, n)[..., roll], 3, 0)
        return self._eval_blocks(points, controls.reshape(3 * n, -1)).reshape(-1, n, 3)

    def _eval_blocks(self, points, controls):
        """_eval_block over checked (k, 2) points per block; guarded only past __init__'s bound."""
        block = self._block
        with overflow("patch evaluation") if self._near_range else _UNGUARDED:
            if 0 < len(points) <= block:  # one block: the kernel's own array
                return self._eval_block(points, controls)
            out = np.empty((len(points), len(controls)))
            for start in range(0, len(points), block):
                out[start:start + block] = self._eval_block(points[start:start + block], controls)
        return out

    def _eval_block(self, points, controls):
        # values (k, r) of r / 3 stacked control tensors (r, (D + 1) 4n)
        k, n = len(points), self.n
        s, d, _ = local_params(self.domain.wachspress_many(points))
        # curve-major (4n, k) parameters, in [0, 1] as wachspress_many and local_params
        # leave them, and weights of ribbon i's base, prev, next and opposite curve
        s, d = s.T, d.T
        t = np.concatenate([s, 1.0 - d, d, 1.0 - s])
        c = t.reshape(4, n, k).take(_COONS, axis=0)  # Coons weights 1 - d, 1 - s, s, d
        c *= 0.5 * c[0]  # times the ribbon weights (1 - d) / 2
        basis = bernstein_basis(t, self._binomials)
        basis *= c.reshape(4 * n, k)
        return (controls @ basis.reshape(-1, k)).T

    def eval_boundary(self, i, t):
        """Surface point on domain edge i (an integer, taken cyclically) at t in [0, 1].

        The patch interpolates its boundary: this is loop.sides[i % n].eval(t), bit for
        bit, and eval at the edge point (1 - t) v_{i-1} + t v_i agrees within round-off.
        """
        i, t = integer(i, "side index"), real(t, "edge parameter", 0, 1)
        return self.loop.sides[i % self.n].eval(t)


def make_patch(loop):
    return Patch(loop)
