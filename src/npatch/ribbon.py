"""Per-side C0 Coons ribbons.

Ribbon i interpolates sides i-1, i, i+1 and the opposite curve.  The
opposite curve is stored in its own orientation (running from corner
i+1 to corner i-2); the parameter reversal needed by the blending
formula happens here at evaluation time.
"""

from .curves import BezierCurve
from .errors import array
from .loop import opposite_curve


class Ribbon:
    """Four-sided Coons patch bundling three consecutive loop sides."""

    def __init__(self, loop, i):
        n = loop.n
        self.prev, self.base, self.next = (loop.sides[(i + k) % n] for k in (-1, 0, 1))
        self.opp = BezierCurve(opposite_curve(loop)[:, i])
        # corner matrix rows: s in {0,1}; columns: d in {0,1}
        self.c00 = self.base.control_points[0]   # C_i(0)
        self.c01 = self.prev.control_points[0]   # C_{i-1}(0)
        self.c10 = self.base.control_points[-1]  # C_i(1)
        self.c11 = self.next.control_points[-1]  # C_{i+1}(1)

    def eval_many(self, s, d):
        """Bilinearly blended Coons sum at parameter arrays s, d in [0, 1] (else DomainError).

        Three-term form: ruled surface in d, ruled surface in s, minus
        the bilinear corner correction.
        """
        s, d = (array(x, "ribbon parameter").astype(float, copy=False) for x in (s, d))
        sc = s[:, None]
        dc = d[:, None]
        ruled_d = (1.0 - dc) * self.base.eval_many(s) + dc * self.opp.eval_many(1.0 - s)
        ruled_s = (1.0 - sc) * self.prev.eval_many(1.0 - d) + sc * self.next.eval_many(d)
        corner = (
            (1.0 - sc) * (1.0 - dc) * self.c00
            + (1.0 - sc) * dc * self.c01
            + sc * (1.0 - dc) * self.c10
            + sc * dc * self.c11
        )
        return ruled_d + ruled_s - corner
