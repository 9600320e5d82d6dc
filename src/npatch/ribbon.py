"""Per-side C0 Coons ribbons.

Ribbon i interpolates sides i-1, i, i+1 and the opposite curve.  The
opposite curve is stored in its own orientation (running from corner
i+1 to corner i-2); the parameter reversal needed by the blending
formula happens here at evaluation time.
"""

import numpy as np

from .errors import DomainError
from .loop import opposite_curve


class Ribbon:
    """Four-sided Coons patch bundling three consecutive loop sides."""

    def __init__(self, loop, i):
        self.prev = loop.side(i - 1)
        self.base = loop.side(i)
        self.next = loop.side(i + 1)
        self.opp = opposite_curve(loop, i)
        # corner matrix rows: s in {0,1}; columns: d in {0,1}
        self.c00 = self.base.start_point()   # C_i(0)
        self.c01 = self.prev.start_point()   # C_{i-1}(0)
        self.c10 = self.base.end_point()     # C_i(1)
        self.c11 = self.next.end_point()     # C_{i+1}(1)

    def eval_many(self, s, d):
        """Bilinearly blended Coons sum at parameter arrays s, d in [0, 1].

        Three-term form: ruled surface in d, ruled surface in s, minus
        the bilinear corner correction.
        """
        s = np.asarray(s, dtype=float)
        d = np.asarray(d, dtype=float)
        if not np.all((s >= 0) & (s <= 1) & (d >= 0) & (d <= 1)):
            raise DomainError("ribbon parameters outside [0, 1]")
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
