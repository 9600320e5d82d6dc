"""Independent reference evaluator for checking npatch outputs.

Written from the method's definition, sharing no code with the package:
Bezier curves by direct Bernstein sums (the package uses de Casteljau),
Wachspress coordinates in product form from edge cross products (the
package uses edge normals), and the three-term Coons ribbon assembled
from those curves.  Loops are given as lists of (degree + 1, 3) control
nets, already welded (consecutive sides share bit-identical corners).

Domain conventions are the package's documented ones: vertex k of the
regular n-gon sits at angle pi/2 + 2*pi*k/n, edge i runs from vertex
i-1 (t = 0) to vertex i (t = 1) and carries side i.
"""

from math import comb

import numpy as np


def bernstein(cps, t):
    """Points of the Bezier curve with control net cps at parameters t."""
    cps = np.asarray(cps, dtype=float)
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    d = len(cps) - 1
    k = np.arange(d + 1)
    coef = np.array([comb(d, j) for j in k], dtype=float)
    basis = coef * t**k * (1.0 - t) ** (d - k)
    return basis @ cps


def polygon(n):
    angles = np.pi / 2 + 2 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(angles), np.sin(angles)])


def ring_points(n, m, index):
    """Domain points of ring-tessellation vertices by their mesh index.

    Vertex 0 is the center; ring l (1..m) follows with n*l vertices,
    l per edge, each edge walked from t = 0 in steps of 1/l, scaled by
    l/m about the center.
    """
    index = np.asarray(index, dtype=int)
    v = polygon(n)
    out = np.zeros((len(index), 2))
    inner = index > 0
    idx = index[inner] - 1
    # ring l holds indices [n*l*(l-1)/2, n*l*(l+1)/2) of the non-center run
    level = np.floor((1 + np.sqrt(1 + 8 * idx / n)) / 2).astype(int)
    level -= (n * level * (level - 1) // 2) > idx
    level += (n * level * (level + 1) // 2) <= idx
    r = idx - n * level * (level - 1) // 2
    side = r // level
    t = (r % level) / level
    a = v[(side - 1) % n]
    b = v[side % n]
    out[inner] = (level / m)[:, None] * ((1.0 - t)[:, None] * a + t[:, None] * b)
    return out


def wachspress(n, points):
    """Wachspress coordinates, shape (k, n): lambda_i belongs to vertex i."""
    v = polygon(n)
    p = np.asarray(points, dtype=float)
    h = np.empty((len(p), n))
    for j in range(n):
        a, b = v[(j - 1) % n], v[j]
        e = b - a
        rel = p - a
        h[:, j] = np.maximum((e[0] * rel[:, 1] - e[1] * rel[:, 0]) / np.hypot(*e), 0.0)
    num = np.ones((len(p), n))
    for i in range(n):
        for j in range(n):
            if j != i and j != (i + 1) % n:
                num[:, i] *= h[:, j]
    return num / num.sum(axis=1, keepdims=True)


def opposite_net(sides, i):
    """Control net of ribbon i's far curve, from corner i+1 to corner i-2."""
    n = len(sides)
    p0 = np.asarray(sides[(i + 1) % n][-1], dtype=float)
    if n == 3:
        return p0[None]
    p3 = np.asarray(sides[(i - 1) % n][0], dtype=float)
    after = np.asarray(sides[(i + 2) % n], dtype=float)
    before = np.asarray(sides[(i - 2) % n], dtype=float)
    p1 = p0 + (len(after) - 1) * (after[1] - after[0]) / 3.0
    p2 = p3 - (len(before) - 1) * (before[-1] - before[-2]) / 3.0
    return np.array([p0, p1, p2, p3])


def ribbon(sides, i, s, d):
    """Three-term Coons ribbon i at parameter arrays s, d."""
    n = len(sides)
    base = np.asarray(sides[i], dtype=float)
    prev = np.asarray(sides[(i - 1) % n], dtype=float)
    nxt = np.asarray(sides[(i + 1) % n], dtype=float)
    sc, dc = s[:, None], d[:, None]
    ruled_d = (1 - dc) * bernstein(base, s) + dc * bernstein(opposite_net(sides, i), 1 - s)
    ruled_s = (1 - sc) * bernstein(prev, 1 - d) + sc * bernstein(nxt, d)
    corners = ((1 - sc) * (1 - dc) * base[0] + (1 - sc) * dc * prev[0]
               + sc * (1 - dc) * base[-1] + sc * dc * nxt[-1])
    return ruled_d + ruled_s - corners


def patch(sides, points):
    """Blended surface sum_i R_i(s_i, d_i) (1 - d_i) / 2 at domain points.

    A side whose s_i is undefined (lambda_{i-1} + lambda_i = 0) carries
    zero weight and is left out.
    """
    n = len(sides)
    lam = wachspress(n, points)
    out = np.zeros((len(lam), 3))
    for i in range(n):
        den = lam[:, (i - 1) % n] + lam[:, i]
        ok = den > 0
        s = lam[ok, i] / den[ok]
        d = np.clip(1.0 - den[ok], 0.0, 1.0)
        out[ok] += ribbon(sides, i, s, d) * (0.5 * (1.0 - d))[:, None]
    return out


def scale(sides):
    """Length scale for tolerances: max(1, bounding-box diagonal)."""
    pts = np.vstack([np.asarray(c, dtype=float) for c in sides])
    return max(1.0, float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))))
