"""Concentric-ring tessellation of the domain polygon and patch meshing."""

from collections import namedtuple

import numpy as np

from .errors import DomainError

Boundary = namedtuple("Boundary", "index side t")
Boundary.__doc__ = """Boundary vertices: indices, 0-based side and edge parameter t, shape (k,)."""


class TriMesh:
    """Indexed triangle mesh (2D or 3D vertices).

    boundary is a Boundary table of the vertices lying on the domain
    boundary (None when unknown); scalar is an optional per-vertex channel.
    """

    def __init__(self, vertices, triangles, boundary=None, scalar=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)
        self.boundary = boundary
        self.scalar = None if scalar is None else np.asarray(scalar, dtype=float)

    def edges(self):
        """Unique undirected edges as a sorted (E, 2) array, and the (T, 3)
        edge ids of each triangle's sides (corners 0-1, 1-2, 2-0)."""
        t = self.triangles
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e.sort(axis=1)
        # one integer key per edge: a 1-D unique is far cheaper than unique(axis=0)
        nv = len(self.vertices)
        keys, ids = np.unique(e[:, 0] * nv + e[:, 1], return_inverse=True)
        return np.column_stack(np.divmod(keys, nv)), ids.reshape(3, -1).T


def tessellate_domain(poly, m):
    """Ring tessellation of the regular n-gon: m subdivisions per side.

    Ring l (l = m..1) is the polygon scaled by l/m about the center
    with l vertices per edge; ring 0 is the center point.  Ring m's
    vertices form the boundary table, with uniform t.  Triangle count
    is n*m*m.

    The strip between rings l and l-1 on one side merges its l outer and
    l-1 inner steps by their normalized ends (i+1)/l and (j+1)/(l-1),
    ties to the outer step; the count of the other chain's steps before
    a step (a floor division) gives its triangle and slot.
    """
    if m < 1:
        raise DomainError("resolution m must be >= 1")
    n = poly.n
    levels = np.arange(1, m + 1)

    def ring_vertex(level, k):
        # cyclic vertex k of ring `level`; ring 0 is the center
        return n * level * (level - 1) // 2 + (level > 0) + k % np.maximum(n * level, 1)

    level = np.repeat(levels, n * levels)
    side, k = np.divmod(np.arange(level.size) - n * level * (level - 1) // 2, level)
    t = k / level
    ring = (level / m)[:, None] * (
        (1.0 - t)[:, None] * poly.vertices[side - 1] + t[:, None] * poly.vertices[side])
    on_boundary = level == m
    boundary = Boundary(1 + np.nonzero(on_boundary)[0], side[on_boundary], t[on_boundary])

    # steps of one side's strip at level lev: outer i < lev, then inner j < lev-1
    lev = np.repeat(levels, 2 * levels - 1)
    step = np.arange(lev.size) - (lev - 1) ** 2
    inner = step >= lev
    j = step - lev
    a = np.where(inner, (j + 1) * lev // np.maximum(lev - 1, 1), step)  # outer steps before
    b = np.where(inner, j, np.maximum(((step + 1) * (lev - 1) - 1) // lev, 0))  # inner steps before
    s = np.arange(n)[:, None]
    triangles = np.empty((n * m * m, 3), dtype=int)
    triangles[n * (lev - 1) ** 2 + s * (2 * lev - 1) + a + b] = np.stack([
        ring_vertex(lev, s * lev + a),
        np.where(inner, ring_vertex(lev - 1, s * (lev - 1) + b + 1), ring_vertex(lev, s * lev + a + 1)),
        ring_vertex(lev - 1, s * (lev - 1) + b),
    ], axis=-1)
    return TriMesh(np.vstack([np.zeros((1, 2)), ring]), triangles, boundary=boundary)


def sample_boundary(loop, boundary):
    """Side-curve points at a boundary table's (side, t) entries, shape (k, 3)."""
    points = np.empty((boundary.side.size, 3))
    for i, curve in enumerate(loop.sides):
        on = boundary.side == i
        points[on] = curve.eval_many(boundary.t[on])
    return points


def mesh_patch(patch, m):
    """Map the domain tessellation through the patch.

    Boundary vertices are evaluated directly on their boundary curve so
    the mesh boundary lies exactly on the input curves.
    """
    dm = tessellate_domain(patch.domain, m)
    pts = patch.eval_many(dm.vertices)
    pts[dm.boundary.index] = sample_boundary(patch.loop, dm.boundary)
    return TriMesh(pts, dm.triangles, boundary=dm.boundary)
