"""Concentric-ring tessellation of the domain polygon and patch meshing."""

from collections import namedtuple

import numpy as np

from .errors import DomainError, SchemaError

Boundary = namedtuple("Boundary", "index side t")
Boundary.__doc__ = """Boundary vertices: indices, 0-based side and edge parameter t, shape (k,)."""


class TriMesh:
    """Indexed triangle mesh (2D or 3D vertices).

    boundary is a Boundary table of the vertices lying on the domain
    boundary (None when unknown); scalar is an optional per-vertex channel;
    domain holds the (k, 2) domain points the vertices were mapped from
    (None when unknown).  SchemaError: the triangle table is not 2-D, holds
    a value that is not an integer (NaN included) or an index out of range.
    """

    def __init__(self, vertices, triangles, boundary=None, scalar=None, domain=None):
        self.vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles)
        if triangles.ndim != 2 or (triangles.dtype.kind not in "biu"
                                   and not np.array_equal(triangles, np.trunc(triangles))):
            raise SchemaError("triangles must be a 2-D table of integer vertex indices")
        if np.any((triangles < 0) | (triangles >= len(self.vertices))):
            raise SchemaError("triangle index out of range for %d vertices" % len(self.vertices))
        self.triangles = np.asarray(triangles, dtype=int)
        self.boundary = boundary
        self.scalar = None if scalar is None else np.asarray(scalar, dtype=float)
        self.domain = domain

    def edges(self):
        """Unique undirected edges as a sorted (E, 2) array."""
        nv = len(self.vertices)
        a, b = self.triangles, self.triangles[:, [1, 2, 0]]
        # sort one integer key per side (cheaper than unique(axis=0)); keep each new key
        keys = np.sort(np.minimum(a, b) * nv + np.maximum(a, b), axis=None)
        return np.column_stack(np.divmod(keys[np.r_[-1, keys[:-1]] != keys], nv))


def ring_vertex(n, level, k):
    """Index of ring `level`'s cyclic vertex k = side * level + slot; ring 0 is the center."""
    return n * level * (level - 1) // 2 + (level > 0) + k % np.maximum(n * level, 1)


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
    level = np.repeat(levels, n * levels)
    side, k = np.divmod(np.arange(level.size) - n * level * (level - 1) // 2, level)
    t = k / level
    ring = (level / m)[:, None] * poly.edge_point(side, t)
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
        ring_vertex(n, lev, s * lev + a),
        np.where(inner, ring_vertex(n, lev - 1, s * (lev - 1) + b + 1),
                 ring_vertex(n, lev, s * lev + a + 1)),
        ring_vertex(n, lev - 1, s * (lev - 1) + b),
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
    """Map the domain tessellation through the patch; its points become mesh.domain.

    The ring mesh maps onto itself under the rotation by 2 pi / n: side 0's
    slots of each ring go through Patch.eval_rotations, whose rotation q
    gives sector q, and the center through Patch.eval_many.  Boundary
    vertices are evaluated directly on their boundary curve so the mesh
    boundary lies exactly on the input curves.
    """
    dm = tessellate_domain(patch.domain, m)
    level, slot = np.tril_indices(m)  # slot < level of side 0, per ring
    level = level[:, None] + 1
    sectors = ring_vertex(patch.n, level, np.arange(patch.n) * level + slot[:, None])
    pts = np.empty((len(dm.vertices), 3))
    pts[:1] = patch.eval_many(dm.vertices[:1])
    pts[sectors] = patch.eval_rotations(dm.vertices[sectors[:, 0]])
    pts[dm.boundary.index] = sample_boundary(patch.loop, dm.boundary)
    return TriMesh(pts, dm.triangles, boundary=dm.boundary, domain=dm.vertices)
