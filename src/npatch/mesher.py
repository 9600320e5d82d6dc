"""Concentric-ring tessellation of the domain polygon and patch meshing."""

import numpy as np

from .errors import SIZE_BUDGET, DomainError, array, integer


def _indices(values, count, what, shape):
    """values as an int array; DomainError unless of shape, of an integer dtype and in
    0 .. count - 1."""
    values = array(values, what + " indices", shape)
    if values.dtype.kind == "f":
        raise DomainError("%s indices must be integers" % what)
    if np.any((values < 0) | (values >= count)):
        raise DomainError("%s index out of range for %d vertices" % (what, count))
    return values.astype(int, copy=False)


class TriMesh:
    """Read-only indexed triangle mesh of (k, d) vertices.

    boundary holds the indices of the vertices on the domain boundary, a
    1-D array, and domain the (k, 2) domain points the vertices were mapped
    from (each None when unknown).  DomainError: the vertices or domain are
    not a (k, d) or (k, 2) array of numbers (not booleans), the triangles
    not a (k, 3) table or the boundary a 1-D array of vertex indices, of an
    integer dtype and in range.  The mesh holds read-only copies of its
    arrays and refuses assignment to its attributes (AttributeError): every
    consumer trusts this one check.
    """

    def __init__(self, vertices, triangles, boundary=None, domain=None):
        vertices = array(vertices, "vertices", (None, None))
        k = len(vertices)
        fields = dict(vertices=vertices.astype(float, copy=False),
                      triangles=_indices(triangles, k, "triangle", (None, 3)),
                      boundary=None if boundary is None else _indices(
                          boundary, k, "boundary", (None,)),
                      domain=None if domain is None else array(
                          domain, "domain", (k, 2)).astype(float, copy=False))
        for name, value in fields.items():
            if value is not None:
                (value := value.copy()).setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("a TriMesh is read-only: build a new one instead")

    def edges(self):
        """Unique undirected edges as a sorted (E, 2) array."""
        nv = len(self.vertices)
        a, b = self.triangles, self.triangles[:, [1, 2, 0]]
        # sort one integer key per side (cheaper than unique(axis=0)); keep each new key
        keys = np.sort(np.minimum(a, b) * nv + np.maximum(a, b), axis=None)
        return np.column_stack(np.divmod(keys[np.r_[-1, keys[:-1]] != keys], nv))


def _sectors(n, m):
    """Side 0's ring slots, level 1..m and slot < level, each of shape (k, 1), and their
    vertices on every side: index[:, q] = 1 + n level (level - 1)/2 + slot + q level."""
    level, slot = np.tril_indices(m)
    level, slot = level[:, None] + 1, slot[:, None]
    return level, slot, 1 + n * level * (level - 1) // 2 + slot + np.arange(n) * level


def tessellate_domain(poly, m):
    """Ring tessellation of the n-gon, m steps a side: (vertices, triangles, boundary, sectors).

    Ring l (l = m..1) is the polygon scaled by l/m about the center
    with l vertices per edge; ring 0 is the center point.  Ring m's
    vertices are the boundary, side by side: boundary[q*m + j] lies on
    side q at t = j/m; sectors[:, q] are side q's ring vertices, level
    by level.  DomainError: m is not an integer >= 1, or the n*m*m
    triangles pass errors.SIZE_BUDGET.

    The strip between rings l and l-1 on side 0 alternates its l outer
    and l-1 inner steps, outer first, save that it ends with the last
    outer step and then the last inner one (the order of their
    normalized ends, ties to the outer step).
    """
    m = integer(m, "resolution m", 1, int((SIZE_BUDGET / poly.n) ** 0.5))  # n m^2 triangles
    n, s = poly.n, np.arange(poly.n)
    level, slot, index = _sectors(n, m)
    vertices = np.zeros((1 + index.size, 2))
    vertices[index] = (level / m)[..., None] * poly._edge_point(s, slot / level)

    # triangle k < 2 lev - 1 of side 0's strip at level lev, and its outer (a) and inner
    # (b) steps before
    lev = np.repeat(np.arange(1, m + 1), np.arange(1, 2 * m, 2))
    k = np.arange(lev.size) - (lev - 1) ** 2
    inner = (k % 2 == 1) != (k >= np.maximum(2 * lev - 3, 1))
    a = (k + 1 + inner) // 2
    b = k - a
    # corner (ring, slot <= ring) of side 0, moved s * ring on side s; slot n * ring wraps to 0
    ring = np.stack([lev, lev - inner, lev - 1], axis=-1)
    at = np.stack([a, np.where(inner, b, a) + 1, b], axis=-1)
    corners = np.r_[0, index[slot[:, 0] == 0, 0]][ring] + at + s[:, None, None] * ring
    corners[-1] -= n * ring * (at == ring)
    triangles = np.concatenate([corners[:, (l - 1) ** 2:l * l].reshape(-1, 3)  # level l, side-major
                                for l in range(1, m + 1)])
    return vertices, triangles, index[-m:].T.ravel(), index


def mesh_patch(patch, m):
    """Map the domain tessellation through the patch; its points become mesh.domain.

    The ring mesh maps onto itself under the rotation by 2 pi / n: side 0's
    slots of each ring go through Patch.eval_rotations, whose rotation q
    gives sector q, and the center through Patch.eval_many.  Boundary
    vertices are evaluated directly on their boundary curve, at the edge
    parameters j/m, so the mesh boundary lies exactly on the input curves.
    """
    domain, triangles, boundary, index = tessellate_domain(patch.domain, m)
    m = len(boundary) // patch.n  # a Python int, checked there
    pts = np.empty((len(domain), 3))
    pts[:1] = patch.eval_many(domain[:1])
    pts[index] = patch.eval_rotations(domain[index[:, 0]])
    pts[boundary] = np.concatenate([c.eval_many(np.arange(m) / m) for c in patch.loop.sides])
    return TriMesh(pts, triangles, boundary=boundary, domain=domain)
