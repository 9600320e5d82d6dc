"""Surface quality analysis and the discrete harmonic baseline."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DomainError, NumericError, SchemaError
from .mesher import TriMesh, mesh_patch, tessellate_domain
from .surface import Patch

# central-difference step in domain units (circumradius 1): balances
# O(h^2) truncation against double-precision rounding in the 2nd diffs
CURVATURE_STEP = 1e-4
# 9-point stencil offsets in units of h: center, +-x, +-y, then the diagonals
STENCIL = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1],
                    [1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
# largest umbrella residual harmonic_fill accepts, relative to max(1, boundary scale)
UMBRELLA_TOL = 1e-10


def mean_curvature(surface, p, h=CURVATURE_STEP):
    """Mean curvature at domain point p, or at each row of a (k, 2) array.

    Partial derivatives come from central finite differences of step h
    on a 9-point stencil, and H from the fundamental forms row by row.
    `surface` is a Patch, evaluated at the whole batch's stencil in one
    eval_many call, or any callable mapping a 2D point to R^3, called
    point by point.  For a Patch, every point must keep a 2h margin from
    the domain boundary.
    """
    p = np.asarray(p, dtype=float)
    stencil = (np.atleast_2d(p)[:, None] + h * STENCIL).reshape(-1, 2)
    if isinstance(surface, Patch):
        if surface.domain.edge_distances_many(p.reshape(-1, 2)).min() < 2 * h:
            raise DomainError("point closer than 2h to the domain boundary")
        f = surface.eval_many(stencil)
    else:
        f = np.array([surface(q) for q in stencil])
    fc, fxp, fxm, fyp, fym, fpp, fpm, fmp, fmm = f.reshape(-1, 9, 3).transpose(1, 0, 2)
    su = (fxp - fxm) / (2 * h)
    sv = (fyp - fym) / (2 * h)
    suu = (fxp - 2 * fc + fxm) / (h * h)
    svv = (fyp - 2 * fc + fym) / (h * h)
    suv = (fpp - fpm - fmp + fmm) / (4 * h * h)

    normal = np.cross(su, sv)
    nn = np.linalg.norm(normal, axis=1, keepdims=True)
    if np.any(nn == 0.0):
        raise NumericError("degenerate tangent plane, cannot evaluate curvature")
    normal /= nn
    e, ff, g = np.einsum("skj,skj->sk", [su, su, sv], [su, sv, sv])
    l, mm, nq = np.einsum("skj,kj->sk", [suu, suv, svv], normal)
    h_mean = (e * nq - 2 * ff * mm + g * l) / (2 * (e * g - ff * ff))
    return float(h_mean[0]) if p.ndim == 1 else h_mean


def pull_inward(poly, p, margin):
    """Shrink p (a point or rows of a (k, 2) array) toward the polygon
    center until all its edge distances are >= margin."""
    p = np.asarray(p, dtype=float)
    dots = (p[..., None, :] * poly.edge_normals).sum(axis=-1)  # same bits alone or in a batch
    limit = np.divide(poly.apothem - margin, dots, out=np.ones_like(dots), where=dots > 0)
    return p * np.clip(limit.min(axis=-1), 0.0, 1.0)[..., None]


def curvature_map(patch, m):
    """Patch mesh with per-vertex mean curvature as the scalar channel.

    Vertices too close to the domain boundary are sampled at the nearest
    admissible point toward the center.
    """
    mesh = mesh_patch(patch, m)
    # margin strictly above the 2h precondition, rounding-safe
    points = pull_inward(patch.domain, tessellate_domain(patch.domain, m).vertices,
                         2.5 * CURVATURE_STEP)
    mesh.scalar = mean_curvature(patch, points)
    return mesh


class ContourSet:
    """Isoline polylines of a mesh sliced by parallel planes."""

    def __init__(self, axis, levels, polylines):
        self.axis = np.asarray(axis, dtype=float)
        self.levels = list(levels)
        self.polylines = polylines  # list of (k, 3) arrays


def _chains(segments, size):
    """Node chains of the graph whose edges are segments, (k, 2) ids < size.

    Open chains come first, each walked from its lower-id end (a node of
    degree 1), then cycles from their lowest id; a cycle's chain ends on
    its first node.
    """
    deg = np.bincount(segments.ravel(), minlength=size)
    incident = (np.argsort(segments.ravel(), kind="stable") // 2).tolist()
    start = np.concatenate([[0], np.cumsum(deg)]).tolist()
    # start order: degree-1 nodes by id, then every other node by id
    key = segments + size * (deg[segments] != 1)
    ends = segments.tolist()
    used = np.zeros(len(segments), dtype=bool)
    chains = []
    while not used.all():
        node = int(segments.flat[np.where(used[:, None], 2 * size, key).argmin()])
        chain = [node]
        while True:
            free = [s for s in incident[start[node]:start[node + 1]] if not used[s]]
            if not free:
                break
            used[free[0]] = True
            a, b = ends[free[0]]
            node = b if a == node else a
            chain.append(node)
        chains.append(chain)
    return chains


def contours(mesh, axis, count):
    """Marching-triangles isolines of (axis . vertex) on a triangle mesh.

    Levels are uniformly spaced strictly inside the projection range
    (endpoints would yield degenerate contours).  Per level, each
    crossed edge is cut once, interpolating from its lower to its higher
    vertex index, and each crossed triangle joins its two cut edges by a
    segment.  Segments are chained by edge id: open polylines first, each
    from its lower-id end, then cycles from their lowest edge id.  So
    adjacent segments share identical points, and a closed polyline ends
    on a bitwise copy of its first point.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    axis = np.asarray(axis, dtype=float)
    proj = mesh.vertices @ axis
    lo, hi = proj.min(), proj.max()
    levels = [lo + (hi - lo) * (k + 1) / (count + 1) for k in range(count)]

    edges, tri_edges = mesh.edges()
    polylines = []
    for level in levels:
        below = proj < level
        cut = below[edges[:, 0]] != below[edges[:, 1]]
        a, b = edges[cut].T
        t = (level - proj[a]) / (proj[b] - proj[a])
        points = np.empty((len(edges), 3))
        points[cut] = mesh.vertices[a] + t[:, None] * (mesh.vertices[b] - mesh.vertices[a])
        # a crossed triangle has exactly two cut sides: row-major, they pair up
        segments = tri_edges[cut[tri_edges]].reshape(-1, 2)
        polylines.extend(points[chain] for chain in _chains(segments, len(edges)))
    return ContourSet(axis, levels, polylines)


def dirichlet_energy(mesh):
    """Uniform-weight discrete Dirichlet energy: sum over edges of |du|^2."""
    e, _ = mesh.edges()
    d = mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]]
    return float((d * d).sum())


def harmonic_fill(mesh):
    """Discrete 'soap film' on a mesh's connectivity, boundary fixed.

    The vertices listed in mesh.boundary keep their positions (for a
    mesh_patch result, the boundary curve samples) and every other
    vertex is solved to be the average of its neighbors (conjugate
    gradients on the SPD interior system, per coordinate).  The length
    scale of the tolerances is the boundary's bounding-box diagonal.  A
    mesh without interior vertices is returned unchanged.
    """
    if mesh.boundary is None or len(mesh.boundary.index) == 0:
        raise SchemaError("harmonic_fill needs a mesh with a boundary table")
    nv = len(mesh.vertices)
    pos = mesh.vertices.copy()
    boundary = np.zeros(nv, dtype=bool)
    boundary[mesh.boundary.index] = True

    interior = np.nonzero(~boundary)[0]
    scale = float(np.linalg.norm(np.ptp(pos[boundary], axis=0)))

    # graph Laplacian rows for interior vertices: deg*x_v - sum(neighbors)
    edges, _ = mesh.edges()
    u, v = np.vstack([edges, edges[:, ::-1]]).T
    adjacency = sp.csr_matrix((np.ones(u.size), (u, v)), shape=(nv, nv))
    deg = np.bincount(u, minlength=nv).astype(float)
    a_mat = (sp.diags(deg) - adjacency).tocsr()[interior][:, interior]
    rhs = adjacency[interior][:, boundary] @ pos[boundary]

    x0 = np.mean(pos[boundary], axis=0)
    maxiter = 10 * max(len(interior), 1)
    sol = np.empty((len(interior), 3))
    for c in range(3):
        x, info = spla.cg(
            a_mat, rhs[:, c], x0=np.full(len(interior), x0[c]),
            rtol=1e-14, atol=1e-14 * max(scale, 1.0), maxiter=maxiter,
        )
        if info != 0:
            res = np.linalg.norm(a_mat @ x - rhs[:, c])
            raise NumericError(
                "harmonic solve did not converge (residual %.3e)" % res
            )
        sol[:, c] = x
    pos[interior] = sol

    # verify the umbrella condition directly
    nb_sum = adjacency @ pos
    resid = pos[interior] - nb_sum[interior] / deg[interior, None]
    worst = float(np.abs(resid).max(initial=0.0))
    if not worst <= UMBRELLA_TOL * max(scale, 1.0):  # NaN too
        raise NumericError("umbrella residual %.3e above tolerance" % worst)

    return TriMesh(pos, mesh.triangles, boundary=mesh.boundary)
