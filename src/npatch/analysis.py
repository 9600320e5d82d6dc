"""Surface quality analysis and the discrete harmonic baseline."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DomainError, NumericError, SchemaError
from .mesher import TriMesh, mesh_patch, vertex_indices
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
    point by point.  DomainError: p is not a point or rows of numbers, or
    (for a Patch) a point lies within 2h of the domain boundary.
    """
    p = np.asarray(p)
    if p.shape[-1:] != (2,) or p.ndim > 2 or p.dtype.kind not in "biuf":
        raise DomainError("p must be a domain point or a (k, 2) array of numbers")
    stencil = (np.atleast_2d(p)[:, None] + h * STENCIL).reshape(-1, 2)
    if isinstance(surface, Patch):
        if surface.domain.edge_distances_many(p.reshape(-1, 2)).min(initial=np.inf) < 2 * h:
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
    e, ff, g = np.einsum("skj,skj->sk", [su, su, sv], [su, sv, sv])
    det = e * g - ff * ff  # |su x sv|^2: at a fold it can round to 0 while nn does not
    if np.any(nn == 0.0) or not np.all(det > 0):
        raise NumericError("degenerate tangent plane, cannot evaluate curvature")
    normal /= nn
    l, mm, nq = np.einsum("skj,kj->sk", [suu, suv, svv], normal)
    h_mean = (e * nq - 2 * ff * mm + g * l) / (2 * det)
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
    points = pull_inward(patch.domain, mesh.domain, 2.5 * CURVATURE_STEP)
    mesh.scalar = mean_curvature(patch, points)
    return mesh


class ContourSet:
    """Isoline polylines of a mesh sliced by parallel planes."""

    def __init__(self, axis, levels, polylines):
        self.axis = np.asarray(axis, dtype=float)
        self.levels = list(levels)
        self.polylines = polylines  # list of (k, 3) arrays


def _runs(first, size):
    """Owner and value of every item when owner i holds first[i] .. first[i] + size[i] - 1."""
    owner = np.repeat(np.arange(len(size)), size)
    return owner, np.arange(len(owner)) + (first + size - np.cumsum(size))[owner]


def contours(mesh, axis, count):
    """Marching-triangles isolines of (axis . vertex) on a triangle mesh.

    Levels are uniformly spaced strictly inside the projection range
    (endpoints would yield degenerate contours).  A triangle is crossed
    at a level when min < level <= max over its vertex projections, and
    its two cut sides, in side order (corners 0-1, 1-2, 2-0), make a
    segment.  Each cut edge is cut once per level, from its lower to its
    higher vertex index.  Chains go level by level: open polylines first,
    each from its lower-id end, then cycles from their lowest edge id,
    leaving it by the lower-index triangle's segment and ending on a
    bitwise copy of the first point.  DomainError: count is not an integer
    >= 1 or is too large for one array, the axis is not three numbers, or
    the levels are not finite (a vertex or the axis is not finite, or the
    projection range passes the float range).
    SchemaError: the vertices are not a non-empty (k, 3) array, a crossed
    triangle repeats a vertex, or a cut edge is in more than two triangles.
    """
    if not isinstance(count, (int, float, np.integer, np.floating)) or not count >= 1 or count % 1:
        raise DomainError("count must be an integer >= 1")
    try:
        steps = np.arange(1, count + 1)
    except ValueError:  # numpy refuses the size before allocating
        raise DomainError("count is too large for one array of levels") from None
    axis = np.asarray(axis)
    if axis.shape != (3,) or axis.dtype.kind not in "biuf":
        raise DomainError("axis must be three numbers")
    if mesh.vertices.shape[1:] != (3,) or not len(mesh.vertices):
        raise SchemaError("contours need a non-empty (k, 3) vertex array")
    with np.errstate(over="ignore", invalid="ignore"):
        proj = mesh.vertices @ axis
        lo, hi = proj.min(), proj.max()
        levels = lo + (hi - lo) * steps / (count + 1)
    if not np.all(np.isfinite(levels)):
        raise DomainError("contour levels are not finite: a vertex or the axis is not finite, "
                          "or the projection range passes the float range")

    # step[v] levels lie at or below vertex v: v is below level k exactly when step[v] <= k
    step = np.searchsorted(levels, proj, side="right")
    # crossed (triangle, level) pairs in segment order: by level, then by triangle
    tri_step = np.take(step, mesh.triangles.T)  # C order: fast reductions over axis 0
    lower = tri_step.min(axis=0)
    tri, lev = _runs(lower, tri_step.max(axis=0) - lower)
    order = np.argsort(lev * len(lower) + tri)
    corners, lev = mesh.triangles[tri[order]], lev[order]
    below = step[corners] <= lev[:, None]
    side = np.nonzero(below != below[:, [1, 2, 0]])[1]
    seg = np.arange(len(side)) // 2
    a, b = corners[seg, side], corners[seg, (side + 1) % 3]
    nv = len(mesh.vertices)
    cut, edge = np.unique(np.minimum(a, b) * nv + np.maximum(a, b), return_inverse=True)

    # one node per (cut edge, level), numbered by edge id, then by level
    a, b = np.divmod(cut, nv)
    first = np.minimum(step[a], step[b])
    size = np.maximum(step[a], step[b]) - first
    tail = (np.cumsum(size) - size - first)[edge] + lev[seg]
    if np.any(tail[::2] == tail[1::2]):
        raise SchemaError("a crossed triangle repeats a vertex")
    owner, node_lev = _runs(first, size)
    a, b = a[owner], b[owner]
    t = (levels[node_lev] - proj[a]) / (proj[b] - proj[a])
    start = mesh.vertices[a]
    points = start + t[:, None] * (mesh.vertices[b] - start)
    nodes = len(points)
    deg = np.bincount(tail, minlength=nodes)[tail]
    if deg.max(initial=0) > 2:
        raise SchemaError("an edge cut by a level is in more than two triangles")

    # arc h runs along segment h // 2 from node tail[h] to node tail[h ^ 1]; its
    # successor leaves that node by the other segment, or turns back at a chain end,
    # so an open chain and its reverse make one ring of arcs, a closed chain two
    arc = np.arange(len(tail))
    partner = np.bincount(tail, arc, nodes).astype(np.intp)[tail] - arc * (deg - 1)
    succ = partner[arc ^ 1]
    # ring key: chain ends before inner nodes, then node id; + 1 off the lower segment
    key = 2 * (tail + nodes * (deg == 2)) + (arc > partner)
    # pointer doubling: min over the next 2**r arcs of key * 2**rounds + distance,
    # until the window wraps the longest ring
    rounds = int(2 * np.bincount(lev).max(initial=0)).bit_length()
    best = key << rounds
    for r in range(rounds):
        best = np.minimum(best, best[succ] + (1 << r))
        succ = succ[succ]
    ring, ahead = np.divmod(best, 1 << rounds)
    length = np.bincount(ring)[ring]
    pos = (length - ahead) % length
    closed = ring >= 2 * nodes
    # keep the arcs leaving the start: the lower end of an open chain, the lower
    # segment at a cycle's lowest node
    keep = np.flatnonzero((ring % 2 == 0) & (closed | (2 * pos < length)))
    ring, pos, span = ring[keep], pos[keep], np.where(closed, length, length // 2)[keep]
    # chains by level, then open before closed, then start node, end to end
    starts = np.flatnonzero(pos == 0)
    starts = starts[np.lexsort((ring[starts], lev[keep[starts] // 2]))]
    stop = np.cumsum(span[starts] + 1)
    base = np.empty(4 * nodes, np.intp)
    base[ring[starts]] = stop - span[starts] - 1
    at = base[ring] + pos
    seq = np.empty(len(keep) + len(starts), np.intp)
    seq[at + 1] = tail[keep ^ 1]  # heads; all but each chain's last are tails too
    seq[at] = tail[keep]
    return ContourSet(axis, levels, np.split(points[seq], stop)[:-1])


def dirichlet_energy(mesh):
    """Uniform-weight discrete Dirichlet energy: sum over edges of |du|^2."""
    e = mesh.edges()
    d = mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]]
    return float((d * d).sum())


def harmonic_fill(mesh):
    """Discrete 'soap film' on a mesh's connectivity, boundary fixed.

    The vertices listed in mesh.boundary keep their positions (for a
    mesh_patch result, the boundary curve samples) and every other
    vertex is solved to be the average of its neighbors (conjugate
    gradients on the SPD interior system, per coordinate).  The length
    scale of the tolerances is the boundary's bounding-box diagonal.  A
    mesh without interior vertices is returned unchanged.  SchemaError:
    no boundary table, or a boundary index that is not a vertex index.
    """
    if mesh.boundary is None or len(mesh.boundary.index) == 0:
        raise SchemaError("harmonic_fill needs a mesh with a boundary table")
    nv = len(mesh.vertices)
    pos = mesh.vertices.copy()
    boundary = np.zeros(nv, dtype=bool)
    boundary[vertex_indices(mesh.boundary.index, nv, "boundary")] = True

    interior = np.nonzero(~boundary)[0]
    scale = float(np.linalg.norm(np.ptp(pos[boundary], axis=0)))

    # graph Laplacian rows for interior vertices: deg*x_v - sum(neighbors)
    u, v = mesh.triangles.ravel(), mesh.triangles[:, [1, 2, 0]].ravel()
    adjacency = sp.csr_matrix((np.ones(2 * u.size), (np.r_[u, v], np.r_[v, u])), shape=(nv, nv))
    adjacency.data[:] = 1.0  # a side shared by two triangles summed to 2
    deg = np.diff(adjacency.indptr).astype(float)
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
