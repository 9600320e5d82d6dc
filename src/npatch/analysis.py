"""Surface quality analysis and the discrete harmonic baseline."""

import math
from collections import namedtuple

import numpy as np

from .errors import SIZE_BUDGET, DomainError, NumericError, array, integer, overflow, real
from .mesher import TriMesh, mesh_patch
from .surface import Patch

# central-difference step in domain units (circumradius 1): balances
# O(h^2) truncation against double-precision rounding in the 2nd diffs
CURVATURE_STEP = 1e-4
# 9-point stencil offsets in units of h: center, +-x, +-y, then the diagonals
STENCIL = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1],
                    [1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
# largest umbrella residual harmonic_fill accepts, relative to the boundary's bbox diagonal
UMBRELLA_TOL = 1e-10
# the harmonic solve's smoothed-aggregation V-cycle (Vanek, Mandel & Brezina 1996) solves levels
# of at most COARSE_SIZE unknowns densely and weighs its prolongator smoothing and Jacobi sweeps
# OMEGA / rho, rho the Rayleigh quotient of D^-1 A after POWER_STEPS power steps from a fixed
# start (0.8 to 0.97 of its spectral radius on patch meshes: each weight stays below 2 / radius)
COARSE_SIZE, OMEGA, POWER_STEPS = 300, 4 / 3, 10


def mean_curvature(surface, p, h=CURVATURE_STEP):
    """Mean curvature at domain point p, or at each row of a (k, 2) array.

    Partial derivatives come from central finite differences of step h
    on a 9-point stencil, and H from the fundamental forms row by row.
    `surface` is a Patch or a callable mapping a (k, 2) array of domain
    points to (k, 3) points, called once on the whole (9k, 2) stencil.
    Each stencil is divided by a power of two near its values, which keeps
    every bit and the products in range, and H is scaled back.
    DomainError: p is not a point or rows of numbers, h is not a finite
    number whose square is at least the smallest normal float (2**-1022),
    (for a Patch) a point lies within 2h of the domain boundary, the values
    are not (9k, 3) numbers, or H overflows the float range.
    """
    p = array(p, "p", (2,), (None, 2))
    h = real(h, "step h", 2.0**-511)  # h * h does not underflow
    stencil = (np.atleast_2d(p)[:, None] + h * STENCIL).reshape(-1, 2)
    if isinstance(surface, Patch):
        if surface.domain.edge_distances_many(p.reshape(-1, 2)).min(initial=np.inf) < 2 * h:
            raise DomainError("point closer than 2h to the domain boundary")
        surface = surface.eval_many
    f = array(surface(stencil), "surface values", (len(stencil), 3)).astype(float, copy=False)
    f = f.reshape(-1, 9, 3)
    unit = np.frexp(np.abs(f).max(axis=(1, 2)))[1]
    fc, fxp, fxm, fyp, fym, fpp, fpm, fmp, fmm = np.ldexp(f, -unit[:, None, None]).transpose(1, 0, 2)
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
    with overflow("mean curvature"):  # H ~ 1 / size: a loop of subnormal size
        h_mean = np.ldexp((e * nq - 2 * ff * mm + g * l) / (2 * det), -unit)
    return float(h_mean[0]) if p.ndim == 1 else h_mean


def _pull_inward(poly, p, margin):
    """Shrink p (a point or rows of a (k, 2) array) toward the polygon
    center until all its edge distances are >= margin."""
    p = np.asarray(p, dtype=float)
    dots = (p[..., None, :] * poly.edge_normals).sum(axis=-1)  # same bits alone or in a batch
    limit = np.divide(poly.apothem - margin, dots, out=np.ones_like(dots), where=dots > 0)
    return p * np.clip(limit.min(axis=-1), 0.0, 1.0)[..., None]


def curvature_map(patch, m):
    """(mesh, H): the patch mesh and the mean curvature at each of its k vertices, shape (k,);
    a vertex nearer the domain boundary than 2.5 h is sampled 2.5 h in, toward the center."""
    mesh = mesh_patch(patch, m)
    # margin strictly above the 2h precondition, rounding-safe
    points = _pull_inward(patch.domain, mesh.domain, 2.5 * CURVATURE_STEP)
    return mesh, mean_curvature(patch, points)


ContourSet = namedtuple("ContourSet", "axis levels polylines")
ContourSet.__doc__ = """Isoline polylines of a mesh sliced by parallel planes: the axis,
the list of levels and a list of (k, 3) polylines."""


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
    bitwise copy of the first point.  DomainError: count is not a Python
    or numpy integer in 1 .. errors.SIZE_BUDGET, the axis is not three
    numbers, the mesh is not a TriMesh with non-empty (k, 3) vertices, the
    levels are not finite (a vertex or the axis is not finite, or the
    projection range passes the float range), a crossed triangle repeats a
    vertex, or a cut edge is in more than two triangles.
    """
    count = integer(count, "contour count", 1, SIZE_BUDGET)
    steps = np.arange(1, count + 1)
    axis = array(axis, "axis", (3,))
    if not isinstance(mesh, TriMesh) or mesh.vertices.shape[1:] != (3,) or not len(mesh.vertices):
        raise DomainError("contours need a TriMesh with a non-empty (k, 3) vertex array")
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
        raise DomainError("a crossed triangle repeats a vertex")
    owner, node_lev = _runs(first, size)
    a, b = a[owner], b[owner]
    t = (levels[node_lev] - proj[a]) / (proj[b] - proj[a])
    start = mesh.vertices[a]
    points = start + t[:, None] * (mesh.vertices[b] - start)
    nodes = len(points)
    deg = np.bincount(tail, minlength=nodes)[tail]
    if deg.max(initial=0) > 2:
        raise DomainError("an edge cut by a level is in more than two triangles")

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
    return ContourSet(axis.astype(float), list(levels), np.split(points[seq], stop)[:-1])


def dirichlet_energy(mesh):
    """Uniform-weight discrete Dirichlet energy: sum over edges of |du|^2.  DomainError: not
    a TriMesh, a vertex is not finite, or the energy overflows the float range."""
    if not isinstance(mesh, TriMesh):
        raise DomainError("dirichlet_energy needs a TriMesh, got %s" % type(mesh).__name__)
    if not np.all(np.isfinite(mesh.vertices)):
        raise DomainError("Dirichlet energy of a vertex that is not finite")
    e = mesh.edges()
    with overflow("Dirichlet energy"):
        d = mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]]
        return float((d * d).sum())


def _aggregates(a):
    """Aggregate of each row of a (all hold their diagonal): stars around a Luby independent set."""
    first, cols = a.indptr[:-1], a.indices
    prio = np.arange(len(first)) * 2654435761 % 2**32  # fixed, distinct: odd factor mod 2**32
    root, free = np.zeros(len(first), dtype=bool), np.ones(len(first), dtype=bool)
    while free.any():  # a free row above its free neighbors is a root, and they are taken
        new = free & (np.maximum.reduceat(np.where(free, prio, -1)[cols], first) == prio)
        root |= new
        free &= ~np.maximum.reduceat(new[cols], first)
    # the set is maximal; every other row joins its neighbor root of largest index
    return np.maximum.reduceat(np.where(root, np.cumsum(root) - 1, -1)[cols], first)


def _v_cycle(a):
    """Symmetric smoothed-aggregation V-cycle for the sparse SPD matrix a, on (k, d) residuals: per
    level a damped-Jacobi sweep, the Galerkin correction through the Jacobi-smoothed prolongator
    and a second sweep.  None for a zero row, a level that does not halve or a singular coarsest."""
    import scipy.sparse as sp
    levels = []
    while a.shape[0] > COARSE_SIZE:
        diag = a.diagonal()
        if not diag.all() or 2 * ((agg := _aggregates(a)).max() + 1) > len(agg):
            return None
        x = np.cos(np.arange(len(diag)))
        for _ in range(POWER_STEPS):
            x = a @ x / diag
        weight = OMEGA * (x @ (diag * x)) / (x @ (a @ x)) / diag
        tentative = sp.csr_matrix((np.ones(len(agg)), agg, np.arange(len(agg) + 1)))
        p = a @ tentative
        p.data *= np.repeat(weight, np.diff(p.indptr))
        p = tentative - p
        levels.append((a, weight[:, None], p, p.T.tocsr()))
        a = levels[-1][3] @ (a @ p)
    try:  # the coarsest solve is L^-T (L^-1 r) for a = L L^T: symmetric positive definite
        inverse = np.linalg.inv(np.linalg.cholesky(a.toarray()))
    except np.linalg.LinAlgError:
        return None
    def cycle(r):
        down = []
        for a, weight, p, restrict in levels:
            down.append((r, weight * r))
            r = restrict @ (r - a @ down[-1][1])
        x = inverse.T @ (inverse @ r)
        for (a, weight, p, _), (r, x0) in zip(levels[::-1], down[::-1]):
            x = x0 + p @ x
            x += weight * (r - a @ x)
        return x
    return cycle


def _cg(a, b, x, rtol, atol, maxiter, precond):
    """Conjugate gradients (Hestenes & Stiefel 1952) for a @ x = b on (k, d) blocks, step for
    step scipy.sparse.linalg.cg's arithmetic (inner products by np.dot of the raveled blocks):
    (x, 0) once the residual norm is below max(atol, rtol |b|), (x, maxiter) if it is not
    within maxiter steps, (b, 0) for b = 0.  precond(r) applies the preconditioner, or None."""
    norm = np.linalg.norm(b)
    if norm == 0:
        return b, 0
    atol, r, rho = max(atol, rtol * norm), b - a @ x if x.any() else b, None
    for _ in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = r if precond is None else precond(r)
        rho_prev, rho = rho, np.dot(r.ravel(), z.ravel())
        p = z if rho_prev is None else p * (rho / rho_prev) + z
        q = a @ p
        alpha = rho / np.dot(p.ravel(), q.ravel())
        x, r = x + alpha * p, r - alpha * q
    return x, maxiter


def harmonic_fill(mesh):
    """Discrete 'soap film' on a mesh's connectivity, boundary fixed.

    The vertices listed in mesh.boundary keep their positions (for a mesh_patch result, the
    boundary curve samples) and every other vertex is made the average of its neighbors.  A
    coordinate constant on the boundary (0.0 == -0.0) is its own fill: the interior copies the
    lowest-numbered boundary vertex's value bit for bit.  The free coordinates are one conjugate-
    gradient solve, preconditioned by a smoothed-aggregation V-cycle where one can be built,
    until one residual norm over them is within 1e-14 of the right-hand side's or of the
    boundary's bounding-box diagonal.  It runs in unit, the power of two at or below that
    length, about origin, the multiple of unit nearest the bbox centre: a loop scaled by 2**k
    fills to the scaled result bit for bit, and a translated one in its own frame, not on
    rounding at the size of the offset.  A mesh without interior vertices is returned as is.
    DomainError: not a TriMesh (whose construction checked the boundary), no boundary, or a
    boundary that is not finite or spans more than the float range.  NumericError: an interior
    vertex without neighbors (itself aside), or a solve that does not converge or fails the
    umbrella check.
    """
    if not isinstance(mesh, TriMesh):
        raise DomainError("harmonic_fill needs a TriMesh, got %s" % type(mesh).__name__)
    if mesh.boundary is None or not mesh.boundary.size:
        raise DomainError("harmonic_fill needs a mesh with a boundary")
    nv = len(mesh.vertices)
    boundary = np.zeros(nv, dtype=bool)
    boundary[mesh.boundary] = True
    interior = np.nonzero(~boundary)[0]
    fixed = mesh.vertices[boundary]
    lo, hi = fixed.min(axis=0), fixed.max(axis=0)
    if not math.isfinite(scale := math.dist(hi, lo)):  # the tolerances' length; NaN too
        raise DomainError("mesh boundary is not finite or spans more than the float range")
    filled, free = mesh.vertices.copy(), lo != hi
    filled[np.ix_(interior, ~free)] = fixed[0, ~free]  # a constant coordinate is its own fill
    u, v = mesh.edges().T
    links = np.bincount(np.r_[u, v], np.tile(u != v, 2), nv)  # neighbors, a loop (v, v) aside
    if (alone := interior[links[interior] == 0]).size:  # nothing to average
        raise NumericError("interior vertex %d has no neighbors" % alone[0])
    if not (free.any() and interior.size):
        return TriMesh(filled, mesh.triangles, boundary=mesh.boundary)
    # a power of two unit <= scale keeps every bit, and no square below passes the float range;
    # origin keeps an offset's rounding out of the solve (+0.0 where 0: x - +0.0 keeps a -0.0)
    unit = math.ldexp(1.0, math.frexp(scale)[1] - 1)
    origin = np.round((hi[free] / 2 + lo[free] / 2) / unit) * unit + 0.0
    pos = (filled[:, free] - origin) / unit
    tol_scale = scale / unit  # the tolerances' length, in those units

    import scipy.sparse as sp  # here, not at the top: 0.15 s of import no other command needs
    # graph Laplacian rows for interior vertices: deg*x_v - sum(neighbors)
    adjacency = sp.csr_matrix((np.ones(2 * u.size), (np.r_[u, v], np.r_[v, u])), shape=(nv, nv))
    deg = adjacency.sum(axis=1).A1  # row sums: a loop (v, v) counts 2, as in the neighbor sum
    a_mat = (sp.diags(deg) - adjacency).tocsr()[interior][:, interior]
    rhs = adjacency[interior][:, boundary] @ pos[boundary]

    x, info = _cg(a_mat, rhs, np.tile(np.mean(pos[boundary], axis=0), (len(interior), 1)),
                  rtol=1e-14, atol=1e-14 * tol_scale, maxiter=10 * len(interior),
                  precond=_v_cycle(a_mat))
    if info != 0:
        res = np.linalg.norm(a_mat @ x - rhs) * unit
        raise NumericError("harmonic solve did not converge (residual %.3e)" % res)
    pos[interior] = x

    # verify the umbrella condition directly
    nb_sum = adjacency @ pos
    resid = pos[interior] - nb_sum[interior] / deg[interior, None]
    worst = float(np.abs(resid).max(initial=0.0))
    if not worst <= UMBRELLA_TOL * tol_scale:  # NaN too
        raise NumericError("umbrella residual %.3e above tolerance" % (worst * unit))

    filled[np.ix_(interior, free)] = pos[interior] * unit - (0.0 - origin)  # x + origin, keeps -0.0
    return TriMesh(filled, mesh.triangles, boundary=mesh.boundary)
