"""Surface quality analysis and the discrete harmonic baseline."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DomainError, NumericError
from .mesher import TriMesh, mesh_patch, sample_boundary, tessellate_domain
from .surface import Patch

# central-difference step in domain units (circumradius 1): balances
# O(h^2) truncation against double-precision rounding in the 2nd diffs
CURVATURE_STEP = 1e-4


def _as_eval_fn(surface):
    if isinstance(surface, Patch):
        return surface.eval
    return surface


def mean_curvature(surface, p, h=CURVATURE_STEP):
    """Mean curvature at domain point p from the fundamental forms.

    Partial derivatives come from central finite differences of step h.
    `surface` is a Patch or any callable mapping a 2D point to R^3; for
    a Patch, p must keep a 2h margin from the domain boundary.
    """
    p = np.asarray(p, dtype=float)
    if isinstance(surface, Patch):
        if surface.domain.edge_distances(p).min() < 2 * h:
            raise DomainError("point closer than 2h to the domain boundary")
    f = _as_eval_fn(surface)
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    fc = f(p)
    fxp, fxm = f(p + ex), f(p - ex)
    fyp, fym = f(p + ey), f(p - ey)
    su = (fxp - fxm) / (2 * h)
    sv = (fyp - fym) / (2 * h)
    suu = (fxp - 2 * fc + fxm) / (h * h)
    svv = (fyp - 2 * fc + fym) / (h * h)
    suv = (f(p + ex + ey) - f(p + ex - ey) - f(p - ex + ey) + f(p - ex - ey)) / (4 * h * h)

    e = su @ su
    ff = su @ sv
    g = sv @ sv
    normal = np.cross(su, sv)
    nn = np.linalg.norm(normal)
    if nn == 0.0:
        raise NumericError("degenerate tangent plane, cannot evaluate curvature")
    normal /= nn
    l = suu @ normal
    mm = suv @ normal
    nq = svv @ normal
    return float((e * nq - 2 * ff * mm + g * l) / (2 * (e * g - ff * ff)))


def pull_inward(poly, p, margin):
    """Shrink p toward the polygon center until all edge distances >= margin."""
    p = np.asarray(p, dtype=float)
    dots = poly.edge_normals @ p
    limit = 1.0
    for dot in dots:
        if dot > 0:
            limit = min(limit, (poly.apothem - margin) / dot)
    return p * max(limit, 0.0)


def curvature_map(patch, m, h=CURVATURE_STEP):
    """Patch mesh with per-vertex mean curvature as the scalar channel.

    Vertices too close to the domain boundary are sampled at the nearest
    admissible point toward the center.
    """
    dm = tessellate_domain(patch.domain, m)
    mesh = mesh_patch(patch, m)
    scalar = np.empty(len(mesh.vertices))
    margin = 2.5 * h  # strictly above the 2h precondition, rounding-safe
    for v, q in enumerate(dm.vertices):
        scalar[v] = mean_curvature(patch, pull_inward(patch.domain, q, margin), h)
    mesh.scalar = scalar
    return mesh


class ContourSet:
    """Isoline polylines of a mesh sliced by parallel planes."""

    def __init__(self, axis, levels, polylines):
        self.axis = np.asarray(axis, dtype=float)
        self.levels = list(levels)
        self.polylines = polylines  # list of (k, 3) arrays


def _chain_segments(segments):
    """Chain edge-keyed segments into polylines (open paths, then cycles)."""
    adjacency = {}
    for ka, kb, pa, pb in segments:
        adjacency.setdefault(ka, []).append((kb, pa, pb))
        adjacency.setdefault(kb, []).append((ka, pb, pa))
    used = set()
    polylines = []

    def walk(start):
        key = start
        chain = None
        while True:
            nxt = None
            for other, pa, pb in adjacency[key]:
                pair = frozenset((key, other)) if key != other else (key, other)
                if pair in used:
                    continue
                used.add(pair)
                if chain is None:
                    chain = [pa]
                chain.append(pb)
                nxt = other
                break
            if nxt is None:
                return chain
            key = nxt

    endpoints = sorted(
        (k for k, nb in adjacency.items() if len(nb) == 1), key=str
    )
    for k in endpoints:
        chain = walk(k)
        if chain is not None:
            polylines.append(np.array(chain))
    for k in sorted(adjacency, key=str):
        chain = walk(k)
        if chain is not None:
            polylines.append(np.array(chain))
    return polylines


def contours(mesh, axis, count):
    """Marching-triangles isolines of (axis . vertex) on a triangle mesh.

    Levels are uniformly spaced strictly inside the projection range
    (endpoints would yield degenerate contours).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    axis = np.asarray(axis, dtype=float)
    proj = mesh.vertices @ axis
    lo, hi = proj.min(), proj.max()
    levels = [lo + (hi - lo) * (k + 1) / (count + 1) for k in range(count)]

    polylines = []
    for level in levels:
        below = proj < level
        segments = []
        for tri in mesh.triangles:
            crossings = []
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                if below[a] == below[b]:
                    continue
                t = (level - proj[a]) / (proj[b] - proj[a])
                pt = mesh.vertices[a] + t * (mesh.vertices[b] - mesh.vertices[a])
                crossings.append((frozenset((int(a), int(b))), pt))
            if len(crossings) == 2:
                (ka, pa), (kb, pb) = crossings
                segments.append((ka, kb, pa, pb))
        polylines.extend(_chain_segments(segments))
    return ContourSet(axis, levels, polylines)


def dirichlet_energy(mesh):
    """Uniform-weight discrete Dirichlet energy: sum over edges of |du|^2."""
    e = mesh.edges()
    d = mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]]
    return float((d * d).sum())


def harmonic_fill(loop, m, residual_tol=1e-10):
    """Discrete 'soap film': umbrella-Laplacian solve with fixed boundary.

    The domain tessellation provides connectivity; boundary vertices are
    pinned to curve samples and every interior vertex is solved to be
    the average of its neighbors (conjugate gradients on the SPD
    interior system, per coordinate).
    """
    from .domain import DomainPolygon

    dm = tessellate_domain(DomainPolygon(loop.n), m)
    nv = len(dm.vertices)
    pos = np.zeros((nv, 3))
    pos[dm.boundary.index] = sample_boundary(loop, dm.boundary)
    boundary = np.zeros(nv, dtype=bool)
    boundary[dm.boundary.index] = True

    interior = np.nonzero(~boundary)[0]
    scale = loop.bbox_diagonal()

    # graph Laplacian rows for interior vertices: deg*x_v - sum(neighbors)
    edges = dm.edges()
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
    worst = float(np.abs(resid).max())
    if worst > residual_tol * max(scale, 1.0):
        raise NumericError("umbrella residual %.3e above tolerance" % worst)

    return TriMesh(pos, dm.triangles, boundary=dm.boundary)
