"""Output checks for benchmark jobs, against the reference evaluator.

Every check raises CheckFailed with a one-line reason; the workload
runner counts that job as failed and carries on.

Tolerances.  OBJ and PLY files print 9 significant digits, so a printed
coordinate is off by at most 5e-9 of the largest magnitude in the file;
file checks allow TOL_PRINT times max(1, largest |coordinate|).  On top
of that the package and the reference may differ by TOL_EVAL times the
loop's length scale (max(1, bounding-box diagonal)); the package skips
side terms whose weight is below 5e-11, which this covers.
"""

import numpy as np

import reference

TOL_PRINT = 3e-8
TOL_EVAL = 1e-9
# |H| allowed on a planar loop (loops here span about 2 units)
TOL_PLANAR_H = 1e-6
INTERIOR_SAMPLES = 32


class CheckFailed(Exception):
    """A job's output disagrees with the reference or breaks an invariant."""


def _numbers(rows, width, what):
    flat = " ".join(rows).split()
    if len(flat) != width * len(rows):
        raise CheckFailed("%s records do not hold %d numbers each" % (what, width))
    return flat


def parse_obj(text):
    """Vertices (k, 3), 0-based triangles (f, 3) and polyline index arrays."""
    v, f, lines = [], [], []
    for line in text.splitlines():
        tag = line[:2]
        if tag == "v ":
            v.append(line[2:])
        elif tag == "f ":
            f.append(line[2:])
        elif tag == "l ":
            lines.append(line[2:])
        elif line.strip():
            raise CheckFailed("unexpected OBJ record %r" % line[:20])
    verts = np.array(_numbers(v, 3, "v"), dtype=float).reshape(-1, 3)
    faces = np.array(_numbers(f, 3, "f"), dtype=np.int64).reshape(-1, 3) - 1
    polylines = [np.array(s.split(), dtype=np.int64) - 1 for s in lines]
    return verts, faces, polylines


def parse_ply(text):
    """Vertices (k, 3), per-vertex scalar (k,) and triangle count."""
    lines = text.splitlines()
    try:
        end = lines.index("end_header")
    except ValueError:
        raise CheckFailed("PLY without end_header") from None
    counts = {}
    for line in lines[:end]:
        parts = line.split()
        if parts[:1] == ["element"] and len(parts) == 3:
            counts[parts[1]] = int(parts[2])
    nv, nf = counts.get("vertex"), counts.get("face")
    if nv is None or nf is None or len(lines) != end + 1 + nv + nf:
        raise CheckFailed("PLY header counts do not match its body")
    body = np.array(_numbers(lines[end + 1:end + 1 + nv], 4, "PLY vertex"),
                    dtype=float).reshape(-1, 4)
    return body[:, :3], body[:, 3], nf


def tolerance(verts, length_scale):
    top = float(np.abs(verts).max()) if verts.size else 0.0
    return TOL_PRINT * max(1.0, top) + TOL_EVAL * length_scale


def _check_ring_mesh(sides, m, verts, nf):
    """Ring-mesh counts and boundary vertices on the sides; returns the tolerance.

    verts are the mesh's vertices in file order (ring layout, see
    reference.ring_points, the last ring being the boundary); nf is its
    triangle count.
    """
    n = len(sides)
    nv = 1 + n * m * (m + 1) // 2
    if len(verts) != nv or nf != n * m * m:
        raise CheckFailed("mesh has %d vertices / %d triangles, expected %d / %d"
                          % (len(verts), nf, nv, n * m * m))
    if not np.all(np.isfinite(verts)):
        raise CheckFailed("non-finite vertex")
    tol = tolerance(verts, reference.scale(sides))
    k = np.arange(m)
    for i in range(n):
        want = reference.bernstein(sides[i], k / m)
        err = np.abs(verts[nv - n * m + i * m + k] - want).max()
        if err > tol:
            raise CheckFailed("boundary vertex off side %d by %.3e (tol %.1e)"
                              % (i + 1, err, tol))
    return tol


def check_patch_mesh(sides, m, verts, nf, rng):
    """As _check_ring_mesh, plus sampled interior vertices on the patch."""
    tol = _check_ring_mesh(sides, m, verts, nf)
    n = len(sides)
    base = len(verts) - n * m
    pick = rng.choice(base, size=min(base, INTERIOR_SAMPLES), replace=False)
    want = reference.patch(sides, reference.ring_points(n, m, pick))
    err = np.abs(verts[pick] - want).max()
    if err > tol:
        raise CheckFailed("interior vertex off the reference by %.3e (tol %.1e)"
                          % (err, tol))


def check_mesh_obj(sides, m, text, rng):
    verts, faces, polylines = parse_obj(text)
    if polylines:
        raise CheckFailed("mesh OBJ carries polylines")
    if faces.size and (faces.min() < 0 or faces.max() >= len(verts)):
        raise CheckFailed("face index out of range")
    check_patch_mesh(sides, m, verts, len(faces), rng)
    return len(verts)


def _energy(verts, edges):
    d = verts[edges[:, 0]] - verts[edges[:, 1]]
    return float((d * d).sum())


def _printed(stdout, label):
    for line in stdout.splitlines():
        if line.startswith(label):
            return float(line[len(label):])
    raise CheckFailed("stdout lacks %r" % label)


def check_harmonic(sides, m, text, stdout):
    """Umbrella residual from the OBJ, and the printed energy pair."""
    verts, faces, _ = parse_obj(text)
    tol = _check_ring_mesh(sides, m, verts, len(faces))
    e = np.sort(np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1)
    edges, uses = np.unique(e, axis=0, return_counts=True)
    boundary = np.zeros(len(verts), dtype=bool)
    boundary[edges[uses == 1].ravel()] = True
    nb = np.zeros_like(verts)
    np.add.at(nb, edges[:, 0], verts[edges[:, 1]])
    np.add.at(nb, edges[:, 1], verts[edges[:, 0]])
    deg = np.bincount(edges.ravel(), minlength=len(verts))
    inner = ~boundary
    resid = float(np.abs(verts[inner] - nb[inner] / deg[inner, None]).max())
    if resid > tol:
        raise CheckFailed("umbrella residual %.3e above %.1e" % (resid, tol))
    e_h = _printed(stdout, "dirichlet energy harmonic:")
    e_p = _printed(stdout, "dirichlet energy patch:")
    if not e_h <= e_p:
        raise CheckFailed("harmonic energy %.9g above patch energy %.9g" % (e_h, e_p))
    recomputed = _energy(verts, edges)
    if abs(recomputed - e_h) > 1e-6 * max(e_h, 1e-300):
        raise CheckFailed("printed harmonic energy %.9g, OBJ gives %.9g" % (e_h, recomputed))
    return len(verts)


def check_contours(sides, m, count, text, rng):
    """Mesh part as for `mesh`; each polyline on one of the level planes (axis z)."""
    verts, faces, polylines = parse_obj(text)
    n = len(sides)
    nv = 1 + n * m * (m + 1) // 2
    mesh = verts[:nv]
    check_patch_mesh(sides, m, mesh, len(faces), rng)
    z = mesh[:, 2]
    lo, hi = z.min(), z.max()
    levels = lo + (hi - lo) * np.arange(1, count + 1) / (count + 1)
    tol = tolerance(verts, reference.scale(sides))
    for poly in polylines:
        if len(poly) < 2 or poly.min() < nv or poly.max() >= len(verts):
            raise CheckFailed("polyline with bad vertex indices")
        pz = verts[poly, 2]
        off = np.abs(levels - pz.mean()).min()
        if pz.max() - pz.min() > tol or off > tol:
            raise CheckFailed("polyline leaves its level plane (spread %.2e, off %.2e)"
                              % (pz.max() - pz.min(), off))
    return len(verts)


def check_curvature(sides, m, text, planar, rng):
    verts, h, nf = parse_ply(text)
    check_patch_mesh(sides, m, verts, nf, rng)
    if not np.all(np.isfinite(h)):
        raise CheckFailed("non-finite curvature")
    if planar and np.abs(h).max() > TOL_PLANAR_H:
        raise CheckFailed("planar loop with |H| = %.2e" % np.abs(h).max())
    return len(verts)


def point_errors(got, want, length_scale):
    """Mask of single-point API results off the reference (NaN counts as off)."""
    err = np.abs(np.asarray(got, dtype=float) - want).max(axis=-1)
    return ~(err <= TOL_EVAL * length_scale)
