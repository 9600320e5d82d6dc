"""Golden outputs recorded from the loop-based implementation.

`golden.json` holds, for every bundled fixture size n at m in MS:
SHA-256 digests of the domain tessellation (vertex bytes, triangle
array, and the boundary (vertex, side, t) table), sampled `mesh_patch`
vertices, and digests of the OBJ/PLY writers applied to fixed meshes.
Tessellation and writer output must match bit for bit.  Patch vertices
depend on the order of floating-point operations in the evaluator, so
they are compared with an absolute tolerance of PATCH_TOL times the
loop's bounding-box diagonal.

The analysis outputs on every bundled fixture are recorded too:
`curvature_map` scalars (m = 3, 6) within CURVATURE_TOL, sampled
`harmonic_fill` vertices (m = 6, 20) within HARMONIC_TOL times the
bounding-box diagonal, and in `golden_contours.json` the
`contours` polylines (z axis, 5 levels, m = 10, 20), grouped by level.
A level must yield the same polylines up to order and direction (a
closed one may start anywhere), points within CONTOUR_TOL times the
bounding-box diagonal.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import bbox_diagonal, bundled_loop

from npatch import DomainPolygon, make_patch, mesh_patch
from npatch.analysis import ContourSet, contours, curvature_map, harmonic_fill
from npatch.fileio import write_obj, write_ply_scalar
from npatch.fixtures import FIXTURE_DIR
from npatch.mesher import TriMesh, tessellate_domain

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())
CONTOURS = json.loads((Path(__file__).parent / "golden_contours.json").read_text())
MS = (1, 2, 7, 30)
FIXTURES = sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))
# about 450 ulps of the unit length scale
PATCH_TOL = 1e-13
# finite-difference curvature: rounding of the 2nd differences is eps/h^2 ~ 2e-8
CURVATURE_TOL = 1e-6
CONTOUR_TOL = 1e-13
# the solve stops at a relative residual of 1e-14: another BLAS kernel moves the fill by
# at most 5.5e-16 of the diagonal, stopping at 1e-12 instead by up to 7e-13 at m = 20
HARMONIC_TOL = 1e-14


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def writer_cases():
    """(key, text) pairs: writer output on fixed meshes of varied magnitude."""
    rng = np.random.default_rng(20200226)
    verts = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-12, 13, (40, 3))
    verts[:8] = [[0.0, -0.0, 1.0], [0.1, 1e-300, -1e300], [123456789.0, 1.5, -2.5],
                 [1e-9, 1e9, 0.5], [np.pi, -np.e, 2.0 / 3.0], [7.0, -7.0, 1e16],
                 [0.999999999, 0.9999999995, 9.9999999949e-5], [1e-5, 1e-4, 1e15]]
    tris = rng.integers(0, len(verts), (60, 3))
    mesh = TriMesh(verts, tris)
    scalar = rng.standard_normal(40) * 1e3
    polylines = [verts[:5], rng.uniform(-1, 1, (2, 3)), verts[10:30:3]]
    contour_set = ContourSet([0, 0, 1], [0.5], polylines)
    empty = TriMesh(verts[:3], np.zeros((0, 3), dtype=int))
    return [
        ("obj", write_obj(mesh)),
        ("obj_contours", write_obj(mesh, contour_set)),
        ("obj_empty", write_obj(empty, ContourSet([1, 0, 0], [], []))),
        ("ply", write_ply_scalar(mesh, scalar)),
        ("ply_empty", write_ply_scalar(empty, np.array([0.0, -1.0, 2.0]))),
    ]


@pytest.mark.parametrize("m", MS)
@pytest.mark.parametrize("n", sorted({bundled_loop(name).n for name in FIXTURES}))
def test_tessellation_bits(n, m):
    dm = TriMesh(*tessellate_domain(DomainPolygon(n), m)[:3])
    # index, side and edge parameter: boundary[q*m + j] lies on side q at t = j/m
    table = np.column_stack((dm.boundary, np.repeat(np.arange(n), m), np.tile(np.arange(m) / m, n)))
    want = GOLDEN["tessellation"]["%d,%d" % (n, m)]
    assert _sha(np.ascontiguousarray(dm.vertices, dtype="<f8").tobytes()) == want["vertices"]
    assert _sha(np.ascontiguousarray(dm.triangles, dtype="<i8").tobytes()) == want["triangles"]
    assert _sha(np.ascontiguousarray(table, dtype="<f8").tobytes()) == want["boundary"]


@pytest.mark.parametrize("m", MS)
@pytest.mark.parametrize("name", FIXTURES)
def test_patch_vertices(name, m):
    loop = bundled_loop(name)
    want = GOLDEN["patch_samples"]["%s,%d" % (name, m)]
    got = mesh_patch(make_patch(loop), m).vertices[want["index"]]
    err = np.abs(got - np.array(want["vertices"])).max()
    assert err <= PATCH_TOL * bbox_diagonal(loop)


@pytest.mark.parametrize("key", ["obj", "obj_contours", "obj_empty", "ply", "ply_empty"])
def test_writer_bytes(key):
    assert _sha(dict(writer_cases())[key].encode()) == GOLDEN["writers"][key]


@pytest.mark.parametrize("m", (3, 6))
@pytest.mark.parametrize("name", FIXTURES)
def test_curvature_scalars(name, m):
    got = curvature_map(make_patch(bundled_loop(name)), m)[1]
    assert np.abs(got - GOLDEN["curvature"]["%s,%d" % (name, m)]).max() <= CURVATURE_TOL


@pytest.mark.parametrize("m", (6, 20))
@pytest.mark.parametrize("name", FIXTURES)
def test_harmonic_vertices(name, m):
    loop = bundled_loop(name)
    want = GOLDEN["harmonic"]["%s,%d" % (name, m)]
    got = harmonic_fill(mesh_patch(make_patch(loop), m)).vertices[want["index"]]
    err = np.abs(got - np.array(want["vertices"])).max()
    assert err <= HARMONIC_TOL * bbox_diagonal(loop)


def _same_polyline(a, b, tol):
    """a equals b or b reversed; for a closed a, any rotation of b too."""
    if a.shape != b.shape:
        return False
    if np.abs(a[0] - a[-1]).max() <= tol:
        ring = b[:-1]
        candidates = [np.roll(r, -k, axis=0) for r in (ring, ring[::-1]) for k in range(len(ring))]
        candidates = [np.vstack([c, c[:1]]) for c in candidates]
    else:
        candidates = [b, b[::-1]]
    return any(np.abs(a - c).max() <= tol for c in candidates)


@pytest.mark.parametrize("m", (10, 20))
@pytest.mark.parametrize("name", FIXTURES)
def test_contour_polylines(name, m):
    loop = bundled_loop(name)
    want = CONTOURS["%s,%d" % (name, m)]
    cs = contours(mesh_patch(make_patch(loop), m), np.array([0.0, 0.0, 1.0]), 5)
    assert cs.levels == want["levels"]
    got = [[] for _ in cs.levels]
    for poly in cs.polylines:
        got[int(np.abs(np.array(cs.levels) - poly[0, 2]).argmin())].append(poly)
    tol = CONTOUR_TOL * bbox_diagonal(loop)
    for level_got, level_want in zip(got, want["polylines"]):
        assert len(level_got) == len(level_want)
        for w in map(np.array, level_want):
            match = [k for k, g in enumerate(level_got) if _same_polyline(w, g, tol)]
            assert match
            level_got.pop(match[0])
