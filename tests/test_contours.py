"""`contours` against the per-level reference it replaced.

`reference_contours` and `_reference_chains` are the edge-table
implementation: per level, cut every crossed edge of the mesh's sorted
edge table once, pair each crossed triangle's two cut sides, and walk
the segment graph node by node.  The package's `contours` must give the
same levels and bit-equal polylines in the same order, so that
`write_obj` prints the same bytes.
"""

import numpy as np
import pytest
from conftest import bundled_loop
from hypothesis import given, settings
from hypothesis import strategies as st

from npatch import make_patch, mesh_patch
from npatch.analysis import ContourSet, contours
from npatch.errors import DomainError
from npatch.fileio import write_obj
from npatch.fixtures import FIXTURE_DIR, random_loop
from npatch.mesher import TriMesh

FIXTURES = sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))


def _reference_chains(segments, size):
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


def reference_contours(mesh, axis, count):
    """Per-level marching triangles over the mesh's edge table."""
    if count < 1:
        raise DomainError("count must be >= 1")
    axis = np.asarray(axis, dtype=float)
    proj = mesh.vertices @ axis
    lo, hi = proj.min(), proj.max()
    levels = [lo + (hi - lo) * (k + 1) / (count + 1) for k in range(count)]

    nv = len(mesh.vertices)
    a, b = mesh.triangles.T, mesh.triangles[:, [1, 2, 0]].T
    keys, ids = np.unique(np.minimum(a, b) * nv + np.maximum(a, b), return_inverse=True)
    edges, tri_edges = np.column_stack(np.divmod(keys, nv)), ids.reshape(3, -1).T
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
        polylines.extend(points[chain] for chain in _reference_chains(segments, len(edges)))
    return ContourSet(axis, levels, polylines)


def assert_same_contours(mesh, axis, count):
    got, want = contours(mesh, axis, count), reference_contours(mesh, axis, count)
    assert got.levels == want.levels
    assert len(got.polylines) == len(want.polylines)
    for g, w in zip(got.polylines, want.polylines):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert write_obj(mesh, got).encode() == write_obj(mesh, want).encode()


def _axis(kind, rng):
    return np.eye(3)[kind] if kind < 3 else rng.standard_normal(3)


@settings(max_examples=60)
@given(n=st.integers(3, 12), degree=st.integers(1, 5), m=st.integers(1, 50),
       count=st.integers(1, 15), axis=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_contours_match_reference_on_random_loops(n, degree, m, count, axis, seed):
    rng = np.random.default_rng(seed)
    mesh = mesh_patch(make_patch(random_loop(n, degree, rng)), m)
    assert_same_contours(mesh, _axis(axis, rng), count)


@pytest.mark.parametrize("axis", range(4))
@pytest.mark.parametrize("name", FIXTURES)
def test_contours_match_reference_on_fixtures(name, axis):
    # planar fixtures on axis-aligned axes put whole rows of vertices on a level
    loop = bundled_loop(name)
    rng = np.random.default_rng(axis)
    for m, count in ((1, 3), (8, 7), (24, 10)):
        assert_same_contours(mesh_patch(make_patch(loop), m), _axis(axis, rng), count)


CLOSED = {
    # every edge shared by two triangles: each level is one or more cycles
    "pillow": ([[0.0, 0, 0], [1, 0, 0.5], [0, 1, 1]], [[0, 1, 2], [1, 0, 2]]),
    "tetrahedron": ([[0.0, 0, 0], [1, 0, 0.2], [0, 1, 0.4], [0.3, 0.3, 1]],
                    [[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]]),
    "octahedron": ([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                   [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
                    [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]]),
}


@pytest.mark.parametrize("axis", range(4))
@pytest.mark.parametrize("name", sorted(CLOSED))
def test_contours_match_reference_on_closed_meshes(name, axis):
    mesh = TriMesh(*CLOSED[name])
    for count in (1, 2, 5):
        assert_same_contours(mesh, _axis(axis, np.random.default_rng(axis)), count)


def test_narrow_numpy_count_contours_like_an_int():
    # the count is kept as a Python int: np.int8(127) + 1 overflowed to -128
    mesh = mesh_patch(make_patch(bundled_loop("square")), 6)
    want, got = contours(mesh, [1, 0, 0], 127), contours(mesh, [1, 0, 0], np.int8(127))
    assert got.levels == want.levels and len(got.polylines) == len(want.polylines) > 0
    assert all(np.array_equal(g, w) for g, w in zip(got.polylines, want.polylines))
