"""The OBJ and PLY writers against a reference writer.

`reference_obj` and `reference_ply` format every record with a Python
`%` template (`%.9g` for coordinates and scalars, `%d` for indices), one
field at a time.  The package writers must produce the same bytes, and
their field formatter must print every float as `'%.9g' % x` and every
index, an int64 >= 0, as `'%d' % i`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npatch import make_patch, mesh_patch
from npatch.analysis import ContourSet, contours, curvature_map
from npatch.errors import DomainError
from npatch.fileio import _lines, read_loop, write_obj, write_ply_scalar
from npatch.fixtures import FIXTURE_DIR
from npatch.mesher import TriMesh

FIXTURES = sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))


def _records(template, rows):
    rows = np.asarray(rows)
    return "\n".join([template] * len(rows)) % tuple(rows.ravel().tolist())


def _join(blocks):
    return "\n".join(block for block in blocks if block) + "\n"


def reference_obj(mesh, contour_set=None):
    blocks = [_records("v %.9g %.9g %.9g", mesh.vertices),
              _records("f %d %d %d", mesh.triangles + 1)]
    if contour_set is not None:
        base = len(mesh.vertices)
        for poly in contour_set.polylines:
            blocks.append(_records("v %.9g %.9g %.9g", poly))
            blocks.append("l " + " ".join(map(str, range(base + 1, base + len(poly) + 1))))
            base += len(poly)
    return _join(blocks)


def reference_ply(mesh, scalar):
    header = [
        "ply",
        "format ascii 1.0",
        "element vertex %d" % len(mesh.vertices),
        "property double x",
        "property double y",
        "property double z",
        "property double quality",
        "element face %d" % len(mesh.triangles),
        "property list uchar int vertex_indices",
        "end_header",
    ]
    return _join(header + [
        _records("%.9g %.9g %.9g %.9g", np.column_stack([mesh.vertices, scalar])),
        _records("3 %d %d %d", mesh.triangles),
    ])


@pytest.mark.parametrize("m", (1, 2, 7, 30))
@pytest.mark.parametrize("name", FIXTURES)
def test_writers_match_reference_on_fixtures(name, m):
    patch = make_patch(read_loop((FIXTURE_DIR / (name + ".json")).read_bytes()))
    mesh = mesh_patch(patch, m)
    assert write_obj(mesh).encode() == reference_obj(mesh).encode()
    contour_set = contours(mesh, np.array([0.3, 0.5, 0.8]), 5)
    assert write_obj(mesh, contour_set).encode() == reference_obj(mesh, contour_set).encode()
    scalar_mesh, h = curvature_map(patch, m)
    assert write_ply_scalar(scalar_mesh, h).encode() == reference_ply(scalar_mesh, h).encode()


def test_empty_arrays_match_reference():
    mesh = TriMesh(np.eye(3), [[0, 1, 2]])
    polylines = [np.zeros((0, 3)), np.ones((2, 3)), []]
    contour_set = ContourSet([0, 0, 1], [0.5], polylines)
    assert write_obj(mesh, contour_set) == reference_obj(mesh, contour_set)
    empty = TriMesh(np.empty((0, 3)), np.empty((0, 3), int))
    assert write_obj(empty) == reference_obj(empty) == "\n"
    assert write_ply_scalar(empty, np.zeros(0)) == reference_ply(empty, np.zeros(0))


# quad faces are refused by TriMesh itself (test_errors' "quad face table")
@pytest.mark.parametrize("case", ["planar vertices", "planar polyline"])
def test_writers_reject_records_of_other_widths(case):
    mesh = TriMesh(np.zeros((4, 2 if case == "planar vertices" else 3)), [[0, 1, 2]])
    contour_set = ContourSet([0, 0, 1], [0.5], [np.zeros((3, 2 if case == "planar polyline" else 3))])
    with pytest.raises(DomainError):
        write_obj(mesh, contour_set)
    if case != "planar polyline":
        with pytest.raises(DomainError):
            write_ply_scalar(mesh, np.zeros(4))


def _fields(values, dtype):
    """The formatter's text of each value, as the writers print a field."""
    return _lines("", np.array(values, dtype=dtype)[:, None]).decode("ascii").split("\n")[:-1]


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300,
                  1e-5, 9.9999999949e-5, 1e-4, 999999999.4, 999999999.5, 1e9,
                  0.5, 1.5, -2.5, 123456788.5, 0.1, 1.0 / 3.0, 2.0 ** -1074,
                  float("nan"), float("inf"), float("-inf")]
HALFWAY_FLOATS = [(k + 0.5) * 10.0 ** -j for j in range(13)
                  for k in (0, 1, 12, 9999, 12345678, 99999999, 123456789, 999999999, 4294967295)]
SPECIAL_INTS = [0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 2**63 - 1]


def _random_floats():
    rng = np.random.default_rng(20200226)
    bits = rng.integers(0, 2**63, 20000, dtype=np.int64) * rng.choice([-1, 1], 20000)
    decimals = rng.integers(10**8, 10**11, 20000) * 10.0 ** rng.integers(-30, 30, 20000)
    powers = 10.0 ** rng.integers(-300, 300, 5000)
    return np.concatenate([bits.view(float), decimals, powers,
                           np.nextafter(powers, 0), np.nextafter(powers, np.inf)])


@pytest.mark.parametrize("values", [SPECIAL_FLOATS, HALFWAY_FLOATS, _random_floats()],
                         ids=["special", "halfway", "random"])
def test_float_fields_print_as_percent_g(values):
    assert _fields(values, float) == ["%.9g" % x for x in np.asarray(values).tolist()]


# the writers format ints only from index tables: int64 values >= 0
def test_int_fields_print_as_percent_d():
    assert _fields(SPECIAL_INTS, np.int64) == ["%d" % i for i in SPECIAL_INTS]
    # the limits of an index, alone and with neighbours (a short span of
    # values that ends at the maximum, as index tables have)
    high = np.iinfo(np.int64).max
    for values in ([high], [high - 1, high], [high, high, high - 2], [0], [0, 1], [0, high],
                   list(range(256))):
        assert _fields(values, np.int64) == ["%d" % i for i in values], values


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40))
def test_any_float_field_prints_as_percent_g(values):
    assert _fields(values, float) == ["%.9g" % x for x in values]


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2**63 - 1), max_size=40))
def test_any_int_field_prints_as_percent_d(values):
    assert _fields(values, np.int64) == ["%d" % i for i in values]
