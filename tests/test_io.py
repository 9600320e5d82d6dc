import json
from contextlib import suppress

import numpy as np
import pytest
from conftest import bundled_loop, random_interior_points, scaled_square_doc, write_loop
from hypothesis import given, settings
from hypothesis import strategies as st
from test_writers import reference_obj, reference_ply

from npatch import DomainPolygon, TriMesh, make_patch, mesh_patch
from npatch.analysis import contours, curvature_map
from npatch.errors import ClosureError, DomainError, NPatchError, ParseError, SchemaError
from npatch.fileio import read_loop, write_obj, write_ply_scalar
from npatch.fixtures import FIXTURE_DIR, bundled, random_loop
from npatch.mesher import tessellate_domain

SQUARE_DOC = write_loop(bundled_loop("square"))


def test_read_square_document():
    loop = read_loop(SQUARE_DOC)
    assert loop.n == 4


def test_parse_error_has_position():
    with pytest.raises(ParseError, match="line"):
        read_loop("{not json")


def test_too_few_sides_schema_error():
    doc = json.loads(SQUARE_DOC)
    doc["sides"] = doc["sides"][:2]
    with pytest.raises(SchemaError, match="need >= 3"):
        read_loop(json.dumps(doc))


def test_degree_count_mismatch():
    doc = json.loads(SQUARE_DOC)
    doc["sides"][0]["degree"] = 3
    with pytest.raises(SchemaError, match=r"sides\[0\].control_points"):
        read_loop(json.dumps(doc))


def test_degree_past_the_bound_names_the_side():
    # its binomials pass the float range: the error came only at the first evaluation
    doc = json.loads(SQUARE_DOC)
    a, b = doc["sides"][1]["control_points"]
    doc["sides"][1] = {"degree": 1030, "control_points": np.linspace(a, b, 1031).tolist()}
    with pytest.raises(SchemaError, match=r"sides\[1\]\.degree: need an integer in 0 \.\. 1029"):
        read_loop(json.dumps(doc))


def test_bad_point_shape():
    doc = json.loads(SQUARE_DOC)
    doc["sides"][1]["control_points"][0] = [1, 2]
    with pytest.raises(SchemaError, match=r"sides\[1\]"):
        read_loop(json.dumps(doc))


def test_missing_sides():
    with pytest.raises(SchemaError, match="sides"):
        read_loop("{}")


def test_closure_error_propagates():
    doc = json.loads(SQUARE_DOC)
    doc["sides"][0]["control_points"][0][0] += 0.5
    doc["weld_tolerance"] = 1e-9
    with pytest.raises(ClosureError):
        read_loop(json.dumps(doc))


def _gap_doc(**fields):
    """SQUARE_DOC with a 5-unit gap at corner 1 and the given top-level fields."""
    doc = json.loads(SQUARE_DOC)
    doc["sides"][0]["control_points"][-1][0] += 5.0
    doc.update(fields)
    return json.dumps(doc)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), True, -1e-6])
def test_weld_tolerance_must_be_finite_non_negative(tol):
    with pytest.raises(SchemaError, match="weld_tolerance"):
        read_loop(_gap_doc(weld_tolerance=tol))


@pytest.mark.parametrize("scale, gap, error", [
    (1e200, 1e195, ClosureError),  # the default tolerance stays finite
    (1e308, 0.0, DomainError),     # the bounding-box diagonal is past the float range
])
def test_default_tolerance_for_huge_coordinates(scale, gap, error):
    with pytest.raises(error):
        read_loop(scaled_square_doc(scale, gap))


def test_welding_huge_corners_does_not_overflow():
    loop = read_loop(scaled_square_doc(1e308, weld_tolerance=1e-9))
    assert np.abs(np.vstack([c.control_points for c in loop.sides])).max() == 1e308


@pytest.mark.parametrize("where", ["degree", "coordinate"])
def test_boolean_is_not_a_number(where):
    doc = json.loads(SQUARE_DOC)
    if where == "degree":
        doc["sides"][0]["degree"] = True
    else:
        doc["sides"][0]["control_points"][0][2] = True
    with pytest.raises(SchemaError, match=r"sides\[0\]"):
        read_loop(json.dumps(doc))


@pytest.mark.parametrize("version", [7, 2, "1", True])
def test_unsupported_version(version):
    doc = json.loads(SQUARE_DOC)
    doc["version"] = version
    with pytest.raises(SchemaError, match="version"):
        read_loop(json.dumps(doc))


def test_missing_version_accepted():
    doc = json.loads(SQUARE_DOC)
    del doc["version"]
    assert read_loop(json.dumps(doc)).n == 4


def test_loop_document_roundtrip():
    loop = random_loop(5, 3, np.random.default_rng(90))
    again = read_loop(write_loop(loop))
    for a, b in zip(loop.sides, again.sides):
        assert np.abs(a.control_points - b.control_points).max() <= 1e-15


@settings(max_examples=30)
@given(n=st.integers(3, 16), degree=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_loop_document_roundtrip_on_random_loops(n, degree, seed):
    rng = np.random.default_rng(seed)
    loop = random_loop(n, degree, rng)
    again = read_loop(write_loop(loop))
    for a, b in zip(loop.sides, again.sides, strict=True):
        assert np.array_equal(a.control_points, b.control_points)
    pts = random_interior_points(rng, DomainPolygon(n), 50)
    assert np.array_equal(make_patch(again).eval_many(pts), make_patch(loop).eval_many(pts))


def test_bundled_loops_are_the_canonical_fixture_files():
    # the files are the loops' only source: one added, dropped, or edited out
    # of the text write_loop gives fails here
    loops = bundled()
    assert list(loops) == ["triangle", "square", "pentagon",  # the order perfbench picks by
                           "pocket3a", "pocket3b", "pocket4", "pocket5", "pocket6"]
    assert sorted(loops) == sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))
    for name, loop in loops.items():
        assert write_loop(loop) == (FIXTURE_DIR / (name + ".json")).read_text()


def test_obj_single_triangle():
    mesh = TriMesh(np.eye(3), np.array([[0, 1, 2]]))
    text = write_obj(mesh)
    lines = text.strip().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 3
    assert lines[-1] == "f 1 2 3"


def test_obj_counts_for_small_mesh():
    mesh = TriMesh(*tessellate_domain(DomainPolygon(4), 2))
    mesh3 = TriMesh(np.column_stack([mesh.vertices, np.zeros(len(mesh.vertices))]),
                    mesh.triangles)
    lines = write_obj(mesh3).strip().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 13
    assert sum(1 for l in lines if l.startswith("f ")) == 16


def test_obj_roundtrip():
    loop = random_loop(6, 3, np.random.default_rng(91))
    mesh = mesh_patch(make_patch(loop), 4)
    text = write_obj(mesh)
    assert text == reference_obj(mesh)
    records = np.array([line.split()[1:] for line in text.splitlines()])  # v x y z, f i j k
    vertices, triangles = records[:len(mesh.vertices)].astype(float), records[len(mesh.vertices):]
    assert np.abs(vertices - mesh.vertices).max() <= 1e-7 * np.abs(mesh.vertices).max()
    assert np.array_equal(triangles.astype(int) - 1, mesh.triangles)


def test_obj_contours_appended():
    mesh = mesh_patch(make_patch(bundled_loop("pentagon")), 6)
    cs = contours(mesh, np.array([0.0, 0, 1.0]), 3)
    text = write_obj(mesh, cs)
    lines = text.strip().splitlines()
    assert sum(1 for l in lines if l.startswith("l ")) == len(cs.polylines)
    # empty contour set adds nothing
    cs = cs._replace(polylines=[])
    assert "l " not in write_obj(mesh, cs)


def test_ply_requires_scalar():
    mesh = TriMesh(np.eye(3), np.array([[0, 1, 2]]))
    with pytest.raises(DomainError):
        write_ply_scalar(mesh, None)
    with pytest.raises(DomainError):
        write_ply_scalar(mesh, np.zeros(2))


def test_ply_roundtrip_zeros():
    mesh = TriMesh(np.eye(3), np.array([[0, 1, 2]]))
    text = write_ply_scalar(mesh, np.zeros(3))
    assert text == reference_ply(mesh, np.zeros(3))
    assert text.endswith("end_header\n1 0 0 0\n0 1 0 0\n0 0 1 0\n3 0 1 2\n")


def test_ply_roundtrip_random_mesh():
    rng = np.random.default_rng(92)
    mesh = TriMesh(rng.normal(size=(10, 3)), np.array([[0, 1, 2], [3, 4, 5]]))
    scalar = rng.normal(size=10)
    text = write_ply_scalar(mesh, scalar)
    assert text == reference_ply(mesh, scalar)
    records = np.array([line.split() for line in text.splitlines()[10:20]], float)  # x y z quality
    assert np.abs(records - np.column_stack([mesh.vertices, scalar])).max() <= 1e-7
    # the printed values print as themselves
    again = TriMesh(records[:, :3], mesh.triangles)
    assert write_ply_scalar(again, records[:, 3]) == text


def test_curvature_ply_planar_loop():
    from npatch import BezierCurve, make_loop

    flat = make_loop([
        BezierCurve(c.control_points * [1, 1, 0]) for c in bundled_loop("pentagon").sides
    ])
    mesh, h = curvature_map(make_patch(flat), 3)
    assert np.abs(h).max() <= 1e-6
    assert write_ply_scalar(mesh, h) == reference_ply(mesh, h)


def test_deterministic_output():
    loop = bundled_loop("pentagon")
    a = write_obj(mesh_patch(make_patch(loop), 5))
    b = write_obj(mesh_patch(make_patch(loop), 5))
    assert a == b


@pytest.mark.parametrize("field, path", [
    (r"sides\[1\].control_points\[0\]", ("sides", 1, "control_points", 0, 2)),
    ("weld_tolerance", ("weld_tolerance",)),
], ids=["coordinate", "weld_tolerance"])
def test_integer_beyond_float_range(field, path):
    doc = json.loads(SQUARE_DOC)
    doc["weld_tolerance"] = 1e-9
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = 10**400
    with pytest.raises(SchemaError, match=field):
        read_loop(json.dumps(doc))


@pytest.mark.parametrize("value", [2**63, 10**20, -10**20])
def test_integer_past_int64_reads_as_its_float(value):
    # up to the float maximum a JSON integer is a number, read as its nearest float, past the
    # int64 range too
    doc = json.loads(SQUARE_DOC)
    doc["sides"][0]["control_points"][-1][2] = value  # corner 0, on sides 0 and 1
    doc["sides"][1]["control_points"][0][2] = value
    loop = read_loop(json.dumps(doc))
    assert loop.sides[0].control_points[-1, 2] == loop.sides[1].control_points[0, 2] == float(value)


@pytest.mark.parametrize("text", [
    "[" * 100_000,  # nested past the parser's recursion limit
    '{"version": 1%s}' % ("0" * 5000),  # integer literal over Python's digit limit
    b'{"version": 1, "sides": "\xe9"}',  # Latin-1 bytes, not UTF-8
    None,  # not text: json.loads raised a plain TypeError
], ids=["deep_nesting", "long_integer", "latin1_bytes", "not_text"])
def test_unreadable_json_is_parse_error(text):
    with pytest.raises(ParseError):
        read_loop(text)


def _paths(node, path=()):
    """Every key/index path into a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


LOOP_DOCS = [dict(json.loads(write_loop(loop)), weld_tolerance=1e-9)
             for loop in (bundled_loop("square"), bundled_loop("pentagon"))]
SPECIAL_VALUES = [10**400, -10**400, float("nan"), float("inf"), True, None, "1"]
JSON_VALUES = st.one_of(
    st.sampled_from(SPECIAL_VALUES + [2**63, float("-inf"), False, "", -1, 0, 1e308,
                                      [], {}, [0, 0], [[0, 0, 0]]]),
    st.integers(), st.floats(), st.text(max_size=4),
)


DELETE = object()


def _replace(doc, path, value):
    """A copy of doc with the node at path set to value (removed for DELETE)."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def test_read_loop_special_value_in_every_field():
    for doc in LOOP_DOCS:
        for path in _paths(doc):
            for value in SPECIAL_VALUES:
                with suppress(NPatchError):
                    read_loop(json.dumps(_replace(doc, path, value)))


@settings(max_examples=300)
@given(data=st.data(), base=st.sampled_from(range(len(LOOP_DOCS))),
       count=st.integers(1, 3))
def test_read_loop_mutations_raise_only_npatch_error(data, base, count):
    doc = LOOP_DOCS[base]
    for _ in range(count):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        doc = _replace(doc, path, data.draw(st.one_of(st.just(DELETE), JSON_VALUES)))
    with suppress(NPatchError):
        read_loop(json.dumps(doc))


@settings(max_examples=200)
@given(raw=st.one_of(st.text(), st.binary()))
def test_read_loop_arbitrary_input_raises_only_npatch_error(raw):
    with suppress(NPatchError):
        read_loop(raw)
