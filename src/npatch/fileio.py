"""File formats: JSON loop documents, OBJ and PLY mesh writers/readers.

These three formats are the package's public file contracts.

Loop document (JSON):
    {
      "version": 1,
      "weld_tolerance": 1e-9,            # optional
      "sides": [
        {"degree": 1, "control_points": [[x, y, z], [x, y, z]]},
        ...                              # >= 3 sides, count = degree + 1
      ]
    }

OBJ output: `v x y z` lines (9 significant digits), `f` lines with
1-based indices, contour polylines appended as `l` elements with their
own vertices.  PLY output: ASCII, per-vertex double property `quality`.
"""

import json
import sys

import numpy as np

from .curves import BezierCurve
from .errors import ParseError, SchemaError
from .loop import make_loop
from .mesher import TriMesh


def _records(template, rows):
    """One `template % row` line per row, newline-joined, formatted in one call."""
    rows = np.asarray(rows)
    return "\n".join([template] * len(rows)) % tuple(rows.ravel().tolist())


def _join(blocks):
    return "\n".join(block for block in blocks if block) + "\n"


def _is_number(x):
    """A JSON number within the float range: not true/false (bool), NaN,
    infinity or an int too large for a float."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def read_loop(text):
    """Parse and validate a loop document (str, or bytes in a JSON encoding);
    returns a welded BoundaryLoop."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # bad bytes, over-long int, deep nesting
        raise ParseError("unreadable JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    version = doc.get("version", 1)
    if version != 1 or isinstance(version, bool):
        raise SchemaError("version: only version 1 is supported, got %r" % (version,))
    sides = doc.get("sides")
    if not isinstance(sides, list):
        raise SchemaError("sides: missing or not a list")
    if len(sides) < 3:
        raise SchemaError("sides: need >= 3, got %d" % len(sides))
    curves = []
    for k, side in enumerate(sides):
        if not isinstance(side, dict):
            raise SchemaError("sides[%d]: must be an object" % k)
        degree = side.get("degree")
        cps = side.get("control_points")
        if type(degree) is not int or degree < 0:  # bool is an int subclass
            raise SchemaError("sides[%d].degree: need a non-negative integer" % k)
        if not isinstance(cps, list):
            raise SchemaError("sides[%d].control_points: missing or not a list" % k)
        if len(cps) != degree + 1:
            raise SchemaError(
                "sides[%d].control_points: degree %d needs %d points, got %d"
                % (k, degree, degree + 1, len(cps))
            )
        for j, p in enumerate(cps):
            if not (isinstance(p, list) and len(p) == 3
                    and all(_is_number(c) for c in p)):
                raise SchemaError(
                    "sides[%d].control_points[%d]: need [x, y, z] of finite numbers" % (k, j)
                )
        curves.append(BezierCurve(cps))
    tol = doc.get("weld_tolerance")
    if tol is not None and not (_is_number(tol) and tol >= 0):
        raise SchemaError("weld_tolerance: need a finite number >= 0")
    return make_loop(curves, weld_tolerance=tol)


def write_loop(loop):
    """Serialize a BoundaryLoop back to document text."""
    doc = {
        "version": 1,
        "sides": [
            {"degree": c.degree, "control_points": c.control_points.tolist()}
            for c in loop.sides
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_obj(mesh, contour_set=None):
    """Indexed-mesh OBJ text; optional contour polylines as `l` elements."""
    blocks = [_records("v %.9g %.9g %.9g", mesh.vertices),
              _records("f %d %d %d", mesh.triangles + 1)]
    if contour_set is not None:
        base = len(mesh.vertices)
        for poly in contour_set.polylines:
            blocks.append(_records("v %.9g %.9g %.9g", poly))
            blocks.append("l " + " ".join(map(str, range(base + 1, base + len(poly) + 1))))
            base += len(poly)
    return _join(blocks)


def read_obj(text):
    """Minimal OBJ reader for round-trip checks (v and f records only)."""
    verts, tris = [], []
    for ln, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if parts[:1] not in (["v"], ["f"]):
            continue
        kind = "vertex" if parts[0] == "v" else "face"
        if len(parts) != 4:
            raise ParseError("bad %s record" % kind, line=ln)
        try:
            if kind == "vertex":
                verts.append([float(x) for x in parts[1:]])
                continue
            face = [int(x.split("/")[0]) for x in parts[1:]]
        except ValueError:
            raise ParseError("non-numeric field in %s record" % kind, line=ln) from None
        if not all(1 <= k <= len(verts) for k in face):
            raise ParseError("face index out of range 1..%d" % len(verts), line=ln)
        tris.append([k - 1 for k in face])
    return TriMesh(np.array(verts), np.array(tris, dtype=int).reshape(-1, 3))


def write_ply_scalar(mesh):
    """ASCII PLY with a per-vertex `quality` scalar."""
    if mesh.scalar is None or len(mesh.scalar) != len(mesh.vertices):
        raise SchemaError("mesh needs a scalar channel with one value per vertex")
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
        _records("%.9g %.9g %.9g %.9g", np.column_stack([mesh.vertices, mesh.scalar])),
        _records("3 %d %d %d", mesh.triangles),
    ])


def read_ply_scalar(text):
    """Reader for the PLY flavor produced by write_ply_scalar."""
    lines = text.splitlines()
    if not lines or lines[0] != "ply":
        raise ParseError("not a PLY file", line=1)
    if "end_header" not in lines:
        raise ParseError("malformed PLY header")
    body = lines.index("end_header") + 1
    try:
        counts = {p[1]: int(p[2]) for p in map(str.split, lines[:body]) if p[:1] == ["element"]}
        nv, nf = counts["vertex"], counts["face"]
        if min(nv, nf) < 0:
            raise ParseError("negative PLY element count")
        records = lines[body:body + nv + nf]
        if len(records) < nv + nf:
            raise ParseError("truncated PLY body: %d of %d records" % (len(records), nv + nf))
        verts = np.array([[float(x) for x in r.split()] for r in records[:nv]]).reshape(nv, 4)
        tris = np.array([[int(x) for x in r.split()[1:]] for r in records[nv:]],
                        dtype=int).reshape(nf, 3)
    except (IndexError, KeyError, OverflowError, ValueError) as exc:
        raise ParseError("malformed PLY: %s %s" % (type(exc).__name__, exc)) from None
    if np.any((tris < 0) | (tris >= nv)):
        raise ParseError("face index out of range 0..%d" % (nv - 1))
    return TriMesh(verts[:, :3], tris, scalar=verts[:, 3])
