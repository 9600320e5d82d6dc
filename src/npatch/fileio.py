"""File formats: JSON loop documents in, OBJ and PLY mesh writers.

These three formats are the package's public file contracts; meshes are
only written, never read back.

Loop document (JSON):
    {
      "version": 1,
      "weld_tolerance": 1e-9,            # optional
      "sides": [
        {"degree": 1, "control_points": [[x, y, z], [x, y, z]]},
        ...                              # >= 3 sides, count = degree + 1 <= 1030
      ]
    }

Mesh output is ASCII, one record per line, LF line ends, fields
separated by one space:

    OBJ   v x y z            per vertex
          f i j k            per triangle, 1-based indices
          v x y z ... l i j ...
                             per contour polyline: its vertices, then its
                             `l` element of their 1-based indices
    PLY   header (format ascii 1.0, vertex x y z quality, face list)
          x y z quality      per vertex
          3 i j k            per triangle, 0-based indices

Numbers print as Python's `'%.9g' % x` and `'%d' % i`: 9 significant
digits without trailing zeros or a bare point, in exponent form
(`1e-05`, `-2.5e+300`) outside 1e-4 <= |x| < 1e9 after rounding, and
`-0`, `nan`, `inf`, `-inf` as `%g` spells them.  The writers format whole
arrays at once (see _cells); only nan, inf, nonzero magnitudes outside
[1e-280, 1e280] and the rare value whose ninth digit lies too close to a
rounding tie to decide in float64 go through `%`.
"""

import json
import sys

import numpy as np

from .curves import MAX_DEGREE, BezierCurve
from .errors import DomainError, ParseError, SchemaError, array
from .loop import make_loop
from .mesher import TriMesh


# the 4 decimal digits of each k < 10**4, most significant first: (4, 10**4)
_DIGITS = (np.arange(10**4) // 10 ** np.arange(3, -1, -1)[:, None] % 10).astype(np.uint8)
# "%04d" % k as 4 ASCII bytes in one uint32 word (byte order plays no part:
# the words are only gathered, then viewed as bytes again)
_WORDS = np.ascontiguousarray((_DIGITS + np.uint8(ord("0"))).T).view(np.uint32)[:, 0]
# trailing zeros of "%04d" % k (4 for k = 0)
_TRAILING_ZEROS = np.logical_and.accumulate(_DIGITS[::-1] == 0).sum(axis=0, dtype=np.uint8)
# 10.0**k at row k + 300; off by at most an ulp, which moves a 9-digit
# mantissa by < 1e-7, well inside the 1e-6 tie guard of _float_cells
_POW10 = 10.0 ** np.arange(-300, 301)
# rows of a '%.9g' column: sign, "0.000", the 12 digits of a 9-digit
# mantissa in 4-digit groups (the first 3 always 0), each digit followed by
# a slot for the point, then "e+ddd"
_FLOAT_WIDTH = 35
# values formatted per pass: bounds the temporaries to about a megabyte
# while keeping numpy's per-call cost small
_BLOCK = 32768


def _groups(u, count):
    """(count, len(u)) 4-digit groups of the unsigned ints u, most significant first."""
    groups = np.empty((count, len(u)), np.intp)
    for j in range(count - 1, -1, -1):
        q = u // 10000
        groups[j] = u - q * 10000
        u = q
    return groups


def _ascii(groups):
    """(4 * count, n) ASCII digits of (count, n) 4-digit groups."""
    count, n = groups.shape
    digits = _WORDS[groups].view(np.uint8).reshape(count, n, 4).transpose(0, 2, 1)
    return np.ascontiguousarray(digits).reshape(4 * count, n)


def _char(mask, char):
    """uint8 array: char's ASCII code where mask is True, NUL elsewhere."""
    return mask.view(np.uint8) * np.uint8(ord(char))


def _int_cells(values):
    """(rows, n) uint8: the digits of the values, int64 indices >= 0, without leading zeros."""
    u = values.astype(np.uint64)  # for 10**19, the bound of a 20th digit, past the int64 range
    count = -(-len(str(u.max() if len(u) else 0)) // 4)
    keep = u >= 10 ** np.arange(4 * count - 1, -1, -1, dtype=np.uint64)[:, None]
    keep[-1] = True
    return _ascii(_groups(u, count)) * keep.view(np.uint8)


def _float_cells(values):
    """(_FLOAT_WIDTH, n) uint8 columns of '%.9g' % values, and the mask of
    the values left to Python: nan, inf, nonzero magnitudes outside
    [1e-280, 1e280], and mantissas within 1e-6 of a rounding tie."""
    n = len(values)
    ax = np.abs(values)
    ok = (ax >= 1e-280) & (ax <= 1e280)
    a = np.where(ok, ax, 1.0)
    e = np.floor(np.log10(a)).astype(np.int16)
    y = a * _POW10[308 - e]  # |x| * 10**(8 - e), in [1e8, 1e9]
    # e is off by one only within a few ulps of a power of ten, where the
    # 9-digit mantissa rounds to 1e8 (right) or 1e9 (carried into e)
    mant = np.rint(y)
    slow = (~ok & (ax != 0)) | (np.abs(np.abs(y - mant) - 0.5) < 1e-6)
    carry = mant == 1e9
    e += carry
    groups = _groups((np.where(carry, 1e8, mant) * ok).astype(np.uint32), 3)
    tz = _TRAILING_ZEROS[groups[2]]
    tz += (tz == 4) * _TRAILING_ZEROS[groups[1]]
    tz += (tz == 8) * _TRAILING_ZEROS[groups[0]]  # 12 for a zero mantissa
    sig = 9 - tz.astype(np.int8)  # significant digits
    sci = (e < -4) | (e >= 9)
    whole = np.where(sci, 0, e).astype(np.int8)  # mantissa digit before the point
    zeros = np.where(sci, 0, -e).astype(np.int8)  # below 1: "0." and zeros - 1 more zeros
    cells = np.zeros((_FLOAT_WIDTH, n), np.uint8)
    cells[0] = _char(np.signbit(values), "-")
    cells[1] = _char(zeros > 0, "0")
    cells[2] = _char(zeros > 0, ".")
    cells[3:6] = _char(np.arange(1, 4, dtype=np.int8)[:, None] < zeros, "0")
    # group digit k is mantissa digit k - 3
    keep = np.arange(-3, 9, dtype=np.int8)[:, None] < np.maximum(sig, whole + 1)
    keep[:3] = False
    np.multiply(_ascii(groups), keep.view(np.uint8), out=cells[6:30:2])
    point = np.where(sig > whole + 1, whole, -1)
    cells[13:28:2] = _char(np.arange(8, dtype=np.int8)[:, None] == point, ".")
    i = np.flatnonzero(sci)
    cells[30, i] = ord("e")
    cells[31, i] = np.where(e[i] < 0, ord("-"), ord("+"))
    cells[32:, i] = _ascii(np.abs(e[i])[None])[1:]
    cells[32, i] *= np.abs(e[i]) >= 100
    return cells, slow


def _cells(values):
    """(width, len(values)) uint8, one column per value: the value as
    '%.9g' (floats) or '%d' (ints) prints it, with NUL bytes in between
    (rows that are NUL in every column are left out), then a space."""
    if values.dtype.kind == "f":
        cells, slow = _float_cells(values)
    else:
        cells, slow = _int_cells(values), ()
    for i in np.flatnonzero(slow):
        text = b"%.9g" % values[i]
        cells[:, i] = 0
        cells[:len(text), i] = np.frombuffer(text, np.uint8)
    return np.vstack([cells[cells.any(axis=1)], np.full(len(values), ord(" "), np.uint8)])


def _line_cells(prefix, table):
    """(rows, width) NUL-padded uint8: per row of table, prefix and the
    row's fields (see _cells) separated by spaces, then a newline."""
    rows, cols = table.shape
    values = table.reshape(-1)
    fields = _cells(values).T
    width = fields.shape[1]
    lines = np.empty((rows, len(prefix) + cols * width), np.uint8)
    lines[:, :len(prefix)] = np.frombuffer(prefix.encode(), np.uint8)
    lines[:, len(prefix):].reshape(rows, cols, width)[:] = fields.reshape(rows, cols, width)
    lines[:, -1] = ord("\n")
    return lines


def _text(buf):
    """The bytes of buf without its NUL padding."""
    return buf.tobytes().translate(None, b"\0")


def _lines(prefix, table):
    """_line_cells(prefix, table) as ASCII bytes, formatted _BLOCK values at a time."""
    step = max(1, _BLOCK // table.shape[1])
    return b"".join([_text(_line_cells(prefix, table[i:i + step]))
                     for i in range(0, len(table), step)])


def _table(value, name):
    """value as an (n, 3) array of numbers, one record per row ([] has none); else DomainError."""
    return array(value, name, (0,), (None, 3)).reshape(-1, 3)


def _polyline_text(polylines, base):
    """OBJ records of polylines whose vertices are numbered from base + 1:
    each polyline's `v` lines, then its `l` line (`l ` alone if it is empty)."""
    tables = [_table(p, "contour polyline") for p in polylines]
    points = np.concatenate([np.empty((0, 3))] + tables)
    vertex = _line_cells("v ", points)
    index = _line_cells(" ", base + 1 + np.arange(len(points))[:, None])
    index[:, -1] = 0
    bounds = np.cumsum([0] + [len(p) for p in tables]).tolist()
    return b"".join([_text(vertex[i:j]) + b"l" + (_text(index[i:j]) or b" ") + b"\n"
                     for i, j in zip(bounds, bounds[1:])])


def _is_number(x):
    """A JSON number within the float range, read as the nearest float: not true/false
    (bool), NaN, infinity or an int past the float maximum."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def read_loop(text):
    """Parse and validate a loop document (str, or bytes in a JSON encoding);
    returns a welded BoundaryLoop."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except (ValueError, TypeError, RecursionError) as exc:  # bad bytes, not text, long int, nesting
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
        if type(degree) is not int or not 0 <= degree <= MAX_DEGREE:  # bool is an int subclass
            raise SchemaError("sides[%d].degree: need an integer in 0 .. %d" % (k, MAX_DEGREE))
        if not isinstance(cps, list):
            raise SchemaError("sides[%d].control_points: missing or not a list" % k)
        if len(cps) != degree + 1:
            raise SchemaError("sides[%d].control_points: degree %d needs %d points, got %d"
                              % (k, degree, degree + 1, len(cps)))
        for j, p in enumerate(cps):
            if not (isinstance(p, list) and len(p) == 3
                    and all(_is_number(c) for c in p)):
                raise SchemaError("sides[%d].control_points[%d]: need [x, y, z] of finite numbers"
                                  % (k, j))
        curves.append(BezierCurve(np.array(cps, dtype=float)))  # one float array: ints past int64 too
    tol = doc.get("weld_tolerance")
    if tol is not None and not (_is_number(tol) and tol >= 0):
        raise SchemaError("weld_tolerance: need a finite number >= 0")
    return make_loop(curves, weld_tolerance=tol)


def write_obj(mesh, contour_set=None):
    """OBJ text of a TriMesh with (n, 3) vertices; optional contour polylines, (n, 3)
    arrays, as `l` elements.  DomainError: not a TriMesh, or records of another width."""
    if not isinstance(mesh, TriMesh):
        raise DomainError("write_obj needs a TriMesh, got %s" % type(mesh).__name__)
    vertices = _table(mesh.vertices, "vertices")
    blocks = [_lines("v ", vertices), _lines("f ", mesh.triangles + 1)]
    if contour_set is not None and len(contour_set.polylines):
        blocks.append(_polyline_text(contour_set.polylines, len(vertices)))
    return (b"".join(blocks) or b"\n").decode("ascii")


def write_ply_scalar(mesh, scalar):
    """ASCII PLY of a TriMesh, (n, 3) vertices, and one `quality` scalar per vertex (DomainError)."""
    if not isinstance(mesh, TriMesh):
        raise DomainError("write_ply_scalar needs a TriMesh, got %s" % type(mesh).__name__)
    vertices = _table(mesh.vertices, "vertices")
    scalar = array(scalar, "scalar channel", (len(vertices),))
    header = [
        "ply",
        "format ascii 1.0",
        "element vertex %d" % len(vertices),
        *("property double %s" % name for name in ("x", "y", "z", "quality")),
        "element face %d" % len(mesh.triangles),
        "property list uchar int vertex_indices",
        "end_header",
    ]
    return "\n".join(header) + "\n" + (
        _lines("", np.column_stack([vertices, scalar])) + _lines("3 ", mesh.triangles)
    ).decode("ascii")
