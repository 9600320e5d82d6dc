"""Command-line front end.

Side indices are 1-based on the command line (converted at this
boundary).  Exit codes: 0 ok, 1 input (usage too) or OS error, 2 numeric failure (see errors).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis, fileio
from .errors import DomainError, NPatchError, NumericError, SchemaError
from .mesher import mesh_patch
from .surface import make_patch

AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


def _point_str(p):
    return "%.9g %.9g %.9g" % (p[0], p[1], p[2])


def _load(path):
    return fileio.read_loop(Path(path).read_bytes())


def _cmd_check(args):
    loop = _load(args.loop)
    lo, hi = loop.points.min(axis=0), loop.points.max(axis=0)
    print("n=%d" % loop.n)
    print("closure residuals: " + " ".join("%.3g" % g for g in loop.corner_gaps))
    print("bbox min: " + _point_str(lo))
    print("bbox max: " + _point_str(hi))


def _cmd_eval(args):
    loop = _load(args.loop)
    patch = make_patch(loop)
    if args.uv is not None:
        try:
            x, y = (float(v) for v in args.uv.split(","))
        except ValueError:
            raise SchemaError("--uv expects two comma-separated numbers") from None
        point = patch.eval(np.array([x, y]))
    elif args.side is not None and args.t is not None:
        if not 1 <= args.side <= loop.n:
            raise DomainError("side index out of range 1..%d" % loop.n)
        point = patch.eval_boundary(args.side - 1, args.t)
    else:
        raise SchemaError("eval needs either --uv or both --side and --t")
    print(_point_str(point))


def _cmd_mesh(args):
    mesh = mesh_patch(make_patch(_load(args.loop)), args.m)
    Path(args.output).write_bytes(fileio.write_obj(mesh).encode("ascii"))


def _cmd_harmonic(args):
    patch_mesh = mesh_patch(make_patch(_load(args.loop)), args.m)
    harmonic = analysis.harmonic_fill(patch_mesh)
    Path(args.output).write_bytes(fileio.write_obj(harmonic).encode("ascii"))
    print("dirichlet energy harmonic: %.9g" % analysis.dirichlet_energy(harmonic))
    print("dirichlet energy patch: %.9g" % analysis.dirichlet_energy(patch_mesh))


def _cmd_curvature(args):
    mesh, h = analysis.curvature_map(make_patch(_load(args.loop)), args.m)
    Path(args.output).write_bytes(fileio.write_ply_scalar(mesh, h).encode("ascii"))


def _cmd_contours(args):
    mesh = mesh_patch(make_patch(_load(args.loop)), args.m)
    contour_set = analysis.contours(mesh, np.array(AXES[args.axis]), args.count)
    Path(args.output).write_bytes(fileio.write_obj(mesh, contour_set).encode("ascii"))


def _parser():
    parser = argparse.ArgumentParser(
        prog="npatch",
        description="Multi-sided C0 Coons patches from boundary loops.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("loop", help="loop document (JSON)")
        p.set_defaults(fn=fn)
        return p

    add("check", _cmd_check, "validate a loop and print basic stats")

    p = add("eval", _cmd_eval, "evaluate the patch at one point")
    p.add_argument("--side", type=int, help="1-based side index (with --t)")
    p.add_argument("--t", type=float, help="edge parameter in [0,1]")
    p.add_argument("--uv", help="domain point as x,y")

    for name, fn, helptext in (
        ("mesh", _cmd_mesh, "tessellate the patch to an OBJ mesh"),
        ("harmonic", _cmd_harmonic, "harmonic baseline mesh + energy report"),
        ("curvature", _cmd_curvature, "mean-curvature map as scalar PLY"),
        ("contours", _cmd_contours, "mesh plus contour polylines"),
    ):
        p = add(name, fn, helptext)
        p.add_argument("-m", type=int, default=30, help="subdivisions per side")
        p.add_argument("-o", "--output", required=True, help="output file")
        if name == "contours":
            p.add_argument("--axis", choices=sorted(AXES), default="z")
            p.add_argument("--count", type=int, default=10)

    return parser


_PARSER = _parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
        args.fn(args)
        return 0
    except SystemExit as exc:  # argparse's usage error (code 2) is an input error; --help is 0
        return 1 if exc.code else 0
    except NumericError as exc:
        print("numeric error: %s" % exc, file=sys.stderr)
        return 2
    except (NPatchError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
