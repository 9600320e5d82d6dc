import json
from pathlib import Path

import numpy as np
import pytest
from conftest import loop_doc, scaled_doc, scaled_square_doc

from npatch import make_patch, mesh_patch
from npatch.analysis import contours, curvature_map, harmonic_fill
from npatch.cli import main
from npatch.fileio import read_loop, write_loop, write_obj, write_ply_scalar
from npatch.fixtures import pentagon_loop, square_loop, triangle_loop


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(write_loop(square_loop()))
    return str(path)


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.json"
    path.write_text(write_loop(pentagon_loop()))
    return str(path)


def test_check(square_file, capsys):
    assert main(["check", square_file]) == 0
    out = capsys.readouterr().out
    assert "n=4" in out
    assert "closure residuals: 0 0 0 0" in out


def test_check_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/loop.json"]) == 1
    assert capsys.readouterr().err.count("\n") == 1


def test_check_closure_error(tmp_path, capsys):
    doc = json.loads(write_loop(square_loop()))
    doc["sides"][2]["control_points"][0][1] += 0.1
    doc["weld_tolerance"] = 1e-9
    path = tmp_path / "open.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("scale, gap", [(1e200, 1e195), (1e308, 0.0)])
def test_check_huge_coordinates(tmp_path, capsys, scale, gap):
    path = tmp_path / "huge.json"
    path.write_text(scaled_square_doc(scale, gap))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_mesh_huge_square_names_the_overflow(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(scaled_square_doc(1e308, weld_tolerance=1e-9))
    assert main(["mesh", str(path), "-m", "2", "-o", str(tmp_path / "out.obj")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "overflows the float range" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("fixture", [triangle_loop, square_loop])
def test_mesh_near_the_float_range_names_the_overflow(tmp_path, capsys, fixture):
    path = tmp_path / "huge.json"
    path.write_text(scaled_doc(fixture(), 0.9e308, weld_tolerance=1e-9))
    assert main(["mesh", str(path), "-m", "2", "-o", str(tmp_path / "out.obj")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "overflows the float range" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("field, value", [("weld_tolerance", -1e-6), ("version", 7)])
def test_check_invalid_document_field(tmp_path, capsys, field, value):
    doc = json.loads(write_loop(square_loop()))
    doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: %s" % field)


def test_eval_edge_midpoint(square_file, capsys):
    assert main(["eval", square_file, "--side", "1", "--t", "0.5"]) == 0
    got = np.array([float(x) for x in capsys.readouterr().out.split()])
    expected = square_loop().side(0).eval(0.5)
    assert np.abs(got - expected).max() <= 1e-8


def test_eval_uv(square_file, capsys):
    assert main(["eval", square_file, "--uv", "0,0"]) == 0
    got = np.array([float(x) for x in capsys.readouterr().out.split()])
    assert np.abs(got - [0.5, 0.5, 0]).max() <= 1e-8


def test_eval_bad_side(square_file, capsys):
    assert main(["eval", square_file, "--side", "9", "--t", "0.5"]) == 1


def test_eval_missing_flags(square_file, capsys):
    assert main(["eval", square_file]) == 1


@pytest.mark.parametrize("uv", ["1", "a,b", "1,2,3"])
def test_eval_uv_not_two_numbers(square_file, capsys, uv):
    assert main(["eval", square_file, "--uv", uv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --uv expects two comma-separated numbers\n"


@pytest.mark.parametrize("argv", [
    ["--uv", "nan,0"], ["--uv", "0,inf"], ["--side", "1", "--t", "nan"],
])
def test_eval_non_finite_input(square_file, capsys, argv):
    assert main(["eval", square_file] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["mesh", "-m", "0"], ["harmonic", "-m", "-1"], ["curvature", "-m", "0"],
    ["contours", "-m", "0"], ["contours", "--count", "0"],
])
def test_resolution_and_count_at_least_one(square_file, tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([argv[0], square_file] + argv[1:] + ["-o", str(out)]) == 1
    assert ">= 1" in capsys.readouterr().err
    assert not out.exists()


def _library_mesh(path, m):
    """The mesh the CLI's `mesh` command writes for the loop document at path."""
    return mesh_patch(make_patch(read_loop(Path(path).read_bytes())), m)


def test_mesh(square_file, tmp_path, capsys):
    out = tmp_path / "mesh.obj"
    assert main(["mesh", square_file, "-m", "4", "-o", str(out)]) == 0
    mesh = _library_mesh(square_file, 4)
    assert len(mesh.triangles) == 4 * 16
    assert out.read_bytes() == write_obj(mesh).encode()


def test_harmonic_prints_energies(pentagon_file, tmp_path, capsys):
    out = tmp_path / "harm.obj"
    assert main(["harmonic", pentagon_file, "-m", "6", "-o", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    e_h = float(lines[0].split(":")[1])
    e_p = float(lines[1].split(":")[1])
    assert e_h <= e_p
    assert out.exists()


def test_curvature(pentagon_file, tmp_path):
    out = tmp_path / "curv.ply"
    assert main(["curvature", pentagon_file, "-m", "4", "-o", str(out)]) == 0
    mesh = curvature_map(make_patch(read_loop(Path(pentagon_file).read_bytes())), 4)
    assert np.all(np.isfinite(mesh.scalar))
    assert out.read_bytes() == write_ply_scalar(mesh).encode()


def test_contours(pentagon_file, tmp_path):
    out = tmp_path / "cont.obj"
    assert main(["contours", pentagon_file, "-m", "8", "--axis", "z",
                 "--count", "4", "-o", str(out)]) == 0
    text = out.read_text()
    assert any(l.startswith("l ") for l in text.splitlines())


def test_outputs_deterministic(pentagon_file, tmp_path):
    a = tmp_path / "a.obj"
    b = tmp_path / "b.obj"
    main(["mesh", pentagon_file, "-m", "6", "-o", str(a)])
    main(["mesh", pentagon_file, "-m", "6", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["mesh", "harmonic", "curvature", "contours"])
def test_output_file_holds_the_writer_bytes(pentagon_file, tmp_path, command):
    out = tmp_path / "out"
    assert main([command, pentagon_file, "-m", "5", "-o", str(out)]) == 0
    patch = make_patch(read_loop(Path(pentagon_file).read_bytes()))
    mesh = mesh_patch(patch, 5)
    text = {
        "mesh": lambda: write_obj(mesh),
        "harmonic": lambda: write_obj(harmonic_fill(mesh)),
        "curvature": lambda: write_ply_scalar(curvature_map(patch, 5)),
        "contours": lambda: write_obj(mesh, contours(mesh, np.array([0.0, 0.0, 1.0]), 10)),
    }[command]()
    assert out.read_bytes() == text.encode()


def test_triangle_fixture_roundtrip(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(write_loop(triangle_loop()))
    assert main(["check", str(path)]) == 0


def test_bundled_fixture_files():
    from npatch.fixtures import FIXTURE_DIR

    names = sorted(p.name for p in FIXTURE_DIR.glob("*.json"))
    assert names == ["pentagon.json", "pocket3a.json", "pocket3b.json",
                     "pocket4.json", "pocket5.json", "pocket6.json",
                     "square.json", "triangle.json"]
    assert main(["check", str(FIXTURE_DIR / "pocket6.json")]) == 0


@pytest.mark.parametrize("case", [
    "directory input", "non-UTF-8 input", "integer beyond float range", "directory output",
])
def test_os_and_decoding_errors_exit_1(square_file, tmp_path, capsys, case):
    doc = json.loads(write_loop(square_loop()))
    doc["sides"][1]["control_points"][0][2] = 10**400
    path = tmp_path / "loop.json"
    path.write_bytes({
        "non-UTF-8 input": b'{"version": 1, "sides": "\xe9"}',
        "integer beyond float range": json.dumps(doc).encode(),
    }.get(case, b""))
    argv = {
        "directory input": ["check", str(tmp_path)],
        "non-UTF-8 input": ["check", str(path)],
        "integer beyond float range": ["check", str(path)],
        "directory output": ["mesh", square_file, "-m", "2", "-o", str(tmp_path)],
    }[case]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


def test_numeric_error_exits_2(pentagon_file, tmp_path, capsys, monkeypatch):
    from npatch import analysis
    from npatch.errors import NumericError

    def fail(mesh):
        raise NumericError("no convergence")

    monkeypatch.setattr(analysis, "harmonic_fill", fail)
    out = tmp_path / "harm.obj"
    assert main(["harmonic", pentagon_file, "-m", "4", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "numeric error: no convergence\n"
    assert not out.exists()


def test_curvature_of_a_point_exits_2(tmp_path, capsys):
    # every control point at one place: the patch is that point, with no tangent plane
    doc = {"version": 1, "sides": [{"degree": 1, "control_points": [[1, 2, 3]] * 2}] * 3}
    path = tmp_path / "point.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "curv.ply"
    assert main(["curvature", str(path), "-m", "4", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric error: degenerate tangent plane, cannot evaluate curvature\n"
    assert not out.exists()


def test_coincident_corners_mesh_but_have_no_curvature(tmp_path, capsys):
    # corner 1 on corner 3: each side runs back along a neighbor, and the patch folds
    # flat at the center, where su x sv rounds to nonzero but e g - f^2 to zero
    path = tmp_path / "fold.json"
    path.write_text(loop_doc([[1, 1, 0], [0, 0, 0]], [[0, 0, 0], [1, 1, 0]],
                             [[1, 1, 0], [2, 0, 0]], [[2, 0, 0], [1, 1, 0]]))
    out = tmp_path / "out"
    assert main(["mesh", str(path), "-m", "8", "-o", str(out)]) == 0
    mesh = _library_mesh(path, 8)
    assert np.all(np.isfinite(mesh.vertices))
    assert out.read_bytes() == write_obj(mesh).encode()
    out.unlink()
    assert main(["curvature", str(path), "-m", "6", "-o", str(out)]) == 2
    assert "degenerate tangent plane" in capsys.readouterr().err
    assert not out.exists()
