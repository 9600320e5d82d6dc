"""Mutation gate: every listed one-line defect must fail tier-1.

Each mutant names a file under src/npatch, an exact text in it, the text
that replaces it, and the tier-1 test expected to kill it.  The runner
copies src/, tests/, pyproject.toml and README.md (test_readme runs its
examples) to a temporary directory once and checks that tier-1 passes
there.  Then, for each mutant, it writes the mutated file, runs the
expected test with `pytest -x` and, only if that passes, the whole of
tier-1 with `-x`, and restores the file.  It fails when a mutant survives
tier-1, when its expected test does not kill it, when its old text is not
found exactly once, or when pytest cannot run (a collection or usage
error).  The checkout itself is never written.

pytest does not collect this file (its name does not start with test_).
Run it from anywhere:

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

Mutant = namedtuple("Mutant", "name file old new killer")

MUTANTS = [
    Mutant("weights x (1 + 1e-12)", "surface.py",
           "c *= 0.5 * c[0]", "c *= 0.5 * c[0] * (1 + 1e-12)",
           "tests/test_acceptance.py::test_criterion_1_boundary_interpolation"),
    Mutant("Wachspress sum x (1 + 1e-13)", "domain.py",
           "total = num.sum(axis=1, keepdims=True)\n",
           "total = num.sum(axis=1, keepdims=True) * (1 + 1e-13)\n",
           "tests/test_acceptance.py::test_criterion_1_boundary_interpolation"),
    Mutant("d x (1 - 1e-13)", "domain.py",
           "d = np.maximum(1.0 - den, 0.0)\n",
           "d = np.maximum(1.0 - den, 0.0) * (1 - 1e-13)\n",
           "tests/test_acceptance.py::test_criterion_1_boundary_interpolation"),
    Mutant("domain points not checked for finiteness", "domain.py",
           "        if not np.isfinite(points).all():\n"
           "            raise DomainError(\"domain point is not finite\")\n", "",
           "tests/test_surface.py::test_points_that_are_not_finite_are_refused"),
    Mutant("domain points not checked for the inside", "domain.py",
           "        if (d < -EPS_GEOM).any():\n"
           "            raise DomainError(\"point outside the domain polygon\")\n", "",
           "tests/test_surface.py::test_snap_band_of_the_domain_edges"),
    Mutant("corner-chord parameter x (1 + 1e-13)", "surface.py",
           "u = np.linspace(0.0, 1.0, degree + 1)[:, None, None]\n",
           "u = np.linspace(0.0, 1.0, degree + 1)[:, None, None] * (1 + 1e-13)\n",
           "tests/test_acceptance.py::test_criterion_1_boundary_interpolation"),
    Mutant("elevation weights x (1 + 1e-12)", "curves.py",
           "a = (np.arange(1, d + 1) / (d + 1))",
           "a = (np.arange(1, d + 1) / (d + 1) * (1 + 1e-12))",
           "tests/test_acceptance.py::test_criterion_1_boundary_interpolation"),
    Mutant("opposite tangents x (1 + 1e-9)", "loop.py",
           "start = degree * (points[first + step] - points[first]) / 3.0\n",
           "start = degree * (points[first + step] - points[first]) / 3.0 * (1 + 1e-9)\n",
           "tests/test_acceptance.py::test_criterion_5_n4_coons_oracle"),
    Mutant("no boundary snap", "mesher.py",
           "    pts[boundary] = np.concatenate([c.eval_many(np.arange(m) / m)"
           " for c in patch.loop.sides])\n", "",
           "tests/test_acceptance.py::test_criterion_10_mesh_integrity"),
    Mutant("welding without averaging", "loop.py",
           "corners = 0.5 * ends + 0.5 * starts", "corners = ends",
           "tests/test_loop.py::test_welding_averages_perturbed_corners"),
    Mutant("pull-in margin 2.5h -> 2.6h", "analysis.py",
           "2.5 * CURVATURE_STEP)", "2.6 * CURVATURE_STEP)",
           "tests/test_golden.py::test_curvature_scalars"),
    Mutant("CURVATURE_STEP 1e-4 -> 1.05e-4", "analysis.py",
           "CURVATURE_STEP = 1e-4\n", "CURVATURE_STEP = 1.05e-4\n",
           "tests/test_golden.py::test_curvature_scalars"),
    Mutant("CG tolerances 1e-14 -> 1e-12", "analysis.py",
           "rtol=1e-14, atol=1e-14 * tol_scale", "rtol=1e-12, atol=1e-12 * tol_scale",
           "tests/test_golden.py::test_harmonic_vertices"),
    Mutant("contour t x (1 + 1e-12)", "analysis.py",
           "t = (levels[node_lev] - proj[a]) / (proj[b] - proj[a])\n",
           "t = (levels[node_lev] - proj[a]) / (proj[b] - proj[a]) * (1 + 1e-12)\n",
           "tests/test_contours.py::test_contours_match_reference_on_random_loops"),
    Mutant("umbrella residual forced to 0", "analysis.py",
           "worst = float(np.abs(resid).max(initial=0.0))", "worst = 0.0",
           "tests/test_analysis.py::test_harmonic_isolated_interior_vertex_is_numeric_error"),
    Mutant("H x (1 + 1e-6)", "analysis.py",
           "h_mean = np.ldexp((e * nq - 2 * ff * mm + g * l) / (2 * det), -unit)\n",
           "h_mean = np.ldexp((e * nq - 2 * ff * mm + g * l) / (2 * det), -unit) * (1 + 1e-6)\n",
           "tests/test_golden.py::test_curvature_scalars"),
    Mutant("EPS_GEOM 1e-12 -> 1e-10", "domain.py",
           "EPS_GEOM = 1e-12\n", "EPS_GEOM = 1e-10\n",
           "tests/test_domain.py::test_snap_band_zeroes_the_off_edge_coordinates"),
    Mutant("EPS_GEOM 1e-12 -> 1e-14", "domain.py",
           "EPS_GEOM = 1e-12\n", "EPS_GEOM = 1e-14\n",
           "tests/test_domain.py::test_snap_band_zeroes_the_off_edge_coordinates"),
    Mutant("default weld tolerance 1e-9 -> 1e-8", "loop.py",
           "weld_tolerance = 1e-9 * math.dist(", "weld_tolerance = 1e-8 * math.dist(",
           "tests/test_loop.py::test_default_weld_tolerance_is_1e_9_of_the_diagonal"),
    Mutant("default weld tolerance 1e-9 -> 1e-10", "loop.py",
           "weld_tolerance = 1e-9 * math.dist(", "weld_tolerance = 1e-10 * math.dist(",
           "tests/test_loop.py::test_default_weld_tolerance_is_1e_9_of_the_diagonal"),
    Mutant("mesh arrays left writeable", "mesher.py",
           "(value := value.copy()).setflags(write=False)", "value = value.copy()",
           "tests/test_mesher.py::test_a_mesh_is_read_only"),
    Mutant("mesh arrays shared with the caller", "mesher.py",
           "(value := value.copy())", "(value := value.view())",
           "tests/test_mesher.py::test_a_write_into_the_callers_arrays_reaches_no_mesh"),
    Mutant("loop closure unchecked", "loop.py",
           "        if bad.size:\n", "        if False:\n",
           "tests/test_loop.py::test_open_corner_rejected"),
    Mutant("mesh domain unchecked", "mesher.py",
           "array(\n                          domain, \"domain\", (k, 2))"
           ".astype(float, copy=False))", "np.asarray(domain, dtype=float))",
           "tests/test_errors.py::test_malformed_meshes_are_domain_errors"),
    Mutant("mesh attributes assignable", "mesher.py",
           "    def __setattr__(self, name, value):\n"
           "        raise AttributeError(\"a TriMesh is read-only: build a new one instead\")\n",
           "",
           "tests/test_mesher.py::test_a_mesh_is_read_only"),
    Mutant("empty boundary length without initial", "analysis.py",
           "float(np.abs(fixed).max(initial=0.0))", "float(np.abs(fixed).max())",
           "tests/test_analysis.py::test_harmonic_fill_of_vertices_without_coordinates_is_the_mesh"),
    Mutant("array accepts booleans", "errors.py",
           'value.dtype.kind not in "iuf"', 'value.dtype.kind not in "biuf"',
           "tests/test_errors.py::test_library_checks_raise_domain_error"),
    Mutant("index tables accept floats", "mesher.py",
           "    if values.dtype.kind == \"f\":\n"
           "        raise DomainError(\"%s indices must be integers\" % what)\n", "",
           "tests/test_errors.py::test_library_checks_raise_domain_error"),
    # the umbrella check then raises a NumericError of its own, so the killer matches the message
    Mutant("non-convergence not raised", "analysis.py",
           "        if info != 0:\n"
           "            res = np.linalg.norm(a_mat @ x - rhs[:, c]) * unit\n"
           "            raise NumericError(\"harmonic solve did not converge (residual %.3e)\" % res)\n",
           "",
           "tests/test_analysis.py::test_harmonic_solve_that_does_not_converge_is_numeric_error"),
    Mutant("index 0 prints as nothing", "fileio.py",
           "    keep[-1] = True\n", "",
           "tests/test_writers.py::test_int_fields_print_as_percent_d"),
]


def _pytest(copy, *args):
    """pytest's exit code in the copy: 0 passed, 1 a test failed, anything else no run."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *args], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(mutant, copy):
    """'killed', or what went wrong with the mutant."""
    path = copy / "src" / "npatch" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return "old text found %d times, not once" % text.count(mutant.old)
    path.write_text(text.replace(mutant.old, mutant.new))
    try:
        code = _pytest(copy, mutant.killer)
        if code == 1:
            return "killed"
        if code != 0:
            return "pytest exit code %d on %s" % (code, mutant.killer)
        code = _pytest(copy)
        return {0: "SURVIVED", 1: "killed by tier-1, not by %s" % mutant.killer}.get(
            code, "pytest exit code %d on tier-1" % code)
    finally:
        path.write_text(text)


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, copy)
        if _pytest(copy) != 0:
            print("tier-1 does not pass in the copy before any mutation")
            return 1
        for mutant in MUTANTS:
            start = time.perf_counter()
            outcome = run(mutant, copy)
            failed += outcome != "killed"
            print("%-40s %-60s %5.1f s" % (mutant.name, outcome, time.perf_counter() - start),
                  flush=True)
    print("%d of %d mutants killed" % (len(MUTANTS) - failed, len(MUTANTS)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
