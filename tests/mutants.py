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
           "tests/test_analysis.py::test_harmonic_umbrella_check_refuses_a_wrong_solve"),
    # the umbrella check then divides 0 by 0: a RuntimeWarning, an error under tier-1's filters
    Mutant("isolated vertex not refused", "analysis.py",
           "    if (alone := interior[links[interior] == 0]).size:  # nothing to average\n"
           "        raise NumericError(\"interior vertex %d has no neighbors\" % alone[0])\n", "",
           "tests/test_analysis.py::test_harmonic_isolated_interior_vertex_is_numeric_error"),
    # the loop's zero Laplacian row then leaves the V-cycle unbuilt and the vertex unsolved
    Mutant("a loop (v, v) counted as a neighbor", "analysis.py",
           "np.tile(u != v, 2)", "np.tile(u == u, 2)",
           "tests/test_analysis.py::test_harmonic_interior_vertex_with_only_a_loop_is_numeric_error"),
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
    Mutant("constant coordinates solved", "analysis.py",
           "free = mesh.vertices.copy(), lo != hi", "free = mesh.vertices.copy(), lo == lo",
           "tests/test_analysis.py::test_harmonic_fill_of_a_point_loop_is_the_point"),
    Mutant("array accepts booleans", "errors.py",
           'value.dtype.kind not in "iuf"', 'value.dtype.kind not in "biuf"',
           "tests/test_errors.py::test_library_checks_raise_domain_error"),
    Mutant("index tables accept floats", "mesher.py",
           "    if values.dtype.kind == \"f\":\n"
           "        raise DomainError(\"%s indices must be integers\" % what)\n", "",
           "tests/test_errors.py::test_library_checks_raise_domain_error"),
    # the umbrella check then raises a NumericError of its own, so the killer matches the message
    Mutant("non-convergence not raised", "analysis.py",
           "    if info != 0:\n"
           "        res = np.linalg.norm(a_mat @ x - rhs) * unit\n"
           "        raise NumericError(\"harmonic solve did not converge (residual %.3e)\" % res)\n",
           "",
           "tests/test_analysis.py::test_harmonic_solve_that_does_not_converge_is_numeric_error"),
    # the preconditioner's V-cycle: without its coarse correction CG takes 135 steps on the
    # bound test's mesh, and without the second Jacobi sweep (no longer symmetric) it stalls
    Mutant("coarse correction dropped", "analysis.py",
           "            x = x0 + p @ x\n", "            x = x0\n",
           "tests/test_analysis.py::test_harmonic_solve_work_is_bounded"),
    Mutant("post-smoothing dropped", "analysis.py",
           "            x += weight * (r - a @ x)\n", "",
           "tests/test_analysis.py::test_harmonic_solve_work_is_bounded"),
    # unpreconditioned CG takes 685 steps there
    Mutant("preconditioner skipped (z = r)", "analysis.py",
           "z = r if precond is None else precond(r)", "z = r",
           "tests/test_analysis.py::test_harmonic_solve_work_is_bounded"),
    # the bound test's loops just past float_max / 4 would then run unguarded, as would the
    # 1.7e308 bulging triangle, whose sum overflows
    Mutant("overflow bound float_max/4 -> float_max", "surface.py",
           "np.finfo(float).max / 4", "np.finfo(float).max",
           "tests/test_errors.py::test_patch_sum_is_guarded_only_past_float_max_over_4"),
    # a one-point eval or one-block eval_many past the bound would then run unguarded
    Mutant("one-block return outside the overflow guard", "surface.py",
           "        with overflow(\"patch evaluation\") if self._near_range else _UNGUARDED:\n"
           "            if 0 < len(points) <= block:  # one block: the kernel's own array\n"
           "                return self._eval_block(points, controls)\n",
           "        if 0 < len(points) <= block:  # one block: the kernel's own array\n"
           "            return self._eval_block(points, controls)\n"
           "        with overflow(\"patch evaluation\") if self._near_range else _UNGUARDED:\n",
           "tests/test_errors.py::test_patch_sum_is_guarded_only_past_float_max_over_4"),
    # a string, or a point of one or three coordinates, then escapes as numpy's ValueError
    Mutant("eval skips its point check", "surface.py",
           'array(p, "domain point", (2,))[None]', "np.asarray(p)[None]",
           "tests/test_errors.py::test_library_checks_raise_domain_error"),
    # the patch sum at the edge point agrees with the curve only within round-off
    Mutant("eval_boundary through the patch sum", "surface.py",
           "        return self.loop.sides[i % self.n].eval(t)\n",
           "        v = self.domain.vertices\n"
           "        point = (1.0 - t) * v[(i - 1) % self.n] + t * v[i % self.n]\n"
           "        return self._eval_blocks(point[None], self._controls_t)[0]\n",
           "tests/test_surface.py::test_one_point_queries_are_one_point_batches_bit_for_bit"),
    # a parameter just past 1 or below 0 would then evaluate the polynomial outside the curve
    Mutant("BezierCurve.eval without its [0, 1] bounds", "curves.py",
           'real(t, "curve parameter", 0, 1)', 'real(t, "curve parameter")',
           "tests/test_curves.py::test_eval_checks_one_number_and_is_a_batch_of_one_bit_for_bit"),
    # the basis is then C(D, j) t^j (1 - t)^j, not C(D, j) t^j (1 - t)^(D - j)
    Mutant("(1 - t) powers not reversed", "curves.py",
           "basis *= rest[::-1]\n", "basis *= rest\n",
           "tests/test_curves.py::test_bernstein_basis_rounds_as_its_running_products"),
    # a caller's write into the shared row would then reach every curve and patch of its degree
    Mutant("binomials row left writeable", "curves.py",
           "    row.setflags(write=False)\n", "",
           "tests/test_curves.py::test_binomials_row_is_shared_and_read_only"),
    # True then reads as 1.0, and a document with a boolean coordinate as a loop
    Mutant("read_loop accepts boolean coordinates", "fileio.py",
           "<= {int, float}", "<= {bool, int, float}",
           "tests/test_io.py::test_read_loop_names_a_single_bad_point"),
    # the opposite curves then leave the patch's welded corners by the pre-weld gaps
    Mutant("opposite curves from the unwelded table", "loop.py",
           "self.points, self.first, self.last = pts, first, last",
           "self.points, self.first, self.last = np.concatenate("
           "[c.control_points for c in curves]), first, last",
           "tests/test_loop.py::test_opposite_curve_equals_the_restacked_sides_on_mixed_degrees"),
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
