"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
Each criterion runs the tests that check it, from the module of the layer
they check, so each check is written once.
"""

from functools import partial
from itertools import product

import test_analysis
import test_domain
import test_mesher
import test_ribbon
import test_surface


def report(name, *checks):
    """Run the checks, then print one ACCEPTANCE line: PASS if none of them raised."""
    passed = False
    try:
        for check in checks:
            check()
        passed = True
    finally:
        print("ACCEPTANCE %s: %s" % ("PASS" if passed else "FAIL", name))


def cases(test):
    """test bound to each case of its pytest.mark.parametrize marks, as pytest runs it."""
    grids = []
    for mark in getattr(test, "pytestmark", []):
        if mark.name == "parametrize":
            names, values = mark.args
            names = [name.strip() for name in names.split(",")]
            grids.append([dict(zip(names, v if len(names) > 1 else (v,))) for v in values])
    return [partial(test, **{k: v for d in case for k, v in d.items()}) for case in product(*grids)]


def test_criterion_1_boundary_interpolation():
    report("1 boundary and corner interpolation (<= 64 eps x bbox diagonal)",
           *cases(test_surface.test_boundary_interpolation),
           test_surface.test_corner_interpolation)


def test_criterion_2_d_properties():
    report("2 d-properties and s in [0, 1] (<= 64 eps)", *cases(test_domain.test_d_properties))


def test_criterion_3_wachspress():
    report("3 Wachspress partition of unity and linear precision (<= 64 eps)",
           *cases(test_domain.test_partition_of_unity_and_linear_precision))


def test_criterion_4_blend_partition_of_unity():
    report("4 blend partition of unity (<= 64 eps)",
           *cases(test_surface.test_blend_partition_of_unity))


def test_criterion_5_n4_coons_oracle():
    report("5 n=4 classical Coons equivalence, degree <= 3 (<= 64 eps x bbox diagonal)",
           test_surface.test_square_matches_classical_coons)


def test_criterion_6_ribbon_identities():
    report("6 ribbon boundary identities (<= 64 eps x bbox diagonal)",
           *cases(test_ribbon.test_boundary_reproduction))


def test_criterion_7_planarity():
    report("7 planarity (patch and ribbons exactly, mesh exactly, harmonic fill, curvature)",
           test_surface.test_planar_loop_planar_patch, test_mesher.test_planar_loop_planar_mesh,
           test_analysis.test_harmonic_planar_loop, test_analysis.test_curvature_map_planar_loop)


def test_criterion_8_harmonic_baseline():
    report("8 harmonic baseline (umbrella residual <= 1e-9 x bbox diagonal, maximum principle,"
           " energy <= patch's)",
           test_analysis.test_harmonic_umbrella_and_max_principle,
           test_analysis.test_harmonic_energy_below_patch_energy)


def test_criterion_9_curvature_evaluator():
    report("9 curvature evaluator (plane <= 1e-6, sphere and cylinder <= 1e-3 relative)",
           test_analysis.test_curvature_plane, *cases(test_analysis.test_curvature_sphere),
           *cases(test_analysis.test_curvature_cylinder))


def test_criterion_10_mesh_integrity():
    report("10 mesh integrity (counts, Euler characteristic, manifold, boundary on the curves)",
           *cases(test_mesher.test_counts_and_euler),
           *cases(test_mesher.test_boundary_vertices_exactly_on_curves))
