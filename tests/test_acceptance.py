"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import numpy as np
import pytest
from conftest import random_interior_points

from npatch import (BezierCurve, DomainPolygon, local_params, make_loop, make_patch,
                    mesh_patch, tessellate_domain)
from npatch.analysis import (curvature_map, dirichlet_energy, harmonic_fill,
                             mean_curvature)
from npatch.fixtures import pentagon_loop, random_loop
from npatch.ribbon import Ribbon
from test_surface import classical_coons


def report(name, ok):
    print("ACCEPTANCE %s: %s" % ("PASS" if ok else "FAIL", name))
    assert ok, name


def test_criterion_1_boundary_interpolation():
    worst = 0.0
    t = np.linspace(0, 1, 200)
    for n in range(3, 9):
        for trial in range(20):
            degree = 3 if trial % 2 == 0 else 5
            loop = random_loop(n, degree, np.random.default_rng(1000 * n + trial))
            patch = make_patch(loop)
            scale = loop.bbox_diagonal()
            for i in range(n):
                pts = np.array([patch.domain.edge_point(i, tk) for tk in t])
                err = np.abs(patch.eval_many(pts) - loop.side(i).eval_many(t)).max()
                worst = max(worst, err / scale)
    report("1 boundary interpolation (max rel err %.2e)" % worst, worst <= 1e-9)


def test_criterion_2_d_properties():
    worst = 0.0
    t = np.linspace(0, 1, 100)
    for n in range(3, 11):
        poly = DomainPolygon(n)
        for i in range(n):
            pts = np.array([poly.edge_point(i, tk) for tk in t])
            lp = local_params(poly.wachspress_many(pts))
            worst = max(worst, np.abs(lp.d[:, i]).max())
            worst = max(worst, np.abs(
                lp.d[:, (i - 1) % n] + lp.d[:, (i + 1) % n] - 1).max())
            far = [j for j in range(n) if j not in ((i - 1) % n, i, (i + 1) % n)]
            if far:
                worst = max(worst, np.abs(lp.d[:, far] - 1).max())
    report("2 d-properties (max dev %.2e)" % worst, worst <= 1e-12)


def test_criterion_3_wachspress():
    worst = 0.0
    neg = 0.0
    for n in range(3, 11):
        poly = DomainPolygon(n)
        pts = random_interior_points(np.random.default_rng(n), poly, 100_000)
        lam = poly.wachspress_many(pts)
        neg = min(neg, lam.min())
        worst = max(worst, np.abs(lam.sum(axis=1) - 1).max())
        worst = max(worst, np.abs(lam @ poly.vertices - pts).max())
    ok = worst <= 1e-12 and neg >= 0
    report("3 Wachspress correctness (max dev %.2e, min lambda %.1e)" % (worst, neg), ok)


def test_criterion_4_blend_partition_of_unity():
    worst = 0.0
    for n in range(3, 11):
        poly = DomainPolygon(n)
        pts = random_interior_points(np.random.default_rng(50 + n), poly, 10_000)
        lp = local_params(poly.wachspress_many(pts))
        worst = max(worst, np.abs((0.5 * (1 - lp.d)).sum(axis=1) - 1).max())
    report("4 blend partition of unity (max dev %.2e)" % worst, worst <= 1e-12)


def test_criterion_5_n4_coons_oracle():
    worst = 0.0
    for trial in range(5):
        loop = random_loop(4, 3, np.random.default_rng(4000 + trial))
        patch = make_patch(loop)
        scale = loop.bbox_diagonal()
        pts = random_interior_points(np.random.default_rng(trial), patch.domain, 1000)
        lam = patch.domain.wachspress_many(pts)
        got = patch.eval_many(pts)
        for k in range(len(pts)):
            err = np.abs(got[k] - classical_coons(loop, lam[k])).max()
            worst = max(worst, err / scale)
    report("5 n=4 classical Coons equivalence (max rel err %.2e)" % worst,
           worst <= 1e-9)


def test_criterion_6_ribbon_identities():
    worst = 0.0
    t = np.linspace(0, 1, 100)
    zeros = np.zeros_like(t)
    ones = np.ones_like(t)
    for n in (3, 4, 5, 6, 8):
        loop = random_loop(n, 3, np.random.default_rng(6000 + n))
        for i in range(n):
            r = Ribbon(loop, i)
            worst = max(worst, np.abs(
                r.eval_many(t, zeros) - loop.side(i).eval_many(t)).max())
            worst = max(worst, np.abs(
                r.eval_many(zeros, t) - loop.side(i - 1).eval_many(1 - t)).max())
            worst = max(worst, np.abs(
                r.eval_many(ones, t) - loop.side(i + 1).eval_many(t)).max())
            worst = max(worst, np.abs(
                r.eval_many(t, ones) - r.opp.eval_many(1 - t)).max())
    report("6 ribbon boundary identities (max dev %.2e)" % worst, worst <= 1e-12)


def test_criterion_7_planarity():
    loop = random_loop(5, 3, np.random.default_rng(7000))
    flat = make_loop([BezierCurve(c.control_points * [1, 1, 0]) for c in loop.sides])
    patch = make_patch(flat)
    z_patch = np.abs(mesh_patch(patch, 10).vertices[:, 2]).max()
    z_harm = np.abs(harmonic_fill(mesh_patch(make_patch(flat), 8)).vertices[:, 2]).max()
    cmap = curvature_map(patch, 6)
    h_max = np.abs(cmap.scalar).max()
    ok = z_patch <= 1e-9 and z_harm <= 1e-9 and h_max <= 1e-6
    report("7 planarity (z_patch %.1e, z_harmonic %.1e, |H| %.1e)"
           % (z_patch, z_harm, h_max), ok)


def test_criterion_8_harmonic_baseline():
    loop = pentagon_loop()
    m = 10
    harmonic = harmonic_fill(mesh_patch(make_patch(loop), m))  # raises if umbrella residual too large
    patch_mesh = mesh_patch(make_patch(loop), m)
    assert np.array_equal(harmonic.triangles, patch_mesh.triangles)

    # umbrella residual, re-checked here against the 1e-9 criterion
    boundary = set(harmonic.boundary.index.tolist())
    nbr = {}
    for tri in harmonic.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            nbr.setdefault(int(a), set()).add(int(b))
            nbr.setdefault(int(b), set()).add(int(a))
    resid = max(
        np.abs(harmonic.vertices[v] - harmonic.vertices[sorted(ns)].mean(axis=0)).max()
        for v, ns in nbr.items() if v not in boundary
    )
    e_h = dirichlet_energy(harmonic)
    e_p = dirichlet_energy(patch_mesh)
    ok = resid <= 1e-9 * loop.bbox_diagonal() and e_h <= e_p
    report("8 harmonic baseline (residual %.1e, energies %.4g <= %.4g)"
           % (resid, e_h, e_p), ok)


def test_criterion_9_curvature_evaluator():
    plane = lambda p: np.array([p[0], p[1], 0.0])
    err_plane = abs(mean_curvature(plane, np.array([0.1, -0.2])))

    r = 2.0
    def sphere(p):
        u, v = 0.3 + p[0], 0.2 + p[1]
        return r * np.array([np.cos(u) * np.cos(v), np.cos(u) * np.sin(v), np.sin(u)])
    err_sph = abs(abs(mean_curvature(sphere, np.array([0.1, 0.0]))) - 1 / r) * r

    rc = 1.5
    def cylinder(p):
        return np.array([rc * np.cos(p[0]), rc * np.sin(p[0]), p[1]])
    err_cyl = abs(abs(mean_curvature(cylinder, np.array([0.2, 0.1]))) - 1 / (2 * rc)) * 2 * rc

    ok = err_plane <= 1e-6 and err_sph <= 1e-3 and err_cyl <= 1e-3
    report("9 curvature evaluator (plane %.1e, sphere %.1e, cylinder %.1e)"
           % (err_plane, err_sph, err_cyl), ok)


def test_criterion_10_mesh_integrity():
    worst_boundary = 0.0
    ok = True
    for n in range(3, 9):
        loop = random_loop(n, 3, np.random.default_rng(10_000 + n))
        patch = make_patch(loop)
        for m in (1, 2, 8, 30):
            mesh = mesh_patch(patch, m)
            v = len(mesh.vertices)
            f = len(mesh.triangles)
            tt = mesh.triangles
            e = np.vstack([tt[:, [0, 1]], tt[:, [1, 2]], tt[:, [2, 0]]])
            e.sort(axis=1)
            uniq, counts = np.unique(e, axis=0, return_counts=True)
            ok &= f == n * m * m
            ok &= v - len(uniq) + f == 1
            ok &= set(np.unique(counts)) <= {1, 2}
            for vi, side, t in zip(*mesh.boundary):
                worst_boundary = max(worst_boundary, np.abs(
                    mesh.vertices[vi] - loop.side(side).eval(t)).max())
    ok &= worst_boundary <= 1e-15
    report("10 mesh integrity (boundary dev %.1e)" % worst_boundary, ok)
