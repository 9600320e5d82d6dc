"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from npatch import cli, fileio, mesher, surface  # noqa: E402


@pytest.fixture
def make(tmp_path):
    return lambda name, seed=5: workloads.WORKLOADS[name](seed, str(tmp_path))


@pytest.mark.parametrize("name", ["fill", "inspect", "probe"])
def test_smoke_tiny_run(make, name):
    wl = make(name)
    ops, jobs = workloads.run_jobs(wl, [0, 1])
    assert len(jobs) == 2
    assert {op.kind for op in ops} >= set(wl.ops)
    assert [op.error for op in ops if op.error] == []
    assert all(op.seconds > 0 for op in ops)


def test_traced_run_reports_every_layer_metric(make):
    tr = tracer.Tracer()
    original = cli.main
    tr.install()
    try:
        assert cli.main is not original
        busy = 0.0
        for name in ("fill", "inspect", "probe"):
            ops, _ = workloads.run_jobs(make(name), [1])
            assert [op.error for op in ops if op.error] == []
            busy += sum(op.seconds for op in ops)
    finally:
        tr.uninstall()
    assert cli.main is original
    assert mesher.mesh_patch.__module__ == "npatch.mesher"
    metrics = tr.layer_metrics(busy, 3, 0.1)
    assert set(metrics) == set(tracer.LAYER_METRICS)
    assert tr.absent_metrics() == []
    for name in ("surface.Patch.eval_many.calls", "analysis.harmonic_fill.cg_iters",
                 "mesher.tessellate_domain.calls", "fileio.write_obj.bytes",
                 "surface.Patch.eval_boundary.calls", "domain.local_params.valid_frac"):
        assert metrics[name]["value"] > 0, name
    shares = [v["value"] for k, v in metrics.items() if k.endswith("_share")]
    assert all(0 <= s <= 1 for s in shares)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracer.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_missing_callable_is_absent_not_fatal(monkeypatch):
    monkeypatch.delattr(surface.Patch, "eval_boundary")
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent_metrics() == ["surface.Patch.eval_boundary.calls"]


@pytest.mark.parametrize("name", ["fill", "inspect", "probe"])
def test_job_list_fixed_by_seed(make, name):
    def listing(seed):
        wl = make(name, seed)
        return json.dumps([wl.job(j).describe() for j in range(12)], sort_keys=True)

    assert listing(7) == listing(7)
    assert listing(7) != listing(8)


def test_corrupted_mesh_counts_as_failed(make, monkeypatch):
    real = fileio.write_obj

    def write_obj(mesh, contour_set=None):
        # move the last vertex, a boundary vertex, off its side curve
        lines = real(mesh, contour_set).split("\n")
        k = max(i for i, line in enumerate(lines) if line.startswith("v "))
        x, y, z = (float(v) for v in lines[k].split()[1:])
        lines[k] = "v %.9g %.9g %.9g" % (x, y, z + 1e-6)
        return "\n".join(lines)
    monkeypatch.setattr(fileio, "write_obj", write_obj)
    ops, _ = workloads.run_jobs(make("fill"), [0, 1])
    assert len(ops) == 2
    assert all(op.error.startswith("check:") for op in ops)


def test_raising_job_counts_as_failed_and_run_goes_on(make, monkeypatch):
    real = mesher.mesh_patch
    calls = []

    def mesh_patch(patch, m):
        calls.append(m)
        if len(calls) == 1:
            raise ValueError("injected")
        return real(patch, m)
    monkeypatch.setattr(cli, "mesh_patch", mesh_patch)
    ops, _ = workloads.run_jobs(make("fill"), [0, 1])
    assert ops[0].error.startswith("raised: ValueError")
    assert ops[1].error is None


def test_checks_catch_corrupted_files(make):
    wl = make("inspect")
    job = wl.prepare(wl.job(2))
    out = os.path.join(wl.tmp, "h.obj")
    assert cli.main(["harmonic", job.path, "-m", "6", "-o", out]) == 0
    text = open(out).read()
    lines = text.split("\n")
    lines[1] = "v 0.1 0.2 0.3"   # an interior vertex of the harmonic mesh
    with pytest.raises(checks.CheckFailed, match="umbrella"):
        checks.check_harmonic(job.sides, 6, "\n".join(lines),
                              "dirichlet energy harmonic: 1\ndirichlet energy patch: 2\n")


def test_corrupted_queries_count_in_result_line(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    real = surface.Patch.eval
    monkeypatch.setattr(surface.Patch, "eval", lambda self, p: real(self, p) + 1e-6)
    import run
    assert run.main(["--workload", "probe", "--seed", "3", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    ok = result["metrics"]["ok_frac"]["value"]
    assert ok == pytest.approx(1 - result["failed"] / result["attempted"])
    assert ok < 1


def test_refuses_to_run_without_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "fill",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_reference_matches_package_on_random_loops():
    import reference
    from npatch import make_patch
    from npatch.fixtures import random_loop
    rng = np.random.default_rng(0)
    for n in (3, 5, 11):
        loop = random_loop(n, 4, rng)
        sides = [c.control_points for c in loop.sides]
        pts = rng.dirichlet(np.ones(n), size=50) @ reference.polygon(n)
        assert np.abs(make_patch(loop).eval_many(pts) - reference.patch(sides, pts)).max() < 1e-12
