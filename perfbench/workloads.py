"""The three benchmark workloads: job streams, execution and checks.

Each workload is a closed loop with one client: the next job starts when
the previous one has finished.  Job j of a workload is a pure function of
(seed, j).  A run executes jobs 0 .. k-1, with k sized from the run time
by the workload's nominal rate (jobs_per_second).  So the job list is
fixed by the seed and the run time, and runs compare the same jobs
however fast the machine happens to be.  The shape of the stream is the
same for every seed: which loop sizes and degrees come in which order,
and the spread of resolutions.  The seed picks the random geometry, the
resolution jitter of `fill` and the query points.  That keeps the mix,
and with it the timings and the peak memory, steady from run to run.

  fill     `mesh` CLI commands: bundled fixtures alternating with random
           loops (n 3-12, degree 1-5), m spread log-uniformly over 16-100.
  inspect  per loop (bundled fixtures alternating with random loops,
           n 3-9, the first random loop planar): `harmonic` and
           `contours --count 10` at one m in 36-44, then `curvature`
           at m = 6.
  probe    library sessions: read_loop on an in-memory document,
           make_patch, then single-point queries (interior, boundary
           via eval_boundary, and 1e-9..1e-3 from a domain corner).
"""

import contextlib
import io
import json
import os
import statistics
import time
import traceback

import numpy as np

import checks
import reference
from npatch import cli, fileio, fixtures, surface

GOLDEN = 0.6180339887498949
NEAR_CORNER = 1e-3

# Machine-speed calibration.  On a shared machine the CPU speed changes by
# up to 40% in phases of seconds, which is more than the differences the
# benchmark must resolve.  Each timed operation (a CLI command, or a probe
# session) is bracketed by CAL_SAMPLES runs of a fixed kernel, the
# reference evaluator on a fixed loop, which uses numpy on small arrays
# and Python loops as the package does.  op.scale = CAL_REF_S / median
# kernel time, and op.seconds * op.scale is the op's time at the reference
# speed, the kernel taking CAL_REF_S.  The kernel is the benchmark's own
# code, so a change to the package does not move it.
CAL_SAMPLES = 3
CAL_REF_S = 0.00045


def _calibration_loop():
    v = reference.polygon(5)
    corners = np.column_stack([v, 0.3 * np.sin(2.0 * np.arange(5))])
    t = np.linspace(0.0, 1.0, 4)[:, None]
    sides = [(1 - t) * corners[i - 1] + t * corners[i] + [0, 0, 0.1] * (t * (1 - t))
             for i in range(5)]
    return sides, np.vstack([0.2 * v, 0.6 * v[:3]])


CAL_SIDES, CAL_POINTS = _calibration_loop()


def speed_samples():
    """Times of CAL_SAMPLES runs of the calibration kernel."""
    out = []
    for _ in range(CAL_SAMPLES):
        t0 = time.perf_counter()
        reference.patch(CAL_SIDES, CAL_POINTS)
        out.append(time.perf_counter() - t0)
    return out


def _doc(sides):
    return json.dumps({"version": 1, "sides": [
        {"degree": len(c) - 1, "control_points": c.tolist()} for c in sides]})


def _random_sides(n, degree, rng, planar=False):
    loop = fixtures.random_loop(n, degree, rng)
    sides = [np.array(c.control_points) for c in loop.sides]
    if planar:
        for c in sides:
            c[:, 2] = 0.0
    return sides


class Job:
    """One loop with what the workload does to it."""

    def __init__(self, index, label, sides, **params):
        self.index = index
        self.label = label
        self.sides = sides
        self.n = len(sides)
        self.doc = _doc(sides)
        self.path = None
        self.__dict__.update(params)

    def describe(self):
        keys = sorted(k for k in self.__dict__ if k not in ("sides", "doc", "path"))
        out = {k: self.__dict__[k] for k in keys}
        for k, v in out.items():
            if isinstance(v, np.ndarray):
                out[k] = v.tolist()
        out["doc"] = self.doc
        return out


class Op:
    """One timed operation: kind, wall seconds, speed scale, surface points
    delivered, outcome (None or a failure message), and its (n, m)."""

    __slots__ = ("kind", "seconds", "scale", "points", "error", "nm")

    def __init__(self, kind, seconds, scale, points=0, error=None, nm=None):
        self.kind = kind
        self.seconds = seconds
        self.scale = scale
        self.points = points
        self.error = error
        self.nm = nm

    @property
    def scaled(self):
        """Seconds at the reference machine speed."""
        return self.seconds * self.scale


def _failure(exc):
    if isinstance(exc, checks.CheckFailed):
        return "check: %s" % exc
    return "raised: " + traceback.format_exception_only(type(exc), exc)[-1].strip()


class Workload:
    name = None
    wid = None
    ops = ()          # op kinds whose latency the end-to-end metrics report
    # jobs per second at the seed code on the reference machine (2-vCPU
    # Xeon VM, Python 3.11, numpy 2.4, scipy 1.17); sizes a run's job list
    jobs_per_second = None

    def __init__(self, seed, tmp):
        self.seed = seed
        self.tmp = tmp
        self.fixtures = [(name, [np.array(c.control_points) for c in loop.sides])
                         for name, loop in fixtures.bundled().items()]

    def job_count(self, seconds):
        """Length of the job list for a run of about `seconds`."""
        return max(1, round(seconds * self.jobs_per_second))

    def rng(self, j, stream=0):
        """Generator for job j; stream 1 drives the job's output checks."""
        return np.random.default_rng([self.seed, self.wid, j + 1, stream])

    def job(self, j):
        raise NotImplementedError

    def warmup_job(self):
        raise NotImplementedError

    def execute(self, job):
        """Run one job; returns its list of Op."""
        raise NotImplementedError

    def prepare(self, job):
        """Write the job's loop file (untimed)."""
        job.path = os.path.join(self.tmp, "loop%d.json" % job.index)
        with open(job.path, "w") as fh:
            fh.write(job.doc)
        return job

    def cleanup(self, job):
        if job.path is not None:
            os.remove(job.path)
            job.path = None

    # -- CLI commands ------------------------------------------------------
    def command(self, kind, argv, output, check, nm):
        out, err = io.StringIO(), io.StringIO()
        error = None
        before = speed_samples()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv + ["-o", output])
        except SystemExit as exc:
            error = "exited %s: %s" % (exc.code, err.getvalue().strip())
        except Exception as exc:  # job boundary: record and keep running
            error = _failure(exc)
        op = Op(kind, time.perf_counter() - t0,
                CAL_REF_S / statistics.median(before + speed_samples()), error=error, nm=nm)
        if error is None:
            try:
                if rc != 0:
                    raise checks.CheckFailed("exit code %s: %s" % (rc, err.getvalue().strip()))
                with open(output) as fh:
                    text = fh.read()
                os.remove(output)
                op.points = check(text, out.getvalue())
            except Exception as exc:  # job boundary: record and keep running
                op.error = _failure(exc)
        return op


class Fill(Workload):
    name = "fill"
    wid = 1
    ops = ("mesh",)
    jobs_per_second = 7.5

    def job(self, j):
        rng = self.rng(j)
        if j % 2 == 0:
            label, sides = self.fixtures[(j // 2) % len(self.fixtures)]
        else:
            n = 3 + (j // 2) % 10
            degree = 1 + (j // 20) % 5
            label, sides = "random n=%d degree=%d" % (n, degree), _random_sides(n, degree, rng)
        x = (0.5 + j * GOLDEN) % 1.0
        m = int(np.clip(round(16 * 6.25 ** x) + rng.integers(-1, 2), 16, 100))
        return Job(j, label, sides, m=m)

    def warmup_job(self):
        return Job(-1, "warm-up", _random_sides(4, 2, self.rng(-1)), m=8)

    def execute(self, job):
        check_rng = self.rng(job.index, stream=1)
        out = os.path.join(self.tmp, "mesh.obj")
        return [self.command(
            "mesh", ["mesh", job.path, "-m", str(job.m)], out,
            lambda text, _: checks.check_mesh_obj(job.sides, job.m, text, check_rng),
            (job.n, job.m))]


class Inspect(Workload):
    name = "inspect"
    wid = 2
    ops = ("harmonic", "contours", "curvature")
    jobs_per_second = 0.8
    levels = 10

    def job(self, j):
        rng = self.rng(j)
        planar = False
        if j % 2 == 0:
            label, sides = self.fixtures[(j // 2) % len(self.fixtures)]
            planar = label in ("triangle", "square")
        else:
            n = 3 + (j // 2) % 7
            planar = j == 1
            # the planar loop keeps straight sides, so its map cannot fold
            degree = 1 if planar else 1 + (j // 14) % 5
            label = "random n=%d degree=%d%s" % (n, degree, " planar" if planar else "")
            sides = _random_sides(n, degree, rng, planar)
        m = 36 + (3 * j) % 9   # 36..44, the same sequence for every seed
        return Job(j, label, sides, m=m, mc=6, planar=planar)

    def warmup_job(self):
        return Job(-1, "warm-up", _random_sides(4, 2, self.rng(-1)), m=8, mc=3, planar=False)

    def execute(self, job):
        m, mc = job.m, job.mc
        rng = self.rng(job.index, stream=1)
        sides = job.sides
        obj = os.path.join(self.tmp, "out.obj")
        ply = os.path.join(self.tmp, "out.ply")
        return [
            self.command("harmonic", ["harmonic", job.path, "-m", str(m)], obj,
                         lambda text, out: checks.check_harmonic(sides, m, text, out),
                         (job.n, m)),
            self.command("contours", ["contours", job.path, "-m", str(m),
                                      "--count", str(self.levels)], obj,
                         lambda text, _: checks.check_contours(
                             sides, m, self.levels, text, rng),
                         (job.n, m)),
            self.command("curvature", ["curvature", job.path, "-m", str(mc)], ply,
                         lambda text, _: checks.check_curvature(
                             sides, mc, text, job.planar, rng),
                         (job.n, mc)),
        ]


class Probe(Workload):
    name = "probe"
    wid = 3
    ops = ("query",)
    jobs_per_second = 18.0
    interior, boundary, corner = 20, 10, 10

    def job(self, j):
        rng = self.rng(j)
        n = 3 + j % 14
        degree = 1 + (j // 14) % 7
        sides = _random_sides(n, degree, rng)
        return Job(j, "random n=%d degree=%d" % (n, degree), sides,
                   **self.queries(n, rng, self.interior, self.boundary, self.corner))

    def queries(self, n, rng, interior, boundary, corner):
        """Query plan: kind per query (0 point, 1 boundary), points, sides, t."""
        verts = reference.polygon(n)
        pts = rng.dirichlet(np.ones(n), size=interior) @ verts
        k = rng.integers(0, n, size=corner)
        dist = 10.0 ** rng.uniform(-9, -3, size=corner)
        # direction into the polygon, within 80% of the corner's half-angle
        half = np.pi / 2 - np.pi / n
        ang = rng.uniform(-0.8, 0.8, size=corner) * half
        inward = -verts[k]
        rot = np.stack([np.cos(ang) * inward[:, 0] - np.sin(ang) * inward[:, 1],
                        np.sin(ang) * inward[:, 0] + np.cos(ang) * inward[:, 1]], axis=1)
        near = verts[k] + dist[:, None] * rot
        total = interior + boundary + corner
        kind = np.array([0] * (interior + corner) + [1] * boundary)
        points = np.vstack([pts, near, np.zeros((boundary, 2))])
        side = np.concatenate([np.zeros(interior + corner, dtype=int),
                               rng.integers(0, n, size=boundary)])
        t = np.concatenate([np.zeros(interior + corner), rng.uniform(0, 1, size=boundary)])
        order = rng.permutation(total)
        return {"kind": kind[order], "points": points[order],
                "side": side[order], "t": t[order]}

    def warmup_job(self):
        rng = self.rng(-1)
        return Job(-1, "warm-up", _random_sides(4, 2, rng), **self.queries(4, rng, 4, 2, 2))

    def prepare(self, job):
        return job

    def execute(self, job):
        nq = len(job.kind)
        got = np.full((nq, 3), np.nan)
        errors = [None] * nq
        seconds = np.zeros(nq)
        before = speed_samples()
        t0 = time.perf_counter()
        open_error = None
        try:
            patch = surface.make_patch(fileio.read_loop(job.doc))
        except Exception as exc:  # job boundary: record and keep running
            patch, open_error = None, _failure(exc)
        opened = time.perf_counter() - t0
        for q in range(nq if patch is not None else 0):
            t0 = time.perf_counter()
            try:
                if job.kind[q]:
                    got[q] = patch.eval_boundary(int(job.side[q]), float(job.t[q]))
                else:
                    got[q] = patch.eval(job.points[q])
            except Exception as exc:  # query boundary: record and keep running
                errors[q] = _failure(exc)
            seconds[q] = time.perf_counter() - t0
        scale = CAL_REF_S / statistics.median(before + speed_samples())
        ops = [Op("open", opened, scale, error=open_error)]
        if patch is None:
            return ops
        want = np.empty_like(got)
        inner = job.kind == 0
        want[inner] = reference.patch(job.sides, job.points[inner])
        for q in np.nonzero(~inner)[0]:
            want[q] = reference.bernstein(job.sides[job.side[q]], [job.t[q]])[0]
        bad = checks.point_errors(got, want, reference.scale(job.sides))
        for q in range(nq):
            if errors[q] is None and bad[q]:
                errors[q] = "check: query %s off the reference" % (
                    "boundary" if job.kind[q] else "point")
            ops.append(Op("query", seconds[q], scale, 1, error=errors[q]))
        return ops

    def near_corner(self, job):
        """Number of the job's queries within NEAR_CORNER of a domain corner."""
        verts = reference.polygon(job.n)
        pts = job.points[job.kind == 0]
        d = np.linalg.norm(pts[:, None, :] - verts[None], axis=2).min(axis=1)
        return int(np.count_nonzero(d <= NEAR_CORNER))


WORKLOADS = {w.name: w for w in (Fill, Inspect, Probe)}


def run_jobs(workload, indices, max_seconds=None):
    """Run the jobs `indices` in order, stopping early after `max_seconds`.

    Returns (ops, jobs run).  Preparing and checking a job is outside its
    ops' times but inside the run's time.
    """
    ops, jobs = [], []
    start = time.perf_counter()
    for j in indices:
        if max_seconds is not None and time.perf_counter() - start >= max_seconds:
            break
        job = workload.prepare(workload.job(j))
        ops.extend(workload.execute(job))
        workload.cleanup(job)
        jobs.append(job)
    return ops, jobs
