#!/usr/bin/env python3
"""greencross benchmark: one workload per process, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload h2-const-l4 --seed 3 --seconds 2 \\
        --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
the same workload runs under :class:`layertrace.LayerTrace` and the metrics
are the per-layer ones.  Earlier lines carry ``env {...}`` (machine and
library record), ``outputs {...}`` (the non-timing results, which must be
equal in a traced and an untraced run of one seed) and, in a traced run,
``absent [...]`` for per-layer metrics whose program function is gone.

Everything the program sees is made before timing starts: the mesh file
(fixed per workload) and the point source, which ``--seed`` picks among the
48 images of a fixed point at radius 1.2 under the octahedral symmetry of
the sphere meshes, so every seed poses a problem of the same difficulty.
The seed also picks the vectors of the timed applications; the accuracy
probe is fixed.

Timings are wall seconds, scaled to a reference CPU speed that
:class:`SpeedProbe` reads during each of them.  The measuring window of
``--seconds`` runs the workload's whole body (set-up, solve, error) in
rounds, at least MIN_ROUNDS of them, and reports medians (see
:func:`measure`).  The raw wall medians and the process CPU seconds are
printed on ``wall {...}`` and ``cpu {...}`` lines.

Operations counted in ``attempted``: each round's solve, each repeated
solve and each timed operator application.  The first round's solve fails
when the command exits non-zero, CG stops at its iteration cap, ``l2_err``
or ``rel_err`` exceeds the workload's anchor, or (h2-const-*) some basis
node breaks V|pivots = I.  A later round's solve or a repeated solve fails
when its solution differs bitwise from the first round's; an application
fails when it differs bitwise from the first application of the same
vector.
"""

import argparse
import contextlib
import csv
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")

Workload = namedtuple("Workload", "level geometry basis disc orders command "
                                  "check_rows")

# Shared GCA configuration (ROADMAP baseline): eta, green order m, delta
# factor, ACA eps, leaf size; CG tolerance as in `greencross solve`.
ETA, GREEN_M, DELTA, ACA_EPS, LEAF = 1.0, 3, 0.5, 1e-4, 16
CG_TOL = 1e-8

WORKLOADS = {
    # far-field entry assembly dominates set-up; compression matters
    "h2-const-l4": Workload(4, "plane", "constant", "galerkin", (2, 4),
                            False, 128),
    # the ROADMAP baseline configuration; about a minute of set-up per
    # round, too long for BENCHMARK.json's run budget
    "h2-const-l5": Workload(5, "plane", "constant", "galerkin", (2, 4),
                            False, 128),
    # apply-heavy: CGNR over the collocation operator, dense dlp rhs; a
    # third workload would not fit BENCHMARK.json's run budget
    "solve-colloc-l4": Workload(4, "curved", "linear", "collocation",
                                (3, 5), True, 128),
    # singular Galerkin cases, triangle tables, the 3x3 slot scatter, the
    # mass matrix and curved charts; its operator is all nearfield
    "solve-linear-l3": Workload(3, "curved", "linear", "galerkin", (2, 4),
                                True, 32),
}
SMOKE_LEVEL = 2

# Accuracy anchors, (l2_err, rel_err) per workload and mesh level: about
# 1.25-1.35x the largest l2_err and 1.5-1.7x the rel_err seen at the commit
# that introduced the benchmark.  Where rel_err sits at the floor (no
# admissible blocks: solve-linear-l3 and the level-2 meshes), the anchor is
# the ACA tolerance.  A run above an anchor fails its solve.
ANCHORS = {
    "h2-const-l4": {4: (0.2, 6e-5), 2: (0.75, 1e-4)},
    "h2-const-l5": {5: (0.1, 1.2e-4), 2: (0.75, 1e-4)},
    "solve-colloc-l4": {4: (0.03, 2.5e-5), 2: (0.26, 1e-4)},
    "solve-linear-l3": {3: (0.16, 1e-4), 2: (0.26, 1e-4)},
}

SOURCE_RADIUS = 1.2
SOURCE_POINT = (1.0, 0.37, 0.11)  # generic: its 48 images are distinct
CHECK_VECTORS = 4
PROBE_SEED = 0
# rel_err below this is rounding noise (an all-nearfield operator has no
# approximation error), where a ratio between two runs means nothing
REL_ERR_FLOOR = 1e-12
MIN_ROUNDS = 2  # whole bodies per run: set-up is a median of this many
SOLVE_CHUNK_S = 3.0  # repeated solves per round, only those that fit
APPLY_CHUNK_S = 1.5
MIN_CHUNK_PAIRS = 2
CASES = ("disjoint", "vertex", "edge", "identical")

END_TO_END_UNITS = {
    "setup_s": "s", "solve_s": "s", "time_to_solution_s": "s",
    "apply_ms": "ms", "peak_rss_mib": "MiB", "storage_mib": "MiB",
    "rel_err": "ratio", "l2_err": "L2", "cg_iters": "count",
}

# per-layer metric -> (unit, better); which end-to-end metric each should
# move is listed in perfbench/README.md
LAYER_METRICS = dict(
    [("batchexec.%s.%s" % (what, case), (unit, "lower"))
     for what, unit in (("eval_s", "s"), ("tasks", "count"),
                        ("batches", "count"))
     for case in CASES]
    + [
        ("batchexec.enqueue_s", ("s", "lower")),
        ("batchexec.enqueue_calls", ("count", "lower")),
        ("batchexec.finalize_s", ("s", "lower")),
        ("batchexec.busy_frac", ("ratio", "higher")),
        ("quadrature.classify_s", ("s", "lower")),
        ("quadrature.classify_calls", ("count", "lower")),
        ("assembly.triangle_table_s", ("s", "lower")),
        ("assembly.triangle_table_calls", ("count", "lower")),
        ("assembly.tasks_per_dense_pair", ("ratio", "lower")),
        ("assembly.dense_s", ("s", "lower")),
        ("assembly.mass_s", ("s", "lower")),
        ("assembly.green_factor_s", ("s", "lower")),
        ("gca.basis_s", ("s", "lower")),
        ("gca.aca_s", ("s", "lower")),
        ("gca.build_h2_s", ("s", "lower")),
        ("gca.rank_sum", ("count", "lower")),
        ("gca.leaf_rank_ratio", ("ratio", "lower")),
        ("h2.storage.leaf_bases_mib", ("MiB", "lower")),
        ("h2.storage.transfers_mib", ("MiB", "lower")),
        ("h2.storage.couplings_mib", ("MiB", "lower")),
        ("h2.storage.nearfield_mib", ("MiB", "lower")),
        ("h2.mvm_ms", ("ms", "lower")),
        ("h2.mvm_t_ms", ("ms", "lower")),
        ("h2.mvm_calls", ("count", "lower")),
        ("h2.solver_self_s", ("s", "lower")),
        ("h2.dense_mvm_ms", ("ms", "lower")),
        ("clustering.cluster_tree_s", ("s", "lower")),
        ("clustering.block_tree_s", ("s", "lower")),
        ("clustering.admissible_leaves", ("count", "lower")),
        ("clustering.nearfield_leaves", ("count", "lower")),
        ("geometry.read_mesh_s", ("s", "lower")),
        ("geometry.chart_pack_s", ("s", "lower")),
        ("cli.l2_error_s", ("s", "lower")),
        ("trace.wall_s", ("s", "lower")),
        ("trace.calls", ("count", "lower")),
    ])

# per-layer metrics read straight off the span table:
# metric -> (span names summed, field)
SPAN_METRICS = {
    "batchexec.enqueue_s": (["batchexec.BatchExecutor.enqueue_many"],
                            "incl_s"),
    "batchexec.enqueue_calls": (["batchexec.BatchExecutor.enqueue_many"],
                                "calls"),
    "batchexec.finalize_s": (["batchexec.BatchExecutor.finalize"], "incl_s"),
    "quadrature.classify_s": (["quadrature.classify_pairs"], "incl_s"),
    "quadrature.classify_calls": (["quadrature.classify_pairs"], "calls"),
    "assembly.triangle_table_s": (["assembly.triangle_table"], "incl_s"),
    "assembly.triangle_table_calls": (["assembly.triangle_table"], "calls"),
    "assembly.dense_s": (["assembly.assemble_galerkin_block",
                          "assembly.assemble_collocation_block"], "incl_s"),
    "assembly.mass_s": (["assembly.mass_block"], "incl_s"),
    "assembly.green_factor_s": (["assembly.green_row_factor",
                                 "assembly.green_col_factor"], "incl_s"),
    "gca.basis_s": (["gca.build_cluster_basis"], "incl_s"),
    "gca.aca_s": (["gca.aca_interpolation"], "incl_s"),
    "gca.build_h2_s": (["gca.build_h2"], "incl_s"),
    "clustering.cluster_tree_s": (["clustering.build_cluster_tree"],
                                  "incl_s"),
    "clustering.block_tree_s": (["clustering.build_block_tree"], "incl_s"),
    "geometry.read_mesh_s": (["geometry.read_mesh"], "incl_s"),
    "geometry.chart_pack_s": (["geometry.chart_pack"], "incl_s"),
    "cli.l2_error_s": (["cli.solution_l2_error"], "incl_s"),
}


class BenchError(Exception):
    """The workload could not produce its metrics."""


# ---------------------------------------------------------------------------
# environment


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_rev():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def env_record(np, threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {"git_rev": git_rev(), "nproc": nproc(), "threads": threads,
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas}


# ---------------------------------------------------------------------------
# seeded inputs


Inputs = namedtuple("Inputs", "source rows check apply")


def make_inputs(np, seed, n, check_rows):
    """Seeded source and apply vectors; the accuracy probe (rows and check
    vectors) is the same for every seed, so rel_err compares like with
    like between runs."""
    rng = np.random.default_rng(seed)
    perm, signs = list(itertools.product(itertools.permutations(range(3)),
                                         itertools.product((1, -1),
                                                           repeat=3))
                       )[int(rng.integers(48))]
    d = np.asarray(SOURCE_POINT)[list(perm)] * np.asarray(signs)
    source = SOURCE_RADIUS * d / np.linalg.norm(d)
    apply = rng.standard_normal((2, n))
    probe = np.random.default_rng(PROBE_SEED)
    if check_rows is None or check_rows >= n:
        rows = np.arange(n)
    else:
        # one row per stratum of consecutive dofs spreads the sample over
        # the sphere
        edges = (np.arange(check_rows + 1) * n) // check_rows
        rows = edges[:-1] + (probe.random(check_rows)
                             * (edges[1:] - edges[:-1])).astype(int)
    check = probe.standard_normal((n, CHECK_VECTORS))
    return Inputs(source, rows, check, apply)


def write_mesh(geometry, wl, level, path):
    """Write the workload's mesh; returns the dof count and the dense pair
    count (triangle x triangle, or collocation point x triangle)."""
    mesh = geometry.build_sphere_mesh(level)
    if wl.geometry == "curved":
        mesh = geometry.to_curved(mesh, project_to_unit_sphere=True)
    geometry.write_mesh(mesh, path)
    n = mesh.nt if wl.basis == "constant" else mesh.nv
    rows = mesh.nv if wl.disc == "collocation" else mesh.nt
    return n, rows * mesh.nt


# ---------------------------------------------------------------------------
# workload bodies


def stamp():
    """(wall, process CPU) seconds; the CPU clock sums every thread."""
    return time.perf_counter(), time.process_time()


def since(a, b):
    """(wall, CPU) seconds between two stamps."""
    return b[0] - a[0], b[1] - a[1]


class SpeedProbe:
    """Reads the CPU's current speed from a fixed kernel of small numpy
    products and interpreter work (about 0.4 ms of thread CPU time).

    The shared 2-vCPU VM the bounds were set on switches each vCPU between
    a fast and a slow state, about 1.6x apart, each lasting from under a
    second to about twenty seconds; hypervisor steal stayed near 1%, so CPU
    time slows down as much as wall time.  One H2 application took 19-21 ms
    or 30-35 ms in one process depending on the state, while its ratio to
    this kernel, timed just before and after it, stayed within a few
    percent.  Every timing is therefore reported as its wall times REF_S
    over the kernel's mean time during it: the wall it takes when the CPU
    runs at the kernel's reference speed.  Lock waits, idle threads and
    serialised work are not divided out.

    Single-threaded calls (a solve, an application) are read on the calling
    thread, just before and after the call and, inside a solve, every EVERY
    applications.  Long multi-threaded spans (set-up, the whole body) are
    read by a background thread every PERIOD_S, which lands on either vCPU.
    """

    REF_S = 0.35e-3  # the kernel's time in the fast state on that VM
    EVERY = 8
    PERIOD_S = 0.1

    def __init__(self, np):
        self.a = np.random.default_rng(0).random((16, 16))
        self.x = np.ones(16)
        self.readings = []  # (wall time, kernel seconds) from the background
        self._halt = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True)

    def __call__(self):
        """The kernel's thread CPU seconds, read on the calling thread."""
        t0 = time.thread_time()
        for _ in range(100):
            y = self.a @ self.x
            y += 1.0
        s = 0
        for i in range(3000):
            s += i
        return time.thread_time() - t0

    def _watch(self):
        while not self._halt.wait(self.PERIOD_S):
            t = time.perf_counter()
            self.readings.append((t, self()))

    def start(self):
        self._thread.start()

    def stop(self):
        self._halt.set()
        self._thread.join()

    def timed(self, fn, apply=None):
        """fn() and its (scaled, wall, CPU) seconds.  With ``apply``, fn
        gets an operator that calls apply and reads the speed every EVERY
        applications; those readings' time is taken out of the sample."""
        inner = []
        call = fn
        if apply is not None:
            count = itertools.count(1)

            def op(*args):
                if next(count) % self.EVERY == 0:
                    inner.append(self())
                return apply(*args)

            def call():
                return fn(op)
        before = self()
        t0 = stamp()
        out = call()
        t1 = stamp()
        readings = [before] + inner + [self()]
        wall, cpu = since(t0, t1)
        wall -= sum(inner)
        cpu -= sum(inner)
        return out, (wall * self.REF_S * len(readings) / sum(readings),
                     wall, cpu)

    def span(self, a, b):
        """(scaled, wall, CPU) seconds between two stamps, scaled by the
        background readings taken between them (the nearest one if none
        was)."""
        wall, cpu = since(a, b)
        inside = [k for t, k in self.readings if a[0] <= t <= b[0]]
        if not inside:
            inside = [min(self.readings, key=lambda r: abs(r[0] - a[0]))[1]]
        return (wall * self.REF_S * len(inside) / sum(inside), wall, cpu)


class SolverHook:
    """Notes when the program enters a CG solver, times the solve with the
    speed probe and keeps the call, so it can be repeated."""

    NAMES = ("cg_solve", "cgnr_solve")

    def __init__(self, h2, probe):
        self.h2 = h2
        self.probe = probe
        self.entry = self.call = self.result = self.sample = None
        self._saved = []

    def install(self):
        for name in self.NAMES:
            fn = getattr(self.h2, name, None)
            if fn is not None:
                self._saved.append((name, fn))
                setattr(self.h2, name, self._wrap(fn))

    def uninstall(self):
        for name, fn in self._saved:
            setattr(self.h2, name, fn)
        self._saved = []

    def _wrap(self, fn):
        def solver(apply, *args, **kwargs):
            def resolve(op):
                return fn(op, *args, **kwargs)

            self.call = (resolve, apply)
            self.entry = stamp()
            self.result, self.sample = self.probe.timed(resolve, apply)
            return self.result
        return solver


# setup and tts are (start, end) stamps, solve is (scaled, wall, CPU) seconds
# (see SpeedProbe); resolve(op) repeats the solver call on the operator op
# and returns its CGResult, x is the solve's solution
Outcome = namedtuple("Outcome", "setup solve tts l2_err cg_iters "
                                "storage_mib apply resolve x hm problems")


def run_solve_command(gc, wl, level, mesh_path, inputs, threads, workdir,
                      probe):
    """`greencross solve` in this process, timed at the solver entry."""
    out = os.path.join(workdir, "solve.csv")
    argv = ["solve", "--mesh", mesh_path, "--out", out,
            "--level", str(level), "--geometry", wl.geometry,
            "--basis", wl.basis, "--disc", wl.disc, "--eta", repr(ETA),
            "--green-order", str(GREEN_M), "--delta-factor", repr(DELTA),
            "--aca-eps", repr(ACA_EPS), "--leaf-size", str(LEAF),
            "--q-reg", str(wl.orders[0]), "--q-sing", str(wl.orders[1]),
            "--cg-tol", repr(CG_TOL), "--threads", str(threads),
            "--source=" + ",".join(repr(float(c)) for c in inputs.source)]
    hook = SolverHook(gc.h2, probe)
    hook.install()
    try:
        t0 = stamp()
        with contextlib.redirect_stdout(sys.stderr):
            rc = gc.cli.main(argv)
        t1 = stamp()
    finally:
        hook.uninstall()
    if rc != 0:
        raise BenchError("solve exited with code %d" % rc)
    if hook.entry is None:
        raise BenchError("solve never entered a CG solver")
    resolve, apply = hook.call
    with open(out, newline="") as fh:
        row = next(csv.DictReader(fh))
    iters = int(row["cg_iters"])
    problems = ["CG hit its iteration cap"] if iters < 0 else []
    return Outcome(setup=(t0, hook.entry), solve=hook.sample, tts=(t0, t1),
                   l2_err=float(row["l2_err"]),
                   cg_iters=iters,
                   storage_mib=int(row["storage_bytes"]) / 2.0 ** 20,
                   apply=apply, resolve=resolve,
                   x=hook.result.x, hm=None, problems=problems)


def load_vector(gc, np, mesh, source, q=4):
    """Constant-basis Galerkin load: integral of the point-source potential
    over each triangle."""
    pts, wts = gc.quadrature.triangle_gauss(q)
    pack = gc.geometry.chart_pack(mesh)
    xq = np.einsum("ma,tac->tmc", gc.geometry.shape_functions(pts),
                   pack.nodes)
    v = 1.0 / (4.0 * np.pi * np.linalg.norm(xq - source, axis=-1))
    return (v * wts[None, :]).sum(axis=1) * pack.gram


def density_l2_error(gc, np, mesh, sigma, source, q=4):
    """Surface L2 error of a constant single-layer density for Dirichlet
    data of a point source outside the unit sphere.

    The exact density is (|s|^2 - 1) / (4 pi |x - s|^3), the jump of the
    normal derivatives of the interior solution and its Kelvin image; it is
    evaluated at the radial projection of each quadrature point, so plane
    meshes pay their geometry error, as in `greencross solve`.
    """
    pts, wts = gc.quadrature.triangle_gauss(q)
    pack = gc.geometry.chart_pack(mesh)
    xq = np.einsum("ma,tac->tmc", gc.geometry.shape_functions(pts),
                   pack.nodes)
    proj = xq / np.linalg.norm(xq, axis=-1, keepdims=True)
    exact = (source @ source - 1.0) / (
        4.0 * np.pi * np.linalg.norm(proj - source, axis=-1) ** 3)
    w = pack.gram[:, None] * wts[None, :]
    return float(np.sqrt(np.sum(w * (sigma[:, None] - exact) ** 2)))


def run_h2_build(gc, np, wl, level, mesh_path, inputs, threads, probe):
    """Build the GCA-H2 operator and solve the indirect single-layer
    Dirichlet equation V sigma = g with it by CG."""
    cfg = gc.cli.ExperimentConfig(
        level=level, geometry=wl.geometry, basis=wl.basis, disc=wl.disc,
        eta=ETA, m=GREEN_M, delta_factor=DELTA, eps=ACA_EPS, leaf_size=LEAF,
        q_reg=wl.orders[0], q_sing=wl.orders[1], lam=0.5,
        source=tuple(float(c) for c in inputs.source), seed=0)
    t0 = stamp()
    mesh = gc.cli.load_mesh(mesh_path, cfg)
    t1 = stamp()
    hm, _, _ = gc.cli.build_h2_operator(mesh, cfg, threads=threads)
    t2 = stamp()
    g = load_vector(gc, np, mesh, inputs.source)
    apply = gc.h2.as_operator(hm)
    def resolve(op):
        return gc.h2.cg_solve(op, g, tol=CG_TOL, max_iter=len(g))

    res, solve = probe.timed(resolve, apply)
    l2 = density_l2_error(gc, np, mesh, res.x, inputs.source)
    t5 = stamp()
    iters = len(res.residuals) - 1
    problems = []
    if not res.converged:
        iters = -iters
        problems.append("CG hit its iteration cap")
    return Outcome(setup=(t1, t2), solve=solve, tts=(t0, t5),
                   l2_err=l2, cg_iters=iters,
                   storage_mib=gc.h2.storage_report(hm)["total"] / 2.0 ** 20,
                   apply=apply, resolve=resolve, x=res.x, hm=hm,
                   problems=problems)


Measured = namedtuple("Measured", "first last setup solve tts apply ops "
                                  "mismatches body_calls")


def measure(np, body, vectors, seconds, probe, tr=None):
    """Run the workload's body in rounds for ``seconds``, at least
    MIN_ROUNDS times.

    A round is one call of ``body`` (set-up, solve, error), the repeated
    solves that fit in SOLVE_CHUNK_S, and APPLY_CHUNK_S of alternating H x
    and H^T y.  Each round frees the previous round's operator first.
    Returns the first and last rounds' outcomes; the median (scaled, wall,
    CPU) seconds of set-up, of the whole body, of one solve (every round's
    and every repeat) and of one application; the number of operations and
    how many differed bitwise from the first round's solution or the first
    application of the same vector.  A trace ``tr`` covers the first round
    only; ``body_calls`` are its call counts at the end of that body.
    """
    first = out = body_calls = None
    setups, solves, ttss, apps = [], [], [], []
    first_app = [None, None]
    mismatches = 0
    stop = time.perf_counter() + seconds
    while len(setups) < MIN_ROUNDS or time.perf_counter() < stop:
        out = None
        out = body()
        if first is None:
            # keep the first round's results, not its operator
            first = out._replace(apply=None, resolve=None, hm=None)
            if tr is not None:
                body_calls = tr.call_counts()
        else:
            mismatches += not np.array_equal(out.x, first.x)
        setups.append(out.setup)
        solves.append(out.solve)
        ttss.append(out.tts)
        chunk = time.perf_counter() + SOLVE_CHUNK_S
        while time.perf_counter() + solves[-1][1] < chunk:
            res, sample = probe.timed(out.resolve, out.apply)
            solves.append(sample)
            mismatches += not np.array_equal(res.x, first.x)
        chunk = time.perf_counter() + APPLY_CHUNK_S
        taken = 0
        while taken < MIN_CHUNK_PAIRS or time.perf_counter() < chunk:
            got, sample = probe.timed(lambda: (out.apply(vectors[0]),
                                               out.apply(vectors[1], True)))
            apps.append(tuple(t / 2.0 for t in sample))
            taken += 1
            for k in (0, 1):
                if first_app[k] is None:
                    first_app[k] = got[k]
                else:
                    mismatches += not np.array_equal(got[k], first_app[k])
        if tr is not None:
            tr.uninstall()
            tr = None

    def median(samples):
        return tuple(statistics.median(p[i] for p in samples)
                     for i in range(len(samples[0])))

    # the background readings of the last span must be in before scaling
    time.sleep(2 * probe.PERIOD_S)
    setups = [probe.span(*ab) for ab in setups]
    ttss = [probe.span(*ab) for ab in ttss]
    return Measured(first=first, last=out, setup=median(setups),
                    solve=median(solves), tts=median(ttss),
                    apply=median(apps),
                    ops=len(solves) + 2 * len(apps), mismatches=mismatches,
                    body_calls=body_calls)


# ---------------------------------------------------------------------------
# checks and reference work (never timed)


def sampled_row_error(gc, np, wl, mesh, apply, inputs, threads):
    """max over H and H^T of ||(H X)_S - A_S X||_F / ||A_S X||_F, floored
    at REL_ERR_FLOOR.

    The exact rows A_S come from dense block assembly.  H^T needs the
    columns A[:, S]: the same block when S holds every row, the transposed
    rows for Galerkin (the single-layer form is symmetric), and one more
    block for collocation.
    """
    X = inputs.check
    n = X.shape[0]
    S = inputs.rows
    everything = np.arange(n)
    if wl.disc == "collocation":
        block = gc.assembly.assemble_collocation_block
    else:
        block = gc.assembly.assemble_galerkin_block
    rows = block("slp", mesh, wl.basis, S, everything, orders=wl.orders,
                 threads=threads).values
    if len(S) == n:
        cols = rows
    elif wl.disc == "galerkin":
        cols = rows.T
    else:
        cols = block("slp", mesh, wl.basis, everything, S, orders=wl.orders,
                     threads=threads).values
    errs = []
    for trans, exact in ((False, rows @ X), (True, cols.T @ X)):
        approx = np.stack([apply(x, trans) for x in X.T], axis=1)[S]
        errs.append(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
    return max(float(max(errs)), REL_ERR_FLOOR)


def pivot_identity_failures(np, hm):
    """Basis nodes whose interpolation matrix is not I on its pivots.

    Leaves carry V directly; an internal node's V restricted to its
    children's pivot rows is the stack of the children's transfers.
    """
    bad = checked = 0
    for basis, tree in ((hm.row_basis, hm.row_tree),
                        (hm.col_basis, hm.col_tree)):
        inv = np.empty(len(tree.perm), dtype=np.intp)
        inv[tree.perm] = np.arange(len(tree.perm))
        for bn in basis.nodes():
            if bn.children:
                rows = np.concatenate([k.pivots for k in bn.children])
                mat = np.vstack([k.transfer for k in bn.children])
                order = np.argsort(rows)
                local = order[np.searchsorted(rows, bn.pivots, sorter=order)]
            else:
                mat = bn.v
                local = inv[bn.pivots] - bn.cluster.start
            checked += 1
            if not np.array_equal(mat[local], np.eye(bn.rank)):
                bad += 1
    return bad, checked


def dense_mvm_ms(np, n, seed, repeats=5):
    """Median wall of a dense numpy matvec at the operator's size."""
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    x = rng.standard_normal(n)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ x
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


# ---------------------------------------------------------------------------
# per-layer metrics from the trace


def layer_metrics(np, gc, tr, body_calls, wall_s, threads, n, dense_pairs):
    """Per-layer metric values; None marks a metric whose source is gone.

    Times and counts cover the first round of the measuring window (body,
    repeated solves, applications), except ``h2.mvm_calls``, which counts
    the body only (``body_calls``), and ``h2.solver_self_s``, which is per
    solver call.
    """
    def span(names, field):
        hits = [tr.spans[s] for s in names if s in tr.spans]
        if not hits:
            return None
        return sum(getattr(s, field) for s in hits)

    def median_ms(name):
        s = tr.spans.get(name)
        if s is None:
            return None
        return 1e3 * statistics.median(s.durations) if s.durations else 0.0

    vals = {name: span(*src) for name, src in SPAN_METRICS.items()}
    solvers = [tr.spans[s] for s in ("h2.cg_solve", "h2.cgnr_solve")
               if s in tr.spans]
    if solvers:
        calls = sum(s.calls for s in solvers)
        vals["h2.solver_self_s"] = (sum(s.self_s for s in solvers) / calls
                                    if calls else 0.0)
    mvm = [s for s in ("h2.mvm", "h2.mvm_t") if s in body_calls]
    vals["h2.mvm_calls"] = (sum(body_calls[s] for s in mvm) if mvm
                            else None)
    vals["h2.mvm_ms"] = median_ms("h2.mvm")
    vals["h2.mvm_t_ms"] = median_ms("h2.mvm_t")
    vals["trace.wall_s"] = wall_s
    vals["trace.calls"] = tr.total_calls()

    hm = tr.returns.get("gca.build_h2")
    stats = getattr(hm, "exec_stats", None)
    if stats is not None:
        per_case = {st["case"]: st for st in stats}
        for c, case in enumerate(CASES):
            st = per_case.get(c, {})
            vals["batchexec.eval_s.%s" % case] = float(st.get("wall_s", 0.0))
            vals["batchexec.tasks.%s" % case] = int(st.get("tasks", 0))
            vals["batchexec.batches.%s" % case] = int(st.get("batches", 0))
        eval_s = sum(float(st["wall_s"]) for st in stats)
        tasks = sum(int(st["tasks"]) for st in stats)
        if vals["gca.build_h2_s"]:
            vals["batchexec.busy_frac"] = eval_s / (threads
                                                    * vals["gca.build_h2_s"])
        vals["assembly.tasks_per_dense_pair"] = tasks / float(dense_pairs)
    if hm is not None:
        rep = getattr(gc.h2, "storage_report", None)
        if rep is not None:
            rep = rep(hm)
            for cat in ("leaf_bases", "transfers", "couplings", "nearfield"):
                if cat in rep:
                    vals["h2.storage.%s_mib" % cat] = rep[cat] / 2.0 ** 20
        nodes = hm.row_basis.nodes() + hm.col_basis.nodes()
        vals["gca.rank_sum"] = sum(bn.rank for bn in nodes)
        leaves = [bn.rank / bn.cluster.size for bn in nodes
                  if not bn.children]
        vals["gca.leaf_rank_ratio"] = float(np.mean(leaves)) if leaves else 0.0
        vals["clustering.admissible_leaves"] = len(hm.coupling)
        vals["clustering.nearfield_leaves"] = len(hm.nearfield)
    vals["h2.dense_mvm_ms"] = dense_mvm_ms(np, n, 0)
    return {name: vals.get(name) for name in LAYER_METRICS}


# ---------------------------------------------------------------------------
# entry point


def import_program():
    """numpy and the greencross modules, from this checkout's sources only."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "greencross", "__init__.py")):
        raise ImportError("no greencross package under %s" % src)
    sys.path.insert(0, src)
    import numpy as np
    from greencross import assembly, cli, geometry, h2, quadrature
    gc = argparse.Namespace(assembly=assembly, cli=cli, geometry=geometry,
                            h2=h2, quadrature=quadrature)
    return np, gc


def run(args):
    try:
        np, gc = import_program()
    except ImportError as exc:
        print("cannot import the program: %s" % exc, file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    level = SMOKE_LEVEL if args.smoke else wl.level
    threads = nproc()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        mesh_path = os.path.join(workdir, "sphere.msh")
        n, dense_pairs = write_mesh(gc.geometry, wl, level, mesh_path)
        inputs = make_inputs(np, args.seed, n, wl.check_rows)

        tr = None
        if args.trace:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from layertrace import LayerTrace
            tr = LayerTrace()
            tr.keep_return("gca.build_h2")
            tr.install()
        probe = SpeedProbe(np)
        probe.start()
        if wl.command:
            def body():
                return run_solve_command(gc, wl, level, mesh_path, inputs,
                                         threads, workdir, probe)
        else:
            def body():
                return run_h2_build(gc, np, wl, level, mesh_path, inputs,
                                    threads, probe)
        try:
            m = measure(np, body, inputs.apply, args.seconds, probe, tr)
        finally:
            probe.stop()
            if tr is not None:
                tr.uninstall()
        peak_rss_mib = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

        out = m.first
        mesh = gc.geometry.read_mesh(mesh_path)
        rel_err = sampled_row_error(gc, np, wl, mesh, m.last.apply, inputs,
                                    threads)
        problems = list(out.problems)
        if m.last.hm is not None:
            bad, checked = pivot_identity_failures(np, m.last.hm)
            if bad:
                problems.append("V|pivots != I on %d of %d basis nodes"
                                % (bad, checked))
        anchors = ANCHORS[args.workload][level]
        for name, value, anchor in zip(("l2_err", "rel_err"),
                                       (out.l2_err, rel_err), anchors):
            if value > anchor:
                problems.append("%s %.6g above its anchor %.6g"
                                % (name, value, anchor))
        for p in problems:
            print("check failed: %s" % p, file=sys.stderr)

        print("env " + json.dumps(env_record(np, threads), sort_keys=True))
        print("outputs " + json.dumps({
            "l2_err": repr(out.l2_err), "cg_iters": out.cg_iters,
            "storage_mib": repr(out.storage_mib), "rel_err": repr(rel_err)},
            sort_keys=True))
        for i, tag in ((1, "wall"), (2, "cpu")):
            print(tag + " " + json.dumps({
                "setup_s": m.setup[i], "solve_s": m.solve[i],
                "time_to_solution_s": m.tts[i],
                "apply_ms": 1e3 * m.apply[i]}))
        if tr is None:
            values = {
                "setup_s": m.setup[0], "solve_s": m.solve[0],
                "time_to_solution_s": m.tts[0],
                "apply_ms": 1e3 * m.apply[0],
                "peak_rss_mib": peak_rss_mib,
                "storage_mib": out.storage_mib, "rel_err": rel_err,
                "l2_err": out.l2_err, "cg_iters": abs(out.cg_iters)}
            units = END_TO_END_UNITS
        else:
            values = layer_metrics(np, gc, tr, m.body_calls,
                                   since(*out.tts)[0],
                                   threads, n, dense_pairs)
            units = {k: u for k, (u, _) in LAYER_METRICS.items()}
            absent = sorted(k for k, v in values.items() if v is None)
            if absent:
                print("absent " + json.dumps(absent))
            with open(os.path.join(WORK, "trace-%s-seed%d.json"
                                   % (args.workload, args.seed)), "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "level": level, "spans": tr.table(),
                           "metrics": values}, fh, indent=1, sort_keys=True)
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in values.items() if v is not None}
        failed = (1 if problems else 0) + m.mismatches
        print(json.dumps({"correct": failed == 0,
                          "attempted": m.ops, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measuring window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="level-%d meshes, for the self-test" % SMOKE_LEVEL)
    args = p.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
