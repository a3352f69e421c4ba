#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark (level-2 meshes, a few seconds).

From the repository root:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and run.py name the same metrics with the same
units; that every workload, untraced, emits every end-to-end metric with
its unit and passes its correctness checks; that the traced run emits every
per-layer metric (or lists it as absent) and reproduces the untraced run's
non-timing outputs exactly; that a per-layer metric whose program function
is missing is reported as absent; and that the benchmark refuses to run,
without printing a result, when the program's sources are not there.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
ENV_KEYS = {"git_rev", "nproc", "threads", "machine", "python", "numpy",
            "blas"}


def check(ok, what):
    if not ok:
        print("FAIL: %s" % what)
        sys.exit(1)
    print("ok: %s" % what)


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0.2",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    tagged = {}
    for line in proc.stdout.splitlines():
        tag, _, rest = line.partition(" ")
        if tag in ("env", "outputs", "absent"):
            tagged[tag] = json.loads(rest)
    return proc, tagged


def check_spec(spec):
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(e2e == run.END_TO_END_UNITS,
          "BENCHMARK.json end-to-end metrics match run.py")
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    check(layers == run.LAYER_METRICS,
          "BENCHMARK.json per-layer metrics match run.py")
    check({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS),
          "BENCHMARK.json workloads exist in run.py")


def check_workload(workload, spec):
    results = {}
    for trace in (0, 1):
        proc, tagged = bench(workload, trace)
        if proc.returncode:
            print(proc.stderr[-2000:])
        check(proc.returncode == 0, "%s trace %d exits 0" % (workload, trace))
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        check(set(res) == RESULT_KEYS, "%s trace %d result keys"
              % (workload, trace))
        check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
              "%s trace %d passes its checks" % (workload, trace))
        check(ENV_KEYS <= set(tagged.get("env", {})),
              "%s trace %d records the environment" % (workload, trace))
        group = spec["per_layer"] if trace else spec["end_to_end"]
        want = {m["name"]: m["unit"] for m in group}
        got = {k: m["unit"] for k, m in res["metrics"].items()}
        absent = set(tagged.get("absent", []))
        check(set(got) | absent == set(want) and not set(got) & absent,
              "%s trace %d emits every metric or lists it absent (absent: "
              "%s)" % (workload, trace, sorted(absent)))
        check(all(got[k] == want[k] for k in got),
              "%s trace %d units" % (workload, trace))
        check(all(isinstance(m["value"], (int, float))
                  for m in res["metrics"].values()),
              "%s trace %d values are numbers" % (workload, trace))
        results[trace] = tagged.get("outputs")
    check(results[0] is not None and results[0] == results[1],
          "%s traced outputs equal untraced: %s" % (workload, results[0]))


def check_absent_function():
    """A deleted program function turns its metrics absent, not an error."""
    np, gc = run.import_program()
    from layertrace import LayerTrace
    saved = gc.assembly.mass_block
    del gc.assembly.mass_block
    try:
        tr = LayerTrace()
        tr.keep_return("gca.build_h2")
        tr.install()
        tr.uninstall()
    finally:
        gc.assembly.mass_block = saved
    check("assembly.mass_block" not in tr.spans
          and "assembly.triangle_table" in tr.spans,
          "trace wraps only functions that exist")
    vals = run.layer_metrics(np, gc, tr, tr.call_counts(), 1.0, 1, 4, 16)
    check(vals["assembly.mass_s"] is None and vals["gca.rank_sum"] is None
          and vals["assembly.triangle_table_calls"] == 0,
          "metrics of missing functions or results are absent")


def check_refuses_without_program():
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, _ = bench("h2-const-l5", 0, cwd=tmp)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        check(proc.returncode != 0 and not last.startswith("{"),
              "refuses without the program (exit %d)" % proc.returncode)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(run.WORK, exist_ok=True)
    check_spec(spec)
    check_absent_function()
    check_refuses_without_program()
    # the workloads BENCHMARK.json leaves out are smoke-tested too
    for name in run.WORKLOADS:
        check_workload(name, spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
