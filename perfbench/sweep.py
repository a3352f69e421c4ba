#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

From the repository root:

    python3 perfbench/sweep.py --seeds 1-10 --traced-seed 1 \\
        --out .bench_work/sweep-a.jsonl
    python3 perfbench/sweep.py --summarize .bench_work/sweep-b.jsonl \\
        --against .bench_work/sweep-a.jsonl

Each run is its own process (`perfbench/run.py`), one after another.  For
every workload and end-to-end metric the summary prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json.  With a traced seed it also
checks that the traced run's non-timing outputs equal the untraced run's
and prints the tracing overhead: the traced first round's wall minus the
median raw wall of time_to_solution_s (the ``wall`` line) of the untraced
runs.  ``--against FIRST`` reports, per
metric, how much the summarized set's median is above FIRST's, as a share
of FIRST's median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    rec = {"workload": workload, "seed": seed, "trace": trace,
           "rc": proc.returncode, "wall_s": time.perf_counter() - t0}
    for line in proc.stdout.splitlines():
        for tag in ("env", "outputs", "wall", "cpu", "absent"):
            if line.startswith(tag + " "):
                rec[tag] = json.loads(line[len(tag) + 1:])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        rec["result"] = json.loads(lines[-1])
    else:
        rec["stderr"] = proc.stderr[-2000:]
    return rec


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def medians(records, workload):
    out = {}
    for rec in records:
        if rec["workload"] != workload or rec["trace"] or "result" not in rec:
            continue
        for name, m in rec["result"]["metrics"].items():
            out.setdefault(name, []).append(m["value"])
    return out


def summarize(records, spec, against=None):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for wl in [w["name"] for w in spec["workloads"]]:
        runs = [r for r in records if r["workload"] == wl and not r["trace"]]
        if not runs:
            continue
        bad = [r for r in runs if "result" not in r
               or not r["result"]["correct"]]
        attempted = sum(r["result"]["attempted"] for r in runs
                        if "result" in r)
        failed = sum(r["result"]["failed"] for r in runs if "result" in r)
        print("%s: %d runs, %d bad, %d/%d operations failed, run wall "
              "median %.1fs" % (wl, len(runs), len(bad), failed, attempted,
                                statistics.median(r["wall_s"] for r in runs)))
        vals = medians(records, wl)
        other = medians(against, wl) if against else {}
        for name, bound in bounds.items():
            v = vals.get(name, [])
            if len(v) < 2:
                print("  %-20s %d values" % (name, len(v)))
                continue
            med, q1, q3, sp = spread(v)
            line = ("  %-20s median %-12.6g q1 %-12.6g q3 %-12.6g spread "
                    "%.4f bound %.2f %s" % (name, med, q1, q3, sp, bound,
                                            "" if sp <= bound / 3 else
                                            "WIDE" if sp <= bound else
                                            "OVER"))
            if other.get(name):
                drift = med / statistics.median(other[name]) - 1.0
                line += "  drift %+.4f%s" % (drift, " OVER" if drift > bound
                                             else "")
            print(line)
        for rec in [r for r in records if r["workload"] == wl and r["trace"]]:
            if "result" not in rec:
                print("  traced seed %d failed: %s"
                      % (rec["seed"], rec.get("stderr", "")))
                continue
            twin = [r for r in runs if r["seed"] == rec["seed"]]
            same = "no untraced twin"
            if twin:
                same = ("outputs equal" if twin[0].get("outputs")
                        == rec.get("outputs") else "OUTPUTS DIFFER")
            wall = rec["result"]["metrics"]["trace.wall_s"]["value"]
            base = statistics.median(r["wall"]["time_to_solution_s"]
                                     for r in runs if "wall" in r)
            print("  traced seed %d: %s; overhead %.3fs (%.1f%% of %.3fs); "
                  "absent %s" % (rec["seed"], same, wall - base,
                                 100.0 * (wall - base) / base, base,
                                 rec.get("absent", [])))


def read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main(argv=None):
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--traced-seed", type=int, default=None)
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_work",
                                                 "sweep.jsonl"))
    p.add_argument("--summarize", metavar="JSONL",
                   help="summarize saved records instead of running")
    p.add_argument("--against", metavar="JSONL",
                   help="earlier set whose medians are compared")
    args = p.parse_args(argv)
    against = read_records(args.against) if args.against else None
    if args.summarize:
        summarize(read_records(args.summarize), spec, against)
        return 0
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    records = []
    # seeds outer, workloads inner: every workload's runs span the sweep
    jobs = [(wl, seed, 0) for seed in parse_seeds(args.seeds)
            for wl in args.workloads.split(",")]
    if args.traced_seed is not None:
        jobs += [(wl, args.traced_seed, 1)
                 for wl in args.workloads.split(",")]
    with open(args.out, "w") as fh:
        for wl, seed, trace in jobs:
            rec = run_once(wl, seed, args.seconds, trace)
            records.append(rec)
            fh.write(json.dumps(rec) + "\n")
            fh.flush()
            print("%s seed %d trace %d: rc %d, %.1fs"
                  % (wl, seed, trace, rec["rc"], rec["wall_s"]),
                  file=sys.stderr)
    summarize(records, spec, against)
    return 0


if __name__ == "__main__":
    sys.exit(main())
