#!/usr/bin/env python3
"""Run sets of end-to-end benchmark runs and compare two sets.

    python3 bench/e2e/sets.py run DIR [--runs 5] [--seed 1] [--seconds 10]
                                      [--workload NAME ...]
    python3 bench/e2e/sets.py show DIR
    python3 bench/e2e/sets.py compare DIR_A DIR_B

A set is --runs rounds; each round runs every workload once, in turn,
each in a fresh process (run.py), with seed --seed + round. Every result
object is saved as DIR/<workload>-<seed>.json.

`show` prints, per workload and end-to-end metric, the median and
quartiles of a set and its spread: the distance between the quartiles
as a share of the median. `compare` prints both sets and the relative
change of the median from A to B, and judges it against the metric's
bound in BENCHMARK.json: FAIL when B is worse by more than the bound,
"unresolved" when either set's spread exceeds the bound (unless every
run of B reads better than every run of A), PASS otherwise. The exit
status is 1 when any pair FAILs.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_set(args):
    os.makedirs(args.dir, exist_ok=True)
    workloads = args.workload or [w["name"] for w in load_benchmark()["workloads"]]
    for r in range(args.runs):
        seed = args.seed + r
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: run failed (exit %d)" % (w, seed, proc.returncode))
                return 1
            with open(os.path.join(args.dir, "%s-%d.json" % (w, seed)), "w") as f:
                f.write(lines[-1] + "\n")
            print("%s seed %d: done" % (w, seed), flush=True)
    return 0


def load_set(path):
    """{workload: {metric: [values]}} from a set directory."""
    out = {}
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        workload = os.path.basename(name).rsplit("-", 1)[0]
        with open(name) as f:
            result = json.load(f)
        for metric, m in result["metrics"].items():
            out.setdefault(workload, {}).setdefault(metric, []).append(m["value"])
    return out


def summary(values):
    """(median, q1, q3, spread) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def show(args):
    bench = load_benchmark()
    data = load_set(args.dir)
    for w in [x["name"] for x in bench["workloads"]]:
        for m in bench["end_to_end"]:
            values = data.get(w, {}).get(m["name"], [])
            if not values:
                print("%-10s %-16s no runs" % (w, m["name"]))
                continue
            med, q1, q3, spread = summary(values)
            print("%-10s %-16s median %12.4f [%12.4f, %12.4f] %-6s n=%d spread %5.1f%% "
                  "(bound %4.1f%%)" % (w, m["name"], med, q1, q3, m["unit"], len(values),
                                       100 * spread, 100 * m["bound"]))
    return 0


def compare(args):
    bench = load_benchmark()
    a, b = load_set(args.a), load_set(args.b)
    failed = 0
    for w in [x["name"] for x in bench["workloads"]]:
        for m in bench["end_to_end"]:
            va = a.get(w, {}).get(m["name"], [])
            vb = b.get(w, {}).get(m["name"], [])
            if not va or not vb:
                print("%-10s %-16s missing runs" % (w, m["name"]))
                continue
            ma, a1, a3, sa = summary(va)
            mb, b1, b3, sb = summary(vb)
            rel = (mb - ma) / ma if ma else 0.0
            worse = -rel if m["better"] == "higher" else rel
            b_always_better = (min(vb) > max(va)) if m["better"] == "higher" else \
                (max(vb) < min(va))
            if max(sa, sb) > m["bound"] and not b_always_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "FAIL"
                failed += 1
            else:
                verdict = "PASS"
            print("%-10s %-16s A %11.4f [%11.4f, %11.4f]  B %11.4f [%11.4f, %11.4f]  "
                  "%+6.1f%%  bound %4.1f%%  %s" % (w, m["name"], ma, a1, a3, mb, b1, b3,
                                                   100 * rel, 100 * m["bound"], verdict))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("dir")
    r.add_argument("--runs", type=int, default=5)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--seconds", type=float, default=10.0)
    r.add_argument("--workload", action="append")
    s = sub.add_parser("show")
    s.add_argument("dir")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args()
    return {"run": run_set, "show": show, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
