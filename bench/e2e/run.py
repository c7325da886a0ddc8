#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/e2e/run.py --smoke

Run from the repository root. The benchmark package (this directory)
is configured and built into $CARGO_TARGET_DIR/e2e, or .bench_build/e2e
when that variable is unset; later runs reuse the build. A run is a few
sequential maabe-bench processes with MAABE_THREADS=1: two that only
time a cold setup, then the measured one. Its summary is echoed,
a result file stamped with provenance is written next to the build, and
the last line printed is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the spans go to trace-<workload>.jsonl in the results
directory and must pass trace-lint. --smoke runs every workload
briefly on the small test curve plus one traced run, and checks that
each prints every metric BENCHMARK.json lists. Exit status is 0 only
when the build, the run and every correctness check succeeded.
"""

import argparse
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
ENGINE_THREADS = "1"
RUN_BUDGET_S = 170  # for all processes of one run, after the build
SETUPS = 3
BUILD_BUDGET_S = 700  # configure and build; with one run, within 900 s
WORKLOADS = ["read-wide", "read-hot", "membership"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, deadline, **kwargs):
    """subprocess.run in a process group of its own, with text output.

    When `deadline` (time.monotonic()) passes, or run.py is interrupted or
    terminated, the whole group, a build's compilers included, is killed
    and reaped before the exception goes on.
    """
    with subprocess.Popen(cmd, text=True, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the group had already ended
            proc.communicate()
            raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2e")


def build(bdir):
    """Configures (once) and builds maabe-bench and trace-lint."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("repository sources not found under " + ROOT)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "maabe-bench", "trace-lint"])
    deadline = time.monotonic() + BUILD_BUDGET_S
    for cmd in steps:
        proc = run(cmd, deadline, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))


def cache_value(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler(bdir):
    """'<id> <version>' from CMake's compiler record, e.g. 'GNU 12.2.0'."""
    found = {}
    for path in glob.glob(os.path.join(bdir, "CMakeFiles", "*", "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            for line in f:
                for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                    if line.startswith('set(%s "' % key):
                        found[key] = line.split('"')[1]
    return " ".join(found.get(k, "unknown")
                    for k in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"))


def git_describe():
    # The ceiling keeps git from reading a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=30, env=env)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def listed_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return []
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def invoke(cmd, cwd, deadline):
    """Runs maabe-bench; returns (exit code, stdout lines, result or None)."""
    env = dict(os.environ, MAABE_THREADS=ENGINE_THREADS)
    proc = run(cmd, deadline, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.splitlines()
    try:
        return proc.returncode, lines, json.loads(lines[-1])
    except (IndexError, ValueError):
        log("maabe-bench printed no result (exit %d)" % proc.returncode)
        return proc.returncode or 1, lines, None


def run_once(bdir, workload, seed, seconds, trace, small=False):
    """One benchmark run; returns (exit code, result dict or None).

    An untraced run is SETUPS processes: SETUPS - 1 that only time the
    setup, then the measured one. setup_s is the median of their setups,
    each a cold start in a fresh process.
    """
    deadline = time.monotonic() + RUN_BUDGET_S
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-%d%s%s" % (workload, seed, "-trace" if trace else "", "-small" if small else "")
    # One trace file per workload: a later traced run replaces it.
    trace_path = os.path.join(results, "trace-%s%s.jsonl" % (workload, "-small" if small else ""))
    cmd = [os.path.join(bdir, "maabe-bench"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--trace-out", trace_path]
    if small:
        cmd.append("--small")
    setups = []
    for _ in range(0 if trace else SETUPS - 1):
        code, _, result = invoke(cmd + ["--setup-only"], results, deadline)
        if result is None or code != 0:
            return code or 1, None
        setups.append(result["metrics"]["setup_s"]["value"])
    code, lines, result = invoke(cmd, results, deadline)
    for line in lines[:-1]:
        print(line)
    if result is None:
        return code, None
    if not trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)

    problems = ["missing metric " + m for m in listed_metrics(trace)
                if m not in result["metrics"]]
    if trace:
        lint = run([os.path.join(bdir, "trace-lint"), trace_path], deadline,
                   stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        log(lint.stdout.rstrip())
        if lint.returncode != 0:
            problems.append("trace-lint failed")
    for p in problems:
        log("run.py: " + p)
    if problems:
        result["correct"] = False

    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "curve": "test_small" if small else "pbc_a512",
        "nproc": os.cpu_count(), "MAABE_THREADS": ENGINE_THREADS,
        "build_type": cache_value(bdir, "CMAKE_BUILD_TYPE"),
        "compiler": compiler(bdir),
        "machine": platform.machine(), "git_describe": git_describe(),
    }
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump({"provenance": provenance, "setup_samples_s": setups, "result": result,
                   "summary": lines[:-1]}, f, indent=1)
    if code == 0 and not result["correct"]:
        code = 1
    return code, result


def smoke(bdir):
    """Every workload briefly on the small curve, plus one traced run."""
    failures = 0
    runs = [(w, False) for w in WORKLOADS] + [("membership", True)]
    for workload, trace in runs:
        try:
            code, result = run_once(bdir, workload, 1, 2.0, trace, small=True)
        except subprocess.TimeoutExpired:
            code, result = 3, None
        ok = code == 0 and result is not None and result["correct"]
        log("smoke %-10s trace=%d: %s" % (workload, trace, "ok" if ok else "FAILED"))
        failures += not ok
    return 1 if failures else 0


def terminated(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, terminated)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    try:
        build(bdir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("run.py: %s" % e)
        return 2
    if args.smoke:
        return smoke(bdir)
    try:
        code, result = run_once(bdir, args.workload, args.seed, args.seconds, bool(args.trace))
    except subprocess.TimeoutExpired:
        log("run.py: the run exceeded %d s" % RUN_BUDGET_S)
        return 3
    if result is None:
        return code
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
