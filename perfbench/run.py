#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, or prove steadiness.

Run from the repository root:

  python3 perfbench/run.py --workload predict_hit_wire --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --all [--trace 1]      # every workload, one seed
  python3 perfbench/run.py --steady 10 --workload invdes_job
  python3 perfbench/run.py --selftest

The first call builds the MAPS library, maps_cli and the benchmark runner
(Release) under .bench_build/perfbench; later calls rebuild incrementally.
A single run prints a build/run stamp, one line per metric and, as the last
line, {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "maps_perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        log("perfbench: no MAPS source tree next to the benchmark; nothing to build")
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "maps_perfbench", "maps_cli"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def commit_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """Digest of the sources the benchmark measures (the checkout may not be
    a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else [
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs]
        for p in sorted(paths):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, capture):
    workdir = os.path.join(ROOT, ".bench_build", "run", "%s-%d" % (workload, os.getpid()))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir, "--commit", commit_sha(),
           "--source-digest", source_digest()]
    if not capture:
        return subprocess.run(cmd).returncode, None
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, (result, proc.stdout)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steady(workload, runs, first_seed, trace):
    """Run one workload `runs` times on consecutive seeds and print each
    metric's median, quartiles and inter-quartile spread against its bound."""
    bench = spec()
    metrics = bench["per_layer"] if trace else bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for k in range(runs):
        seed = first_seed + k
        rc, (result, _) = run_once(workload, seed, bench["run_seconds"], trace, capture=True)
        if rc != 0 or result is None or not result.get("correct"):
            log("perfbench: run with seed %d failed (exit %d)" % (seed, rc))
            return 1
        for name, v in result["metrics"].items():
            values.setdefault(name, []).append(v["value"])
        log("seed %d: %s" % (seed, ", ".join(
            "%s=%.4g" % (m["name"], result["metrics"][m["name"]]["value"]) for m in metrics[:8])))
    print("%-34s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    worst = 0.0
    for m in metrics:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) >= 2 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = m.get("bound")
        flag = ""
        if bound is not None and m["name"] != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  OVER BOUND" if spread > bound else ("  > bound/3" if spread > bound / 3 else "")
        print("%-34s %12.6g %12.6g %12.6g %8.4f %8s%s" % (
            m["name"], med, q1, q3, spread, "-" if bound is None else "%.3f" % bound, flag))
    if not trace:
        print("worst spread / bound (setup_s excluded): %.3f" % worst)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload once")
    ap.add_argument("--steady", type=int, metavar="N", help="repeat --workload N times, seeds seed..seed+N-1")
    ap.add_argument("--selftest", action="store_true", help="run the harness self-tests")
    args = ap.parse_args()

    if not build():
        return 2
    if args.selftest:
        return subprocess.run([BINARY, "--selftest", os.path.join(HERE, "testdata")]).returncode
    if args.steady:
        if not args.workload:
            ap.error("--steady needs --workload")
        return steady(args.workload, args.steady, args.seed, args.trace)
    if args.all:
        seconds = args.seconds or spec()["run_seconds"]
        worst = 0
        for w in spec()["workloads"]:
            print("== %s" % w["name"], flush=True)
            rc, _ = run_once(w["name"], args.seed, seconds, args.trace, capture=False)
            worst = max(worst, rc)
        return worst
    if not args.workload or args.seconds is None:
        ap.error("--workload and --seconds are required")
    rc, _ = run_once(args.workload, args.seed, args.seconds, args.trace, capture=False)
    return rc


if __name__ == "__main__":
    sys.exit(main())
