#!/usr/bin/env python3
"""CI perf-regression gate over the BENCH_*.json artifacts.

Compares freshly emitted bench results against the committed repo-root
baselines and fails if any tracked *ratio* metric regresses by more than a
tolerance. Only ratios are gated: each one divides two timings measured in
the same run on the same machine, so it is stable across runner generations,
while absolute times (which vary wildly between runners) stay informational.

Tracked ratios:
  speedup_pipelined_vs_sequential   pipelined datagen over the seed
                                    parallel_for baseline
                                    (BENCH_datagen_throughput.json)
  fdfd_batched_vs_sequential        multi-RHS banded sweep over per-source
                                    solves at n=64 (BENCH_speedup.json)
  band_factorize_split_vs_reference split-complex banded factorization over
                                    the interleaved BandMatrix<cplx>
                                    reference at n=64 (BENCH_kernels.json)
  band_multi8_vs_loop8              one multi-RHS sweep over 8 per-RHS
                                    solves on the split factors at n=128
                                    (BENCH_kernels.json)
  conv2d_gemm_vs_direct             im2col+GEMM conv over the seed direct
                                    loops (BENCH_kernels.json)
  fdfd_coarse_vs_full               the Low-fidelity coarse-grid solve over
                                    the full High-fidelity solve at n=64
                                    (BENCH_speedup.json; gates the fidelity
                                    axis's cost ordering)
  fdfd_cached_resolve_vs_full       amortized re-solve against a cached
                                    factorization over the full
                                    assemble+factorize+solve at n=64
                                    (BENCH_speedup.json)
  fdfd_mixed_vs_double              fp32-factor + iterative-refinement direct
                                    solve over the double factorization at
                                    n=128 (BENCH_speedup.json)
  sparam_mixed_vs_double            the same mixed-precision win end-to-end
                                    on the S-parameter verification sweep
                                    (BENCH_speedup.json)
  serve_coalesced_vs_stampede       in-flight request coalescing over N
                                    identical cache-missing queries racing
                                    each other (BENCH_speedup.json; the
                                    coalesced run pays one surrogate forward
                                    where the stampede pays N)
  serve_obs_overhead                observability disabled over fully
                                    instrumented (metrics + per-request
                                    traces) on the coalesced stampede
                                    workload (BENCH_speedup.json; baseline
                                    sits near 1.0 — the gate fails if
                                    instrumentation cost leaves the noise)

Usage: check_bench_regression.py [fresh_dir] [baseline_dir]
  fresh_dir     directory with the just-emitted BENCH_*.json
                (default: bench-results)
  baseline_dir  directory with the committed baselines (default: .)

Environment:
  MAPS_BENCH_REGRESSION_TOL  allowed fractional regression before failing
                             (default 0.25 = a ratio may lose 25%; CI smoke
                             runs sample ~1 iteration per benchmark, so the
                             workflow passes a looser value)
  MAPS_BENCH_REGRESSION_MIN_RATIOS
                             minimum number of tracked ratios that must be
                             comparable, else fail (default 0: local
                             filtered runs may legitimately produce only a
                             subset; CI pins this to the full tracked count
                             so a benchmark rename or filter edit cannot
                             silently disable the gate)

Exit status: 0 when every comparable tracked ratio is within tolerance and
at least MIN_RATIOS were comparable (missing files/benchmarks warn and are
skipped); 1 on any regression or on too few comparable ratios.
"""

import json
import os
import sys


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"[bench-gate] warn: cannot read {path}: {e}")
        return None


def bench_time(doc, name):
    """real_time of a google-benchmark entry, or None."""
    if doc is None:
        return None
    for b in doc.get("benchmarks", []):
        if b.get("name") == name:
            return b.get("real_time")
    return None


def ratio_from_benchmarks(doc, numerator, denominator):
    """numerator_time / denominator_time — 'how many times faster is the
    denominator benchmark', i.e. bigger is better."""
    num = bench_time(doc, numerator)
    den = bench_time(doc, denominator)
    if num is None or den is None or den <= 0:
        return None
    return num / den


def ratio_from_key(doc, key):
    if doc is None:
        return None
    value = doc.get(key)
    return value if isinstance(value, (int, float)) and value > 0 else None


TRACKED = [
    {
        "name": "speedup_pipelined_vs_sequential",
        "file": "BENCH_datagen_throughput.json",
        "ratio": lambda doc: ratio_from_key(doc, "speedup_pipelined_vs_sequential"),
    },
    {
        "name": "fdfd_batched_vs_sequential",
        "file": "BENCH_speedup.json",
        "ratio": lambda doc: ratio_from_benchmarks(
            doc, "BM_FdfdSequentialMultiRhs/64", "BM_FdfdBatchedMultiRhs/64"),
    },
    {
        "name": "band_factorize_split_vs_reference",
        "file": "BENCH_kernels.json",
        "ratio": lambda doc: ratio_from_benchmarks(
            doc, "BM_BandedFactorizeReference/64", "BM_BandedFactorize/64"),
    },
    {
        "name": "band_multi8_vs_loop8",
        "file": "BENCH_kernels.json",
        "ratio": lambda doc: ratio_from_benchmarks(
            doc, "BM_BandedSolveLoop8/128", "BM_BandedSolveMulti8/128"),
    },
    {
        "name": "conv2d_gemm_vs_direct",
        "file": "BENCH_kernels.json",
        "ratio": lambda doc: ratio_from_benchmarks(
            doc, "BM_Conv2dDirectFwdBwd", "BM_Conv2dGemmFwdBwd"),
    },
    {
        "name": "fdfd_coarse_vs_full",
        "file": "BENCH_speedup.json",
        "ratio": lambda doc: ratio_from_benchmarks(
            doc, "BM_FdfdFullSolve/64", "BM_FdfdCoarseGridSolve/64"),
    },
    {
        "name": "fdfd_cached_resolve_vs_full",
        "file": "BENCH_speedup.json",
        "ratio": lambda doc: ratio_from_benchmarks(
            doc, "BM_FdfdFullSolve/64", "BM_FdfdCachedResolve/64"),
    },
    {
        "name": "fdfd_mixed_vs_double",
        "file": "BENCH_speedup.json",
        "ratio": lambda doc: ratio_from_benchmarks(
            doc, "BM_FdfdFullSolve/128", "BM_FdfdFullSolveMixed/128"),
    },
    {
        "name": "sparam_mixed_vs_double",
        "file": "BENCH_speedup.json",
        "ratio": lambda doc: ratio_from_benchmarks(
            doc, "BM_SparamSweep", "BM_SparamSweepMixed"),
    },
    {
        "name": "serve_coalesced_vs_stampede",
        "file": "BENCH_speedup.json",
        "ratio": lambda doc: ratio_from_benchmarks(
            doc, "BM_ServeStampede", "BM_ServeStampedeCoalesced"),
    },
    {
        "name": "serve_obs_overhead",
        "file": "BENCH_speedup.json",
        "ratio": lambda doc: ratio_from_benchmarks(
            doc, "BM_ServeObsOff", "BM_ServeObsInstrumented"),
    },
]


def main(argv):
    fresh_dir = argv[1] if len(argv) > 1 else "bench-results"
    baseline_dir = argv[2] if len(argv) > 2 else "."
    tol = float(os.environ.get("MAPS_BENCH_REGRESSION_TOL", "0.25"))
    min_ratios = int(os.environ.get("MAPS_BENCH_REGRESSION_MIN_RATIOS", "0"))

    failures = []
    compared = 0
    for metric in TRACKED:
        fresh = metric["ratio"](load_json(os.path.join(fresh_dir, metric["file"])))
        base = metric["ratio"](load_json(os.path.join(baseline_dir, metric["file"])))
        if fresh is None or base is None:
            print(f"[bench-gate] skip {metric['name']}: "
                  f"{'fresh' if fresh is None else 'baseline'} ratio unavailable")
            continue
        compared += 1
        floor = base * (1.0 - tol)
        status = "OK" if fresh >= floor else "REGRESSED"
        print(f"[bench-gate] {metric['name']}: fresh {fresh:.3f}x vs baseline "
              f"{base:.3f}x (floor {floor:.3f}x, tol {tol:.0%}) {status}")
        if fresh < floor:
            failures.append(metric["name"])

    if failures:
        print(f"[bench-gate] FAIL: regressed ratios: {', '.join(failures)}")
        return 1
    if compared < min_ratios:
        print(f"[bench-gate] FAIL: only {compared} of the required {min_ratios} "
              "tracked ratios were comparable — a rename or bench filter edit "
              "has disarmed the gate")
        return 1
    print(f"[bench-gate] PASS: {compared} tracked ratio(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
