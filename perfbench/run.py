#!/usr/bin/env python3
"""The bchyper benchmark: seeded workloads against the public API.

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src`` directory.  Workloads (see ``workloads.py``):

  quadrature   the three integral representations (thm3.1/3.5/3.8)
  identities   the series relations of ``verify all``, in its proportions
  eval-long    single pfq evaluations with long series

BENCHMARK.json lists quadrature and identities only.  eval-long runs
the same way, but its mpmath check costs about 3.3 times the measured
time, so runs long enough to be steady on a shared 2-core machine do
not fit the time allowed for a full set of runs.  kernels.series_sum
is measured on identities as well.

Each workload is a closed loop: one caller in one process, the next
case sent only after the previous one returns.  Inputs are generated
before each case; each output is checked right after its case,
outside the timed region.  A case fails when it raises (a typed
BCHyperError refusal included) or its output fails the check.

--trace 0 gives the end-to-end metrics: cases_per_s, case_p50_ms and
case_p95_ms, each the median over windows of whole stream periods
(about --seconds / 20 of busy time each) of the window's value, over
at least --seconds of busy time and --min-cases cases; peak_rss_mb;
and setup_s (median over nine fresh processes, five before the loop
and four after it, that import bchyper and run the first case).  fail_ratio is printed on its
own line and carried by `failed` / `attempted`.

--trace 1 runs a fixed prefix of the case stream twice, untraced and
then traced (spans written to perfbench/out/), and gives per-layer
metrics from the traced pass.  What each should move:

  quad.jacobi_rule_01.*        quadrature cases_per_s and case_p95_ms only
  kernels.series_sum_many.*    quadrature cases_per_s
  kernels.series_sum.*         eval-long case_p95_ms most, identities cases_per_s less
  hyper.*.self_s, identities.*.self_s
                               per-call overhead: identities cases_per_s,
                               eval-long case_p50_ms
  other kernels.*, coherent.*  identities
  suite.<id>.case_p50_ms       the workload holding that verify suite

Counts (calls, terms, lanes, lane_steps) repeat exactly for a seed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the
provenance, every metric with its unit, the sample count and the
fail ratio.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up probes before and after the measured loop, so that one busy
# stretch of the machine does not hold all of them
SETUP_REPEATS = (5, 4)
DIGEST_CASES = 16
# end-to-end windows per --seconds of busy time (fewer where a window needs more cases)
WINDOWS = 20

# verify-suite ids with a per-suite case_p50_ms (quadrature, then identities)
SUITE_IDS = ("thm3.1", "thm3.5", "thm3.8", "thm2.1", "thm2.2", "thm4.1", "thm4.2", "thm4.3",
             "thm5.1", "thm5.2", "thm6.1", "thm6.2", "thm6.3", "thm6.4", "thm7.1", "cs-eigen")


def _check_source():
    if not (SRC / "bchyper" / "__init__.py").is_file():
        print(f"error: no bchyper sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bchyper

    if Path(bchyper.__file__).resolve().parent != (SRC / "bchyper").resolve():
        print(f"error: imported bchyper from {bchyper.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# Provenance.
# ---------------------------------------------------------------------------


def _blas():
    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        pass
    threads = None
    libdirs = [Path(np.__file__).parent.parent / "numpy.libs", Path(np.__file__).parent / ".libs"]
    for lib in (p for d in libdirs for p in glob.glob(str(d / "*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    info["threads"] = threads
    return info


def provenance(workload, seed, seconds, cases):
    import numpy as np
    import scipy

    import bchyper
    from bchyper import kernels

    digest = hashlib.sha256()
    for case in cases[:DIGEST_CASES]:
        digest.update(repr((case.suite, case.inputs)).encode())
    nproc = len(os.sched_getaffinity(0))
    blas = _blas()
    if blas["threads"] is not None and blas["threads"] > nproc:
        print(f"warning: {blas['threads']} BLAS threads on {nproc} cores", file=sys.stderr)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "inputs_sha256": digest.hexdigest(),
        "loop": "closed, 1 caller, 1 process",
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bchyper": bchyper.__version__,
        "blas": blas,
        "kernels.USE_NUMBA": bool(kernels.USE_NUMBA),
        "kernel_path": "numba" if kernels.USE_NUMBA else "python/numpy",
    }


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


def measure_setup(workload, seed, repeats):
    """Seconds, in `repeats` fresh processes, to import bchyper and run the first case."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_case(case, tracer=None, case_id=None):
    """(failure reason or None, elapsed ns) of one case.

    Only case.run() is timed; any exception it raises fails the case.
    The output is checked right after, outside the timed region, and
    then dropped, so memory does not grow with the number of cases.
    """
    start = time.perf_counter_ns()
    if tracer is not None:
        tracer.open_case(case_id, case.suite)
    try:
        out, err = case.run(), None
    except Exception as exc:  # noqa: BLE001 - a raising case is a failed case
        out, err = None, f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.close_case()
    elapsed = time.perf_counter_ns() - start
    if err is None:
        try:
            err = case.check(out)
        except Exception as exc:  # noqa: BLE001 - a check that raises fails the case
            err = f"check raised {type(exc).__name__}: {exc}"
    return (None if err is None else f"{case.suite}: {err}"), elapsed


def _clear_caches():
    from bchyper import coherent

    clear = getattr(coherent.build_tables, "cache_clear", None)
    if clear is not None:
        clear()


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def warm_up(cases):
    """Run and check cases untimed, so that lazy imports and first-call
    set-up (which setup_s measures) stay out of the timed loop.  The
    measured loop then starts again from the first case."""
    for case in cases:
        run_case(case)


def _window_metrics(lat):
    return (len(lat) / (sum(lat) / 1e9), statistics.median(lat) / 1e6, _percentile(lat, 0.95) / 1e6)


def end_to_end(workload, seed, seconds, min_cases):
    """Time cases in windows of whole stream periods, each holding at
    least seconds / WINDOWS of busy time and min_cases / 5 cases, and
    report the median over windows of each window's cases_per_s, p50
    and p95.  A stretch of contention from the rest of the machine then
    moves only the windows it covers, not the reported medians.  The
    run ends at the first window end with at least `seconds` of busy
    time and `min_cases` cases."""
    warm_up(islice(workload.cases(seed), workload.period))
    _clear_caches()
    stream = workload.cases(seed)
    window_ns, window_cases = seconds * 1e9 / WINDOWS, max(1, min_cases // 5)
    first, failures, windows, lat = [], {}, [], []
    samples, busy, window_busy = 0, 0, 0
    while True:
        for _ in range(workload.period):
            case = next(stream)
            err, ns = run_case(case)
            if err is not None:
                failures[samples] = err
            if len(first) < DIGEST_CASES:
                first.append(case)
            lat.append(ns)
            samples += 1
            busy += ns
            window_busy += ns
        if window_busy >= window_ns and len(lat) >= window_cases:
            windows.append(_window_metrics(lat))
            lat, window_busy = [], 0
            if busy >= seconds * 1e9 and samples >= min_cases:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rate, p50, p95 = (statistics.median(w[i] for w in windows) for i in range(3))
    metrics = {
        "cases_per_s": (rate, "1/s"),
        "case_p50_ms": (p50, "ms"),
        "case_p95_ms": (p95, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return first, samples, len(windows), failures, metrics


def traced(workload_name, workload, seed, seconds):
    """Per-layer metrics from a traced pass over a fixed prefix of the
    stream, after an untraced pass over the same cases."""
    from spans import CASE, TARGETS, Tracer

    periods = max(1, round(workload.rate_hint * seconds / 2 / workload.period))
    cases = list(islice(workload.cases(seed), periods * workload.period))

    warm_up(cases[: workload.period])
    _clear_caches()
    failures = {}
    untraced = []
    for i, case in enumerate(cases):
        err, ns = run_case(case)
        untraced.append(ns)
        if err is not None:
            failures[i] = err
    _clear_caches()
    tracer = Tracer()
    tracer.install()
    try:
        wall = []
        for i, case in enumerate(cases):
            err, ns = run_case(case, tracer, i)
            wall.append(ns)
            if err is not None:
                failures.setdefault(i, err)
    finally:
        tracer.uninstall()

    agg = tracer.summary()
    wall_ns = sum(wall)
    untraced_ns = sum(untraced)

    def row(name):
        return agg.get(name, {})

    def self_s(name):
        return row(name).get("self_ns", 0.0) / 1e9

    m = {}
    for name in (
        "quad.jacobi_rule_01", "kernels.series_sum_many", "kernels.series_sum",
        "kernels.series_sum_terminating", "kernels.window_probe", "kernels.term_ratio",
        "kernels.coeff_table", "gamma.complex_pochhammer", "hyper.pfq",
        "hyper.component_series", "hyper.oracle_pfq_complex", "coherent.build_tables",
    ):
        m[f"{name}.calls"] = (int(row(name).get("calls", 0)), "count")
    for name in TARGETS:
        m[f"{name}.self_s"] = (self_s(name), "s")

    rules = row("quad.jacobi_rule_01")
    for n in (64, 128):
        count = rules.get(f"n{n}_calls", 0)
        mean = rules.get(f"n{n}_self_ns", 0.0) / count / 1e6 if count else 0.0
        m[f"quad.jacobi_rule_01.ms_per_rule_n{n}"] = (mean, "ms")

    many = row("kernels.series_sum_many")
    m["kernels.series_sum_many.lanes"] = (int(many.get("lanes", 0)), "count")
    m["kernels.series_sum_many.lane_steps"] = (int(many.get("lane_steps", 0)), "count")
    steps = many.get("lane_steps", 0)
    m["kernels.series_sum_many.useful_ratio"] = (
        many.get("useful", 0) / steps if steps else 0.0, "ratio")

    scalar = row("kernels.series_sum")
    terms = int(scalar.get("terms", 0))
    m["kernels.series_sum.terms"] = (terms, "count")
    m["kernels.series_sum.ns_per_term"] = (
        scalar.get("self_ns", 0.0) / terms if terms else 0.0, "ns")

    tables = row("coherent.build_tables")
    m["coherent.build_tables.hit_ratio"] = (
        tables.get("hits", 0) / tables["calls"] if tables.get("calls") else 0.0, "ratio")

    for suite in SUITE_IDS:
        times = [ns for case, ns in zip(cases, untraced) if case.suite == suite]
        m[f"suite.{suite}.case_p50_ms"] = (statistics.median(times) / 1e6 if times else 0.0, "ms")

    untraced_rate = len(cases) / (untraced_ns / 1e9)
    traced_rate = len(cases) / (wall_ns / 1e9)
    m["trace.untraced_cases_per_s"] = (untraced_rate, "1/s")
    m["trace.traced_cases_per_s"] = (traced_rate, "1/s")
    m["trace.overhead_cases_per_s"] = (untraced_rate - traced_rate, "1/s")
    m["trace.wall_s"] = (wall_ns / 1e9, "s")
    m["trace.unwrapped_self_s"] = (self_s(CASE), "s")
    # layer self times plus the unwrapped remainder, against the harness's own clock
    m["trace.accounted_ratio"] = (sum(r["self_ns"] for r in agg.values()) / wall_ns, "ratio")

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload_name}-seed{seed}.jsonl.gz")
    return cases, len(cases), failures, m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-cases", type=int, default=200,
                        help="least cases in an end-to-end run, so that p95 has ten beyond it")
    args = parser.parse_args(argv)

    _check_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    if args.trace:
        first, samples, failures, metrics = traced(args.workload, workload, args.seed, args.seconds)
        windows = None
    else:
        setup = measure_setup(args.workload, args.seed, SETUP_REPEATS[0])
        first, samples, windows, failures, metrics = end_to_end(
            workload, args.seed, args.seconds, args.min_cases)
        setup += measure_setup(args.workload, args.seed, SETUP_REPEATS[1])
        metrics["setup_s"] = (statistics.median(setup), "s")

    print("provenance " + json.dumps(provenance(args.workload, args.seed, args.seconds, first)))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(f"samples {samples}")
    if windows is not None:
        print(f"windows {windows}")
    print(f"fail_ratio {len(failures) / samples}")
    for i, reason in sorted(failures.items())[:20]:
        print(f"failed case {i}: {reason}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": samples,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
