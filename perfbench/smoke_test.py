"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke_test.py
    python3 -m pytest perfbench/smoke_test.py

Checks that every metric named in BENCHMARK.json is printed with its
unit, that no case fails, that the workload seed changes the inputs
(and the same seed repeats them), that the traced run separates the
workloads, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--min-cases", "6"],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@functools.lru_cache(maxsize=None)
def run(workload, seed, trace):
    """(metric lines as {name: unit}, other `key value` lines, result)."""
    proc = _bench(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed, fields = {}, {}
    for line in lines[:-1]:
        key, rest = line.split(" ", 1)
        if key == "metric":
            name, _, unit = rest.split(" ")
            printed[name] = unit
        else:
            fields[key] = rest
    return printed, fields, json.loads(lines[-1])


def test_every_metric_printed_with_unit_and_no_failures():
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            printed, fields, result = run(workload, 1, trace)
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == want
            assert printed == want
            assert result["correct"] and result["failed"] == 0, (workload, trace)
            assert result["attempted"] == int(fields["samples"]) > 0
            assert float(fields["fail_ratio"]) == 0.0


def test_seed_changes_inputs():
    def digest(seed, trace):
        return json.loads(run("eval-long", seed, trace)[1]["provenance"])["inputs_sha256"]

    assert digest(1, 0) == digest(1, 1)
    assert digest(1, 0) != digest(2, 0)


def test_trace_separates_workloads():
    def metrics(workload):
        return {k: v["value"] for k, v in run(workload, 1, 1)[2]["metrics"].items()}

    quad, ident, long = metrics("quadrature"), metrics("identities"), metrics("eval-long")
    assert quad["quad.jacobi_rule_01.calls"] > 0
    assert ident["quad.jacobi_rule_01.calls"] == long["quad.jacobi_rule_01.calls"] == 0
    self_times = {k: v for k, v in quad.items() if k.endswith(".self_s")}
    assert max(self_times, key=self_times.get) == "quad.jacobi_rule_01.self_s"
    terms_per_call = [m["kernels.series_sum.terms"] / m["kernels.series_sum.calls"]
                      for m in (ident, long)]
    assert terms_per_call[1] > terms_per_call[0]
    for m in (quad, ident, long):
        assert 0.9 < m["trace.accounted_ratio"] <= 1.0


def test_refuses_without_sources():
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _bench(bare, "eval-long", 1, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
