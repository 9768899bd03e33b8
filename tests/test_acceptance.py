"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with pytest -s and in
failure reports).  Seeds and sample counts match the shipped `verify`
suite defaults, so `bchyper verify all --seed 7` exercises the same
sweeps.  A suite runs each relation at the tolerance and rule size the
relation declares; those floors, and the settings a suite fixes
(boundary draws, thresholds, steps, bands), are pinned here as literal
values, against the rows or the named constants.
"""

import subprocess
import sys
import time

import bchyper.quad as quad
import bchyper.verify as verify
from bchyper import BiComplex, PfqParams, ProductCurve, CurveKind, from_idempotent
from bchyper import double_integral, euler_integral, laplace_integral


def _report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_idempotent_oracle_equivalence():
    start = time.time()
    res = verify.run_suite("thm2.1", samples=1000, seed=7)
    elapsed = time.time() - start
    ok = res.ok and res.max_residual <= 1e-12 and elapsed <= 30.0
    _report(
        "1 idempotent-oracle equivalence",
        ok,
        f"({res.passed}/1000 cases, max residual {res.max_residual:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_2_convergence_trichotomy():
    res = verify.run_suite("thm2.2", samples=200, seed=7)
    shape_rows = [r for r in res.rows if isinstance(r["case"], int)]
    plus_rows = [r for r in res.rows if str(r["case"]).startswith("boundary+")]
    minus_rows = [r for r in res.rows if str(r["case"]).startswith("boundary-")]
    # the residuals of a boundary row are its two Cauchy deltas
    deltas = [max(r["residual1"], r["residual2"]) for r in plus_rows]
    ok = (
        res.ok
        and len(shape_rows) == 200
        and len(plus_rows) + len(minus_rows) + res.skipped == 100
        and verify.BOUNDARY_THRESHOLD == 1e-8
        and all(d < 1e-8 for d in deltas)
        and all(max(r["residual1"], r["residual2"]) > 1e-8 for r in minus_rows)
        and all(r["margin"] > 0.1 for r in plus_rows)
        and all(r["margin"] < -0.1 for r in minus_rows)
    )
    _report(
        "2 convergence trichotomy",
        ok,
        f"(shapes {len(shape_rows)}, boundary +{len(plus_rows)}/-{len(minus_rows)},"
        f" skipped {res.skipped})",
    )


def test_criterion_3_worked_examples():
    res = verify.run_suite("examples", samples=100, seed=7)
    _report(
        "3 worked closed forms",
        res.ok and res.max_residual <= 1e-11,
        f"(300 checks, max residual {res.max_residual:.2e})",
    )


def test_criterion_4_integral_representations():
    euler = verify.run_suite("thm3.1", samples=100, seed=7)
    laplace = verify.run_suite("thm3.5", samples=100, seed=7)
    double = verify.run_suite("thm3.8", samples=100, seed=7)
    ok = (
        euler.ok and laplace.ok and double.ok
        and euler.max_residual <= 1e-7 and laplace.max_residual <= 1e-7
        and quad.DEFAULT_NODES == 64
        and double.max_residual <= 1e-6 and verify.DOUBLE_NODES == 128
    )

    # node halving degrades, doubling improves, down to the series floor
    floor = 5e-12
    scaling_ok = True
    cases = [
        lambda n: euler_integral(
            PfqParams([BiComplex(0.8), BiComplex(1.4)], [BiComplex(2.1)]),
            from_idempotent(0.93, 0.88),
            ProductCurve(CurveKind.UNIT_INTERVAL, n),
        ),
        lambda n: laplace_integral(
            from_idempotent(0.6, 1.3),
            PfqParams([BiComplex(1.1)], [BiComplex(1.6)]),
            from_idempotent(0.72, 0.65),
            ProductCurve(CurveKind.HALF_LINE, n),
        ),
        lambda n: double_integral(
            from_idempotent(1.2, 0.9),
            from_idempotent(0.8, 1.5),
            PfqParams([BiComplex(0.9), BiComplex(1.7)], [BiComplex(2.2)]),
            from_idempotent(0.9, 0.85),
            ProductCurve(CurveKind.UNIT_INTERVAL, n),
        ),
    ]
    for case in cases:
        errs = [case(n).residual.max_comp() for n in (16, 32, 64)]
        for lo, hi in zip(errs, errs[1:]):
            scaling_ok = scaling_ok and (hi <= lo / 4.0 or lo <= floor)
    _report(
        "4 integral representations",
        ok and scaling_ok,
        f"(euler {euler.max_residual:.2e}, laplace {laplace.max_residual:.2e},"
        f" double {double.max_residual:.2e}, node scaling {scaling_ok})",
    )


def test_criterion_5_identity_suites():
    suites = {
        "thm4.1": verify.run_suite("thm4.1", samples=500, seed=7),
        "thm4.2": verify.run_suite("thm4.2", samples=500, seed=7),
        "thm4.3": verify.run_suite("thm4.3", samples=500, seed=7),
        "thm5.1": verify.run_suite("thm5.1", samples=500, seed=7),
        "thm6.1": verify.run_suite("thm6.1", samples=500, seed=7),
        "thm6.2": verify.run_suite("thm6.2", samples=500, seed=7),
        "thm6.3": verify.run_suite("thm6.3", samples=500, seed=7),
        "thm6.4": verify.run_suite("thm6.4", samples=500, seed=7),
        "thm7.1": verify.run_suite("thm7.1", samples=100, seed=7),
    }
    orders = {r["k"] for r in suites["thm5.1"].rows}
    ulps = [r["ulps"] for r in suites["thm7.1"].rows if "ulps" in r]
    worst = max(r.max_residual for name, r in suites.items() if name != "thm7.1")
    ok = (
        all(r.ok for r in suites.values())
        and worst <= 1e-9
        and orders == {0, 1, 2, 3}
        and len(ulps) == 100
        and all(u <= 2.0 for u in ulps)
        and verify.RECURRENCE_MAX_ULPS == 2.0
        and verify.RECURRENCE_COUNT == 200
    )
    _report(
        "5 identity suites",
        ok,
        f"(9 suites, worst non-ulp residual {worst:.2e})",
    )


def test_criterion_6_cauchy_riemann_scaling():
    res = verify.run_suite("thm5.2", samples=20, seed=7)
    slopes = [r["slope"] for r in res.rows]
    ok = (
        res.ok
        and len(res.rows) == 40
        and verify.CR_STEPS == (1e-3, 1e-4, 1e-5)
        and verify.SLOPE_BAND == (1.8, 2.2)
    )
    _report(
        "6 Cauchy-Riemann h^2 scaling",
        ok,
        f"(40 fits, slopes in [{min(slopes):.3f}, {max(slopes):.3f}])",
    )


def test_criterion_7_coherent_states():
    res = verify.run_suite("cs-eigen", samples=100, seed=7)
    gate = [r for r in res.rows if r["case"] == "positivity-gate"][0]
    ok = res.ok and gate["rejected"] == 100
    _report(
        "7 coherent states",
        ok,
        f"({res.passed} checks, positivity gate {gate['rejected']}/100 rejected)",
    )


def test_criterion_8_cli_determinism_and_verify_all():
    from bchyper.cli import main

    import io
    from contextlib import redirect_stdout

    argv = ["verify", "thm4.3", "--samples", "10", "--seed", "7", "--format", "json", "--rows"]
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            main(argv)
        bufs.append(buf.getvalue())
    deterministic = bufs[0] == bufs[1]

    # round trip through the eval printer
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["eval", "--pfq", "1,1", "--alphas", "1.3+0.2i2",
                     "--betas", "2.1", "--z", "0.35e1+0.15e2"])
    from bchyper import parse_bicomplex, format_bicomplex

    printed = buf.getvalue().strip()
    round_trip = code == 0 and format_bicomplex(parse_bicomplex(printed)) == printed

    start = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "bchyper.cli", "verify", "all", "--seed", "7"],
        capture_output=True,
        text=True,
        timeout=360,
    )
    elapsed = time.time() - start
    ok = deterministic and round_trip and proc.returncode == 0 and elapsed <= 300.0
    _report(
        "8 CLI determinism and verify-all",
        ok,
        f"(deterministic {deterministic}, round-trip {round_trip},"
        f" verify-all exit {proc.returncode} in {elapsed:.0f}s)",
    )
