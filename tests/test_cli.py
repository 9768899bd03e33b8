import json

import numpy as np
import pytest

from bchyper import BiComplex, Hyperbolic, IdentityReport, parse_bicomplex, verify
from bchyper.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_gauss_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--pfq", "2,1", "--alphas", "1,2", "--betas", "1",
            "--z", "0.5e1+0.25e2",
        )
        assert code == 0
        value = parse_bicomplex(out.strip())
        assert abs(value.idem1 - 4.0) < 1e-12
        assert abs(value.idem2 - 16.0 / 9.0) < 1e-12

    def test_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--pfq", "1,1", "--alphas", "1.1+0.2i2", "--betas", "2.3",
            "--z", "0.3+0.1i1+0.05i2-0.02k",
        )
        assert code == 0
        text = out.strip()
        assert str(parse_bicomplex(text)) == text

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--pfq", "0,0", "--z", "0.5", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["version"] == 1
        assert doc["command"] == "eval"
        assert doc["summary"]["ok"] is True
        assert doc["results"][0]["class"] == "entire"

    def test_shape_mismatch_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--pfq", "2,1", "--alphas", "1", "--betas", "1",
            "--z", "0.1",
        )
        assert code == 1
        assert "usage error" in err

    def test_parse_error_exits_one(self, capsys):
        # "0.3+" ends in a term with neither a number nor a unit
        for z in ("1+2q", "0.3+"):
            code, _, err = run_cli(capsys, "eval", "--pfq", "0,0", "--z", z)
            assert code == 1
            assert "parse error" in err

    def test_domain_error_reported(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--pfq", "2,1", "--alphas", "1,2", "--betas", "1.5",
            "--z", "1.5",
        )
        assert code == 1
        assert "DomainError" in err

    def test_overflowing_terminating_sum_is_an_error(self, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run_cli(
                capsys, "eval", "--pfq", "2,0", "--alphas=-150,1", "--z", "1000",
                "--format", "json",
            )
        assert code == 1 and out == ""
        assert err.startswith("error: NoConvergenceError")

    @pytest.mark.parametrize(
        "flag, value", [("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"), ("--cap", "-5")]
    )
    def test_bad_tol_or_cap_is_a_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "eval", "--pfq", "1,1", "--alphas", "1", "--betas", "2", "--z", "0.3",
            flag, value,
        )
        assert code == 1
        assert out == "" and "usage error" in err and flag in err

    @pytest.mark.parametrize(
        "flag, value, kind",
        [("--tol", "abc", "a finite number >= 0"), ("--cap", "x", "an integer >= 0"),
         ("--cap", "2.5", "an integer >= 0")],
    )
    def test_malformed_number_names_the_kind_of_value(self, capsys, flag, value, kind):
        code, out, err = run_cli(
            capsys, "eval", "--pfq", "1,1", "--alphas", "1", "--betas", "2", "--z", "0.3",
            flag, value,
        )
        assert code == 1 and out == ""
        assert err == f"usage error: argument {flag}: expected {kind}, got {value!r}\n"

    def test_zero_tol_is_accepted(self, capsys):
        # the stop rule then waits for terms that round to 0
        code, out, _ = run_cli(
            capsys, "eval", "--pfq", "1,1", "--alphas", "1", "--betas", "2", "--z", "0.3",
            "--tol", "0", "--format", "json",
        )
        assert code == 0
        terms = json.loads(out)["results"][0]["terms_used"]
        assert terms[0] > 100 and terms == [terms[0]] * 2


class TestClassify:
    def test_divergent(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--pfq", "3,1", "--alphas", "1,2,3", "--betas", "1.5",
        )
        assert code == 0
        assert out.startswith("divergent-everywhere")

    def test_entire(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--pfq", "1,1", "--alphas", "1", "--betas", "1.5",
        )
        assert code == 0
        assert out.strip() == "entire"

    def test_ball_reports_margin(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--pfq", "2,1", "--alphas", "0.3,0.4", "--betas", "3.5",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["class"] == "unit-ball-boundary-convergent"
        assert abs(doc["results"][0]["margin"] - 2.8) < 1e-12

    def test_csv_format_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "classify", "--pfq", "1,1", "--alphas", "1", "--betas", "1.5",
            "--format", "csv",
        )
        assert code == 1
        assert out == "" and "usage error" in err


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "thm4.3", "--samples", "25", "--seed", "3",
        )
        assert code == 0
        assert "thm4.3: PASS" in out

    def test_failing_relation_exits_2(self, capsys, monkeypatch):
        def saalschutz(n, a1, a2, b):
            residual = Hyperbolic.from_idempotent(1.0, 1.0)
            return IdentityReport(BiComplex(0.0), BiComplex(1.0), residual, 1e-9)

        monkeypatch.setattr(verify.identities, "saalschutz", saalschutz)
        code, out, _ = run_cli(capsys, "verify", "thm4.3", "--samples", "3")
        assert code == 2
        assert "thm4.3: FAIL (0/3 cases" in out

    def test_cs_eigen_with_no_samples_does_not_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "cs-eigen", "--samples", "0")
        assert code != 0
        assert "PASS" not in out

    def test_negative_samples_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "thm4.1", "--samples", "-3")
        assert code == 1
        assert out == "" and "usage error" in err

    def test_malformed_samples_names_the_kind_of_value(self, capsys):
        code, out, err = run_cli(capsys, "verify", "thm4.1", "--samples", "x")
        assert code == 1 and out == ""
        assert err == "usage error: argument --samples: expected an integer >= 0, got 'x'\n"

    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_bad_seed_is_a_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, "verify", "thm4.1", "--seed", value)
        assert code == 1 and out == ""
        assert err == f"usage error: argument --seed: expected an integer >= 0, got {value!r}\n"

    def test_unknown_suite_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "verify", "thm99")
        assert code == 1
        assert "unknown suite" in err

    def test_json_report_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "thm4.3", "--samples", "10", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"version", "command", "config", "results", "summary"}
        assert doc["summary"]["ok"] is True

    def test_json_options_are_what_the_suite_received(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "thm2.2", "--samples", "5", "--seed", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"] == {"suite": "thm2.2", "seed": 1, "samples": 5}
        (result,) = doc["results"]
        assert result["options"] == {"seed": 1, "samples": 5}
        code, out, _ = run_cli(capsys, "verify", "thm4.3", "--samples", "0", "--format", "json")
        (result,) = json.loads(out)["results"]
        assert result["options"] == {"seed": 7, "samples": 0}

    def test_suite_options_come_from_the_declarations(self):
        assert verify.SUITES["thm3.1"].samples == 100
        # thm2.2 counts its shape cases and both boundary phases
        res = verify.run_suite("thm2.2", samples=3, seed=5)
        assert res.samples == 3 + 2 * 50 == len(res.rows) + res.skipped

    def test_suites_accept_only_the_forwarded_options(self, capsys):
        # a suite takes a seed and a sample count, and nothing else: each
        # relation runs at the tolerance and rule size it declares
        for option, value in (("tol", 1e-3), ("nodes", 32)):
            code, out, err = run_cli(
                capsys, "verify", "thm3.1", "--samples", "1", f"--{option}", str(value),
            )
            assert code == 1
            assert out == "" and "usage error" in err
            for name in verify.SUITES:
                with pytest.raises(TypeError):
                    verify.run_suite(name, samples=1, **{option: value})

    @pytest.mark.parametrize(
        "law, passes",
        [
            (lambda h: 10.0 * h * h, True),
            # the rounding floor reaches the smallest step
            (lambda h: max(10.0 * h * h, 1e-8), True),
            # the largest step is short of the h^2 regime
            (lambda h: 10.0 * h * h * (1.0 + (h / 3e-4) ** 2), True),
            # a residual that falls only like h fails both step pairs
            (lambda h: 1e-2 * h, False),
        ],
    )
    def test_thm52_passes_when_either_step_pair_shows_h2(self, monkeypatch, law, passes):
        def check(params, z, h, wrt="z"):
            r = law(h)
            residual = Hyperbolic.from_idempotent(r, r)
            return IdentityReport(BiComplex(0.0), BiComplex(0.0), residual, 1e-7)

        monkeypatch.setattr(verify.identities, "cauchy_riemann_check", check)
        res = verify.run_suite("thm5.2", samples=2, seed=1)
        logs = np.log10([law(h) for h in verify.CR_STEPS])
        fit = np.polyfit(np.log10(verify.CR_STEPS), logs, 1)[0]
        assert len(res.rows) == 4
        for row in res.rows:
            assert row["passed"] is passes
            assert row["slope"] == pytest.approx(fit, abs=1e-12)  # the 3-point fit

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "thm4.3", "--samples", "5", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theorem,seed,case,params,z,residual1,residual2,passed"
        assert len(lines) == 6

    def test_determinism(self, capsys):
        argv = ["verify", "thm4.3", "--samples", "8", "--seed", "11", "--format", "json", "--rows"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestRegionPlot:
    def test_requires_ball_shape(self, capsys):
        code, _, err = run_cli(
            capsys, "region-plot", "--pfq", "1,1", "--alphas", "1", "--betas", "1.5",
        )
        assert code == 1
        assert "usage error" in err

    def test_format_is_a_usage_error(self, capsys):
        # the region plot is always CSV, so it takes no --format
        code, out, err = run_cli(
            capsys, "region-plot", "--pfq", "2,1", "--alphas", "0.7,1.2",
            "--betas", "1.9", "--grid", "4", "--format", "json",
        )
        assert code == 1
        assert out == "" and "usage error" in err

    @pytest.mark.parametrize(
        "flag, value, kind",
        [("--grid", "0", "an integer >= 1"), ("--grid", "-3", "an integer >= 1"),
         ("--grid", "x", "an integer >= 1"), ("--rmax", "nan", "a finite number > 0"),
         ("--rmax", "inf", "a finite number > 0"), ("--rmax", "-1", "a finite number > 0"),
         ("--rmax", "0", "a finite number > 0")],
    )
    def test_bad_grid_or_radius_is_a_usage_error(self, capsys, flag, value, kind):
        code, out, err = run_cli(
            capsys, "region-plot", "--pfq", "2,1", "--alphas", "0.7,1.2",
            "--betas", "1.9", flag, value,
        )
        assert code == 1 and out == ""
        assert err == f"usage error: argument {flag}: expected {kind}, got {value!r}\n"

    def test_one_point_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "region-plot", "--pfq", "2,1", "--alphas", "0.7,1.2",
            "--betas", "1.9", "--grid", "1", "--rmax", "0.5",
        )
        assert code == 0
        assert out == "r1,r2,converged\n0.0,0.0,1\n"

    def test_grid_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "region-plot", "--pfq", "2,1", "--alphas", "0.7,1.2",
            "--betas", "1.9", "--grid", "16", "--rmax", "1.25",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r1,r2,converged"
        assert len(lines) == 1 + 16 * 16
        for line in lines[1:]:
            r1, r2, flag = line.split(",")
            inside = max(float(r1), float(r2)) < 1.0
            assert int(flag) == int(inside), line


class TestCoherentCommand:
    def test_glauber_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "coherent", "--pfq", "0,0", "--z", "0.5", "--nmax", "64",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,rho1,rho2,f1,f2,cn2_1,cn2_2"
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 1.0
        # f(0)^2 = 1 for the oscillator tower
        assert abs(float(first[3]) - 1.0) < 1e-15

    @pytest.mark.parametrize("value", ["-3", "0", "x"])
    def test_bad_nmax_is_a_usage_error(self, capsys, value):
        code, out, err = run_cli(
            capsys, "coherent", "--pfq", "1,1", "--alphas", "2", "--betas", "3",
            "--z", "0.4", "--nmax", value,
        )
        assert code == 1 and out == ""
        assert err == f"usage error: argument --nmax: expected an integer >= 1, got {value!r}\n"

    def test_rejects_bad_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "coherent", "--pfq", "1,0", "--alphas", "-1.3", "--z", "0.2",
        )
        assert code == 1
        assert "PositivityError" in err


class TestFileOutput:
    def test_out_flag(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "classify", "--pfq", "1,1", "--alphas", "1", "--betas", "1.5",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == "entire"
