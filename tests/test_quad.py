import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from bchyper import (
    BiComplex,
    CurveKind,
    DomainError,
    PfqParams,
    PreconditionError,
    ProductCurve,
    double_integral,
    euler_integral,
    from_idempotent,
    laplace_integral,
)
import bchyper
from bchyper import kernels, quad, verify
from bchyper.errors import NoConvergenceError
from bchyper.gamma import complex_gamma
from bchyper.hyper import DEFAULT_CAP, DEFAULT_TOL
from bchyper.numbers import components
from bchyper.quad import jacobi_rule_01


def _beta_moment(B, A, k):
    """integral_0^1 t^(B+k) (1-t)^A dt at 30 digits."""
    with mpmath.workdps(30):
        return complex(mpmath.beta(mpmath.mpc(B) + 1 + k, mpmath.mpc(A) + 1))


def _aberth_heights(monkeypatch, n, B, A):
    """One ``jacobi_rule_01`` call's output, and the number of rows still
    moving at each of its Aberth steps."""
    heights = []
    newton_ratio = quad._newton_ratio

    def recording(x, diag, sb):
        heights.append(len(x))
        return newton_ratio(x, diag, sb)

    with monkeypatch.context() as patch:
        patch.setattr(quad, "_newton_ratio", recording)
        rule = jacobi_rule_01(n, B, A)
    return rule, heights


class TestJacobiRule:
    def test_moments_match_beta_function(self):
        # integral of t^B (1-t)^A over [0,1] is a Beta value; complex exponents
        B = 0.7 + 0.25j - 1.0
        A = 0.9 - 0.15j - 1.0
        t, w = jacobi_rule_01(12, B, A)
        got = complex(np.sum(w))
        want = complex_gamma(B + 1) * complex_gamma(A + 1) / complex_gamma(A + B + 2)
        assert abs(got - want) < 1e-13 * abs(want)

    def test_polynomial_exactness(self):
        t, w = jacobi_rule_01(6, 0.3, -0.4)
        for k in range(8):  # exact through degree 2n-1
            got = complex(np.sum(w * t**k))
            want = complex_gamma(0.3 + k + 1) * complex_gamma(0.6) / complex_gamma(0.9 + k + 1)
            assert abs(got - want) < 1e-13 * abs(want), k

    @pytest.mark.parametrize(
        "B, A",
        [(0.3 + 0.35j, 1.1 - 0.3j), (-0.5 + 0.3j, 0.8 - 0.2j), (12 + 0.5j, 20 - 0.3j)],
    )
    def test_moments_at_128_nodes(self, B, A):
        # the rule integrates t^k exactly through k = 2n-1, also at large
        # exponents, where the moments span many orders of magnitude
        n = 128
        t, w = jacobi_rule_01(n, B, A)
        for k in (0, 1, 7, n, 2 * n - 1):
            got = complex(np.sum(w * t**k))
            want = _beta_moment(B, A, k)
            assert abs(got - want) <= 5e-14 * abs(want), (k, abs(got - want) / abs(want))

    @pytest.mark.parametrize("n", [64, 128])
    def test_nodes_match_dense_eigenvalues(self, n):
        # eigvals of the dense complex-symmetric Jacobi matrix is an
        # independent O(n^3) oracle for the iterated nodes; exponents come
        # from the boxes the thm3.1/3.5/3.8 samplers draw from
        rng = np.random.default_rng(n)
        for _ in range(6):
            B = complex(rng.uniform(-0.7, 1.2), rng.uniform(-0.4, 0.4))
            A = complex(rng.uniform(-0.7, 3.2), rng.uniform(-0.4, 0.4))
            t, _ = jacobi_rule_01(n, B, A)
            diag, off = quad._jacobi_coefficients(n, A, B)
            sb = np.sqrt(off)
            dense = np.diag(diag) + np.diag(sb, 1) + np.diag(sb, -1)
            want = np.sort_complex((1.0 + np.linalg.eigvals(dense)) / 2.0)
            assert np.max(np.abs(t - want)) <= 1e-13, (B, A)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(quad, "MAX_ABERTH_STEPS", 1)
        with pytest.raises(NoConvergenceError):
            jacobi_rule_01(32, 0.3 + 0.35j, 1.1 - 0.3j)

    def test_step_cap_raises_on_a_stack(self, monkeypatch):
        monkeypatch.setattr(quad, "MAX_ABERTH_STEPS", 1)
        with pytest.raises(NoConvergenceError):
            jacobi_rule_01(32, [0.3 + 0.35j, -0.5 + 0.3j], [1.1 - 0.3j, 0.8 - 0.2j])

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("rules", [2, 4])
    def test_stacked_rows_equal_lone_rules(self, n, rules):
        # exponents from the box of test_nodes_match_dense_eigenvalues
        rng = np.random.default_rng(10 * n + rules)
        B = [complex(rng.uniform(-0.7, 1.2), rng.uniform(-0.4, 0.4)) for _ in range(rules)]
        A = [complex(rng.uniform(-0.7, 3.2), rng.uniform(-0.4, 0.4)) for _ in range(rules)]
        t, w = jacobi_rule_01(n, B, A)
        assert t.shape == w.shape == (rules, n)
        for r in range(rules):
            lone_t, lone_w = jacobi_rule_01(n, B[r], A[r])
            assert np.array_equal(t[r], lone_t) and np.array_equal(w[r], lone_w), r

    @pytest.mark.parametrize("tol", [quad.ABERTH_TOL, 0.0])
    def test_mixed_stack_rows_leave_as_they_settle(self, monkeypatch, tol):
        # The Chebyshev row (-1/2, -1/2), whose asymptotic start is exact,
        # settles in one step, (0.3+0.35j, 1.1-0.3j) in 2 and
        # (0.5+3j, 0.2-3j) in 3, each below ABERTH_TOL; (0.5+8j, 0.2-8j)
        # stops on the floor rule after 4.  With ABERTH_TOL = 0 every row
        # stops on the floor rule.  Each stacked row equals its lone rule
        # and takes as many steps as it does alone.
        monkeypatch.setattr(quad, "ABERTH_TOL", tol)
        B = [-0.5, 0.3 + 0.35j, 0.5 + 3j, 0.5 + 8j]
        A = [-0.5, 1.1 - 0.3j, 0.2 - 3j, 0.2 - 8j]
        lone, steps = [], []
        for r in range(len(B)):
            rule, heights = _aberth_heights(monkeypatch, 128, B[r], A[r])
            lone.append(rule)
            steps.append(len(heights))
        assert steps == ([1, 2, 3, 4] if tol else [3, 4, 4, 4])
        (t, w), heights = _aberth_heights(monkeypatch, 128, B, A)
        assert heights == [sum(s > k for s in steps) for k in range(max(steps))]
        for r, (lone_t, lone_w) in enumerate(lone):
            assert np.array_equal(t[r], lone_t) and np.array_equal(w[r], lone_w), r

    @pytest.mark.parametrize("n", [64, 128])
    def test_large_imaginary_exponents(self, n):
        # ill-conditioned weight: the nodes settle below ABERTH_TOL
        # (corrections fall from about 2e-6 to below 1e-12 in one step),
        # but the mass comes out only to about 3e-11 relative
        B, A = 0.5 + 3j, 0.2 - 3j
        t, w = jacobi_rule_01(n, B, A)
        want = _beta_moment(B, A, 0)
        assert abs(complex(np.sum(w)) - want) <= 5e-11 * abs(want)

    def test_very_large_imaginary_exponent_returns(self):
        t, w = jacobi_rule_01(256, 0.5 + 10j, 0.2)
        assert len(t) == 256 and np.all(np.isfinite(t)) and np.all(np.isfinite(w))

    def test_exponent_validation(self):
        with pytest.raises(PreconditionError):
            jacobi_rule_01(8, -1.2, 0.0)

    def test_stack_validation_names_the_row_before_the_start(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("node iteration started")

        monkeypatch.setattr(quad, "_asymptotic_nodes", refuse)
        monkeypatch.setattr(quad, "_newton_ratio", refuse)
        with pytest.raises(AssertionError, match="node iteration started"):
            jacobi_rule_01(16, [0.3, 0.5j, 0.4], [0.1, 0.2, 1.2 + 0.5j])
        with pytest.raises(PreconditionError, match=r"-1\.2.*rule 2"):
            jacobi_rule_01(16, [0.3, 0.5j, 0.4], [0.1, 0.2, -1.2 + 0.5j])
        for B, A in (([0.3, 0.4], [0.1]), (0.3, [0.1]), ([0.3], 0.1), ([], [])):
            with pytest.raises(ValueError, match="equal length"):
                jacobi_rule_01(16, B, A)

    def test_no_convergence_names_each_unsettled_row(self, monkeypatch):
        # after two steps the real-exponent row has settled, the others
        # (3 and 5 steps alone) not
        monkeypatch.setattr(quad, "MAX_ABERTH_STEPS", 2)
        with pytest.raises(NoConvergenceError) as info:
            jacobi_rule_01(32, [0.5 + 3j, 0.25, 0.5 + 8j], [0.2 - 3j, 1.5, 0.2 - 8j])
        message = str(info.value)
        assert "(0.5+3j)" in message and "(0.5+8j)" in message
        assert "(0.25+0j)" not in message and "(1.5+0j)" not in message
        assert message.count("last correction") == 2


class TestAsymptoticStart:
    """The Aberth loop of ``jacobi_rule_01`` starts from the interior
    asymptotic formula for the Jacobi zeros at the complex exponents."""

    @pytest.mark.parametrize("n", [64, 128])
    def test_verify_box_settles_in_three_steps(self, monkeypatch, n):
        # exponents from the boxes the thm3.1/3.5/3.8 samplers draw from
        rng = np.random.default_rng(20 + n)
        B = [complex(rng.uniform(-0.7, 1.5), rng.uniform(-0.4, 0.4)) for _ in range(50)]
        A = [complex(rng.uniform(-0.7, 2.2), rng.uniform(-0.4, 0.4)) for _ in range(50)]
        _, heights = _aberth_heights(monkeypatch, n, B, A)
        assert len(heights) <= 3

    def test_chebyshev_start_is_exact(self, monkeypatch):
        # at (-1/2, -1/2) the formula gives the zeros cos((2k-1) pi / 2n)
        x = quad._asymptotic_nodes(64, np.array([[-0.5]]), np.array([[-0.5]]))
        want = np.cos((2 * np.arange(1, 65) - 1) * np.pi / 128)
        assert np.max(np.abs(x[0] - want)) <= 1e-15
        _, heights = _aberth_heights(monkeypatch, 64, -0.5, -0.5)
        assert len(heights) == 1

    @pytest.mark.parametrize("n", [16, 64, 128, 256])
    def test_wide_exponents_converge(self, n):
        # Real parts up to 50 and imaginary parts up to 3, far outside the
        # samplers' boxes: the rule still converges without a numpy
        # warning, and its k = 0 and 1 moments keep the bound of
        # test_large_imaginary_exponents.  At real parts near 50 the mass
        # B(A+1, B+1) itself is off by up to 7e-14 (complex_gamma's error
        # grows with |log gamma|), so the bound of test_moments_at_128_nodes
        # is put on M_1 / M_0 = (B+1) / (A+B+2), which the mass cancels
        # from, in the rows with imaginary parts up to 0.5.
        rng = np.random.default_rng(n)
        im = [0.5 if r % 2 else 3.0 for r in range(12)]
        B = [complex(rng.uniform(-0.9, 50.0), rng.uniform(-m, m)) for m in im]
        A = [complex(rng.uniform(-0.9, 50.0), rng.uniform(-m, m)) for m in im]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, w = jacobi_rule_01(n, B, A)
        for r, m in enumerate(im):
            got = [complex(np.sum(w[r] * t[r] ** k)) for k in (0, 1)]
            for k in (0, 1):
                want = _beta_moment(B[r], A[r], k)
                assert abs(got[k] - want) <= 5e-11 * abs(want), (B[r], A[r], k)
            ratio = (B[r] + 1.0) / (A[r] + B[r] + 2.0)
            bound = 5e-14 if m <= 0.5 else 5e-11
            assert abs(got[1] / got[0] - ratio) <= bound * abs(ratio), (B[r], A[r])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fewest_nodes(self, n):
        # the rule stays exact through degree 2n-1 at the smallest sizes
        B = [0.3 + 0.35j, -0.5, 12 + 0.5j, -0.9 + 0.2j]
        A = [1.1 - 0.3j, -0.5, 20 - 0.3j, 0.4]
        t, w = jacobi_rule_01(n, B, A)
        assert t.shape == w.shape == (len(B), n)
        for r in range(len(B)):
            lone_t, lone_w = jacobi_rule_01(n, B[r], A[r])
            assert np.array_equal(t[r], lone_t) and np.array_equal(w[r], lone_w), r
            for k in range(2 * n):
                got = complex(np.sum(w[r] * t[r] ** k))
                want = _beta_moment(B[r], A[r], k)
                assert abs(got - want) < 1e-13 * abs(want), (r, k)


class TestPinnedRuleBits:
    """The rules' exact output on fixed exponents.

    ``data/rule_bits.json`` holds, as ``float.hex``, the nodes and
    weights of ``jacobi_rule_01`` for three exponent pairs at n = 64
    and 128, recorded from the asymptotic start, and of
    ``_laguerre_rule(64)``, recorded while each rule was still built on
    its own.  The lone rules and the stacked rows (all three pairs in
    one call) must keep these bits.
    """

    DATA = json.loads((Path(__file__).parent / "data" / "rule_bits.json").read_text())

    @staticmethod
    def _hex(values):
        return [[complex(v).real.hex(), complex(v).imag.hex()] for v in values]

    @pytest.mark.parametrize("n", [64, 128])
    def test_jacobi_rule_keeps_its_bits(self, n):
        cases = [c for c in self.DATA["jacobi_rule_01"] if c["n"] == n]
        assert len(cases) == 3
        B = [complex(*c["t_exp"]) for c in cases]
        A = [complex(*c["one_minus_t_exp"]) for c in cases]
        stacked_t, stacked_w = jacobi_rule_01(n, B, A)
        for r, case in enumerate(cases):
            t, w = jacobi_rule_01(n, B[r], A[r])
            assert self._hex(t) == case["t"] and self._hex(w) == case["w"], r
            assert self._hex(stacked_t[r]) == case["t"], r
            assert self._hex(stacked_w[r]) == case["w"], r

    def test_laguerre_rule_keeps_its_bits(self):
        t, w = quad._laguerre_rule.__wrapped__(64)
        want = self.DATA["laguerre_rule_64"]
        assert [float(v).hex() for v in t] == want["t"]
        assert [float(v).hex() for v in w] == want["w"]


class TestJacobiMatrixMoments:
    """Euler and double sum over the moments mass (B^k)_00 of the n x n
    matrices B = (I +- J) / 2 that ``_component_matrices`` builds, J
    the rule's Jacobi matrix: the n-node Gauss rule's own sums
    sum_i w_i b_i^k over its bases b = t or 1 - t, for every k."""

    @staticmethod
    def _matrix_moments(n, B, A, sign, count):
        """mass (B^k)_00 for k < count, by dense products with the
        symmetric matrix of the built diagonal and squared off-diagonal."""
        (start, step), _ = quad._component_matrices(n, [[(B, A)], []], sign)
        off = np.sqrt(step[0, 1, :-1])
        dense = np.diag(step[0, 0]) + np.diag(off, 1) + np.diag(off, -1)
        state, out = start[0], []
        for _ in range(count):
            out.append(state[0])
            state = dense @ state
        return np.array(out)

    @staticmethod
    def _box_pairs(rng, count):
        """(B, A) from the boxes the thm3.1/3.8 samplers' rules reach."""
        return [
            (complex(rng.uniform(-0.7, 1.5), rng.uniform(-0.4, 0.4)),
             complex(rng.uniform(-0.7, 2.2), rng.uniform(-0.4, 0.4)))
            for _ in range(count)
        ]

    @pytest.mark.parametrize("n", [16, 64, 128])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["t", "one_minus_t"])
    def test_matrix_moments_are_the_rule_sums(self, n, sign):
        for B, A in self._box_pairs(np.random.default_rng(n), 4):
            t, w = jacobi_rule_01(n, B, A)
            bases, running, want = (t if sign > 0 else 1.0 - t), w.copy(), []
            for _ in range(3 * n):
                want.append(running.sum())
                running = running * bases
            got = self._matrix_moments(n, B, A, sign, 3 * n)
            err = np.abs(got - want) / np.abs(want)
            assert np.max(err) <= 1e-13, (B, A, int(np.argmax(err)), np.max(err))

    @pytest.mark.parametrize("n", [16, 64, 128])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["t", "one_minus_t"])
    def test_matrix_moments_match_beta_values(self, n, sign):
        # the last pair is the large imaginary one where the rule's own
        # moments are off by up to 7.8e-12
        pairs = self._box_pairs(np.random.default_rng(100 + n), 2) + [(0.5 + 3j, 0.2 - 3j)]
        for B, A in pairs:
            got = self._matrix_moments(n, B, A, sign, 2 * n)
            for k in range(2 * n):
                want = _beta_moment(B, A, k) if sign > 0 else _beta_moment(A, B, k)
                assert abs(got[k] - want) <= 1e-13 * abs(want), (B, A, k)


class TestOneStackedRuleCall:
    """Each representation builds all its Gauss rules' Jacobi matrices in
    one stacked call.  Euler and double sum over the matrices and solve
    for no nodes; Laplace solves them in one ``jacobi_rule_01`` call."""

    @pytest.mark.parametrize(
        "run, rule_calls",
        [
            (lambda: euler_integral(PfqParams([0.8, 1.1], [2.3]), BiComplex(0.2, 0.1)), 0),
            (lambda: laplace_integral(
                from_idempotent(2.5, 1.5), PfqParams([1.1], [1.8]), BiComplex(0.3, 0.05)
            ), 1),
            (lambda: double_integral(
                BiComplex(1.2, 0.1), 2.0, PfqParams([0.7, 1.2], [1.9]), BiComplex(0.1, 0.05),
                ProductCurve(CurveKind.UNIT_INTERVAL, 128),
            ), 0),
        ],
        ids=["euler", "laplace", "double"],
    )
    def test_one_jacobi_rule_call(self, monkeypatch, run, rule_calls):
        # one _jacobi_stack call builds every matrix; jacobi_rule_01, when
        # it runs, makes that call itself
        calls = {"jacobi_rule_01": [], "_jacobi_stack": []}
        for name, record in calls.items():
            def counting(*args, build=getattr(quad, name), record=record):
                record.append(args)
                return build(*args)

            monkeypatch.setattr(quad, name, counting)
        assert run().passed
        assert len(calls["_jacobi_stack"]) == 1
        assert len(calls["jacobi_rule_01"]) == rule_calls


def _integral_runs(params, nodes=128):
    """Each integral representation at one fixed point, its inner series
    given by `params` (Euler prepends its own alpha_1 and beta_1)."""
    return {
        "euler": lambda: euler_integral(
            PfqParams([0.8] + list(params.alphas), [2.3] + list(params.betas)),
            BiComplex(0.2, 0.1), ProductCurve(CurveKind.UNIT_INTERVAL, nodes),
        ),
        "laplace": lambda: laplace_integral(
            from_idempotent(2.5, 1.5), params, BiComplex(0.3, 0.05),
            ProductCurve(CurveKind.HALF_LINE, nodes),
        ),
        "double": lambda: double_integral(
            BiComplex(1.2, 0.1), 2.0, params, BiComplex(0.1, 0.05),
            ProductCurve(CurveKind.UNIT_INTERVAL, nodes),
        ),
    }


class TestInnerSeriesLanes:
    """Every integral representation sums its inner series over its
    rules' moments once per component: over Jacobi matrices for Euler
    and double, and over one node row for Laplace (its [0, 1] rule and
    its kept Gauss-Laguerre tail nodes).  No series kernel sees more
    than n arguments, or n plus the kept tail nodes for Laplace, whose
    row is the union of two rules; that is O(n), where a node grid
    would be n^2.  The lockstep array kernel is not called."""

    KERNELS = ("series_sum", "series_sum_many", "series_sum_terminating")

    @pytest.mark.parametrize("integral", ["euler", "laplace", "double"])
    @pytest.mark.parametrize(
        "params",
        [PfqParams([0.7, 1.2], [1.9, 2.4]), PfqParams([-2.0, 0.7], [1.5, 2.1])],
        ids=["unending", "terminating"],
    )
    def test_no_kernel_call_takes_more_than_n_arguments(self, monkeypatch, params, integral):
        called, sizes, inner_calls = [], [], []
        for name in self.KERNELS:
            def recording(a, b, z, *rest, name=name, kernel=getattr(kernels, name)):
                # a series_sum call with a rule stack (start, step) is a
                # moment sum: over Jacobi matrices when the step is (R, 2, n)
                if len(rest) > 2 and rest[3] is not None:
                    called.append("matrix sum" if np.ndim(rest[3]) == 3 else "node sum")
                else:
                    called.append(name)
                # z, and the rows of the start and step stacks
                sizes.append(np.size(z))
                sizes.extend(np.shape(x)[-1] for x in rest if np.ndim(x))
                return kernel(a, b, z, *rest)

            monkeypatch.setattr(kernels, name, recording)
        inner = quad._inner_values

        def recording_inner(*args):
            inner_calls.append(args)
            return inner(*args)

        monkeypatch.setattr(quad, "_inner_values", recording_inner)
        assert _integral_runs(params)[integral]().passed
        assert len(inner_calls) == 2
        kind = "node sum" if integral == "laplace" else "matrix sum"
        assert called.count(kind) == len(inner_calls)
        assert "series_sum_many" not in called
        limit = 128
        if integral == "laplace":
            # the tail nodes t = 1 + u that the row keeps, |z| t <= 700,
            # at the argument of _integral_runs
            u, _ = quad._laguerre_rule(128)
            limit += max(
                np.count_nonzero(abs(zc) * (1.0 + u) <= 700.0)
                for _, zc in components(BiComplex(0.3, 0.05))
            )
        assert max(sizes) <= limit, (max(sizes), limit)

    @pytest.mark.parametrize("integral", ["euler", "laplace", "double"])
    def test_term_cap_raises(self, monkeypatch, integral):
        # the cap binds the moment sum, which reports it, and the
        # quadrature raises at the first component
        statuses = []
        series_sum = kernels.series_sum

        def recording(*args):
            out = series_sum(*args)
            if args[5] is not None:  # a moment sum: the call carries a rule stack (start, step)
                statuses.append(out[3])
            return out

        monkeypatch.setattr(kernels, "series_sum", recording)
        monkeypatch.setattr(quad, "DEFAULT_CAP", 5)
        with pytest.raises(NoConvergenceError, match="did not meet the stop rule within 5 terms"):
            _integral_runs(PfqParams([0.7], [1.9]), 64)[integral]()
        assert statuses == [kernels.STATUS_CAP]


class TestEuler:
    def test_confluent_example(self):
        # 1F1(1;3;Z) = 2 * integral of (1-t) e^(Zt)
        rep = euler_integral(PfqParams([1.0], [3.0]), from_idempotent(0.3, 0.6))
        assert rep.passed and rep.residual.max_comp() < 1e-8

    def test_gauss_example(self):
        rep = euler_integral(PfqParams([0.8, 1.1], [2.3]), BiComplex(0.2, 0.1))
        assert rep.passed and rep.residual.max_comp() < 1e-8

    def test_degenerate_complex_embedding(self):
        # zero i2-parts everywhere collapse both components to one integral
        rep = euler_integral(PfqParams([BiComplex(0.9)], [BiComplex(2.1)]), BiComplex(0.4))
        assert abs(rep.lhs.re2) < 1e-12
        assert abs(rep.rhs.re2) < 1e-12

    def test_positivity_precondition(self):
        with pytest.raises(PreconditionError):
            euler_integral(PfqParams([from_idempotent(-0.2, 1.0)], [2.0]), BiComplex(0.1))
        with pytest.raises(PreconditionError):
            # beta - alpha has a nonpositive real part component
            euler_integral(PfqParams([1.5], [1.2]), BiComplex(0.1))

    def test_needs_shape(self):
        with pytest.raises(PreconditionError):
            euler_integral(PfqParams([], []), BiComplex(0.1))

    def test_ball_requirement(self):
        with pytest.raises(DomainError):
            euler_integral(PfqParams([1.0], [3.0]), from_idempotent(1.4, 0.2))

    def test_divergent_inner_series_is_gated_at_once(self):
        # the integrand's series is a 2F0, divergent at every nonzero
        # argument: the gate refuses it before the array kernel runs
        params = PfqParams([BiComplex(0.8), BiComplex(1.4), BiComplex(0.5)], [BiComplex(2.1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                euler_integral(params, from_idempotent(0.5, 0.4))

    def test_node_doubling_converges(self):
        params = PfqParams([BiComplex(0.8), BiComplex(1.4)], [BiComplex(2.1)])
        z = from_idempotent(0.93, 0.88)
        errs = []
        for n in (16, 32, 64):
            rep = euler_integral(params, z, ProductCurve(CurveKind.UNIT_INTERVAL, n))
            errs.append(rep.residual.max_comp())
        floor = 5e-12
        for lo, hi in zip(errs, errs[1:]):
            assert hi <= lo / 4.0 or lo <= floor, errs

    def test_large_imaginary_exponents(self):
        # the kernel's exponents are B = 0.5+3j, A = 0.2-3j in component 1,
        # where the Gauss rule's moments are off by up to 7.8e-12 and the
        # residual read 8.1e-12 when the sum ran over the rule's nodes
        a1 = from_idempotent(1.5 + 3j, 1.2 + 0.2j)
        b1 = a1 + from_idempotent(1.2 - 3j, 1.1 - 0.1j)
        params = PfqParams([a1, from_idempotent(0.7, 0.9)], [b1, from_idempotent(1.9, 2.2)])
        rep = euler_integral(params, from_idempotent(0.5 + 0.2j, 0.3))
        assert rep.passed and rep.residual.max_comp() <= 1e-13

    def test_terminating_inner_series(self):
        # the integrand's series has numerator -2: a degree-2 polynomial in
        # z t, summed over all nodes in one kernel call
        params = PfqParams([BiComplex(0.8), BiComplex(-2.0)], [BiComplex(2.1)])
        z = from_idempotent(0.5, -0.3)
        rep = euler_integral(params, z)
        assert rep.passed and rep.residual.max_comp() < 1e-12
        for got, zc in ((rep.lhs.idem1, 0.5), (rep.lhs.idem2, -0.3)):
            want = complex(mpmath.hyp2f1(0.8, -2.0, 2.1, zc))
            assert abs(got - want) < 1e-13 * abs(want)


class TestLaplace:
    def test_laguerre_rule_built_once_and_read_only(self):
        import scipy.special  # test-only oracle for the nodes

        t, w = quad._laguerre_rule(48)
        assert quad._laguerre_rule(48)[0] is t
        assert not t.flags.writeable and not w.flags.writeable
        for n in (16, 48, 64, 128):
            t, w = quad._laguerre_rule(n)
            ref_t, _ = scipy.special.roots_laguerre(n)
            assert np.max(np.abs(t - ref_t) / ref_t) <= 1e-13, n
            # Exact for degree 2n-1 against e^-t: sum w t^k = k!.
            for k in range(min(2 * n - 1, 40) + 1):
                moment = math.fsum(w * t**k)
                assert abs(moment - math.factorial(k)) <= 1e-14 * math.factorial(k), (n, k)

    def test_laguerre_rule_large_n_is_finite_and_quiet(self):
        # the largest nodes' weights fall below the float range: 0, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, w = quad._laguerre_rule.__wrapped__(256)
        assert np.all(np.isfinite(t)) and np.all(w >= 0.0)
        assert abs(math.fsum(w) - 1.0) <= 5e-14

    def test_laguerre_rule_overflowing_newton_step_is_finite(self):
        # from about n = 400, q_n and q_n' overflow at the largest nodes;
        # those keep their eigvalsh start and get weight 0
        for n in (400, 512):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                t, w = quad._laguerre_rule.__wrapped__(n)
            assert np.all(np.isfinite(t)) and np.all(np.isfinite(w)), n
            assert np.all(w >= 0.0), n
            for k in range(41):
                moment = math.fsum(w * t**k)
                assert abs(moment - math.factorial(k)) <= 5e-14 * math.factorial(k), (n, k)

    @pytest.mark.parametrize("nodes", [256, 512])
    @pytest.mark.parametrize(
        "params", [PfqParams([1.1], [1.8]), PfqParams([-3.0], [1.5])],
        ids=["unending", "terminating"],
    )
    def test_tail_near_the_unit_circle_is_finite_and_quiet(self, nodes, params):
        # |z| = 0.97 in both components: the tail's scaled moment sum runs
        # to arguments |z| s near 700, and at n = 512 (largest node about
        # 2004) the |z| t <= 700 filter drops nodes
        u, _ = quad._laguerre_rule(nodes)
        if nodes == 512:
            assert np.max(0.97 * (1.0 + u)) > 700.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = laplace_integral(
                from_idempotent(2.5, 1.5), params, from_idempotent(0.97, -0.97),
                ProductCurve(CurveKind.HALF_LINE, nodes),
            )
        assert rep.passed and rep.residual.max_comp() < 1e-7

    def test_binomial_example(self):
        # (1/Gamma(3)) * integral t^2 e^((Z-1)t) = (1-Z)^(-3)
        rep = laplace_integral(3.0, PfqParams([], []), from_idempotent(0.2, 0.5))
        assert rep.passed and rep.residual.max_comp() < 1e-8

    def test_geometric_example(self):
        rep = laplace_integral(1.0, PfqParams([], []), BiComplex(0.35, 0.1))
        assert rep.passed and rep.residual.max_comp() < 1e-10

    def test_confluent_inner(self):
        rep = laplace_integral(
            from_idempotent(2.5, 1.5), PfqParams([1.1], [1.8]), BiComplex(0.3, 0.05)
        )
        assert rep.passed and rep.residual.max_comp() < 1e-7

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            laplace_integral(1.0, PfqParams([1.0, 2.0], [1.5]), BiComplex(0.1))
        with pytest.raises(PreconditionError):
            laplace_integral(from_idempotent(-0.5, 1.0), PfqParams([], []), BiComplex(0.1))

    def test_node_doubling_converges(self):
        v = from_idempotent(0.6, 1.3)
        params = PfqParams([BiComplex(1.1)], [BiComplex(1.6)])
        z = from_idempotent(0.72, 0.65)
        errs = []
        for n in (16, 32, 64):
            rep = laplace_integral(v, params, z, ProductCurve(CurveKind.HALF_LINE, n))
            errs.append(rep.residual.max_comp())
        floor = 5e-12
        for lo, hi in zip(errs, errs[1:]):
            assert hi <= lo / 4.0 or lo <= floor, errs


class TestDouble:
    def test_exponential_collapse(self):
        # p = q = 1 with alpha = beta: the inner function collapses to exp
        rep = double_integral(
            1.5, 1.5, PfqParams([1.3], [1.3]), from_idempotent(0.25, 0.4),
            ProductCurve(CurveKind.UNIT_INTERVAL, 64),
        )
        assert rep.passed and rep.residual.max_comp() < 1e-7

    def test_zero_argument_is_beta_product(self):
        m = from_idempotent(1.4, 0.9)
        n = BiComplex(1.1, 0.2)
        rep = double_integral(m, n, PfqParams([0.9], [1.7]), BiComplex(0.0))
        from bchyper.gamma import bc_gamma

        want = bc_gamma(m) * bc_gamma(n) * (bc_gamma(m + n + 1) ** -1)
        assert abs(rep.rhs.idem1 - want.idem1) < 1e-12 * abs(want.idem1)
        assert rep.passed

    def test_gauss_inner_with_complex_exponents(self):
        rep = double_integral(
            BiComplex(1.2, 0.1), 2.0, PfqParams([0.7, 1.2], [1.9]), BiComplex(0.1, 0.05),
            ProductCurve(CurveKind.UNIT_INTERVAL, 128),
        )
        assert rep.passed and rep.residual.max_comp() < 1e-6

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            double_integral(from_idempotent(-1.0, 1.0), 1.0, PfqParams([], []), BiComplex(0.1))

    def test_degree_zero_inner_series(self):
        # numerator 0: the inner series is the constant 1 at every node
        m = from_idempotent(1.2, 0.9)
        n = from_idempotent(0.8, 1.5)
        rep = double_integral(m, n, PfqParams([0.0], [1.5]), from_idempotent(0.5, 0.3))
        assert rep.passed and rep.residual.max_comp() < 1e-12

    def test_large_imaginary_exponents(self):
        # the rules' exponents are (0.5+3j, 0.7-3j) and (-0.3-3j, 0) in
        # component 1
        m = from_idempotent(1.5 + 3j, 1.2)
        n = from_idempotent(0.7 - 3j, 0.9)
        params = PfqParams([from_idempotent(0.7, 0.9)], [from_idempotent(1.9, 2.2)])
        rep = double_integral(m, n, params, from_idempotent(0.5 + 0.2j, 0.3))
        assert rep.passed and rep.residual.max_comp() <= 1e-13

    @pytest.mark.parametrize("nodes", [16, 64, 128])
    def test_moment_sum_is_the_node_grid_sum(self, monkeypatch, nodes):
        # Each worker takes its rule sum termwise over the rules' moments,
        # Euler and double over their Jacobi matrices'.  Its lhs must match the lhs built on the node-by-node sums of the
        # array kernel over the same rules: sum_i w_i F(z t_i) for Euler;
        # for Laplace the [0, 1] piece sum_i w_i e^(-t_i) F(z t_i) plus
        # e^(-1) times the tail sum_l W_l F(z t_l) over the Gauss-Laguerre
        # nodes t_l = 1 + u_l, W_l = wl_l t_l^(v-1); the n x n node grid
        # for the double integral.
        # Draws come from the thm3.1, thm3.5 and thm3.8 boxes of verify,
        # plus terminating inner series of degree 0 and 2.
        rng = np.random.default_rng(38)

        def node_sum(a, b, w, args):
            values, _, _, statuses = kernels.series_sum_many(
                a, b, args.ravel(), DEFAULT_TOL, DEFAULT_CAP
            )
            assert not statuses.any()
            values = values.reshape(args.shape)
            return w[0] @ values @ w[1] if len(w) == 2 else np.sum(w[0] * values)

        def euler_case(params, z):
            a1, b1 = params.alphas[0], params.betas[0]
            exps = [(a - 1.0, b - a - 1.0) for _, a, b in components(a1, b1)]
            t, w = jacobi_rule_01(nodes, *zip(*exps))
            sums = [
                node_sum(params.comp_alphas(s)[1:], params.comp_betas(s)[1:], [w[s - 1]],
                         zc * t[s - 1])
                for s, zc in ((1, z.idem1), (2, z.idem2))
            ]
            curve = ProductCurve(CurveKind.UNIT_INTERVAL, nodes)
            return "_euler_comp", lambda: euler_integral(params, z, curve), sums

        def laplace_case(v, params, z):
            t, w = jacobi_rule_01(nodes, [v.idem1 - 1.0, v.idem2 - 1.0], [0.0, 0.0])
            u, wl = quad._laguerre_rule(nodes)
            sums = []
            for s, zc, vc in ((1, z.idem1, v.idem1), (2, z.idem2, v.idem2)):
                a, b = params.comp_alphas(s), params.comp_betas(s)
                piece = node_sum(a, b, [w[s - 1] * np.exp(-t[s - 1])], zc * t[s - 1])
                tail = node_sum(a, b, [wl * (1.0 + u) ** (vc - 1.0)], zc * (1.0 + u))
                sums.append(piece + math.exp(-1.0) * tail)
            curve = ProductCurve(CurveKind.HALF_LINE, nodes)
            return "_laplace_comp", lambda: laplace_integral(v, params, z, curve), sums

        def double_case(m, n, params, z):
            t, w = jacobi_rule_01(
                nodes, [m.idem1 - 1.0, n.idem1 - 1.0, m.idem2 - 1.0, n.idem2 - 1.0],
                [n.idem1, 0.0, n.idem2, 0.0],
            )
            sums = []
            for s, zc in ((1, z.idem1), (2, z.idem2)):
                tu, tv = t[2 * s - 2], t[2 * s - 1]
                args = ((1.0 - tu)[:, None] * (1.0 - tv)[None, :]) * zc
                sums.append(node_sum(params.comp_alphas(s), params.comp_betas(s),
                                     w[2 * s - 2 : 2 * s], args))
            curve = ProductCurve(CurveKind.UNIT_INTERVAL, nodes)
            return "_double_comp", lambda: double_integral(m, n, params, z, curve), sums

        cases = []
        for _ in range(6):
            p, q = verify._pick(rng, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
            a1 = verify._bc_idem(rng, (0.3, 2.0), (-0.4, 0.4))
            b1 = a1 + verify._bc_idem(rng, (0.3, 1.5), (-0.4, 0.4))
            params = PfqParams(
                [a1] + [verify._bc_idem(rng) for _ in range(p - 1)],
                [b1] + [verify._bc_idem(rng) for _ in range(q - 1)],
            )
            cases.append(euler_case(params, verify._ball_z(rng, rmax=0.8)))
        for _ in range(6):
            p, q = verify._pick(rng, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
            params = verify._sample_params(rng, p, q)
            v = verify._bc_idem(rng, (0.3, 2.5), (-0.4, 0.4))
            cases.append(laplace_case(v, params, verify._ball_z(rng, rmax=0.75)))
        for p, q in [(0, 0), (1, 1), (2, 1), (1, 2)] * 3:
            params = verify._sample_params(rng, p, q)
            m = verify._bc_idem(rng, (0.4, 2.2), (-0.3, 0.3))
            n = verify._bc_idem(rng, (0.4, 2.2), (-0.3, 0.3))
            cases.append(double_case(m, n, params, verify._ball_z(rng, rmax=0.75)))
        m, n = from_idempotent(1.2, 0.9), from_idempotent(0.8, 1.5)
        v = from_idempotent(2.5, 1.5)
        z = from_idempotent(0.5, 0.3 + 0.2j)
        for top in (0.0, -2.0):  # inner series of degree 0 and 2
            cases.append(euler_case(PfqParams([0.8, top, 0.7], [2.1, 1.5]), z))
            cases.append(laplace_case(v, PfqParams([top], [1.5]), z))
            cases.append(double_case(m, n, PfqParams([top, 0.7], [1.5]), z))

        def worker_lhs(worker_name, run, sums=None):
            lhs = []
            with monkeypatch.context() as patch:
                worker = getattr(quad, worker_name)

                def recording(*args):
                    out = worker(*args)
                    lhs.append(out[0])
                    return out

                patch.setattr(quad, worker_name, recording)
                if sums is not None:
                    # the rule sums in the order the workers take them
                    queue = iter(sums)
                    patch.setattr(quad, "_inner_values", lambda *args: next(queue))
                run()
                if sums is not None:
                    assert next(queue, None) is None, "a reference rule sum was not taken"
            return lhs

        for worker_name, run, sums in cases:
            got = worker_lhs(worker_name, run)
            want = worker_lhs(worker_name, run, sums)
            for s in (0, 1):
                assert abs(got[s] - want[s]) <= 1e-13 * abs(want[s]), (worker_name, s, got, want)

    def test_node_doubling_converges(self):
        m = from_idempotent(1.2, 0.9)
        n = from_idempotent(0.8, 1.5)
        params = PfqParams([BiComplex(0.9), BiComplex(1.7)], [BiComplex(2.2)])
        z = from_idempotent(0.9, 0.85)
        errs = []
        for nn in (16, 32, 64):
            rep = double_integral(m, n, params, z, ProductCurve(CurveKind.UNIT_INTERVAL, nn))
            errs.append(rep.residual.max_comp())
        floor = 5e-12
        for lo, hi in zip(errs, errs[1:]):
            assert hi <= lo / 4.0 or lo <= floor, errs


class TestComponentwiseFactorization:
    def test_integral_splits_over_basis(self):
        # the bicomplex curve integral is e1*(C1 integral) + e2*(C2 integral):
        # embedding one component diagonally reproduces that component
        params = PfqParams([from_idempotent(0.9, 1.3)], [from_idempotent(2.4, 2.9)])
        z = from_idempotent(0.3 + 0.2j, 0.5 - 0.1j)
        full = euler_integral(params, z)
        diag_params = PfqParams(
            [BiComplex(params.alphas[0].idem1)], [BiComplex(params.betas[0].idem1)]
        )
        diag = euler_integral(diag_params, BiComplex(z.idem1))
        assert abs(full.lhs.idem1 - diag.lhs.idem1) < 1e-13
        assert abs(full.rhs.idem1 - diag.rhs.idem1) < 1e-13


class TestCurve:
    def test_node_floor(self):
        with pytest.raises(ValueError):
            ProductCurve(CurveKind.UNIT_INTERVAL, 8)

    def test_kind_mismatch(self):
        with pytest.raises(PreconditionError):
            euler_integral(
                PfqParams([1.0], [3.0]), BiComplex(0.1),
                ProductCurve(CurveKind.HALF_LINE, 64),
            )


class TestRuntimeImports:
    def test_integrals_and_gamma_run_without_scipy(self):
        # scipy is a test-only oracle: a fresh interpreter that runs each
        # integral representation and both gammas must never import it.
        code = (
            "import sys; import bchyper as bc; "
            "from bchyper import BiComplex, PfqParams; "
            "bc.euler_integral(PfqParams([0.8, 1.4], [2.1]), bc.from_idempotent(0.3, 0.2)); "
            "bc.laplace_integral(1.5, PfqParams([1.1], [1.8]), BiComplex(0.3, 0.05)); "
            "bc.double_integral(1.2, 0.7, PfqParams([0.5], [1.5]), BiComplex(0.3)); "
            "bc.complex_gamma(1.3 + 0.7j); bc.bc_gamma(bc.from_idempotent(1.2, 2.3 + 1j)); "
            "print('scipy' in sys.modules)"
        )
        src = str(Path(bchyper.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"
