import warnings

import mpmath
import numpy as np
import pytest

from bchyper import (
    BiComplex,
    DomainError,
    InvalidParamsError,
    PfqParams,
    PoleError,
    ShiftM,
    bc_exp,
    cauchy_riemann_check,
    coefficient_recurrence_ulps,
    contiguous_alpha_minus,
    contiguous_alpha_plus,
    contiguous_beta_minus,
    contiguous_beta_plus,
    derivative_relation,
    from_idempotent,
    ode_residual_with_bound,
    quad_even,
    quad_odd,
    saalschutz,
)
from bchyper import hyper, identities, verify
from bchyper.hyper import per_component, pfq_value

GAUSS = PfqParams([0.7, 1.2], [1.9])
KUMMER = PfqParams([BiComplex(1.3, 0.2)], [BiComplex(2.1)])


class TestQuadEven:
    def test_at_zero(self):
        rep = quad_even(KUMMER, BiComplex(0.0))
        assert rep.lhs == BiComplex(2.0)
        assert rep.rhs == BiComplex(2.0)
        assert rep.residual.comp1 == 0.0 and rep.residual.comp2 == 0.0

    def test_kummer_sample(self):
        rep = quad_even(KUMMER, from_idempotent(0.35, 0.15))
        assert rep.passed and rep.residual.max_comp() < 1e-10

    def test_gauss_sample(self):
        rep = quad_even(GAUSS, BiComplex(0.3, 0.1))
        assert rep.passed and rep.residual.max_comp() < 1e-10

    def test_recombination(self):
        # even RHS + odd RHS = 2 * F(Z)
        z = from_idempotent(0.3 + 0.1j, 0.2 - 0.15j)
        even = quad_even(KUMMER, z)
        odd = quad_odd(KUMMER, z)
        total = even.rhs + odd.rhs
        want = 2.0 * pfq_value(KUMMER, z)
        assert abs(total.idem1 - want.idem1) < 1e-12
        assert abs(total.idem2 - want.idem2) < 1e-12


class TestQuadOdd:
    def test_at_zero(self):
        rep = quad_odd(KUMMER, BiComplex(0.0))
        assert rep.lhs == BiComplex(0.0) and rep.rhs == BiComplex(0.0)

    def test_kummer_sample(self):
        rep = quad_odd(KUMMER, from_idempotent(0.35, 0.15))
        assert rep.passed and rep.residual.max_comp() < 1e-10

    def test_exp_reduces_to_sinh(self):
        # p = q = 0: prefactored series at Z^2/4 equals exp(Z) - exp(-Z)
        z = from_idempotent(0.5, 0.2)
        rep = quad_odd(PfqParams([], []), z)
        want = bc_exp(z) - bc_exp(-z)
        assert abs(rep.lhs.idem1 - want.idem1) < 1e-13
        assert abs(rep.lhs.idem2 - want.idem2) < 1e-13
        assert rep.passed


class TestSaalschutz:
    def test_degree_zero(self):
        rep = saalschutz(0, 0.4, 1.1, 2.0)
        assert rep.lhs == BiComplex(1.0) and rep.rhs == BiComplex(1.0)

    def test_degree_one_real(self):
        rep = saalschutz(1, 0.3, 0.7, 1.9)
        assert rep.residual.max_comp() < 1e-13
        # independent two-term sum: 1 + (-1)(a1)(a2)/(b1*b2)
        a1, a2, b = 0.3, 0.7, 1.9
        b2 = 1.0 - b + a1 + a2 - 1.0
        want = 1.0 + (-1.0) * a1 * a2 / (b * b2)
        assert abs(rep.lhs.idem1 - want) < 1e-14

    def test_degree_three_bicomplex(self):
        rep = saalschutz(3, from_idempotent(0.5, 0.2), 1.1, BiComplex(2.4, 0.3))
        assert rep.passed and rep.residual.max_comp() < 1e-12

    def test_denominator_pole_inside_the_sum(self):
        # b = -1 vanishes in the factor (b + 1) of the term n = 2 <= 3
        with pytest.raises(InvalidParamsError):
            saalschutz(3, 0.4, 1.1, -1.0)


class TestDerivativeRelation:
    def test_order_zero_exact(self):
        rep = derivative_relation(GAUSS, from_idempotent(0.2, 0.3), 0)
        assert rep.residual.comp1 == 0.0 and rep.residual.comp2 == 0.0

    def test_exp_derivative(self):
        # the exponential is its own derivative
        rep = derivative_relation(PfqParams([], []), from_idempotent(0.7, -0.4), 1)
        assert rep.residual.max_comp() < 1e-13

    def test_gauss_second_derivative(self):
        rep = derivative_relation(GAUSS, from_idempotent(0.2, 0.3), 2)
        assert rep.passed and rep.residual.max_comp() < 1e-9

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            derivative_relation(GAUSS, BiComplex(0.1), -1)

    def test_lhs_against_mpmath(self):
        # The two sides share the series kernel, so the left side is also
        # checked on its own: numerical differentiation of mpmath's pFq
        # at 20 digits, on thm5.1's parameter shapes and argument ball.
        rng = np.random.default_rng(51)
        shapes = [(0, 0), (1, 1), (2, 1), (1, 2), (2, 2)]
        with mpmath.workdps(20):
            for i in range(20):
                params = verify._sample_params(rng, *shapes[i % len(shapes)])
                z = verify._ball_z(rng, rmax=0.7)
                for k in (1, 2, 3):
                    sides = per_component(identities.derivative_comp, params, z, k)
                    for s, (lhs, _) in zip((1, 2), sides):
                        a = [complex(x) for x in params.comp_alphas(s)]
                        b = [complex(x) for x in params.comp_betas(s)]
                        zc = complex(z.idem1 if s == 1 else z.idem2)
                        want = complex(mpmath.diff(lambda w: mpmath.hyper(a, b, w), zc, k))
                        assert abs(lhs - want) <= 1e-12 * abs(want), (i, k, s)


class TestCauchyRiemann:
    def test_exp_argument_direction(self):
        rep = cauchy_riemann_check(PfqParams([], []), BiComplex(0.3, 0.2), 1e-5)
        assert rep.residual.max_comp() < 1e-8

    def test_gauss_argument_direction(self):
        rep = cauchy_riemann_check(GAUSS, BiComplex(0.1, 0.05), 1e-5)
        assert rep.residual.max_comp() < 1e-7

    def test_parameter_direction(self):
        rep = cauchy_riemann_check(KUMMER, BiComplex(0.2, 0.1), 1e-5, wrt="alpha")
        assert rep.residual.max_comp() < 1e-7

    def test_beta_direction(self):
        rep = cauchy_riemann_check(KUMMER, BiComplex(0.2, 0.1), 1e-5, wrt="beta")
        assert rep.residual.max_comp() < 1e-7

    def test_step_range(self):
        with pytest.raises(ValueError):
            cauchy_riemann_check(GAUSS, BiComplex(0.1), 1.0)
        with pytest.raises(ValueError):
            cauchy_riemann_check(PfqParams([], [1.5]), BiComplex(0.1), 1e-5, wrt="alpha")


class TestContiguous:
    Z = from_idempotent(0.2, 0.4)

    def test_zero_shift_trivial(self):
        for op in (contiguous_alpha_plus, contiguous_alpha_minus,
                   contiguous_beta_minus, contiguous_beta_plus):
            rep = op(PfqParams([2.0], [3.0]), self.Z, ShiftM(0, 0))
            assert rep.residual.max_comp() < 1e-12, op.__name__

    def test_alpha_plus_examples(self):
        rep = contiguous_alpha_plus(PfqParams([2.0], [3.0]), self.Z, ShiftM(1, 0))
        assert rep.residual.max_comp() < 1e-10
        rep = contiguous_alpha_plus(
            PfqParams([2.0, 1.5], [2.5]), BiComplex(0.15, 0.1), ShiftM(2, 1)
        )
        assert rep.residual.max_comp() < 1e-9

    def test_alpha_minus_examples(self):
        rep = contiguous_alpha_minus(
            PfqParams([2.0, 1.5], [2.5]), BiComplex(0.15, 0.1), ShiftM(1, 1)
        )
        assert rep.residual.max_comp() < 1e-10
        # p = 3, q = 2 with a denominator matching the third numerator
        rep = contiguous_alpha_minus(
            PfqParams([2.2, 1.5, 0.9], [2.5, 0.9]), BiComplex(0.1, 0.05), ShiftM(2, 0)
        )
        assert rep.residual.max_comp() < 1e-9

    def test_beta_minus_examples(self):
        rep = contiguous_beta_minus(
            PfqParams([1.2], [3.7]), from_idempotent(0.2, 0.1), ShiftM(1, 0)
        )
        assert rep.residual.max_comp() < 1e-10
        rep = contiguous_beta_minus(
            PfqParams([0.7, 1.2], [3.9]), BiComplex(0.12, 0.07), ShiftM(1, 1)
        )
        assert rep.residual.max_comp() < 1e-9

    def test_beta_plus_examples(self):
        rep = contiguous_beta_plus(
            PfqParams([1.2], [2.5]), from_idempotent(0.3, 0.1), ShiftM(1, 0)
        )
        assert rep.residual.max_comp() < 1e-10
        rep = contiguous_beta_plus(
            PfqParams([0.7, 1.2], [1.9]), BiComplex(0.2, 0.05), ShiftM(2, 2)
        )
        assert rep.residual.max_comp() < 1e-9

    def test_binomial_sum_pole(self):
        # (alpha1)_s vanishes at alpha1 = 0, s = 1
        with pytest.raises(PoleError):
            contiguous_alpha_plus(
                PfqParams([0.0], [1.5]), from_idempotent(0.3, 0.2), ShiftM(1, 0)
            )

    def test_shift_validation(self):
        with pytest.raises(ValueError):
            ShiftM(-1, 2)
        assert ShiftM(2, 1).conj == ShiftM(1, 2)

    def test_beta_minus_needs_valid_betas(self):
        with pytest.raises(InvalidParamsError):
            contiguous_beta_minus(PfqParams([1.2], [2.0]), self.Z, ShiftM(2, 2))

    def test_alpha_relations_need_alpha(self):
        with pytest.raises(InvalidParamsError):
            contiguous_alpha_plus(PfqParams([], [1.5]), self.Z, ShiftM(1, 0))


    def test_each_distinct_sum_once(self, monkeypatch):
        # The two shifts of a relation share the sums F(a+s; b+s; z), a
        # shift of 0 leaves the moved parameter where it was, and m = n
        # repeats the left side: each (parameters, z) is summed once.
        calls = []
        summed = hyper.component_series

        def counting(alphas, betas, z, *args):
            calls.append((tuple(alphas), tuple(betas), complex(z)))
            return summed(alphas, betas, z, *args)

        monkeypatch.setattr(hyper, "component_series", counting)
        z = from_idempotent(0.2 + 0.1j, 0.3 - 0.05j)
        a = [BiComplex(0.7, 0.1), BiComplex(1.2, -0.05)]
        b = [BiComplex(3.9, 0.2), BiComplex(4.4)]
        relations = {
            contiguous_alpha_plus: ((1, 1), (2, 1), (1, 0)),
            contiguous_alpha_minus: ((1, 1), (2, 1), (1, 0)),
            contiguous_beta_minus: ((1, 1), (2, 1), (0, 1)),
            contiguous_beta_plus: ((1, 1), (2, 1), (0, 1)),
        }
        for op, shapes in relations.items():
            for p, q in shapes:
                for m, n in ((2, 2), (0, 0), (3, 1), (0, 2)):
                    calls.clear()
                    rep = op(PfqParams(a[:p], b[:q]), z, ShiftM(m, n))
                    assert rep.passed, (op.__name__, p, q, m, n)
                    assert calls and len(calls) == len(set(calls)), (op.__name__, p, q, m, n)


class TestRelationGates:
    """A relation's every component sum is gated, before the kernel
    runs: no numpy warning comes before the DomainError."""

    PARAMS = PfqParams([0.3, 0.4], [2.5])
    # on the unit circle; sum(b) - sum(a) = 1.8 for PARAMS itself
    CIRCLE = from_idempotent(-1, -1)

    def _raises_domain(self, fn, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                fn(*args)

    def test_contiguous_moved_parameter(self):
        # alpha1 + 2 leaves sum(b) - sum(a) = -0.2 on the circle
        self._raises_domain(contiguous_alpha_plus, self.PARAMS, self.CIRCLE, ShiftM(2, 2))

    def test_derivative_shifted_parameters(self):
        # every parameter + 2 leaves sum(b) - sum(a) = -0.2 on the circle
        self._raises_domain(derivative_relation, self.PARAMS, self.CIRCLE, 2)

    def test_quadratic_outside_the_ball(self):
        self._raises_domain(quad_even, self.PARAMS, from_idempotent(1.2, 0.3))


class TestOde:
    def test_exp_residual(self):
        resid, _ = ode_residual_with_bound(PfqParams([], []), BiComplex(0.5), 60)
        assert resid.max_comp() < 1e-13

    def test_kummer_form(self):
        # matches the second-order confluent equation up to truncation
        resid, _ = ode_residual_with_bound(PfqParams([1.3], [2.2]), from_idempotent(0.4, 0.2), 60)
        assert resid.max_comp() < 1e-11

    def test_gauss_form(self):
        resid, _ = ode_residual_with_bound(GAUSS, BiComplex(0.2, 0.1), 60)
        assert resid.max_comp() < 1e-10

    def test_residual_versus_dropped_term(self):
        resid, bound = ode_residual_with_bound(GAUSS, from_idempotent(0.8, 0.7), 24)
        # at a large argument with a short truncation, the dropped term dominates
        assert bound.comp1 > 1e-8
        assert resid.comp1 <= bound.comp1
        assert resid.comp2 <= bound.comp2

    def test_bound_covers_rounding(self):
        # a component whose residual exceeds the dropped term alone by
        # 6.4e-14 (1.38872e-10 against 1.38808e-10): the float64 rounding
        # of the residual, which the bound must carry
        a = [2.1958256191415275 + 0.1775082028199101j, 1.8171371185917011 - 0.22438862297056872j]
        b = [0.4159957720235834 - 0.32011673784855027j]
        z = -0.2733473424750344 - 0.413658053072904j
        resid, bound = identities._ode_component(a, b, z, 60)
        assert 1.3887e-10 < resid <= bound < 1.5e-10

    def test_coefficient_recurrence_ulps(self, rng):
        for _ in range(10):
            p = int(rng.integers(0, 4))
            q = int(rng.integers(0, 4))
            params = PfqParams(
                [complex(rng.uniform(0.3, 2.0), rng.uniform(-0.3, 0.3)) for _ in range(p)],
                [complex(rng.uniform(0.4, 2.2), rng.uniform(-0.3, 0.3)) for _ in range(q)],
            )
            assert coefficient_recurrence_ulps(params, 200) <= 2.0

    def test_recurrence_rows_catch_a_perturbed_ratio(self, monkeypatch):
        # a numerator off by a relative 1e-12 moves coeff_table and
        # term_ratio together, so the ulp check still reads 0; only the
        # comparison with the closed form can see it
        from bchyper import kernels

        exact = kernels.ratio_parts

        def perturbed(a, b, n):
            num, den = exact(a, b, n)
            return num * (1 + 1e-12), den

        clean = verify.run_suite("thm7.1", seed=7, samples=10).rows
        monkeypatch.setattr(kernels, "ratio_parts", perturbed)
        rows = verify.run_suite("thm7.1", seed=7, samples=10).rows
        recurrence = [r for r in rows if r["case"].startswith("recurrence-")]
        assert len(recurrence) == 10 and not any(r["passed"] for r in recurrence)
        assert all(r["ulps"] <= verify.RECURRENCE_MAX_ULPS for r in recurrence)
        assert all(r["passed"] for r in clean if r["case"].startswith("recurrence-"))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            ode_residual_with_bound(GAUSS, BiComplex(0.1), 4)


class TestComponentwiseDecomposition:
    """Each bicomplex relation is exactly two classical relations; the
    stored hyperbolic residual agrees with a direct classical run of
    the same component to <= 2 ulp."""

    @staticmethod
    def _within_2ulp(got, want):
        return abs(got - want) <= 2 * np.spacing(max(abs(want), 1e-300))

    def test_quad_even_componentwise(self):
        z = from_idempotent(0.3 + 0.1j, 0.2 - 0.15j)
        rep = quad_even(KUMMER, z)
        a1 = list(KUMMER.comp_alphas(1))
        b1 = list(KUMMER.comp_betas(1))
        l1, r1 = identities.quad_even_comp(a1, b1, z.idem1, 4.0)
        assert self._within_2ulp(rep.residual.comp1, identities.relative_residual(l1, r1))

    def test_saalschutz_componentwise(self):
        a1 = from_idempotent(0.5, 0.2)
        rep = saalschutz(3, a1, 1.1, BiComplex(2.4, 0.3))
        l1, r1 = identities.saalschutz_comp(
            3, a1.idem1, (1.1 + 0j), BiComplex(2.4, 0.3).idem1
        )
        assert self._within_2ulp(rep.residual.comp1, identities.relative_residual(l1, r1))

    def test_contiguous_componentwise(self):
        params = PfqParams([2.0, 1.5], [2.5])
        z = BiComplex(0.15, 0.1)
        rep = contiguous_alpha_plus(params, z, ShiftM(2, 1))
        l1, r1 = identities.contiguous_alpha_plus_comp(
            list(params.comp_alphas(1)), list(params.comp_betas(1)), z.idem1, 2, 1
        )
        l2, r2 = identities.contiguous_alpha_plus_comp(
            list(params.comp_alphas(2)), list(params.comp_betas(2)), z.idem2, 1, 2
        )
        assert self._within_2ulp(rep.residual.comp1, identities.relative_residual(l1, r1))
        assert self._within_2ulp(rep.residual.comp2, identities.relative_residual(l2, r2))


class TestReportShape:
    def test_report_fields(self):
        rep = quad_even(GAUSS, BiComplex(0.2))
        assert rep.residual.in_dplus()
        assert rep.tolerance == identities.DEFAULT_IDENTITY_TOL
        assert rep.passed == (
            rep.residual.comp1 <= rep.tolerance and rep.residual.comp2 <= rep.tolerance
        )

    def test_verdict_is_taken_on_the_stored_residual(self):
        # The report stores each component's residual exactly as the
        # relation computed it; verify prints the stored pair, and the
        # verdict is taken on those same values, even a spacing from tol.
        rng = np.random.default_rng(14)
        tol = 1e-9
        for _ in range(2000):
            # relative_residual(r, 0) is r itself
            r1, r2 = tol * (1.0 + 2.2e-16 * rng.uniform(-4.0, 4.0, 2))
            rep = identities.make_report([(r1, 0.0), (r2, 0.0)], tol)
            assert (rep.residual.comp1, rep.residual.comp2) == (r1, r2)
            assert rep.passed == (r1 <= tol and r2 <= tol)

    def test_nan_residual_fails(self):
        for sides in ([(np.nan, 0.0), (0.0, 0.0)], [(0.0, 0.0), (np.nan, 0.0)]):
            assert not identities.make_report(sides, 1e-9).passed
