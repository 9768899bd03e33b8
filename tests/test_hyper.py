import cmath
import math

import mpmath
import numpy as np
import pytest

from bchyper import (
    BiComplex,
    ConvergenceKind,
    DomainError,
    InvalidParamsError,
    NoConvergenceError,
    PfqParams,
    bc_exp,
    bc_pow,
    classify,
    from_idempotent,
    hyp1f0,
    hyp1f1,
    hyp2f1,
    oracle_pfq_complex,
    pfq,
    pfq_value,
)
from bchyper.hyper import ORACLE_BLOCK, boundary_probe, per_component, ratio_radius_estimate
from conftest import assert_bc_close, comp_rel_err


class TestParams:
    def test_valid(self):
        p = PfqParams([1.0, BiComplex(2, 1)], [1.5])
        assert p.p == 2 and p.q == 1

    def test_bad_beta_rejected(self):
        with pytest.raises(InvalidParamsError):
            PfqParams([1.0], [from_idempotent(-2.0, 1.0)])
        with pytest.raises(InvalidParamsError):
            PfqParams([1.0], [0.0])

    def test_negative_integer_alpha_allowed(self):
        PfqParams([-3.0], [1.5])  # terminating series are fine

    def test_component_vectors_are_complex_tuples(self):
        p = PfqParams([from_idempotent(0.5 + 1j, 2.0), 1.5], [from_idempotent(3.0, 1.0 - 1j)])
        assert p.comp_alphas(1) == (0.5 + 1j, 1.5)
        assert p.comp_alphas(2) == (2.0, 1.5)
        assert p.comp_betas(1) == (3.0,)
        assert p.comp_betas(2) == (1.0 - 1j,)
        for s in (1, 2):
            for vector in (p.comp_alphas(s), p.comp_betas(s)):
                assert type(vector) is tuple
                assert all(type(x) is complex for x in vector)
        assert p.comp_alphas(1) is not p.comp_alphas(2)
        # the component vectors take no part in equality and hashing
        q = PfqParams(p.alphas, p.betas)
        assert p == q and hash(p) == hash(q)
        assert PfqParams([], []).comp_alphas(2) == ()
        assert PfqParams([], [2.0]).comp_alphas(1) == ()

    def test_per_component_hands_lists_of_complex(self):
        p = PfqParams([from_idempotent(0.5 + 1j, 2.0), 1.5], [3.0])
        z = from_idempotent(0.25, 0.5j)
        sides = per_component(lambda a, b, zc: (a, b, zc), p, z)
        for s, (a, b, zc) in zip((1, 2), sides):
            assert type(a) is list and type(b) is list
            assert all(type(x) is complex for x in a + b)
            assert (a, b) == (list(p.comp_alphas(s)), list(p.comp_betas(s)))
            assert zc == (z.idem1 if s == 1 else z.idem2)


class TestClassify:
    def test_trichotomy(self):
        assert classify(PfqParams([1.0], [1.0])).kind is ConvergenceKind.ENTIRE
        kind = classify(PfqParams([1.0, 2.0], [1.0])).kind
        assert kind in (ConvergenceKind.UNIT_BALL, ConvergenceKind.UNIT_BALL_BOUNDARY)
        assert classify(PfqParams([1.0, 2.0, 3.0], [1.0])).kind is ConvergenceKind.DIVERGENT

    def test_boundary_margin(self):
        # sum(betas) - sum(alphas) = 2.5 - 1.7 = 0.8 > 0 in both components
        cls = classify(PfqParams([0.7, 1.0], [2.5]))
        assert cls.kind is ConvergenceKind.UNIT_BALL_BOUNDARY
        assert abs(cls.eta1 - 0.8) < 1e-14
        assert abs(cls.eta2 - 0.8) < 1e-14
        assert abs(cls.margin - 0.8) < 1e-14

    def test_margin_equals_min_eta(self):
        params = PfqParams(
            [BiComplex(0.6, 0.2), BiComplex(1.1, -0.4)], [BiComplex(2.3, 0.15)]
        )
        cls = classify(params)
        assert abs(cls.margin - min(cls.eta1, cls.eta2)) < 1e-12


class TestPfq:
    def test_at_zero_is_one(self):
        for shape in ((0, 0), (2, 1), (3, 0)):
            params = PfqParams([1.3] * shape[0], [1.7] * shape[1])
            assert pfq_value(params, BiComplex(0.0)) == BiComplex(1.0)

    def test_gauss_closed_form(self):
        z = from_idempotent(0.5, 0.25)
        got = pfq_value(PfqParams([1.0, 2.0], [1.0]), z)
        assert_bc_close(got, from_idempotent(4.0, 16.0 / 9.0), 1e-12)
        assert abs(got.idem1 - 4.0) < 4e-14
        assert abs(got.idem2 - 16.0 / 9.0) < 4e-14

    def test_exp_case(self):
        z = BiComplex(1.0, 1.0)
        got = pfq_value(PfqParams([], []), z)
        assert_bc_close(got, bc_exp(z), 1e-12)

    def test_eval_metadata(self):
        params = PfqParams([0.4, 0.9], [2.0])
        res = pfq(params, from_idempotent(0.6, 0.3))
        assert res.tail_bound.in_dplus()
        assert all(1 <= n <= 10_000 for n in res.terms_used)
        # sum(betas) - sum(alphas) = 0.7 > 0: boundary-convergent flavour
        assert classify(params).kind is ConvergenceKind.UNIT_BALL_BOUNDARY

    def test_independent_truncation_depths(self):
        res = pfq(PfqParams([0.9, 1.4], [2.0]), from_idempotent(0.85, 0.05))
        assert res.terms_used[0] > res.terms_used[1]


class TestNamedCases:
    def test_kummer_at_zero(self):
        assert hyp1f1(1.2, 2.3, BiComplex(0.0)) == BiComplex(1.0)

    def test_kummer_closed_form(self):
        z = from_idempotent(0.3, 0.6)
        got = hyp1f1(1.0, 3.0, z)
        want = from_idempotent(
            *(2.0 * (cmath.exp(c) - 1.0 - c) / (c * c) for c in (0.3, 0.6))
        )
        assert_bc_close(got, want, 1e-11)

    def test_kummer_parameter_cancellation(self, rng):
        for _ in range(10):
            b = BiComplex(complex(rng.uniform(0.5, 2.5), rng.uniform(-0.5, 0.5)))
            z = from_idempotent(
                complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5)),
                complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5)),
            )
            assert_bc_close(hyp1f1(b, b, z), bc_exp(z), 1e-11)

    def test_gauss_at_zero(self):
        assert hyp2f1(0.5, 1.5, 2.5, BiComplex(0.0)) == BiComplex(1.0)

    def test_gauss_closed_form(self):
        z = from_idempotent(0.4, 0.1)
        got = hyp2f1(1.0, 2.0, 1.0, z)
        assert_bc_close(got, bc_pow(BiComplex(1.0) - z, -2), 1e-12)

    def test_gauss_log_identity(self):
        z = BiComplex(0.5, 0.1)
        got = hyp2f1(1.0, 1.0, 2.0, z)
        want = from_idempotent(
            *(-cmath.log(1.0 - c) / c for c in (z.idem1, z.idem2))
        )
        assert_bc_close(got, want, 1e-10)

    def test_binomial_at_zero(self):
        assert hyp1f0(2.2, BiComplex(0.0)) == BiComplex(1.0)

    def test_binomial_closed_form(self):
        z = from_idempotent(0.2, 0.5)
        assert_bc_close(hyp1f0(3.0, z), bc_pow(BiComplex(1.0) - z, -3), 1e-11)

    def test_binomial_inverse(self, rng):
        for _ in range(10):
            z = from_idempotent(
                0.7 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2,
                0.7 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2,
            )
            prod = hyp1f0(1.0, z) * (BiComplex(1.0) - z)
            assert_bc_close(prod, BiComplex(1.0), 1e-12)


class TestOracle:
    def test_at_zero(self):
        assert oracle_pfq_complex([1.5], [2.5], 0.0) == 1.0

    def test_gauss_value(self):
        got = oracle_pfq_complex([1.0, 2.0], [1.0], 0.5)
        assert abs(got - 4.0) < 4e-12

    def test_balanced_terminating_sum(self):
        # 3F2(-2, a, b; c, 1-c+a+b-2; 1) against an explicit 3-term sum
        a, b, c = 0.3, 0.7, 1.9
        d = 1.0 - c + a + b - 2.0
        expected = 0.0
        for n in range(3):
            num = math.prod([(-2.0 + j) for j in range(n)]) * math.prod(
                [(a + j) for j in range(n)]
            ) * math.prod([(b + j) for j in range(n)])
            den = math.prod([(c + j) for j in range(n)]) * math.prod(
                [(d + j) for j in range(n)]
            ) * math.factorial(n)
            expected += num / den
        got = oracle_pfq_complex([-2.0, a, b], [c, d], 1.0)
        assert abs(got - expected) < 1e-13

    def test_matches_engine(self, rng):
        for _ in range(200):
            p = int(rng.integers(0, 4))
            q = int(rng.integers(0, 4))
            if p > q + 1:
                continue
            alphas = [complex(rng.uniform(0.2, 2.2), rng.uniform(-0.4, 0.4)) for _ in range(p)]
            betas = [complex(rng.uniform(0.4, 2.4), rng.uniform(-0.4, 0.4)) for _ in range(q)]
            r = rng.uniform(0.05, 0.7 if p == q + 1 else 1.8)
            z = r * cmath.exp(2j * math.pi * rng.uniform(0, 1))
            params = PfqParams([BiComplex(a) for a in alphas], [BiComplex(b) for b in betas])
            got = pfq_value(params, BiComplex(z))
            want = oracle_pfq_complex(alphas, betas, z)
            assert comp_rel_err(got.idem1, want) < 1e-12


def _quadratic_oracle(a, b, z):
    """The oracle as it was first written, every term rebuilt from a
    fresh array in O(n): (value, terms summed)."""
    total = 1.0 + 0.0j
    below = 0
    n = 1
    while n <= 10_000:
        k = np.arange(n, dtype=np.float64)
        num = np.ones(n, dtype=np.complex128)
        for ai in a:
            num = num * (ai + k)
        den = (k + 1.0).astype(np.complex128)
        for bj in b:
            den = den * (bj + k)
        term = complex(np.prod(z * num / den))
        total += term
        if abs(term) <= 1e-15 * abs(total):
            below += 1
            if below >= 3 and n >= 8:
                return total, n
        else:
            below = 0
        n += 1
    raise NoConvergenceError("no convergence")


class TestOracleBits:
    def test_equals_the_quadratic_loop(self):
        rng = np.random.default_rng(77)
        # "long": more terms than the first ratio array holds
        shapes = {"terminating": 0, "zero z": 0, "long": 0}
        for i in range(600):
            p, q = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            alphas = [complex(rng.uniform(0.2, 2.4), rng.uniform(-0.5, 0.5)) for _ in range(p)]
            betas = [complex(rng.uniform(0.3, 2.4), rng.uniform(-0.5, 0.5)) for _ in range(q)]
            if p and i % 5 == 0:
                alphas[0] = complex(-int(rng.integers(0, 7)))
                shapes["terminating"] += 1
            if p > q + 1 or i % 9 == 0:
                z = 0j
                shapes["zero z"] += 1
            else:
                r = rng.uniform(0.0, 0.95 if p == q + 1 else 3.0)
                z = r * cmath.exp(2j * math.pi * rng.uniform(0, 1))
            want, terms = _quadratic_oracle(alphas, betas, z)
            shapes["long"] += terms > ORACLE_BLOCK
            got = oracle_pfq_complex(alphas, betas, z)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (
                alphas, betas, z,
            )
        assert min(shapes.values()) >= 20, shapes


class TestDomain:
    def test_ball_violation(self):
        with pytest.raises(DomainError):
            pfq_value(PfqParams([1.0, 2.0], [1.5]), from_idempotent(1.2, 0.5))

    def test_divergent_nonzero(self):
        with pytest.raises(DomainError):
            pfq_value(PfqParams([1.0, 2.0, 3.0], [1.5]), BiComplex(1e-3))

    def test_boundary_needs_margin(self):
        # sum(betas) - sum(alphas) < 0: no boundary convergence
        params = PfqParams([1.0, 2.0], [1.5])
        with pytest.raises(DomainError):
            pfq_value(params, from_idempotent(1.0, 0.3))

    def test_boundary_with_margin_allowed(self):
        # margin 2.8: terms decay like n^(-3.8), converges on the boundary
        params = PfqParams([0.3, 0.4], [3.5])
        got = pfq(params, from_idempotent(-1.0, 0.5), tol=1e-9).value
        assert np.isfinite(got.norm2())

    def test_boundary_rule_per_component(self):
        # sum(b) - sum(a) is 2.8 on component 1 and -0.5 on component 2:
        # the boundary rule is asked only of the component on the circle
        params = PfqParams([0.3, 0.4], [from_idempotent(3.5, 0.2)])
        got = pfq(params, from_idempotent(-1.0, 0.5), tol=1e-9).value.idem1
        want = complex(mpmath.hyp2f1(0.3, 0.4, 3.5, -1))
        assert abs(got - want) <= 1e-8 * abs(want)
        with pytest.raises(DomainError):
            pfq(params, from_idempotent(0.5, -1.0), tol=1e-9)

    def test_terminating_bypasses_region(self):
        # polynomial case evaluates outside the ball
        params = PfqParams([-3.0, 1.2], [1.7])
        got = pfq_value(params, from_idempotent(2.0, 3.0))
        assert np.isfinite(got.norm2())

    def test_terminating_overflow_raises(self):
        # the degree-150 polynomial's terms overflow at z = 1000 and the
        # sum turns to nan: that is no value, and tail 0.0 no bound
        with pytest.raises(NoConvergenceError, match="overflowed"), np.errstate(
            over="ignore", invalid="ignore"
        ):
            pfq(PfqParams([-150.0, 1.0], []), BiComplex(1e3))

    def test_gate_both_components_before_summing(self):
        # component 1 (|z1| = 0.999) would exhaust the cap; component 2
        # lies outside the ball, and that is reported first
        with pytest.raises(DomainError):
            pfq(PfqParams([0.3, 0.4], [3.5]), from_idempotent(0.999, 1.5), cap=50)

    def test_cap_exhaustion(self):
        params = PfqParams([0.3, 0.4], [3.5])
        with pytest.raises(NoConvergenceError):
            pfq(params, from_idempotent(1.0, 0.5), tol=1e-15, cap=400)


class TestRadiusLaw:
    def test_term_ratio_limits(self):
        n = 400
        entire = ratio_radius_estimate([0.7 + 0.1j], [1.9, 1.1], n)
        ball = ratio_radius_estimate([0.7, 1.1], [1.9], n)
        divergent = ratio_radius_estimate([0.7, 1.1, 0.9], [1.9], n)
        assert entire > 100.0
        assert abs(ball - 1.0) < 0.05
        assert divergent < 0.01


class TestBoundaryProbe:
    def test_convergent_side(self):
        params = PfqParams([0.3, 0.4], [3.7])  # eta = 3.0
        z = from_idempotent(cmath.exp(0.7j), cmath.exp(-1.1j))
        (d1, _, f1), (d2, _, f2) = boundary_probe(params, z)
        assert f1 and f2
        assert d1 < 1e-8 and d2 < 1e-8

    def test_divergent_side(self):
        params = PfqParams([2.0, 1.6], [1.2])  # eta = -2.4: terms grow
        z = from_idempotent(cmath.exp(0.7j), cmath.exp(-1.1j))
        (d1, t1, f1), (d2, t2, f2) = boundary_probe(params, z)
        assert (not f1) or d1 > 1e-8
        assert (not f2) or d2 > 1e-8
        # with eta < -1 the terms themselves do not tend to zero
        assert (not f1) or t1 > 1.0

    def test_cap_below_two_is_rejected(self):
        # the Cauchy window needs at least two terms
        params = PfqParams([0.3, 0.4], [3.7])
        z = from_idempotent(cmath.exp(0.7j), cmath.exp(-1.1j))
        for cap in (0, 1):
            with pytest.raises(ValueError, match="cap"):
                boundary_probe(params, z, cap=cap)

    def test_boundary_majorant_exponent(self):
        # |terms| decay like n^-(eta+1) on the boundary: fit the exponent
        from bchyper.kernels import coeff_table

        params = PfqParams([0.5, 0.8], [3.1])  # eta = 1.8
        a = params.comp_alphas(1)
        b = params.comp_betas(1)
        c = np.abs(coeff_table(a, b, 4000))
        n = np.arange(1000, 4001)
        slope = np.polyfit(np.log(n), np.log(c[1000:]), 1)[0]
        assert abs(slope - (-2.8)) < 0.05
