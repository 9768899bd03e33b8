import math

import numpy as np
import pytest

from bchyper import (
    BiComplex,
    CoherentSpec,
    InvalidParamsError,
    ParamMismatchError,
    PfqParams,
    PositivityError,
    TruncationError,
    annihilate,
    build_tables,
    commutator_diagonal,
    from_idempotent,
    inner_product,
    ladder_matrices,
    normalization,
    state_coefficients,
)

GLAUBER = CoherentSpec(PfqParams([], []), BiComplex(0.5))


class TestSpecValidation:
    def test_alpha_zero_rejected(self):
        with pytest.raises(InvalidParamsError):
            CoherentSpec(PfqParams([0.0], [1.5]), BiComplex(0.2))

    def test_alpha_negative_integer_rejected(self):
        with pytest.raises(InvalidParamsError):
            CoherentSpec(PfqParams([-2.0], [1.5]), BiComplex(0.2))

    def test_sign_violation_rejected(self):
        with pytest.raises(PositivityError):
            CoherentSpec(PfqParams([-1.3], [1.5]), BiComplex(0.2))

    def test_complex_parameter_rejected(self):
        with pytest.raises(PositivityError):
            CoherentSpec(PfqParams([BiComplex(1.0, 0.4)], [1.5]), BiComplex(0.2))

    def test_deep_positivity_failure(self):
        # ratio is positive but the ladder factor turns negative at level 2:
        # f(2)^2 = 3 * (-2.2 + 2) / (-1.3 + 2) < 0
        spec = CoherentSpec(PfqParams([-1.3], [-2.2]), BiComplex(0.2))
        with pytest.raises(PositivityError):
            build_tables(spec)

    @pytest.mark.parametrize(
        "alphas, betas, error",
        [
            ([from_idempotent(1.5, -2.0)], [1.5], InvalidParamsError),  # alpha pole
            ([from_idempotent(1.5, 1.5 + 0.4j)], [1.5], PositivityError),  # complex alpha
            ([1.5], [from_idempotent(1.5, 1.5 - 0.4j)], PositivityError),  # complex beta
            ([from_idempotent(1.3, -1.3)], [1.5], PositivityError),  # negative ratio
        ],
    )
    def test_fault_in_component_two_only(self, alphas, betas, error):
        with pytest.raises(error):
            CoherentSpec(PfqParams(alphas, betas), from_idempotent(0.2, 0.3))


class TestTables:
    def test_seed_value(self):
        tables = build_tables(GLAUBER)
        assert tables.rho(0) == BiComplex(1.0)

    def test_glauber_is_factorial(self):
        # rho goes through sqrt(f^2)^2, so allow an ulp per level
        tables = build_tables(GLAUBER)
        for n in range(12):
            want = float(math.factorial(n))
            assert abs(tables.rho1[n] - want) <= 4 * n * np.spacing(want)
            assert abs(tables.rho2[n] - want) <= 4 * n * np.spacing(want)

    def test_kummer_table_example(self):
        # p = q = 1, alpha 2, beta 3: rho(2) = 2! * (3)_2 / (2)_2 = 4
        spec = CoherentSpec(PfqParams([2.0], [3.0]), BiComplex(0.3))
        tables = build_tables(spec)
        assert abs(tables.rho1[2] - 4.0) < 1e-14

    def test_recurrence_exact(self):
        spec = CoherentSpec(PfqParams([1.7], [0.9]), from_idempotent(0.4, 0.6))
        tables = build_tables(spec)
        for rho, f in ((tables.rho1, tables.f1), (tables.rho2, tables.f2)):
            finite = np.isfinite(rho)
            upto = int(np.argmin(finite)) if not finite.all() else len(rho)
            for n in range(upto - 1):
                lhs = rho[n + 1]
                rhs = rho[n] * f[n] ** 2
                assert abs(lhs - rhs) <= 2 * np.spacing(max(abs(lhs), abs(rhs)))

    def test_overflow_degrades_to_zero_coefficients(self):
        # factorial growth overflows rho past ~170; coefficients become 0
        tables = build_tables(GLAUBER)
        assert not np.isfinite(tables.rho1[-1])
        assert tables.c1[-1] == 0.0

    def test_cached_tables_are_read_only(self):
        tables = build_tables(GLAUBER)
        before = tables.rho1.copy()
        with pytest.raises(ValueError):
            tables.rho1[1] = 123.0
        for arr in (tables.rho1, tables.rho2, tables.f1, tables.f2, tables.c1, tables.c2):
            assert not arr.flags.writeable
        assert np.array_equal(build_tables(GLAUBER).rho1, before)

    def test_normalization_is_summed_once_per_state(self, monkeypatch):
        # build_tables stores the normalized coefficients; annihilate and
        # inner_product read them instead of summing N again
        import bchyper.coherent as coh
        from bchyper import hyper

        calls = []
        original = hyper.pfq_components

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(hyper, "pfq_components", counted)
        coh.build_tables.cache_clear()
        spec = CoherentSpec(PfqParams([1.3], [2.4]), from_idempotent(0.3, 0.5j))
        build_tables(spec)
        assert annihilate(spec).passed
        overlap = inner_product(spec, spec)
        assert abs(overlap.idem1 - 1.0) < 1e-12 and abs(overlap.idem2 - 1.0) < 1e-12
        assert len(calls) == 1
        coh.build_tables.cache_clear()


class TestNormalization:
    def test_at_zero(self):
        spec = CoherentSpec(PfqParams([1.2], [2.1]), BiComplex(0.0))
        assert normalization(spec) == BiComplex(1.0)

    def test_glauber_exponential(self):
        spec = CoherentSpec(PfqParams([], []), from_idempotent(0.5, 0.3))
        got = normalization(spec)
        assert abs(got.idem1 - math.exp(0.25)) < 1e-14
        assert abs(got.idem2 - math.exp(0.09)) < 1e-14

    def test_ball_class_near_boundary(self):
        # p = q+1 with positive margin: finite normalization near the edge
        spec = CoherentSpec(PfqParams([0.3, 0.4], [3.5]), from_idempotent(0.97, 0.9))
        got = normalization(spec)
        assert np.isfinite(got.norm2())


class TestCoefficients:
    def test_at_zero(self):
        spec = CoherentSpec(PfqParams([1.2], [2.1]), BiComplex(0.0))
        coeffs = state_coefficients(spec)
        assert coeffs[0] == BiComplex(1.0)
        assert all(c == BiComplex(0.0) for c in coeffs[1:])

    def test_glauber_closed_form(self):
        coeffs = state_coefficients(GLAUBER)
        scale = math.exp(-0.125)
        for n in range(12):
            want = scale * 0.5**n / math.sqrt(math.factorial(n))
            assert abs(coeffs[n].idem1 - want) < 1e-14

    def test_unit_norm(self, rng):
        for _ in range(5):
            spec = CoherentSpec(
                PfqParams([rng.uniform(0.5, 2.0)], [rng.uniform(0.5, 2.0)]),
                from_idempotent(
                    rng.uniform(0.1, 0.7) * np.exp(2j * np.pi * rng.uniform()),
                    rng.uniform(0.1, 0.7) * np.exp(2j * np.pi * rng.uniform()),
                ),
            )
            total = sum(abs(c.idem1) ** 2 for c in state_coefficients(spec))
            assert abs(total - 1.0) < 1e-12

    def test_truncation_error_when_cap_too_low(self, monkeypatch):
        # polynomially decaying tail cannot reach the floor at a small cap
        import bchyper.coherent as coh

        monkeypatch.setattr(coh, "HARD_TRUNCATION", 512)
        coh.build_tables.cache_clear()
        spec = CoherentSpec(
            PfqParams([0.3, 0.4], [3.5]), from_idempotent(0.998, 0.5)
        )
        with pytest.raises(TruncationError):
            state_coefficients(spec)
        coh.build_tables.cache_clear()


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        got = inner_product(GLAUBER, GLAUBER)
        assert abs(got.idem1 - 1.0) < 1e-12
        assert abs(got.idem2 - 1.0) < 1e-12

    def test_overlap_with_vacuum(self):
        vacuum = CoherentSpec(PfqParams([], []), BiComplex(0.0))
        got = inner_product(GLAUBER, vacuum)
        want = state_coefficients(GLAUBER)[0].idem1.conjugate()
        assert abs(got.idem1 - want) < 1e-14

    def test_glauber_closed_form(self):
        other = CoherentSpec(PfqParams([], []), BiComplex(0.2))
        got = inner_product(GLAUBER, other)
        want = math.exp(0.1) / math.sqrt(math.exp(0.25) * math.exp(0.04))
        assert abs(got.idem1 - want) < 1e-12

    def test_param_mismatch(self):
        other = CoherentSpec(PfqParams([1.1], [2.0]), BiComplex(0.2))
        with pytest.raises(ParamMismatchError):
            inner_product(GLAUBER, other)


class TestLadder:
    def test_annihilate_vacuum(self):
        vacuum = CoherentSpec(PfqParams([], []), BiComplex(0.0))
        rep = annihilate(vacuum)
        assert rep.residual.comp1 == 0.0 and rep.residual.comp2 == 0.0

    def test_annihilate_glauber(self):
        rep = annihilate(GLAUBER)
        assert rep.passed
        assert rep.residual.max_comp() < 1e-12
        assert abs(rep.lhs.idem1 - 0.5) < 1e-12  # recovered eigenvalue

    def test_annihilate_kummer_state(self):
        spec = CoherentSpec(PfqParams([1.1], [1.9]), from_idempotent(0.4, 0.2))
        rep = annihilate(spec)
        assert rep.passed and rep.residual.max_comp() < 1e-11

    def test_commutator_glauber(self):
        for n in (1, 3, 10):
            got = commutator_diagonal(GLAUBER, n)
            assert abs(got.idem1 - 1.0) < 1e-13

    def test_commutator_bessel_like(self):
        # p = 0, q = 1, beta = 2: f(n)^2 = (n+1)(n+2), diagonal = 2n+2
        spec = CoherentSpec(PfqParams([], [2.0]), BiComplex(0.4))
        for n in (1, 2, 5):
            got = commutator_diagonal(spec, n)
            assert abs(got.idem1 - (2 * n + 2)) < 1e-12

    def test_commutator_matches_dense_matrices(self):
        spec = CoherentSpec(PfqParams([1.3], [0.8]), from_idempotent(0.3, 0.5))
        (lo1, lo2), (up1, up2) = ladder_matrices(spec, 30)
        comm = (lo1 @ up1 - up1 @ lo1).diagonal().real
        for n in (1, 7, 20):
            want = commutator_diagonal(spec, n).idem1.real
            assert abs(comm[n] - want) <= 2 * np.spacing(max(abs(comm[n]), 1.0))

    def test_adjointness(self):
        spec = CoherentSpec(PfqParams([1.3], [0.8]), from_idempotent(0.3, 0.5))
        (lo1, lo2), (up1, up2) = ladder_matrices(spec, 25)
        assert np.array_equal(up1, lo1.conj().T)
        assert np.array_equal(up2, lo2.conj().T)

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            commutator_diagonal(GLAUBER, 0)
        with pytest.raises(IndexError):
            commutator_diagonal(GLAUBER, 10**6)

    def test_ladder_matrix_size_bounds(self):
        for size in (0, build_tables(GLAUBER).nmax + 1):
            with pytest.raises(IndexError):
                ladder_matrices(GLAUBER, size)


def _swap(value):
    return from_idempotent(value.idem2, value.idem1)


class TestTowers:
    """Each operation is one function per idempotent tower: exchanging the
    components of the parameters and of Z exchanges every output."""

    def test_swapping_components_swaps_every_output(self):
        # dyadic components, so the idempotent round trip is exact
        alphas = [from_idempotent(1.25, 0.75)]
        betas = [from_idempotent(2.5, 1.375), from_idempotent(0.625, 1.75)]
        z = from_idempotent(0.375 + 0.25j, -0.5 + 0.125j)
        spec = CoherentSpec(PfqParams(alphas, betas), z)
        swapped = CoherentSpec(
            PfqParams([_swap(a) for a in alphas], [_swap(b) for b in betas]), _swap(z)
        )
        assert (swapped.z.idem1, swapped.z.idem2) == (z.idem2, z.idem1)

        def same(x, y):
            return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

        def mirrored(u, v):
            return (u.idem1, u.idem2) == (v.idem2, v.idem1)

        t, u = build_tables(spec), build_tables(swapped)
        assert t.nmax == u.nmax
        for name in ("rho", "f", "c"):
            assert same(getattr(t, name + "1"), getattr(u, name + "2"))
            assert same(getattr(t, name + "2"), getattr(u, name + "1"))
        a, b = annihilate(spec), annihilate(swapped)
        assert mirrored(a.lhs, b.lhs) and mirrored(a.rhs, b.rhs)
        assert (a.residual.comp1, a.residual.comp2) == (b.residual.comp2, b.residual.comp1)
        assert a.tolerance == b.tolerance
        assert mirrored(inner_product(spec, spec), inner_product(swapped, swapped))
        assert mirrored(normalization(spec), normalization(swapped))
        for n in (1, 4, 11):
            assert mirrored(commutator_diagonal(spec, n), commutator_diagonal(swapped, n))
        (lo1, lo2), (up1, up2) = ladder_matrices(spec, 12)
        (sl1, sl2), (su1, su2) = ladder_matrices(swapped, 12)
        for x, y in ((lo1, sl2), (lo2, sl1), (up1, su2), (up2, su1)):
            assert same(x, y)

    def test_recurrence_rows_catch_a_perturbed_ladder_factor(self, monkeypatch):
        # f(n)^2 off by a relative 1e-13 keeps the tables self-consistent,
        # so the eigen, norm and adjoint rows still pass; only the rows that
        # rebuild rho from the parameters can see it
        import bchyper.coherent as coh
        from bchyper import verify

        exact = coh._ladder_squares
        def perturbed(a, b, count):
            return [x * (1 + 1e-13) for x in exact(a, b, count)]

        monkeypatch.setattr(coh, "_ladder_squares", perturbed)
        coh.build_tables.cache_clear()
        try:
            rows = verify.run_suite("cs-eigen", seed=7, samples=10).rows
        finally:
            coh.build_tables.cache_clear()
        recurrence = [r for r in rows if r["case"].startswith("recurrence-")]
        assert len(recurrence) == 10 and not any(r["passed"] for r in recurrence)
        assert all(r["passed"] for r in rows if not r["case"].startswith("recurrence-"))
