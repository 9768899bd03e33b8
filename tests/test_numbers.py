import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bchyper import (
    E1,
    E2,
    I1,
    I2,
    K,
    ONE,
    ZERO,
    BiComplex,
    BranchCutError,
    HBall,
    HOrder,
    Hyperbolic,
    NullConeError,
    bc_exp,
    bc_pow,
    format_bicomplex,
    from_idempotent,
    from_json_dict,
    h_less,
    in_null_cone,
    inverse,
    is_zero_divisor,
    parse_bicomplex,
    to_json_dict,
)
from conftest import assert_bc_close


# bounded, well-scaled operands: idempotent component moduli in [0.25, 3]
def bc_values():
    comp = st.complex_numbers(
        min_magnitude=0.25, max_magnitude=3.0, allow_nan=False, allow_infinity=False
    )
    return st.builds(from_idempotent, comp, comp)


class TestBasisIdentities:
    def test_idempotent_basis(self):
        assert E1 + E2 == ONE
        assert E1 * E2 == ZERO
        assert E1 - E2 == K
        assert E1 * E1 == E1
        assert E2 * E2 == E2

    def test_units(self):
        assert I1 * I1 == -ONE
        assert I2 * I2 == -ONE
        assert K * K == ONE
        assert I1 * I2 == K

    def test_add_examples(self):
        assert BiComplex(1, 1) + BiComplex(2, 3) == BiComplex(3, 4)
        z = BiComplex(0.3 + 0.7j, -1.2 + 0.1j)
        assert z + ZERO == z


class TestOperators:
    def test_bicomplex_division_and_reflected_operators(self):
        z, w = from_idempotent(2.0, 4.0), from_idempotent(0.5, -1.0)
        assert_bc_close(z / w, from_idempotent(4.0, -4.0), 1e-15)
        assert_bc_close(1.0 / z, from_idempotent(0.5, 0.25), 1e-15)
        assert_bc_close(3.0 - z, from_idempotent(1.0, -1.0), 1e-15)
        with pytest.raises(NullConeError):
            1.0 / E1

    def test_hyperbolic_add_and_subtract(self):
        h, g = Hyperbolic(1.0, 0.5), Hyperbolic(0.25, -0.75)
        assert h + g == Hyperbolic(1.25, -0.25)
        assert h - g == Hyperbolic(0.75, 1.25)
        assert -h == Hyperbolic(-1.0, -0.5)
        assert h + 1.0 == 1.0 + h == Hyperbolic(2.0, 0.5)
        assert 2.0 - h == Hyperbolic(1.0, -0.5)

    @pytest.mark.parametrize(
        "value, name",
        [(BiComplex(1.0), "re1"), (Hyperbolic(1.0), "x"), (HBall(ZERO, 1.0), "radius")],
    )
    def test_immutable(self, value, name):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, 0.0)


class TestConjugations:
    def test_real_fixed_points(self):
        r = BiComplex(2.5)
        assert r.conj_bar() == r.conj_tilde() == r.conj_star() == r

    def test_tilde_flips_i2(self):
        assert I2.conj_tilde() == -I2

    def test_star_fixed_point(self):
        # star of 1 + i2*i1 conjugates both complex parts: stays put
        z = BiComplex(1.0, 1j)
        assert z.conj_star() == z

    def test_bar_conjugates_parts(self):
        z = BiComplex(1 + 2j, 3 - 4j)
        assert z.conj_bar() == BiComplex(1 - 2j, 3 + 4j)
        assert z.conj_star() == BiComplex(1 - 2j, -3 - 4j)

    def test_star_is_componentwise_conjugation(self):
        z = BiComplex(0.4 + 0.9j, -0.3 + 0.2j)
        star = z.conj_star()
        assert star.idem1 == z.idem1.conjugate()
        assert star.idem2 == z.idem2.conjugate()


class TestIdempotentSplit:
    def test_complex_diagonal(self):
        z = BiComplex(0.7 - 0.2j, 0.0)
        assert (z.idem1, z.idem2) == (0.7 - 0.2j, 0.7 - 0.2j)

    def test_split_e1(self):
        assert (E1.idem1, E1.idem2) == (1 + 0j, 0j)

    def test_split_i2(self):
        assert (I2.idem1, I2.idem2) == (-1j, 1j)

    def test_round_trip(self):
        z = BiComplex(1.3 - 0.4j, 0.2 + 2.1j)
        z1, z2 = z.idem1, z.idem2
        back = from_idempotent(z1, z2)
        assert abs(back.re1 - z.re1) <= 1e-15 * abs(z.re1)
        assert abs(back.re2 - z.re2) <= 1e-15 * abs(z.re2)

    def test_components_label_and_split_each_value(self):
        from bchyper.numbers import components

        z = BiComplex(1.3 - 0.4j, 0.2 + 2.1j)
        assert components(z, I2, 4.0) == ((1, z.idem1, -1j, 4.0), (2, z.idem2, 1j, 4.0))
        assert components() == ((1,), (2,))


class TestHashing:
    def test_equal_values_hash_equal(self):
        assert BiComplex(1.0) == 1
        assert 1 in {BiComplex(1.0)}
        assert BiComplex(2.5 - 1j) in {2.5 - 1j}
        h, z = Hyperbolic(1, 0.5), BiComplex(1, 0.5j)
        assert h == z
        assert len({h, z}) == 1
        assert Hyperbolic(3.0) in {3, BiComplex(3.0)}
        # equality is transitive through the embedding
        assert Hyperbolic(1.0) == BiComplex(1.0) == 1 + 0j
        assert Hyperbolic(1.0) == 1 + 0j and Hyperbolic(1.0, 0.5) != 1 + 0j


class TestInverse:
    def test_one(self):
        assert inverse(ONE) == ONE

    def test_null_cone_rejected(self):
        with pytest.raises(NullConeError):
            inverse(E1)

    def test_componentwise_reciprocal(self):
        z = from_idempotent(2.0, 4.0)
        assert_bc_close(inverse(z), from_idempotent(0.5, 0.25), 1e-15)

    def test_inverse_times_self(self):
        z = BiComplex(1.2 + 0.3j, -0.4 + 0.8j)
        assert_bc_close(z * inverse(z), ONE, 1e-14)

    def test_zero_divisor_predicate(self):
        assert is_zero_divisor(E1)
        assert is_zero_divisor(3.7 * E2)
        assert not is_zero_divisor(ZERO)
        assert not is_zero_divisor(ONE)
        assert in_null_cone(ZERO)


class TestNorms:
    def test_zero(self):
        assert ZERO.norm2() == 0.0 and ZERO.hnorm() == Hyperbolic(0.0, 0.0)

    def test_e1(self):
        nh = E1.hnorm()
        assert abs(E1.norm2() - 1.0 / math.sqrt(2)) < 1e-15
        assert nh.comp1 == 1.0 and nh.comp2 == 0.0

    def test_3e1_4e2(self):
        z = from_idempotent(3.0, 4.0)
        n2, nh = z.norm2(), z.hnorm()
        assert abs(n2 - math.sqrt(12.5)) < 1e-14
        assert abs(nh.comp1 - 3.0) < 1e-15 and abs(nh.comp2 - 4.0) < 1e-15

    def test_hnorm_in_dplus(self):
        z = BiComplex(-1.1 + 0.7j, 0.3 - 2.2j)
        assert z.hnorm().in_dplus()


class TestHyperbolicOrder:
    def test_zero_less_one(self):
        assert h_less(Hyperbolic(0, 0), Hyperbolic(1, 0)) is HOrder.LESS

    def test_e1_e2_incomparable(self):
        a = Hyperbolic.from_idempotent(1.0, 0.0)
        b = Hyperbolic.from_idempotent(0.0, 1.0)
        assert h_less(a, b) is HOrder.INCOMPARABLE

    def test_half_less_one(self):
        assert h_less(Hyperbolic.from_idempotent(0.5, 0.5), 1.0) is HOrder.LESS

    def test_equal_not_less(self):
        a = Hyperbolic(1.0, 0.25)
        assert h_less(a, a) is HOrder.NOT_LESS

    def test_ball_membership(self):
        ball = HBall(ZERO, Hyperbolic(1.0, 0.0))
        assert ball.contains(from_idempotent(0.5, -0.5j))
        assert not ball.contains(from_idempotent(1.5, 0.1))
        with pytest.raises(ValueError):
            HBall(ZERO, Hyperbolic.from_idempotent(1.0, 0.0))


class TestExpAndPow:
    def test_exp_zero(self):
        assert bc_exp(ZERO) == ONE

    def test_exp_componentwise(self):
        import cmath

        z = from_idempotent(0.3 + 0.1j, -0.2 + 0.6j)
        got = bc_exp(z)
        # reconstructing cartesian parts and re-splitting costs an ulp
        for have, want in ((got.idem1, cmath.exp(0.3 + 0.1j)),
                           (got.idem2, cmath.exp(-0.2 + 0.6j))):
            assert abs(have - want) <= 4 * np.spacing(abs(want))

    def test_integer_power_is_multiplication(self):
        z = BiComplex(1.1 - 0.3j, 0.2 + 0.9j)
        assert bc_pow(z, 2) == z * z

    def test_sqrt_componentwise(self):
        assert_bc_close(bc_pow(from_idempotent(4.0, 9.0), 0.5), from_idempotent(2.0, 3.0), 1e-15)

    def test_branch_cut_error(self):
        with pytest.raises(BranchCutError):
            bc_pow(from_idempotent(-1.0, 2.0), 0.5)

    def test_null_cone_power_error(self):
        with pytest.raises(NullConeError):
            bc_pow(E1, 0.5)

    def test_negative_integer_power(self):
        z = from_idempotent(2.0, 0.5)
        assert_bc_close(bc_pow(z, -2), from_idempotent(0.25, 4.0), 1e-14)


# Rounding bound for |((ab)c - a(bc)).idem_s| in units of u S, where
# u = 2^-53 and S = |a| |b| |c| with |.| = norm2, the Euclidean norm of
# the cartesian pair (re1, re2).  BiComplex.__mul__ forms
# (x1, x2)(y1, y2) = (x1 y1 - x2 y2, x2 y1 + x1 y2) from Python complex
# products, each off by at most sqrt(5) u |x_i| |y_j| (Brent, Percival
# and Zimmermann, Math. Comp. 76, 2007), and one complex subtraction or
# addition, off by at most u times its result.  To first order in u:
# - one product: component errors are at most k u (|x1||y1| + |x2||y2|)
#   and k u (|x2||y1| + |x1||y2|) with k = 1 + sqrt(5), so the error has
#   norm at most sqrt(2) k u |x| |y|; the same sum gives |xy| <= sqrt(2)
#   |x| |y|;
# - a grouping such as (ab)c: the error of ab, carried through the
#   product with c, and the error of that product add up to at most
#   2 sqrt(2) * sqrt(2) k u S = 4 k u S from the exact abc;
# - the two groupings then differ by at most 8 k u S, and an idempotent
#   component re1 -+ i re2 is at most sqrt(2) times the norm:
#   8 sqrt(2) k u S;
# - forming idem_s of each side rounds once more, by at most u times
#   |idem_s| <= sqrt(2) |(ab)c| <= 2 sqrt(2) S, for each of the two
#   sides: 4 sqrt(2) u S.
# The second-order terms are below 1e-12 of the total.
MUL_ASSOC_BOUND = (8 * math.sqrt(2) * (1 + math.sqrt(5)) + 4 * math.sqrt(2)) * (1 + 1e-12)


class TestRingProperties:
    @settings(max_examples=150, deadline=None)
    @given(bc_values(), bc_values(), bc_values())
    @example(
        from_idempotent(2.00001, 0.35968649676506914),
        from_idempotent(0.5 + 2.296875j, 1),
        from_idempotent(1.75 + 0.40625j, 0.5),
    )
    def test_mul_associative(self, a, b, c):
        left = (a * b) * c
        right = a * (b * c)
        bound = MUL_ASSOC_BOUND * 2.0**-53 * a.norm2() * b.norm2() * c.norm2()
        assert abs(left.idem1 - right.idem1) <= bound
        assert abs(left.idem2 - right.idem2) <= bound

    @settings(max_examples=150, deadline=None)
    @given(bc_values(), bc_values())
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @settings(max_examples=150, deadline=None)
    @given(bc_values(), bc_values(), bc_values())
    def test_distributive(self, a, b, c):
        left = a * (b + c)
        right = a * b + a * c
        scale = a.norm2() * (b.norm2() + c.norm2())
        assert abs(left.idem1 - right.idem1) <= 8 * np.spacing(scale)
        assert abs(left.idem2 - right.idem2) <= 8 * np.spacing(scale)

    @settings(max_examples=150, deadline=None)
    @given(bc_values(), bc_values())
    def test_idempotent_homomorphism(self, a, b):
        # ring ops act componentwise in the idempotent view, up to rounding
        s = a + b
        assert abs(s.idem1 - (a.idem1 + b.idem1)) <= 4 * np.spacing(abs(s.idem1) + 1)
        assert abs(s.idem2 - (a.idem2 + b.idem2)) <= 4 * np.spacing(abs(s.idem2) + 1)
        m = a * b
        scale = a.norm2() * b.norm2()
        assert abs(m.idem1 - a.idem1 * b.idem1) <= 8 * np.spacing(scale)
        assert abs(m.idem2 - a.idem2 * b.idem2) <= 8 * np.spacing(scale)

    @settings(max_examples=150, deadline=None)
    @given(bc_values(), bc_values())
    def test_hnorm_multiplicative(self, a, b):
        got = (a * b).hnorm()
        want = a.hnorm() * b.hnorm()
        # rounding of the cartesian product formula lives at the full
        # product scale, not at the scale of a small component
        scale = np.spacing(2.0 * a.norm2() * b.norm2())
        assert abs(got.comp1 - want.comp1) <= 16 * scale
        assert abs(got.comp2 - want.comp2) <= 16 * scale


class TestSerialization:
    def test_format_parses_back(self):
        z = BiComplex(0.1 + 2.5j, -3.25 + 0.0625j)
        assert parse_bicomplex(format_bicomplex(z)) == z

    def test_cartesian_literal(self):
        z = parse_bicomplex("1+2i1+3i2+4k")
        assert z == BiComplex(1 + 2j, 3 + 4j)
        assert parse_bicomplex("1+2*i1+3*i2+4*k") == z

    def test_idempotent_literal(self):
        assert parse_bicomplex("0.5e1+0.25e2") == from_idempotent(0.5, 0.25)
        z = parse_bicomplex("(0.3+0.1i1)e1+(0.5-1i1)e2")
        assert z == from_idempotent(0.3 + 0.1j, 0.5 - 1j)

    def test_basis_token_wins_over_exponent(self):
        # "2e1" is 2*e1; exponents of one need an explicit sign
        assert parse_bicomplex("2e1") == 2.0 * E1
        assert parse_bicomplex("2e+1") == BiComplex(20.0)
        assert parse_bicomplex("1.5e-1") == BiComplex(0.15)

    def test_bare_units(self):
        assert parse_bicomplex("k") == K
        assert parse_bicomplex("-i2") == -I2
        assert parse_bicomplex("i1+i2") == I1 + I2

    def test_json_round_trip(self):
        z = BiComplex(1.5 - 0.25j, 2.0 + 3.0j)
        assert from_json_dict(to_json_dict(z)) == z
        assert from_json_dict(json.dumps(to_json_dict(z))) == z

    def test_json_idempotent_form(self):
        z = from_json_dict({"idem1": [1.0, 0.5], "idem2": [2.0, -0.5]})
        assert z == from_idempotent(1 + 0.5j, 2 - 0.5j)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_bicomplex("")
        with pytest.raises(ValueError):
            parse_bicomplex("1+2q3")
        with pytest.raises(ValueError):
            parse_bicomplex("(1+2i1")
        # a term with neither a number nor a unit (a doubled sign leaves
        # one), and empty parentheses
        for text in ("1+", "1-", "-", "0.5e1+", "1++2", "1+-2", "1-+2", "+-1", "()e1"):
            with pytest.raises(ValueError):
                parse_bicomplex(text)
