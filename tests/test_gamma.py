import math

import mpmath
import numpy as np
import pytest

from bchyper import (
    BiComplex,
    PoleError,
    bc_gamma,
    bc_pochhammer,
    complex_gamma,
    complex_pochhammer,
    from_idempotent,
    gamma_product_oracle,
)
from conftest import assert_bc_close, comp_rel_err


class TestComplexGamma:
    def test_one(self):
        assert complex_gamma(1.0) == 1.0

    def test_factorial(self):
        assert abs(complex_gamma(5.0) - 24.0) < 24 * 1e-14

    def test_half_is_sqrt_pi(self):
        # reference from an independent arbitrary-precision evaluation
        want = complex(mpmath.gamma(mpmath.mpf("0.5")))
        assert comp_rel_err(complex_gamma(0.5), want) < 1e-13
        assert abs(complex_gamma(0.5) - math.sqrt(math.pi)) < 1e-13

    def test_against_mpmath_disk(self, rng):
        for _ in range(60):
            w = complex(rng.uniform(-18, 18), rng.uniform(-18, 18))
            if w.real < 0.5 and abs(w - round(w.real)) < 0.1 and abs(w.imag) < 0.1:
                continue  # stay off the pole neighborhoods
            want = complex(mpmath.gamma(w))
            assert comp_rel_err(complex_gamma(w), want) < 1e-12, w

    @pytest.mark.parametrize("pole", [0.0, -1.0, -2.0, -17.0])
    def test_poles(self, pole):
        with pytest.raises(PoleError):
            complex_gamma(pole)

    def test_against_mpmath_box(self):
        rng = np.random.default_rng(5311)
        worst = 0.0
        for _ in range(3000):
            w = complex(rng.uniform(-10, 20), rng.uniform(-8, 8))
            want = complex(mpmath.gamma(w))
            worst = max(worst, abs(complex_gamma(w) - want) / abs(want))
        assert worst <= 5e-14

    def test_large_imaginary_part(self):
        # Any float64 evaluation through exp(log gamma) carries an error
        # of about |log gamma(w)| ulps in the phase; here |log gamma| is
        # 1487, so the bound is that many machine epsilons (3.3e-13).
        w = 0.5 + 300j
        want = complex(mpmath.gamma(w))
        bound = float(abs(mpmath.loggamma(w))) * np.finfo(float).eps
        assert abs(complex_gamma(w) - want) / abs(want) <= bound

    def test_overflow_is_inf(self):
        assert complex_gamma(200.0) == complex(math.inf)


class TestBcGamma:
    def test_one(self):
        assert bc_gamma(BiComplex(1.0)) == BiComplex(1.0)

    def test_componentwise_factorials(self):
        assert_bc_close(bc_gamma(from_idempotent(2.0, 3.0)), from_idempotent(1.0, 2.0), 1e-13)

    def test_component_pole(self):
        with pytest.raises(PoleError):
            bc_gamma(from_idempotent(0.0, 1.0))

    def test_functional_equation(self, rng):
        # gamma(Z+1) = Z * gamma(Z) on random off-pole samples
        for _ in range(30):
            z = from_idempotent(
                complex(rng.uniform(0.2, 6), rng.uniform(-3, 3)),
                complex(rng.uniform(0.2, 6), rng.uniform(-3, 3)),
            )
            lhs = bc_gamma(z + 1)
            rhs = z * bc_gamma(z)
            assert comp_rel_err(lhs.idem1, rhs.idem1) < 1e-10
            assert comp_rel_err(lhs.idem2, rhs.idem2) < 1e-10


class TestPochhammer:
    def test_empty_product(self):
        assert bc_pochhammer(BiComplex(1.7, 0.3), 0) == BiComplex(1.0)

    def test_factorial(self):
        assert bc_pochhammer(BiComplex(1.0), 6) == BiComplex(720.0)

    def test_componentwise(self):
        assert bc_pochhammer(from_idempotent(2.0, 3.0), 2) == from_idempotent(6.0, 12.0)

    def test_splitting_property(self, rng):
        # (a)_{m+n} = (a)_m * (a+m)_n
        for _ in range(25):
            a = from_idempotent(
                complex(rng.uniform(-2, 2), rng.uniform(-1, 1)),
                complex(rng.uniform(-2, 2), rng.uniform(-1, 1)),
            )
            m = int(rng.integers(0, 6))
            n = int(rng.integers(0, 6))
            lhs = bc_pochhammer(a, m + n)
            rhs = bc_pochhammer(a, m) * bc_pochhammer(a + m, n)
            assert comp_rel_err(lhs.idem1, rhs.idem1) < 1e-13
            assert comp_rel_err(lhs.idem2, rhs.idem2) < 1e-13

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            bc_pochhammer(BiComplex(1.0), -1)


class TestDuplicationIdentities:
    def test_even_factorial(self):
        # (2k)! = 2^(2k) k! (1/2)_k
        for k in range(16):
            lhs = math.factorial(2 * k)
            rhs = 4.0**k * math.factorial(k) * complex_pochhammer(0.5, k).real
            assert abs(lhs - rhs) <= 1e-13 * lhs

    def test_odd_factorial(self):
        # (2k+1)! = 2^(2k) k! (3/2)_k
        for k in range(16):
            lhs = math.factorial(2 * k + 1)
            rhs = 4.0**k * math.factorial(k) * complex_pochhammer(1.5, k).real
            assert abs(lhs - rhs) <= 1e-13 * lhs

    def test_pochhammer_duplication(self, rng):
        # (a)_{2k} = 2^(2k) (a/2)_k ((a+1)/2)_k per component
        for _ in range(20):
            a = complex(rng.uniform(-2.5, 2.5), rng.uniform(-1.5, 1.5))
            k = int(rng.integers(0, 13))
            lhs = complex_pochhammer(a, 2 * k)
            rhs = 4.0**k * complex_pochhammer(a / 2, k) * complex_pochhammer((a + 1) / 2, k)
            assert comp_rel_err(lhs, rhs) < 1e-12


class TestProductOracle:
    def test_gamma_one(self):
        got = gamma_product_oracle(BiComplex(1.0), 10**6)
        assert abs(got.idem1 - 1.0) < 1e-5
        assert abs(got.idem2 - 1.0) < 1e-5

    def test_gamma_two(self):
        got = gamma_product_oracle(BiComplex(2.0), 10**6)
        assert abs(got.idem1 - 1.0) < 1e-5

    def test_agrees_with_main_path(self):
        z = from_idempotent(2.0, 3.0)
        got = gamma_product_oracle(z, 10**6)
        want = bc_gamma(z)
        assert comp_rel_err(got.idem1, want.idem1) < 1e-4
        assert comp_rel_err(got.idem2, want.idem2) < 1e-4

    def test_complex_sample(self):
        z = from_idempotent(1.3 + 0.4j, 0.8 - 0.2j)
        got = gamma_product_oracle(z, 10**6)
        want = bc_gamma(z)
        assert comp_rel_err(got.idem1, want.idem1) < 1e-4
        assert comp_rel_err(got.idem2, want.idem2) < 1e-4

    def test_needs_enough_terms(self):
        with pytest.raises(ValueError):
            gamma_product_oracle(BiComplex(1.0), 10)

    def test_pole(self):
        with pytest.raises(PoleError):
            gamma_product_oracle(from_idempotent(-3.0, 1.0), 10**4)
