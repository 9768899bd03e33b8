"""Verification of the algebraic relations of the bicomplex series.

Every relation here factorizes over the idempotent basis, so each
operation runs a classical complex worker on both component parameter
sets and glues the two sides with e1/e2 at the very end.  Reports
carry both sides, the componentwise relative residual as a hyperbolic
number, and a pass flag against the requested tolerance.  Every
component sum a worker takes is gated as it is taken (by
``hyper.check_component``), so no relation gates its shifted, moved or
halved parameter sets by hand.

Factorials of bicomplex quantities appearing in the parameter-shift
relations are read as gamma ratios, realized as reciprocal rising
factorials (Gamma(x)/Gamma(x+s) = 1/(x)_s), which extends them to
non-integer parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hyper, kernels
from .errors import InvalidParamsError, NullConeError, PoleError
from .gamma import complex_pochhammer
from .hyper import PfqParams, per_component
from .kernels import coeff_table
from .numbers import NULL_TOL, BiComplex, Hyperbolic, components

DEFAULT_IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class IdentityReport:
    lhs: BiComplex
    rhs: BiComplex
    residual: Hyperbolic
    tolerance: float

    @property
    def passed(self) -> bool:
        """Both components of the stored residual, each on its own, are
        within the tolerance (a NaN fails).  The residual is what
        reports print, so the verdict is decided on the printed values."""
        return self.residual.comp1 <= self.tolerance and self.residual.comp2 <= self.tolerance


@dataclass(frozen=True)
class ShiftM:
    """Bicomplex integer shift M = m*e1 + n*e2 with m, n >= 0."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("shift components must be nonnegative")

    @property
    def conj(self) -> "ShiftM":
        return ShiftM(self.n, self.m)

    @property
    def idem1(self) -> int:
        return self.m

    @property
    def idem2(self) -> int:
        return self.n


def relative_residual(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def make_report(sides, tol) -> IdentityReport:
    """Glue the per-component (lhs, rhs) pairs of a relation into a report."""
    (lhs1, rhs1), (lhs2, rhs2) = sides
    return IdentityReport(
        lhs=BiComplex.from_idempotent(lhs1, lhs2),
        rhs=BiComplex.from_idempotent(rhs1, rhs2),
        residual=Hyperbolic.from_idempotent(
            relative_residual(lhs1, rhs1), relative_residual(lhs2, rhs2)
        ),
        tolerance=tol,
    )


def _F(alphas, betas, z) -> complex:
    """Classical component sum, gated by ``hyper.check_component``."""
    return hyper.component_series(alphas, betas, z)[0]


# ---------------------------------------------------------------------------
# Quadratic transforms.
# ---------------------------------------------------------------------------


def _quadratic_comp(a, b, z, scale, offset, pre):
    """(lhs, rhs) of a component quadratic transform: pre times the
    halved-shape series at z^2 / scale against F(z) + F(-z) (offset 0)
    or F(z) - F(-z) (offset 1).  The halved shape is (a + offset)/2,
    (a + offset + 1)/2 over (2*offset + 1)/2, (b + offset)/2,
    (b + offset + 1)/2."""
    ha = [(x + k) / 2 for k in (offset, offset + 1) for x in a]
    hb = [offset + 0.5 + 0j] + [(x + k) / 2 for k in (offset, offset + 1) for x in b]
    lhs = pre * _F(ha, hb, z * z / scale)
    plus, minus = _F(a, b, z), _F(a, b, -z)
    return lhs, (plus - minus if offset else plus + minus)


def quad_even_comp(a, b, z, scale):
    """Component worker: (lhs, rhs) of the even quadratic transform."""
    return _quadratic_comp(a, b, z, scale, 0, 2.0)


def quad_odd_comp(a, b, z, scale):
    """Component worker: (lhs, rhs) of the odd quadratic transform."""
    num, den = kernels.ratio_parts(a, b, 0)  # prod(a), prod(b)
    if abs(den) < NULL_TOL * max(1.0, abs(num)):
        raise NullConeError("odd-transform prefactor divides by a null denominator")
    return _quadratic_comp(a, b, z, scale, 1, 2.0 * z * np.complex128(num) / den)


def _quadratic(params, z, tol, worker) -> IdentityReport:
    scale = 4.0 ** (params.q + 1 - params.p)
    return make_report(per_component(worker, params, BiComplex.coerce(z), scale), tol)


def quad_even(
    params: PfqParams, z: BiComplex, tol: float = DEFAULT_IDENTITY_TOL
) -> IdentityReport:
    """Even quadratic transform: doubled-shape series at Z^2 / 4^(q+1-p)
    against the sum of the base series at Z and -Z."""
    return _quadratic(params, z, tol, quad_even_comp)


def quad_odd(
    params: PfqParams, z: BiComplex, tol: float = DEFAULT_IDENTITY_TOL
) -> IdentityReport:
    """Odd quadratic transform with the 2*Z*prod(alphas)/prod(betas) prefactor."""
    return _quadratic(params, z, tol, quad_odd_comp)


# ---------------------------------------------------------------------------
# Terminating 3F2 summation at unit argument.
# ---------------------------------------------------------------------------


def saalschutz_comp(n, a1, a2, b):
    """Component worker for the balanced terminating 3F2(1) closed form."""
    b2 = 1.0 - b + a1 + a2 - n
    lhs = _F([complex(-n), a1, a2], [b, b2], 1.0 + 0j)
    denom_poch = (complex_pochhammer(b, n), complex_pochhammer(b - a1 - a2, n))
    for dp in denom_poch:
        if abs(dp) < NULL_TOL:
            raise NullConeError("closed-form denominator pochhammer vanishes")
    rhs = (
        complex_pochhammer(b - a1, n)
        * complex_pochhammer(b - a2, n)
        / (denom_poch[0] * denom_poch[1])
    )
    return lhs, rhs


def saalschutz(
    n: int, a1, a2, b, tol: float = DEFAULT_IDENTITY_TOL
) -> IdentityReport:
    """Terminating balanced 3F2 at unit argument against its pochhammer
    closed form; a denominator parameter that vanishes inside the n+1
    terms raises InvalidParamsError."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    a1 = BiComplex.coerce(a1)
    a2 = BiComplex.coerce(a2)
    b = BiComplex.coerce(b)
    return make_report([saalschutz_comp(*vals) for _, *vals in components(n, a1, a2, b)], tol)


# ---------------------------------------------------------------------------
# Derivative relation.
# ---------------------------------------------------------------------------


def derivative_comp(a, b, z, k):
    """(lhs, rhs): term-wise differentiated series against the shifted form.

    The k-th derivative of sum c_n z^n is sum_m c_{k+m} (k+m)!/m! z^m,
    itself a series: leading term k! c_k, and the ratio of a + k, k + 1
    over b + k, k + 1 (the pair k+1+m cancels against the (n+1) of the
    coefficient law).
    """
    if k == 0:
        v = _F(a, b, z)
        return v, v
    shifted_a, shifted_b = [x + k for x in a], [x + k for x in b]
    c_k = coeff_table(a, b, k)[k]
    lhs = c_k * math.factorial(k) * _F(shifted_a + [k + 1.0], shifted_b + [k + 1.0], z)
    pre = 1.0 + 0j
    for x in a:
        pre *= complex_pochhammer(x, k)
    for x in b:
        pre /= complex_pochhammer(x, k)
    return lhs, pre * _F(shifted_a, shifted_b, z)


def derivative_relation(
    params: PfqParams, z: BiComplex, k: int, tol: float = DEFAULT_IDENTITY_TOL
) -> IdentityReport:
    """k-th derivative by exact coefficient shift against the
    pochhammer-prefactored series with all parameters shifted by k."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    return make_report(per_component(derivative_comp, params, BiComplex.coerce(z), k), tol)


def _replaced(params: PfqParams, which: str, value) -> PfqParams:
    """params with the first parameter of `which` ("alphas" or "betas")
    replaced by value."""
    vectors = {"alphas": params.alphas, "betas": params.betas}
    moved = list(vectors[which])
    moved[0] = value
    return PfqParams(**{**vectors, which: moved})


# ---------------------------------------------------------------------------
# Holomorphy (Cauchy-Riemann) finite-difference check.
# ---------------------------------------------------------------------------


def cauchy_riemann_check(
    params: PfqParams, z: BiComplex, h: float, wrt: str = "z"
) -> IdentityReport:
    """Central-difference check of both Cauchy-Riemann equations.

    Writes F = f1 + i2*f2 and differences either the argument's
    cartesian parts (wrt="z") or the cartesian parts of the first
    parameter (wrt="alpha"/"beta"; ValueError when there is none).  The
    report packs lhs = df1/du + i2*df1/dv and rhs = df2/dv - i2*df2/du,
    whose equality is exactly the pair of CR equations; the residual is
    O(h^2) for a holomorphic family, and passes at 1e-7.
    """
    if not (1e-8 <= h <= 1e-2):
        raise ValueError("step size out of the sensible range [1e-8, 1e-2]")
    z = BiComplex.coerce(z)

    if wrt == "z":
        def parts(du, dv):
            w = BiComplex(z.re1 + du, z.re2 + dv)
            v = hyper.pfq_value(params, w)
            return v.re1, v.re2
    elif wrt in ("alpha", "beta"):
        which = wrt + "s"
        source = getattr(params, which)
        if not source:
            raise ValueError(f"no {wrt} parameter to differentiate")

        def parts(du, dv):
            target = source[0]
            moved = BiComplex(target.re1 + du, target.re2 + dv)
            v = hyper.pfq_value(_replaced(params, which, moved), z)
            return v.re1, v.re2
    else:
        raise ValueError(f"unknown differentiation target {wrt!r}")

    f1_pu, f2_pu = parts(+h, 0.0)
    f1_mu, f2_mu = parts(-h, 0.0)
    f1_pv, f2_pv = parts(0.0, +h)
    f1_mv, f2_mv = parts(0.0, -h)
    df1_du = (f1_pu - f1_mu) / (2.0 * h)
    df2_du = (f2_pu - f2_mu) / (2.0 * h)
    df1_dv = (f1_pv - f1_mv) / (2.0 * h)
    df2_dv = (f2_pv - f2_mv) / (2.0 * h)
    lhs = BiComplex(df1_du, df1_dv)
    rhs = BiComplex(df2_dv, -df2_du)
    return make_report([sides for _, *sides in components(lhs, rhs)], 1e-7)


# ---------------------------------------------------------------------------
# Contiguous relations for the bicomplex shift M = m*e1 + n*e2.
#
# Each bicomplex relation's component s pairs the shift (m, n) with the
# conjugate shift (n, m), so the workers take both shift integers and
# sum the two single-shift classical identities.
# ---------------------------------------------------------------------------


def _poch_ratio_products(a, b, s):
    num = 1.0 + 0j
    for x in a:
        num *= complex_pochhammer(x, s)
    den = 1.0 + 0j
    for x in b:
        den *= complex_pochhammer(x, s)
    return num / den


def _sums_at(z):
    """F(alphas, betas) = _F(alphas, betas, z), each distinct parameter
    set summed once.

    A contiguous relation's two shifts share the sums F(a+s; b+s; z),
    and a shift of 0 (or m = n) repeats a sum of the other side.  Each
    component worker makes one of these and passes it to its helpers;
    it lives as long as that worker call.
    """
    sums = {}

    def F(alphas, betas):
        key = (tuple(alphas), tuple(betas))
        if key not in sums:
            sums[key] = _F(alphas, betas, z)
        return sums[key]

    return F


def _binomial_sum(F, a, b, z, shift, base):
    """sum_s C(shift, s) / (base)_s * prod (a)_s / prod (b)_s * z^s
    * F(a + s; b + s; z), the right side shared by the alpha-plus and
    beta-minus relations for one shift."""
    acc = 0.0 + 0j
    for s in range(shift + 1):
        gr = complex_pochhammer(base, s)
        if abs(gr) < NULL_TOL:
            raise PoleError("gamma-ratio prefactor hits a pole")
        weight = math.comb(shift, s) / gr * _poch_ratio_products(a, b, s)
        acc += weight * z**s * F([x + s for x in a], [x + s for x in b])
    return acc


def contiguous_alpha_plus_comp(a, b, z, m, n):
    F = _sums_at(z)
    lhs = F([a[0] + m] + a[1:], b) + F([a[0] + n] + a[1:], b)
    return lhs, _binomial_sum(F, a, b, z, m, a[0]) + _binomial_sum(F, a, b, z, n, a[0])


def contiguous_alpha_minus_comp(a, b, z, m, n):
    F = _sums_at(z)
    lhs = F([a[0] - m] + a[1:], b) + F([a[0] - n] + a[1:], b)

    def one(shift):
        acc = 0.0 + 0j
        for s in range(shift + 1):
            weight = math.comb(shift, s) * _poch_ratio_products(a[1:], b, s)
            acc += weight * (-z) ** s * F([a[0]] + [x + s for x in a[1:]], [x + s for x in b])
        return acc

    return lhs, one(m) + one(n)


def contiguous_beta_minus_comp(a, b, z, m, n):
    F = _sums_at(z)
    lhs = F(a, [b[0] - m] + b[1:]) + F(a, [b[0] - n] + b[1:])
    return lhs, _binomial_sum(F, a, b, z, m, b[0] - m) + _binomial_sum(F, a, b, z, n, b[0] - n)


def contiguous_beta_plus_comp(a, b, z, m, n):
    F = _sums_at(z)
    lhs = F(a, [b[0] + m] + b[1:]) + F(a, [b[0] + n] + b[1:])
    base = F(a, b)
    num, tail_den = kernels.ratio_parts(a, b[1:], 0)  # prod(a), prod(b[1:])

    def one(shift):
        # The proof's recurrence sums from s = 1; the s = 0 term would
        # double-count the leading 2*F term.
        acc = 0.0 + 0j
        for s in range(1, shift + 1):
            den = (b[0] + s - 1.0) * (b[0] + s) * tail_den
            if abs(den) < NULL_TOL * max(1.0, abs(num)):
                raise NullConeError("beta-shift denominator vanishes")
            weight = np.complex128(num) / den
            acc += weight * F([x + 1 for x in a], [b[0] + s + 1] + [x + 1 for x in b[1:]])
        return acc

    rhs = 2.0 * base - z * one(m) - z * one(n)
    return lhs, rhs


_KIND = {"alphas": "numerator", "betas": "denominator"}


def _contiguous(params, z, shift, tol, worker, which):
    """Shared body: the relation moves the first parameter of `which`
    ("alphas" or "betas") by M and conj(M); glue its components."""
    if not getattr(params, which):
        raise InvalidParamsError(f"relation needs at least one {_KIND[which]} parameter")
    # component 1 pairs the shift (m, n), component 2 the conjugate (n, m)
    return make_report(
        per_component(worker, params, BiComplex.coerce(z), shift, shift.conj), tol
    )


def contiguous_alpha_plus(
    params: PfqParams, z, shift: ShiftM, tol: float = DEFAULT_IDENTITY_TOL
) -> IdentityReport:
    """F(alpha1 + M) + F(alpha1 + conj(M)) against the double binomial sum."""
    return _contiguous(params, z, shift, tol, contiguous_alpha_plus_comp, "alphas")


def contiguous_alpha_minus(
    params: PfqParams, z, shift: ShiftM, tol: float = DEFAULT_IDENTITY_TOL
) -> IdentityReport:
    """F(alpha1 - M) + F(alpha1 - conj(M)); alpha1 stays unshifted on the right."""
    return _contiguous(params, z, shift, tol, contiguous_alpha_minus_comp, "alphas")


def contiguous_beta_minus(
    params: PfqParams, z, shift: ShiftM, tol: float = DEFAULT_IDENTITY_TOL
) -> IdentityReport:
    """F(beta1 - M) + F(beta1 - conj(M)) against the double binomial sum."""
    return _contiguous(params, z, shift, tol, contiguous_beta_minus_comp, "betas")


def contiguous_beta_plus(
    params: PfqParams, z, shift: ShiftM, tol: float = DEFAULT_IDENTITY_TOL
) -> IdentityReport:
    """F(beta1 + M) + F(beta1 + conj(M)) = 2F - Z * (two ratio-weighted sums)."""
    return _contiguous(params, z, shift, tol, contiguous_beta_plus_comp, "betas")


# ---------------------------------------------------------------------------
# Hypergeometric differential operator.
# ---------------------------------------------------------------------------


def _ode_component(a, b, z, count):
    """Residual and dropped-term bound of the theta-operator applied to
    the degree-`count` truncation, on the coefficient sequence, at a z
    inside the series region."""
    hyper.check_component(a, b, z)
    c = coeff_table(a, b, count)
    # residual polynomial: d/dz prod(theta + b - 1) - prod(theta + a) on
    # sum c_n z^n; the interior coefficients cancel to rounding, the
    # degree-count coefficient survives as -prod(count + a) * c_count.
    res = 0.0 + 0j
    zpow = 1.0 + 0j
    for m in range(count):
        pa, pb = kernels.ratio_parts(a, b, m)
        res += (pb * c[m + 1] - pa * c[m]) * zpow
        zpow *= z
    pa, _ = kernels.ratio_parts(a, b, count)
    res -= pa * c[count] * zpow
    bound = abs(pa * c[count] * zpow)
    return abs(res), bound


def ode_residual_with_bound(params: PfqParams, z: BiComplex, count: int):
    """(residual, dropped-term bound), both hyperbolic, componentwise:
    the magnitude of the differential operator applied to the
    degree-`count` truncated series, via exact coefficient algebra, and
    the magnitude of its one surviving dropped term."""
    if count < 8:
        raise ValueError("truncation degree too small to be meaningful")
    (r1, m1), (r2, m2) = per_component(_ode_component, params, BiComplex.coerce(z), count)
    return Hyperbolic.from_idempotent(r1, r2), Hyperbolic.from_idempotent(m1, m2)


def coefficient_recurrence_ulps(params: PfqParams, count: int) -> float:
    """Worst-case ulp distance in the coefficient law
    (n+1) * prod(n + betas) * c_{n+1} = prod(n + alphas) * c_n,
    the literally assertable form of the differential equation.

    Entries whose coefficients leave the normal float64 range (they
    grow factorially for p > q+1 and decay factorially for p <= q) are
    skipped; the law is asserted on the representable prefix.
    """
    return max(per_component(_recurrence_ulps, params, count))


def _recurrence_ulps(a, b, count):
    with np.errstate(over="ignore", invalid="ignore"):
        c = coeff_table(a, b, count)
    worst = 0.0
    for m in range(count):
        mag = max(abs(c[m]), abs(c[m + 1]))
        if not (1e-280 < mag < 1e280):
            continue
        # the law solved for c_{m+1}; the product association
        # c_{m+1}*(m+1)*prod(b+m) == c_m*prod(a+m) costs extra
        # rounding steps and is not assertable at the 2-ulp level
        lhs = c[m + 1]
        rhs = c[m] * kernels.term_ratio(a, b, float(m))
        scale = max(abs(lhs), abs(rhs))
        if scale == 0.0 or not math.isfinite(scale):
            continue
        worst = max(worst, abs(lhs - rhs) / np.spacing(scale))
    return worst
