"""Independent references for the correctness checks, run outside the timed region.

Series values are compared with ``mpmath.hyper`` at 20 digits.  The
accepted error is

    1e-12 * max(1, |ref|)  +  8 (p + q + 2) eps |pre| sum_n (n + 1) |t_n|

The first part is the thm2.1 oracle tolerance.  The second is the
first-order rounding envelope of a float64 sum built by the term
recurrence t_{n+1} = t_n * z * prod(a + n) / ((n + 1) prod(b + n)):
term n carries n rounded ratio steps of p + q + 2 operations each
(Johansson, "Computing hypergeometric functions rigorously", ACM TOMS
2019).  It only matters where the terms cancel, near the unit circle
or at large |z|; elsewhere the 1e-12 floor decides.  The third is
the rounding of the cartesian BiComplex that carries both components.

mpmath is imported on the first check, so that the set-up time the
benchmark measures (setup_probe.py) does not include it.
"""

from __future__ import annotations

import numpy as np

DPS = 20
ENVELOPE_TERMS = 12_000
EPS = float(np.finfo(float).eps)


def _envelope(alphas, betas, z: complex) -> float:
    """sum_n (n + 1) |t_n| over the first ENVELOPE_TERMS terms."""
    n = np.arange(ENVELOPE_TERMS - 1, dtype=np.float64)
    ratio = np.full(n.shape, abs(z))
    for a in alphas:
        ratio *= np.abs(a + n)
    ratio /= n + 1.0
    for b in betas:
        ratio /= np.abs(b + n)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.concatenate(([1.0], np.cumprod(ratio)))
        return float(np.sum((np.arange(ENVELOPE_TERMS) + 1.0) * terms))


def gamma_ratio(num, den) -> complex:
    """prod Gamma(num) / prod Gamma(den) by mpmath."""
    import mpmath

    with mpmath.workdps(DPS):
        out = mpmath.mpf(1)
        for x in num:
            out *= mpmath.gamma(mpmath.mpc(x))
        for x in den:
            out /= mpmath.gamma(mpmath.mpc(x))
        return complex(out)


def _reference(alphas, betas, z: complex, pre) -> complex:
    import mpmath

    with mpmath.workdps(DPS):
        return complex(
            mpmath.mpc(pre)
            * mpmath.hyper(
                [mpmath.mpc(a) for a in alphas], [mpmath.mpc(b) for b in betas], mpmath.mpc(z)
            )
        )


def check_bicomplex(value, specs, z) -> str | None:
    """Both idempotent components of a BiComplex value against their
    (alphas, betas, prefactor) references at the components of z.

    A BiComplex is stored in cartesian form, so each idempotent
    component read back from it carries an absolute rounding error of
    a few eps times the larger component; that is allowed too.
    """
    zs = (z.idem1, z.idem2)
    refs = [_reference(a, b, zc, pre) for zc, (a, b, pre) in zip(zs, specs)]
    glue = 4 * EPS * max(abs(r) for r in refs)
    for got, ref, zc, (alphas, betas, pre) in zip((value.idem1, value.idem2), refs, zs, specs):
        rounding = 8 * (len(alphas) + len(betas) + 2) * EPS * abs(pre) * _envelope(alphas, betas, zc)
        allowed = 1e-12 * max(1.0, abs(ref)) + rounding + glue
        err = abs(got - ref)
        if not err <= allowed:
            return f"|value - mpmath| = {err:.3e} > {allowed:.3e} at z = {zc}"
    return None


def rho_recurrence_ulps(tables) -> float:
    """Worst ulp distance in rho(n+1) = rho(n) * f(n)^2 over the finite
    prefix of both coherent-state tables."""
    worst = 0.0
    for rho, f in ((tables.rho1, tables.f1), (tables.rho2, tables.f2)):
        finite = np.isfinite(rho)
        upto = int(np.argmin(finite)) if not finite.all() else len(rho)
        lhs = rho[1:upto]
        rhs = rho[: upto - 1] * f[: upto - 1] ** 2
        scale = np.spacing(np.maximum(np.abs(lhs), np.abs(rhs)))
        ok = scale > 0
        if ok.any():
            worst = max(worst, float(np.max(np.abs(lhs - rhs)[ok] / scale[ok])))
    return worst
