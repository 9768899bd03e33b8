"""Complex and bicomplex gamma function and rising factorials."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import PoleError
from .numbers import BiComplex, components

POLE_TOL = 1e-12

EULER_GAMMA = float(np.euler_gamma)

# Stirling's series for log gamma (DLMF 5.11.1): the coefficients
# B_2k / (2k (2k-1)), k = 1..10, of w^(1-2k).
_STIRLING = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
    -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0, 43867.0 / 244188.0,
    -174611.0 / 125400.0,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def nearest_nonpositive_int(w):
    """The n >= 0 with w ~ -n within POLE_TOL (relative), or None.

    Used both for gamma pole detection and for spotting terminating
    (polynomial) hypergeometric series.
    """
    w = complex(w)
    if w.real > 0.5:
        return None
    n = -round(w.real)  # >= 0, as Re w <= 0.5
    if abs(w + n) <= POLE_TOL * max(1.0, abs(w)):
        return n
    return None


def _shifted_log_gamma(w: complex):
    """(L, P) with gamma(w) = exp(L) / P, for Re w >= 0.5.

    The recurrence gamma(w) = gamma(w + m) / (w (w+1) ... (w+m-1))
    moves the argument out of the square Re w < 7, |Im w| < 7; beyond
    it the first ten terms of Stirling's series leave a truncation error
    below 4e-17 (3e-17 at 0.5 + 7i).  Shifting no further keeps L, and
    the error exp(L) carries, small.
    """
    prod = 1.0
    while w.real < 7.0 and abs(w.imag) < 7.0:
        prod *= w
        w += 1.0
    inv = 1.0 / w
    inv2 = inv * inv
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * inv2 + c
    return (w - 0.5) * cmath.log(w) - w + _HALF_LOG_2PI + series * inv, prod


def _reflected_gamma(w: complex) -> complex:
    """gamma(w) = pi / (sin(pi w) gamma(1 - w)) for Re w < 0.5 (DLMF 5.5.3).

    sin(pi w) is taken at the exactly reduced argument w - round(Re w)
    so it keeps its relative accuracy next to the poles, and scaled by
    exp(-pi |Im w|) so it does not overflow at large imaginary parts;
    the scale goes back into the exponent of gamma(1 - w).
    """
    n = round(w.real)
    a = math.pi * (w.real - n)
    b = math.pi * abs(w.imag)
    sin_scaled = complex(
        math.sin(a) * (1.0 + math.exp(-2.0 * b)),
        math.cos(a) * math.copysign(-math.expm1(-2.0 * b), w.imag),
    ) / 2.0
    if n % 2:
        sin_scaled = -sin_scaled
    log_g, prod = _shifted_log_gamma(1.0 - w)
    return math.pi * prod / sin_scaled * cmath.exp(-(log_g + b))


def complex_gamma(w) -> complex:
    """Gamma of a complex argument, in pure Python.

    Real arguments go to math.gamma.  Otherwise Re w < 0.5 reflects to
    gamma(1 - w), and Re w >= 0.5 shifts up and sums Stirling's series.
    The relative error is below 2e-14 for Re w in [-10, 20], |Im w| <= 8
    and grows with |log gamma(w)| beyond that, as for any float64
    evaluation through the exponential.  Poles raise PoleError; a value
    beyond the float range is inf.
    """
    w = complex(w)
    if nearest_nonpositive_int(w) is not None:
        raise PoleError(f"gamma pole at {w}")
    try:
        if w.imag == 0.0:
            return complex(math.gamma(w.real))
        if w.real < 0.5:
            return _reflected_gamma(w)
        log_g, prod = _shifted_log_gamma(w)
        return cmath.exp(log_g) / prod
    except OverflowError:
        return complex(math.inf)


def bc_gamma(z: BiComplex) -> BiComplex:
    """Componentwise gamma in the idempotent basis."""
    z = BiComplex.coerce(z)
    parts = []
    for s, comp in components(z):
        if nearest_nonpositive_int(comp) is not None:
            raise PoleError(f"gamma pole in idempotent component {s} at {comp}")
        parts.append(complex_gamma(comp))
    return BiComplex.from_idempotent(parts[0], parts[1])


def bc_pochhammer(a: BiComplex, n: int) -> BiComplex:
    """Rising factorial (a)_n, ``complex_pochhammer`` per idempotent component."""
    a = BiComplex.coerce(a)
    return BiComplex.from_idempotent(*(complex_pochhammer(c, n) for _, c in components(a)))


def complex_pochhammer(a, n: int) -> complex:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1) by the product recurrence."""
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
    a = complex(a)
    out = 1.0 + 0.0j
    for k in range(n):
        out = out * (a + k)
    return out


def gamma_product_oracle(z: BiComplex, terms: int = 10**6) -> BiComplex:
    """Truncated Weierstrass product, the slow cross-check for bc_gamma.

    gamma(w) = exp(-euler_gamma*w)/w * prod_{n=1..N} (1 + w/n)^{-1} exp(w/n),
    evaluated per idempotent component with the product folded into a
    vectorized log sum.  Truncation error is about |w|^2 / (2*terms),
    so 1e6 terms gives ~1e-5 near the origin.  Test use only.
    """
    if terms < 10**3:
        raise ValueError("product oracle needs at least 1000 factors")
    z = BiComplex.coerce(z)
    n = np.arange(1, terms + 1, dtype=np.float64)
    parts = []
    for s, comp in components(z):
        if nearest_nonpositive_int(comp) is not None:
            raise PoleError(f"gamma pole in idempotent component {s} at {comp}")
        ratios = comp / n
        log_factors = ratios - np.log1p(ratios.astype(np.complex128))
        total = complex(np.sum(log_factors))
        parts.append(np.exp(-EULER_GAMMA * comp) / comp * np.exp(total))
    return BiComplex.from_idempotent(parts[0], parts[1])
