"""Complex and bicomplex gamma function plus Pochhammer scaffolding."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.special

from . import kernels
from .errors import PoleError
from .numbers import BiComplex, components

POLE_TOL = 1e-12

EULER_GAMMA = float(np.euler_gamma)


def nearest_nonpositive_int(w, tol: float = POLE_TOL):
    """The n >= 0 with w ~ -n within tol, or None.

    Used both for gamma pole detection and for spotting terminating
    (polynomial) hypergeometric series.
    """
    w = complex(w)
    if w.real > 0.5:
        return None
    n = -round(w.real)
    if n < 0:
        return None
    if abs(w + n) <= tol * max(1.0, abs(w)):
        return n
    return None


def complex_gamma(w) -> complex:
    """Gamma of a complex argument.

    Delegates to scipy's implementation (Lanczos-class rational
    approximation with reflection), which meets the 1e-12 relative
    accuracy target on |w| <= 20 away from the poles; this wrapper adds
    the explicit pole check.
    """
    w = complex(w)
    if nearest_nonpositive_int(w) is not None:
        raise PoleError(f"gamma pole at {w}")
    return complex(scipy.special.gamma(w))


def bc_gamma(z: BiComplex) -> BiComplex:
    """Componentwise gamma in the idempotent basis."""
    z = BiComplex.coerce(z)
    parts = []
    for s, comp in components(z):
        if nearest_nonpositive_int(comp) is not None:
            raise PoleError(f"gamma pole in idempotent component {s} at {comp}")
        parts.append(complex(scipy.special.gamma(comp)))
    return BiComplex.from_idempotent(parts[0], parts[1])


def bc_pochhammer(a: BiComplex, n: int) -> BiComplex:
    """Rising factorial (a)_n, componentwise product recurrence."""
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
    a = BiComplex.coerce(a)
    return BiComplex.from_idempotent(*(kernels.pochhammer(c, n) for _, c in components(a)))


def complex_pochhammer(a, n: int) -> complex:
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
    return kernels.pochhammer(complex(a), n)


@dataclass(frozen=True)
class PochhammerTable:
    """Prefix table (base)_0 .. (base)_upto built by the recurrence."""

    base: BiComplex
    upto: int
    values: tuple = field(init=False)

    def __post_init__(self):
        vals = [BiComplex(1.0)]
        acc = BiComplex(1.0)
        for k in range(self.upto):
            acc = acc * (self.base + k)
            vals.append(acc)
        object.__setattr__(self, "values", tuple(vals))

    def __getitem__(self, n: int) -> BiComplex:
        return self.values[n]

    def __len__(self):
        return len(self.values)


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
