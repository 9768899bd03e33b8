"""Coherent-type states whose normalization is the bicomplex series.

Fock indices are restricted to diagonal hyperbolic integers in the
public API; the two idempotent components run as independent classical
towers, which is exactly how every formula here factorizes.  The
parameter function rho and the ladder factor f obey

    rho(0) = 1,   rho(n+1) = rho(n) * f(n)^2,
    f(n)^2 = (n+1) * prod_j (beta_j + n) / prod_i (alpha_i + n)

per component, and both must stay strictly positive hyperbolic
numbers, which restricts the parameters to real components with
positive ratios.  rho grows factorially for p <= q, so entries past
n ~ 170 can overflow to inf; coefficients divide by sqrt(rho) and
degrade gracefully to exact zeros there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import hyper, kernels
from .errors import (
    InvalidParamsError,
    ParamMismatchError,
    PositivityError,
    TruncationError,
)
from .gamma import nearest_nonpositive_int
from .hyper import PfqParams
from .identities import IdentityReport
from .numbers import BiComplex, Hyperbolic, components

REAL_TOL = 1e-12
DEFAULT_TRUNCATION = 256
HARD_TRUNCATION = 1 << 15
COEFF_FLOOR = 1e-16
TAIL_LIMIT = 1e-12


def _real_components(value: BiComplex, name: str):
    out = []
    for s, comp in components(value):
        if abs(comp.imag) > REAL_TOL * max(1.0, abs(comp)):
            raise PositivityError(
                f"{name} component {s} = {comp} is not real; the parameter"
                " function cannot be a positive hyperbolic number"
            )
        out.append(comp.real)
    return out


@dataclass(frozen=True)
class CoherentSpec:
    """A (p, q, Z) state description with truncation level."""

    params: PfqParams
    z: BiComplex
    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        object.__setattr__(self, "z", BiComplex.coerce(self.z))
        if self.truncation < 1:
            raise InvalidParamsError("truncation must be positive")
        for i, a in enumerate(self.params.alphas):
            for s, comp in components(a):
                if nearest_nonpositive_int(comp) is not None:
                    raise InvalidParamsError(
                        f"alpha[{i}] component {s} = {comp} is zero or a negative integer"
                    )
        ratios = [1.0, 1.0]
        for a in self.params.alphas:
            for k, x in enumerate(_real_components(a, "alpha")):
                ratios[k] /= x
        for b in self.params.betas:
            for k, x in enumerate(_real_components(b, "beta")):
                ratios[k] *= x
        if ratios[0] <= 0.0 or ratios[1] <= 0.0:
            raise PositivityError(
                f"parameter ratio prod(beta)/prod(alpha) = ({ratios[0]}, {ratios[1]})"
                " must be strictly positive in both components"
            )
        # the normalization argument must lie in the series region
        hyper.check_domain(self.params, self._zeta())

    def _zeta(self) -> BiComplex:
        return BiComplex.from_idempotent(*(abs(c) ** 2 for _, c in components(self.z)))


@dataclass(frozen=True)
class LadderTables:
    """Componentwise tables of rho, f and the normalized coefficients
    c_n = Z^n / sqrt(rho(n) * N), all read-only.

    N is the normalization; ``build_tables`` evaluates it once, so every
    reader of c1/c2 shares one set of component sums.
    """

    spec: CoherentSpec
    nmax: int
    rho1: np.ndarray
    rho2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    c1: np.ndarray = field(repr=False)
    c2: np.ndarray = field(repr=False)

    def rho(self, n: int) -> BiComplex:
        return BiComplex.from_idempotent(self.rho1[n], self.rho2[n])


def _component_tables(a, b, z, nmax):
    """(rho, f, raw coefficients) for one classical tower."""
    rho = np.empty(nmax + 1, dtype=np.float64)
    f = np.empty(nmax, dtype=np.float64)
    raw = np.empty(nmax + 1, dtype=np.complex128)
    rho[0] = 1.0
    raw[0] = 1.0
    zp = 1.0 + 0.0j
    real_a, real_b = [x.real for x in a], [x.real for x in b]
    # rho may overflow to inf; its coefficient is then 0
    with np.errstate(over="ignore"):
        for n in range(nmax):
            # the inverse coefficient ratio on the real parts
            num, den = kernels.ratio_parts(real_a, real_b, n)
            f2 = (den / num).real
            if not f2 > 0.0:
                raise PositivityError(
                    f"ladder factor squared is {f2} at level {n}; the parameter"
                    " function leaves the positive cone"
                )
            f[n] = math.sqrt(f2)
            rho[n + 1] = rho[n] * f[n] ** 2
            zp = zp * z
            raw[n + 1] = zp / math.sqrt(rho[n + 1]) if math.isfinite(rho[n + 1]) else 0.0
    return rho, f, raw


@functools.lru_cache(maxsize=128)
def build_tables(spec: CoherentSpec) -> LadderTables:
    """Tables satisfying the recurrence rho(n+1) = rho(n) * f(n)^2 exactly.

    The truncation grows (doubling, up to a hard cap) until both
    normalized tail coefficients satisfy |c_N|^2 < 1e-16.
    """
    norm1, norm2 = _norm_components(spec)
    nmax = spec.truncation
    while True:
        (rho1, f1, raw1), (rho2, f2, raw2) = hyper.per_component(
            _component_tables, spec.params, spec.z, nmax
        )
        last1 = abs(raw1[-1]) ** 2 / norm1
        last2 = abs(raw2[-1]) ** 2 / norm2
        if (last1 < COEFF_FLOOR and last2 < COEFF_FLOOR) or nmax >= HARD_TRUNCATION:
            c1 = raw1 / math.sqrt(norm1)
            c2 = raw2 / math.sqrt(norm2)
            # the result is cached and shared: freeze it against callers
            for arr in (rho1, rho2, f1, f2, c1, c2):
                arr.setflags(write=False)
            return LadderTables(
                spec=spec, nmax=nmax, rho1=rho1, rho2=rho2, f1=f1, f2=f2, c1=c1, c2=c2
            )
        nmax = min(2 * nmax, HARD_TRUNCATION)


def _norm_components(spec: CoherentSpec):
    zeta = spec._zeta()
    v1, v2 = hyper.pfq_components(spec.params, zeta)
    return v1.real, v2.real


def normalization(spec: CoherentSpec) -> BiComplex:
    """The series evaluated at the squared hyperbolic modulus of Z."""
    n1, n2 = _norm_components(spec)
    return BiComplex.from_idempotent(n1, n2)


def state_coefficients(spec: CoherentSpec):
    """Normalized coefficients c_n = Z^n / sqrt(rho(n) * N).

    The hyperbolic-squared magnitudes sum to 1 minus the truncation
    tail; a tail above 1e-12 raises TruncationError.
    """
    tables = build_tables(spec)
    c1, c2 = tables.c1, tables.c2
    tail1 = max(0.0, 1.0 - float(np.sum(np.abs(c1) ** 2)))
    tail2 = max(0.0, 1.0 - float(np.sum(np.abs(c2) ** 2)))
    if tail1 >= TAIL_LIMIT or tail2 >= TAIL_LIMIT:
        raise TruncationError(
            f"coefficient tail ({tail1}, {tail2}) exceeds {TAIL_LIMIT}"
            f" at truncation {tables.nmax}"
        )
    return [BiComplex.from_idempotent(u, v) for u, v in zip(c1, c2)]


def inner_product(spec_a: CoherentSpec, spec_b: CoherentSpec) -> BiComplex:
    """Overlap of two states with identical parameters.

    Componentwise sum of conjugate-weighted coefficient products,
    which realizes the star-conjugate argument of the normalization
    function: the idempotent components of Z* are the complex
    conjugates of the components of Z.
    """
    if spec_a.params != spec_b.params:
        raise ParamMismatchError("states have different parameter vectors")
    a, b = build_tables(spec_a), build_tables(spec_b)
    k = min(len(a.c1), len(b.c1))
    v1 = complex(np.sum(np.conj(a.c1[:k]) * b.c1[:k]))
    v2 = complex(np.sum(np.conj(a.c2[:k]) * b.c2[:k]))
    return BiComplex.from_idempotent(v1, v2)


def annihilate(spec: CoherentSpec) -> IdentityReport:
    """Eigenstate check of the lowering operator.

    Applies the operator coefficientwise, f(n) * c_{n+1} for
    n <= N-1, and compares against Z * c_n.  The report's sides are
    the recovered (Rayleigh) eigenvalue and Z itself; the residual is
    the relative l2 misfit per component, bounded by the truncation
    tail for a correct recurrence.
    """
    tables = build_tables(spec)
    c1, c2 = tables.c1, tables.c2
    sides = []
    for (_, zc), f, c in zip(components(spec.z), (tables.f1, tables.f2), (c1, c2)):
        lowered = f * c[1:]
        target = zc * c[:-1]
        misfit = float(np.linalg.norm(lowered - target))
        weight = float(np.sum(np.abs(c[:-1]) ** 2))
        rayleigh = complex(np.sum(np.conj(c[:-1]) * lowered) / weight) if weight > 0 else 0j
        sides.append((rayleigh, zc, misfit))
    bound1 = abs(c1[-1]) * tables.f1[-1]
    bound2 = abs(c2[-1]) * tables.f2[-1]
    return IdentityReport(
        lhs=BiComplex.from_idempotent(sides[0][0], sides[1][0]),
        rhs=BiComplex.from_idempotent(sides[0][1], sides[1][1]),
        residual=Hyperbolic.from_idempotent(sides[0][2], sides[1][2]),
        tolerance=max(bound1, bound2, 64 * np.finfo(float).eps * tables.nmax),
    )


def commutator_diagonal(spec: CoherentSpec, n: int) -> BiComplex:
    """Diagonal of the ladder commutator at level n: f(n)^2 - f(n-1)^2.

    Cross-checked against the parameter-function ratio form
    rho(n+1)/rho(n) - rho(n)/rho(n-1).
    """
    tables = build_tables(spec)
    if not 1 <= n < tables.nmax:
        raise IndexError(f"level must be in [1, {tables.nmax})")
    out = []
    for f, rho in ((tables.f1, tables.rho1), (tables.f2, tables.rho2)):
        direct = f[n] ** 2 - f[n - 1] ** 2
        if math.isfinite(rho[n + 1]) and math.isfinite(rho[n]):
            ratio = rho[n + 1] / rho[n] - rho[n] / rho[n - 1]
            scale = max(abs(direct), abs(ratio), 1.0)
            if abs(direct - ratio) > 1e-10 * scale:
                raise ArithmeticError(
                    f"commutator forms disagree at level {n}: {direct} vs {ratio}"
                )
        out.append(direct)
    return BiComplex.from_idempotent(out[0], out[1])


def ladder_matrices(spec: CoherentSpec, size: int):
    """Dense truncated matrices ((lower1, lower2), (raise1, raise2)).

    Lowering has f(n) on the superdiagonal, raising on the
    subdiagonal; with the componentwise conjugate-transpose adjoint
    the raising matrix is exactly the adjoint of the lowering one.
    """
    tables = build_tables(spec)
    if size > tables.nmax:
        raise IndexError("matrix size exceeds the table truncation")
    lower = []
    upper = []
    for f in (tables.f1, tables.f2):
        m = np.zeros((size, size), dtype=np.complex128)
        for n in range(size - 1):
            m[n, n + 1] = f[n]
        lower.append(m)
        upper.append(m.T.copy())
    return (lower[0], lower[1]), (upper[0], upper[1])
