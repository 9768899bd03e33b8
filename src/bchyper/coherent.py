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

Each operation is written once for one tower and run on both: the
tables through ``hyper.per_component``, the readers of the tables over
``_towers``.  Positivity has one rule, ``_ladder_squares``:
``CoherentSpec`` applies it to level 0 (the parameter ratio) and
``build_tables`` to every level of the table.
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


def _ladder_squares(a, b, count):
    """[f(n)^2 for n < count] on one tower's real parameters.

    The one positivity rule: a level whose square is not strictly
    positive raises PositivityError.  count = 1 is the parameter ratio
    prod(beta)/prod(alpha).
    """
    out = []
    for n in range(count):
        # the inverse coefficient ratio
        num, den = kernels.ratio_parts(a, b, n)
        f2 = (den / num).real
        if not f2 > 0.0:
            raise PositivityError(
                f"ladder factor squared is {f2} at level {n}; the parameter"
                " function leaves the positive cone"
            )
        out.append(f2)
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
        for s in (1, 2):
            alphas, betas = self.params.comp_alphas(s), self.params.comp_betas(s)
            for i, a in enumerate(alphas):
                if nearest_nonpositive_int(a) is not None:
                    raise InvalidParamsError(
                        f"alpha[{i}] component {s} = {a} is zero or a negative integer"
                    )
            for name, values in (("alpha", alphas), ("beta", betas)):
                for x in values:
                    if abs(x.imag) > REAL_TOL * max(1.0, abs(x)):
                        raise PositivityError(
                            f"{name} component {s} = {x} is not real; the parameter"
                            " function cannot be a positive hyperbolic number"
                        )
            _ladder_squares([a.real for a in alphas], [b.real for b in betas], 1)
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
    f = np.sqrt(_ladder_squares([x.real for x in a], [x.real for x in b], nmax))
    rho = np.empty(nmax + 1, dtype=np.float64)
    raw = np.empty(nmax + 1, dtype=np.complex128)
    rho[0] = 1.0
    raw[0] = 1.0
    zp = 1.0 + 0.0j
    # rho may overflow to inf; its coefficient is then 0
    with np.errstate(over="ignore"):
        for n in range(nmax):
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
    norms = _norm_components(spec)
    nmax = spec.truncation
    while True:
        towers = hyper.per_component(_component_tables, spec.params, spec.z, nmax)
        lasts = (abs(raw[-1]) ** 2 / norm for (_, _, raw), norm in zip(towers, norms))
        if all(last < COEFF_FLOOR for last in lasts) or nmax >= HARD_TRUNCATION:
            (rho1, f1, c1), (rho2, f2, c2) = (
                (rho, f, raw / math.sqrt(norm)) for (rho, f, raw), norm in zip(towers, norms)
            )
            # the result is cached and shared: freeze it against callers
            for arr in (rho1, rho2, f1, f2, c1, c2):
                arr.setflags(write=False)
            return LadderTables(
                spec=spec, nmax=nmax, rho1=rho1, rho2=rho2, f1=f1, f2=f2, c1=c1, c2=c2
            )
        nmax = min(2 * nmax, HARD_TRUNCATION)


def _norm_components(spec: CoherentSpec):
    return [v.real for v in hyper.pfq_components(spec.params, spec._zeta())]


def _towers(tables: LadderTables):
    """(rho, f, c) of component 1, then of component 2."""
    return (tables.rho1, tables.f1, tables.c1), (tables.rho2, tables.f2, tables.c2)


def normalization(spec: CoherentSpec) -> BiComplex:
    """The series evaluated at the squared hyperbolic modulus of Z."""
    return BiComplex.from_idempotent(*_norm_components(spec))


def state_coefficients(spec: CoherentSpec):
    """Normalized coefficients c_n = Z^n / sqrt(rho(n) * N).

    The hyperbolic-squared magnitudes sum to 1 minus the truncation
    tail; a tail above 1e-12 raises TruncationError.
    """
    tables = build_tables(spec)
    tails = tuple(max(0.0, 1.0 - float(np.sum(np.abs(c) ** 2))) for _, _, c in _towers(tables))
    if max(tails) >= TAIL_LIMIT:
        raise TruncationError(
            f"coefficient tail {tails} exceeds {TAIL_LIMIT} at truncation {tables.nmax}"
        )
    return [BiComplex.from_idempotent(u, v) for u, v in zip(tables.c1, tables.c2)]


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
    overlap = [
        complex(np.sum(np.conj(ca[:k]) * cb[:k]))
        for (_, _, ca), (_, _, cb) in zip(_towers(a), _towers(b))
    ]
    return BiComplex.from_idempotent(*overlap)


def annihilate(spec: CoherentSpec) -> IdentityReport:
    """Eigenstate check of the lowering operator.

    Applies the operator coefficientwise, f(n) * c_{n+1} for
    n <= N-1, and compares against Z * c_n.  The report's sides are
    the recovered (Rayleigh) eigenvalue and Z itself; the residual is
    the relative l2 misfit per component, bounded by the truncation
    tail for a correct recurrence.
    """
    tables = build_tables(spec)
    sides = []
    for (_, zc), (_, f, c) in zip(components(spec.z), _towers(tables)):
        lowered = f * c[1:]
        misfit = float(np.linalg.norm(lowered - zc * c[:-1]))
        weight = float(np.sum(np.abs(c[:-1]) ** 2))
        rayleigh = complex(np.sum(np.conj(c[:-1]) * lowered) / weight) if weight > 0 else 0j
        sides.append((rayleigh, zc, misfit, abs(c[-1]) * f[-1]))
    lhs, rhs, misfit, bound = zip(*sides)
    return IdentityReport(
        lhs=BiComplex.from_idempotent(*lhs),
        rhs=BiComplex.from_idempotent(*rhs),
        residual=Hyperbolic.from_idempotent(*misfit),
        tolerance=max(*bound, 64 * np.finfo(float).eps * tables.nmax),
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
    for rho, f, _ in _towers(tables):
        direct = f[n] ** 2 - f[n - 1] ** 2
        if math.isfinite(rho[n + 1]) and math.isfinite(rho[n]):
            ratio = rho[n + 1] / rho[n] - rho[n] / rho[n - 1]
            scale = max(abs(direct), abs(ratio), 1.0)
            if abs(direct - ratio) > 1e-10 * scale:
                raise ArithmeticError(
                    f"commutator forms disagree at level {n}: {direct} vs {ratio}"
                )
        out.append(direct)
    return BiComplex.from_idempotent(*out)


def ladder_matrices(spec: CoherentSpec, size: int):
    """Dense truncated matrices ((lower1, lower2), (raise1, raise2)).

    Lowering has f(n) on the superdiagonal, raising on the
    subdiagonal; with the componentwise conjugate-transpose adjoint
    the raising matrix is exactly the adjoint of the lowering one.
    """
    tables = build_tables(spec)
    if not 1 <= size <= tables.nmax:
        raise IndexError(f"matrix size must be in [1, {tables.nmax}]")
    lower = tuple(np.diag(f[: size - 1], 1).astype(np.complex128) for _, f, _ in _towers(tables))
    return lower, tuple(m.T.copy() for m in lower)
