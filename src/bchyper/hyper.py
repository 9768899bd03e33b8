"""Bicomplex generalized hypergeometric series pFq.

The series is evaluated in the idempotent basis: the bicomplex sum is
exactly the pair of classical complex sums run on the component
parameters, glued by e1/e2.  The two components are summed
independently with independent truncation depths.

``check_component`` is the one domain-and-pole gate, and
``component_series`` the one gated sum: it runs the gate on every
classical component sum it takes, plain or over a quadrature rule
stack (``quad._inner_values`` is a single call of it), so a relation
that sums shifted or halved parameter sets is gated by the sums
themselves.
``check_domain`` is the same gate on both components of a bicomplex
argument.  The convergence class of a parameter set is ``classify``'s
answer; ``pfq`` does not compute it.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .errors import DomainError, InvalidParamsError, NoConvergenceError
from .gamma import nearest_nonpositive_int
from .numbers import BiComplex, Hyperbolic, components

DEFAULT_TOL = 1e-15
DEFAULT_CAP = 10_000

# |component| closer to 1 than this counts as "on the boundary".
BOUNDARY_BAND = 1e-12
# Eq-margin needed before a boundary evaluation is allowed.
BOUNDARY_MARGIN = 1e-9
# Trailing terms over which boundary_probe takes its Cauchy delta.
PROBE_WINDOW = 100
# Term ratios the oracle builds at first; it doubles the array as needed.
ORACLE_BLOCK = 64


class ConvergenceKind(enum.Enum):
    ENTIRE = "entire"
    UNIT_BALL = "unit-ball"
    UNIT_BALL_BOUNDARY = "unit-ball-boundary-convergent"
    DIVERGENT = "divergent-everywhere"


@dataclass(frozen=True)
class ConvergenceClass:
    """Region classification of a parameter set (by p versus q).

    For the ball case (p = q+1) carries the boundary exponents
    eta1/eta2 (real parts of sum(betas) - sum(alphas) per idempotent
    component) and the margin of the boundary-convergence inequality,
    computed from the cartesian parts.
    """

    kind: ConvergenceKind
    eta1: float | None = None
    eta2: float | None = None
    margin: float | None = None


@dataclass(frozen=True)
class PfqParams:
    """Validated parameter vectors (alphas; betas) of BiComplex values."""

    alphas: tuple
    betas: tuple

    def __init__(self, alphas: Sequence, betas: Sequence):
        alphas = tuple(BiComplex.coerce(a) for a in alphas)
        betas = tuple(BiComplex.coerce(b) for b in betas)
        p = len(alphas)
        split = components(*alphas, *betas)
        for s, *comps in split:
            for j, comp in enumerate(comps):
                if not cmath.isfinite(comp):
                    name = f"alpha[{j}]" if j < p else f"beta[{j - p}]"
                    raise InvalidParamsError(f"{name} component {s} = {comp} is not finite")
        for j, b in enumerate(betas):
            for s, comp in components(b):
                if nearest_nonpositive_int(comp) is not None:
                    raise InvalidParamsError(
                        f"beta[{j}] component {s} = {comp} is a nonpositive integer"
                    )
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)
        # The component vectors, built once as tuples of Python complex.
        # They are not fields, so equality and hashing see only the
        # parameter values.
        object.__setattr__(self, "_comp_alphas", tuple(c[1 : p + 1] for c in split))
        object.__setattr__(self, "_comp_betas", tuple(c[p + 1 :] for c in split))

    @property
    def p(self) -> int:
        return len(self.alphas)

    @property
    def q(self) -> int:
        return len(self.betas)

    def comp_alphas(self, s: int) -> tuple:
        """Component s (1 or 2) of the alphas, a tuple of Python complex."""
        return self._comp_alphas[s - 1]

    def comp_betas(self, s: int) -> tuple:
        """Component s (1 or 2) of the betas, a tuple of Python complex."""
        return self._comp_betas[s - 1]


def per_component(worker, params: PfqParams, *values) -> list:
    """[worker(alphas_s, betas_s, *values_s) for s = 1, 2].

    The one place a relation is run on both idempotent components: the
    parameter vectors come as fresh lists of Python complex, which a
    worker may concatenate, and `values` are split by ``components``.
    """
    return [
        worker(list(params.comp_alphas(s)), list(params.comp_betas(s)), *vals)
        for s, *vals in components(*values)
    ]


@dataclass(frozen=True)
class SeriesEval:
    """A ``pfq`` result: the value, and per idempotent component the
    number of terms summed and the tail bound."""

    value: BiComplex
    terms_used: tuple
    tail_bound: Hyperbolic


def classify(params: PfqParams) -> ConvergenceClass:
    """Convergence trichotomy by p versus q, with the boundary test for p = q+1.

    The boundary inequality is evaluated on the cartesian parts,
    Re(sum b1 - sum a1) > |Im(sum b2 - sum a2)|, which is equivalent to
    both idempotent exponents eta1, eta2 being positive.
    """
    p, q = params.p, params.q
    if p <= q:
        return ConvergenceClass(ConvergenceKind.ENTIRE)
    if p > q + 1:
        return ConvergenceClass(ConvergenceKind.DIVERGENT)
    eta1, eta2 = (
        (sum(params.comp_betas(s)) - sum(params.comp_alphas(s))).real for s in (1, 2)
    )
    cart1 = sum(b.re1 for b in params.betas) - sum(a.re1 for a in params.alphas)
    cart2 = sum(b.re2 for b in params.betas) - sum(a.re2 for a in params.alphas)
    margin = complex(cart1).real - abs(complex(cart2).imag)
    kind = (
        ConvergenceKind.UNIT_BALL_BOUNDARY
        if margin > 0.0
        else ConvergenceKind.UNIT_BALL
    )
    return ConvergenceClass(kind, eta1=eta1, eta2=eta2, margin=margin)


def check_component(alphas, betas, z: complex, label: str = "") -> int | None:
    """The one gate of a classical component sum; returns its
    termination degree, the least n with a numerator parameter at -n
    (None for an unending series).

    Raises InvalidParamsError for a parameter that is not finite, and
    when a denominator parameter sits at a nonpositive integer -m that
    the sum reaches: any m for an unending series, m below the degree
    for a terminating one.  Raises DomainError for an argument that is
    not finite, and when an unending series is taken outside the
    region of its shape (p versus q); on the unit circle the series
    needs Re(sum(betas) - sum(alphas)) > BOUNDARY_MARGIN, asked of
    this component alone.  `label` names the component in the
    messages.
    """
    where = f" (component {label})" if label else ""
    for w in (*alphas, *betas):
        if not cmath.isfinite(w):
            raise InvalidParamsError(f"parameter {w} is not finite{where}")
    if not cmath.isfinite(z):
        raise DomainError(f"argument {z} is not finite{where}")
    k = None
    for a in alphas:
        n = nearest_nonpositive_int(a)
        if n is not None and (k is None or n < k):
            k = n
    for b in betas:
        m = nearest_nonpositive_int(b)
        if m is not None and (k is None or m < k):
            raise InvalidParamsError(f"denominator parameter {b} is a pole of the sum{where}")
    p, q = len(alphas), len(betas)
    if k is not None or p <= q:
        return k
    r = abs(z)
    if p > q + 1:
        if r > 0.0:
            raise DomainError(f"series with p > q+1 diverges for nonzero argument{where}")
        return None
    if r < 1.0 - BOUNDARY_BAND:
        return None
    if r > 1.0 + BOUNDARY_BAND:
        raise DomainError(f"argument has modulus {r} >= 1{where}")
    if (sum(betas) - sum(alphas)).real > BOUNDARY_MARGIN:
        return None
    raise DomainError(
        f"boundary evaluation needs the convergence inequality with margin"
        f" > {BOUNDARY_MARGIN} at |z| = {r}{where}"
    )


def component_series(
    comp_alphas,
    comp_betas,
    z: complex,
    tol: float = DEFAULT_TOL,
    cap: int = DEFAULT_CAP,
    start=None,
    step=None,
):
    """One classical component sum via the kernel, (value, terms, tail).

    Gated by ``check_component`` at |z| before the kernel runs.
    Terminating series (nonpositive-integer numerator parameter) are
    summed exactly, in their degree with no stop rule and tail 0.0.  A
    sum that hits the cap or overflows raises NoConvergenceError.

    Given a rule stack (start, step), the sum is taken termwise over
    the rules' moments, as ``kernels.series_sum`` takes it, and its
    tail is NaN.  The gate still reads |z|: the caller scales the bases
    to modulus at most 1 and carries the scale in z.
    """
    z = complex(z)
    k = check_component(comp_alphas, comp_betas, z)
    tol, cap = (tol, cap) if k is None else (None, k)
    value, n, tail, status = kernels.series_sum(comp_alphas, comp_betas, z, tol, cap, start, step)
    if status != kernels.STATUS_OK:
        raise NoConvergenceError(
            f"series did not meet the stop rule within {cap} terms at z = {z}"
        )
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NoConvergenceError(f"series overflowed at z = {z}")
    return value, n, tail


def pfq(
    params: PfqParams,
    z: BiComplex,
    tol: float = DEFAULT_TOL,
    cap: int = DEFAULT_CAP,
) -> SeriesEval:
    """Evaluate the bicomplex series at z, componentwise.

    Raises DomainError outside the convergence region of the parameter
    class (boundary points need the convergence inequality to hold
    with margin) and NoConvergenceError when the term cap is hit.
    Terminating components are exempt from the region check.  Both
    components are gated (``check_domain``) before either is summed.
    """
    z = BiComplex.coerce(z)
    check_domain(params, z)
    (v1, n1, t1), (v2, n2, t2) = per_component(component_series, params, z, tol, cap)
    return SeriesEval(
        value=BiComplex.from_idempotent(v1, v2),
        terms_used=(n1, n2),
        tail_bound=Hyperbolic.from_idempotent(t1, t2),
    )


def pfq_value(params, z) -> BiComplex:
    return pfq(params, z).value


def check_domain(params: PfqParams, z: BiComplex) -> None:
    """``check_component`` on both components of z; it only gates.

    The gate itself is ``check_component``, which every component sum
    runs again; this runs it on both components before either is
    summed, so the first component's sum is not wasted on an argument
    whose second component is out of bounds.
    """
    for s, zc in components(BiComplex.coerce(z)):
        check_component(params.comp_alphas(s), params.comp_betas(s), zc, str(s))


def pfq_components(params: PfqParams, z: BiComplex):
    """The two raw component sums (z1-side, z2-side) without gluing.

    The same gate and sums as ``pfq``: ``check_domain`` (that is,
    ``check_component``) on both components, then
    ``per_component(component_series, ...)``, of which only the values
    are kept (``pfq`` also returns the term counts and tail bounds).
    """
    z = BiComplex.coerce(z)
    check_domain(params, z)
    return tuple(value for value, _, _ in per_component(component_series, params, z))


def hyp1f1(a, b, z) -> BiComplex:
    """Confluent case, p = q = 1."""
    return pfq_value(PfqParams([a], [b]), z)


def hyp2f1(a1, a2, b, z) -> BiComplex:
    """Gauss case, p = 2, q = 1; argument must lie in the unit ball."""
    return pfq_value(PfqParams([a1, a2], [b]), z)


def hyp1f0(v, z) -> BiComplex:
    """Binomial case, p = 1, q = 0; equals (1 - z)^(-v) on the ball."""
    return pfq_value(PfqParams([v], []), z)


def oracle_pfq_complex(a_list, b_list, z: complex) -> complex:
    """Independent classical complex series, the componentwise oracle.

    Deliberately not the kernels' running recurrence, so rounding
    paths differ: the per-index ratios z * prod(a + k) / ((k + 1) *
    prod(b + k)) are built as numpy arrays, and term n is the numpy
    product of the first n of them, taken as one ``np.cumprod`` (a
    cumprod prefix rounds exactly as ``np.prod`` over it).  The ratio
    array starts at ORACLE_BLOCK entries and doubles while more terms
    are needed.  Same stop rule as the kernels, at DEFAULT_TOL within
    DEFAULT_CAP terms: three consecutive terms below tol * |sum|, at
    least ``kernels.MIN_TERMS`` terms.
    """
    a, b = list(a_list), list(b_list)
    z = complex(z)
    total = 1.0 + 0.0j
    below = 0
    terms = []
    n = 1
    while n <= DEFAULT_CAP:
        if n > len(terms):
            k = np.arange(min(max(2 * len(terms), ORACLE_BLOCK), DEFAULT_CAP), dtype=np.float64)
            # ratios and terms past the stopping one may overflow; that
            # changes none before it, so it is not worth a warning
            with np.errstate(over="ignore", invalid="ignore"):
                num = np.ones(k.size, dtype=np.complex128)
                for ai in a:
                    num = num * (ai + k)
                den = (k + 1.0).astype(np.complex128)
                for bj in b:
                    den = den * (bj + k)
                terms = np.cumprod(z * num / den).tolist()
        term = terms[n - 1]
        total += term
        if abs(term) <= DEFAULT_TOL * abs(total):
            below += 1
            if below >= 3 and n >= kernels.MIN_TERMS:
                return total
        else:
            below = 0
        n += 1
    raise NoConvergenceError(f"oracle series did not converge within {DEFAULT_CAP} terms")


def boundary_probe(params: PfqParams, z: BiComplex, cap: int = 20_000):
    """Cauchy deltas of the two component partial sums over a trailing
    window of PROBE_WINDOW terms.

    Returns ((delta1, maxterm1, finite1), (delta2, maxterm2, finite2)).
    The window needs at least two terms, so cap < 2 raises ValueError.
    """
    if cap < 2:
        raise ValueError(f"boundary_probe needs cap >= 2, got cap={cap}")
    z = BiComplex.coerce(z)
    return tuple(per_component(kernels.window_probe, params, z, cap, PROBE_WINDOW))
