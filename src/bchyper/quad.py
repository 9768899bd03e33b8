"""Componentwise quadrature for the three integral representations.

All curves are the paper-style product curves: each idempotent
component integrates over the real segment [0,1] or the half line.
Endpoint factors t^(a-1), (1-t)^(c-a-1) carry complex exponents, so
plain real-weight Gauss-Jacobi with the phase left in the integrand
would only converge algebraically.  Instead the full complex-exponent
weight is absorbed: the Jacobi/Laguerre recurrence coefficients are
rational in the exponents and continue analytically, and the nodes are
the eigenvalues of the complex-symmetric tridiagonal Jacobi matrix
(Golub-Welsch), found in O(n^2) without forming it: the interior
asymptotic formula for the Jacobi zeros, continued analytically to the
complex exponents, gives the starting nodes, and simultaneous
Aberth-Ehrlich steps, with p_n / p_n' of the characteristic polynomial
from the orthonormal three-term recurrence, move all of them to the
complex roots at once.
The weights are the weight's mass over sum_j q_j(x)^2 over the
orthonormal polynomials q_j at the final nodes, which is Golub-Welsch's
mu0 v_0^2 / (v . v) for the eigenvector v_j = q_j(x); on [0, 1] the
mass is B(A+1, B+1), with no power of two to cancel.  The rule is
exact for polynomials of degree 2n-1 against the complex weight.  The
half line is split at t = 1: complex-exponent Jacobi on [0,1] captures
the t^(v-1) endpoint, ordinary Gauss-Laguerre, built the same way from
its real Jacobi matrix, handles the smooth tail.

``jacobi_rule_01`` builds a stack of R rules in one pass: one
asymptotic start over the (R, n) stack, one Aberth loop in which the
recurrences run on the rows still moving (a row leaves once it
settles), one weight pass.  Each row is bit for bit the rule built
alone, which is the R = 1 case of the same code.  ``_jacobi_stack``
validates the exponents and builds the masses and Jacobi matrices, for
``jacobi_rule_01`` and for the representations that never solve for
nodes.

Each representation is a classical component worker (``_euler_comp``,
``_laplace_comp``, ``_double_comp``) returning (quadrature, series) for
one component; ``hyper.per_component`` runs it on both components and
``identities.make_report`` glues the pairs, as for every relation in
``identities``.  The Gauss rules of both components, or their Jacobi
matrices, are built first, in one stacked call (``jacobi_rule_01``
for Laplace, ``_component_matrices`` for Euler and double), and each
worker receives its own component's rows.

Every representation sums its inner series the way the paper's proofs
integrate it, term by term, in one rule sum per component through the
package's one gated path (``_inner_values``, a single
``hyper.component_series`` call): the rule sum sum_i w_i F(z b_i) is
taken as sum_k c_k z^k M_k over the rule's moments
M_k = sum_i w_i b_i^k.  The series kernel sums any moment sequence;
this module alone builds them, with two generators that yield M_k as
the kernel asks for term k.  ``_node_moments`` multiplies a node
rule's weights by its bases.  ``_matrix_moments`` takes them as
mass (B^k)_00, which by Golub and Welsch they are for every k, B the
rule's n x n Jacobi matrix in the bases b, so the Euler and double
workers solve for no nodes: each moment takes one tridiagonal product
of the state mass e_0 with B = (I + J) / 2 (Euler, bases t) or
(I - J) / 2 (double, bases 1 - t), J the matrix on [-1, 1], and the
gate reads |z|, as the bases have modulus at most 1 on [0, 1].  The
double representation never forms its n x n node grid: the tensor
rule's sum sum_ij wu_i wv_j F(z (1-tu_i) (1-tv_j)) is
sum_k c_k z^k U_k V_k over the two rules' moments U_k and V_k in the
bases 1 - t, the same quadrature in O(nK) work for K terms instead of
O(n^2 K).
The Laplace worker keeps its nodes: its [0, 1] rule carries e^(-t),
not a polynomial in t (it would need the action of e^(-J)), and its
Gauss-Laguerre tail needs them for its |z| t <= 700 cut.  It sums
both rules as one node row at the argument z s, over the bases t / s
in (0, 1], s the largest kept tail node, whose moments cannot
overflow.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import hyper
from .errors import DomainError, InvalidParamsError, NoConvergenceError, PreconditionError
from .gamma import complex_gamma
from .hyper import DEFAULT_CAP, DEFAULT_TOL, PfqParams, per_component
from .identities import IdentityReport, make_report
from .numbers import BiComplex, components

DEFAULT_NODES = 64
# Node iteration of jacobi_rule_01: stop once the largest correction is
# below ABERTH_TOL, or below ABERTH_FLOOR_START and no longer halving;
# give up after MAX_ABERTH_STEPS.
ABERTH_TOL = 1e-10
ABERTH_FLOOR_START = 1e-6
MAX_ABERTH_STEPS = 60


class CurveKind(enum.Enum):
    UNIT_INTERVAL = "unit-interval"
    HALF_LINE = "half-line"


@dataclass(frozen=True)
class ProductCurve:
    """Integration curve C(t) = (C1(t1), C2(t2)), fixed to real paths."""

    kind: CurveKind
    nodes: int = DEFAULT_NODES

    def __post_init__(self):
        if self.nodes < 16:
            raise ValueError("quadrature needs at least 16 nodes")


def _jacobi_coefficients(n: int, alpha, beta):
    """Diagonals and squared off-diagonals, (R, n) and (R, n - 1), of the
    n x n Jacobi matrices for the weights (1-x)^alpha (1+x)^beta on
    [-1, 1], from (R, 1) columns of real or complex exponents.

    Each row's first entries, (beta - alpha) / (alpha + beta + 2), the
    numerator beta^2 - alpha^2 of the rest of the diagonal and the
    first off-diagonal entry, are taken in Python complex, whose
    division and powers round unlike numpy's.
    """
    heads = [(complex(a), complex(b)) for a, b in zip(alpha[:, 0], beta[:, 0])]
    ab = alpha + beta
    k = np.arange(1, n, dtype=np.float64)
    diag = np.concatenate((
        [[(b - a) / (a + b + 2.0)] for a, b in heads],
        np.array([[b**2 - a**2] for a, b in heads]) / ((2 * k + ab) * (2 * k + ab + 2.0)),
    ), axis=1)
    k = k[1:]
    off = np.concatenate((
        [[4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + (a + b)) ** 2 * (3.0 + (a + b)))]
         for a, b in heads],
        4.0 * k * (k + alpha) * (k + beta) * (k + ab)
        / ((2 * k + ab) ** 2 * (2 * k + ab + 1.0) * (2 * k + ab - 1.0)),
    ), axis=1)[:, : n - 1]
    return diag, off


def _by_step(a):
    """The last axis of `a` moved to the front, each entry broadcast
    over the nodes: entry j of a (..., n) stack is a (..., 1) array."""
    return np.moveaxis(a, -1, 0)[..., None]


def _newton_ratio(x, diag, sb):
    """p_n(x) / p_n'(x) for the characteristic polynomial p_n = det(x - T).

    Runs the orthonormal recurrence sb[j] q_{j+1} = (x - diag[j]) q_j
    - sb[j-1] q_{j-1}, which stays O(1) where the monic p_n underflows
    at large n.  x is (..., m) with diag (..., n) and sb (..., n - 1),
    one Jacobi matrix per row of a stack (or a lone 1-D rule); q and q'
    advance together as the two halves of one (2, ..., m) array, real
    or complex as x and diag are.  The last step has no sb to divide
    by; a constant factor cancels in the ratio anyway.
    """
    edge = sb.shape[:-1] + (1,)
    inv_sb = np.concatenate((1.0 / sb, np.ones(edge)), axis=-1)
    shift = _by_step(np.concatenate((np.zeros(edge), sb), axis=-1) * inv_sb)
    inv_sb = _by_step(inv_sb)
    # the (n, ..., m) table of (x - diag[j]) / sb[j], built in place
    scaled = x[None] - _by_step(diag)
    scaled *= inv_sb
    prev = np.zeros((2,) + x.shape, dtype=scaled.dtype)
    cur = np.zeros_like(prev)
    cur[0] = 1.0
    for j in range(diag.shape[-1]):
        nxt = scaled[j] * cur
        nxt[1] += inv_sb[j] * cur[0]
        nxt -= shift[j] * prev
        prev, cur = cur, nxt
    return cur[0] / cur[1]


def _eigenvector_norm(x, diag, sb):
    """sum_j q_j(x)^2 over the orthonormal polynomials q_0 = 1, ..., q_{n-1},
    with x, diag and sb stacked as for ``_newton_ratio``.

    q_j(x) is the eigenvector of the Jacobi matrix for the eigenvalue x,
    so mu0 / this sum is Golub-Welsch's weight mu0 v_0^2 / (v . v).
    """
    diag, sb = _by_step(diag), _by_step(sb)
    q_prev, q = np.zeros_like(x), np.ones_like(x)
    norm = np.ones_like(x)
    for j in range(len(diag) - 1):
        q_next = (x - diag[j]) * q
        if j > 0:
            q_next -= sb[j - 1] * q_prev
        q_next /= sb[j]
        q_prev, q = q, q_next
        norm += q * q
    return norm


def _repulsion(x):
    """The Aberth sum over k != i of 1 / (x_i - x_k), one row of the
    (R, m) stack at a time, so the gap block stays (m, m)."""
    out = np.empty_like(x)
    for r, row in enumerate(x):
        gaps = row[:, None] - row[None, :]
        np.fill_diagonal(gaps, math.inf)
        out[r] = np.sum(1.0 / gaps, axis=1)
    return out


def _asymptotic_nodes(n: int, alpha, beta):
    """Starting nodes for the Jacobi weight (1-x)^alpha (1+x)^beta on
    [-1, 1], from (R, 1) columns of exponents to the (R, n) stack.

    The interior asymptotic formula for the Jacobi zeros (Gatteschi and
    Pittaluga 1985, as used by Hale and Townsend, SIAM J. Sci. Comput.
    35 (2013) A652-A674), continued analytically to complex exponents:
    x_k = cos theta_k for k = 1, ..., n, with rho = 2n + alpha + beta + 1,
    phi_k = (2k + alpha - 1/2) pi / rho and

        theta_k = phi_k + ((1/4 - alpha^2) cot(phi_k / 2)
                           - (1/4 - beta^2) tan(phi_k / 2)) / rho^2.

    It is exact at alpha = beta = -1/2 (Chebyshev).  In the box the
    verify samplers draw from it starts within 3e-5 of the complex
    nodes at n = 64 and 1e-5 at n = 128, and the Aberth loop settles
    in 2 or 3 steps; it is rougher at large exponents, where the loop
    takes more.  For real exponents above -1, phi_k / 2 lies inside
    (0, pi/2), clear of the poles of cot and tan.
    """
    rho = 2 * n + alpha + beta + 1.0
    phi = (2.0 * np.arange(1, n + 1) + alpha - 0.5) * (math.pi / rho)
    half = np.tan(phi / 2.0)
    return np.cos(phi + ((0.25 - alpha**2) / half - (0.25 - beta**2) * half) / rho**2)


def _jacobi_stack(n: int, t_exp, one_minus_t_exp):
    """The validated exponents and the n x n Jacobi matrices of the
    weights t^B (1-t)^A on [0, 1], from two numbers or two equal-length
    sequences of R exponents B = t_exp and A = one_minus_t_exp (real
    part > -1).

    Returns (betas, alphas, mass, diag, off): the exponents as (R, 1)
    complex columns, the (R, 1) masses B(A+1, B+1) and the (R, n)
    diagonals and (R, n - 1) squared off-diagonals of the matrices J on
    [-1, 1] (``_jacobi_coefficients``).  ``jacobi_rule_01`` solves them
    for nodes; ``_component_matrices`` keeps them as matrices.
    """
    shape = np.shape(t_exp)
    if np.shape(one_minus_t_exp) != shape or len(shape) > 1 or 0 in shape:
        raise ValueError(
            "t_exp and one_minus_t_exp must be two numbers or two nonempty"
            f" sequences of equal length, got shapes {shape} and {np.shape(one_minus_t_exp)}"
        )
    betas = [complex(b) for b in np.ravel(t_exp)]
    alphas = [complex(a) for a in np.ravel(one_minus_t_exp)]
    for r, (beta, alpha) in enumerate(zip(betas, alphas)):
        if alpha.real <= -1.0 or beta.real <= -1.0:
            raise PreconditionError(
                f"weight exponents must have real part > -1, got t_exp {beta}"
                f" and one_minus_t_exp {alpha} in rule {r}"
            )
    # the weight's mass on [0, 1], B(A+1, B+1): Golub-Welsch's mu0 on
    # [-1, 1] times the 2^-(A+B+1) of the map t = (1+x)/2
    mass = np.array([
        [complex_gamma(a + 1.0) * complex_gamma(b + 1.0) / complex_gamma(a + b + 2.0)]
        for b, a in zip(betas, alphas)
    ])
    betas, alphas = np.array(betas)[:, None], np.array(alphas)[:, None]
    return betas, alphas, mass, *_jacobi_coefficients(n, alphas, betas)


def jacobi_rule_01(n: int, t_exp, one_minus_t_exp):
    """Nodes and weights for integral_0^1 t^B (1-t)^A g(t) dt.

    B = t_exp and A = one_minus_t_exp may be complex with real part
    > -1.  Given two numbers, returns complex nodes (near [0,1]) and
    weights as (n,) arrays.  Given two equal-length sequences of R
    exponents, returns (R, n) arrays, row r the rule for (B[r], A[r]):
    the R rules are built in one stacked pass (one asymptotic start,
    one Aberth loop whose recurrences run on the rows still moving, one
    weight pass), and each row is bit for bit the rule built alone.
    """
    betas, alphas, mass, diag, off = _jacobi_stack(n, t_exp, one_minus_t_exp)
    count = len(betas)
    sb = np.sqrt(off)
    x = _asymptotic_nodes(n, alphas, betas)
    # Aberth-Ehrlich steps from the asymptotic start on all nodes of the
    # rows still moving.  The repulsion sum keeps two nodes from settling
    # on the same root.
    moving = np.arange(count)
    last = np.full(count, math.inf)
    for _ in range(MAX_ABERTH_STEPS):
        xm = x[moving]
        ratio = _newton_ratio(xm, diag[moving], sb[moving])
        corr = ratio / (1.0 - ratio * _repulsion(xm))
        x[moving] = xm - corr
        size = np.max(np.abs(corr), axis=1)
        # Near large imaginary exponents the corrections level off at a
        # floor set by conditioning; a row stops there once they stop halving.
        floor = (size <= ABERTH_FLOOR_START) & (size > last[moving] / 2.0)
        settled = (size <= ABERTH_TOL) | floor
        last[moving] = size
        moving = moving[~settled]
        if not len(moving):
            break
    else:
        raise NoConvergenceError(
            f"Gauss rule nodes did not settle in {MAX_ABERTH_STEPS} Aberth steps: "
            + "; ".join(
                f"t_exp {complex(betas[r, 0])}, one_minus_t_exp {complex(alphas[r, 0])}"
                f" (last correction {last[r]:.3e})"
                for r in moving
            )
        )
    x = np.sort_complex(x)
    t = (1.0 + x) / 2.0
    weights = mass / _eigenvector_norm(x, diag, sb)
    if not np.ndim(t_exp):
        return t[0], weights[0]
    return t, weights


@functools.lru_cache(maxsize=16)
def _laguerre_rule(n: int):
    """Gauss-Laguerre nodes and weights for integral_0^inf e^(-t) g(t) dt,
    built once per n and read-only.

    The Jacobi matrix has diagonal 2k+1 and off-diagonal k, and mu0 = 1.
    Its eigenvalues (eigvalsh) get one Newton step p_n / p_n' from the
    orthonormal recurrence; the weights are 1 / sum_j q_j(t)^2 at the
    polished nodes.
    """
    k = np.arange(n, dtype=np.float64)
    diag = 2.0 * k + 1.0
    sb = k[1:]
    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(sb, -1))
    # From about n = 190 on, the norm at the largest nodes passes the float
    # range; their weights are then below it and come out as 0.  From about
    # n = 400 on, q_n and q_n' overflow there too, and those nodes keep
    # their eigvalsh value instead of taking the inf/inf step.
    with np.errstate(over="ignore", invalid="ignore"):
        step = _newton_ratio(t, diag, sb)
        t = np.where(np.isfinite(step), t - step, t)
        norm = _eigenvector_norm(t, diag, sb)
        # an overflowed q_j makes the norm inf, or nan once inf - inf occurs
        w = np.where(np.isnan(norm), 0.0, 1.0 / norm)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _positive_components(value: BiComplex, name: str):
    value = BiComplex.coerce(value)
    for s, comp in components(value):
        if not cmath.isfinite(comp):
            raise InvalidParamsError(f"{name} must be finite, got {comp} in component {s}")
        if comp.real <= 0.0:
            raise PreconditionError(
                f"{name} must have positive real part in both idempotent"
                f" components, got {comp} in component {s}"
            )


def _require_ball(z: BiComplex):
    z = BiComplex.coerce(z)
    for s, comp in components(z):
        if abs(comp) >= 1.0:
            raise DomainError(f"argument component {s} has modulus {abs(comp)} >= 1")


def _node_moments(weights, bases):
    """The moments sum_i w_i b_i^k, k = 0, 1, ..., of one node rule,
    each from the last by one product with the bases."""
    state = np.array(weights, dtype=np.complex128)
    while True:
        yield state.sum()
        state *= bases


def _matrix_moments(mass, diag, off):
    """The moments prod_r mass_r (B_r^k)_00, k = 0, 1, ..., of a stack of
    R symmetric tridiagonal n x n matrices B_r, given by their (R, 1)
    masses, (R, n) diagonals and (R, n - 1) entries `off`, 4 times B_r's
    squared off-diagonal: J's squared off-diagonal for B = (I +- J) / 2.

    mass (B^k)_00 is the n-node Gauss rule's moment sum_i w_i b_i^k for
    every k, B the rule's Jacobi matrix in the bases b (Golub and
    Welsch), and the product over the stack is the moment of the
    tensor-product rule.  Each moment takes one tridiagonal product of
    the state mass e_0 with D^-1 B D, for the diagonal D with D_00 = 1
    that puts 1/4 below the diagonal and `off` above it, so no square
    root or sign is taken.
    """
    # the state between two zero columns: the product's three diagonals
    # meet three fixed views of it
    state = np.zeros((len(diag), diag.shape[1] + 2), dtype=np.complex128)
    entries, after, before = state[:, 1:-1], state[:, 2:], state[:, :-2]
    entries[:, :1] = mass
    upper = np.zeros_like(entries)
    upper[:, :-1] = off
    while True:
        yield math.prod(state[:, 1])
        product = diag * entries
        product += upper * after
        product += 0.25 * before
        entries[...] = product


def _inner_values(a, b, z, moments):
    """The component series summed termwise over a rule's moments M_k,
    sum_k c_k z^k M_k: the rule sum of F(z b) over its nodes b, taken
    term by term (``_node_moments`` or ``_matrix_moments``).

    One ``hyper.component_series`` call at the package's stop rule and
    term cap, so the sum is gated, terminated and checked as every
    component sum is; the benchmark traces the rule sums by this name.
    The gate reads |z|: the bases are the nodes of Gauss rules on
    [0, 1], of modulus at most 1 on the real path (0.99997 at most over
    seeded rules from the verify samplers' box of complex exponents;
    1.0003 at imaginary parts near 3), or the Laplace bases scaled into
    (0, 1].
    """
    return hyper.component_series(a, b, z, DEFAULT_TOL, DEFAULT_CAP, moments)[0]


class _PerComponent(NamedTuple):
    """One value per idempotent component, split by ``components`` as a
    bicomplex number is."""

    idem1: object
    idem2: object


def _component_matrices(nodes: int, exponents, sign: float) -> _PerComponent:
    """The Jacobi matrices of every Gauss rule of both idempotent
    components, from one stacked ``_jacobi_stack`` call, as each
    component's (mass, diag, off) slices for ``_matrix_moments``.

    `exponents` holds, per component, the list of its rules'
    (t_exp, one_minus_t_exp) pairs.  Each rule of weight
    t^B (1-t)^A becomes the n x n matrix B = (I + sign J) / 2 of its
    bases t (sign 1) or 1 - t (sign -1), J its Jacobi matrix on
    [-1, 1]: its diagonal (1 + sign diag J) / 2, and J's squared
    off-diagonal, whichever the sign, 4 times B's.
    """
    one, two = exponents
    _, _, mass, diag, off = _jacobi_stack(nodes, *zip(*one, *two))
    stack, split = (mass, (1.0 + sign * diag) / 2.0, off), len(one)
    return _PerComponent(tuple(x[:split] for x in stack), tuple(x[split:] for x in stack))


def _euler_comp(a, b, z, matrices):
    """Component worker: (beta-kernel quadrature, series) at z."""
    integral = _inner_values(a[1:], b[1:], z, _matrix_moments(*matrices))
    pre = complex_gamma(b[0]) / (complex_gamma(a[0]) * complex_gamma(b[0] - a[0]))
    return complex(pre * integral), hyper.component_series(a, b, z)[0]


def euler_integral(
    params: PfqParams,
    z: BiComplex,
    curve: ProductCurve | None = None,
    tol: float = 1e-7,
) -> IdentityReport:
    """Beta-kernel representation against the series, componentwise.

    Needs p >= 1, q >= 1, hyperbolic positivity of alpha_1 and of
    beta_1 - alpha_1 (positive real part in both idempotent
    components), and the argument inside the unit ball.
    """
    if curve is None:
        curve = ProductCurve(CurveKind.UNIT_INTERVAL)
    if curve.kind is not CurveKind.UNIT_INTERVAL:
        raise PreconditionError("beta-kernel representation integrates over [0,1]")
    if params.p < 1 or params.q < 1:
        raise PreconditionError("representation needs at least one alpha and one beta")
    a1 = params.alphas[0]
    b1 = params.betas[0]
    _positive_components(a1, "alpha[0]")
    _positive_components(b1 - a1, "beta[0] - alpha[0]")
    z = BiComplex.coerce(z)
    _require_ball(z)
    matrices = _component_matrices(
        curve.nodes, [[(a - 1.0, b - a - 1.0)] for _, a, b in components(a1, b1)], 1.0
    )
    return make_report(per_component(_euler_comp, params, z, matrices), tol)


def _laplace_comp(a, b, z, v, rule):
    """Component worker: (exponential-kernel quadrature, series) at z.

    The half line is split at t = 1.  On [0, 1] the complex-exponent
    endpoint is part of the weight of the rule (t1, w1), which leaves
    e^(-t1) in the integrand.  On [1, inf) plain Gauss-Laguerre after
    t = 1 + u takes the nodes with |z| t <= 700, where F(z t) and the
    factors c_k (z s)^k of the scaled sum stay below about e^700; its
    weights e^(-1) wl t^(v-1) carry the shift.  The two rules are one
    node row at the argument z s, over the bases t / s in (0, 1] with
    s the largest kept tail node, so one rule sum covers the half line.
    """
    t1, w1 = rule
    u, wl = _laguerre_rule(len(t1))
    keep = abs(z) * (1.0 + u) <= 700.0
    t, wl = 1.0 + u[keep], wl[keep]
    s = t.max()
    weights = np.concatenate((w1 * np.exp(-t1), math.exp(-1.0) * wl * t ** (v - 1.0)))
    bases = np.concatenate((t1, t)) / s
    lhs = complex(_inner_values(a, b, z * s, _node_moments(weights, bases)) / complex_gamma(v))
    return lhs, hyper.component_series([v] + a, b, z)[0]


def laplace_integral(
    v,
    params: PfqParams,
    z: BiComplex,
    curve: ProductCurve | None = None,
    tol: float = 1e-7,
) -> IdentityReport:
    """Exponential-kernel half-line representation against the series
    with v prepended to the numerator parameters.

    Needs p <= q for the inner function and positive real part of both
    idempotent components of v.
    """
    if curve is None:
        curve = ProductCurve(CurveKind.HALF_LINE)
    if curve.kind is not CurveKind.HALF_LINE:
        raise PreconditionError("exponential-kernel representation integrates over [0,inf)")
    if params.p > params.q:
        raise PreconditionError("inner function must have p <= q")
    v = BiComplex.coerce(v)
    _positive_components(v, "v")
    z = BiComplex.coerce(z)
    _require_ball(z)
    # both components' [0, 1] rules, weights t^(v - 1), in one stacked call
    t, w = jacobi_rule_01(curve.nodes, (v.idem1 - 1.0, v.idem2 - 1.0), (0.0, 0.0))
    rules = _PerComponent((t[0], w[0]), (t[1], w[1]))
    return make_report(per_component(_laplace_comp, params, z, v, rules), tol)


def _double_comp(a, b, z, m, n, matrices):
    """Component worker: (unit-square quadrature, series) at z.

    The tensor rule's sum over the node grid, sum_ij wu_i wv_j
    F(z (1-tu_i) (1-tv_j)), is taken termwise as sum_k c_k z^k U_k V_k
    over the two rules' moments (``_inner_values`` on the two matrices
    of bases 1 - t): O(nK) work for K terms where the grid takes
    O(n^2 K).
    """
    lhs = _inner_values(a, b, z, _matrix_moments(*matrices))
    pre = complex_gamma(m) * complex_gamma(n) / complex_gamma(m + n + 1.0)
    series = hyper.component_series(a + [1.0 + 0j], b + [m + n + 1.0], z)[0]
    return complex(lhs), complex(pre * series)


def double_integral(
    m,
    n,
    params: PfqParams,
    z: BiComplex,
    curve: ProductCurve | None = None,
    tol: float = 1e-6,
) -> IdentityReport:
    """Tensor-product representation over the unit square against the
    series with 1 appended to the alphas and m+n+1 to the betas.

    Needs positive real part of both idempotent components of m and n.
    """
    if curve is None:
        curve = ProductCurve(CurveKind.UNIT_INTERVAL)
    if curve.kind is not CurveKind.UNIT_INTERVAL:
        raise PreconditionError("double representation integrates over [0,1]^2")
    m = BiComplex.coerce(m)
    n = BiComplex.coerce(n)
    _positive_components(m, "m")
    _positive_components(n, "n")
    z = BiComplex.coerce(z)
    _require_ball(z)
    # weights u^(m-1) (1-u)^n and v^(n-1), over the bases 1 - u and 1 - v
    matrices = _component_matrices(
        curve.nodes, [[(mc - 1.0, nc), (nc - 1.0, 0.0)] for _, mc, nc in components(m, n)], -1.0
    )
    return make_report(per_component(_double_comp, params, z, m, n, matrices), tol)
