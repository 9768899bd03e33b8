"""Seeded case streams for the three benchmark workloads.

Every input is drawn here from ``numpy.random.default_rng(seed)``; the
library only ever sees the drawn values.  Cases follow the matching
``bchyper verify`` suite: the same shapes, parameter boxes, |z| radii,
node counts and tolerances.  Two things differ on purpose, both to
make a run's mix independent of the seed:

* suites are interleaved in the proportions ``verify all`` uses
  (a smooth weighted round robin), instead of one suite after another;
* where a suite draws a shape from a list, the stream cycles through
  the list (one cycle per suite), so shapes come in equal numbers.

A ``Case`` carries a ``run`` callable, which is the timed part and
looks up every library function at call time (so the tracer's
wrappers see the calls), and a ``check`` callable, which runs outside
the timed region and returns ``None`` for a correct output or a short
reason otherwise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import cycle
from typing import Callable, Iterator

import numpy as np

from bchyper import coherent, hyper, identities, quad
from bchyper.errors import BCHyperError
from bchyper.hyper import ConvergenceKind, PfqParams
from bchyper.identities import ShiftM
from bchyper.numbers import BiComplex

import reference

MAX_ATTEMPTS = 100


@dataclass
class Case:
    suite: str
    inputs: tuple
    run: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# Samplers, with the boxes of bchyper.verify.
# ---------------------------------------------------------------------------


def _c(rng, re_lo, re_hi, im_lo, im_hi) -> complex:
    return complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))


def _bc_idem(rng, re=(0.3, 2.2), im=(-0.35, 0.35)) -> BiComplex:
    return BiComplex.from_idempotent(
        _c(rng, re[0], re[1], im[0], im[1]), _c(rng, re[0], re[1], im[0], im[1])
    )


def _polar(rng, rmin, rmax) -> complex:
    r = rng.uniform(rmin, rmax)
    return r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _ball_z(rng, rmin=0.05, rmax=0.75) -> BiComplex:
    return BiComplex.from_idempotent(_polar(rng, rmin, rmax), _polar(rng, rmin, rmax))


def _positive_bc(rng, lo=0.3, hi=2.0, im=0.4) -> BiComplex:
    return BiComplex.from_idempotent(
        complex(rng.uniform(lo, hi), rng.uniform(-im, im)),
        complex(rng.uniform(lo, hi), rng.uniform(-im, im)),
    )


def _retry(draw):
    """First non-None result of draw(), which returns None to reject."""
    for _ in range(MAX_ATTEMPTS):
        out = draw()
        if out is not None:
            return out
    raise RuntimeError("input sampling was rejected repeatedly")


def _params(rng, p, q, re=(0.3, 2.2), re_betas=None) -> PfqParams:
    def draw():
        try:
            return PfqParams(
                [_bc_idem(rng, re) for _ in range(p)],
                [_bc_idem(rng, re_betas or re) for _ in range(q)],
            )
        except BCHyperError:
            return None

    return _retry(draw)


def _residual(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _report_check(tol, extra=None):
    """Check of an IdentityReport: both componentwise residuals, recomputed
    here from the two sides, within the suite tolerance."""

    def check(rep):
        r1 = _residual(rep.lhs.idem1, rep.rhs.idem1)
        r2 = _residual(rep.lhs.idem2, rep.rhs.idem2)
        if not (r1 <= tol and r2 <= tol):
            return f"residuals ({r1:.3e}, {r2:.3e}) exceed {tol:.1e}"
        return extra(rep) if extra is not None else None

    return check


_ALL_SHAPES = [(p, q) for p in range(4) for q in range(4)]


def _schedule(weights):
    """Smooth weighted round robin: one period holding each key `weight`
    times, spread as evenly as the weights allow."""
    keys = list(weights)
    total = sum(weights.values())
    current = {k: 0 for k in keys}
    out = []
    for _ in range(total):
        for k in keys:
            current[k] += weights[k]
        best = max(keys, key=lambda k: current[k])
        current[best] -= total
        out.append(best)
    return out


# ---------------------------------------------------------------------------
# quadrature: thm3.1 / thm3.5 / thm3.8, one third each.
# ---------------------------------------------------------------------------


def _euler_case(rng, shapes):
    p, q = next(shapes)

    def draw():
        a1 = _positive_bc(rng, 0.3, 2.0)
        b1 = a1 + _positive_bc(rng, 0.3, 1.5)
        rest_a = [_bc_idem(rng) for _ in range(p - 1)]
        rest_b = [_bc_idem(rng) for _ in range(q - 1)]
        try:
            return PfqParams([a1] + rest_a, [b1] + rest_b)
        except BCHyperError:
            return None

    params = _retry(draw)
    z = _ball_z(rng, rmax=0.8)
    curve = quad.ProductCurve(quad.CurveKind.UNIT_INTERVAL, 64)
    tol = 1e-7

    def rhs_check(rep):
        return reference.check_bicomplex(
            rep.rhs, [(params.comp_alphas(s), params.comp_betas(s), 1.0) for s in (1, 2)], z
        )

    return Case(
        "thm3.1", (params, z, curve, tol),
        lambda: quad.euler_integral(params, z, curve, tol),
        _report_check(tol, rhs_check),
    )


def _laplace_case(rng, shapes):
    p, q = next(shapes)
    params = _params(rng, p, q)
    v = _positive_bc(rng, 0.3, 2.5)
    z = _ball_z(rng, rmax=0.75)
    curve = quad.ProductCurve(quad.CurveKind.HALF_LINE, 64)
    tol = 1e-7

    def rhs_check(rep):
        specs = []
        for s, vc in ((1, v.idem1), (2, v.idem2)):
            specs.append((np.concatenate(([vc], params.comp_alphas(s))), params.comp_betas(s), 1.0))
        return reference.check_bicomplex(rep.rhs, specs, z)

    return Case(
        "thm3.5", (v, params, z, curve, tol),
        lambda: quad.laplace_integral(v, params, z, curve, tol),
        _report_check(tol, rhs_check),
    )


def _double_case(rng, shapes):
    p, q = next(shapes)
    params = _params(rng, p, q)
    m = _positive_bc(rng, 0.4, 2.2, im=0.3)
    n = _positive_bc(rng, 0.4, 2.2, im=0.3)
    z = _ball_z(rng, rmax=0.75)
    curve = quad.ProductCurve(quad.CurveKind.UNIT_INTERVAL, 128)
    tol = 1e-6

    def rhs_check(rep):
        specs = []
        for s, mc, nc in ((1, m.idem1, n.idem1), (2, m.idem2, n.idem2)):
            specs.append((
                np.concatenate((params.comp_alphas(s), [1.0 + 0j])),
                np.concatenate((params.comp_betas(s), [mc + nc + 1.0])),
                reference.gamma_ratio([mc, nc], [mc + nc + 1.0]),
            ))
        return reference.check_bicomplex(rep.rhs, specs, z)

    return Case(
        "thm3.8", (m, n, params, z, curve, tol),
        lambda: quad.double_integral(m, n, params, z, curve, tol),
        _report_check(tol, rhs_check),
    )


def quadrature_cases(seed: int) -> Iterator[Case]:
    rng = np.random.default_rng(seed)
    makers = [
        (_euler_case, cycle([(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])),
        (_laplace_case, cycle([(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])),
        (_double_case, cycle([(0, 0), (1, 1), (2, 1), (1, 2)])),
    ]
    while True:
        for make, shapes in makers:
            yield make(rng, shapes)


# ---------------------------------------------------------------------------
# identities: the series relations of verify all, in its proportions.
# ---------------------------------------------------------------------------


def _oracle_case(rng, shapes):
    p, q = next(shapes)
    params = _params(rng, p, q)
    if p > q + 1:
        z = BiComplex(0.0)
    elif p == q + 1:
        z = _ball_z(rng, rmax=0.75)
    else:
        z = _ball_z(rng, rmax=2.0)
    tol = 1e-12

    def run():
        v1, v2 = hyper.pfq_components(params, z)
        o1 = hyper.oracle_pfq_complex(params.comp_alphas(1), params.comp_betas(1), z.idem1)
        o2 = hyper.oracle_pfq_complex(params.comp_alphas(2), params.comp_betas(2), z.idem2)
        return v1, v2, o1, o2

    def check(out):
        v1, v2, o1, o2 = out
        r1, r2 = _residual(v1, o1), _residual(v2, o2)
        if not (r1 <= tol and r2 <= tol):
            return f"oracle residuals ({r1:.3e}, {r2:.3e}) exceed {tol:.1e}"
        return None

    return Case("thm2.1", (params, z), run, check)


def _classify_case(rng, shapes):
    p, q = next(shapes)
    params = _params(rng, p, q)

    def check(cls):
        if p <= q:
            return None if cls.kind is ConvergenceKind.ENTIRE else f"kind {cls.kind}"
        if p > q + 1:
            return None if cls.kind is ConvergenceKind.DIVERGENT else f"kind {cls.kind}"
        if cls.kind not in (ConvergenceKind.UNIT_BALL, ConvergenceKind.UNIT_BALL_BOUNDARY):
            return f"kind {cls.kind}"
        if cls.margin is not None:
            # the cartesian margin must agree with the idempotent exponents
            if abs(cls.margin - min(cls.eta1, cls.eta2)) > 1e-9 * max(1.0, abs(cls.margin)):
                return f"margin {cls.margin} against exponents ({cls.eta1}, {cls.eta2})"
        return None

    return Case("thm2.2", (params,), lambda: hyper.classify(params), check)


def _boundary_case(rng, eta_lo, eta_hi):
    """Ball-class parameters with both boundary exponents in [eta_lo, eta_hi]
    and a point on the unit torus."""
    threshold = 1e-8
    q = int(rng.integers(1, 3))
    p = q + 1

    def draw():
        alphas = [_bc_idem(rng, re=(0.25, 1.3), im=(-0.25, 0.25)) for _ in range(p)]
        betas = [_bc_idem(rng, re=(0.4, 1.6), im=(-0.25, 0.25)) for _ in range(q - 1)]
        comps = []
        for attr in ("idem1", "idem2"):
            target = rng.uniform(eta_lo, eta_hi)
            re_needed = (
                target
                + sum(getattr(a, attr).real for a in alphas)
                - sum(getattr(b, attr).real for b in betas)
            )
            comps.append(complex(re_needed, rng.uniform(-0.25, 0.25)))
        betas.append(BiComplex.from_idempotent(comps[0], comps[1]))
        try:
            params = PfqParams(alphas, betas)
        except BCHyperError:
            return None
        z = BiComplex.from_idempotent(
            cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
            cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
        )
        return params, z

    params, z = _retry(draw)
    converges = eta_lo > 0

    def check(out):
        (d1, _, f1), (d2, _, f2) = out
        cauchy = f1 and f2 and d1 < threshold and d2 < threshold
        if cauchy != converges:
            return f"boundary deltas ({d1:.3e}, {d2:.3e}), finite ({f1}, {f2})"
        return None

    return Case("thm2.2", (params, z), lambda: hyper.boundary_probe(params, z, cap=20000), check)


def _transform_case(rng, shapes, suite, name):
    p, q = next(shapes)
    params = _params(rng, p, q)
    z = _ball_z(rng, rmax=0.7)
    tol = 1e-9
    return Case(
        suite, (params, z, tol),
        lambda: getattr(identities, name)(params, z, tol),
        _report_check(tol),
    )


def _saalschutz_case(rng, degrees):
    n = next(degrees)
    box = dict(re=(0.2, 2.4), im=(-0.5, 0.5))
    a1, a2, b = (_bc_idem(rng, **box) for _ in range(3))
    tol = 1e-9
    return Case(
        "thm4.3", (n, a1, a2, b, tol),
        lambda: identities.saalschutz(n, a1, a2, b, tol),
        _report_check(tol),
    )


def _derivative_case(rng, shapes):
    p, q = next(shapes)
    k = int(rng.integers(0, 4))
    params = _params(rng, p, q)
    z = _ball_z(rng, rmax=0.7)
    tol = 1e-9
    return Case(
        "thm5.1", (params, z, k, tol),
        lambda: identities.derivative_relation(params, z, k, tol),
        _report_check(tol),
    )


_CR_STEPS = (1e-3, 1e-4, 1e-5)


def _cauchy_riemann_case(rng, targets):
    """Log-log slope of the Cauchy-Riemann residual over three steps.

    As in the verify suite, a draw whose residual at the largest step
    is below 5e-6 is rejected: its h^2 signal would sit under the
    rounding floor.  That rejection calls the library once, outside
    the timed region.

    The check asks the h^2 law of one of the two step pairs, within the
    suite's slope band.  The suite's fit over all three steps misses the
    band on about 1 draw in 750 of correct code: the float64 rounding
    floor reaches the residual at h = 1e-5, or h = 1e-3 is not yet in
    the h^2 regime.  Either leaves the other pair on the h^2 law, while
    a residual that does not vanish like h^2 fails both pairs.
    """
    wrt = next(targets)
    min_signal = 5e-6
    band = (1.8, 2.2)

    def draw():
        p, q = [(1, 1), (2, 1)][int(rng.integers(2))]
        alphas = [_bc_idem(rng, re=(0.8, 2.2)) for _ in range(p)]
        b0 = BiComplex.from_idempotent(
            complex(rng.uniform(0.15, 0.45), rng.uniform(-0.05, 0.05)),
            complex(rng.uniform(0.15, 0.45), rng.uniform(-0.05, 0.05)),
        )
        try:
            params = PfqParams(alphas, [b0])
        except BCHyperError:
            return None
        z = _ball_z(rng, rmin=0.5, rmax=0.75)
        first = identities.cauchy_riemann_check(params, z, _CR_STEPS[0], wrt=wrt)
        if first.residual.max_comp() < min_signal:
            return None
        return params, z

    params, z = _retry(draw)

    def run():
        return [identities.cauchy_riemann_check(params, z, h, wrt=wrt) for h in _CR_STEPS]

    def check(reports):
        logs = np.log10([rep.residual.max_comp() for rep in reports])
        slopes = -np.diff(logs) / -np.diff(np.log10(_CR_STEPS))
        if not any(band[0] <= slope <= band[1] for slope in slopes):
            return f"step-pair slopes {np.round(slopes, 3).tolist()} outside {band}"
        return None

    return Case("thm5.2", (params, z, wrt), run, check)


def _contiguous_case(rng, shapes, suite, name, beta_offset=0.0):
    p, q = next(shapes)
    shift = ShiftM(int(rng.integers(0, 4)), int(rng.integers(0, 4)))
    lo = 0.4 + beta_offset
    params = _params(rng, p, q, re_betas=(lo, lo + 2.2))
    z = _ball_z(rng, rmax=0.6)
    tol = 1e-9
    return Case(
        suite, (params, z, shift, tol),
        lambda: getattr(identities, name)(params, z, shift, tol),
        _report_check(tol),
    )


def _recurrence_case(rng, shapes):
    p, q = next(shapes)
    params = _params(rng, p, q)
    max_ulps = 2.0

    def check(ulps):
        return None if ulps <= max_ulps else f"{ulps} ulps > {max_ulps}"

    return Case(
        "thm7.1", (params, 200),
        lambda: identities.coefficient_recurrence_ulps(params, 200),
        check,
    )


def _operator_case(rng, orders):
    p = next(orders)
    q = int(rng.integers(max(0, p - 1), 4))  # p <= q+1, so the series evaluates
    params = _params(rng, p, q)
    z = _ball_z(rng, rmax=0.5)

    def check(out):
        resid, bound = out
        for r, b in ((resid.comp1, bound.comp1), (resid.comp2, bound.comp2)):
            if r > max(b * (1.0 + 1e-6), 1e-10):
                return f"operator residual {r:.3e} above bound {b:.3e}"
        return None

    return Case(
        "thm7.1", (params, z, 60),
        lambda: identities.ode_residual_with_bound(params, z, 60),
        check,
    )


def _coherent_case(rng, shapes):
    p, q = next(shapes)
    real = lambda: BiComplex.from_idempotent(rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5))
    params = PfqParams([real() for _ in range(p)], [real() for _ in range(q)])
    z = _ball_z(rng, rmin=0.1, rmax=0.8)

    def run():
        spec = coherent.CoherentSpec(params, z)
        return coherent.build_tables(spec), coherent.annihilate(spec), coherent.inner_product(spec, spec)

    def check(out):
        tables, rep, overlap = out
        worst = reference.rho_recurrence_ulps(tables)
        if worst > 2.0:
            return f"rho recurrence off by {worst} ulps"
        if not (rep.residual.comp1 <= rep.tolerance and rep.residual.comp2 <= rep.tolerance):
            return f"eigenstate misfit {rep.residual} above {rep.tolerance:.3e}"
        r1, r2 = abs(overlap.idem1 - 1.0), abs(overlap.idem2 - 1.0)
        if not (r1 <= 1e-12 and r2 <= 1e-12):
            return f"norm off by ({r1:.3e}, {r2:.3e})"
        return None

    return Case("cs-eigen", (params, z), run, check)


_TRANSFORM_SHAPES = [(0, 0), (1, 1), (2, 1), (1, 2)]
_CONTIGUOUS_SHAPES = [(1, 1), (2, 1), (2, 2), (3, 2)]

# Case counts of `bchyper verify all` at its defaults, divided by ten.
IDENTITY_WEIGHTS = {
    "thm2.1": 100,
    "thm2.2-classify": 20,
    "thm2.2-boundary+": 5,
    "thm2.2-boundary-": 5,
    "thm4.1": 50,
    "thm4.2": 50,
    "thm4.3": 50,
    "thm5.1": 50,
    "thm5.2": 4,
    "thm6.1": 50,
    "thm6.2": 50,
    "thm6.3": 50,
    "thm6.4": 50,
    "thm7.1-recurrence": 10,
    "thm7.1-operator": 2,
    "cs-eigen": 10,
}


def identities_cases(seed: int) -> Iterator[Case]:
    rng = np.random.default_rng(seed)
    oracle, classify, recurrence = cycle(_ALL_SHAPES), cycle(_ALL_SHAPES), cycle(_ALL_SHAPES)
    even, odd = cycle(_TRANSFORM_SHAPES), cycle(_TRANSFORM_SHAPES)
    contiguous = [cycle(_CONTIGUOUS_SHAPES) for _ in range(4)]
    derivative = cycle([(0, 0), (1, 1), (2, 1), (1, 2), (2, 2)])
    coherent_shapes = cycle([(0, 0), (1, 1), (0, 1), (2, 1), (1, 2)])
    degrees, operator, cr_targets = cycle(range(7)), cycle(range(3)), cycle(["z", "beta"])
    makers = {
        "thm2.1": lambda: _oracle_case(rng, oracle),
        "thm2.2-classify": lambda: _classify_case(rng, classify),
        "thm2.2-boundary+": lambda: _boundary_case(rng, 2.0, 4.0),
        "thm2.2-boundary-": lambda: _boundary_case(rng, -2.5, -0.3),
        "thm4.1": lambda: _transform_case(rng, even, "thm4.1", "quad_even"),
        "thm4.2": lambda: _transform_case(rng, odd, "thm4.2", "quad_odd"),
        "thm4.3": lambda: _saalschutz_case(rng, degrees),
        "thm5.1": lambda: _derivative_case(rng, derivative),
        "thm5.2": lambda: _cauchy_riemann_case(rng, cr_targets),
        "thm6.1": lambda: _contiguous_case(rng, contiguous[0], "thm6.1", "contiguous_alpha_plus"),
        "thm6.2": lambda: _contiguous_case(rng, contiguous[1], "thm6.2", "contiguous_alpha_minus"),
        # beta1 - M must stay a valid denominator parameter for shifts <= 3
        "thm6.3": lambda: _contiguous_case(rng, contiguous[2], "thm6.3", "contiguous_beta_minus", 3.1),
        "thm6.4": lambda: _contiguous_case(rng, contiguous[3], "thm6.4", "contiguous_beta_plus"),
        "thm7.1-recurrence": lambda: _recurrence_case(rng, recurrence),
        "thm7.1-operator": lambda: _operator_case(rng, operator),
        "cs-eigen": lambda: _coherent_case(rng, coherent_shapes),
    }
    period = _schedule(IDENTITY_WEIGHTS)
    while True:
        for key in period:
            yield makers[key]()


# ---------------------------------------------------------------------------
# eval-long: single pfq evaluations with long series.
# ---------------------------------------------------------------------------

BALL_RADII = (0.9, 0.985)
ENTIRE_RADII = (2.0, 6.0)


def _eval_case(rng, shapes, radii, suite):
    p, q = next(shapes)
    params = _params(rng, p, q)
    z = BiComplex.from_idempotent(_polar(rng, *radii), _polar(rng, *radii))

    def check(res):
        specs = [(params.comp_alphas(s), params.comp_betas(s), 1.0) for s in (1, 2)]
        return reference.check_bicomplex(res.value, specs, z)

    return Case(suite, (params, z), lambda: hyper.pfq(params, z), check)


def eval_long_cases(seed: int) -> Iterator[Case]:
    """Two entire-class points at large |z| for each ball-class point near
    the unit circle.  The ball class runs the long series and holds most
    of the time and the p95 case; with the entire class in the majority,
    the median case lies inside one class instead of in the gap between
    the two classes' latencies."""
    rng = np.random.default_rng(seed)
    ball = cycle([(1, 0), (2, 1), (3, 2)])
    entire = cycle([(p, q) for p in range(4) for q in range(4) if p <= q])
    while True:
        yield _eval_case(rng, entire, ENTIRE_RADII, "eval-entire")
        yield _eval_case(rng, ball, BALL_RADII, "eval-ball")
        yield _eval_case(rng, entire, ENTIRE_RADII, "eval-entire")


@dataclass(frozen=True)
class Workload:
    cases: Callable[[int], Iterator[Case]]
    # Untraced cases per second at the seed commit on 2 cores; sizes the
    # fixed case prefix of a traced run so that it takes about --seconds.
    rate_hint: float
    # Cases in one period of the stream; a traced run covers whole periods.
    period: int


WORKLOADS = {
    "quadrature": Workload(quadrature_cases, rate_hint=16.0, period=3),
    "identities": Workload(identities_cases, rate_hint=1200.0, period=sum(IDENTITY_WEIGHTS.values())),
    "eval-long": Workload(eval_long_cases, rate_hint=600.0, period=3),
}
