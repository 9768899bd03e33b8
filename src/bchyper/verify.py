"""Seeded verification suites behind `bchyper verify` and the acceptance tests.

Each suite is a declaration in SUITES: the theorem label of its rows,
its default sample count, and its phases.  A suite takes two settings,
`seed` and `samples`; each relation runs at its own default tolerance
and rule size, and every other setting is a fixed value below.
``run_suite`` is the one loop: it seeds one generator, runs the cases
of every phase in order and counts skips.  A case body draws an
admissible random case from that generator (rejection sampling, at
most 100 attempts per draw), runs one relation, and returns a row
{theorem, case, params, z, residual1, residual2, passed}, a list of
rows, or None when the draw was skipped.  The CLI emits the rows as
JSON or CSV.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import coherent, hyper, identities, kernels, quad
from .errors import BCHyperError
from .hyper import ConvergenceKind, PfqParams
from .identities import ShiftM
from .numbers import BiComplex, bc_pow, components, format_bicomplex

MAX_ATTEMPTS = 100
# The floors the relations do not default to: thm2.1's engine-oracle
# residual, the examples' closed-form residual, and thm3.8's Gauss
# nodes per axis (thm3.1 and thm3.5 run at quad.DEFAULT_NODES).
ORACLE_TOL = 1e-12
EXAMPLES_TOL = 1e-11
DOUBLE_NODES = 128
# region_scan's probe: REGION_CAP terms, Cauchy when the partial sums
# over the last 50 of them stay within REGION_THRESHOLD.
REGION_CAP = 2000
REGION_THRESHOLD = 1e-6
# thm2.2: boundary draws per side, and the Cauchy delta (over
# hyper.boundary_probe's default cap) that separates the two sides.
BOUNDARY_CASES = 50
BOUNDARY_THRESHOLD = 1e-8
# thm5.1: derivative orders 0 ..= DERIVATIVE_KMAX.
DERIVATIVE_KMAX = 3
# thm5.2: the finite-difference steps, the band the log-log slope of a
# step pair must fall in, and the smallest residual at the largest step.
CR_STEPS = (1e-3, 1e-4, 1e-5)
SLOPE_BAND = (1.8, 2.2)
CR_MIN_SIGNAL = 5e-6
# thm7.1: coefficients checked per draw, and their allowed ulp error.
RECURRENCE_COUNT = 200
RECURRENCE_MAX_ULPS = 2.0


@dataclass
class SuiteResult:
    theorem: str
    samples: int
    passed: int
    failed: int
    skipped: int
    max_residual: float
    rows: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.passed > 0


@dataclass(frozen=True)
class Suite:
    """A verify suite.  Each phase is a pair (cases, body): cases(samples)
    gives the phase's case arguments and body(rng, case) runs one."""

    theorem: str
    samples: int
    phases: tuple


def _params_str(params: PfqParams) -> str:
    a = ",".join(format_bicomplex(x) for x in params.alphas)
    b = ",".join(format_bicomplex(x) for x in params.betas)
    return f"[{a}];[{b}]"


def _row(case, params, z, r1, r2, passed, **extra):
    row = {
        "case": case,
        "params": _params_str(params) if isinstance(params, PfqParams) else str(params),
        "z": format_bicomplex(z),
        "residual1": float(r1),
        "residual2": float(r2),
        "passed": bool(passed),
    }
    row.update(extra)
    return row


def _report_row(case, params, z, rep, **extra):
    return _row(case, params, z, rep.residual.comp1, rep.residual.comp2, rep.passed, **extra)


def _finish(theorem, rows, skipped, seed) -> SuiteResult:
    for r in rows:
        r["theorem"] = theorem
        r["seed"] = seed
    passed = sum(1 for r in rows if r["passed"])
    return SuiteResult(
        theorem=theorem,
        samples=len(rows) + skipped,
        passed=passed,
        failed=len(rows) - passed,
        skipped=skipped,
        max_residual=max((max(r["residual1"], r["residual2"]) for r in rows), default=0.0),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Samplers.
# ---------------------------------------------------------------------------


def _c(rng, re_lo, re_hi, im_lo, im_hi) -> complex:
    return complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))


def _bc_idem(rng, re=(0.3, 2.2), im=(-0.35, 0.35)) -> BiComplex:
    return BiComplex.from_idempotent(
        _c(rng, re[0], re[1], im[0], im[1]), _c(rng, re[0], re[1], im[0], im[1])
    )


def _ball_z(rng, rmin=0.05, rmax=0.75) -> BiComplex:
    comps = []
    for _ in range(2):
        r = rng.uniform(rmin, rmax)
        th = rng.uniform(0.0, 2.0 * math.pi)
        comps.append(r * cmath.exp(1j * th))
    return BiComplex.from_idempotent(comps[0], comps[1])


def _real_bc(rng) -> BiComplex:
    return BiComplex.from_idempotent(rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5))


def _pick(rng, shapes):
    return shapes[int(rng.integers(len(shapes)))]


def _sample_params(rng, p, q) -> PfqParams:
    def draw():
        return PfqParams([_bc_idem(rng) for _ in range(p)], [_bc_idem(rng) for _ in range(q)])

    params = _attempts(draw)
    if params is None:
        raise RuntimeError("parameter sampling failed repeatedly")
    return params


def _attempts(fn):
    """Run fn() until it returns non-None, at most MAX_ATTEMPTS times; a
    draw that returns None or raises BCHyperError is a failed attempt."""
    for _ in range(MAX_ATTEMPTS):
        try:
            out = fn()
        except BCHyperError:
            continue
        if out is not None:
            return out
    return None


# ---------------------------------------------------------------------------
# Series equivalence and convergence.
# ---------------------------------------------------------------------------

_ALL_SHAPES = [(p, q) for p in range(4) for q in range(4)]


def _idempotent_case(rng, case):
    """Engine components against the independent classical oracle."""
    p, q = _pick(rng, _ALL_SHAPES)
    params = _sample_params(rng, p, q)
    if p > q + 1:
        z = BiComplex(0.0)
    elif p == q + 1:
        z = _ball_z(rng, rmax=0.75)
    else:
        z = _ball_z(rng, rmax=2.0)
    values = hyper.pfq_components(params, z)
    oracle = hyper.per_component(hyper.oracle_pfq_complex, params, z)
    r1, r2 = map(identities.relative_residual, values, oracle)
    return _row(case, params, z, r1, r2, r1 <= ORACLE_TOL and r2 <= ORACLE_TOL)


def _classify_case(rng, case):
    """Trichotomy by shape."""
    p = int(rng.integers(0, 4))
    q = int(rng.integers(0, 4))
    params = _sample_params(rng, p, q)
    cls = hyper.classify(params)
    if p <= q:
        good = cls.kind is ConvergenceKind.ENTIRE
    elif p == q + 1:
        good = cls.kind in (ConvergenceKind.UNIT_BALL, ConvergenceKind.UNIT_BALL_BOUNDARY)
        if good:
            # cartesian margin must agree with the idempotent exponents
            good = abs(cls.margin - min(cls.eta1, cls.eta2)) <= 1e-9 * max(
                1.0, abs(cls.margin)
            )
    else:
        good = cls.kind is ConvergenceKind.DIVERGENT
    return _row(case, params, BiComplex(0.0), 0.0, 0.0, good, kind=cls.kind.value)


def _boundary_case(rng, eta_lo, eta_hi):
    """Ball-class parameters with both boundary exponents in [eta_lo, eta_hi]."""
    q = int(rng.integers(1, 3))
    p = q + 1

    def draw():
        alphas = [_bc_idem(rng, re=(0.25, 1.3), im=(-0.25, 0.25)) for _ in range(p)]
        betas = [_bc_idem(rng, re=(0.4, 1.6), im=(-0.25, 0.25)) for _ in range(q - 1)]
        comps = []
        for _, *c in components(*alphas, *betas):
            target = rng.uniform(eta_lo, eta_hi)
            re_needed = target + sum(x.real for x in c[:p]) - sum(x.real for x in c[p:])
            comps.append(complex(re_needed, rng.uniform(-0.25, 0.25)))
        betas.append(BiComplex.from_idempotent(comps[0], comps[1]))
        params = PfqParams(alphas, betas)
        z = BiComplex.from_idempotent(
            cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
            cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
        )
        return params, z

    return _attempts(draw)


def _boundary_body(eta_lo, eta_hi, side):
    """Cauchy behavior on the unit torus: side "+" must converge, "-" not."""

    def body(rng, case):
        got = _boundary_case(rng, eta_lo, eta_hi)
        if got is None:
            return None
        params, z = got
        (d1, _, f1), (d2, _, f2) = hyper.boundary_probe(params, z)
        if side == "+":
            good = f1 and f2 and d1 < BOUNDARY_THRESHOLD and d2 < BOUNDARY_THRESHOLD
        else:
            good = (not f1) or (not f2) or d1 > BOUNDARY_THRESHOLD or d2 > BOUNDARY_THRESHOLD
            d1, d2 = min(d1, 1e3), min(d2, 1e3)
        return _row(f"boundary{side}{case}", params, z, d1, d2, good,
                    margin=hyper.classify(params).margin)

    return body


def _examples_case(rng, case):
    """The three closed-form worked examples on one random ball point."""
    z = _ball_z(rng, rmin=0.08, rmax=0.8)
    one = BiComplex(1.0)
    kummer = BiComplex.from_idempotent(
        *(2.0 * (cmath.exp(c) - 1.0 - c) / (c * c) for _, c in components(z))
    )
    checks = (
        ("1f1", "1F1(1;3;Z)", hyper.hyp1f1(1.0, 3.0, z), kummer),
        ("2f1", "2F1(1,2;1;Z)", hyper.hyp2f1(1.0, 2.0, 1.0, z), bc_pow(one - z, -2)),
        ("1f0", "1F0(3;;Z)", hyper.hyp1f0(3.0, z), bc_pow(one - z, -3)),
    )
    rows = []
    for label, name, value, closed in checks:
        r1, r2 = (identities.relative_residual(v, c) for _, v, c in components(value, closed))
        rows.append(_row(f"{label}-{case}", name, z, r1, r2,
                         r1 <= EXAMPLES_TOL and r2 <= EXAMPLES_TOL))
    return rows


# ---------------------------------------------------------------------------
# Integral representations.
# ---------------------------------------------------------------------------


def _euler_case(rng, case):
    p, q = _pick(rng, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])

    def draw():
        a1 = _bc_idem(rng, (0.3, 2.0), (-0.4, 0.4))
        b1 = a1 + _bc_idem(rng, (0.3, 1.5), (-0.4, 0.4))
        rest_a = [_bc_idem(rng) for _ in range(p - 1)]
        rest_b = [_bc_idem(rng) for _ in range(q - 1)]
        return PfqParams([a1] + rest_a, [b1] + rest_b)

    params = _attempts(draw)
    if params is None:
        return None
    z = _ball_z(rng, rmax=0.8)
    return _report_row(case, params, z, quad.euler_integral(params, z))


def _laplace_case(rng, case):
    p, q = _pick(rng, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
    params = _sample_params(rng, p, q)
    v = _bc_idem(rng, (0.3, 2.5), (-0.4, 0.4))
    z = _ball_z(rng, rmax=0.75)
    rep = quad.laplace_integral(v, params, z)
    return _report_row(case, params, z, rep, v=format_bicomplex(v))


def _double_case(rng, case):
    p, q = _pick(rng, [(0, 0), (1, 1), (2, 1), (1, 2)])
    params = _sample_params(rng, p, q)
    m = _bc_idem(rng, (0.4, 2.2), (-0.3, 0.3))
    n = _bc_idem(rng, (0.4, 2.2), (-0.3, 0.3))
    z = _ball_z(rng, rmax=0.75)
    curve = quad.ProductCurve(quad.CurveKind.UNIT_INTERVAL, DOUBLE_NODES)
    rep = quad.double_integral(m, n, params, z, curve)
    return _report_row(case, params, z, rep, m=format_bicomplex(m), n=format_bicomplex(n))


# ---------------------------------------------------------------------------
# Identities.
# ---------------------------------------------------------------------------

_TRANSFORM_SHAPES = [(0, 0), (1, 1), (2, 1), (1, 2)]
_CONTIGUOUS_SHAPES = [(1, 1), (2, 1), (2, 2), (3, 2)]


def _quadratic_body(relation):
    """Quadratic transform `relation`; a draw whose halved-shape series
    is not a valid sum is a failed attempt."""

    def body(rng, case):
        p, q = _pick(rng, _TRANSFORM_SHAPES)

        def draw():
            params = _sample_params(rng, p, q)
            z = _ball_z(rng, rmax=0.7)
            return _report_row(case, params, z, relation(params, z))

        return _attempts(draw)

    return body


def _saalschutz_case(rng, case):
    n = int(rng.integers(0, 7))

    def draw():
        a1, a2, b = (_bc_idem(rng, re=(0.2, 2.4), im=(-0.5, 0.5)) for _ in range(3))
        return identities.saalschutz(n, a1, a2, b)

    rep = _attempts(draw)
    if rep is None:
        return None
    return _report_row(case, f"n={n}", BiComplex(1.0), rep)


def _derivative_case(rng, case):
    p, q = _pick(rng, [(0, 0), (1, 1), (2, 1), (1, 2), (2, 2)])
    k = int(rng.integers(0, DERIVATIVE_KMAX + 1))
    params = _sample_params(rng, p, q)
    z = _ball_z(rng, rmax=0.7)
    return _report_row(case, params, z, identities.derivative_relation(params, z, k), k=k)


def _cauchy_riemann_case(rng, index):
    """Log-log slope of the CR finite-difference residual, in the
    argument (even `index`) and in one parameter's cartesian parts
    (odd `index`) of case index // 2.

    Specs are drawn with a small first denominator parameter so that
    the third-derivative scale keeps the h^2 signal above the
    rounding floor of the smallest step.  A draw passes when the slope
    of either step pair lies in SLOPE_BAND: the rounding floor can
    reach the residual at the smallest step, or the largest step can
    be short of the h^2 regime, and either leaves the other pair on the
    h^2 law, while a residual that does not fall like h^2 fails both
    pairs.  The row's `slope` is the least-squares fit over all three
    steps.
    """
    case, odd = divmod(index, 2)
    wrt = ("z", "beta")[odd]

    def draw():
        p, q = _pick(rng, [(1, 1), (2, 1)])
        alphas = [_bc_idem(rng, re=(0.8, 2.2)) for _ in range(p)]
        b0 = BiComplex.from_idempotent(
            complex(rng.uniform(0.15, 0.45), rng.uniform(-0.05, 0.05)),
            complex(rng.uniform(0.15, 0.45), rng.uniform(-0.05, 0.05)),
        )
        params = PfqParams(alphas, [b0])
        z = _ball_z(rng, rmin=0.5, rmax=0.75)
        first = identities.cauchy_riemann_check(params, z, CR_STEPS[0], wrt=wrt)
        if first.residual.max_comp() < CR_MIN_SIGNAL:
            return None  # curvature too small for a clean slope
        return params, z, first

    got = _attempts(draw)
    if got is None:
        return None
    params, z, first = got
    res = [first.residual.max_comp()] + [
        identities.cauchy_riemann_check(params, z, h, wrt=wrt).residual.max_comp()
        for h in CR_STEPS[1:]
    ]
    log_h, log_r = np.log10(np.array(CR_STEPS)), np.log10(np.array(res))
    slope = float(np.polyfit(log_h, log_r, 1)[0])
    lo, hi = SLOPE_BAND
    good = any(lo <= s <= hi for s in np.diff(log_r) / np.diff(log_h))
    return _row(f"{wrt}-{case}", params, z, res[0], res[-1], good, slope=slope)


def _contiguous_body(relation, beta_offset=0.0):
    """Contiguous `relation` under a random shift M; the betas start at
    0.4 + beta_offset."""

    def body(rng, case):
        p, q = _pick(rng, _CONTIGUOUS_SHAPES)
        shift = ShiftM(int(rng.integers(0, 4)), int(rng.integers(0, 4)))

        def draw():
            alphas = [_bc_idem(rng, re=(0.3, 2.2)) for _ in range(p)]
            lo = 0.4 + beta_offset
            betas = [_bc_idem(rng, re=(lo, lo + 2.2)) for _ in range(q)]
            return relation(PfqParams(alphas, betas), _ball_z(rng, rmax=0.6), shift)

        rep = _attempts(draw)
        if rep is None:
            return None
        return _report_row(case, f"shift=({shift.m},{shift.n})", BiComplex(0.0), rep)

    return body


def _recurrence_case(rng, case):
    """Coefficient recurrence at ulp accuracy, and the coefficient table
    against the closed form."""
    p = int(rng.integers(0, 4))
    q = int(rng.integers(0, 4))
    params = _sample_params(rng, p, q)
    ulps = identities.coefficient_recurrence_ulps(params, RECURRENCE_COUNT)
    # c_n against prod (a)_n / (n! prod (b)_n), each rising factorial a
    # running product of its own (n! is (1)_n), a numerator over a
    # denominator at a time so the partial products stay in range; the
    # residual is the worst relative error over the entries whose
    # factors and value lie in the normal float range, and entry n
    # passes within 2 n (p+q+2) eps
    good = ulps <= RECURRENCE_MAX_ULPS
    worst = []
    for s in (1, 2):
        alphas, betas = params.comp_alphas(s), list(params.comp_betas(s)) + [1.0]
        with np.errstate(over="ignore", invalid="ignore"):
            table = kernels.coeff_table(alphas, betas[:-1], RECURRENCE_COUNT)
        nums, dens = [1.0 + 0j] * len(alphas), [1.0 + 0j] * len(betas)
        err = 0.0
        for nn, got in enumerate(table.tolist()):
            if all(_normal(f) for f in nums + dens):
                want = 1.0 + 0j
                for num, den in zip(nums, dens):
                    want *= num / den
                for f in nums[len(dens):]:
                    want *= f
                for f in dens[len(nums):]:
                    want /= f
                if _normal(want):
                    rel = abs(got - want) / abs(want)
                    err = max(err, rel)
                    good = good and rel <= 2 * nn * (p + q + 2) * _EPS
            nums = [f * (a + nn) for f, a in zip(nums, alphas)]
            dens = [f * (b + nn) for f, b in zip(dens, betas)]
        worst.append(err)
    return _row(f"recurrence-{case}", params, BiComplex(0.0), worst[0], worst[1], good, ulps=ulps)


def _normal(w) -> bool:
    """Whether the larger part of the complex w lies in the normal float
    range, with headroom at the top so |w| and w - w' stay finite."""
    return _TINY <= max(abs(w.real), abs(w.imag)) <= _HUGE


def _operator_case(rng, case):
    """The differential operator's residual against its dropped-term bound."""
    p = int(rng.integers(0, 3))
    q = int(rng.integers(max(0, p - 1), 4))  # keep p <= q+1 for evaluation
    params = _sample_params(rng, p, q)
    z = _ball_z(rng, rmax=0.5)
    resid, bound = identities.ode_residual_with_bound(params, z, 60)
    limit1 = max(bound.comp1 * (1.0 + 1e-6), 1e-10)
    limit2 = max(bound.comp2 * (1.0 + 1e-6), 1e-10)
    good = resid.comp1 <= limit1 and resid.comp2 <= limit2
    return _row(f"operator-{case}", params, z, resid.comp1, resid.comp2, good)


# ---------------------------------------------------------------------------
# Coherent states.
# ---------------------------------------------------------------------------

_COHERENT_SHAPES = [(0, 0), (1, 1), (0, 1), (2, 1), (1, 2)]
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_HUGE = 2.0**1020


def _coherent_case(rng, case):
    p, q = _pick(rng, _COHERENT_SHAPES)
    alphas = [_real_bc(rng) for _ in range(p)]
    betas = [_real_bc(rng) for _ in range(q)]
    z = _ball_z(rng, rmin=0.1, rmax=0.8)
    spec = coherent.CoherentSpec(PfqParams(alphas, betas), z)
    tables = coherent.build_tables(spec)
    rows = []

    # rho(n) against n! prod (beta)_n / prod (alpha)_n over the finite
    # prefix of the table, as one running product in real arithmetic that
    # shares no intermediate with build_tables (no complex division, sqrt
    # or square); level n passes within 2(n+1)(p+q+3) eps
    good = True
    worst = []
    for s, rho in ((1, tables.rho1), (2, tables.rho2)):
        ref, err = 1.0, 0.0
        for nn, got in enumerate(rho.tolist()):
            if not math.isfinite(got):
                break
            rel = abs(got - ref) / ref
            err = max(err, rel)
            good = good and rel <= 2 * (nn + 1) * (p + q + 3) * _EPS
            # the level's factor first, so ref overflows only where rho does
            step = nn + 1.0
            for b in spec.params.comp_betas(s):
                step *= b.real + nn
            for a in spec.params.comp_alphas(s):
                step /= a.real + nn
            ref *= step
        worst.append(err)
    rows.append(_row(f"recurrence-{case}", spec.params, z, worst[0], worst[1], good))

    # eigenstate property with the tail bound, edge term included
    good = True
    res = []
    for (_, zc), f, c in zip(components(z), (tables.f1, tables.f2), (tables.c1, tables.c2)):
        diff = np.empty(len(c), dtype=np.complex128)
        diff[:-1] = f * c[1:] - zc * c[:-1]
        diff[-1] = -zc * c[-1]
        misfit = float(np.linalg.norm(diff))
        bound = abs(c[-1]) * f[-1] + 64 * _EPS * len(c)
        res.append(misfit)
        good = good and misfit <= bound
    rows.append(_row(f"eigen-{case}", spec.params, z, res[0], res[1], good))

    # normalization: the state overlaps itself to one
    overlap = coherent.inner_product(spec, spec)
    r1 = abs(overlap.idem1 - 1.0)
    r2 = abs(overlap.idem2 - 1.0)
    rows.append(_row(f"norm-{case}", spec.params, z, r1, r2, r1 <= 1e-12 and r2 <= 1e-12))

    if case < 25:
        # adjointness and commutator diagonal on a dense truncation
        size = 30
        (lo1, lo2), (up1, up2) = coherent.ladder_matrices(spec, size)
        adj = max(
            float(np.max(np.abs(up1 - lo1.conj().T))),
            float(np.max(np.abs(up2 - lo2.conj().T))),
        )
        comm_ok = adj == 0.0
        worst_comm = 0.0
        for lo, up, f in ((lo1, up1, tables.f1), (lo2, up2, tables.f2)):
            comm = (lo @ up - up @ lo).diagonal().real
            for nn in range(1, size - 1):
                want = f[nn] ** 2 - f[nn - 1] ** 2
                # ulps at the scale of the products being differenced
                scale = np.spacing(max(f[nn] ** 2, f[nn - 1] ** 2, 1e-300))
                worst_comm = max(worst_comm, abs(comm[nn] - want) / scale)
        comm_ok = comm_ok and worst_comm <= 2.0
        rows.append(_row(f"adjoint-{case}", spec.params, z, adj, worst_comm, comm_ok))
    return rows


def _positivity_gate(rng, total):
    """One row: a sign flip in one component of one parameter, drawn
    `total` times, must be rejected every time."""
    rejected = 0
    for _ in range(total):
        p, q = _COHERENT_SHAPES[int(rng.integers(1, len(_COHERENT_SHAPES)))]  # at least one parameter
        pool = [_real_bc(rng) for _ in range(p)] + [_real_bc(rng) for _ in range(q)]
        idx = int(rng.integers(len(pool)))
        comp = int(rng.integers(2))
        parts = [c for _, c in components(pool[idx])]
        parts[comp] = -parts[comp] - 0.1
        pool[idx] = BiComplex.from_idempotent(*parts)
        try:
            coherent.CoherentSpec(
                PfqParams(pool[:p], pool[p:]), _ball_z(rng, rmax=0.6)
            )
        except BCHyperError:  # a PositivityError, or a stricter reason
            rejected += 1
    # 0 of 0 rejected checked nothing, so it is no pass.
    return _row("positivity-gate", f"{rejected}/{total}", BiComplex(0.0),
                0.0, 0.0, total > 0 and rejected == total, rejected=rejected)


# ---------------------------------------------------------------------------
# Registry and the one suite loop.
# ---------------------------------------------------------------------------


def _once(samples):
    """The positivity gate's one case: all `samples` draws in one row."""
    return [samples]


def _fixed(count):
    return lambda samples: range(count)


def _suite(theorem, samples, body, *phases) -> Suite:
    """`body` on cases 0 .. samples-1, then the further `phases`."""
    return Suite(theorem, samples, ((range, body), *phases))


SUITES = {
    "thm2.1": _suite("thm2.1", 1000, _idempotent_case),
    "thm2.2": _suite(
        "thm2.2",
        200,
        _classify_case,
        (_fixed(BOUNDARY_CASES), _boundary_body(2.0, 4.0, "+")),
        (_fixed(BOUNDARY_CASES), _boundary_body(-2.5, -0.3, "-")),
    ),
    "examples": _suite("examples", 100, _examples_case),
    "thm3.1": _suite("thm3.1", 100, _euler_case),
    "thm3.5": _suite("thm3.5", 100, _laplace_case),
    "thm3.8": _suite("thm3.8", 100, _double_case),
    "thm4.1": _suite("thm4.1", 500, _quadratic_body(identities.quad_even)),
    "thm4.2": _suite("thm4.2", 500, _quadratic_body(identities.quad_odd)),
    "thm4.3": _suite("thm4.3", 500, _saalschutz_case),
    "thm5.1": _suite("thm5.1", 500, _derivative_case),
    # two rows per sample: one in the argument, one in a parameter
    "thm5.2": Suite("thm5.2", 20, ((lambda s: range(2 * s), _cauchy_riemann_case),)),
    "thm6.1": _suite("thm6.1", 500, _contiguous_body(identities.contiguous_alpha_plus)),
    "thm6.2": _suite("thm6.2", 500, _contiguous_body(identities.contiguous_alpha_minus)),
    # beta1 - M must stay a valid denominator parameter for shifts <= 3
    "thm6.3": _suite("thm6.3", 500, _contiguous_body(identities.contiguous_beta_minus, 3.1)),
    "thm6.4": _suite("thm6.4", 500, _contiguous_body(identities.contiguous_beta_plus)),
    "thm7.1": _suite("thm7.1", 100, _recurrence_case, (_fixed(20), _operator_case)),
    "cs-eigen": _suite("cs", 100, _coherent_case, (_once, _positivity_gate)),
}


def run_suite(theorem: str, seed: int = 7, samples: int | None = None) -> SuiteResult:
    """Run one suite with `samples` cases per sampled phase (the suite's
    own count when None).

    One generator, seeded by `seed`, feeds every case of every phase in
    order.  The result counts each case that returned no row as
    skipped; its `samples` is rows plus skips.
    """
    if theorem not in SUITES:
        raise KeyError(f"unknown suite {theorem!r}; known: {sorted(SUITES)}")
    suite = SUITES[theorem]
    if samples is None:
        samples = suite.samples
    rng = np.random.default_rng(seed)
    rows = []
    skipped = 0
    for cases, body in suite.phases:
        for case in cases(samples):
            out = body(rng, case)
            if out is None:
                skipped += 1
            elif isinstance(out, dict):
                rows.append(out)
            else:
                rows.extend(out)
    return _finish(suite.theorem, rows, skipped, seed)


def region_scan(params: PfqParams, grid: int = 32, rmax: float = 1.25):
    """Convergence flags over a radius grid for a ball-class parameter set.

    Points are Z = r1*e1 + r2*e2 with real radii; a point converges
    exactly when both component probes are Cauchy.  Returns rows
    (r1, r2, converged).
    """
    radii = np.linspace(0.0, rmax, grid)

    def converges(a, b, r):
        if r == 0.0:
            return True
        delta, _, finite = kernels.window_probe(a, b, complex(r), REGION_CAP, 50)
        return bool(finite and delta < REGION_THRESHOLD)

    flags1, flags2 = hyper.per_component(
        lambda a, b: [converges(a, b, r) for r in radii], params
    )
    return [
        (float(r1), float(r2), flags1[i] and flags2[j])
        for i, r1 in enumerate(radii)
        for j, r2 in enumerate(radii)
    ]
