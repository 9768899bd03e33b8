import cmath
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bchyper import BiComplex, NoConvergenceError, PfqParams, kernels, pfq, quad, verify
from bchyper.gamma import complex_pochhammer

GAUSS_A = np.array([0.7 + 0.1j, 1.2 - 0.05j], dtype=np.complex128)
GAUSS_B = np.array([1.9 + 0.2j], dtype=np.complex128)
EMPTY = np.empty(0, dtype=np.complex128)


class TestScalarKernel:
    def test_exp_via_empty_params(self):
        v, n, tail, status = kernels.series_sum(EMPTY, EMPTY, 0.3 + 0.1j, 1e-15, 1000)
        assert status == kernels.STATUS_OK
        assert abs(v - np.exp(0.3 + 0.1j)) < 1e-15
        assert tail < 1e-15

    def test_cap_status(self):
        _, _, _, status = kernels.series_sum(GAUSS_A, GAUSS_B, 0.9 + 0j, 1e-15, 20)
        assert status == kernels.STATUS_CAP

    def test_no_stop_rule_takes_exactly_cap_steps(self):
        # at |z| = 0.05 the stop rule ends the sum near 14 terms; with
        # tol None it runs on to the cap, and the value is the one the
        # sum reaches at the cap when no term is small enough (tol 0)
        z = 0.05 - 0.02j
        assert kernels.series_sum(GAUSS_A, GAUSS_B, z, 1e-15, 10_000)[1] < 20
        for cap in (0, 3, 40):
            v, n, tail, status = kernels.series_sum(GAUSS_A, GAUSS_B, z, None, cap)
            assert (n, tail, status) == (cap + 1, 0.0, kernels.STATUS_OK), cap
            want, _, _, want_status = kernels.series_sum(GAUSS_A, GAUSS_B, z, 0.0, cap)
            assert _same_bits(complex(v), complex(want)), cap
            assert want_status == kernels.STATUS_CAP

    def test_terminating(self):
        a = np.array([-3.0 + 0j, 1.2 + 0j], dtype=np.complex128)
        b = np.array([1.7 + 0j], dtype=np.complex128)
        got = kernels.series_sum_terminating(a, b, 2.0 + 0j, 3)
        # explicit four-term polynomial; the alternating terms cancel,
        # so tolerance scales with the largest term, not the tiny sum
        want = 0j
        term = 1.0 + 0j
        want += term
        biggest = 1.0
        for n in range(3):
            term *= 2.0 * (-3.0 + n) * (1.2 + n) / ((n + 1.0) * (1.7 + n))
            want += term
            biggest = max(biggest, abs(term))
        assert abs(got - want) <= 8 * np.spacing(biggest)


class TestManyKernel:
    def test_matches_scalar(self, rng):
        zs = 0.6 * rng.random(16) * np.exp(2j * np.pi * rng.random(16))
        values, counts, tails, statuses = kernels.series_sum_many(
            GAUSS_A, GAUSS_B, zs, 1e-15, 10_000
        )
        for i, z in enumerate(zs):
            v, n, t, s = kernels.series_sum(GAUSS_A, GAUSS_B, complex(z), 1e-15, 10_000)
            assert abs(values[i] - v) <= 4 * np.spacing(abs(v))
            assert counts[i] == n
            assert statuses[i] == s

    def test_mixed_stop_points_and_cap(self, rng):
        # lanes stop after very different term counts; with cap = 20 the
        # slow ones end on the cap while the fast ones still stop early
        radii = np.linspace(0.05, 0.95, 24)
        zs = radii * np.exp(2j * np.pi * rng.random(radii.size))
        for cap in (10_000, 20):
            values, counts, tails, statuses = kernels.series_sum_many(
                GAUSS_A, GAUSS_B, zs, 1e-15, cap
            )
            for i, z in enumerate(zs):
                v, n, t, s = kernels.series_sum(GAUSS_A, GAUSS_B, complex(z), 1e-15, cap)
                assert counts[i] == n and statuses[i] == s, (cap, abs(z))
                # numpy's complex multiply rounds differently from Python's,
                # and a lane's sum and last term carry the rounding of n
                # steps, so long lanes get 4 spacings per term
                assert abs(values[i] - v) <= 4 * n * np.spacing(abs(v))
                if np.isfinite(t):
                    assert abs(tails[i] - t) <= 4 * n * np.spacing(t)
                else:
                    assert not np.isfinite(tails[i])
            capped = statuses == kernels.STATUS_CAP
            if cap == 20:
                assert 0 < capped.sum() < zs.size
                assert np.all(counts[capped] == cap + 1)
            else:
                assert not capped.any()
                assert counts.max() > 20 * counts.min()


def _representable(w) -> bool:
    """Finite, with a modulus that does not overflow."""
    return cmath.isfinite(w) and max(abs(w.real), abs(w.imag)) < 1e300


class TestMomentSum:
    """``series_sum`` with an iterator of moments: term k is c_k z^k M_k.
    ``quad`` builds the moments of its Gauss rules from their nodes or
    their Jacobi matrices."""

    @staticmethod
    def _units():
        """Moment sequences that are 1 for every k: a constant, one
        one-node rule of unit weight and base, and a stack of two 1 x 1
        unit matrices.  The terms, stop point and status are then the
        plain sum's, bit for bit."""
        return [
            itertools.repeat(1.0 + 0.0j),
            quad._node_moments(np.ones(1), np.ones(1)),
            quad._matrix_moments(np.ones((2, 1)), np.ones((2, 1)), np.zeros((2, 0))),
        ]

    def test_one_node_rules_are_the_scalar_sum(self, rng):
        radii = np.linspace(0.05, 0.95, 12)
        for z in radii * np.exp(2j * np.pi * rng.random(radii.size)):
            for cap in (10_000, 20):
                v, n, _, s = kernels.series_sum(GAUSS_A, GAUSS_B, complex(z), 1e-15, cap)
                for unit, moments in enumerate(self._units()):
                    got, terms, _, status = kernels.series_sum(
                        GAUSS_A, GAUSS_B, complex(z), 1e-15, cap, moments
                    )
                    assert _same_bits(complex(got), complex(v)) and status == s, (
                        abs(z), cap, unit,
                    )
                    assert terms == n

    def test_terminating_sum_takes_exactly_its_degree(self):
        # the pole at -3 lies past the degree 2: one more step would divide by zero
        a, b, z = [-2.0, 0.7], [-3.0], 0.6 - 0.3j
        want = kernels.series_sum_terminating(a, b, z, 2)
        for unit, moments in enumerate(self._units()):
            got, terms, _, status = kernels.series_sum(a, b, z, None, 2, moments)
            assert _same_bits(complex(got), complex(want)), unit
            assert terms == 3 and status == kernels.STATUS_OK

    @pytest.mark.parametrize(
        "tol, cap, status",
        [(1e-15, 10_000, kernels.STATUS_OK), (None, 12, kernels.STATUS_OK),
         (1e-15, 20, kernels.STATUS_CAP)],
        ids=["stopped", "terminating", "capped"],
    )
    def test_takes_exactly_terms_used_moments(self, tol, cap, status):
        # M_0 .. M_n for the n + 1 terms: none is built past the last term
        pulled = itertools.count()
        moments = (0.9**k for k in pulled)
        _, terms, _, got_status = kernels.series_sum(GAUSS_A, GAUSS_B, 0.9, tol, cap, moments)
        assert got_status == status
        assert next(pulled) == terms

    @pytest.mark.parametrize("rules", [1, 2])
    def test_matrix_stack_is_its_eigen_rule(self, rng, rules):
        # a real symmetric tridiagonal B with spectrum in (0, 1) and the
        # node rule of its eigendecomposition: nodes the eigenvalues,
        # weights mass v_0i^2; their moments mass (B^k)_00 agree for
        # every k, and a stack's moments are the product of its rules'
        n, mass = 24, 0.8
        diag = rng.uniform(0.3, 0.7, (rules, n))
        off = rng.uniform(0.01, 0.05, (rules, n - 1))
        weights, bases = np.empty((rules, n)), np.empty((rules, n))
        for r in range(rules):
            dense = np.diag(diag[r]) + np.diag(np.sqrt(off[r]), 1) + np.diag(np.sqrt(off[r]), -1)
            bases[r], vectors = np.linalg.eigh(dense)
            weights[r] = mass * vectors[0] ** 2
        for z in (0.9, -0.7 + 0.5j):
            for tol, cap in ((1e-15, 10_000), (None, 40)):
                # the matrix moments take 4 times B's squared off-diagonal
                matrices = quad._matrix_moments(np.full((rules, 1), mass), diag, 4.0 * off)
                got, _, tail, status = kernels.series_sum(
                    GAUSS_A, GAUSS_B, z, tol, cap, matrices
                )
                rows = zip(*(quad._node_moments(w, b) for w, b in zip(weights, bases)))
                want, _, _, want_status = kernels.series_sum(
                    GAUSS_A, GAUSS_B, z, tol, cap, map(math.prod, rows)
                )
                assert abs(got - want) <= 1e-14 * abs(want), (z, tol, abs(got - want))
                assert status == want_status == kernels.STATUS_OK
                assert tail == 0.0 if tol is None else math.isnan(tail)

    def test_tail_is_nan(self):
        # _tail majorises the plain series, not the moment-weighted one
        moments = quad._node_moments(np.full(4, 0.25), np.linspace(0.1, 0.7, 4))
        _, _, tail, status = kernels.series_sum(
            GAUSS_A, GAUSS_B, 0.5 + 0.2j, 1e-15, 10_000, moments
        )
        assert status == kernels.STATUS_OK and math.isnan(tail)


class TestCoeffTable:
    def test_first_coefficients(self):
        c = kernels.coeff_table(GAUSS_A, GAUSS_B, 3)
        assert c[0] == 1.0
        want1 = GAUSS_A[0] * GAUSS_A[1] / GAUSS_B[0]
        assert abs(c[1] - want1) <= 4 * np.spacing(abs(want1))

    def test_ratio_consistency(self):
        c = kernels.coeff_table(GAUSS_A, GAUSS_B, 50)
        for n in (0, 7, 23, 49):
            ratio = kernels.term_ratio(GAUSS_A, GAUSS_B, float(n))
            assert abs(c[n + 1] - c[n] * ratio) <= 2 * np.spacing(abs(c[n + 1]))

    def test_closed_form(self):
        # c_n = prod (a)_n / (n! prod (b)_n), each rising factorial taken
        # on its own; a numerator over a denominator at a time keeps the
        # partial products in range.  Entries whose factors or value
        # leave the normal float64 range are skipped.
        rng = np.random.default_rng(20)
        eps = float(np.finfo(float).eps)
        count = 170
        checked = 0
        for _ in range(200):
            p, q = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            params = verify._sample_params(rng, p, q)
            for s in (1, 2):
                a, b = params.comp_alphas(s), params.comp_betas(s)
                with np.errstate(over="ignore", invalid="ignore"):
                    table = kernels.coeff_table(a, b, count)
                for n in range(count + 1):
                    nums = [complex_pochhammer(x, n) for x in a]
                    dens = [complex_pochhammer(x, n) for x in b] + [float(math.factorial(n))]
                    if not all(_representable(f) for f in nums + dens):
                        continue
                    want = 1.0 + 0j
                    while nums and dens:
                        want *= nums.pop() / dens.pop()
                    for f in nums:
                        want *= f
                    for f in dens:
                        want /= f
                    if not (_representable(want) and 1e-280 < abs(want) < 1e280):
                        continue
                    err = abs(table[n] - want) / abs(want)
                    assert err <= 2 * n * (p + q + 2) * eps, (a, b, n, err)
                    checked += 1
        assert checked > 20_000


def _same_bits(got: complex, want: complex) -> bool:
    """Equal float bits part by part; a nan matches any nan."""
    return all(
        (math.isnan(g) and math.isnan(w)) or g.hex() == w.hex()
        for g, w in ((got.real, want.real), (got.imag, want.imag))
    )


class TestOverflow:
    """Sums whose terms or partial sums overflow: numpy's scalar
    arithmetic gives inf and nan, and the stop rule ends the sum."""

    def test_overflowing_sums_keep_their_results(self):
        cases = [
            (((), (), 800), (math.inf, math.nan), 461),
            (((0.5,), (1.5,), 900), (math.inf, math.nan), 398),
            (((), (), 600 + 600j), (-math.inf, math.nan), 421),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            for (a, b, z), want, terms in cases:
                v, n, tail, status = kernels.series_sum(a, b, z, 1e-15, 10_000)
                assert _same_bits(v, complex(*want)) and n == terms, (z, v, n)
                assert tail == math.inf and status == kernels.STATUS_OK

    def test_finite_sum_whose_modulus_overflows(self):
        # the partial sums of exp at |z| = 714 pass through finite values
        # whose modulus exceeds the float64 range (Python's abs() raises
        # OverflowError on them); numpy's abs gives inf, which the stop
        # test compares
        z = complex(float.fromhex("0x1.f8dfce4ef6e65p+8"), float.fromhex("0x1.f8dfce4ef6e63p+8"))
        want = complex(float.fromhex("0x1.c56bbdfa60716p+1022"), -float.fromhex("0x1.f9107ff586ac6p+1023"))
        with np.errstate(over="ignore", invalid="ignore"):
            v, n, tail, status = kernels.series_sum((), (), z, 1e-15, 10_000)
        assert _same_bits(v, want) and n == 697, (v, n)
        assert tail == math.inf and status == kernels.STATUS_OK

    def test_pfq_reports_the_overflow(self):
        with pytest.raises(NoConvergenceError), np.errstate(over="ignore", invalid="ignore"):
            pfq(PfqParams([], []), BiComplex(800.0))


class TestPinnedBits:
    """The scalar kernels' exact output on fixed inputs.

    ``data/kernel_bits.json`` holds, as ``float.hex``, each case's
    ``series_sum`` value with its term count and status, the 13-term
    ``series_sum_terminating`` sum and ``coeff_table(..., 30)``, recorded
    before the kernels shared ``ratio_parts``.  Any change to the order
    or kind of rounding in the recurrence shows here first.  Each case
    runs from a tuple of Python complex, the form ``PfqParams`` builds,
    and from a complex128 array.
    """

    CASES = json.loads((Path(__file__).parent / "data" / "kernel_bits.json").read_text())

    @staticmethod
    def _hex(v):
        v = complex(v)
        return [v.real.hex(), v.imag.hex()]

    def test_scalar_kernels_keep_their_bits(self):
        assert len(self.CASES) == 7
        for i, case in enumerate(self.CASES):
            a, b = (tuple(complex(*x) for x in case[k]) for k in ("alphas", "betas"))
            z = complex(*case["z"])
            arrays = tuple(np.array(x, dtype=np.complex128) for x in (a, b))
            for vectors in ((a, b), arrays):
                label = (i, type(vectors[0]).__name__)
                v, n, _, status = kernels.series_sum(*vectors, z, 1e-15, 10_000)
                got = {"value": self._hex(v), "terms": n, "status": status}
                assert got == case["series_sum"], label
                got = self._hex(kernels.series_sum_terminating(*vectors, z, 12))
                assert got == case["series_sum_terminating_12"], label
                got = self._hex(kernels.series_sum(*vectors, z, None, 12)[0])
                assert got == case["series_sum_terminating_12"], label
                got = [self._hex(c) for c in kernels.coeff_table(*vectors, 30)]
                assert got == case["coeff_table_30"], label


class TestWindowProbe:
    def test_interior_converges(self):
        delta, tmax, finite = kernels.window_probe(GAUSS_A, GAUSS_B, 0.8 + 0j, 2000, 50)
        assert finite and delta < 1e-12

    def test_outside_diverges(self):
        delta, tmax, finite = kernels.window_probe(GAUSS_A, GAUSS_B, 1.1 + 0j, 2000, 50)
        assert (not finite) or delta > 1.0

    def test_overflow_is_flagged(self):
        delta, tmax, finite = kernels.window_probe(GAUSS_A, GAUSS_B, 2.5 + 0j, 5000, 50)
        assert not finite


class TestEnvFlag:
    def test_fallback_evaluates_identically(self):
        # the BCHYPER_NO_NUMBA switch is gone: a stale setting must be
        # ignored, and a fresh interpreter must give the closed form
        code = (
            "import bchyper as bc; from bchyper import BiComplex, PfqParams; "
            "v = bc.pfq_value(PfqParams([1.0, 2.0], [1.0]),"
            " BiComplex.from_idempotent(0.5, 0.25)); "
            "print(repr(v.idem1), repr(v.idem2))"
        )
        env = dict(os.environ, BCHYPER_NO_NUMBA="1")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        got1, got2 = [complex(eval(tok)) for tok in out.stdout.strip().split(" ")]
        assert abs(got1 - 4.0) < 4e-14
        assert abs(got2 - 16.0 / 9.0) < 4e-14
