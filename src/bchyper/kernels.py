"""Hot series kernels, in pure Python and numpy.

The classical one-component hypergeometric sum is the inner loop of
everything in this package (function evaluation, identity suites,
quadrature integrands).  Its coefficients obey one law,

    c_0 = 1,   c_{n+1} / c_n = prod(a_i + n) / ((n+1) * prod(b_j + n)),

and ``ratio_parts`` is the one place that writes the two products.
Every kernel here, and every relation built on the coefficients,
takes its ratios from it:

- ``series_sum`` is the one scalar sum loop: at one argument, to the
  stop rule or over a fixed number of terms (a terminating series),
  plainly or termwise over the moments of a stack of quadrature rules,
  given by their nodes or by their Jacobi matrices.
  Every function value, terminating sum and rule sum goes through it,
  by way of ``hyper.component_series``, the one gated sum;
- ``series_sum_many`` sums an array of arguments in lockstep with
  ``series_sum``'s stop rule and tail majorant ``_tail``.  The package
  no longer calls it: it is the node-by-node lane reference that the
  tests check the rule sums against.  The benchmark traces it, and
  ``series_sum_terminating``, a fixed-length ``series_sum``;
- ``coeff_table`` and ``term_ratio`` give the coefficients and one
  ratio;
- ``window_probe`` takes all ratios at once over an index array.

All kernels take the component parameter vectors as any sequence of
numbers (length 0 is fine) and iterate it as it is: ``PfqParams``
builds them as tuples of Python complex, and ``per_component`` hands
workers list copies.  With those, the scalar kernels take the products
in Python complex, which rounds like numpy's scalar arithmetic; the
ratio itself is a numpy division, ``np.complex128(num) / den``,
because Python's complex division rounds differently.

The stop rule of ``series_sum`` and ``series_sum_many``: three
consecutive terms below tol * |partial sum|, after at least MIN_TERMS
terms.  Status codes: 0 = stop rule met, 1 = cap reached.
"""

from __future__ import annotations

import math

import numpy as np

# Only the pure Python/numpy path exists; perfbench/run.py records this.
USE_NUMBA = False

STATUS_OK = 0
STATUS_CAP = 1

# A single small term can be an accidental zero, not convergence: the
# stop rule holds off for this many terms.
MIN_TERMS = 8


def ratio_parts(alphas, betas, n):
    """(prod(a + n), (n+1) * prod(b + n)): numerator and denominator of
    c_{n+1} / c_n.  n is a number or a float array."""
    num = 1.0 + 0.0j
    for a in alphas:
        num = num * (a + n)
    den = n + 1.0 + 0.0j
    for b in betas:
        den = den * (b + n)
    return num, den


def _tail(alphas, betas, z, term, n):
    """Geometric majorant |t_N| r / (1 - r) of the dropped terms, r the
    modulus of the next term ratio; inf where r >= 1.  z and term are
    one lane's numbers or arrays of lanes."""
    num, den = ratio_parts(alphas, betas, n)
    r = abs(z) * (abs(num) / abs(den))
    below = r < 1.0
    # the divisor is 1 where r >= 1, so no lane divides by zero
    tail = abs(term) * r / (1.0 - r * below)
    if isinstance(below, bool):  # one lane: np.where would cost as much as several terms
        return tail if below else np.inf
    return np.where(below, tail, np.inf)


def series_sum(alphas, betas, z, tol, cap, start=None, step=None):
    """Truncated sum of the component series at argument z.

    Stops once three consecutive terms fall below tol * |partial sum|
    and at least MIN_TERMS terms have been added.  With tol None there
    is no stop rule: the sum takes exactly cap ratio steps (a
    terminating series of degree cap) and reports status OK and tail
    0.0.  Returns (value, terms_used, tail_estimate, status); the tail
    is ``_tail``, and inf at the cap.

    Given a stack of R quadrature rules, term k is c_k z^k prod_r M_rk
    over the rules' k-th moments M_rk, which a state of R length-n rows
    carries from one term to the next.  This is the series summed over
    the tensor product of the rules, taken termwise: n lanes per rule
    where the node grid takes n^R.  The stack comes in one of two forms:

    - node rules: start the (R, n) weights and step the (R, n) bases.
      Each term multiplies the state by the bases, and M_rk is the row
      sum of weights * bases**k;
    - Jacobi matrices: start the (R, n) state mass * e_0 and step the
      (R, 2, n) diagonals and squared off-diagonals (the last entry
      unused) of R symmetric tridiagonal n x n matrices B_r.  Each term
      multiplies the state by B_r, and M_rk is its entry 0, mass (B_r^k)_00,
      which is the n-node Gauss rule's moment for every k (Golub and
      Welsch).  The product runs on D^-1 B_r D for the diagonal D with
      D_00 = 1 that puts 1/4 below the diagonal and 4 times the squared
      off-diagonal above it, so no square root or sign is taken.

    The stop rule applies to the weighted terms.  ``_tail`` majorises
    only the plain series, so a rule sum's tail is NaN.
    """
    matrices = step is not None and np.ndim(step) == 3
    coeff = 1.0 + 0.0j
    if matrices:
        # the state between two zero columns: the product's three
        # diagonals meet three fixed views of it
        rows, size = np.shape(start)
        state = np.zeros((rows, size + 2), dtype=np.complex128)
        entries, after, before = state[:, 1:-1], state[:, 2:], state[:, :-2]
        entries[...] = start
        diag, upper = step[:, 0], 4.0 * step[:, 1]
        total = math.prod(state[:, 1])
    else:
        state = None if start is None else np.array(start, dtype=np.complex128)
        total = coeff if state is None else math.prod(state.sum(axis=1))
    below = 0
    n = 0
    while n < cap:
        num, den = ratio_parts(alphas, betas, n)
        coeff = term = coeff * (z * (np.complex128(num) / den))
        if state is not None:  # plain sums make no numpy call per term
            if matrices:
                product = diag * entries
                product += upper * after
                product += 0.25 * before
                entries[...] = product
                term = coeff * math.prod(state[:, 1])
            else:
                state *= step
                term = coeff * math.prod(state.sum(axis=1))
        total = total + term
        n += 1
        if tol is None:
            continue
        if abs(term) <= tol * abs(total):
            below += 1
            if below >= 3 and n >= MIN_TERMS:
                tail = np.nan if state is not None else float(_tail(alphas, betas, z, term, n))
                return total, n + 1, tail, STATUS_OK
        else:
            below = 0
    if tol is None:
        return total, n + 1, 0.0, STATUS_OK
    return total, n + 1, np.inf, STATUS_CAP


def series_sum_terminating(alphas, betas, z, last_n):
    """Exact sum of a terminating series at the argument z: terms
    n = 0 .. last_n inclusive.  The package sums these through
    ``series_sum`` with tol None; the benchmark traces this name."""
    return series_sum(alphas, betas, z, None, last_n)[0]


def coeff_table(alphas, betas, count):
    """Series coefficients c_0 .. c_count via the term-ratio recurrence."""
    out = np.empty(count + 1, dtype=np.complex128)
    c = out[0] = 1.0 + 0.0j
    for n in range(count):
        num, den = ratio_parts(alphas, betas, n)
        c = out[n + 1] = c * (np.complex128(num) / den)
    return out


def term_ratio(alphas, betas, n):
    """One-step coefficient ratio c_{n+1} / c_n.

    Exposed so ``identities.coefficient_recurrence_ulps`` checks the
    table against the same arithmetic that ``coeff_table`` used to
    build it, operation for operation.
    """
    num, den = ratio_parts(alphas, betas, n)
    return np.complex128(num) / den


def series_sum_many(alphas, betas, zs, tol, cap):
    """Vectorized ``series_sum`` over an array of arguments.

    Each element follows the scalar kernel's recurrence and stop rule;
    numpy advances the unfinished ones in lockstep.  A lane that meets
    the stop rule has its results written out and is dropped, so later
    steps cost only what is still running.
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    m = zs.shape[0]
    values = np.empty(m, dtype=np.complex128)
    counts = np.empty(m, dtype=np.int64)
    tails = np.full(m, np.inf, dtype=np.float64)
    statuses = np.full(m, STATUS_CAP, dtype=np.int64)
    # the unfinished lanes: their indices, arguments and running state
    live = np.arange(m)
    z = zs
    total = np.ones(m, dtype=np.complex128)
    term = np.ones(m, dtype=np.complex128)
    below = np.zeros(m, dtype=np.int64)
    n = 0
    while n < cap and live.size:
        num, den = ratio_parts(alphas, betas, n)
        term = term * (z * (np.complex128(num) / den))
        total = total + term
        n += 1
        small = np.abs(term) <= tol * np.abs(total)
        below = np.where(small, below + 1, 0)
        if n < MIN_TERMS:
            continue
        done = below >= 3
        if done.any():
            out = live[done]
            values[out] = total[done]
            counts[out] = n + 1
            tails[out] = _tail(alphas, betas, z[done], term[done], n)
            statuses[out] = STATUS_OK
            keep = ~done
            live, z, term, total, below = live[keep], z[keep], term[keep], total[keep], below[keep]
    values[live] = total
    counts[live] = n + 1
    return values, counts, tails, statuses


def window_probe(alphas, betas, z, cap, window):
    """Partial-sum Cauchy probe over the final `window` terms of `cap` terms.

    Fully vectorized over the term index (cumprod of the term ratios),
    so it stays cheap even at cap = 20000.  Returns
    (cauchy_delta, max_term_abs_in_window, finite) where cauchy_delta =
    max_j |S_cap - S_j| over the window.  Nonfinite growth reports
    (inf, inf, False).
    """
    num, den = ratio_parts(alphas, betas, np.arange(cap, dtype=np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = z * num / den
        terms = np.cumprod(ratios)
        if not np.isfinite(terms[-1]):
            return np.inf, np.inf, False
        sums = 1.0 + np.cumsum(terms)
    w = min(window, cap - 1)
    delta = float(np.max(np.abs(sums[-1] - sums[-w - 1 : -1])))
    tmax = float(np.max(np.abs(terms[-w:])))
    return delta, tmax, True
