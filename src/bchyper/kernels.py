"""Hot series kernels, in pure Python and numpy.

The classical one-component hypergeometric sum is the inner loop of
everything in this package (function evaluation, identity suites,
quadrature integrands).  ``series_sum`` sums one argument;
``series_sum_many`` advances an array of arguments in lockstep and
drops each one once it stops.

All kernels take the component parameter vectors as 1-D complex128
arrays (length 0 is fine), and they all share one term recurrence:

    t_0 = 1,   t_{n+1} = t_n * z * prod(a_i + n) / ((n+1) * prod(b_j + n))

Status codes: 0 = stop rule met, 1 = cap reached.
"""

from __future__ import annotations

import numpy as np

# Only the pure Python/numpy path exists; perfbench/run.py records this.
USE_NUMBA = False

STATUS_OK = 0
STATUS_CAP = 1


def series_sum(alphas, betas, z, tol, cap, min_terms):
    """Truncated sum of the component series at argument z.

    Stops once three consecutive terms fall below tol * |partial sum|
    and at least min_terms terms have been added (a single small term
    can be an accidental zero, not convergence).  Returns
    (value, terms_used, tail_estimate, status); the tail is the
    geometric majorant |t_N| * r / (1 - r) built from the next term
    ratio r.
    """
    p = alphas.shape[0]
    q = betas.shape[0]
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    below = 0
    n = 0
    while n < cap:
        num = 1.0 + 0.0j
        for i in range(p):
            num = num * (alphas[i] + n)
        den = n + 1.0 + 0.0j
        for j in range(q):
            den = den * (betas[j] + n)
        term = term * (z * (num / den))
        total = total + term
        n += 1
        if abs(term) <= tol * abs(total):
            below += 1
            if below >= 3 and n >= min_terms:
                rnum = 1.0
                for i in range(p):
                    rnum = rnum * abs(alphas[i] + n)
                rden = n + 1.0
                for j in range(q):
                    rden = rden * abs(betas[j] + n)
                r = abs(z) * rnum / rden
                if r < 1.0:
                    tail = abs(term) * r / (1.0 - r)
                else:
                    tail = np.inf
                return total, n + 1, tail, STATUS_OK
        else:
            below = 0
    return total, n + 1, np.inf, STATUS_CAP


def series_sum_terminating(alphas, betas, z, last_n):
    """Exact sum of a terminating series: terms n = 0 .. last_n inclusive."""
    p = alphas.shape[0]
    q = betas.shape[0]
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for n in range(last_n):
        num = 1.0 + 0.0j
        for i in range(p):
            num = num * (alphas[i] + n)
        den = n + 1.0 + 0.0j
        for j in range(q):
            den = den * (betas[j] + n)
        term = term * (z * (num / den))
        total = total + term
    return total


def coeff_table(alphas, betas, count):
    """Series coefficients c_0 .. c_count via the term-ratio recurrence."""
    p = alphas.shape[0]
    q = betas.shape[0]
    out = np.empty(count + 1, dtype=np.complex128)
    c = 1.0 + 0.0j
    out[0] = c
    for n in range(count):
        num = 1.0 + 0.0j
        for i in range(p):
            num = num * (alphas[i] + n)
        den = n + 1.0 + 0.0j
        for j in range(q):
            den = den * (betas[j] + n)
        c = c * (num / den)
        out[n + 1] = c
    return out


def pochhammer(a, n):
    """Rising factorial (a)_n by the product recurrence."""
    out = 1.0 + 0.0j
    for k in range(n):
        out = out * (a + k)
    return out


def term_ratio(alphas, betas, n):
    """One-step coefficient ratio c_{n+1} / c_n = prod(a+n) / ((n+1) prod(b+n)).

    Exposed so ``identities.coefficient_recurrence_ulps`` checks the
    table against the same arithmetic that ``coeff_table`` used to
    build it, operation for operation.
    """
    num = 1.0 + 0.0j
    for i in range(alphas.shape[0]):
        num = num * (alphas[i] + n)
    den = n + 1.0 + 0.0j
    for j in range(betas.shape[0]):
        den = den * (betas[j] + n)
    return num / den


def series_sum_many(alphas, betas, zs, tol, cap, min_terms=8):
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
        num = 1.0 + 0.0j
        for a in alphas:
            num = num * (a + n)
        den = n + 1.0 + 0.0j
        for b in betas:
            den = den * (b + n)
        term = term * (z * (num / den))
        total = total + term
        n += 1
        small = np.abs(term) <= tol * np.abs(total)
        below = np.where(small, below + 1, 0)
        if n < min_terms:
            continue
        done = below >= 3
        if done.any():
            rnum = 1.0
            for a in alphas:
                rnum = rnum * abs(a + n)
            rden = n + 1.0
            for b in betas:
                rden = rden * abs(b + n)
            r = np.abs(z[done]) * rnum / rden
            out = live[done]
            values[out] = total[done]
            counts[out] = n + 1
            tails[out] = np.where(r < 1.0, np.abs(term[done]) * r / (1.0 - r), np.inf)
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
    n = np.arange(cap, dtype=np.float64)
    num = np.ones(cap, dtype=np.complex128)
    for a in alphas:
        num = num * (a + n)
    den = (n + 1.0).astype(np.complex128)
    for b in betas:
        den = den * (b + n)
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
