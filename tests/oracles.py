"""Independent reference implementations used only to cross-check results.

Everything here deliberately avoids the library's own algorithms: LPs are
checked by enumerating candidate vertices, binomial limits by the beta
quantile (itself cross-checked by bisection on the exact CDF), normal quantiles by bisection on an mpmath-evaluated CDF, and
certificate bounds by exact rational arithmetic.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import mpmath
import numpy as np
from scipy.stats import beta


def vertex_enumeration_lp(c, rows, rels, rhs, lb, ub, tol=1e-9):
    """Maximize c.x over {lb<=x<=ub, rows} by enumerating basic points.

    Candidate points come from all choices of n tight constraints among the
    rows and the finite bounds.  Returns (best_value, best_x) or (None, None)
    when no candidate is feasible (which for a bounded feasible region means
    infeasibility).
    """
    c = np.asarray(c, float)
    A = np.asarray(rows, float).reshape(-1, c.size)
    rhs = np.asarray(rhs, float)
    n = c.size

    cons = [(A[i], rhs[i]) for i in range(A.shape[0])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lb[j]):
            cons.append((e.copy(), lb[j]))
        if np.isfinite(ub[j]):
            cons.append((e.copy(), ub[j]))

    def feasible(x):
        if np.any(x < lb - tol) or np.any(x > ub + tol):
            return False
        for a, rel, b in zip(A, rels, rhs):
            v = a @ x
            if rel == "<=" and v > b + tol:
                return False
            if rel == ">=" and v < b - tol:
                return False
            if rel in ("=", "==") and abs(v - b) > tol:
                return False
        return True

    best_v, best_x = None, None
    for pick in combinations(range(len(cons)), n):
        M = np.array([cons[i][0] for i in pick])
        d = np.array([cons[i][1] for i in pick])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, d)
        if feasible(x):
            v = float(c @ x)
            if best_v is None or v > best_v:
                best_v, best_x = v, x
    return best_v, best_x


def clopper_pearson_upper(violations, trials, confidence):
    """Exact one-sided upper limit in closed form: the beta quantile at
    ``confidence`` with parameters (violations + 1, trials - violations)."""
    if violations >= trials:
        return 1.0
    return float(beta.ppf(confidence, violations + 1, trials - violations))


def clopper_pearson_upper_bisect(violations, trials, confidence, tol=1e-12):
    """Exact one-sided upper limit by bisection on the binomial lower tail."""
    if violations >= trials:
        return 1.0
    alpha = 1.0 - confidence

    def lower_tail(p):
        # P[X <= violations] for X ~ Bin(trials, p), evaluated in mpmath
        mp = mpmath.mpf(p)
        return float(sum(mpmath.binomial(trials, j) * mp**j * (1 - mp)**(trials - j)
                         for j in range(violations + 1)))

    lo, hi = violations / trials, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if lower_tail(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def normal_quantile_bisect(p, prec=40):
    """Invert the normal CDF by bisection on an mpmath erf evaluation."""
    with mpmath.workdps(prec):
        target = mpmath.mpf(p)

        def cdf(z):
            return 0.5 * mpmath.erfc(-z / mpmath.sqrt(2))

        lo, hi = mpmath.mpf(-12), mpmath.mpf(12)
        for _ in range(200):
            mid = (lo + hi) / 2
            if cdf(mid) < target:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def certificate_log10_exact(n_scenarios, k, eps_frac: Fraction, n_dims):
    """Exact rational evaluation of the discard certificate, as log10.

    Mirrors the tight series limit J = k + n - 1 (truncated at N) and the
    clip of the bound at one.
    """
    N = n_scenarios
    J = min(k + n_dims - 1, N)
    total = Fraction(0)
    for j in range(J + 1):
        total += comb(N, j) * eps_frac**j * (1 - eps_frac)**(N - j)
    total *= comb(k + n_dims - 1, k)
    total = min(total, Fraction(1))
    with mpmath.workdps(60):
        v = mpmath.mpf(total.numerator) / mpmath.mpf(total.denominator)
        return float(mpmath.log10(v))
