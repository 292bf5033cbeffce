"""Independent checks of the solutions a benchmark run produced.

Every figure here is recomputed from raw arrays with numpy and scipy; nothing
calls into ccsaa, so a fault in the library cannot pass by agreeing with its
own helpers.  Each check raises ``CheckFailed`` on the first mismatch.
"""

import math

import numpy as np
from scipy import optimize, sparse, stats

# The problem's own definitions, restated: a scenario is violated when
# alpha - r.x exceeds VIOLATION_TOL, and an LP master row counts as met
# within the simplex engine's primal feasibility tolerance.
VIOLATION_TOL = 1e-9
ROW_TOL = 1e-7
SIMPLEX_TOL = 1e-9
LP_OBJECTIVE_TOL = 1e-7
MIP_GAP = 1e-4          # relative gap at which ccsaa's branch-and-bound stops


class CheckFailed(Exception):
    """A benchmark output disagrees with its independent recomputation."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def count_violations(returns, x, alpha):
    return int(np.count_nonzero(alpha - returns @ x > VIOLATION_TOL))


def check_solution(tag, x, objective, c, returns, alpha, k,
                   train_violations=None):
    """x lies on the simplex, objective is c.x, and at most k training
    scenarios are violated (exactly ``train_violations`` when given)."""
    x = np.asarray(x, dtype=float)
    _require(x.shape == c.shape, f"{tag}: x has shape {x.shape}")
    _require(bool(np.all(np.isfinite(x))), f"{tag}: x is not finite")
    _require(x.min() >= -SIMPLEX_TOL, f"{tag}: x has a negative entry {x.min()!r}")
    _require(abs(x.sum() - 1.0) <= SIMPLEX_TOL,
             f"{tag}: sum(x) = {x.sum()!r}, not 1")
    _require(abs(objective - c @ x) <= SIMPLEX_TOL * max(1.0, abs(objective)),
             f"{tag}: objective {objective!r} but c.x = {c @ x!r}")
    count = count_violations(returns, x, alpha)
    if train_violations is not None:
        _require(count == train_violations,
                 f"{tag}: reports {train_violations} training violations, "
                 f"numpy counts {count}")
    _require(count <= k, f"{tag}: {count} training violations exceed k = {k}")


def check_working_set_lp(tag, x, objective, c, rows, alpha):
    """x meets every working-set row, and the objective is the HiGHS optimum
    of the LP over those rows."""
    rows = np.asarray(rows, dtype=float).reshape(-1, c.size)
    if len(rows):
        worst = float((rows @ x - alpha).min())
        _require(worst >= -ROW_TOL, f"{tag}: a working-set row is violated by {-worst!r}")
    res = optimize.linprog(-c, A_ub=-rows if len(rows) else None,
                           b_ub=np.full(len(rows), -alpha) if len(rows) else None,
                           A_eq=np.ones((1, c.size)), b_eq=[1.0],
                           bounds=[(0.0, None)] * c.size, method="highs")
    _require(res.status == 0, f"{tag}: HiGHS could not solve the working-set LP "
                              f"({res.message})")
    _require(abs(-res.fun - objective) <= LP_OBJECTIVE_TOL,
             f"{tag}: objective {objective!r}, HiGHS gives {-res.fun!r}")


def _gap(objective):
    return MIP_GAP * max(1.0, abs(objective))


def check_band_mip(tag, x, objective, c, rows, alpha, lower, upper, cash_index):
    """Semi-continuous master: every non-cash holding is 0 or inside
    [lower, upper], and the objective is within the B&B gap of the HiGHS
    optimum of the band MIP over the working-set rows."""
    n = c.size
    risky = [j for j in range(n) if j != cash_index]
    held = x[risky]
    off_band = (held > ROW_TOL) & ((held < lower - ROW_TOL) | (held > upper + ROW_TOL))
    _require(not off_band.any(), f"{tag}: holdings outside the band {held[off_band]}")
    rows = np.asarray(rows, dtype=float).reshape(-1, n)
    if len(rows):
        worst = float((rows @ x - alpha).min())
        _require(worst >= -ROW_TOL, f"{tag}: a working-set row is violated by {-worst!r}")
    m = len(risky)
    # variables: x (n), y (one indicator per risky column)
    link = np.zeros((2 * m, n + m))
    for i, j in enumerate(risky):
        link[2 * i, j], link[2 * i, n + i] = 1.0, -lower
        link[2 * i + 1, j], link[2 * i + 1, n + i] = 1.0, -upper
    constraints = [
        optimize.LinearConstraint(np.hstack([np.ones(n), np.zeros(m)])[None, :], 1.0, 1.0),
        optimize.LinearConstraint(link[0::2], 0.0, np.inf),
        optimize.LinearConstraint(link[1::2], -np.inf, 0.0),
    ]
    if len(rows):
        constraints.append(optimize.LinearConstraint(
            np.hstack([rows, np.zeros((len(rows), m))]), alpha, np.inf))
    res = optimize.milp(
        np.concatenate([-c, np.zeros(m)]), constraints=constraints,
        integrality=np.concatenate([np.zeros(n), np.ones(m)]),
        bounds=optimize.Bounds(np.zeros(n + m),
                               np.concatenate([np.full(n, np.inf), np.ones(m)])),
        options={"mip_rel_gap": 1e-9})
    _require(res.status == 0, f"{tag}: HiGHS could not solve the band MIP ({res.message})")
    best, bound = -res.fun, -res.mip_dual_bound
    _require(best - _gap(best) - LP_OBJECTIVE_TOL <= objective <= bound + LP_OBJECTIVE_TOL,
             f"{tag}: objective {objective!r}, HiGHS band optimum {best!r} (bound {bound!r})")


def check_exact(tag, x_full, objective, c, returns, alpha, k, heuristic_objectives):
    """Big-M branch-and-bound: the binaries are integral, choose at most k
    discards, every kept row holds, the objective is within the gap of the
    HiGHS optimum of the same model, and no heuristic beats it."""
    N, n = returns.shape
    x, z = x_full[:n], x_full[n:]
    _require(z.shape == (N,), f"{tag}: expected {N} binaries, got {z.shape}")
    _require(bool(np.all(np.minimum(np.abs(z), np.abs(z - 1.0)) <= 1e-6)),
             f"{tag}: fractional discard binaries")
    discard = z > 0.5
    _require(int(discard.sum()) <= k, f"{tag}: {int(discard.sum())} discards exceed k = {k}")
    kept = returns[~discard] @ x - alpha
    _require(kept.min() >= -ROW_TOL, f"{tag}: a kept scenario is violated by {-kept.min()!r}")
    big_m = np.maximum(0.0, alpha - returns.min(axis=1)) + 1e-6
    rows = sparse.hstack([sparse.csr_matrix(returns), sparse.diags(big_m)]).tocsr()
    res = optimize.milp(
        np.concatenate([-c, np.zeros(N)]),
        constraints=[
            optimize.LinearConstraint(np.concatenate([np.ones(n), np.zeros(N)])[None, :], 1.0, 1.0),
            optimize.LinearConstraint(rows, alpha, np.inf),
            optimize.LinearConstraint(np.concatenate([np.zeros(n), np.ones(N)])[None, :], 0.0, k),
        ],
        integrality=np.concatenate([np.zeros(n), np.ones(N)]),
        bounds=optimize.Bounds(np.zeros(n + N),
                               np.concatenate([np.full(n, np.inf), np.ones(N)])),
        # HiGHS presolve spends seconds on this model without shrinking it
        options={"mip_rel_gap": 1e-9, "presolve": False})
    _require(res.status == 0, f"{tag}: HiGHS could not solve the big-M model ({res.message})")
    best, bound = -res.fun, -res.mip_dual_bound
    _require(best - _gap(best) - LP_OBJECTIVE_TOL <= objective <= bound + LP_OBJECTIVE_TOL,
             f"{tag}: objective {objective!r}, HiGHS optimum {best!r} (bound {bound!r})")
    for method, value in heuristic_objectives.items():
        _require(value <= objective + _gap(objective) + LP_OBJECTIVE_TOL,
                 f"{tag}: heuristic {method} reaches {value!r}, above {objective!r}")


def cg_log_bound(n_scenarios, k, epsilon, n_dims):
    """Natural log of C(k+n-1, k) * P[Binomial(N, eps) <= k+n-1]."""
    top = min(k + n_dims - 1, n_scenarios)
    log_comb = math.lgamma(k + n_dims) - math.lgamma(k + 1) - math.lgamma(n_dims)
    return log_comb + float(stats.binom.logcdf(top, n_scenarios, epsilon))


def check_budget(tag, n_scenarios, k, epsilon, beta, n_dims, beta_achieved):
    """k is the largest discard count the Campi-Garatti bound certifies."""
    log_beta = math.log(beta)
    at_k = cg_log_bound(n_scenarios, k, epsilon, n_dims)
    _require(at_k <= log_beta, f"{tag}: k = {k} gives bound {math.exp(at_k)!r} > beta")
    if k + 1 < n_scenarios:
        above = cg_log_bound(n_scenarios, k + 1, epsilon, n_dims)
        _require(above > log_beta,
                 f"{tag}: k + 1 = {k + 1} still certifies (bound {math.exp(above)!r})")
    _require(math.isclose(math.exp(at_k), beta_achieved, rel_tol=1e-6),
             f"{tag}: reported beta {beta_achieved!r}, scipy gives {math.exp(at_k)!r}")


def wilson_upper(violations, trials, confidence):
    if violations == trials:
        return 1.0
    z = float(stats.norm.ppf(confidence))
    p = violations / trials
    center = p + z * z / (2 * trials)
    margin = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return min(1.0, (center + margin) / (1 + z * z / trials))


def draw_scenarios(mean, chol, size, seed):
    """A scenario set drawn the way ccsaa documents its sampler: mean + L z,
    z standard normal rows from numpy's default generator with that seed."""
    z = np.random.default_rng(seed).standard_normal((size, mean.size))
    return mean + z @ chol.T


def check_validation(tag, x, rate, upper, test_returns, alpha, beta,
                     epsilon=None):
    """The out-of-sample rate and its Wilson limit match a recount on the
    test set; a certified solution (``epsilon`` given) stays within it."""
    trials = len(test_returns)
    count = count_violations(test_returns, np.asarray(x, dtype=float), alpha)
    _require(rate == count / trials,
             f"{tag}: out-of-sample rate {rate!r}, recount gives {count / trials!r}")
    expected = wilson_upper(count, trials, 1.0 - beta)
    _require(math.isclose(upper, expected, rel_tol=1e-9),
             f"{tag}: Wilson limit {upper!r}, scipy gives {expected!r}")
    _require(upper >= rate, f"{tag}: Wilson limit {upper!r} below the rate {rate!r}")
    if epsilon is not None:
        _require(rate <= epsilon,
                 f"{tag}: certified solution violates {rate!r} > epsilon {epsilon!r}")
