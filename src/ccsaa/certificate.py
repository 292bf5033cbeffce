"""Scenario-budget certificates and binomial validation limits.

Implements the Campi--Garatti feasibility bound for sampled programs with
constraint discarding: a solution of the N-scenario program with k discarded
scenarios is feasible for the true chance constraint at risk epsilon with
confidence 1 - beta whenever

    C(k+n-1, k) * sum_{j=0}^{J} C(N,j) eps^j (1-eps)^(N-j)  <=  beta.

Two conventions for the series limit J circulate: the tight Campi--Garatti
limit J = k+n-1 and a looser printed variant J = k+n+1.  Both are available
behind ``sum_limit``; the default is ``"campi"`` because it reproduces the
published reference grid of (N, k, beta) values row-by-row (the ``"paper"``
variant is off by two to three orders of magnitude on that grid).

Everything is evaluated in log space (log-gamma binomials, log-sum-exp
series) so N up to 1e6 is routine.
"""

import bisect
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._normal import inv_norm_cdf
from .errors import NoFeasibleBudget

LOG10_E = float(1.0 / np.log(10.0))

SUM_LIMITS = ("campi", "paper")


@dataclass(frozen=True)
class RiskSpec:
    """Risk level, confidence parameter, and decision dimension."""

    epsilon: float
    beta: float
    n_dims: int

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0,1), got {self.epsilon}")
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must be in (0,1), got {self.beta}")
        if self.n_dims < 1:
            raise ValueError(f"n_dims must be >= 1, got {self.n_dims}")


@dataclass(frozen=True)
class ScenarioBudget:
    """A validated (N, k) pair with the certificate value it achieves."""

    n_scenarios: int
    k_removals: int
    beta_achieved: float

    def __post_init__(self):
        if self.n_scenarios < 1:
            raise ValueError("n_scenarios must be positive")
        if not (0 <= self.k_removals < self.n_scenarios):
            raise ValueError("need 0 <= k_removals < n_scenarios")

    @property
    def discard_fraction(self) -> float:
        return self.k_removals / self.n_scenarios


def _log_binom(n, k):
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def cg_log_beta(n_scenarios: int, k_removals: int, spec: RiskSpec,
                sum_limit: str = "campi") -> float:
    """log10 of the certificate bound for (N, k) under ``spec``.

    The series limit is min(J, N) with J = k+n-1 ("campi", default) or
    J = k+n+1 ("paper").
    """
    N, k, n = int(n_scenarios), int(k_removals), spec.n_dims
    if N < 1:
        raise ValueError("n_scenarios must be positive")
    if not 0 <= k < N:
        raise ValueError(f"need 0 <= k < N, got k={k}, N={N}")
    if sum_limit not in SUM_LIMITS:
        raise ValueError(f"sum_limit must be one of {SUM_LIMITS}")
    upper = k + n - 1 if sum_limit == "campi" else k + n + 1
    upper = min(upper, N)
    eps = spec.epsilon
    j = np.arange(0, upper + 1)
    terms = _log_binom(float(N), j.astype(float)) + j * np.log(eps) + (N - j) * np.log1p(-eps)
    peak = terms.max()
    log_series = peak + np.log(np.exp(terms - peak).sum())
    log_total = _log_binom(float(k + n - 1), float(k)) + log_series
    # The bound is a probability; clip tiny log-sum-exp overshoot above 1.
    return float(min(log_total, 0.0)) * LOG10_E


def max_removals(n_scenarios: int, spec: RiskSpec, sum_limit: str = "campi") -> ScenarioBudget:
    """Largest k whose certificate stays within spec.beta, as a budget.

    The bound is monotone increasing in k, so an exponential growth phase
    followed by binary search needs only O(log N) bound evaluations.

    Raises NoFeasibleBudget when even k=0 exceeds beta.
    """
    N = int(n_scenarios)
    target = np.log10(spec.beta)

    def ok(k):
        return cg_log_beta(N, k, spec, sum_limit) <= target

    if not ok(0):
        raise NoFeasibleBudget(
            f"k=0 already exceeds beta={spec.beta} at N={N} "
            f"(log10 bound {cg_log_beta(N, 0, spec, sum_limit):.3f})")
    hi = 1
    while hi < N and ok(min(hi, N - 1)):
        hi *= 2
    hi = min(hi, N - 1)
    lo = hi // 2 if hi > 1 else 0
    # ok(lo) holds: the largest feasible k precedes the first infeasible one
    k = bisect.bisect_left(range(hi + 1), True, lo=lo + 1,
                           key=lambda j: not ok(j)) - 1
    return ScenarioBudget(N, k, float(10.0 ** cg_log_beta(N, k, spec, sum_limit)))


def binomial_upper_limit(violations: int, trials: int, confidence: float) -> float:
    """One-sided upper confidence limit for a binomial proportion.

    Wilson score upper limit (closed form).  Agrees with a Clopper--Pearson
    bisection to a few 1e-4 at the sample sizes used for validation, and is
    monotone in the count and in the sample size at a fixed ratio.
    """
    if not 0 <= violations <= trials:
        raise ValueError(f"need 0 <= violations <= trials, got {violations}/{trials}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0,1)")
    if violations == trials:
        return 1.0
    z = inv_norm_cdf(confidence)
    phat = violations / trials
    z2 = z * z
    center = phat + z2 / (2.0 * trials)
    margin = z * np.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return float(min(1.0, (center + margin) / (1.0 + z2 / trials)))
