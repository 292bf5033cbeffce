"""Branch-and-bound over the LP core: exact discard models and
semi-continuous portfolio variables.

The exact discard model attaches one binary Z_s per scenario row,

    r_s . x >= alpha - M_s Z_s,     sum_s Z_s <= k,

so the search picks the best k rows to sacrifice.  M_s is tight on the unit
simplex: the worst value of alpha - r_s . x over feasible x is
alpha - min_j r_sj, clipped at zero and padded slightly.

Search strategy: best-bound selection from one queue of open nodes keyed
by minus their bound, branching on the most fractional binary; while there
is no incumbent the rounded child is keyed -inf, so the search dives to a
first incumbent.  The root is pushed solved, and every other node is solved
when taken, after one clock check, warm-started from its parent's basis at
the cost of a handful of dual pivots.
"""

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .errors import ConfigError, InfeasibleModel, check_memory
from .reports import STATUS_OK, STATUS_TIME_LIMIT, SolveReport, WorkingSet
from .saa import ScenarioSet, evaluate_outcomes

_INTEGRALITY_TOL = 1e-6
GAP = 1e-4          # relative gap at which branch-and-bound stops
DEFAULT_TIME_LIMIT = 3600.0


@dataclass(frozen=True)
class SemiContinuousSpec:
    """Invest-or-nothing band: each targeted column is 0 or in [lower, upper]."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower < self.upper < 1.0):
            raise ValueError(f"need 0 < l < u < 1, got l={self.lower}, u={self.upper}")


@dataclass
class MipModel:
    base: lp.LpModel
    binaries: list
    semicontinuous_cols: dict = field(default_factory=dict)   # col -> indicator

    def __post_init__(self):
        self.binaries = sorted(int(j) for j in set(self.binaries))
        for j in self.binaries:
            if not (self.base.lb[j] >= 0.0 and self.base.ub[j] <= 1.0):
                raise ValueError(f"binary column {j} must have bounds within [0,1]")


@dataclass
class MipResult:
    status: str                     # optimal | infeasible | time_limit
    x: np.ndarray
    objective_value: float
    node_count: int
    lp_solves: int
    root_bound: float
    gap: float
    hit_time_limit: bool


def big_m_values(scenarios: ScenarioSet, alpha: float) -> np.ndarray:
    """Per-scenario constants, tight over the unit simplex."""
    return np.maximum(0.0, alpha - scenarios.returns.min(axis=1)) + 1e-6


def build_saa_bigm(scenarios: ScenarioSet, alpha: float, k: int,
                   objective) -> MipModel:
    """Exact N-scenario, k-discard model with one binary per scenario;
    ConfigError, before anything is allocated, when its dense (N+2) x (N+n)
    matrix exceeds the machine's physical memory."""
    c = np.asarray(objective, dtype=float).ravel()
    N, n = scenarios.n_scenarios, scenarios.n_assets
    if c.size != n:
        raise ValueError(f"objective has dimension {c.size}, expected {n}")
    if not 0 <= k < N:
        raise ValueError(f"need 0 <= k < N, got k={k}, N={N}")
    check_memory(8 * (N + 2) * (N + n), f"the big-M model at N={N}")
    M = big_m_values(scenarios, alpha)
    model = lp.LpModel(np.concatenate([c, np.zeros(N)]),
                       lower=np.zeros(n + N),
                       upper=np.concatenate([np.full(n, np.inf), np.ones(N)]))
    ones = np.concatenate([np.ones(n), np.zeros(N)])
    model.add_row(ones, "=", 1.0)
    for s in range(N):
        row = np.zeros(n + N)
        row[:n] = scenarios.returns[s]
        row[n + s] = M[s]
        model.add_row(row, ">=", alpha)
    card = np.concatenate([np.zeros(n), np.ones(N)])
    model.add_row(card, "<=", float(k))
    return MipModel(base=model, binaries=list(range(n, n + N)))


def apply_semicontinuous(model: MipModel, spec: SemiContinuousSpec,
                         columns) -> list:
    """Attach indicator binaries forcing each column into {0} u [l, u].

    Adds, per column i, a fresh binary y_i and the rows
    ``x_i - l y_i >= 0`` and ``x_i - u y_i <= 0``.  Returns the new binary
    column indices.  Applying twice to the same column is rejected.
    """
    base = model.base
    cols = [int(j) for j in columns]
    for j in cols:
        if not 0 <= j < base.n_cols:
            raise ValueError(f"column {j} out of range")
        if j in model.semicontinuous_cols:
            raise ValueError(f"column {j} already has a semi-continuous indicator")
    fresh = base.add_columns(np.zeros(len(cols)), np.zeros(len(cols)),
                             np.ones(len(cols)))
    for j, y in zip(cols, fresh):
        lo_row = np.zeros(base.n_cols)
        lo_row[j] = 1.0
        lo_row[y] = -spec.lower
        base.add_row(lo_row, ">=", 0.0)
        hi_row = np.zeros(base.n_cols)
        hi_row[j] = 1.0
        hi_row[y] = -spec.upper
        base.add_row(hi_row, "<=", 0.0)
        model.semicontinuous_cols[j] = y
        model.binaries.append(y)
    model.binaries = sorted(set(model.binaries))
    return fresh


def banded(model: MipModel, semi: SemiContinuousSpec, n_assets: int,
           cash_index: int | None) -> MipModel:
    """``model`` with each of its first ``n_assets`` columns but cash in
    ``semi``'s band; raises ConfigError without a cash column."""
    if cash_index is None:
        raise ConfigError("semi-continuous models need the cash column index")
    apply_semicontinuous(model, semi, [j for j in range(n_assets) if j != cash_index])
    return model


# ----------------------------------------------------------------------

def _fractionality(x, binaries):
    xb = x[np.asarray(binaries, dtype=np.intp)]
    return np.minimum(np.abs(xb), np.abs(xb - 1.0))


def _fractional(x, binaries):
    """The first most fractional binary, or -1 when all are integral."""
    f = _fractionality(x, binaries)
    if f.size == 0 or f.max() <= _INTEGRALITY_TOL:
        return -1
    return binaries[int(np.argmax(f))]


def _incumbent_valid(model: MipModel, x) -> bool:
    base = model.base
    if x is None or x.shape != (base.n_cols,):
        return False
    if np.any(x < base.lb - 1e-9) or np.any(x > base.ub + 1e-9):
        return False
    if np.any(_fractionality(x, model.binaries) > _INTEGRALITY_TOL):
        return False
    # each alive row's slack rhs - a.x within its relation's limits
    ids = base.row_ids()
    s = base._rhs[ids] - lp.support_product(base._A[: base._n_slots], x)[ids]
    return not np.any((s < base._slo[ids] - 1e-7) | (s > base._shi[ids] + 1e-7))


def mip_solve(model: MipModel, warm=None,
              time_limit: float | None = DEFAULT_TIME_LIMIT) -> MipResult:
    """Solve the integer model to the configured relative gap.

    ``warm`` is an optional incumbent point from a previous, related solve;
    it is adopted only after passing feasibility and integrality screening.
    At the time limit (None: none) the best incumbent is returned, flagged.
    Open nodes wait in one heap keyed by minus their bound; while there is
    no incumbent a branched node's rounded child is keyed -inf instead, so
    it is taken next (the dive).  The root is pushed solved; every other
    node is solved when taken, after one clock check, its binary bounds (the
    original ones with its fixings patched in) going to the model in one
    ``set_bounds`` call.
    """
    base = model.base
    t0 = time.perf_counter()
    solves_before = base.stats.solves

    binaries = np.asarray(model.binaries, dtype=np.intp)
    lower, upper = base.lb[binaries], base.ub[binaries]

    def set_patch(patch):
        lo, hi = lower.copy(), upper.copy()
        if patch:
            at = np.searchsorted(binaries, list(patch))
            lo[at], hi[at] = np.array(list(patch.values()), dtype=float).T
        base.set_bounds(binaries, lo, hi)

    incumbent_x, incumbent_obj, searched = None, -np.inf, False
    if warm is not None:
        w = np.asarray(warm, dtype=float)
        if _incumbent_valid(model, w):
            incumbent_x, incumbent_obj = w.copy(), float(base.obj @ w)

    root = lp.lp_solve(base)
    nodes = 1
    if root.status != lp.OPTIMAL:
        set_patch({})
        return MipResult(root.status, root.x, float("nan"), nodes,
                         base.stats.solves - solves_before, float("nan"),
                         float("nan"), False)
    root_bound = root.objective_value

    def gap_abs():
        return GAP * max(1.0, abs(incumbent_obj))

    # (key, tie, patch, bound, basis to warm-start from, solution or None)
    heap = [(-root_bound, 0, {}, root_bound, None, root)]
    tie = 0
    hit_limit = False

    while heap:
        if time_limit is not None and time.perf_counter() - t0 > time_limit:
            hit_limit = True
            break
        _, _, patch, bound, basis, sol = heapq.heappop(heap)
        if incumbent_x is not None and bound <= incumbent_obj + gap_abs():
            continue
        if sol is None:
            set_patch(patch)
            sol = lp.lp_solve(base, warm=basis)
            nodes += 1
            if sol.status != lp.OPTIMAL:
                continue
            if incumbent_x is not None and sol.objective_value <= incumbent_obj + gap_abs():
                continue
        j = _fractional(sol.x, model.binaries)
        if j < 0:
            if sol.objective_value > incumbent_obj:
                incumbent_x = sol.x.copy()
                incumbent_obj = sol.objective_value
                searched = True
            continue
        # far child, then near: equal keys are taken in push order
        near = 1.0 if sol.x[j] >= 0.5 else 0.0
        for fix in (1.0 - near, near):
            tie += 1
            key = -np.inf if fix == near and incumbent_x is None else -sol.objective_value
            heapq.heappush(heap, (key, tie, {**patch, j: (fix, fix)},
                                  sol.objective_value, sol.basis, None))

    # the best open node bounds what the search left unexplored
    best_bound = max([incumbent_obj] + [e[3] for e in heap])

    set_patch({})
    lp_solves = base.stats.solves - solves_before
    if incumbent_x is None:
        status = STATUS_TIME_LIMIT if hit_limit else lp.INFEASIBLE
        return MipResult(status, root.x, float("nan"), nodes, lp_solves,
                         root_bound, float("nan"), hit_limit)
    gap = max(0.0, best_bound - incumbent_obj) / max(1.0, abs(incumbent_obj))
    status = STATUS_TIME_LIMIT if hit_limit else lp.OPTIMAL
    if not searched:
        # The incumbent came from the warm hint.  Solving at its fixings
        # leaves the engine at its vertex, and the next master of a
        # heuristic warm-starts from there: without this solve banded rap
        # at N=1e4 keeps the same x but needs over twice the nodes.
        set_patch({j: (round(incumbent_x[j]), round(incumbent_x[j]))
                   for j in model.binaries})
        lp.lp_solve(base)
        set_patch({})
    return MipResult(status, incumbent_x, incumbent_obj, nodes, lp_solves,
                     root_bound, gap, hit_limit)


def exact_mip(scenarios: ScenarioSet, spec, budget, semi=None,
              time_limit=None, seed=None) -> SolveReport:
    """The exact baseline ``exact-mip``: the big-M model over every scenario,
    solved by branch-and-bound (``time_limit`` None: no limit).

    A solve stopped at its time limit reports its incumbent, or without one
    the root relaxation's x and its objective c . x, with status
    ``time_limit``; an infeasible model raises InfeasibleModel.
    """
    t0 = time.perf_counter()
    model = build_saa_bigm(scenarios, spec.alpha, budget.k_removals,
                           spec.objective)
    if semi is not None:
        banded(model, semi, scenarios.n_assets, spec.cash_index)
    res = mip_solve(model, time_limit=time_limit)
    if res.status not in (lp.OPTIMAL, STATUS_TIME_LIMIT):
        raise InfeasibleModel(f"exact big-M model is {res.status}")
    x = res.x[: scenarios.n_assets]
    objective = res.objective_value
    if np.isnan(objective):         # no incumbent
        objective = float(spec.objective @ x)
    return SolveReport(
        method="exact-mip", x=x, objective=objective,
        working_set=WorkingSet(), lp_solves=res.lp_solves,
        mip_nodes=res.node_count, wall_time=time.perf_counter() - t0,
        train_violations=evaluate_outcomes(x, scenarios, spec).violation_count,
        seed=seed,
        status=STATUS_OK if res.status == lp.OPTIMAL else STATUS_TIME_LIMIT)
