"""Scenario-program abstraction: scenario data, outcome ranking, certification.

A scenario program enforces, for each sampled return vector r_i, the row
``r_i . x >= alpha`` on top of the budget constraint ``sum(x) = 1`` and
``x >= 0``.  The outcome of scenario i at a point x is ``O_i = alpha - r_i . x``;
positive outcomes are violations.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import lp
from .certificate import ScenarioBudget

# An outcome counts as a violation only beyond the LP feasibility tolerance:
# binding rows at an optimum evaluate to zero only up to rounding, and a row
# the solver holds satisfied must not be counted violated by the evaluator.
VIOLATION_TOL = 1e-9
# An x with few nonzero assets is evaluated over its support in row blocks
# that stay in cache; one with over a third of them (or none) takes BLAS.
_BLOCK = 32_768
_DENSE_SHARE = 1 / 3
# One worker per core and per _RUN_BLOCKS blocks claims blocks: helpers from
# 8 blocks on. Two threads broke even near 7 blocks on a 2-core machine: 5%
# slower at 6, 6% faster at 8 and 28% faster at 31 (N = 1e6).
_RUN_BLOCKS = 4


@dataclass(frozen=True)
class ScenarioSet:
    """An N x n matrix of sampled returns, one row per scenario, stored
    column-major so that each asset's column is contiguous."""

    returns: np.ndarray
    provenance: str = "unknown"

    def __post_init__(self):
        r = np.asarray(self.returns, dtype=float)
        if r.ndim != 2 or r.shape[0] < 1:
            raise ValueError("returns must be a non-empty N x n matrix")
        # a view: a caller's column-major array is stored, not its flags
        r = np.asfortranarray(r).view()
        # one column at a time: no N x n boolean temporary
        if not all(np.isfinite(col).all() for col in r.T):
            raise ValueError("returns must be finite")
        r.setflags(write=False)
        object.__setattr__(self, "returns", r)

    @property
    def n_scenarios(self) -> int:
        return self.returns.shape[0]

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]


@dataclass(frozen=True)
class ChanceProgramSpec:
    """Loss threshold, objective coefficients, and optional cash column.

    ``alpha`` is the portfolio-value floor: a scenario is violated when the
    realized return falls below it.  Note one convention trap: some sources
    quote the loss fraction (e.g. 0.05) rather than the floor (0.95); this
    type always stores the floor.
    """

    alpha: float
    objective: np.ndarray
    cash_index: int | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).ravel()
        if not np.all(np.isfinite(c)):
            raise ValueError("objective must be finite")
        object.__setattr__(self, "objective", c)
        if self.cash_index is not None:
            if not 0 <= self.cash_index < c.size:
                raise ValueError("cash_index out of range")
            if self.alpha > 1.0:
                raise ValueError("alpha > 1 breaks the all-cash feasibility guarantee")

    @property
    def n_assets(self) -> int:
        return self.objective.size


class OutcomeVector:
    """Per-scenario violation values with ranked views.

    ``violated``, the violated scenarios ascending, comes from the workers
    of ``evaluate_outcomes``'s per-call thread pool, which claim blocks from
    a shared counter, or else from one pass over the values. ``ranked``
    orders them by outcome, largest first (ties by ascending index).
    """

    def __init__(self, values: np.ndarray, violated: np.ndarray | None = None):
        self.values = values
        self.violated = (np.flatnonzero(values > VIOLATION_TOL)
                         if violated is None else violated)
        self._ranked = None

    @property
    def violation_count(self) -> int:
        return int(self.violated.size)

    @property
    def ranked(self) -> np.ndarray:
        if self._ranked is None:
            idx = self.violated
            self._ranked = idx[_descending(self.values[idx])]
        return self._ranked

    def kth_ranked(self, rank: int):
        """(value, scenario) at a 1-based rank of the descending ordering.

        The ordering of ``ranked`` extended to every scenario (ties by
        ascending scenario index), found by partitioning: only the violated
        scenarios, when they reach the rank, else all N.
        """
        if not 1 <= rank <= self.values.size:
            raise ValueError(f"rank {rank} out of range 1..{self.values.size}")
        idx = (self.violated if rank <= self.violation_count
               else np.arange(self.values.size))
        v = self.values[idx]
        val = -np.partition(-v, rank - 1)[rank - 1]
        greater = int(np.count_nonzero(v > val))
        return float(val), int(idx[np.flatnonzero(v == val)[rank - greater - 1]])


def _descending(keys: np.ndarray) -> np.ndarray:
    """Positions of ``keys`` by descending value, then ascending position:
    the fast unstable sort, redone stably only when equal keys occur."""
    order = np.argsort(-keys)
    if np.any(np.diff(keys[order]) == 0):
        return np.argsort(-keys, kind="stable")
    return order


def _cores() -> int:
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def add_scenario_row(model: lp.LpModel, scenarios: ScenarioSet,
                     spec: ChanceProgramSpec, index: int) -> int:
    """Append the row ``r_index . x >= alpha``, zero on any extra columns
    (the indicator binaries of master models); returns its row id."""
    coeffs = np.zeros(model.n_cols)
    coeffs[: scenarios.n_assets] = scenarios.returns[index]
    return model.add_row(coeffs, ">=", spec.alpha)


def build_saa_lp(scenarios: ScenarioSet, spec: ChanceProgramSpec,
                 subset=None) -> lp.LpModel:
    """LP enforcing the budget row plus the given subset of scenario rows.

    ``subset=None`` enforces every scenario; an empty subset gives the fully
    relaxed program.  The budget row is added first, then one row per subset
    member in order, so row ids are 0 (budget) and 1..len(subset).
    """
    if scenarios.n_scenarios < 1:
        raise ValueError("empty scenario set")
    if spec.n_assets != scenarios.n_assets:
        raise ValueError("objective dimension does not match scenarios")
    model = lp.LpModel(spec.objective)          # x >= 0 by default
    model.add_row(np.ones(scenarios.n_assets), "=", 1.0)
    if subset is None:
        subset = range(scenarios.n_scenarios)
    idx = np.fromiter((int(i) for i in subset), dtype=np.int64)
    if idx.size:
        model.add_rows(scenarios.returns[idx], ">=",
                       np.full(idx.size, spec.alpha))
    return model


def evaluate_outcomes(x: np.ndarray, scenarios: ScenarioSet,
                      spec: ChanceProgramSpec) -> OutcomeVector:
    """O_i = alpha - r_i . x for every scenario, with ranking on demand.

    An x with few nonzero assets is read over their columns in row blocks
    that stay in cache, each block's violated set found while it is there.
    From 8 blocks on, helpers on a per-call thread pool claim blocks from a
    shared counter alongside the caller, one worker per core; the values
    and the violated set are the same bit for bit whoever claims a block."""
    x, support = _checked(x, scenarios.n_assets)
    r, N = scenarios.returns, scenarios.n_scenarios
    values = np.empty(N)
    if support is None:
        return OutcomeVector(values, _outcomes(r, x, None, spec.alpha, values))
    blocks = -(-N // _BLOCK)
    found = [None] * blocks
    # next() on a range iterator is atomic under CPython's GIL, so the
    # workers sharing it claim every block exactly once
    claims = iter(range(blocks))

    def work():
        term = np.empty(min(_BLOCK, N))
        for b in claims:
            lo = b * _BLOCK
            found[b] = lo + _outcomes(r[lo:lo + _BLOCK], x, support,
                                      spec.alpha, values[lo:lo + _BLOCK], term)

    helpers = min(_cores(), blocks // _RUN_BLOCKS) - 1
    if helpers < 1:
        work()
    else:
        with ThreadPoolExecutor(helpers) as pool:   # joined on leaving
            futures = [pool.submit(work) for _ in range(helpers)]
            work()
        for f in futures:
            f.result()      # raises a helper's exception
    return OutcomeVector(values, np.concatenate(found))


def count_violations(xs, blocks, spec: ChanceProgramSpec) -> list:
    """``evaluate_outcomes``' violation count of each x in ``xs`` on the rows
    of ``blocks`` stacked, in one pass over the blocks.  Every x is checked
    before the first block is read; a non-finite block is refused.  Blocks
    are read in slices of _BLOCK rows, each checked by its min and max."""
    checked = [_checked(x, spec.n_assets) for x in xs]
    counts = [0] * len(checked)
    for block in blocks:
        out, term = np.empty((2, min(len(block), _BLOCK)))
        for lo in range(0, len(block), _BLOCK):
            r = block[lo:lo + _BLOCK]
            if not (np.isfinite(r.min()) and np.isfinite(r.max())):
                raise ValueError("returns must be finite")
            for i, (x, support) in enumerate(checked):
                counts[i] += _outcomes(r, x, support, spec.alpha, out[:len(r)], term).size
    return counts


def _checked(x, n: int):
    """x, refused unless finite of dimension n, and its support, or None
    where over a third of its assets (or none) are nonzero: BLAS's product."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x has dimension {x.shape}, expected ({n},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    support = np.flatnonzero(x)
    return x, support if 0 < support.size <= _DENSE_SHARE * n else None


def _outcomes(r, x, support, alpha, out, term=None):
    """alpha - r @ x into ``out``, over ``support``'s columns of r or, with
    None, by BLAS's product; the positions of its violations."""
    if support is None:
        np.matmul(r, x, out=out)
    else:
        head, *rest = support
        np.multiply(r[:, head], x[head], out=out)
        for j in rest:
            out += np.multiply(r[:, j], x[j], out=term[:out.size])
    np.subtract(alpha, out, out=out)
    return np.nonzero(out > VIOLATION_TOL)[0]


def certify(x: np.ndarray, scenarios: ScenarioSet, budget: ScenarioBudget,
            spec: ChanceProgramSpec) -> bool:
    """True iff x violates at most ``budget.k_removals`` training scenarios."""
    return evaluate_outcomes(x, scenarios, spec).violation_count <= budget.k_removals
