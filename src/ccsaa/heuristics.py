"""Constraint-discard heuristics for the k-relaxed scenario program.

Each published method is a pick rule over one of three shared loops.
_removal starts by keeping every scenario and drops one per round, k rounds:
  greedy_removal      trial-removes every binding row, keeps the best (GR-P)
  random_removal      drops a random binding row (RA-P)
  dual_greedy_removal drops the binding row with the largest |dual| (FGR-P)
Its master holds rows only for the kept scenarios that some solve found
violated (``_Master`` generates them), not for all N.
_insert starts empty and enforces one scenario per round until certified:
  pool_and_discard    pools the most violated scenario, then trial-discards
                      pooled rows (PND; ``fast=True`` tries them in dual
                      order and keeps the first that works: FPND)
  active_set          enforces one ranked violated scenario (ASM-1)
_polish removes the working-set rows of an ASM-1 run one at a time:
  polish_resolve      sweeps the working set (ASM-2)
  polish_dual         takes the row with the largest |dual| (ASM-3)
Trial removals share one move, ``_Master.best_removal``.  ``run_method``
dispatches these tags and ``exact-mip`` (``mip.exact_mip``).

Every method returns a SolveReport whose solution violates at most k
training scenarios, unless it stopped at its time limit (status
``time_limit``; a polish hands such a run back retagged), with
``wall_time`` the method's elapsed time (a polish adds the time of the run
it polished).  Methods that rank by duals refuse integer masters
(UnsupportedForMip): branch-and-bound exposes no dual values.

Tie rules.  A pick by dual value takes the largest |dual| and, among equal
values, the smallest scenario index; FPND tries its candidates in that order.
When no enforced row is binding, the removal family drops the row with the
smallest slack, again the smallest scenario index among equal slacks.
"""

import itertools
import time
from dataclasses import dataclass, replace

import numpy as np

from . import lp, mip, saa
from .certificate import ScenarioBudget
from .errors import CapExceeded, ConfigError, InfeasibleModel, UnsupportedForMip
from .mip import MipModel, SemiContinuousSpec, banded, exact_mip, mip_solve
from .reports import (STATUS_CAP, STATUS_OK, STATUS_TIME_LIMIT, SolveReport,
                      WorkingSet)
from .saa import ChanceProgramSpec, ScenarioSet, evaluate_outcomes

BINDING_TOL_LP = 1e-7
BINDING_TOL_MIP = 1e-1      # integer masters detect binding rows loosely
MAX_ROUNDS = 100_000        # cap on constraint additions, a runaway guard
_ROW_BATCH = 32             # rows a master's generation round gives at most


@dataclass
class AsmConfig:
    """Knobs of the active-set family.

    ``w`` steers which ranked violation gets added: 1.0 picks the (k+1)-th
    most violated, 0.0 the least violated.  ``polish_iterations`` defaults to
    the decision dimension when unset.
    """

    w: float = 0.5
    polish_iterations: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("w must lie in [0,1]")
        if self.polish_iterations is not None and self.polish_iterations < 1:
            raise ValueError("polish_iterations must be >= 1")

    def resolved_iterations(self, n_assets: int) -> int:
        return self.polish_iterations if self.polish_iterations is not None else n_assets


class _Master:
    """Working model for a kept set E of scenarios, LP or integer.

    ``kept`` marks E over all N scenarios.  The model holds the budget row
    and rows for a subset W of E: ``row_of[i]`` is scenario i's row, or -1.
    ``add`` keeps a scenario and gives it a row; ``remove`` un-keeps one and
    drops its row if it has one.  ``solve`` generates the rest of W: after
    solving over W it evaluates every scenario and gives rows to the (up to
    _ROW_BATCH) most violated kept scenarios that have none, until no kept
    scenario is violated, so that the optimum over W is the optimum over E.
    Every master starts with the budget row alone.  ``enforced`` lists E in
    ascending index order; its O(N) scan costs less than the evaluation that
    each solve makes.
    A solve with no row added or dropped since the last one returns the
    last solution and counts as a master solve: optimal over W and
    violating no kept scenario, that solution stays optimal when a rowless
    scenario leaves E.  A solve that returns the last asset block bit for
    bit keeps its outcomes.
    ``started`` is the method's clock, from which its deadlines and reported
    wall time run, and ``time_limit`` its limit (None: none); an integer
    master's branch-and-bound gets what is left of it.  One stopped there
    expires the master: that solve and later ones return the last complete
    search's solution (without one, the stopped search's point, as
    ``exact_mip`` reports it), and reports carry status ``time_limit``.
    """

    def __init__(self, scenarios: ScenarioSet, spec: ChanceProgramSpec,
                 subset, semi: SemiContinuousSpec | None = None,
                 time_limit=None):
        self.started = time.perf_counter()
        self.scenarios = scenarios
        self.spec = spec
        self.model = saa.build_saa_lp(scenarios, spec, subset=())
        self.kept = np.zeros(scenarios.n_scenarios, dtype=bool)
        self.kept[np.asarray(subset, dtype=np.int64)] = True
        self._rowless = int(self.kept.sum())    # kept scenarios without a row
        self.row_of = np.full(scenarios.n_scenarios, -1, dtype=np.int64)
        self.mip = None if semi is None else banded(
            MipModel(base=self.model, binaries=[]), semi, scenarios.n_assets,
            spec.cash_index)
        self.binding_tol = BINDING_TOL_MIP if self.mip else BINDING_TOL_LP
        self.solves = 0
        self.mip_nodes = 0
        self._sol = None            # last LpSolution, or MipResult
        self.outcomes = None        # OutcomeVector at the last solution
        self.time_limit = time_limit
        self._edited = True         # rows changed since the last solve
        self.expired = False        # a branch-and-bound stopped at the limit

    def out_of_time(self) -> bool:
        return self.expired or (
            self.time_limit is not None
            and time.perf_counter() - self.started > self.time_limit)

    @property
    def x(self) -> np.ndarray:
        """Asset block of the last solution."""
        return self._sol.x[: self.scenarios.n_assets]

    def solve(self):
        """Solve over W and generate rows until no kept scenario is
        violated; the rounds count as one master solve (none once expired)."""
        self.solves += not self.expired
        n = self.scenarios.n_assets
        while self._edited and not self.expired:
            if self.mip is not None:
                left = (mip.DEFAULT_TIME_LIMIT if self.time_limit is None else
                        self.time_limit - (time.perf_counter() - self.started))
                sol = mip_solve(self.mip, time_limit=left,
                                warm=None if self._sol is None else self._sol.x)
                self.mip_nodes += sol.node_count
                self.expired = sol.status == STATUS_TIME_LIMIT
                if self.expired:
                    if self._sol is not None:
                        break
                    sol = replace(sol, objective_value=float(
                        self.spec.objective @ sol.x[:n]))
            else:
                sol = lp.lp_solve(self.model)
            if sol.status not in (lp.OPTIMAL, STATUS_TIME_LIMIT):
                raise InfeasibleModel(f"master solve returned {sol.status}")
            if self._sol is None or not np.array_equal(sol.x[:n], self.x):
                self.outcomes = evaluate_outcomes(sol.x[:n], self.scenarios,
                                                  self.spec)
            self._sol, self._edited, out = sol, False, self.outcomes
            if not self._rowless:
                break
            need = out.violated
            need = need[self.kept[need] & (self.row_of[need] < 0)]
            if need.size > _ROW_BATCH:
                worst = np.lexsort((need, -out.values[need]))[:_ROW_BATCH]
                need = np.sort(need[worst])
            for i in need:
                self._give_row(i)
            self._rowless -= need.size
        return self.x, float(self._sol.objective_value)

    # -- row management -------------------------------------------------
    def _give_row(self, i):
        self.row_of[i] = saa.add_scenario_row(self.model, self.scenarios,
                                              self.spec, i)
        self._edited = True

    def add(self, i: int):
        """Keep scenario i and give it a row."""
        if self.kept[i]:
            raise ValueError(f"scenario {i} is already enforced")
        self.kept[i] = True
        self._give_row(i)

    def remove(self, i: int):
        """Un-keep scenario i, dropping its row if it has one."""
        if self.row_of[i] >= 0:
            self.model.remove_row(int(self.row_of[i]))
            self.row_of[i], self._edited = -1, True
        else:
            self._rowless -= 1
        self.kept[i] = False

    @property
    def enforced(self) -> np.ndarray:
        """Kept scenarios, ascending."""
        return np.flatnonzero(self.kept)

    def best_removal(self, order, admissible=None, floor=-np.inf, first=False):
        """Trial-remove each scenario of ``order``, re-keeping it after, and
        keep removed the best trial whose objective beats ``floor`` by more
        than 1e-12 and whose outcomes ``admissible`` accepts (returns other
        than None; asked only past that bar), or the first such when ``first``.
        The master is left at that trial's solution, or at its entry one,
        without another solve: (scenario, objective, verdict) or None."""
        kept, state = None, (self._sol, self.outcomes)
        for i in order:
            self.remove(i)
            _, obj = self.solve()
            if obj > floor + 1e-12:
                verdict = admissible(self.outcomes) if admissible else True
                if verdict is not None:
                    kept, floor = (i, obj, verdict), obj
                    if first:
                        return kept
                    state = (self._sol, self.outcomes)
            # re-adding the row invalidates this trial's point; the next
            # solve repairs it warmly
            self.add(i)
        if kept is not None:
            self.remove(kept[0])
        self._sol, self.outcomes = state
        return kept

    # -- state at the last solution --------------------------------------
    def enforced_slack(self):
        """Kept scenarios and their r_i . x - alpha at the last solution,
        read off the outcomes that its generation evaluated."""
        idx = self.enforced
        return idx, -self.outcomes.values[idx]

    def binding(self) -> list:
        """Kept scenarios tight at the last solution, with a row or not."""
        idx, over = self.enforced_slack()
        return idx[(over >= -1e-9) & (over <= self.binding_tol)].tolist()

    def removal_candidates(self) -> list:
        """The binding rows; when none binds, the row closest to binding."""
        return self.binding() or [self.closest_to_binding()]

    def closest_to_binding(self) -> int:
        """The kept scenario with the smallest slack."""
        idx, over = self.enforced_slack()
        return int(idx[np.argmin(over)])

    def duals(self):
        """(scenarios, duals) of the kept scenarios at the last LP solve, in
        ascending scenario order, 0 for those without a row; integer masters
        refuse."""
        if self.mip is not None or self._sol is None:
            raise UnsupportedForMip(
                "dual values are not available from an integer master")
        idx = self.enforced
        rows = self.row_of[idx]
        pis = np.zeros(idx.size)
        pis[rows >= 0] = self._sol.duals_for(rows[rows >= 0])
        return idx, pis

    def working_set(self, indices=None) -> WorkingSet:
        idx = self.enforced if indices is None else indices
        return WorkingSet(np.asarray(idx, np.int64).tolist())

    def report(self, method, obj, seed=None, status=STATUS_OK, extra_time=0.0,
               x=None, working_set=None, violations=None) -> SolveReport:
        if violations is None:
            out = (self.outcomes if x is None
                   else evaluate_outcomes(x, self.scenarios, self.spec))
            violations = out.violation_count
        x = self.x if x is None else x
        return SolveReport(
            method=method, x=np.array(x, copy=True), objective=float(obj),
            working_set=self.working_set() if working_set is None else working_set,
            lp_solves=self.solves, mip_nodes=self.mip_nodes,
            wall_time=time.perf_counter() - self.started + extra_time,
            train_violations=int(violations), seed=seed,
            status=STATUS_TIME_LIMIT if self.expired else status)


def _largest_dual(scenarios, duals):
    """(scenario, |dual|) with the largest |dual|.  ``scenarios`` ascend, so
    argmax's first maximum is the smallest index among equal values."""
    pos = int(np.argmax(np.abs(duals)))
    return int(scenarios[pos]), float(abs(duals[pos]))


# ----------------------------------------------------------------------
# every scenario kept, and the removal family
# ----------------------------------------------------------------------

def _removal(scenarios, spec, method, k, pick, first=True, semi=None,
             seed=None, time_limit=None) -> SolveReport:
    """Solve with every scenario kept, then k rounds, each trial-removing
    the scenarios ``pick(master)`` lists and keeping the best (the first
    when ``first``)."""
    master = _Master(scenarios, spec, range(scenarios.n_scenarios), semi=semi,
                     time_limit=time_limit)
    _, obj = master.solve()
    for _ in range(k):
        if master.out_of_time():
            return master.report(method, obj, seed=seed,
                                 status=STATUS_TIME_LIMIT)
        _, obj, _ = master.best_removal(pick(master), first=first)
    return master.report(method, obj, seed=seed)


def solve_full(scenarios, spec, semi=None, time_limit=None) -> SolveReport:
    """Enforce every scenario; the conservative zero-discard baseline."""
    return _removal(scenarios, spec, "full", 0, None, semi=semi,
                    time_limit=time_limit)


def greedy_removal(scenarios, spec, budget: ScenarioBudget, semi=None,
                   time_limit=None) -> SolveReport:
    """GR-P: k rounds, each trial-removing every binding row and keeping the
    removal that improves the objective most."""
    return _removal(scenarios, spec, "grp", budget.k_removals,
                    _Master.removal_candidates, first=False, semi=semi,
                    time_limit=time_limit)


def random_removal(scenarios, spec, budget: ScenarioBudget, seed,
                   semi=None, time_limit=None) -> SolveReport:
    """RA-P: k rounds, each dropping one binding row chosen uniformly."""
    rng = np.random.default_rng(seed)

    def pick(m):
        candidates = m.removal_candidates()
        return [candidates[int(rng.integers(len(candidates)))]]

    return _removal(scenarios, spec, "rap", budget.k_removals, pick,
                    semi=semi, seed=seed, time_limit=time_limit)


def dual_greedy_removal(scenarios, spec, budget: ScenarioBudget,
                        time_limit=None) -> SolveReport:
    """FGR-P: like GR-P but each round removes the binding row whose dual
    promises the largest instantaneous improvement; 1 + k solves total."""

    def pick(m):
        # improvement rate per unit relaxation is |dual| regardless of the
        # row-orientation sign convention
        scenario, rate = _largest_dual(*m.duals())
        return [scenario if rate > 1e-12 else m.closest_to_binding()]

    return _removal(scenarios, spec, "fgrp", budget.k_removals, pick,
                    time_limit=time_limit)


# ----------------------------------------------------------------------
# the insertion family
# ----------------------------------------------------------------------

def _insert(scenarios, spec, method, pick, semi=None, seed=None,
            time_limit=None):
    """Solve the empty master, then enforce ``pick(out)``, the scenario
    chosen from the outcomes at the last solution, and re-solve, until it
    returns None: (master, objective, violation count, status) at the end."""
    master = _Master(scenarios, spec, [], semi=semi, time_limit=time_limit)
    _, obj = master.solve()
    for additions in itertools.count():
        out = master.outcomes
        i = pick(out)
        if i is None:
            return master, obj, out.violation_count, STATUS_OK
        if additions >= MAX_ROUNDS:
            raise CapExceeded(
                f"{method}: addition cap exceeded",
                report=master.report(method, obj, seed=seed, status=STATUS_CAP,
                                     violations=out.violation_count))
        if master.out_of_time():
            return master, obj, out.violation_count, STATUS_TIME_LIMIT
        master.add(i)
        _, obj = master.solve()


def pool_and_discard(scenarios, spec, budget: ScenarioBudget, fast: bool,
                     seed=None, semi=None, time_limit=None) -> SolveReport:
    """PND / FPND reconstruction.

    Pooling adds the most violated scenario and re-solves until the iterate
    is certified (at most k violations).  The discard phase then walks the
    pooled rows: candidates ranked by trial re-solves (PND) or by dual
    values (FPND) are removed one per round when the removal improves the
    objective and keeps certification.  The reported working set is pruned
    to the rows binding at the final solution.

    The discard bookkeeping follows one faithful reading of the published
    pool-and-discard scheme, whose original statement leaves the inner-loop
    accounting open.
    """
    method = "fpnd" if fast else "pnd"
    k = budget.k_removals
    if fast and semi is not None:
        raise UnsupportedForMip("FPND ranks removals by dual values")
    master, obj, violations, status = _insert(
        scenarios, spec, method,
        lambda out: out.kth_ranked(1)[1] if out.violation_count > k else None,
        semi=semi, seed=seed, time_limit=time_limit)
    if status != STATUS_OK:
        return master.report(method, obj, seed=seed, status=status,
                             violations=violations)

    def certified(out):
        return out.violation_count if out.violation_count <= k else None

    while not master.out_of_time():
        order = master.binding()
        if not order:
            break
        if fast:
            idx, pis = master.duals()
            rate = np.abs(pis[np.searchsorted(idx, order)])
            order = [order[p] for p in np.lexsort((order, -rate))]
        kept = master.best_removal(order, certified, floor=obj, first=fast)
        if kept is None:
            break
        _, obj, violations = kept
    else:
        status = STATUS_TIME_LIMIT      # the loop ended on the clock

    # keep only rows binding at the incumbent in the reported working set
    return master.report(method, obj, seed=seed, status=status,
                         violations=violations,
                         working_set=master.working_set(master.binding()))


def active_set(scenarios, spec, budget: ScenarioBudget,
               cfg: AsmConfig | None = None, semi=None,
               time_limit=None, seed=None) -> SolveReport:
    """ASM-1: grow a working set by one ranked violated scenario per round.

    Round structure: solve the relaxed master, rank the violated outcomes
    largest-first, stop once at most k remain, otherwise enforce the
    scenario at rank ``floor(w (k+1) + (1-w) |ranked|)`` and re-solve warm.
    """
    cfg = cfg or AsmConfig()
    k = budget.k_removals

    def pick(out):
        ranked = out.ranked
        if ranked.size <= k:
            return None
        j = int(np.floor(cfg.w * (k + 1) + (1.0 - cfg.w) * ranked.size))
        return int(ranked[min(max(j, k + 1), ranked.size) - 1])

    master, obj, violations, status = _insert(
        scenarios, spec, "asm1", pick, semi=semi, seed=seed,
        time_limit=time_limit)
    return master.report("asm1", obj, seed=seed, status=status,
                         violations=violations)


# ----------------------------------------------------------------------
# polishing an active-set run
# ----------------------------------------------------------------------

def _polish(report: SolveReport, method, rows, scenarios, spec,
            budget: ScenarioBudget, cfg=None, semi=None,
            time_limit=None) -> SolveReport:
    """Over a master of the run's working set, remove one at a time the
    rows the generator ``rows(master, report, rounds)`` yields; after each
    removal re-solve, and when the scenario at the test rank is violated
    and not enforced, swap it in, re-solve and send it back to the
    generator.  Keep the best certified point, starting from the run.  A
    run that is not ok (it stopped at its time limit), or has an empty
    working set, comes back retagged."""
    if report.status != STATUS_OK or len(report.working_set) == 0:
        return replace(report, method=method, x=report.x.copy(),
                       working_set=report.working_set.copy())
    k = budget.k_removals
    if report.train_violations > k:
        raise ValueError("polish input must be certified")
    master = _Master(scenarios, spec, list(report.working_set.scenario_indices),
                     semi=semi, time_limit=time_limit)
    master.solves, master.mip_nodes = report.lp_solves, report.mip_nodes
    best = (report.x, report.objective, report.train_violations,
            report.working_set.copy())
    test = max(k, 1)    # the test rank; at k = 0 any violation is too many
    rows = rows(master, report,
                (cfg or AsmConfig()).resolved_iterations(scenarios.n_assets))
    swap_in, status = None, STATUS_OK
    # each call sends the last swap-in back; the generator's end ends the loop
    for s in iter(lambda: rows.send(swap_in), None):
        if master.out_of_time():
            status = STATUS_TIME_LIMIT
            break
        master.remove(s)
        x, obj = master.solve()
        out = master.outcomes
        swap_in = None
        if out.violation_count >= test:
            _, scenario = out.kth_ranked(test)
            if not master.kept[scenario]:
                swap_in = scenario
                master.add(swap_in)
                x, obj = master.solve()
                out = master.outcomes
        if (out.violation_count < test and obj > best[1] + 1e-12
                and not master.expired):
            best = (x, obj, out.violation_count, master.working_set())
    x, obj, violations, ws = best
    return master.report(method, obj, seed=report.seed, x=x, working_set=ws,
                         violations=violations, status=status,
                         extra_time=report.wall_time)


def _sweep(master, report, sweeps):
    """ASM-2's rows: the run's working set in order, then the scenarios
    swapped in during that pass (each sent back for the row just yielded),
    and so on, ``sweeps`` passes."""
    members = report.working_set.scenario_indices
    for _ in range(sweeps):
        swapped = []
        for s in members:
            swap_in = yield s
            if swap_in is not None:
                swapped.append(swap_in)
        members = swapped


def _largest_duals(master: _Master, report, rounds):
    """ASM-3's rows: up to ``rounds`` times the enforced row with the largest
    |dual|, while removing it can move the objective."""
    master.solve()          # establish dual values for the working set
    for _ in range(rounds):
        idx, pis = master.duals()
        pick, rate = _largest_dual(idx, pis) if idx.size else (None, 0.0)
        if rate <= 1e-12:
            return          # no removal can move the objective
        yield pick


def polish_resolve(report: SolveReport, scenarios, spec,
                   budget: ScenarioBudget, cfg: AsmConfig | None = None,
                   semi=None, time_limit=None) -> SolveReport:
    """ASM-2: sweep the working set; remove each row, and when the test rank
    is still violated swap that scenario in; keep certified improvements."""
    return _polish(report, "asm2", _sweep, scenarios, spec, budget, cfg=cfg,
                   semi=semi, time_limit=time_limit)


def polish_dual(report: SolveReport, scenarios, spec,
                budget: ScenarioBudget, cfg: AsmConfig | None = None,
                time_limit=None) -> SolveReport:
    """ASM-3: like the sweep polish, but each iteration removes only the row
    whose dual value promises the largest instantaneous improvement."""
    return _polish(report, "asm3", _largest_duals, scenarios, spec, budget,
                   cfg=cfg, time_limit=time_limit)


# ----------------------------------------------------------------------

METHODS = ("full", "grp", "rap", "fgrp", "pnd", "fpnd", "asm1", "asm2", "asm3")
DUAL_METHODS = ("fgrp", "fpnd", "asm3")


def run_method(name: str, scenarios, spec, budget: ScenarioBudget,
               cfg: AsmConfig | None = None, seed=None, semi=None,
               time_limit=None, base: SolveReport | None = None) -> SolveReport:
    """Dispatch one method by its tag: a heuristic of ``METHODS``, or
    ``exact-mip``, the big-M branch-and-bound.  Dual-based tags refuse
    ``semi``.  Given ``base``, ASM-1's report for the same arguments, the
    asm tags use it instead of running ASM-1."""
    if name not in METHODS + ("exact-mip",):
        raise ConfigError(f"unknown method {name!r}")
    if semi is not None and name in DUAL_METHODS:
        raise UnsupportedForMip(f"{name} needs LP duals and cannot run on "
                                "an integer master")
    if name == "exact-mip":
        return exact_mip(scenarios, spec, budget, semi=semi,
                         time_limit=time_limit, seed=seed)
    if name == "full":
        return solve_full(scenarios, spec, semi=semi, time_limit=time_limit)
    if name == "grp":
        return greedy_removal(scenarios, spec, budget, semi=semi,
                              time_limit=time_limit)
    if name == "rap":
        return random_removal(scenarios, spec, budget, seed, semi=semi,
                              time_limit=time_limit)
    if name == "fgrp":
        return dual_greedy_removal(scenarios, spec, budget,
                                   time_limit=time_limit)
    if name in ("pnd", "fpnd"):
        return pool_and_discard(scenarios, spec, budget, fast=(name == "fpnd"),
                                seed=seed, semi=semi, time_limit=time_limit)
    if base is None:
        base = active_set(scenarios, spec, budget, cfg=cfg, semi=semi,
                          time_limit=time_limit, seed=seed)
    if name == "asm1":
        return base
    # the polish gets what ASM-1 left of the limit
    rest = None if time_limit is None else time_limit - base.wall_time
    if name == "asm2":
        return polish_resolve(base, scenarios, spec, budget, cfg=cfg,
                              semi=semi, time_limit=rest)
    return polish_dual(base, scenarios, spec, budget, cfg=cfg,
                       time_limit=rest)
