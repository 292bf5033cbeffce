"""Constraint-discard heuristics for the k-relaxed scenario program.

Removal family (start from the full model, drop k rows):
  greedy_removal      trial-removes every binding row, keeps the best (GR-P)
  random_removal      drops a random binding row per round (RA-P)
  dual_greedy_removal ranks binding rows by dual value instead of trials (FGR-P)

Insertion family (start empty, add rows until certified):
  pool_and_discard    pools the most violated scenario, then tries discards
                      (PND; ``fast=True`` ranks discards by duals: FPND)
  active_set          adds one ranked violated scenario per round (ASM-1)
  polish_resolve      sweep-and-replace polish of an active-set run (ASM-2)
  polish_dual         dual-guided polish of an active-set run (ASM-3)

Every method returns a SolveReport whose solution violates at most k
training scenarios, with ``wall_time`` the method's elapsed time (a polish
adds the time of the run it polished).  Methods that rank by duals refuse
integer masters (UnsupportedForMip): branch-and-bound exposes no dual values.

Tie rules.  A pick by dual value takes the largest |dual| and, among equal
values, the smallest scenario index; FPND tries its candidates in that order.
When no enforced row is binding, the removal family drops the row with the
smallest slack, again the smallest scenario index among equal slacks.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from . import lp, saa
from .certificate import ScenarioBudget
from .errors import CapExceeded, ConfigError, InfeasibleModel, UnsupportedForMip
from .mip import MipModel, SemiContinuousSpec, apply_semicontinuous, mip_solve
from .reports import (STATUS_CAP, STATUS_OK, STATUS_TIME_LIMIT, SolveReport,
                      WorkingSet)
from .saa import ChanceProgramSpec, ScenarioSet, evaluate_outcomes

BINDING_TOL_LP = 1e-7
BINDING_TOL_MIP = 1e-1      # integer masters detect binding rows loosely


@dataclass
class AsmConfig:
    """Knobs of the active-set family.

    ``w`` steers which ranked violation gets added: 1.0 picks the (k+1)-th
    most violated, 0.0 the least violated.  ``polish_iterations`` defaults to
    the decision dimension when unset.  ``max_rounds`` caps constraint
    additions as a runaway guard.
    """

    w: float = 0.5
    polish_iterations: int | None = None
    max_rounds: int = 100_000

    def __post_init__(self):
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("w must lie in [0,1]")
        if self.polish_iterations is not None and self.polish_iterations < 1:
            raise ValueError("polish_iterations must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")

    def resolved_iterations(self, n_assets: int) -> int:
        return self.polish_iterations if self.polish_iterations is not None else n_assets


class _Master:
    """Working model over a subset of scenario rows, LP or integer.

    ``row_of[i]`` is the model row enforcing scenario i, or -1 when the
    scenario is not enforced; ``enforced`` lists the enforced scenarios in
    ascending index order, at O(1) per edit and O(|W|) per view.
    ``started`` is the method's clock: deadlines and the reported wall time
    run from the master's construction.
    """

    def __init__(self, scenarios: ScenarioSet, spec: ChanceProgramSpec,
                 subset, semi: SemiContinuousSpec | None = None,
                 gap_tolerance: float = 1e-4):
        self.started = time.perf_counter()
        self.scenarios = scenarios
        self.spec = spec
        subset = np.asarray(subset, dtype=np.int64)
        self.model = saa.build_saa_lp(scenarios, spec, subset=subset)
        self.row_of = np.full(scenarios.n_scenarios, -1, dtype=np.int64)
        self.row_of[subset] = np.arange(1, subset.size + 1)
        self._listed = np.flatnonzero(self.row_of >= 0)   # may list removed
        self._pending = set()       # added scenarios not yet listed
        self.mip = None
        if semi is not None:
            if spec.cash_index is None:
                raise ConfigError("semi-continuous runs need spec.cash_index")
            self.mip = MipModel(base=self.model, binaries=[],
                                gap_tolerance=gap_tolerance)
            apply_semicontinuous(self.mip, semi,
                                 [j for j in range(scenarios.n_assets)
                                  if j != spec.cash_index])
        self.binding_tol = BINDING_TOL_MIP if self.mip else BINDING_TOL_LP
        self.solves = 0
        self.mip_nodes = 0
        self.solver_time = 0.0
        self.x = None               # asset block of the last solution
        self._x_full = None
        self._sol = None            # last LpSolution (LP masters only)

    @property
    def is_mip(self) -> bool:
        return self.mip is not None

    def out_of_time(self, time_limit) -> bool:
        return (time_limit is not None
                and time.perf_counter() - self.started > time_limit)

    def solve(self):
        t0 = time.perf_counter()
        if self.mip is not None:
            res = mip_solve(self.mip, warm=self._x_full)
            self.mip_nodes += res.node_count
            status, x_full, obj = res.status, res.x, res.objective_value
            self._sol = None
        else:
            sol = lp.lp_solve(self.model)
            status, x_full, obj = sol.status, sol.x, sol.objective_value
            self._sol = sol
        self.solver_time += time.perf_counter() - t0
        self.solves += 1
        if status != lp.OPTIMAL:
            raise InfeasibleModel(f"master solve returned {status}")
        self._x_full = x_full
        self.x = x_full[: self.scenarios.n_assets]
        return self.x, float(obj)

    # -- row management -------------------------------------------------
    def add(self, i: int):
        self.row_of[i] = saa.add_scenario_row(self.model, self.scenarios,
                                              self.spec, i)
        p = np.searchsorted(self._listed, i)
        if p == self._listed.size or self._listed[p] != i:
            self._pending.add(i)

    def remove(self, i: int):
        self.model.remove_row(int(self.row_of[i]))
        self.row_of[i] = -1

    @property
    def enforced(self) -> np.ndarray:
        """Enforced scenarios, ascending: the edits since the last view folded in."""
        e = self._listed
        if self._pending:
            new = np.array(sorted(self._pending), dtype=np.int64)
            e = np.insert(e, np.searchsorted(e, new), new)
            self._pending.clear()
        self._listed = e[self.row_of[e] >= 0]
        return self._listed

    # -- state at the last solution --------------------------------------
    def enforced_slack(self):
        """Enforced scenarios and their r_i . x - alpha at the last solution."""
        idx = self.enforced
        return idx, self.scenarios.returns[idx] @ self.x - self.spec.alpha

    def binding(self) -> list:
        """Enforced scenarios whose row is tight at the last solution."""
        idx, over = self.enforced_slack()
        return idx[(over >= -1e-9) & (over <= self.binding_tol)].tolist()

    def closest_to_binding(self) -> int:
        """The enforced scenario with the smallest slack."""
        idx, over = self.enforced_slack()
        return int(idx[np.argmin(over)])

    def duals(self):
        """(scenarios, duals) of the enforced rows at the last LP solve, in
        ascending scenario order; integer masters refuse."""
        if self.is_mip or self._sol is None:
            raise UnsupportedForMip(
                "dual values are not available from an integer master")
        idx = self.enforced
        return idx, self._sol.duals_for(self.row_of[idx])

    def working_set(self, indices=None) -> WorkingSet:
        idx = self.enforced if indices is None else np.asarray(indices, np.int64)
        members = idx.tolist()
        return WorkingSet(members, dict(zip(members, self.row_of[idx].tolist())))

    def report(self, method, obj, seed=None, status=STATUS_OK,
               extra_solves=0, extra_nodes=0, extra_time=0.0,
               x=None, working_set=None, violations=None) -> SolveReport:
        x = self.x if x is None else x
        if violations is None:
            violations = evaluate_outcomes(x, self.scenarios,
                                           self.spec).violation_count
        return SolveReport(
            method=method, x=np.array(x, copy=True), objective=float(obj),
            working_set=self.working_set() if working_set is None else working_set,
            lp_solves=self.solves + extra_solves,
            mip_nodes=self.mip_nodes + extra_nodes,
            wall_time=time.perf_counter() - self.started + extra_time,
            train_violations=int(violations), seed=seed, status=status)


def _largest_dual(scenarios, duals):
    """(scenario, |dual|) with the largest |dual|.  ``scenarios`` ascend, so
    argmax's first maximum is the smallest index among equal values."""
    pos = int(np.argmax(np.abs(duals)))
    return int(scenarios[pos]), float(abs(duals[pos]))


# ----------------------------------------------------------------------
# full model and the removal family
# ----------------------------------------------------------------------

def solve_full(scenarios, spec, semi=None) -> SolveReport:
    """Enforce every scenario row; the conservative zero-discard baseline."""
    master = _Master(scenarios, spec, range(scenarios.n_scenarios), semi=semi)
    x, obj = master.solve()
    return master.report("full", obj)


def greedy_removal(scenarios, spec, budget: ScenarioBudget, semi=None,
                   time_limit=None) -> SolveReport:
    """GR-P: k rounds, each trial-removing every binding row and keeping the
    removal that improves the objective most."""
    master = _Master(scenarios, spec, range(scenarios.n_scenarios), semi=semi)
    x, obj = master.solve()
    best_x, best_obj = x.copy(), obj
    for _ in range(budget.k_removals):
        if master.out_of_time(time_limit):
            return master.report("grp", best_obj, x=best_x,
                                 status=STATUS_TIME_LIMIT)
        # nothing binding: drop the row closest to binding
        candidates = master.binding() or [master.closest_to_binding()]
        best = None
        for i in candidates:
            master.remove(i)
            x, obj = master.solve()
            if best is None or obj > best[1] + 1e-12:
                best = (i, obj, x.copy(), master._x_full.copy())
            master.add(i)
        i, best_obj, best_x, full = best
        master.remove(i)
        # model now equals the winning trial state; restore its solution
        # instead of spending another solve
        master._x_full = full
        master.x = best_x
    return master.report("grp", best_obj, x=best_x)


def random_removal(scenarios, spec, budget: ScenarioBudget, seed,
                   semi=None, time_limit=None) -> SolveReport:
    """RA-P: k rounds, each dropping one binding row chosen uniformly."""
    rng = np.random.default_rng(seed)
    master = _Master(scenarios, spec, range(scenarios.n_scenarios), semi=semi)
    x, obj = master.solve()
    for _ in range(budget.k_removals):
        if master.out_of_time(time_limit):
            return master.report("rap", obj, seed=seed, status=STATUS_TIME_LIMIT)
        candidates = master.binding() or [master.closest_to_binding()]
        master.remove(candidates[int(rng.integers(len(candidates)))])
        x, obj = master.solve()
    return master.report("rap", obj, seed=seed)


def dual_greedy_removal(scenarios, spec, budget: ScenarioBudget,
                        time_limit=None) -> SolveReport:
    """FGR-P: like GR-P but each round removes the binding row whose dual
    promises the largest instantaneous improvement; 1 + k solves total."""
    master = _Master(scenarios, spec, range(scenarios.n_scenarios))
    x, obj = master.solve()
    for _ in range(budget.k_removals):
        if master.out_of_time(time_limit):
            return master.report("fgrp", obj, status=STATUS_TIME_LIMIT)
        # improvement rate per unit relaxation is |dual| regardless of the
        # row-orientation sign convention
        pick, rate = _largest_dual(*master.duals())
        if rate <= 1e-12:
            pick = master.closest_to_binding()
        master.remove(pick)
        x, obj = master.solve()
    return master.report("fgrp", obj)


# ----------------------------------------------------------------------
# pool and discard
# ----------------------------------------------------------------------

def pool_and_discard(scenarios, spec, budget: ScenarioBudget, fast: bool,
                     seed=None, semi=None, cfg: AsmConfig | None = None,
                     time_limit=None) -> SolveReport:
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
    cfg = cfg or AsmConfig()
    k = budget.k_removals
    master = _Master(scenarios, spec, [], semi=semi)
    if fast and master.is_mip:
        raise UnsupportedForMip("FPND ranks removals by dual values")
    x, obj = master.solve()
    out = evaluate_outcomes(x, scenarios, spec)
    rounds = 0
    while out.violation_count > k:
        rounds += 1
        if rounds > cfg.max_rounds:
            raise CapExceeded("pooling round cap exceeded",
                              report=master.report(method, obj, seed=seed,
                                                   status=STATUS_CAP))
        if master.out_of_time(time_limit):
            return master.report(method, obj, seed=seed,
                                 status=STATUS_TIME_LIMIT)
        master.add(out.kth_ranked(1)[1])
        x, obj = master.solve()
        out = evaluate_outcomes(x, scenarios, spec)

    incumbent_x, incumbent_obj = x.copy(), obj
    incumbent_viol = out.violation_count
    improved = True
    while improved:
        improved = False
        if master.out_of_time(time_limit):
            break
        order = master.binding()
        if not order:
            break
        if fast:
            # test candidates in dual order, accept the first that works
            idx, pis = master.duals()
            rate = np.abs(pis[np.searchsorted(idx, order)])
            order = [order[p] for p in np.lexsort((order, -rate))]
            for i in order:
                master.remove(i)
                x, obj = master.solve()
                out = evaluate_outcomes(x, scenarios, spec)
                if out.violation_count <= k and obj > incumbent_obj + 1e-12:
                    incumbent_x, incumbent_obj = x.copy(), obj
                    incumbent_viol = out.violation_count
                    improved = True
                    break
                master.add(i)
                # the re-added row invalidates the trial point for the next
                # candidate; the next solve repairs it warmly
        else:
            # trial every candidate, keep the best certified improvement
            best = None
            for i in order:
                master.remove(i)
                x, obj = master.solve()
                out = evaluate_outcomes(x, scenarios, spec)
                if (out.violation_count <= k and obj > incumbent_obj + 1e-12
                        and (best is None or obj > best[1] + 1e-12)):
                    best = (i, obj, x.copy(), master._x_full.copy(),
                            out.violation_count)
                master.add(i)
            if best is not None:
                i, incumbent_obj, incumbent_x, full, incumbent_viol = best
                master.remove(i)
                master._x_full = full
                master.x = incumbent_x
                improved = True

    # keep only rows binding at the incumbent in the reported working set
    master.x = incumbent_x
    return master.report(method, incumbent_obj, seed=seed, x=incumbent_x,
                         working_set=master.working_set(master.binding()),
                         violations=incumbent_viol)


# ----------------------------------------------------------------------
# active-set family
# ----------------------------------------------------------------------

def _rank_position(k: int, n_violated: int, w: float) -> int:
    """1-based rank of the violation to enforce next, clamped to range."""
    j = int(np.floor(w * (k + 1) + (1.0 - w) * n_violated))
    return min(max(j, k + 1), n_violated)


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
    master = _Master(scenarios, spec, [], semi=semi)
    x, obj = master.solve()
    additions = 0
    while True:
        out = evaluate_outcomes(x, scenarios, spec)
        ranked = out.ranked
        if ranked.size <= k:
            break
        if additions >= cfg.max_rounds:
            raise CapExceeded(
                "active-set addition cap exceeded",
                report=master.report("asm1", obj, seed=seed, status=STATUS_CAP))
        if master.out_of_time(time_limit):
            return master.report("asm1", obj, seed=seed,
                                 status=STATUS_TIME_LIMIT)
        j = _rank_position(k, ranked.size, cfg.w)
        master.add(int(ranked[j - 1]))
        additions += 1
        x, obj = master.solve()
    return master.report("asm1", obj, seed=seed,
                         violations=int(ranked.size))


def _unpolished(report: SolveReport, method: str) -> SolveReport:
    """An empty working set leaves nothing to polish: the run, retagged."""
    return replace(report, method=method, x=report.x.copy(),
                   working_set=report.working_set.copy(), status=STATUS_OK)


def _polish_master(report: SolveReport, scenarios, spec, budget, semi):
    """Master over the run's working set, and the run as the incumbent."""
    if report.train_violations > budget.k_removals:
        raise ValueError("polish input must be certified")
    master = _Master(scenarios, spec, list(report.working_set.scenario_indices),
                     semi=semi)
    return master, (report.x.copy(), report.objective, report.train_violations,
                    report.working_set.copy())


def _polish_step(master: _Master, k: int, incumbent):
    """Re-solve after a removal; while the test rank is violated, swap that
    scenario in and re-solve once more.  Returns the incumbent, replaced when
    the point is certified and better, and the scenario swapped in or None."""
    test = max(k, 1)    # the test rank; at k = 0 any violation is too many
    x, obj = master.solve()
    out = evaluate_outcomes(x, master.scenarios, master.spec)
    swap_in = None
    if out.violation_count >= test:
        _, scenario = out.kth_ranked(test)
        if master.row_of[scenario] < 0:
            swap_in = scenario
            master.add(swap_in)
            x, obj = master.solve()
            out = evaluate_outcomes(x, master.scenarios, master.spec)
    if out.violation_count < test and obj > incumbent[1] + 1e-12:
        incumbent = (x.copy(), obj, out.violation_count, master.working_set())
    return incumbent, swap_in


def _polish_report(master: _Master, method, incumbent, report: SolveReport,
                   status) -> SolveReport:
    x, obj, viol, ws = incumbent
    return master.report(method, obj, seed=report.seed, x=x, working_set=ws,
                         violations=viol, status=status,
                         extra_solves=report.lp_solves,
                         extra_nodes=report.mip_nodes,
                         extra_time=report.wall_time)


def polish_resolve(report: SolveReport, scenarios, spec,
                   budget: ScenarioBudget, cfg: AsmConfig | None = None,
                   semi=None, time_limit=None) -> SolveReport:
    """ASM-2: sweep the working set; remove each row, and when the test rank
    is still violated swap that scenario in; keep certified improvements."""
    cfg = cfg or AsmConfig()
    if len(report.working_set) == 0:
        return _unpolished(report, "asm2")
    master, incumbent = _polish_master(report, scenarios, spec, budget, semi)
    members = list(report.working_set.scenario_indices)
    status = STATUS_OK
    for _ in range(cfg.resolved_iterations(scenarios.n_assets)):
        if status != STATUS_OK:
            break
        for s in list(members):
            if master.row_of[s] < 0:
                continue
            if master.out_of_time(time_limit):
                status = STATUS_TIME_LIMIT
                break
            master.remove(s)
            members.remove(s)
            incumbent, swap_in = _polish_step(master, budget.k_removals,
                                              incumbent)
            if swap_in is not None:
                members.append(swap_in)
    return _polish_report(master, "asm2", incumbent, report, status)


def polish_dual(report: SolveReport, scenarios, spec,
                budget: ScenarioBudget, cfg: AsmConfig | None = None,
                time_limit=None) -> SolveReport:
    """ASM-3: like the sweep polish, but each iteration removes only the row
    whose dual value promises the largest instantaneous improvement."""
    cfg = cfg or AsmConfig()
    if len(report.working_set) == 0:
        return _unpolished(report, "asm3")
    master, incumbent = _polish_master(report, scenarios, spec, budget, None)
    master.solve()          # establish dual values for the working set
    status = STATUS_OK
    for _ in range(cfg.resolved_iterations(scenarios.n_assets)):
        idx, pis = master.duals()
        if not idx.size:
            break
        if master.out_of_time(time_limit):
            status = STATUS_TIME_LIMIT
            break
        pick, rate = _largest_dual(idx, pis)
        if rate <= 1e-12:
            break               # no removal can move the objective
        master.remove(pick)
        incumbent, _ = _polish_step(master, budget.k_removals, incumbent)
    return _polish_report(master, "asm3", incumbent, report, status)


# ----------------------------------------------------------------------

METHODS = ("full", "grp", "rap", "fgrp", "pnd", "fpnd", "asm1", "asm2", "asm3")
DUAL_METHODS = ("fgrp", "fpnd", "asm3")


def run_method(name: str, scenarios, spec, budget: ScenarioBudget,
               cfg: AsmConfig | None = None, seed=None, semi=None,
               time_limit=None) -> SolveReport:
    """Dispatch one heuristic by its tag; dual-based tags refuse ``semi``."""
    if name not in METHODS:
        raise ConfigError(f"unknown method {name!r}")
    if semi is not None and name in DUAL_METHODS:
        raise UnsupportedForMip(f"{name} needs LP duals and cannot run on "
                                "an integer master")
    cfg = cfg or AsmConfig()
    if name == "full":
        return solve_full(scenarios, spec, semi=semi)
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
                                seed=seed, semi=semi, cfg=cfg,
                                time_limit=time_limit)
    base = active_set(scenarios, spec, budget, cfg=cfg, semi=semi,
                      time_limit=time_limit, seed=seed)
    if name == "asm1":
        return base
    if name == "asm2":
        return polish_resolve(base, scenarios, spec, budget, cfg=cfg,
                              semi=semi, time_limit=time_limit)
    return polish_dual(base, scenarios, spec, budget, cfg=cfg,
                       time_limit=time_limit)
