import time
from dataclasses import replace

import numpy as np
import pytest

from ccsaa import heuristics, lp
from ccsaa.certificate import ScenarioBudget, max_removals
from ccsaa.data import default_instance
from ccsaa.errors import ConfigError, UnsupportedForMip
from ccsaa.gaussian import GaussianModel, sample_scenarios
from ccsaa.heuristics import (AsmConfig, _largest_dual, _Master, active_set,
                              dual_greedy_removal, greedy_removal,
                              pool_and_discard, polish_dual, polish_resolve,
                              random_removal, run_method, solve_full)
from ccsaa.lp import lp_solve
from ccsaa.mip import (DEFAULT_TIME_LIMIT, GAP, MipModel,
                       SemiContinuousSpec, banded, build_saa_bigm, mip_solve)
from ccsaa.saa import (VIOLATION_TOL, ChanceProgramSpec, ScenarioSet,
                       build_saa_lp, certify, evaluate_outcomes)


def make_instance(seed, n_risky=2, n_scen=30, alpha=0.96):
    """Small Gaussian portfolio instance with a cash column."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(1.03, 1.12, n_risky)
    A = rng.normal(size=(n_risky, n_risky)) * rng.uniform(0.08, 0.25)
    cov = np.zeros((n_risky + 1, n_risky + 1))
    cov[:n_risky, :n_risky] = A @ A.T
    model = GaussianModel(np.append(means, 1.0), cov)
    sc = sample_scenarios(model, n_scen, seed=seed + 1000)
    spec = ChanceProgramSpec(alpha, model.mean, cash_index=n_risky)
    return sc, spec, model


class TestSolveFull:
    def test_single_scenario(self):
        sc = ScenarioSet(np.array([[1.02, 1.0]]))
        spec = ChanceProgramSpec(0.95, [1.02, 1.0], cash_index=1)
        rep = solve_full(sc, spec)
        assert rep.train_violations == 0
        assert rep.objective == pytest.approx(1.02, abs=1e-9)
        assert rep.lp_solves == 1

    def test_matches_small_lp_oracle(self):
        sc, spec, _ = make_instance(0, n_scen=10)
        rep = solve_full(sc, spec)
        direct = lp_solve(build_saa_lp(sc, spec))
        assert rep.objective == pytest.approx(direct.objective_value, abs=1e-9)

    def test_dominated_by_discard_methods(self):
        sc, spec, _ = make_instance(1)
        budget = ScenarioBudget(30, 3, 1e-6)
        full = solve_full(sc, spec)
        for rep in (greedy_removal(sc, spec, budget),
                    random_removal(sc, spec, budget, seed=5),
                    dual_greedy_removal(sc, spec, budget),
                    active_set(sc, spec, budget)):
            assert rep.objective >= full.objective - 1e-9


class TestGreedyRemoval:
    def test_k_zero_is_full(self):
        sc, spec, _ = make_instance(2)
        budget = ScenarioBudget(30, 0, 1e-6)
        assert greedy_removal(sc, spec, budget).objective == pytest.approx(
            solve_full(sc, spec).objective, abs=1e-12)

    def test_k1_picks_best_single_removal(self):
        sc, spec, _ = make_instance(3)
        budget = ScenarioBudget(30, 1, 1e-6)
        rep = greedy_removal(sc, spec, budget)
        # oracle: enumerate every single-scenario removal
        best = -np.inf
        for drop in range(30):
            keep = [i for i in range(30) if i != drop]
            sol = lp_solve(build_saa_lp(sc, spec, subset=keep))
            best = max(best, sol.objective_value)
        assert rep.objective == pytest.approx(best, abs=1e-8)

    def test_objective_monotone_in_k(self):
        sc, spec, _ = make_instance(4)
        objs = [greedy_removal(sc, spec, ScenarioBudget(30, k, 1e-6)).objective
                for k in range(4)]
        assert all(b >= a - 1e-10 for a, b in zip(objs, objs[1:]))

    def test_certified_and_counts(self):
        sc, spec, _ = make_instance(5)
        budget = ScenarioBudget(30, 4, 1e-6)
        rep = greedy_removal(sc, spec, budget)
        assert rep.train_violations <= 4
        assert certify(rep.x, sc, budget, spec)
        assert rep.lp_solves >= 1 + 4     # one initial plus >= one trial each


class TestRandomRemoval:
    def test_k_zero_is_full(self):
        sc, spec, _ = make_instance(6)
        budget = ScenarioBudget(30, 0, 1e-6)
        assert random_removal(sc, spec, budget, seed=0).objective == pytest.approx(
            solve_full(sc, spec).objective, abs=1e-12)

    def test_seed_reproducible(self):
        sc, spec, _ = make_instance(7)
        budget = ScenarioBudget(30, 5, 1e-6)
        a = random_removal(sc, spec, budget, seed=42)
        b = random_removal(sc, spec, budget, seed=42)
        assert np.array_equal(a.x, b.x)
        assert a.objective == b.objective
        assert a.lp_solves == b.lp_solves

    def test_solve_count_exactly_k_plus_one(self):
        sc, spec, _ = make_instance(8)
        budget = ScenarioBudget(30, 6, 1e-6)
        rep = random_removal(sc, spec, budget, seed=1)
        assert rep.lp_solves == 7

    def test_greedy_beats_random_on_average(self):
        # greedy is not per-instance optimal, so only the ensemble mean is
        # a sound comparison
        diffs = []
        for seed in range(50):
            sc, spec, _ = make_instance(100 + seed, n_scen=25)
            budget = ScenarioBudget(25, 3, 1e-6)
            g = greedy_removal(sc, spec, budget).objective
            r = random_removal(sc, spec, budget, seed=seed).objective
            diffs.append(g - r)
        assert np.mean(diffs) >= 0.0


class TestDualGreedy:
    def test_k_zero_is_full(self):
        sc, spec, _ = make_instance(9)
        budget = ScenarioBudget(30, 0, 1e-6)
        assert dual_greedy_removal(sc, spec, budget).objective == pytest.approx(
            solve_full(sc, spec).objective, abs=1e-12)

    def test_solve_count_exactly_k_plus_one(self):
        sc, spec, _ = make_instance(10)
        budget = ScenarioBudget(30, 5, 1e-6)
        rep = dual_greedy_removal(sc, spec, budget)
        assert rep.lp_solves == 6
        assert rep.train_violations <= 5

    def test_removes_strongest_dual_row(self):
        # one scenario is far worse than the rest: it binds alone and carries
        # the only nonzero dual, so it must be the first removal
        returns = np.array([[1.05, 1.0], [1.06, 1.0], [0.80, 1.0], [1.07, 1.0]])
        sc = ScenarioSet(returns)
        spec = ChanceProgramSpec(0.95, [1.10, 1.0], cash_index=1)
        budget = ScenarioBudget(4, 1, 1e-6)
        full = solve_full(sc, spec)
        rep = dual_greedy_removal(sc, spec, budget)
        assert 2 not in rep.working_set.scenario_indices
        assert rep.objective > full.objective + 1e-6

    def test_refuses_integer_master(self):
        sc, spec, _ = make_instance(11)
        budget = ScenarioBudget(30, 2, 1e-6)
        with pytest.raises(UnsupportedForMip):
            run_method("fgrp", sc, spec, budget,
                       semi=SemiContinuousSpec(0.1, 0.5))


class TestPoolAndDiscard:
    def test_trivial_when_relaxed_optimum_certified(self):
        # huge allowance: the relaxed optimum already violates <= k
        sc, spec, _ = make_instance(12)
        budget = ScenarioBudget(30, 29, 1e-6)
        rep = pool_and_discard(sc, spec, budget, fast=False)
        assert rep.lp_solves == 1
        assert len(rep.working_set) == 0

    def test_k_zero_matches_full(self):
        for seed in (13, 14, 15):
            sc, spec, _ = make_instance(seed)
            budget = ScenarioBudget(30, 0, 1e-6)
            rep = pool_and_discard(sc, spec, budget, fast=False)
            assert rep.objective == pytest.approx(
                solve_full(sc, spec).objective, abs=1e-7)
            assert rep.train_violations == 0

    def test_working_set_within_support_bound(self):
        sc, spec, _ = make_instance(16, n_risky=3, n_scen=60, alpha=0.97)
        budget = ScenarioBudget(60, 4, 1e-6)
        rep = pool_and_discard(sc, spec, budget, fast=False)
        assert len(rep.working_set) <= sc.n_assets
        assert rep.train_violations <= 4

    def test_fast_variant_certified_and_tagged(self):
        sc, spec, _ = make_instance(17, n_scen=50, alpha=0.97)
        budget = ScenarioBudget(50, 3, 1e-6)
        slow = pool_and_discard(sc, spec, budget, fast=False)
        fast = pool_and_discard(sc, spec, budget, fast=True)
        assert slow.method == "pnd" and fast.method == "fpnd"
        assert certify(fast.x, sc, budget, spec)
        assert certify(slow.x, sc, budget, spec)

    @pytest.mark.parametrize("fast", [False, True])
    def test_one_evaluation_per_lp_solve(self, fast, monkeypatch):
        # a discard trial is certified off the outcomes its solve evaluated
        sc, spec, _ = make_instance(16, n_risky=3, n_scen=60, alpha=0.97)
        budget = ScenarioBudget(60, 4, 1e-6)
        counts = {"evaluate": 0, "lp": 0, "asked": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(heuristics, "evaluate_outcomes",
                            counted("evaluate", heuristics.evaluate_outcomes))
        monkeypatch.setattr(lp, "lp_solve", counted("lp", lp.lp_solve))
        best_removal = _Master.best_removal

        def watched(self, order, admissible=None, **kwargs):
            return best_removal(self, order, counted("asked", admissible),
                                **kwargs)

        monkeypatch.setattr(_Master, "best_removal", watched)
        rep = pool_and_discard(sc, spec, budget, fast=fast)
        assert counts["asked"] > 0          # the discard phase tried trials
        assert counts["evaluate"] == counts["lp"] == rep.lp_solves

    def test_fast_refuses_integer_master(self):
        sc, spec, _ = make_instance(18)
        budget = ScenarioBudget(30, 2, 1e-6)
        with pytest.raises(UnsupportedForMip):
            pool_and_discard(sc, spec, budget, fast=True,
                             semi=SemiContinuousSpec(0.1, 0.5))


class TestActiveSet:
    def test_certified_one_solve_when_trivial(self):
        sc, spec, _ = make_instance(19)
        budget = ScenarioBudget(30, 29, 1e-6)
        rep = active_set(sc, spec, budget)
        assert rep.lp_solves == 1
        assert len(rep.working_set) == 0

    def test_w_one_adds_kplus1_ranked(self, monkeypatch):
        from ccsaa.errors import CapExceeded
        sc, spec, _ = make_instance(21, n_scen=40, alpha=0.99)
        budget = ScenarioBudget(40, 2, 1e-6)
        # first round by hand
        relaxed = lp_solve(build_saa_lp(sc, spec, subset=[]))
        out = evaluate_outcomes(relaxed.x, sc, spec)
        assert out.ranked.size > 3    # instance sanity: the loop must engage
        expected_first = int(out.ranked[2])      # rank k+1 = 3rd, 1-based
        # cap additions at one so the working set exposes the first pick
        with monkeypatch.context() as patch:
            patch.setattr(heuristics, "MAX_ROUNDS", 1)
            try:
                rep = active_set(sc, spec, budget, cfg=AsmConfig(w=1.0))
            except CapExceeded as exc:
                rep = exc.report
        assert rep.working_set.scenario_indices == [expected_first]
        full = active_set(sc, spec, budget, cfg=AsmConfig(w=1.0))
        assert certify(full.x, sc, budget, spec)

    def test_solve_count_is_additions_plus_one(self):
        sc, spec, _ = make_instance(21, n_scen=50, alpha=0.97)
        budget = ScenarioBudget(50, 2, 1e-6)
        rep = active_set(sc, spec, budget)
        assert rep.lp_solves == len(rep.working_set) + 1

    def test_ensemble_below_exact_mip(self):
        for seed in range(5):
            sc, spec, _ = make_instance(200 + seed, n_scen=30, alpha=0.97)
            budget = ScenarioBudget(30, 2, 1e-6)
            rep = active_set(sc, spec, budget)
            exact = mip_solve(build_saa_bigm(sc, spec.alpha, 2, spec.objective))
            assert rep.objective <= exact.objective_value + 1e-6
            assert rep.train_violations <= 2

    def test_determinism(self):
        sc, spec, _ = make_instance(22, n_scen=45, alpha=0.97)
        budget = ScenarioBudget(45, 3, 1e-6)
        a = active_set(sc, spec, budget)
        b = active_set(sc, spec, budget)
        assert np.array_equal(a.x, b.x)
        assert a.objective == b.objective
        assert a.working_set.scenario_indices == b.working_set.scenario_indices
        assert a.lp_solves == b.lp_solves


class TestPolish:
    def run_pair(self, seed, n_scen=40, k=3, alpha=0.97):
        sc, spec, _ = make_instance(seed, n_scen=n_scen, alpha=alpha)
        budget = ScenarioBudget(n_scen, k, 1e-6)
        base = active_set(sc, spec, budget)
        two = polish_resolve(base, sc, spec, budget)
        three = polish_dual(base, sc, spec, budget)
        return sc, spec, budget, base, two, three

    def test_empty_working_set_returns_input(self):
        sc, spec, _ = make_instance(23)
        budget = ScenarioBudget(30, 29, 1e-6)
        base = active_set(sc, spec, budget)
        assert len(base.working_set) == 0
        two = polish_resolve(base, sc, spec, budget)
        assert two.objective == base.objective
        assert np.array_equal(two.x, base.x)

    def test_polish_never_hurts_and_stays_certified(self):
        for seed in range(8):
            sc, spec, budget, base, two, three = self.run_pair(300 + seed)
            assert two.objective >= base.objective - 1e-12
            assert three.objective >= base.objective - 1e-12
            assert certify(two.x, sc, budget, spec)
            assert certify(three.x, sc, budget, spec)
            assert two.train_violations <= budget.k_removals
            assert three.train_violations <= budget.k_removals

    def test_sweep_polish_improves_somewhere(self):
        improvements = 0
        for seed in range(10):
            _, _, _, base, two, _ = self.run_pair(400 + seed)
            if two.objective > base.objective + 1e-9:
                improvements += 1
        assert improvements >= 1

    def test_counts_accumulate(self):
        _, _, _, base, two, three = self.run_pair(500)
        assert two.lp_solves >= base.lp_solves
        assert three.lp_solves >= base.lp_solves

    def test_uncertified_input_rejected(self):
        sc, spec, _ = make_instance(24)
        budget = ScenarioBudget(30, 0, 1e-6)
        bad = solve_full(sc, spec)
        object.__setattr__ if False else None
        bad.train_violations = 5
        with pytest.raises(ValueError):
            polish_resolve(bad, sc, spec, budget)


class TestTimedOutPolish:
    """A polish hands a base run that stopped at its time limit back
    retagged, status kept; the clock is replaced so the stop is exact."""

    def run(self, monkeypatch, stop_at_solve):
        monkeypatch.setattr(_Master, "out_of_time",
                            lambda self: self.solves >= stop_at_solve)
        sc, spec, _ = make_instance(21, n_scen=50, alpha=0.97)
        budget = ScenarioBudget(50, 2, 1e-6)
        base = active_set(sc, spec, budget, time_limit=1.0)
        assert base.status == "time_limit"
        assert base.train_violations > budget.k_removals
        for name in ("asm2", "asm3"):
            rep = run_method(name, sc, spec, budget, time_limit=1.0)
            assert (rep.method, rep.status) == (name, "time_limit")
            assert np.array_equal(rep.x, base.x)
            assert (rep.objective, rep.train_violations, rep.lp_solves) == (
                base.objective, base.train_violations, base.lp_solves)
            assert (rep.working_set.scenario_indices
                    == base.working_set.scenario_indices)
        return base

    def test_empty_working_set(self, monkeypatch):
        assert len(self.run(monkeypatch, stop_at_solve=1).working_set) == 0

    def test_uncertified_working_set(self, monkeypatch):
        assert len(self.run(monkeypatch, stop_at_solve=3).working_set) == 2


class TestTimedOutDiscard:
    """PND and FPND report ``time_limit`` when the clock ends their discard
    phase and ``ok`` when the phase ends by itself; the clock is replaced
    by one that stops after a given number of discard rounds."""

    @pytest.mark.parametrize("fast", [False, True])
    def test_status_says_how_the_discard_phase_ended(self, monkeypatch, fast):
        sc, spec, _ = make_instance(20, n_risky=5, n_scen=100, alpha=0.97)
        budget = ScenarioBudget(100, 5, 1e-6)

        def run(rounds):
            checks = []     # master solves at each discard-phase check

            def clock(master):
                if master.outcomes.violation_count <= budget.k_removals:
                    checks.append(master.solves)
                return len(checks) > rounds

            monkeypatch.setattr(_Master, "out_of_time", clock)
            return pool_and_discard(sc, spec, budget, fast=fast), checks

        free, checks = run(rounds=float("inf"))
        assert free.status == "ok"
        assert len(checks) == 2 and free.lp_solves > checks[-1]
        for rounds, solves in enumerate(checks):
            rep, _ = run(rounds)
            assert (rep.status, rep.lp_solves) == ("time_limit", solves)
            assert rep.train_violations <= budget.k_removals
            assert rep.objective <= free.objective


class TestBestRemoval:
    def test_keeps_best_trial_and_restores(self):
        sc, spec, _ = make_instance(8, n_risky=4)
        master = _Master(sc, spec, range(30))
        x0, _ = master.solve()
        entry = master._sol
        order = master.binding()
        assert len(order) == 4
        trials = {i: lp_solve(build_saa_lp(sc, spec, subset=[
            j for j in range(30) if j != i])).objective_value for i in order}

        asked = []
        assert master.best_removal(order, lambda x: asked.append(x)) is None
        assert len(asked) == len(order)
        assert master._sol is entry and np.array_equal(master.x, x0)
        assert master.enforced.tolist() == list(range(30))
        # a floor no trial beats: admissible is never asked
        assert master.best_removal(order, lambda x: asked.append(x),
                                   floor=max(trials.values())) is None
        assert len(asked) == len(order)

        i, obj, verdict = master.best_removal(order)
        assert verdict is True
        assert obj == pytest.approx(max(trials.values()), abs=1e-9)
        assert trials[i] == pytest.approx(obj, abs=1e-9)
        assert master.enforced.tolist() == [j for j in range(30) if j != i]
        assert master.x @ spec.objective == pytest.approx(obj, abs=1e-9)
        first = next(j for j in order if j != i)
        assert master.best_removal([first], first=True)[0] == first
        assert master.row_of[first] < 0
        assert master.solves == 1 + 3 * len(order) + 1


class TestRunMethod:
    def test_dispatch_all_methods(self):
        sc, spec, _ = make_instance(25, n_scen=25, alpha=0.96)
        budget = ScenarioBudget(25, 2, 1e-6)
        objs = {}
        for name in ("full", "grp", "rap", "fgrp", "pnd", "fpnd",
                     "asm1", "asm2", "asm3"):
            rep = run_method(name, sc, spec, budget, seed=3)
            objs[name] = rep.objective
            assert rep.method == name
            assert rep.train_violations <= (0 if name == "full" else 2)
        for name, obj in objs.items():
            assert obj >= objs["full"] - 1e-9, name

    def test_semi_continuous_lp_free_methods(self):
        sc, spec, _ = make_instance(26, n_scen=25, alpha=0.96)
        budget = ScenarioBudget(25, 2, 1e-6)
        band = SemiContinuousSpec(0.05, 0.60)
        for name in ("full", "grp", "rap", "pnd", "asm1", "asm2"):
            rep = run_method(name, sc, spec, budget, seed=3, semi=band)
            assert rep.train_violations <= (0 if name == "full" else 2)
            risky = [j for j in range(sc.n_assets) if j != spec.cash_index]
            for j in risky:
                assert rep.x[j] <= 1e-5 or 0.05 - 1e-5 <= rep.x[j] <= 0.60 + 1e-5
            assert rep.mip_nodes >= 1

    def test_semi_continuous_multi_round_masters(self):
        # a tight band plus a high floor leaves the band-constrained relaxed
        # optimum uncertified, so the loop must add rows through MIP masters
        sc, spec, _ = make_instance(42, n_risky=3, n_scen=200, alpha=0.99)
        budget = ScenarioBudget(200, 2, 1e-6)
        band = SemiContinuousSpec(0.30, 0.60)
        rep = run_method("asm1", sc, spec, budget, seed=3, semi=band)
        assert rep.lp_solves > 1          # pooling engaged
        assert rep.mip_nodes >= rep.lp_solves
        assert rep.train_violations <= 2
        risky = [j for j in range(sc.n_assets) if j != spec.cash_index]
        for j in risky:
            assert rep.x[j] <= 1e-5 or 0.30 - 1e-5 <= rep.x[j] <= 0.60 + 1e-5

    def test_polish_gets_what_asm1_left_of_the_limit(self, monkeypatch):
        sc, spec, _ = make_instance(25, n_scen=25, alpha=0.96)
        budget = ScenarioBudget(25, 2, 1e-6)
        seen = []

        def polish(report, *args, time_limit=None, **kwargs):
            seen.append((report.wall_time, time_limit))
            return report

        monkeypatch.setattr(heuristics, "polish_resolve", polish)
        monkeypatch.setattr(heuristics, "polish_dual", polish)
        for name in ("asm2", "asm3"):
            run_method(name, sc, spec, budget, seed=3, time_limit=50.0)
            run_method(name, sc, spec, budget, seed=3)
        assert len(seen) == 4
        for wall, limit in seen[0::2]:
            assert wall > 0 and limit == 50.0 - wall
        assert [limit for _, limit in seen[1::2]] == [None, None]

    def test_band_without_a_cash_column_is_refused(self):
        # every banded model leaves the cash column out of the band, so each
        # needs one
        inst = default_instance()
        spec = ChanceProgramSpec(inst.alpha, inst.model.mean, cash_index=None)
        sc = sample_scenarios(inst.model, 200, 3)
        budget = ScenarioBudget(200, 2, float("nan"))
        for name in ("asm1", "exact-mip"):
            with pytest.raises(ConfigError, match="cash"):
                run_method(name, sc, spec, budget, seed=3,
                           semi=SemiContinuousSpec(0.05, 0.30))

    def test_semi_continuous_dual_methods_refused(self):
        sc, spec, _ = make_instance(27)
        budget = ScenarioBudget(30, 2, 1e-6)
        band = SemiContinuousSpec(0.05, 0.60)
        for name in ("fgrp", "fpnd", "asm3"):
            with pytest.raises(UnsupportedForMip):
                run_method(name, sc, spec, budget, seed=3, semi=band)


class TestTieRules:
    def test_largest_dual_prefers_smallest_index(self):
        scenarios = np.array([2, 5, 9, 14])
        assert _largest_dual(scenarios, np.array([-0.5, 2.0, -2.0, 2.0])) == (5, 2.0)
        assert _largest_dual(scenarios, np.array([-3.0, 1.0, 3.0, -3.0])) == (2, 3.0)
        assert _largest_dual(scenarios, np.zeros(4)) == (2, 0.0)

    def test_fallback_drops_smallest_slack(self):
        # alpha far below every return: nothing is binding, so the round
        # takes the fallback, and of the two equal slacks the smaller index
        # goes
        returns = np.array([[1.0, 1.3], [1.0, 1.2], [1.0, 1.2], [1.0, 1.25]])
        sc = ScenarioSet(returns)
        spec = ChanceProgramSpec(0.5, [1.0, 1.1], cash_index=0)
        for name in ("grp", "rap", "fgrp"):
            rep = run_method(name, sc, spec, ScenarioBudget(4, 1, 1e-6), seed=1)
            assert rep.working_set.scenario_indices == [0, 2, 3], name


class TestMasterViews:
    def test_enforced_views_follow_row_edits(self):
        sc, spec, _ = make_instance(31, n_scen=60)
        rng = np.random.default_rng(4)
        master = _Master(sc, spec, [17, 3, 40])
        for step in range(200):
            # a few edits between views, some undoing each other, and now
            # and then a solve, which gives rows to violated kept scenarios
            i = int(rng.integers(8)) if step % 3 else int(rng.integers(60))
            if master.kept[i]:
                master.remove(i)
            else:
                master.add(i)
            if rng.random() < 0.2:
                master.solve()
                out = evaluate_outcomes(master.x, sc, spec)
                assert not master.kept[out.violated].any()
            if rng.random() < 0.6:
                continue
            idx = master.enforced
            assert np.array_equal(idx, np.flatnonzero(master.kept))
            rows = np.flatnonzero(master.row_of >= 0)
            assert master.kept[rows].all()                    # W within E
            assert master._rowless == idx.size - rows.size
            assert master.model.n_rows == rows.size + 1       # and the budget
        master.solve()
        idx, pis = master.duals()
        assert np.array_equal(idx, master.enforced)
        rows = master.row_of[idx]
        assert np.array_equal(pis[rows >= 0],
                              master._sol.duals_for(rows[rows >= 0]))
        assert not pis[rows < 0].any()
        ws = master.working_set()
        assert ws.scenario_indices == idx.tolist()

    def test_adding_an_enforced_scenario_raises(self):
        sc, spec, _ = make_instance(33, n_scen=20)
        master = _Master(sc, spec, [2, 7])
        master.add(11)
        rows = master.model.n_rows
        for i in (2, 7, 11):
            with pytest.raises(ValueError):
                master.add(i)
            assert master.model.n_rows == rows
        master.remove(11)
        master.remove(7)
        assert master.model.n_rows == rows - 1
        master.add(7)                   # re-kept with a row of its own
        assert master.model.n_rows == rows
        assert master.enforced.tolist() == [2, 7]

    def test_enforced_slack_is_each_rows_margin(self):
        sc, spec, _ = make_instance(32, n_scen=80)
        for members in ([5, 17, 60], range(3, 80)):
            master = _Master(sc, spec, members)
            master.solve()
            idx, over = master.enforced_slack()
            assert idx.tolist() == sorted(members)
            want = np.array([sc.returns[i] @ master.x for i in idx]) - spec.alpha
            assert np.allclose(over, want, rtol=0, atol=1e-12)


class TestGeneratedRows:
    """Masters over generated rows against models with a row for every kept
    scenario, along random discard and re-keep sequences."""

    def edit(self, master, rng, discarded):
        """Re-keep a discarded scenario, or discard a kept one (mostly a
        binding one, which moves the optimum); then solve."""
        if discarded and rng.random() < 0.3:
            master.add(discarded.pop(int(rng.integers(len(discarded)))))
        else:
            pool = (master.binding() if rng.random() < 0.7 else None) \
                or master.enforced.tolist()
            i = int(pool[int(rng.integers(len(pool)))])
            master.remove(i)
            discarded.append(i)
        master.solve()

    def test_lp_master_matches_the_model_of_every_kept_row(self):
        inst = default_instance()
        draws = [(sample_scenarios(inst.model, 400, 5), inst.program_spec),
                 make_instance(40, n_risky=4, n_scen=300)[:2]]
        for sc, spec in draws:
            N = sc.n_scenarios
            rng = np.random.default_rng(N)
            for subset in (range(N), rng.choice(N, N // 2, replace=False)):
                master, discarded = _Master(sc, spec, subset), []
                master.solve()
                for step in range(26):
                    if step:
                        self.edit(master, rng, discarded)
                    kept = master.enforced
                    direct = lp_solve(build_saa_lp(sc, spec, subset=kept))
                    assert master._sol.objective_value == pytest.approx(
                        direct.objective_value, abs=1e-9)
                    out = evaluate_outcomes(master.x, sc, spec)
                    assert out.values[kept].max() <= VIOLATION_TOL
                    idx, pis = master.duals()
                    rowless = master.row_of[idx] < 0
                    assert rowless.any() and not pis[rowless].any()

    def test_banded_master_matches_the_model_of_every_kept_row(self):
        # a band under which the first solve needs two generation rounds
        sc, spec, _ = make_instance(41, n_risky=4, n_scen=300)
        band = SemiContinuousSpec(0.1, 0.5)
        rng = np.random.default_rng(3)
        master, discarded = _Master(sc, spec, range(300), semi=band), []
        master.solve()
        assert (master.row_of >= 0).sum() > heuristics._ROW_BATCH
        for step in range(12):
            if step:
                self.edit(master, rng, discarded)
            kept = master.enforced
            every = banded(MipModel(base=build_saa_lp(sc, spec, subset=kept),
                                    binaries=[]),
                           band, sc.n_assets, spec.cash_index)
            want = mip_solve(every).objective_value
            got = master._sol.objective_value
            assert abs(got - want) <= GAP * max(1.0, abs(want))
            out = evaluate_outcomes(master.x, sc, spec)
            assert out.values[kept].max() <= VIOLATION_TOL
            assert (master.row_of >= 0).sum() < kept.size


class TestSkippedSolves:
    """A solve after removing a kept scenario that has no row makes no LP
    or branch-and-bound run: it returns the last solution, which is the
    optimum over the smaller kept set, and still counts as a master solve."""

    def count_calls(self, monkeypatch, **targets):
        """Count the calls of each ``key=(owner, name)`` under its key."""
        counts = dict.fromkeys(targets, 0)
        for key, (owner, name) in targets.items():
            def call(*args, _fn=getattr(owner, name), _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, call)
        return counts

    def walk(self, master, rng, steps, counts, semi, close):
        """Random rowless removals, row removals and re-keeps, each followed
        by a solve; the number of solves that made no run."""
        discarded, skipped = [], 0
        for _ in range(steps):
            rowless = np.flatnonzero(master.kept & (master.row_of < 0))
            rows = np.flatnonzero(master.row_of >= 0)
            before, solves = dict(counts), master.solves
            x0, obj0 = master.x.copy(), master._sol.objective_value
            draw = rng.random()
            if rowless.size and draw < 0.6:
                i = int(rowless[int(rng.integers(rowless.size))])
            elif discarded and draw < 0.8:
                i = None
                master.add(discarded.pop(int(rng.integers(len(discarded)))))
            else:
                i = int(rows[int(rng.integers(rows.size))])
            if i is not None:
                master.remove(i)
                discarded.append(i)
            x, obj = master.solve()
            assert master.solves == solves + 1
            if i is not None and i in rowless:
                skipped += 1
                assert counts == before
                assert np.array_equal(x, x0) and obj == obj0
            else:
                assert counts["lp"] > before["lp"]
            # x is feasible over E and attains a fresh master's optimum
            out = evaluate_outcomes(x, master.scenarios, master.spec)
            assert out.values[master.enforced].max() <= VIOLATION_TOL
            fresh = _Master(master.scenarios, master.spec, master.enforced,
                            semi=semi)
            assert close(obj, fresh.solve()[1])
        return skipped

    def test_lp_master(self, monkeypatch):
        inst = default_instance()
        counts = self.count_calls(monkeypatch, lp=(lp, "lp_solve"),
                                  mip=(heuristics, "mip_solve"))
        draws = [(sample_scenarios(inst.model, 400, 5), inst.program_spec),
                 make_instance(43, n_risky=4, n_scen=300)[:2],
                 make_instance(44, n_risky=3, n_scen=200)[:2]]
        for seed, (sc, spec) in enumerate(draws):
            master = _Master(sc, spec, range(sc.n_scenarios))
            master.solve()
            skipped = self.walk(master, np.random.default_rng(seed), 30,
                                counts, None,
                                lambda got, want: abs(got - want) <= 1e-9)
            assert skipped >= 10

    def test_banded_master(self, monkeypatch):
        counts = self.count_calls(monkeypatch, lp=(lp, "lp_solve"),
                                  mip=(heuristics, "mip_solve"))
        band = SemiContinuousSpec(0.1, 0.5)
        for seed in (41, 45):
            sc, spec, _ = make_instance(seed, n_risky=4, n_scen=200)
            master = _Master(sc, spec, range(200), semi=band)
            master.solve()
            skipped = self.walk(
                master, np.random.default_rng(seed), 12, counts, band,
                lambda got, want: abs(got - want) <= GAP * max(1.0, abs(want)))
            assert skipped >= 4

    def test_asm2_reuses_the_outcomes_of_an_unchanged_x(self, monkeypatch):
        # removing a row that does not bind leaves x as it was, so its
        # outcomes stand; the run's outputs are the recorded ones
        counts = self.count_calls(
            monkeypatch, evaluate=(heuristics, "evaluate_outcomes"),
            lp=(lp, "lp_solve"))
        golden = TestGoldenDraw()
        rep, kept = golden.run("asm2", banded=False)
        assert 0 < counts["evaluate"] < counts["lp"]
        assert (repr(rep.objective), rep.lp_solves, rep.train_violations,
                kept) == golden.GOLDEN["asm2"]


class TestBandedTimeLimit:
    """An integer master's branch-and-bound gets what is left of the
    method's time limit, and one stopped there ends the method with status
    time_limit."""

    def test_first_master_stopped_reports_the_root_relaxation(self):
        inst = default_instance()
        sc, spec = sample_scenarios(inst.model, 300, 11), inst.program_spec
        band, budget = inst.semicontinuous, ScenarioBudget(300, 4, 1e-6)
        relaxed = banded(MipModel(base=build_saa_lp(sc, spec, subset=()),
                                  binaries=[]), band, sc.n_assets,
                         spec.cash_index)
        root = lp_solve(relaxed.base).x[: sc.n_assets]
        assert mip_solve(relaxed).node_count > 1    # a search to cut short
        for name in ("full", "grp", "rap", "pnd", "asm1", "asm2"):
            rep = run_method(name, sc, spec, budget, seed=3, semi=band,
                             time_limit=1e-9)
            assert (rep.method, rep.status) == (name, "time_limit"), name
            assert (rep.lp_solves, rep.mip_nodes) == (1, 1), name
            assert np.allclose(rep.x, root, rtol=0, atol=1e-12), name
            assert rep.objective == float(spec.objective @ rep.x), name
            assert rep.train_violations == evaluate_outcomes(
                rep.x, sc, spec).violation_count, name

    def test_later_master_stopped_reports_the_last_complete_solution(
            self, monkeypatch):
        # stop the middle master solve that searches: the run ends at the
        # master solve before it
        sc, spec, _ = make_instance(47, n_risky=4, n_scen=150, alpha=0.97)
        band = SemiContinuousSpec(0.1, 0.5)
        budget = ScenarioBudget(150, 6, 1e-6)
        limits, complete, stop_at = [], [], None
        master_solve = _Master.solve

        def stopping(model, warm=None, time_limit=None):
            res = mip_solve(model, warm=warm, time_limit=time_limit)
            limits.append(time_limit)
            if len(limits) == stop_at:
                return replace(res, status="time_limit", hit_time_limit=True)
            return res

        def recorded(master):
            first = len(limits)
            x, obj = master_solve(master)
            if not master.expired:
                complete.append((x.copy(), obj, first, len(limits)))
            return x, obj

        monkeypatch.setattr(heuristics, "mip_solve", stopping)
        monkeypatch.setattr(_Master, "solve", recorded)
        for name, limit in (("rap", None), ("asm1", 50.0)):
            stop_at = None
            limits.clear()
            complete.clear()
            full = run_method(name, sc, spec, budget, seed=3, semi=band,
                              time_limit=limit)
            assert full.status == "ok"
            assert all(0 < t <= (limit or DEFAULT_TIME_LIMIT) for t in limits)
            searched = [a for _, _, a, b in complete[1:] if b > a]
            stop_at = searched[len(searched) // 2] + 1
            limits.clear()
            complete.clear()
            rep = run_method(name, sc, spec, budget, seed=3, semi=band,
                             time_limit=limit)
            assert rep.status == "time_limit" and len(limits) == stop_at
            x, obj = complete[-1][:2]
            assert np.array_equal(rep.x, x) and rep.objective == obj
            assert rep.train_violations == evaluate_outcomes(
                x, sc, spec).violation_count

    def test_search_stopped_mid_generation_keeps_the_last_complete_one(
            self, monkeypatch):
        # a first solve of two generation rounds, stopped in its second
        sc, spec, _ = make_instance(41, n_risky=4, n_scen=300)
        band = SemiContinuousSpec(0.1, 0.5)
        limits, results = [], []

        def stopping(model, warm=None, time_limit=None):
            limits.append(time_limit)
            res = mip_solve(model, warm=warm, time_limit=time_limit)
            results.append(res)
            if len(limits) == 2:
                return replace(res, status="time_limit")
            return res

        monkeypatch.setattr(heuristics, "mip_solve", stopping)
        master = _Master(sc, spec, range(300), semi=band, time_limit=60.0)
        x, obj = master.solve()
        assert len(limits) == 2 and 0 < limits[1] < limits[0] <= 60.0
        assert master.expired and master.out_of_time()
        assert master._sol is results[0] and obj == results[0].objective_value
        assert np.array_equal(x, results[0].x[: sc.n_assets])
        assert master.outcomes.violation_count == evaluate_outcomes(
            x, sc, spec).violation_count > 0
        master.remove(int(np.flatnonzero(master.row_of >= 0)[0]))
        assert master.solve()[1] == obj        # an expired master searches
        assert len(limits) == 2 and master.solves == 1      # no more
        assert master.report("rap", obj).status == "time_limit"


    def test_polish_stopped_at_its_first_search_keeps_the_run(
            self, monkeypatch):
        # every search stops: the polish keeps the run it polished, with
        # status time_limit and the one stopped solve counted
        sc, spec, _ = make_instance(47, n_risky=4, n_scen=150, alpha=0.97)
        band = SemiContinuousSpec(0.1, 0.5)
        budget = ScenarioBudget(150, 6, 1e-6)
        base = active_set(sc, spec, budget, semi=band)
        assert base.status == "ok" and len(base.working_set) > 0

        def stopped(model, warm=None, time_limit=None):
            return replace(mip_solve(model, warm=warm, time_limit=time_limit),
                           status="time_limit")

        monkeypatch.setattr(heuristics, "mip_solve", stopped)
        rep = polish_resolve(base, sc, spec, budget, semi=band,
                             time_limit=50.0)
        assert (rep.method, rep.status) == ("asm2", "time_limit")
        assert np.array_equal(rep.x, base.x)
        assert (rep.objective, rep.train_violations, rep.lp_solves) == (
            base.objective, base.train_violations, base.lp_solves + 1)


class TestGoldenDraw:
    """Outputs on one default-instance draw, recorded before the master's
    row map moved from a dict to an array (pnd, asm1, asm2 and the banded
    runs: before the heuristics became pick rules over shared loops); any
    change in the tie rules or the arithmetic shows here.  Removal methods
    list the discarded rows.  Banded rap's node count was re-recorded when
    masters began to generate their rows (each generation round of an
    integer master is a branch-and-bound of its own), and again, 33 to 19,
    when a master solve after a rowless removal stopped re-running it."""

    N, SEED = 2000, 11
    GOLDEN = {
        "grp": ("1.1465458218358184", 33, 14,
                [47, 107, 193, 679, 716, 727, 934, 1051, 1460, 1514, 1654,
                 1686, 1795, 1959]),
        "fgrp": ("1.1464974905260494", 15, 14,
                 [39, 47, 107, 193, 679, 716, 727, 934, 1051, 1460, 1514,
                  1686, 1795, 1959]),
        "rap": ("1.146254813564915", 15, 13,
                [47, 107, 193, 207, 679, 716, 934, 1051, 1460, 1514, 1635,
                 1686, 1795, 1959]),
        "fpnd": ("1.145846592262205", 5, 5, [679, 1686]),
        "asm3": ("1.1465458218358184", 54, 14,
                 [207, 735, 781, 798, 810, 1537, 1582, 1635, 1664, 1724]),
        "pnd": ("1.145846592262205", 5, 5, [679, 1686]),
        "asm1": ("1.1465458218358184", 11, 14,
                 [207, 735, 781, 798, 810, 1537, 1582, 1635, 1664, 1724]),
        "asm2": ("1.1465458218358184", 107, 14,
                 [207, 735, 781, 798, 810, 1537, 1582, 1635, 1664, 1724]),
    }
    # the instance's semi-continuous band, so the masters are integer
    BANDED = {
        "rap": ("1.143548907536412", 15, 19, 0,
                [21, 64, 236, 237, 391, 860, 957, 1042, 1226, 1300, 1388,
                 1573, 1654, 1900]),
        "asm1": ("1.143548907536412", 1, 19, 0, []),
        "asm2": ("1.143548907536412", 1, 19, 0, []),
    }

    def run(self, name, banded):
        inst = default_instance()
        budget = max_removals(self.N, inst.risk_spec)
        assert budget.k_removals == 14
        sc = sample_scenarios(inst.model, self.N, self.SEED)
        rep = run_method(name, sc, inst.program_spec, budget, seed=self.SEED,
                         semi=inst.semicontinuous if banded else None)
        kept = sorted(rep.working_set.scenario_indices)
        if name in ("grp", "fgrp", "rap"):
            kept = sorted(set(range(self.N)) - set(kept))
        return rep, kept

    def test_methods_reproduce_recorded_outputs(self):
        for name, (obj, solves, violations, rows) in self.GOLDEN.items():
            rep, kept = self.run(name, banded=False)
            assert (repr(rep.objective), rep.lp_solves, rep.train_violations,
                    kept) == (obj, solves, violations, rows), name

    def test_banded_methods_reproduce_recorded_outputs(self):
        for name, expected in self.BANDED.items():
            rep, kept = self.run(name, banded=True)
            assert (repr(rep.objective), rep.lp_solves, rep.mip_nodes,
                    rep.train_violations, kept) == expected, name


class TestCyclingDraw:
    def test_grp_finishes_certified_on_draw_301(self):
        # the dual simplex cycled here until the pivot cap; a basis that
        # comes back now switches it to Bland's rule
        inst = default_instance()
        budget = max_removals(10_000, inst.risk_spec)
        sc = sample_scenarios(inst.model, 10_000, 301)
        rep = run_method("grp", sc, inst.program_spec, budget)
        assert rep.status == "ok"
        assert certify(rep.x, sc, budget, inst.program_spec)


class TestWallTime:
    def test_between_lp_time_and_elapsed(self, monkeypatch):
        spent, masters = [], []
        solve, master_solve = lp.lp_solve, _Master.solve

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return solve(*args, **kwargs)
            finally:
                spent.append(time.perf_counter() - t0)

        def counted(master):
            masters.append(master)
            return master_solve(master)

        monkeypatch.setattr(lp, "lp_solve", timed)
        monkeypatch.setattr(_Master, "solve", counted)
        sc, spec, _ = make_instance(28, n_scen=300)
        budget = ScenarioBudget(300, 6, 1e-6)
        for name in ("grp", "fgrp", "pnd", "asm1", "asm2", "asm3"):
            spent.clear()
            masters.clear()
            t0 = time.perf_counter()
            rep = run_method(name, sc, spec, budget, seed=3)
            elapsed = time.perf_counter() - t0
            # a generation loop is one master solve of one or more LP solves
            assert len(masters) == rep.lp_solves <= len(spent), name
            assert sum(spent) <= rep.wall_time <= elapsed, name


class TestTrialRollback:
    """A trial removal that is not kept rolls back: the scenario is kept
    again in its own row (or without one) and the master's state is the
    one before the trial, but for rows the trial generated."""

    N, SEED = 2000, 11

    def draw(self):
        inst = default_instance()
        return (sample_scenarios(inst.model, self.N, self.SEED),
                inst.program_spec, inst.semicontinuous,
                max_removals(self.N, inst.risk_spec))

    def trials(self, master, rowless, generated):
        """Reject a trial of each binding scenario with (or without) a row,
        one at a time: (trials that generated no row, trials that did)."""
        counts = [0, 0]
        order = [i for i in master.binding() if (master.row_of[i] < 0) == rowless]
        for i in order:
            generated.clear()
            kept, row_of = master.kept.copy(), master.row_of.copy()
            rows, rowless_count = set(master.model.row_ids()), master._rowless
            entry, solves, nodes = master._sol, master.solves, master.mip_nodes
            assert master.best_removal([i], lambda out: None) is None
            assert master.solves == solves + 1 and master._sol is entry
            assert np.array_equal(master.kept, kept)
            assert master._rowless == rowless_count - len(generated)
            changed = np.flatnonzero(master.row_of != row_of)
            assert changed.tolist() == sorted(generated)
            assert set(master.model.row_ids()) == rows | set(
                master.row_of[generated].tolist())
            if rowless:     # the integer master makes no search
                assert master.row_of[i] < 0 and master.mip_nodes == nodes
            counts[bool(generated)] += 1
        return counts

    def watch_rows(self, monkeypatch):
        generated = []
        give = _Master._give_row
        monkeypatch.setattr(_Master, "_give_row",
                            lambda m, i: generated.append(i) or give(m, i))
        return generated

    def test_lp_master_rows_come_back(self, monkeypatch):
        # the trials of every round of grp, each rejected before the round
        sc, spec, _, budget = self.draw()
        generated = self.watch_rows(monkeypatch)
        master, counts = _Master(sc, spec, range(self.N)), np.zeros(2, int)
        master.solve()
        for _ in range(budget.k_removals):
            counts += self.trials(master, False, generated)
            master.best_removal(master.removal_candidates())
        assert counts[0] >= 20 and counts[1] >= 1

    def test_banded_master_rowless_trials_make_no_search(self, monkeypatch):
        sc, spec, band, _ = self.draw()
        generated = self.watch_rows(monkeypatch)
        master = _Master(sc, spec, range(self.N), semi=band)
        master.solve()
        assert self.trials(master, True, generated) == [90, 0]

    def test_each_trial_starts_at_the_entry_solution(self):
        # a rowless trial after a row trial: nothing to solve, so its
        # objective is the entry one, not the row trial's
        sc, spec, _, _ = self.draw()
        master = _Master(sc, spec, range(self.N))
        _, entry = master.solve()
        row = master.binding()[0]
        rowless = int(np.flatnonzero(master.row_of < 0)[0])
        seen = []
        assert master.best_removal(
            [row, rowless, row],
            lambda out: seen.append(master._sol.objective_value)) is None
        assert seen[0] > entry + 1e-9 and seen == [seen[0], entry, seen[0]]

    def test_no_trial_adds_a_slot(self, monkeypatch):
        sc, spec, _, budget = self.draw()
        generated, masters = [], []
        add_row, report = heuristics.saa.add_scenario_row, _Master.report
        monkeypatch.setattr(heuristics.saa, "add_scenario_row",
                            lambda *a: generated.append(a[3]) or add_row(*a))
        monkeypatch.setattr(_Master, "report",
                            lambda m, *a, **k: masters.append(m) or report(m, *a, **k))
        rep = greedy_removal(sc, spec, budget)
        assert rep.lp_solves == TestGoldenDraw.GOLDEN["grp"][1]
        # each scenario is given a row once, and only generation gives one
        assert len(set(generated)) == len(generated)
        assert masters[0].model._n_slots <= 1 + len(generated)

    def test_no_numpy_solve_on_the_removal_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        sc, spec, _, budget = self.draw()
        rep = greedy_removal(sc, spec, budget)
        obj, solves, violations, _ = TestGoldenDraw.GOLDEN["grp"]
        assert (repr(rep.objective), rep.lp_solves,
                rep.train_violations) == (obj, solves, violations)
