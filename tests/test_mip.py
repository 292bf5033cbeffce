from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from ccsaa import lp
from ccsaa.certificate import ScenarioBudget
from ccsaa.data import default_instance
from ccsaa.errors import ConfigError
from ccsaa.gaussian import sample_scenarios
from ccsaa.heuristics import run_method
from ccsaa.lp import LpModel, lp_solve
from ccsaa.mip import (MipModel, SemiContinuousSpec, _fractional,
                       _incumbent_valid, apply_semicontinuous, big_m_values, build_saa_bigm,
                       exact_mip, mip_solve)
from ccsaa.saa import (ChanceProgramSpec, ScenarioSet, build_saa_lp,
                       evaluate_outcomes)


def gaussian_scenarios(rng, n_scen, means, vols):
    risky = means + vols * rng.standard_normal((n_scen, len(means)))
    return ScenarioSet(np.column_stack([risky, np.ones(n_scen)]))


def leave_k_out_best(scenarios, spec, k):
    """Brute-force oracle: best objective over all C(N,k) discard choices."""
    best = -np.inf
    flags = range(scenarios.n_scenarios)
    for drop in combinations(flags, k):
        keep = [i for i in flags if i not in drop]
        sol = lp_solve(build_saa_lp(scenarios, spec, subset=keep))
        if sol.status == lp.OPTIMAL and sol.objective_value > best:
            best = sol.objective_value
    return best


class TestBigM:
    def test_values_dominate_worst_case(self):
        rng = np.random.default_rng(0)
        sc = ScenarioSet(rng.uniform(0.7, 1.4, size=(25, 4)))
        alpha = 0.95
        M = big_m_values(sc, alpha)
        # simplex extreme points are unit vectors, so the max of
        # alpha - r.x over the simplex is alpha - min_j r_j
        for s in range(25):
            assert M[s] >= alpha - sc.returns[s].min()
            assert M[s] > 0

    def test_k_zero_equals_full_model(self):
        rng = np.random.default_rng(1)
        sc = gaussian_scenarios(rng, 15, np.array([1.06, 1.03]), np.array([0.2, 0.1]))
        spec = ChanceProgramSpec(0.95, np.array([1.06, 1.03, 1.0]), cash_index=2)
        full = lp_solve(build_saa_lp(sc, spec))
        model = build_saa_bigm(sc, 0.95, 0, spec.objective)
        res = mip_solve(model)
        assert res.status == lp.OPTIMAL
        assert res.objective_value == pytest.approx(full.objective_value, abs=1e-7)

    def test_n3_k1_matches_leave_one_out(self):
        rng = np.random.default_rng(2)
        sc = ScenarioSet(np.array([[0.90, 1.0], [1.10, 1.0], [0.97, 1.0]]))
        spec = ChanceProgramSpec(0.96, np.array([1.08, 1.0]), cash_index=1)
        want = leave_k_out_best(sc, spec, 1)
        res = mip_solve(build_saa_bigm(sc, 0.96, 1, spec.objective))
        assert res.objective_value == pytest.approx(want, abs=1e-6)

    def test_rejects_k_ge_n(self):
        sc = ScenarioSet(np.ones((3, 2)))
        with pytest.raises(ValueError):
            build_saa_bigm(sc, 0.9, 3, [1.0, 1.0])

    def test_a_model_larger_than_memory_is_refused(self):
        # N = 1e6 needs 8 TB; the stand-in has no returns, so reading them
        # (big_m_values) or allocating the model would fail otherwise
        huge = SimpleNamespace(n_scenarios=1_000_000, n_assets=3)
        with pytest.raises(ConfigError, match="physical memory"):
            build_saa_bigm(huge, 0.95, 10, [1.05, 1.08, 1.0])

    def test_random_small_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            sc = gaussian_scenarios(rng, 20, np.array([1.07, 1.04]),
                                    np.array([0.25, 0.12]))
            spec = ChanceProgramSpec(0.97, np.array([1.07, 1.04, 1.0]), cash_index=2)
            want = leave_k_out_best(sc, spec, 2)
            res = mip_solve(build_saa_bigm(sc, 0.97, 2, spec.objective))
            assert res.status == lp.OPTIMAL
            assert res.objective_value == pytest.approx(want, abs=1e-6)

    def test_root_relaxation_bounds_mip(self):
        rng = np.random.default_rng(4)
        sc = gaussian_scenarios(rng, 12, np.array([1.08]), np.array([0.3]))
        res = mip_solve(build_saa_bigm(sc, 0.95, 2, np.array([1.08, 1.0])))
        assert res.root_bound >= res.objective_value - 1e-9

    def test_bigm_slack_at_discarded_rows(self):
        rng = np.random.default_rng(5)
        sc = gaussian_scenarios(rng, 18, np.array([1.1]), np.array([0.35]))
        model = build_saa_bigm(sc, 0.97, 3, np.array([1.1, 1.0]))
        res = mip_solve(model)
        n = 2
        M = big_m_values(sc, 0.97)
        for s in range(18):
            z = res.x[n + s]
            if z > 0.5:   # discarded row: the big-M keeps it satisfiable
                lhs = sc.returns[s] @ res.x[:n] + M[s] * z
                assert lhs >= 0.97 - 1e-7


class TestExhaustiveEnumeration:
    def test_small_binary_counts_match_exhaustive(self):
        rng = np.random.default_rng(6)
        for trial in range(4):
            sc = gaussian_scenarios(rng, 8, np.array([1.09, 1.05]),
                                    np.array([0.3, 0.15]))
            spec_obj = np.array([1.09, 1.05, 1.0])
            model = build_saa_bigm(sc, 0.98, 2, spec_obj)
            res = mip_solve(model)
            # exhaustive over all 2^8 binary assignments
            best = -np.inf
            base = model.base
            n = 3
            for mask in range(2 ** 8):
                bits = [(mask >> s) & 1 for s in range(8)]
                if sum(bits) > 2:
                    continue
                for s, b in enumerate(bits):
                    base.set_bounds(n + s, float(b), float(b))
                sol = lp_solve(base)
                if sol.status == lp.OPTIMAL and sol.objective_value > best:
                    best = sol.objective_value
            for s in range(8):
                base.set_bounds(n + s, 0.0, 1.0)
            assert res.objective_value == pytest.approx(best, abs=1e-6)


class TestNoBinaries:
    def test_pure_lp_round_trip(self):
        m = LpModel([1.0, 2.0], upper=[1.0, 1.0])
        m.add_row([1.0, 1.0], "<=", 1.5)
        res = mip_solve(MipModel(base=m, binaries=[]))
        direct = lp_solve(m)
        assert res.objective_value == pytest.approx(direct.objective_value, abs=1e-12)
        assert res.node_count == 1


class TestSemiContinuous:
    def build_one_risky(self, mean, l, u):
        # columns: risky asset, cash (both objective = mean of returns)
        m = LpModel([mean, 1.0])
        m.add_row([1.0, 1.0], "=", 1.0)
        mm = MipModel(base=m, binaries=[])
        apply_semicontinuous(mm, SemiContinuousSpec(l, u), columns=[0])
        return mm

    def test_indicator_off_forces_zero(self):
        mm = self.build_one_risky(1.2, 0.3, 0.6)
        base = mm.base
        y = mm.semicontinuous_cols[0]
        base.set_bounds(y, 0.0, 0.0)
        sol = lp_solve(base)
        assert sol.x[0] == pytest.approx(0.0, abs=1e-9)
        base.set_bounds(y, 0.0, 1.0)

    def test_indicator_on_forces_band(self):
        mm = self.build_one_risky(1.2, 0.3, 0.6)
        base = mm.base
        y = mm.semicontinuous_cols[0]
        base.set_bounds(y, 1.0, 1.0)
        sol = lp_solve(base)
        assert 0.3 - 1e-9 <= sol.x[0] <= 0.6 + 1e-9
        base.set_bounds(y, 0.0, 1.0)

    def test_band_cap_binds_when_risky_dominates(self):
        # risky mean > 1 and unconstrained optimum (all-in) exceeds u
        mm = self.build_one_risky(1.2, 0.3, 0.6)
        res = mip_solve(mm)
        assert res.x[0] == pytest.approx(0.6, abs=1e-6)
        assert res.objective_value == pytest.approx(0.6 * 1.2 + 0.4 * 1.0, abs=1e-6)

    def test_all_cash_stays_feasible(self):
        for l, u in [(0.05, 0.3), (0.4, 0.9)]:
            mm = self.build_one_risky(0.8, l, u)   # risky not worth holding
            res = mip_solve(mm)
            assert res.status == lp.OPTIMAL
            assert res.x[1] == pytest.approx(1.0, abs=1e-6)

    def test_overlapping_application_rejected(self):
        mm = self.build_one_risky(1.1, 0.2, 0.5)
        with pytest.raises(ValueError):
            apply_semicontinuous(mm, SemiContinuousSpec(0.2, 0.5), columns=[0])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SemiContinuousSpec(0.6, 0.3)
        with pytest.raises(ValueError):
            SemiContinuousSpec(0.0, 0.5)


class TestGapAndIntegrality:
    def test_returned_binaries_integral(self):
        rng = np.random.default_rng(8)
        sc = gaussian_scenarios(rng, 14, np.array([1.06, 1.09]),
                                np.array([0.12, 0.3]))
        res = mip_solve(build_saa_bigm(sc, 0.96, 2, np.array([1.06, 1.09, 1.0])))
        n = 3
        for s in range(14):
            z = res.x[n + s]
            assert min(abs(z), abs(z - 1.0)) <= 1e-6
        assert res.gap <= 1e-4 + 1e-12

    def test_warm_incumbent_accepted(self):
        rng = np.random.default_rng(9)
        sc = gaussian_scenarios(rng, 10, np.array([1.07]), np.array([0.25]))
        model = build_saa_bigm(sc, 0.95, 1, np.array([1.07, 1.0]))
        first = mip_solve(model)
        again = mip_solve(model, warm=first.x)
        assert again.objective_value == pytest.approx(first.objective_value, abs=1e-9)

    def test_gap_at_time_limit_is_measured_from_the_open_nodes(self):
        # a zero limit leaves the root open above the warm all-cash
        # incumbent, so the gap is the root bound's lead over it
        inst = default_instance()
        sc = sample_scenarios(inst.model, 200, 7)
        model = build_saa_bigm(sc, inst.alpha, 4, inst.program_spec.objective)
        warm = np.zeros(model.base.n_cols)
        warm[inst.cash_index] = 1.0
        res = mip_solve(model, warm=warm, time_limit=0.0)
        assert (res.status, res.objective_value) == ("time_limit", 1.0)
        assert res.root_bound == pytest.approx(1.14970, abs=1e-5)
        assert res.gap == pytest.approx(res.root_bound - 1.0, abs=1e-12)


class TestIncumbentScreen:
    def test_one_violated_alive_row_rejects_and_dead_rows_do_not(self):
        m = LpModel([1.0, 1.0, 0.0], upper=[1.0, 1.0, 1.0])
        m.add_row([1.0, 1.0, 0.0], "<=", 1.5)
        bad = m.add_row([1.0, -1.0, 0.0], ">=", 0.5)
        m.add_row([0.0, 1.0, -1.0], "=", 0.0)
        model = MipModel(base=m, binaries=[2])
        x = np.array([0.5, 1.0, 1.0])        # 0.5 - 1.0 < 0.5 violates row 1
        assert not _incumbent_valid(model, x)
        m.remove_row(bad)
        assert _incumbent_valid(model, x)
        assert not _incumbent_valid(model, np.array([0.5, 1.0, 0.5]))  # fractional
        assert not _incumbent_valid(model, np.array([0.6, 1.0, 1.0]))  # row 0
        assert not _incumbent_valid(model, np.array([0.5, 1.0, 0.0]))  # row 2


class TestNodeWork:
    def test_first_most_fractional_binary(self):
        x = np.array([0.5, 0.5, 0.875, 0.25, 0.0, 0.75, 1.0, 0.25, 0.125, 0.875])
        assert _fractional(x, [2, 3, 5, 7, 9]) == 3    # 0.25 at 3, 5 and 7
        assert _fractional(x, [2, 9]) == 2              # 0.125 at both
        assert _fractional(np.array([0.0, 1.0, 1e-7, 1.0 - 1e-7]),
                           [0, 1, 2, 3]) == -1
        assert _fractional(x, []) == -1

    def test_fractional_matches_a_scan(self):
        def scan(x, binaries):
            worst, pick = 1e-6, -1
            for j in binaries:
                f = min(abs(x[j]), abs(x[j] - 1.0))
                if f > worst:
                    worst, pick = f, j
            return pick

        rng = np.random.default_rng(12)
        for _ in range(200):
            x = rng.choice([0.0, 1.0, 0.25, 0.75, 0.5, 1e-7], size=12)
            binaries = sorted(rng.choice(12, size=int(rng.integers(0, 13)),
                                         replace=False).tolist())
            assert _fractional(x, binaries) == scan(x, binaries)

    def test_one_bound_patch_per_node(self, monkeypatch):
        rng = np.random.default_rng(8)
        sc = gaussian_scenarios(rng, 30, np.array([1.06, 1.09]),
                                np.array([0.12, 0.3]))
        model = build_saa_bigm(sc, 0.96, 3, np.array([1.06, 1.09, 1.0]))
        base = model.base
        lower, upper = base.lb.copy(), base.ub.copy()
        calls = []
        set_bounds = LpModel.set_bounds

        def record(self, col, lo, hi):
            calls.append(np.array(col))
            set_bounds(self, col, lo, hi)

        monkeypatch.setattr(LpModel, "set_bounds", record)
        res = mip_solve(model)
        assert res.node_count > 3
        # every solved node but the root, plus the final restore
        assert len(calls) == res.node_count
        assert all(np.array_equal(c, model.binaries) for c in calls)
        assert np.array_equal(base.lb, lower) and np.array_equal(base.ub, upper)

    def test_warm_incumbent_solve_is_kept(self, monkeypatch):
        # an incumbent from the warm hint is solved once more at its fixings,
        # which leaves the engine at its vertex for the next related solve
        rng = np.random.default_rng(9)
        sc = gaussian_scenarios(rng, 10, np.array([1.07]), np.array([0.25]))
        model = build_saa_bigm(sc, 0.95, 1, np.array([1.07, 1.0]))
        first = mip_solve(model)
        solves = []
        monkeypatch.setattr(lp, "lp_solve",
                            lambda *a, **k: solves.append(1) or lp_solve(*a, **k))
        again = mip_solve(model, warm=first.x)
        assert again.objective_value == first.objective_value
        assert again.lp_solves == again.node_count
        assert len(solves) == again.lp_solves + 1


    def test_warm_started_root_is_not_solved_again(self, monkeypatch):
        # with a valid warm incumbent the root branches from its own
        # solution instead of waiting in the heap to be solved again
        inst = default_instance()
        sc = sample_scenarios(inst.model, 200, 7)
        model = build_saa_bigm(sc, inst.alpha, 4, inst.program_spec.objective)
        warm = np.zeros(model.base.n_cols)
        warm[inst.cash_index] = 1.0
        base, binaries = model.base, model.binaries
        lower, upper = base.lb[binaries], base.ub[binaries]
        at_root = []

        def spy(m, *args, **kwargs):
            at_root.append(np.array_equal(m.lb[binaries], lower)
                           and np.array_equal(m.ub[binaries], upper))
            return lp_solve(m, *args, **kwargs)

        monkeypatch.setattr(lp, "lp_solve", spy)
        res = mip_solve(model, warm=warm)
        assert len(at_root) > 1 and at_root[0]
        assert not any(at_root[1:])
        assert res.objective_value == 1.1476721722293097


class TestExactMipMethod:
    def instance(self):
        rng = np.random.default_rng(10)
        sc = gaussian_scenarios(rng, 40, np.array([1.06, 1.09]),
                                np.array([0.12, 0.3]))
        spec = ChanceProgramSpec(0.96, [1.06, 1.09, 1.0], cash_index=2)
        return sc, spec, ScenarioBudget(40, 3, float("nan"))

    def test_dispatched_by_run_method(self):
        sc, spec, budget = self.instance()
        rep = run_method("exact-mip", sc, spec, budget, seed=4)
        res = mip_solve(build_saa_bigm(sc, spec.alpha, 3, spec.objective))
        assert (rep.method, rep.status, rep.seed) == ("exact-mip", "ok", 4)
        assert rep.objective == res.objective_value
        assert (rep.lp_solves, rep.mip_nodes) == (res.lp_solves,
                                                  res.node_count)
        assert rep.train_violations == evaluate_outcomes(
            rep.x, sc, spec).violation_count <= 3

    def test_time_limit_zero_reports_the_root_point(self):
        # a zero limit stops at the root: no incumbent, so the root
        # relaxation's x comes back with its own objective, not NaN
        sc, spec, budget = self.instance()
        rep = exact_mip(sc, spec, budget, time_limit=0)
        root = lp_solve(build_saa_bigm(sc, spec.alpha, 3, spec.objective).base)
        assert (rep.status, rep.mip_nodes) == ("time_limit", 1)
        assert np.array_equal(rep.x, root.x[:3])
        assert rep.objective == float(spec.objective @ rep.x)
        assert rep.objective == pytest.approx(root.objective_value, abs=1e-12)
        assert rep.train_violations == evaluate_outcomes(
            rep.x, sc, spec).violation_count
