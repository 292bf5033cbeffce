from collections import Counter

import numpy as np
import pytest

from scipy.optimize import linprog

from ccsaa import default_instance, lp, sample_scenarios
from ccsaa.lp import LpModel, lp_solve, dual_objective
from ccsaa.mip import build_saa_bigm, mip_solve
from ccsaa.saa import ScenarioSet, build_saa_lp

from oracles import vertex_enumeration_lp


def random_instance(rng, n_vars=5, n_rows=8):
    """Random bounded LP that is feasible by construction (origin shifted in)."""
    c = rng.normal(size=n_vars)
    A = rng.normal(size=(n_rows, n_vars))
    x0 = rng.uniform(0.2, 0.8, size=n_vars)
    rels = rng.choice(["<=", ">="], size=n_rows)
    rhs = np.empty(n_rows)
    for i in range(n_rows):
        margin = rng.uniform(0.1, 1.0)
        rhs[i] = A[i] @ x0 + (margin if rels[i] == "<=" else -margin)
    lb = np.zeros(n_vars)
    ub = np.ones(n_vars)
    return c, A, rels, rhs, lb, ub


# rows of sample_scenarios(default_instance().model, 10000, 7)
CYCLING_ROWS = [1306, 1587, 1698, 1839, 1924, 2046, 2055, 2120, 2122, 2177,
                2308, 2454, 2552, 2565, 2781, 2788, 3145, 3147, 3232, 3270,
                3345, 3734, 3797, 3973, 4117, 4179, 4286, 4294, 4599, 5024,
                5313, 6098, 6454, 6465, 6588, 6653, 7124, 7173, 7546, 7617,
                8244, 8435, 8463, 8519, 8839, 8981, 9252, 9829, 9934]


def build(c, A, rels, rhs, lb, ub):
    m = LpModel(c, lower=lb, upper=ub)
    for i in range(len(rhs)):
        m.add_row(A[i], rels[i], rhs[i])
    return m


class TestBasics:
    def test_maximize_single_variable(self):
        m = LpModel([1.0])
        rid = m.add_row([1.0], "<=", 1.0)
        sol = lp_solve(m)
        assert sol.status == lp.OPTIMAL
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
        assert sol.dual(rid) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_face(self):
        m = LpModel([1.0, 1.0], lower=[0, 0], upper=[1, 1])
        m.add_row([1.0, 1.0], "<=", 1.0)
        sol = lp_solve(m)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self):
        m = LpModel([1.0], lower=[0.0], upper=[1.0])
        m.add_row([1.0], ">=", 2.0)
        assert lp_solve(m).status == lp.INFEASIBLE

    def test_unbounded(self):
        m = LpModel([1.0])
        m.add_row([-1.0], "<=", 1.0)
        assert lp_solve(m).status == lp.UNBOUNDED

    def test_equality_row(self):
        m = LpModel([1.0, -1.0], lower=[0, 0], upper=[2, 2])
        m.add_row([1.0, 1.0], "=", 1.0)
        sol = lp_solve(m)
        assert sol.status == lp.OPTIMAL
        assert sol.x @ np.ones(2) == pytest.approx(1.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_malformed_rows_rejected(self):
        m = LpModel([1.0, 2.0])
        with pytest.raises(ValueError):
            m.add_row([1.0], "<=", 1.0)
        with pytest.raises(ValueError):
            m.add_row([1.0, np.nan], "<=", 1.0)
        with pytest.raises(ValueError):
            m.add_row([1.0, 1.0], "<<", 1.0)
        with pytest.raises(ValueError):
            LpModel([np.inf, 1.0])

    def test_dump_mentions_rows(self):
        m = LpModel([1.0, 2.0])
        m.add_row([1.0, 1.0], "<=", 1.0)
        text = m.dump()
        assert "maximize" in text and "[r0]" in text


class TestOracleAgreement:
    def test_random_instances_match_vertex_enumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            c, A, rels, rhs, lb, ub = random_instance(rng)
            m = build(c, A, rels, rhs, lb, ub)
            sol = lp_solve(m)
            want, _ = vertex_enumeration_lp(c, A, rels, rhs, lb, ub)
            assert sol.status == lp.OPTIMAL
            assert sol.objective_value == pytest.approx(want, abs=1e-8), f"trial {trial}"


class TestDuality:
    def test_strong_duality_and_slackness(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            c, A, rels, rhs, lb, ub = random_instance(
                rng, n_vars=int(rng.integers(2, 7)), n_rows=int(rng.integers(2, 11)))
            m = build(c, A, rels, rhs, lb, ub)
            sol = lp_solve(m)
            assert sol.status == lp.OPTIMAL
            gap = abs(sol.objective_value - dual_objective(m, sol))
            assert gap <= 1e-7 * (1.0 + abs(sol.objective_value))
            for rid in m.row_ids():
                assert abs(sol.dual(rid)) * abs(sol.slack(rid)) <= 1e-6 * (
                    1.0 + abs(m._rhs[rid]))

    def test_dual_signs(self):
        rng = np.random.default_rng(11)
        c, A, rels, rhs, lb, ub = random_instance(rng)
        m = build(c, A, rels, rhs, lb, ub)
        sol = lp_solve(m)
        for rid in m.row_ids():
            _, rel, _ = m.row(rid)
            if rel == "<=":
                assert sol.dual(rid) >= -1e-9
            elif rel == ">=":
                assert sol.dual(rid) <= 1e-9


class TestEdits:
    def test_dominated_row_keeps_objective(self):
        m = LpModel([1.0, 1.0], upper=[1, 1])
        m.add_row([1.0, 1.0], "<=", 1.0)
        base = lp_solve(m).objective_value
        m.add_row([1.0, 1.0], "<=", 5.0)       # dominated
        assert lp_solve(m).objective_value == pytest.approx(base, abs=1e-9)

    def test_remove_unique_binding_row_improves(self):
        m = LpModel([1.0], upper=[10.0])
        rid = m.add_row([1.0], "<=", 1.0)
        first = lp_solve(m)
        assert first.objective_value == pytest.approx(1.0)
        m.remove_row(rid)
        second = lp_solve(m)
        assert second.objective_value == pytest.approx(10.0, abs=1e-9)

    def test_add_then_remove_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c, A, rels, rhs, lb, ub = random_instance(rng)
            m = build(c, A, rels, rhs, lb, ub)
            base = lp_solve(m).objective_value
            x_opt = lp_solve(m).x.copy()
            extra = rng.normal(size=c.size)
            rid = m.add_row(extra, "<=", extra @ x_opt - 0.05)  # cuts the optimum
            cut = lp_solve(m)
            if cut.status == lp.OPTIMAL:
                assert cut.objective_value <= base + 1e-9
            m.remove_row(rid)
            back = lp_solve(m)
            fresh = lp_solve(build(c, A, rels, rhs, lb, ub))
            assert back.objective_value == pytest.approx(base, abs=1e-9)
            assert back.objective_value == pytest.approx(fresh.objective_value, abs=1e-9)

    def test_remove_zero_dual_row_keeps_objective(self):
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(20):
            c, A, rels, rhs, lb, ub = random_instance(rng)
            m = build(c, A, rels, rhs, lb, ub)
            sol = lp_solve(m)
            for rid in list(m.row_ids()):
                if abs(sol.dual(rid)) < 1e-12 and sol.slack(rid) != 0.0:
                    m.remove_row(rid)
                    after = lp_solve(m)
                    assert after.objective_value == pytest.approx(
                        sol.objective_value, abs=1e-8)
                    hits += 1
                    break
        assert hits > 5

    def test_add_row_is_a_one_row_add_rows(self):
        # on a solved model, so that the engine takes the new row warm
        rng = np.random.default_rng(23)
        for _ in range(20):
            c, A, rels, rhs, lb, ub = random_instance(rng)
            pair = [build(c, A, rels, rhs, lb, ub) for _ in range(2)]
            x_opt = lp_solve(pair[0]).x
            lp_solve(pair[1])
            extra = rng.normal(size=c.size)
            rel = str(rng.choice(["<=", ">=", "="]))
            b = extra @ x_opt + rng.choice([-0.05, 0.05])
            assert pair[0].add_row(extra, rel, b) == \
                pair[1].add_rows(extra[None], rel, [b])[0]
            for name in ("_A", "_rhs", "_rel", "_slo", "_shi"):
                assert getattr(pair[0], name).tobytes() == \
                    getattr(pair[1], name).tobytes(), name
            assert pair[0]._engine.ss.tobytes() == pair[1]._engine.ss.tobytes()
            one, bulk = lp_solve(pair[0]), lp_solve(pair[1])
            assert one.status == bulk.status
            assert np.array_equal(one.x, bulk.x)

    def test_unknown_row_id(self):
        m = LpModel([1.0])
        with pytest.raises(KeyError):
            m.remove_row(3)


class TestWarmStarts:
    def test_warm_equals_cold_over_edit_sequences(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            c, A, rels, rhs, lb, ub = random_instance(
                rng, n_vars=4, n_rows=int(rng.integers(3, 8)))
            m = build(c, A, rels, rhs, lb, ub)
            sol = lp_solve(m)
            for _ in range(int(rng.integers(1, 5))):
                op = rng.integers(0, 2)
                ids = list(m.row_ids())
                if op == 0 or not ids:
                    extra = rng.normal(size=c.size)
                    m.add_row(extra, "<=" if rng.random() < 0.5 else ">=",
                              extra @ sol.x + rng.uniform(-0.2, 0.4))
                else:
                    m.remove_row(ids[int(rng.integers(0, len(ids)))])
                warm = lp_solve(m)
                cold = lp_solve(m, from_scratch=True)
                assert warm.status == cold.status
                if warm.status == lp.OPTIMAL:
                    assert warm.objective_value == pytest.approx(
                        cold.objective_value, abs=1e-8)
                sol = warm if warm.status == lp.OPTIMAL else sol

    def test_explicit_warm_basis_round_trip(self):
        rng = np.random.default_rng(23)
        c, A, rels, rhs, lb, ub = random_instance(rng)
        m = build(c, A, rels, rhs, lb, ub)
        sol = lp_solve(m)
        m2 = build(c, A, rels, rhs, lb, ub)
        again = lp_solve(m2, warm=sol.basis)
        assert again.objective_value == pytest.approx(sol.objective_value, abs=1e-10)
        assert again.iterations == 0

    def test_stale_basis_is_repaired(self):
        rng = np.random.default_rng(29)
        c, A, rels, rhs, lb, ub = random_instance(rng)
        m = build(c, A, rels, rhs, lb, ub)
        stale = lp_solve(m).basis
        extra = rng.normal(size=c.size)
        m.add_row(extra, "<=", 10.0)
        ids = list(m.row_ids())
        m.remove_row(ids[0])
        sol = lp_solve(m, warm=stale)
        cold = lp_solve(m, from_scratch=True)
        assert sol.status == cold.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(cold.objective_value, abs=1e-8)

    def test_basis_from_other_bounds(self):
        # a column the snapshot holds at an upper bound that is now infinite
        # rests at its lower bound (it used to enter x as inf)
        m = LpModel([1.0, 2.0], upper=[1.0, 0.5])
        m.add_row([1.0, 1.0], "<=", 3.0)
        m.add_row([1.0, 0.0], "<=", 2.0)      # 0 * inf is nan
        snap = lp_solve(m).basis
        assert snap.col_status.tolist() == [lp.AT_UPPER, lp.AT_UPPER]
        m.set_bounds(1, 0.0, np.inf)
        sol = lp_solve(m, warm=snap)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(
            lp_solve(m, from_scratch=True).objective_value, abs=1e-12)
        assert sol.x.tolist() == pytest.approx([0.0, 3.0], abs=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(31)
        c, A, rels, rhs, lb, ub = random_instance(rng)
        runs = []
        for _ in range(2):
            m = build(c, A, rels, rhs, lb, ub)
            sol = lp_solve(m)
            runs.append((sol.x.copy(), sol.objective_value,
                         sol.basis.col_status.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]
        assert np.array_equal(runs[0][2], runs[1][2])


class TestBasisInvariant:
    def test_basic_count_matches_rows(self):
        rng = np.random.default_rng(37)
        c, A, rels, rhs, lb, ub = random_instance(rng)
        m = build(c, A, rels, rhs, lb, ub)
        sol = lp_solve(m)
        assert sol.basis.n_basic == m.n_rows


class TestRecoveryCounters:
    """Each silent recovery is counted on the model's stats and logged."""

    def test_singular_warm_basis_cold_resets(self, caplog):
        m = LpModel([1.0, 1.0], upper=[1.0, 1.0])
        m.add_row([1.0, 1.0], "<=", 1.5)
        m.add_row([1.0, 1.0], "<=", 1.5)
        # both basic columns against two identical tight rows: singular
        basis = lp.Basis(np.array([lp.BASIC, lp.BASIC], dtype=np.int8),
                         np.array([0, 1]),
                         np.array([lp.AT_LOWER, lp.AT_LOWER], dtype=np.int8))
        with caplog.at_level("DEBUG", logger="ccsaa"):
            sol = lp_solve(m, warm=basis)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(1.5, abs=1e-12)
        assert m.stats.cold_resets == 1
        assert (m.stats.detach_failures, m.stats.bland_switches) == (0, 0)
        assert "cold reset" in caplog.text

    def test_unbounded_release_is_a_detach_failure(self, caplog):
        m = LpModel([1.0])
        rid = m.add_row([1.0], "<=", 1.0)
        assert lp_solve(m).status == lp.OPTIMAL
        with caplog.at_level("DEBUG", logger="ccsaa"):
            m.remove_row(rid)
        assert m.stats.detach_failures == 1
        assert "releasing row 0 failed" in caplog.text
        assert lp_solve(m).status == lp.UNBOUNDED
        assert (m.stats.cold_resets, m.stats.bland_switches) == (0, 0)

    def test_cycling_dual_switches_to_bland(self, caplog):
        # 49 scenario rows on which the dual simplex cycled under Dantzig's
        # rule until the pivot cap: its basis comes back, and Bland's rule
        # then finishes at the HiGHS optimum
        scen = sample_scenarios(default_instance().model, 10000, 7)
        spec = default_instance().program_spec
        m = build_saa_lp(scen, spec, subset=CYCLING_ROWS)
        with caplog.at_level("DEBUG", logger="ccsaa"):
            sol = lp_solve(m)
        R = scen.returns[CYCLING_ROWS]
        highs = linprog(-spec.objective, A_ub=-R,
                        b_ub=np.full(len(CYCLING_ROWS), -spec.alpha),
                        A_eq=np.ones((1, R.shape[1])), b_eq=[1.0],
                        bounds=(0, None), method="highs")
        assert sol.status == lp.OPTIMAL and highs.status == 0
        assert sol.objective_value == pytest.approx(-highs.fun, abs=1e-9)
        assert m.stats.bland_switches >= 1
        assert "Bland" in caplog.text
        assert (m.stats.cold_resets, m.stats.detach_failures) == (0, 0)

    def test_drift_after_primal_is_repaired_and_counted(self, monkeypatch,
                                                        caplog):
        m = LpModel([1.0, 1.0])
        m.add_row([1.0, -1.0], "<=", 0.0)
        m.add_row([1.0, 1.0], "<=", 2.0)
        real = lp._Engine._primal_infeasibility
        calls = []

        def drifted_once(self):
            # the second check follows the first primal pass
            calls.append(None)
            return 1.0 if len(calls) == 2 else real(self)

        monkeypatch.setattr(lp._Engine, "_primal_infeasibility", drifted_once)
        with caplog.at_level("DEBUG", logger="ccsaa"):
            sol = lp_solve(m)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(2.0, abs=1e-12)
        assert m.stats.repairs == 1 and len(calls) == 4
        assert "drifted out of feasibility" in caplog.text
        assert (m.stats.cold_resets, m.stats.detach_failures,
                m.stats.bland_switches) == (0, 0, 0)


class TestBlandDual:
    def test_bland_entering_keeps_the_dual_feasible(self, monkeypatch):
        # Bland's rule from the first pivot of every phase; each dual phase
        # re-solves after a row that cuts through the optimum
        begin, dual = lp._Engine._begin, lp._Engine.dual
        ends = []

        def bland_begin(eng, phase):
            begin(eng, phase)
            eng._bland = True

        def checked_dual(eng, c):
            result = dual(eng, c)
            if result == "feasible":
                ends.append(eng.dual_feasible(c))
            return result

        monkeypatch.setattr(lp._Engine, "_begin", bland_begin)
        monkeypatch.setattr(lp._Engine, "dual", checked_dual)
        rng = np.random.default_rng(90)
        for _ in range(300):
            m = LpModel(rng.normal(size=6), upper=np.ones(6))
            m.add_rows(rng.uniform(0.0, 1.0, (10, 6)), "<=",
                       rng.uniform(1.0, 3.0, 10))
            x = lp_solve(m).x
            a = rng.normal(size=6)
            m.add_row(a, "<=", float(a @ x) - rng.uniform(0.05, 0.5))
            lp_solve(m)
        assert len(ends) > 200 and all(ends)


# The three at-bound rules that _Engine._rest_status replaced, as references.
def cold_reset_rule(lo, hi, x):
    return (lp.AT_LOWER if np.isfinite(lo)
            else lp.AT_UPPER if np.isfinite(hi) else lp.NB_FREE)


def nearest_bound_rule(lo, hi, x):
    if np.isfinite(lo) and np.isfinite(hi):
        return lp.AT_LOWER if abs(x - lo) <= abs(x - hi) else lp.AT_UPPER
    return cold_reset_rule(lo, hi, x)


def bounds_changed_rule(st, lo, hi):
    if st == lp.AT_LOWER and not np.isfinite(lo):
        return lp.AT_UPPER if np.isfinite(hi) else lp.NB_FREE
    if st == lp.AT_UPPER and not np.isfinite(hi):
        return lp.AT_LOWER if np.isfinite(lo) else lp.NB_FREE
    return st


class TestRestStatus:
    """Each (bounds, x) case is one column: finite and infinite bounds on
    each side, x at, between and beyond them."""

    BOUNDS = [(0.0, 1.0), (2.0, 2.0), (0.0, np.inf), (-np.inf, 1.0),
              (-np.inf, np.inf)]
    XS = [-0.5, 0.0, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 2.5]

    def engine(self):
        cases = [(lo, hi, x) for lo, hi in self.BOUNDS for x in self.XS]
        lo, hi, x = map(np.array, zip(*cases))
        m = LpModel(np.ones(x.size), lower=lo, upper=hi)
        m._engine = eng = lp._Engine(m)
        eng.cold_reset()
        eng.x = x.copy()
        return eng, cases

    def test_cold_reset(self):
        eng, cases = self.engine()
        assert eng.cs.tolist() == [cold_reset_rule(*c) for c in cases]

    def test_repaired_basis_rests_at_the_nearest_bound(self):
        eng, cases = self.engine()
        eng.T = list(range(len(cases)))
        eng.cs[:] = lp.BASIC
        eng._repair_counts()
        assert eng.T == [] and eng.S == []
        assert eng.cs.tolist() == [nearest_bound_rule(*c) for c in cases]

    def test_bound_edits_keep_the_side_while_it_is_finite(self):
        eng, cases = self.engine()
        m = eng.m
        for st in (lp.AT_LOWER, lp.AT_UPPER, lp.BASIC):
            eng.cs[:] = st
            cols = np.arange(len(cases))
            m.set_bounds(cols, m.lb.copy(), m.ub.copy())
            assert eng.cs.tolist() == [bounds_changed_rule(st, lo, hi)
                                       for lo, hi, _ in cases]
        # a free column given a finite bound now rests at it, inside its box
        eng.cs[:] = lp.NB_FREE
        m.set_bounds(np.arange(len(cases)), m.lb.copy(), m.ub.copy())
        assert eng.cs.tolist() == [cold_reset_rule(*c) for c in cases]
        assert np.all((m.lb <= eng.x) & (eng.x <= m.ub))


def solved_pair(seed, n_vars=8, n_rows=10, ub=1.0):
    """Two identical solved models: one to edit column by column, one in a
    batch."""
    rng = np.random.default_rng(seed)
    c, A, rels, rhs, lb, _ = random_instance(rng, n_vars, n_rows)
    ub = np.full(n_vars, ub)
    models = [build(c, A, rels, rhs, lb, ub) for _ in range(2)]
    for m in models:
        assert lp_solve(m).status == lp.OPTIMAL
    return models


def engine_state(m):
    eng = m._engine
    return eng.x.tobytes(), eng.cs.tobytes(), eng.valid, m.lb.tobytes(), m.ub.tobytes()


class TestBatchedBounds:
    """One set_bounds call over an array of columns leaves the model and its
    engine exactly as the same edits made one column at a time."""

    def check(self, models, cols, lower, upper):
        per_col, batch = models
        for j, lo, hi in zip(cols, lower, upper):
            per_col.set_bounds(int(j), lo, hi)
        batch.set_bounds(np.asarray(cols), np.asarray(lower), np.asarray(upper))
        assert engine_state(batch) == engine_state(per_col)
        return batch._engine

    def test_nonbasic_basic_and_mixed_batches(self):
        mixed = 0
        for seed in range(40):
            models = solved_pair(seed)
            cs = models[0]._engine.cs
            basic = np.flatnonzero(cs == lp.BASIC)
            nonbasic = np.flatnonzero(cs != lp.BASIC)
            if not (basic.size and nonbasic.size):
                continue
            mixed += 1
            for cols in (nonbasic, basic, np.arange(cs.size)):
                rng = np.random.default_rng(seed)
                lo = rng.uniform(0.0, 0.3, cols.size)
                self.check(models, cols, lo, lo + rng.uniform(0.2, 0.7, cols.size))
        assert mixed >= 10

    def test_a_batch_moves_nonbasic_values_to_their_bounds(self):
        models = solved_pair(3)
        before = models[1]._engine.x.copy()
        cols = np.flatnonzero(models[0]._engine.cs != lp.BASIC)
        eng = self.check(models, cols, np.full(cols.size, 0.25),
                         np.full(cols.size, 0.5))
        assert not np.array_equal(eng.x, before)
        assert np.all(eng.x[cols] == np.where(eng.cs[cols] == lp.AT_LOWER, 0.25, 0.5))

    def test_moves_to_and_from_infinite_bounds(self):
        models = solved_pair(5, ub=np.inf)
        cs = models[0]._engine.cs.copy()
        at_lower = np.flatnonzero(cs == lp.AT_LOWER)
        assert at_lower.size >= 2
        first, second = at_lower[:2]
        # lower bound dropped: to AT_UPPER with a finite upper, else NB_FREE
        cols = [first, second]
        eng = self.check(models, cols, [-np.inf, -np.inf], [2.0, np.inf])
        assert (eng.cs[first], eng.cs[second]) == (lp.AT_UPPER, lp.NB_FREE)
        # upper bound dropped at AT_UPPER: to AT_LOWER, else NB_FREE
        eng = self.check(models, [first], [0.25], [np.inf])
        assert (eng.cs[first], eng.x[first]) == (lp.AT_LOWER, 0.25)
        eng = self.check(models, [first], [-np.inf], [1.5])
        assert (eng.cs[first], eng.x[first]) == (lp.AT_UPPER, 1.5)
        eng = self.check(models, [first, second], [-np.inf, 0.0],
                         [np.inf, 1.0])
        assert (eng.cs[first], eng.x[first]) == (lp.NB_FREE, 0.0)

    def test_an_inverted_pair_raises_and_writes_nothing(self):
        _, m = solved_pair(7)
        before = engine_state(m)
        with pytest.raises(ValueError, match="exceeds"):
            m.set_bounds(np.array([0, 1, 2]), np.array([0.1, 0.6, 0.0]),
                         np.array([0.9, 0.5, 1.0]))
        assert engine_state(m) == before


def load_basis_by_rows(eng, basis):
    """The per-row dict lookup that ``_Engine.load_basis`` replaced, kept as
    the reference for its vectorised form."""
    m = eng.m
    eng._sync_slack_capacity()
    cs = np.full(m.n_cols, lp.AT_LOWER, dtype=np.int8)
    k = min(m.n_cols, basis.col_status.size)
    cs[:k] = basis.col_status[:k]
    eng.cs = cs
    eng.ss[:] = lp.BASIC
    known = dict(zip(basis.row_ids.tolist(), basis.row_status.tolist()))
    for slot in m.row_ids():
        st = known.get(int(slot), lp.BASIC)
        eng.ss[slot] = lp.BASIC if st == lp.BASIC else eng._nb_slack_status(slot)
    eng.S = [int(i) for i in m.row_ids() if eng.ss[i] != lp.BASIC]
    eng.T = [int(j) for j in np.flatnonzero(eng.cs == lp.BASIC)]
    eng._repair_counts()
    eng._set_nonbasic_values()
    try:
        eng._recompute_x()
    except lp._KernelSingular:
        eng._recover_cold("loading a basis")
    eng.valid = True


class TestVectorisedBasisLoad:
    def check(self, m, basis):
        fast, ref = lp._Engine(m), lp._Engine(m)
        fast.load_basis(basis)
        load_basis_by_rows(ref, basis)
        ns = m._n_slots
        assert fast.S == ref.S and fast.T == ref.T
        assert fast.ss[:ns].tobytes() == ref.ss[:ns].tobytes()
        assert fast.cs.tobytes() == ref.cs.tobytes()
        assert fast.x.tobytes() == ref.x.tobytes()
        return fast

    def snapshot(self, seed, n_rows=14):
        rng = np.random.default_rng(seed)
        c, A, rels, rhs, lb, ub = random_instance(rng, n_vars=6, n_rows=n_rows)
        m = build(c, A, rels, rhs, lb, ub)
        assert lp_solve(m).status == lp.OPTIMAL
        return m, m._engine.snapshot_basis(), rng

    def test_same_model(self):
        for seed in range(20):
            m, basis, _ = self.snapshot(seed)
            eng = self.check(m, basis)
            assert eng.S == sorted(eng.S) and eng.T == sorted(eng.T)

    def test_rows_removed_since_the_snapshot(self):
        tight_removed = 0
        for seed in range(20):
            m, basis, rng = self.snapshot(seed)
            m._engine = None            # drop rows without release pivots
            for rid in rng.choice(m.row_ids(), 5, replace=False):
                tight_removed += basis.row_status[rid] != lp.BASIC
                m.remove_row(int(rid))
            self.check(m, basis)
        assert tight_removed > 0

    def test_rows_added_after_the_snapshot(self):
        for seed in range(20):
            m, basis, rng = self.snapshot(seed, n_rows=8)
            for _ in range(4):
                m.add_row(rng.normal(size=m.n_cols), "<=", 5.0)
            self.check(m, basis)

    def test_rows_the_basis_does_not_list(self):
        # a basis from a model that lacked some rows between listed ones
        missed_tight = 0
        for seed in range(20):
            m, basis, _ = self.snapshot(seed)
            keep = np.arange(basis.row_ids.size) % 2 == 0
            missed_tight += int(np.sum(basis.row_status[~keep] != lp.BASIC))
            self.check(m, lp.Basis(basis.col_status, basis.row_ids[keep],
                                   basis.row_status[keep]))
        assert missed_tight > 0

    def test_empty_basis(self):
        m, _, _ = self.snapshot(1)
        empty = lp.Basis(np.zeros(0, dtype=np.int8), np.zeros(0, dtype=np.int64),
                         np.zeros(0, dtype=np.int8))
        eng = self.check(m, empty)
        assert eng.S == [] and eng.T == []


def scenario_lp(rng, n_scen, n_assets=4):
    """Scenario rows r.x >= 0.95 over unit-scale returns with a cash column
    (the last) under the budget row sum(x) = 1, x >= 0."""
    returns = 1.0 + rng.normal(0.04, 0.15, size=(n_scen, n_assets))
    returns[:, -1] = 1.0
    m = LpModel(rng.uniform(1.0, 1.1, n_assets))
    m.add_row(np.ones(n_assets), "=", 1.0)
    m.add_rows(returns, ">=", np.full(n_scen, 0.95))
    return m, returns


# ----------------------------------------------------------------------
# the ratio test, the dual's violations and leaving variable, and the
# feasibility check on scenario-program shapes, against a reference pass that
# recomputes every slot's slack and walks the basic variables one at a time
# ----------------------------------------------------------------------

def full_slacks(eng):
    m = eng.m
    ns = m._n_slots
    return m._rhs[:ns] - m._A[:ns] @ eng.x


def basic_mask(eng):
    ns = eng.m._n_slots
    return eng.m._alive[:ns] & (eng.ss[:ns] == lp.BASIC)


def basic_variables(eng):
    """(index, value, lower, upper) of each basic variable: the slacks of
    alive slots, ascending, then the columns in T's order."""
    m, n, s = eng.m, eng.m.n_cols, full_slacks(eng)
    return ([(n + int(r), s[r], m._slo[r], m._shi[r])
             for r in np.flatnonzero(basic_mask(eng))]
            + [(j, eng.x[j], m.lb[j], m.ub[j]) for j in eng.T])


def full_ratio(eng, dx):
    """The least step of a basic variable to a limit along dx, the least
    index within _TIE of it, and the bound that variable reaches."""
    m = eng.m
    rates = np.concatenate([dx, -(m._A[:m._n_slots] @ dx)])
    blocks = []
    for v, value, lo, hi in basic_variables(eng):
        rate = rates[v]
        if rate < -lp.TOL_PIVOT and np.isfinite(lo):
            blocks.append((max(value - lo, 0.0) / -rate, v, lp.AT_LOWER))
        elif rate > lp.TOL_PIVOT and np.isfinite(hi):
            blocks.append((max(hi - value, 0.0) / rate, v, lp.AT_UPPER))
    if not blocks:
        return np.inf, -1, None
    theta = min(b[0] for b in blocks)
    _, v, status = min((b for b in blocks if b[0] <= theta + lp._TIE),
                       key=lambda b: b[1])
    return theta, v, status


def full_violations(eng):
    """Each basic variable's index, and how far it lies below its lower
    limit and above its upper one."""
    basic = basic_variables(eng)
    return (np.array([v for v, _, _, _ in basic], dtype=np.intp),
            np.array([lo - value for _, value, lo, _ in basic]),
            np.array([value - hi for _, value, _, hi in basic]))


def full_leaving(eng):
    """The dual's leaving variable and the bound it snaps to: the first most
    violated basic variable, or the least violated index under Bland's rule."""
    viol = [(max(lo - value, value - hi), v, lo - value >= value - hi)
            for v, value, lo, hi in basic_variables(eng)]
    viol = [t for t in viol if t[0] >= lp.TOL_FEAS]
    if not viol:
        return None
    # max() returns the first of equal maxima
    _, v, below = (min(viol, key=lambda t: t[1]) if eng._bland
                   else max(viol, key=lambda t: t[0]))
    return v, lp.AT_LOWER if below else lp.AT_UPPER


def full_infeasibility(eng):
    m = eng.m
    ns = m._n_slots
    v = 0.0
    if eng.T:
        xt = eng.x[eng.T]
        v = max(v, float(np.max(np.maximum(m.lb[eng.T] - xt, 0.0))))
        v = max(v, float(np.max(np.maximum(xt - m.ub[eng.T], 0.0))))
    s, mask = full_slacks(eng), basic_mask(eng)
    v = max(v, float(np.max(np.maximum(m._slo[:ns] - s, 0.0)[mask], initial=0.0)))
    v = max(v, float(np.max(np.maximum(s - m._shi[:ns], 0.0)[mask], initial=0.0)))
    return v


class PassCheck:
    """Compares each ratio test, violation pass and feasibility check of the
    engine, and each leaving variable of the dual, with the reference pass
    over the same state, and counts the comparisons and, per phase, the
    columns and slacks that leave the basis.  The reference reads no cached
    slack, so a stale cache shows as a mismatch."""

    def __init__(self, monkeypatch):
        self.compared = 0
        self.leaves = Counter()
        E = lp._Engine
        ratio, violations, infeas, exchange = (
            E._ratio, E._violations, E._primal_infeasibility, E._exchange)

        def checked_ratio(eng, dx):
            want = full_ratio(eng, dx)
            got = ratio(eng, dx)
            assert got[1:] == want[1:]
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-15)
            self.compared += 1
            return got

        def checked_violations(eng):
            want = full_violations(eng)
            got = violations(eng)
            assert got[0].tolist() == want[0].tolist()
            for g, w in zip(got[1:], want[1:]):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)
            self.compared += 1
            return got

        def checked_infeasibility(eng):
            want = full_infeasibility(eng)
            got = infeas(eng)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
            self.compared += 1
            return got

        def checked_exchange(eng, leave, status, enter):
            if eng._phase == "dual":
                assert (leave, status) == full_leaving(eng)
            kind = "column" if leave < eng.m.n_cols else "slack"
            self.leaves[eng._phase, kind] += 1
            return exchange(eng, leave, status, enter)

        monkeypatch.setattr(E, "_ratio", checked_ratio)
        monkeypatch.setattr(E, "_violations", checked_violations)
        monkeypatch.setattr(E, "_primal_infeasibility", checked_infeasibility)
        monkeypatch.setattr(E, "_exchange", checked_exchange)

    def both_kinds_leave(self, phases=("primal", "dual", "release")):
        return all(self.leaves[phase, kind] > 0 for phase in phases
                   for kind in ("column", "slack"))


@pytest.fixture
def passes(monkeypatch):
    return PassCheck(monkeypatch)


def release_binding(m, rng, rounds):
    """Remove a binding row, re-adding some removed rows as new ones (the
    removal heuristics' edit pattern), and after each edit check the warm
    re-solve against a cold one."""
    removed = []
    sol = lp_solve(m)
    assert sol.status == lp.OPTIMAL
    for _ in range(rounds):
        ids = m.row_ids()
        ids = ids[m._rel[ids] != lp.EQ]
        tight = ids[np.abs(sol.slacks_for(ids)) <= 1e-9]
        if tight.size == 0:
            break
        rid = int(tight[rng.integers(tight.size)])
        removed.append(m.row(rid))
        m.remove_row(rid)
        if rng.random() < 0.3:
            m.add_row(*removed.pop(0))
        sol = lp_solve(m)
        cold = lp_solve(m, from_scratch=True)
        assert sol.status == cold.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(cold.objective_value,
                                                    abs=1e-8)


class TestScreen:
    """The LP shapes that once exercised a row screen in the engine: each
    evaluation is checked against the reference pass, and each warm
    re-solve against a cold one."""

    def test_scenario_lp_with_budget_row(self, passes):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            m, _ = scenario_lp(rng, 300)
            release_binding(m, rng, 15)
        assert passes.compared > 100
        assert passes.both_kinds_leave()

    def test_rows_without_a_budget_row(self, passes):
        # capacity rows r.x <= 1 in a box: sum(dx) moves freely
        for seed in range(4):
            rng = np.random.default_rng(10 + seed)
            m = LpModel(rng.uniform(0.5, 1.5, 4), upper=np.ones(4))
            m.add_rows(1.0 + rng.normal(0.0, 0.15, size=(300, 4)), "<=",
                       np.ones(300))
            release_binding(m, rng, 15)
        assert passes.compared > 100

    def test_degenerate_ties(self, passes):
        # every row twice or three times, then rows through the optimum
        for seed in range(6):
            rng = np.random.default_rng(20 + seed)
            m, returns = scenario_lp(rng, 100)
            m.add_rows(returns, ">=", np.full(100, 0.95))
            m.add_rows(returns[:30], ">=", np.full(30, 0.95))
            sol = lp_solve(m)
            for a in rng.normal(1.0, 0.1, size=(20, 4)):
                m.add_row(a, ">=", float(a @ sol.x))       # tight at x
            m.obj = m.obj + rng.normal(0.0, 0.02, m.n_cols)
            release_binding(m, rng, 40)
        assert passes.compared > 50
        assert passes.both_kinds_leave()

    def test_rows_of_zero_radius(self, passes):
        # constant rows, tight or not, are evaluated at every step
        for seed in range(4):
            rng = np.random.default_rng(30 + seed)
            m, _ = scenario_lp(rng, 200)
            m.add_row(np.ones(4), "<=", 1.0)
            m.add_row(np.full(4, 0.5), ">=", 0.5)
            m.add_row(np.zeros(4), "<=", 1.0)
            release_binding(m, rng, 15)
        assert passes.compared > 50

    def test_bland_rule_from_the_first_pivot(self, passes, monkeypatch):
        # the least-index leaving rules, which the shapes above never reach
        begin = lp._Engine._begin

        def bland_begin(eng, phase):
            begin(eng, phase)
            eng._bland = True

        monkeypatch.setattr(lp._Engine, "_begin", bland_begin)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            m, _ = scenario_lp(rng, 300)
            release_binding(m, rng, 15)
        assert passes.both_kinds_leave()

    def test_big_m_model(self, passes):
        rng = np.random.default_rng(50)
        returns = 1.0 + rng.normal(0.05, 0.2, size=(40, 3))
        returns[:, -1] = 1.0
        res = mip_solve(build_saa_bigm(ScenarioSet(returns), 0.95, 3,
                                       np.array([1.06, 1.09, 1.0])))
        assert res.status == lp.OPTIMAL
        assert passes.compared > 100
        assert passes.both_kinds_leave(phases=("dual",))


class TestSolutionSlacks:
    def test_slacks_are_rhs_minus_ax(self):
        rng = np.random.default_rng(70)
        m, _ = scenario_lp(rng, 300)
        sol = lp_solve(m)
        ids = m.row_ids()

        def check():
            want = m._rhs[ids] - m._A[ids] @ sol.x
            assert np.allclose(sol.slacks_for(ids), want, rtol=0, atol=1e-12)
            for rid in ids[::37]:
                assert sol.slack(int(rid)) == pytest.approx(
                    want[np.searchsorted(ids, rid)], abs=1e-12)

        check()
        for rid in ids[1::3]:
            m.remove_row(int(rid))
        check()
        m.add_rows(rng.normal(1.0, 0.1, size=(2000, 4)), ">=", np.full(2000, 0.9))
        check()
        with pytest.raises(KeyError):
            sol.slack(int(ids[-1]) + 1)


# ----------------------------------------------------------------------
# slacks over x's support, and the x and slack cache an engine keeps
# ----------------------------------------------------------------------

def bigm_lp(rng, n_scen=200, n_assets=5, k=8):
    returns = 1.0 + rng.normal(0.05, 0.2, size=(n_scen, n_assets))
    returns[:, -1] = 1.0
    return build_saa_bigm(ScenarioSet(returns), 0.95, k,
                          rng.uniform(1.0, 1.1, n_assets)).base


def product_bound(A, x, rhs):
    """A few ulp of the largest partial sum of rhs - A x, row by row."""
    return 8 * np.finfo(float).eps * (np.abs(A) @ np.abs(x) + np.abs(rhs))


class TestSupportSlacks:
    def test_engine_slacks_on_both_paths(self):
        # x of every support size on a big-M model: a short support takes
        # the support path, within a few ulp of rhs - A x; a longer one the
        # BLAS product, bitwise
        rng = np.random.default_rng(80)
        m = bigm_lp(rng)
        ns, n = m._n_slots, m.n_cols
        A, rhs = m._A[:ns], m._rhs[:ns]
        paths = Counter()
        for size in list(range(1, 40)) + [n // 3, n // 2, n]:
            for _ in range(3):
                eng = lp._Engine(m)
                eng.x = np.zeros(n)
                support = rng.choice(n, size, replace=False)
                eng.x[support] = rng.choice([1.0, -1.0], size) * rng.uniform(
                    1e-3, 1e3, size)
                got, want = eng._slack_values(), rhs - A @ eng.x
                if lp._LINE * size <= n:
                    paths["support"] += 1
                    assert np.all(np.abs(got - want)
                                  <= product_bound(A, eng.x, rhs))
                else:
                    paths["dense"] += 1
                    assert got.tobytes() == want.tobytes()
        assert paths["support"] > 10 and paths["dense"] > 10

    def test_zero_x_takes_the_blas_product(self):
        m = bigm_lp(np.random.default_rng(81))
        eng = lp._Engine(m)
        ns = m._n_slots
        assert eng._slack_values().tobytes() == (
            m._rhs[:ns] - m._A[:ns] @ eng.x).tobytes()


def check_kept_state(m, seen):
    """On a valid engine, re-deriving x leaves it bitwise unchanged, and a
    kept slack cache equals a fresh recompute within a few ulp."""
    eng = m._engine
    if eng is None or not eng.valid:
        return
    ns = m._n_slots
    x, s = eng.x.copy(), eng._s
    if s is not None:
        A, rhs = m._A[:ns], m._rhs[:ns]
        assert s.size == ns
        assert np.all(np.abs(s - (rhs - A @ x)) <= product_bound(A, x, rhs))
        seen["kept"] += 1
    eng._set_nonbasic_values()
    eng._recompute_x()
    assert eng.x.tobytes() == x.tobytes()
    eng._s = s
    seen["checked"] += 1


class TestKeptState:
    """Random edit sequences: after every edit and every solve, a valid
    engine's x and slack cache are those a fresh derivation gives."""

    def test_lp_master_edits(self):
        seen = Counter()
        for seed in range(6):
            rng = np.random.default_rng(90 + seed)
            m, _ = scenario_lp(rng, 40)
            extra = 1.0 + rng.normal(0.04, 0.15, size=(400, 4))
            extra[:, -1] = 1.0
            bases = []
            sol = lp_solve(m)
            for _ in range(60):
                ids = m.row_ids()[1:]           # the budget row stays
                tight = ids[np.abs(sol.slacks_for(ids)) <= 1e-9]
                loose = np.setdiff1d(ids, tight)
                edit = rng.integers(5)
                if edit == 0:
                    rows = extra[rng.choice(400, rng.integers(1, 4))]
                    m.add_rows(rows, ">=", np.full(len(rows), 0.95))
                elif edit == 1 and tight.size:
                    m.remove_row(int(rng.choice(tight)))
                elif edit == 2 and loose.size:
                    m.remove_row(int(rng.choice(loose)))
                elif edit == 3:
                    j = int(rng.integers(m.n_cols - 1))
                    m.set_bounds(j, 0.0, rng.choice([np.inf, 0.5, 0.0]))
                elif bases:
                    sol = lp_solve(m, warm=bases[rng.integers(len(bases))])
                check_kept_state(m, seen)
                sol = lp_solve(m)
                assert sol.status == lp.OPTIMAL
                check_kept_state(m, seen)
                bases.append(sol.basis)
        assert seen["checked"] > 500 and seen["kept"] > 200

    def test_big_m_node_edits(self):
        seen = Counter()
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            m = bigm_lp(rng, n_scen=60, n_assets=4, k=5)
            binaries = np.arange(4, m.n_cols)
            bases = [lp_solve(m).basis]
            for _ in range(40):
                if rng.random() < 0.3:
                    lp_solve(m, warm=bases[rng.integers(len(bases))])
                    check_kept_state(m, seen)
                # a node patch: the binaries' bounds with a few fixed
                lower, upper = np.zeros(binaries.size), np.ones(binaries.size)
                fix = rng.choice(binaries.size, 6, replace=False)
                lower[fix[:2]] = 1.0
                upper[fix[2:]] = 0.0
                m.set_bounds(binaries, lower, upper)
                check_kept_state(m, seen)
                sol = lp_solve(m)
                check_kept_state(m, seen)
                if sol.status == lp.OPTIMAL:
                    bases.append(sol.basis)
        assert seen["checked"] > 200 and seen["kept"] > 100


def engine_state(m):
    eng = m._engine
    ns = m._n_slots
    return (eng.cs.tobytes(), eng.ss[:ns].tobytes(), list(eng.S), list(eng.T),
            eng.x.tobytes())


class TestRollback:
    """``rollback`` revives the rows removed since its ``checkpoint`` under
    their own ids and restores the engine's statuses, S, T and x."""

    def test_state_comes_back_bit_for_bit(self):
        revived = 0
        for seed in range(8):
            rng = np.random.default_rng(110 + seed)
            m, _ = scenario_lp(rng, 40)
            extra = 1.0 + rng.normal(0.04, 0.15, size=(6, 4))
            extra[:, -1] = 1.0
            sol = lp_solve(m)
            ids = m.row_ids()[1:]
            tight = ids[np.abs(sol.slacks_for(ids)) <= 1e-9]
            rid = int(rng.choice(tight))
            row, before = m.row(rid), engine_state(m)
            mark = m.checkpoint()
            m.remove_row(rid)
            lp_solve(m)
            added = m.add_rows(extra, ">=", np.full(6, 0.95))
            lp_solve(m)
            m.rollback(mark)
            eng = m._engine
            assert engine_state(m)[2:] == before[2:]
            assert eng.cs.tobytes() == before[0]
            assert eng.ss[:mark[0]].tobytes() == before[1]
            assert eng.valid
            # the revived row keeps its id, and rows added since stay basic
            a, rel, b = m.row(rid)
            assert a.tobytes() == row[0].tobytes() and (rel, b) == row[1:]
            assert added[0] >= mark[0]
            assert np.all(eng.ss[added] == lp.BASIC)
            assert set(m.row_ids()) == set(ids) | {0} | set(added)
            check_kept_state(m, Counter())
            # without the added rows the marked point is optimal as it was
            for a in added:
                m.remove_row(int(a))
            pivots = m.stats.pivots
            again = lp_solve(m)
            assert again.x.tobytes() == sol.x.tobytes()
            assert m.stats.pivots == pivots
            revived += 1
        assert revived == 8

    def test_rollback_after_a_failed_release(self):
        m = LpModel([1.0])
        rid = m.add_row([1.0], "<=", 1.0)
        lp_solve(m)
        mark = m.checkpoint()
        m.remove_row(rid)
        assert m.stats.detach_failures == 1 and not m._engine.valid
        m.rollback(mark)
        assert m._engine.valid and m.row_ids().tolist() == [rid]
        sol = lp_solve(m)
        assert sol.status == lp.OPTIMAL and sol.iterations == 0
        assert sol.objective_value == 1.0 and m.stats.cold_resets == 0

    def test_mark_without_an_engine(self):
        m = LpModel([1.0, 2.0], upper=[1.0, 1.0])
        rid = m.add_row([1.0, 1.0], "<=", 1.5)
        mark = m.checkpoint()
        m.remove_row(rid)
        lp_solve(m)
        m.rollback(mark)
        assert m._engine is None
        assert lp_solve(m).objective_value == pytest.approx(2.5, abs=1e-12)


class TestKernelSolve:
    """Kernel solves call LAPACK's dgesv directly."""

    def kernel_engine(self, rng, k, n=7):
        m = LpModel(np.ones(n))
        m.add_rows(rng.normal(size=(k + 2, n)), "<=", np.ones(k + 2))
        eng = lp._Engine(m)
        eng.S = sorted(rng.choice(k + 2, k, replace=False).tolist())
        eng.T = rng.choice(n, k, replace=False).tolist()
        return eng, m._A[eng.S][:, eng.T]

    def test_equals_numpy_solve_bit_for_bit(self):
        rng = np.random.default_rng(120)
        for k in range(1, 6):
            for _ in range(200):
                eng, K = self.kernel_engine(rng, k)
                b = rng.normal(size=k)
                assert eng._ksolve(b).tobytes() == np.linalg.solve(K, b).tobytes()
                assert eng._ksolve(b, transpose=True).tobytes() == \
                    np.linalg.solve(K.T, b).tobytes()

    def test_exactly_singular_kernel_raises(self):
        eng, _ = self.kernel_engine(np.random.default_rng(121), 3)
        # a repeated tight row: elimination reaches an exactly zero pivot
        eng.m._A[eng.S[2]] = eng.m._A[eng.S[0]]
        for transpose in (False, True):
            with pytest.raises(lp._KernelSingular):
                eng._ksolve(np.ones(3), transpose=transpose)

    def test_singular_warm_kernel_cold_resets(self):
        # three tight rows, the last the sum of the others, against three
        # basic columns
        m = LpModel([1.0, 1.0, 1.0], upper=[1.0, 1.0, 1.0])
        m.add_row([1.0, 0.0, 1.0], "<=", 1.5)
        m.add_row([0.0, 1.0, 1.0], "<=", 1.5)
        m.add_row([1.0, 1.0, 2.0], "<=", 3.0)   # the sum of the first two
        basis = lp.Basis(np.full(3, lp.BASIC, dtype=np.int8), np.arange(3),
                         np.full(3, lp.AT_LOWER, dtype=np.int8))
        sol = lp_solve(m, warm=basis)
        highs = linprog(-np.ones(3), A_ub=m._A[:3], b_ub=m._rhs[:3],
                        bounds=(0, 1), method="highs")
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(-highs.fun, abs=1e-9)
        assert m.stats.cold_resets == 1
