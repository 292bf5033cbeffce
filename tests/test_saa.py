import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ccsaa import saa
from ccsaa.certificate import ScenarioBudget
from ccsaa.gaussian import GaussianModel, draw_blocks
from ccsaa.lp import lp_solve
from ccsaa.saa import (VIOLATION_TOL, ChanceProgramSpec, OutcomeVector,
                       ScenarioSet, build_saa_lp, certify, evaluate_outcomes)

from oracles import vertex_enumeration_lp


def toy_scenarios(rng, n_scen=10, n_assets=3):
    return ScenarioSet(rng.uniform(0.8, 1.3, size=(n_scen, n_assets)),
                       provenance="test")


class TestTypes:
    def test_scenario_set_validation(self):
        with pytest.raises(ValueError):
            ScenarioSet(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            ScenarioSet(np.array([[1.0, np.inf]]))
        s = ScenarioSet(np.ones((4, 2)))
        assert s.n_scenarios == 4 and s.n_assets == 2
        with pytest.raises(ValueError):
            s.returns[0, 0] = 2.0   # frozen storage

    def test_row_major_input_stored_column_major(self):
        rows = np.random.default_rng(1).normal(size=(37, 5))
        s = ScenarioSet(rows)
        assert s.returns.flags.f_contiguous and not s.returns.flags.writeable
        assert np.array_equal(s.returns, rows)
        assert rows.flags.writeable          # the caller's array is untouched

    def test_caller_array_keeps_its_flags(self):
        # stored as a read-only view of a column-major input, a copy of a
        # row-major one; either way the caller may still write its array
        for order in ("F", "C"):
            rows = np.asarray(np.random.default_rng(2).normal(size=(37, 5)),
                              order=order)
            s = ScenarioSet(rows)
            assert s.returns.flags.f_contiguous and not s.returns.flags.writeable
            assert np.shares_memory(s.returns, rows) == (order == "F")
            rows[0, 0] = 7.0
            assert rows.flags.writeable

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChanceProgramSpec(alpha=1.2, objective=[1.0, 1.0], cash_index=1)
        with pytest.raises(ValueError):
            ChanceProgramSpec(alpha=0.9, objective=[1.0, 1.0], cash_index=5)
        spec = ChanceProgramSpec(alpha=0.9, objective=[1.05, 1.0], cash_index=1)
        assert spec.n_assets == 2


class TestBuildSaaLp:
    def test_empty_subset_is_relaxed(self):
        rng = np.random.default_rng(0)
        sc = toy_scenarios(rng)
        spec = ChanceProgramSpec(0.9, [1.1, 1.05, 1.0], cash_index=2)
        m = build_saa_lp(sc, spec, subset=[])
        assert m.n_rows == 1
        sol = lp_solve(m)
        assert sol.objective_value == pytest.approx(1.1, abs=1e-9)

    def test_single_scenario_slack(self):
        sc = ScenarioSet(np.ones((1, 3)))
        spec = ChanceProgramSpec(0.9, [1.0, 1.0, 1.0])
        m = build_saa_lp(sc, spec)
        sol = lp_solve(m)
        assert sol.slack(1) == pytest.approx(-0.1, abs=1e-9)  # r.x - alpha = 0.1 over

    def test_three_scenario_optimum_matches_oracle(self):
        rng = np.random.default_rng(5)
        returns = rng.uniform(0.85, 1.25, size=(3, 3))
        sc = ScenarioSet(returns)
        spec = ChanceProgramSpec(0.95, returns.mean(axis=0))
        m = build_saa_lp(sc, spec)
        sol = lp_solve(m)
        rows = np.vstack([np.ones(3), returns])
        rels = ["="] + [">="] * 3
        rhs = np.array([1.0, 0.95, 0.95, 0.95])
        want, _ = vertex_enumeration_lp(spec.objective, rows, rels, rhs,
                                        np.zeros(3), np.full(3, np.inf))
        assert sol.objective_value == pytest.approx(want, abs=1e-8)

    def test_full_model_optimum_has_zero_violations(self):
        rng = np.random.default_rng(9)
        risky = rng.uniform(0.8, 1.3, size=(40, 3))
        sc = ScenarioSet(np.column_stack([risky, np.ones(40)]))  # cash column
        spec = ChanceProgramSpec(0.95, np.append(risky.mean(axis=0), 1.0),
                                 cash_index=3)
        sol = lp_solve(build_saa_lp(sc, spec))
        assert sol.status == "optimal"
        out = evaluate_outcomes(sol.x, sc, spec)
        assert out.violation_count == 0

    def test_dimension_mismatch(self):
        sc = ScenarioSet(np.ones((2, 3)))
        with pytest.raises(ValueError):
            build_saa_lp(sc, ChanceProgramSpec(0.9, [1.0, 1.0]))


class TestOutcomes:
    def test_all_cash(self):
        sc = ScenarioSet(np.column_stack([np.random.default_rng(1).uniform(0.5, 1.5, 20),
                                          np.ones(20)]))
        spec = ChanceProgramSpec(0.95, [1.1, 1.0], cash_index=1)
        out = evaluate_outcomes(np.array([0.0, 1.0]), sc, spec)
        assert np.allclose(out.values, -0.05)
        assert out.violation_count == 0

    def test_alpha_above_everything(self):
        rng = np.random.default_rng(2)
        sc = toy_scenarios(rng, n_scen=15)
        spec = ChanceProgramSpec(2.0, sc.returns.mean(axis=0))
        out = evaluate_outcomes(np.array([0.5, 0.25, 0.25]), sc, spec)
        assert out.violation_count == sc.n_scenarios

    def test_matches_double_loop(self):
        rng = np.random.default_rng(3)
        sc = toy_scenarios(rng, n_scen=25, n_assets=4)
        spec = ChanceProgramSpec(0.97, sc.returns.mean(axis=0))
        x = rng.dirichlet(np.ones(4))
        out = evaluate_outcomes(x, sc, spec)
        count = 0
        for i in range(sc.n_scenarios):
            o = spec.alpha - sum(sc.returns[i, j] * x[j] for j in range(4))
            assert out.values[i] == pytest.approx(o, abs=1e-12)
            count += o > 0
        assert out.violation_count == count

    def test_linear_in_alpha(self):
        rng = np.random.default_rng(4)
        sc = toy_scenarios(rng)
        x = rng.dirichlet(np.ones(3))
        base = ChanceProgramSpec(0.9, sc.returns.mean(axis=0))
        shift = ChanceProgramSpec(0.9 + 0.07, sc.returns.mean(axis=0))
        a = evaluate_outcomes(x, sc, base).values
        b = evaluate_outcomes(x, sc, shift).values
        assert np.allclose(b, a + 0.07, atol=1e-12)

    def test_ranking_stable_and_consistent(self):
        values_returns = np.array([[1.0], [0.8], [0.8], [1.2], [0.5]])
        sc = ScenarioSet(values_returns)
        spec = ChanceProgramSpec(0.9, [1.0])
        out = evaluate_outcomes(np.array([1.0]), sc, spec)
        # violated: scenarios 1, 2 (O=0.1 each) and 4 (O=0.4); ties by index
        assert list(out.ranked) == [4, 1, 2]
        assert out.violation_count == 3

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        sc = toy_scenarios(rng, n_scen=30)
        spec = ChanceProgramSpec(1.0, sc.returns.mean(axis=0))
        x = rng.dirichlet(np.ones(3))
        perm = rng.permutation(30)
        out = evaluate_outcomes(x, sc, spec)
        out_p = evaluate_outcomes(x, ScenarioSet(sc.returns[perm]), spec)
        assert np.allclose(np.sort(out.values), np.sort(out_p.values))
        assert out.violation_count == out_p.violation_count
        # ranked indices map through the permutation
        assert np.array_equal(perm[out_p.ranked], out.ranked) or \
            np.allclose(out.values[out.ranked], out_p.values[out_p.ranked])

    def test_dimension_mismatch(self):
        sc = ScenarioSet(np.ones((2, 3)))
        spec = ChanceProgramSpec(0.9, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            evaluate_outcomes(np.array([0.5, 0.5]), sc, spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("others", [0.0, 0.5])   # sparse and dense x
    def test_non_finite_x_is_refused(self, bad, others):
        sc = ScenarioSet(np.ones((2, 3)))
        spec = ChanceProgramSpec(0.9, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            evaluate_outcomes(np.array([bad, others, others]), sc, spec)


class TestCountViolations:
    """One pass over row blocks counts what evaluate_outcomes counts on the
    rows stacked, for every x at once."""

    def test_counts_equal_the_stacked_evaluation(self):
        rng = np.random.default_rng(31)
        returns = rng.normal(1.0, 0.1, size=(5_000, 7))
        spec = ChanceProgramSpec(1.0, np.ones(7))
        xs = [np.eye(7)[2], np.full(7, 1 / 7), np.zeros(7),
              np.array([0.5, 0, 0, 0.5, 0, 0, 0])]
        blocks = [returns[:1], returns[1:2049], returns[2049:]]
        want = [evaluate_outcomes(x, ScenarioSet(returns), spec).violation_count
                for x in xs]
        assert saa.count_violations(xs, iter(blocks), spec) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_is_refused(self, bad):
        block = np.ones((3, 2))
        block[1, 0] = bad
        spec = ChanceProgramSpec(0.9, [1.0, 1.0])
        with pytest.raises(ValueError, match="returns must be finite"):
            saa.count_violations([np.array([0.5, 0.5])], [np.ones((2, 2)), block],
                                 spec)

    def test_large_block_is_read_in_slices(self):
        # a scenario file's one block: counts as over the whole block, a
        # non-finite value in a later slice refused, and no N x n temporary
        rng = np.random.default_rng(32)
        returns = np.asfortranarray(rng.normal(1.0, 0.05, (200_000, 21)))
        spec = ChanceProgramSpec(0.95, np.ones(21))
        xs = [np.full(21, 1 / 21), np.eye(21)[3]]
        want = [evaluate_outcomes(x, ScenarioSet(returns), spec).violation_count
                for x in xs]
        for x, count in zip(xs, want):
            tracemalloc.start()
            try:
                assert saa.count_violations([x], [returns], spec) == [count]
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20
        bad = returns.copy(order="F")
        bad[150_000, 20] = np.nan
        with pytest.raises(ValueError, match="returns must be finite"):
            saa.count_violations(xs, [bad], spec)

    def test_counts_of_the_pipelined_draw(self, monkeypatch):
        # a 100,000-row test draw counted with the helper thread and without
        rng = np.random.default_rng(33)
        A = rng.normal(size=(21, 21)) * 0.04
        model = GaussianModel(rng.uniform(1.0, 1.08, 21), A @ A.T)
        spec = ChanceProgramSpec(1.0, np.ones(21))
        xs = [np.full(21, 1 / 21), np.eye(21)[4], np.eye(21)[[2, 9]].mean(0)]
        counts = {}
        for cores in (2, 1):
            monkeypatch.setattr(saa, "_cores", lambda c=cores: c)
            counts[cores] = saa.count_violations(
                xs, draw_blocks(model, 100_000, seed=8), spec)
        assert counts[2] == counts[1] and min(counts[1]) > 0


class TestCertify:
    def test_huge_allowance(self):
        rng = np.random.default_rng(7)
        sc = toy_scenarios(rng, n_scen=10)
        spec = ChanceProgramSpec(0.9, sc.returns.mean(axis=0))
        budget = ScenarioBudget(10, 9, 1e-6)
        x = np.array([1.0, 0.0, 0.0])
        out = evaluate_outcomes(x, sc, spec)
        assert out.violation_count <= 9
        assert certify(x, sc, budget, spec)

    def test_zero_allowance(self):
        sc = ScenarioSet(np.array([[0.5, 1.0], [1.2, 1.0]]))
        spec = ChanceProgramSpec(0.9, [1.1, 1.0], cash_index=1)
        budget = ScenarioBudget(2, 0, 1e-6)
        assert not certify(np.array([1.0, 0.0]), sc, budget, spec)
        assert certify(np.array([0.0, 1.0]), sc, budget, spec)


def reference_ranked(values, violated_only):
    """The tie rule spelled out: descending value, then ascending index."""
    idx = (np.flatnonzero(values > VIOLATION_TOL) if violated_only
           else np.arange(values.size))
    return idx[np.argsort(-values[idx], kind="stable")]


def reference_kth(values, rank):
    """(value, scenario) at a 1-based rank through a partition of all N."""
    val = -np.partition(-values, rank - 1)[rank - 1]
    greater = int(np.count_nonzero(values > val))
    return float(val), int(np.flatnonzero(values == val)[rank - greater - 1])


def tricky_values(rng, n):
    """Outcomes with many duplicates and values at and within one ulp of
    the violation tolerance."""
    levels = np.concatenate([
        rng.normal(scale=0.01, size=8),
        [VIOLATION_TOL, np.nextafter(VIOLATION_TOL, np.inf),
         np.nextafter(VIOLATION_TOL, -np.inf), 0.0, -0.0]])
    values = levels[rng.integers(levels.size, size=n)]
    distinct = rng.random(n) < 0.4
    values[distinct] = rng.normal(scale=0.01, size=int(distinct.sum()))
    return values


class TestRankingAgainstReferences:
    @pytest.mark.parametrize("seed", range(12))
    def test_ranked_views_and_order_statistics(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        values = (tricky_values(rng, n) if seed % 3 else
                  rng.normal(scale=0.01, size=n))
        out = OutcomeVector(values)
        ranked = reference_ranked(values, True)
        assert np.array_equal(out.ranked, ranked)
        assert out.violation_count == ranked.size
        assert np.array_equal(out.violated, np.sort(ranked))
        for rank in range(1, n + 1):
            assert OutcomeVector(values).kth_ranked(rank) == \
                reference_kth(values, rank), rank
            assert out.kth_ranked(rank) == reference_kth(values, rank), rank

    def test_ulp_around_tolerance(self):
        above = np.nextafter(VIOLATION_TOL, np.inf)
        below = np.nextafter(VIOLATION_TOL, -np.inf)
        values = np.array([below, above, VIOLATION_TOL, above, 1.0, below])
        out = OutcomeVector(values)
        assert out.violation_count == 3
        assert list(out.ranked) == [4, 1, 3]
        assert out.kth_ranked(3) == (above, 3)
        # beyond the violation count: the non-violated tail, same tie rule
        assert out.kth_ranked(4) == (VIOLATION_TOL, 2)
        assert out.kth_ranked(5) == (below, 0)
        assert out.kth_ranked(6) == (below, 5)
        with pytest.raises(ValueError):
            out.kth_ranked(7)

    def test_evaluation_is_alpha_minus_product(self):
        rng = np.random.default_rng(9)
        sc = ScenarioSet(rng.normal(1.0, 0.1, size=(1000, 6)))
        x = rng.dirichlet(np.ones(6))
        values = evaluate_outcomes(x, sc, ChanceProgramSpec(0.97, np.ones(6))).values
        assert np.array_equal(values, 0.97 - sc.returns @ x)


class TestSupportEvaluation:
    """An x with few nonzero assets is evaluated over its support in row
    blocks; it must agree with the one dense product ``alpha - returns @ x``
    up to rounding, and exactly where the dense branch is taken."""

    def test_random_supports_against_the_product(self):
        rng = np.random.default_rng(23)
        n = 21
        N = 2 * saa._BLOCK + 1_234      # three blocks, the last one short
        sc = ScenarioSet(rng.normal(1.0, 0.1, size=(N, n)))
        spec = ChanceProgramSpec(1.0, np.ones(n))   # about half violated
        for size in range(1, n + 1):
            for signed in (False, True):
                x = np.zeros(n)
                support = rng.choice(n, size, replace=False)
                x[support] = (rng.normal(size=size) / size if signed
                              else rng.dirichlet(np.ones(size)))
                out = evaluate_outcomes(x, sc, spec)
                want = spec.alpha - sc.returns @ x
                if size > saa._DENSE_SHARE * n:
                    assert np.array_equal(out.values, want)
                scale = spec.alpha + np.abs(sc.returns) @ np.abs(x)
                assert np.all(np.abs(out.values - want)
                              <= 4 * np.spacing(scale)), (size, signed)
                violated = np.zeros(N, dtype=bool)
                violated[out.violated] = True
                far = np.abs(want - VIOLATION_TOL) > 1e-12
                assert np.array_equal(violated[far],
                                      (want > VIOLATION_TOL)[far])

    def test_zero_x_and_one_short_block(self):
        rng = np.random.default_rng(24)
        sc = ScenarioSet(rng.normal(1.0, 0.1, size=(500, 7)))
        spec = ChanceProgramSpec(0.97, np.ones(7))
        out = evaluate_outcomes(np.zeros(7), sc, spec)
        assert np.array_equal(out.values, np.full(500, 0.97))
        x = np.zeros(7)
        x[[1, 4]] = [0.25, 0.75]
        values = evaluate_outcomes(x, sc, spec).values
        assert np.array_equal(
            values, 0.97 - (sc.returns[:, 1] * 0.25 + sc.returns[:, 4] * 0.75))


def blockless_reference(x, returns, alpha):
    """The evaluation's arithmetic over whole columns, one thread: the head
    column's product, each further support column's product added in
    order, then alpha minus the sum; the dense branch's one product."""
    support = np.flatnonzero(x)
    if not 0 < support.size <= saa._DENSE_SHARE * x.size:
        values = alpha - returns @ x
    else:
        values = returns[:, support[0]] * x[support[0]]
        for j in support[1:]:
            values += returns[:, j] * x[j]
        values = alpha - values
    return values, np.flatnonzero(values > VIOLATION_TOL)


class WatchedReturns(np.ndarray):
    """Scenario returns that call ``self.watch(block)`` on the thread that
    reads a block's rows, each time it reads them (``r[rows]`` or
    ``r[rows, column]``)."""

    def __getitem__(self, key):
        rows = key[0] if isinstance(key, tuple) else key
        if isinstance(rows, slice):
            self.watch(rows.start // saa._BLOCK)
        return super().__getitem__(key).view(np.ndarray)


def watched(returns, watch):
    sc = ScenarioSet(returns)
    r = sc.returns.view(WatchedReturns)
    r.watch = watch
    object.__setattr__(sc, "returns", r)
    return sc


class TestThreadedPass:
    """From 8 row blocks on, helper threads claim blocks alongside the
    caller; the values, the violated set and the ranking equal one thread's
    bit for bit."""

    n = 21
    threshold = 2 * saa._RUN_BLOCKS * saa._BLOCK    # 8 blocks: helped from 7 and a row

    @pytest.fixture(scope="class")
    def returns(self):
        rng = np.random.default_rng(31)
        return rng.normal(1.0, 0.1, size=(self.threshold + 1_234, self.n))

    @pytest.mark.parametrize("N, helped", [
        (threshold - saa._BLOCK, False),        # one block short
        (threshold - saa._BLOCK + 1, True),     # a last block of one row
        (threshold, True),
        (threshold + 1_234, True)])              # a short last block
    def test_values_and_violated_equal_one_thread(self, returns, helper_pools,
                                                  N, helped):
        rng = np.random.default_rng(N)
        sc = ScenarioSet(returns[:N])
        spec = ChanceProgramSpec(1.0, np.ones(self.n))
        xs = [np.zeros(self.n), rng.dirichlet(np.ones(self.n))]   # dense
        for size in range(1, 8):
            x = np.zeros(self.n)
            x[rng.choice(self.n, size, replace=False)] = rng.dirichlet(np.ones(size))
            xs.append(x)
        for x in xs:
            values, violated = blockless_reference(x, sc.returns, spec.alpha)
            out = evaluate_outcomes(x, sc, spec)
            assert np.array_equal(out.values, values)
            assert np.array_equal(out.violated, violated)
            assert out.violated.dtype == violated.dtype
        assert helper_pools == ([1] * 7 if helped else [])

    def test_ranked_is_the_stable_descending_order(self, returns, helper_pools):
        # returns on a coarse grid: outcomes tie in long runs across blocks
        sc = ScenarioSet(np.round(returns * 64) / 64)
        x = np.zeros(self.n)
        x[[2, 11]] = [0.5, 0.5]
        out = evaluate_outcomes(x, sc, ChanceProgramSpec(1.0, np.ones(self.n)))
        v = out.values
        assert helper_pools == [1]
        assert np.unique(v[out.violated]).size < out.violation_count / 100
        want = np.argsort(-v, kind="stable")[:out.violation_count]
        assert np.array_equal(out.ranked, want)
        assert out.violation_count == np.count_nonzero(v > VIOLATION_TOL)

    def test_more_workers_than_cores_with_fast_switching(self, monkeypatch,
                                                         helper_pools):
        rng = np.random.default_rng(32)
        N = 9 * saa._BLOCK - 77
        sc = ScenarioSet(rng.normal(1.0, 0.1, size=(N, 7)))
        spec = ChanceProgramSpec(1.0, np.ones(7))
        monkeypatch.setattr(saa, "_cores", lambda: 8)
        monkeypatch.setattr(saa, "_RUN_BLOCKS", 1)      # eight workers
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for size in (1, 2):
                x = np.zeros(7)
                x[rng.choice(7, size, replace=False)] = rng.dirichlet(np.ones(size))
                values, violated = blockless_reference(x, sc.returns, spec.alpha)
                out = evaluate_outcomes(x, sc, spec)
                assert np.array_equal(out.values, values)
                assert np.array_equal(out.violated, violated)
        finally:
            sys.setswitchinterval(interval)
        assert helper_pools == [7, 7]

    @pytest.mark.parametrize("start", [1, 4, 8])
    def test_a_late_helper_gives_the_same_bits(self, returns, helper_pools,
                                               monkeypatch, start):
        # the helper starts once the caller reads block ``start``, so the
        # caller claims blocks 0 to ``start`` first (at 8, all nine)
        caller, go = threading.get_ident(), threading.Event()
        readers = {}

        def watch(block):
            readers.setdefault(block, set()).add(threading.get_ident())
            if block == start:
                go.set()

        class LatePool(saa.ThreadPoolExecutor):
            def submit(self, work):
                return super().submit(lambda: go.wait(10) and work())

        monkeypatch.setattr(saa, "ThreadPoolExecutor", LatePool)
        sc = watched(returns, watch)
        x = np.zeros(self.n)
        x[[3, 8, 15]] = [0.2, 0.3, 0.5]
        out = evaluate_outcomes(x, sc, ChanceProgramSpec(1.0, np.ones(self.n)))
        values, violated = blockless_reference(x, returns, 1.0)
        assert np.array_equal(out.values, values)
        assert np.array_equal(out.violated, violated)
        assert helper_pools == [1]
        assert sorted(readers) == list(range(9))
        assert all(len(ids) == 1 for ids in readers.values())
        assert all(readers[b] == {caller} for b in range(start + 1))

    def test_a_helper_exception_reaches_the_caller(self, returns,
                                                   helper_pools):
        # the caller waits, in the first block it claims, until a helper
        # has failed in another, then evaluates the rest
        before = threading.active_count()
        caller, failed = threading.get_ident(), threading.Event()

        def watch(block):
            if threading.get_ident() != caller:
                failed.set()
                raise ZeroDivisionError(f"in block {block}")
            if not failed.is_set():
                assert failed.wait(10)

        x = np.zeros(self.n)
        x[4] = 1.0
        with pytest.raises(ZeroDivisionError, match=r"in block \d"):
            evaluate_outcomes(x, watched(returns, watch),
                              ChanceProgramSpec(1.0, np.ones(self.n)))
        assert helper_pools == [1]
        assert threading.active_count() == before

    def test_no_thread_outlives_a_call(self, returns, helper_pools):
        before = threading.active_count()
        x = np.zeros(self.n)
        x[4] = 1.0
        evaluate_outcomes(x, ScenarioSet(returns),
                          ChanceProgramSpec(1.0, np.ones(self.n)))
        assert helper_pools == [1]
        assert threading.active_count() == before
