import csv
import json
import os
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ccsaa import cli, heuristics, saa
from ccsaa.certificate import binomial_upper_limit, max_removals
from ccsaa.cli import (ExperimentConfig, RAW_COLUMNS, aggregate, main,
                       run_experiment, sweep_w, validate_solution)
from ccsaa.data import Instance, default_instance, write_instance
from ccsaa.errors import ConfigError
from ccsaa.gaussian import GaussianModel, sample_scenarios
from ccsaa.heuristics import run_method
from ccsaa.mip import SemiContinuousSpec, build_saa_bigm, mip_solve
from ccsaa.saa import evaluate_outcomes

GOLDEN_RAW = Path(__file__).with_name("golden_raw.csv")


def small_instance(n_risky=3, seed=0, alpha=0.96):
    # beta is loose so the tiny scenario counts used here stay certifiable
    rng = np.random.default_rng(seed)
    means = rng.uniform(1.04, 1.12, n_risky)
    A = rng.normal(size=(n_risky, n_risky)) * 0.15
    cov = np.zeros((n_risky + 1, n_risky + 1))
    cov[:n_risky, :n_risky] = A @ A.T
    names = tuple(f"a{i}" for i in range(n_risky)) + ("cash",)
    return Instance(names, GaussianModel(np.append(means, 1.0), cov),
                    alpha=alpha, epsilon=0.05, beta=0.2, cash_index=n_risky,
                    semicontinuous=SemiContinuousSpec(0.05, 0.5))


class TestValidate:
    def test_all_cash_solution_never_violates(self):
        inst = small_instance()
        x = np.zeros(inst.n_assets)
        x[inst.cash_index] = 1.0
        rate, upper = validate_solution(x, inst, 20_000, seed=5)
        assert rate == 0.0
        assert 0.0 < upper < 0.01

    def test_worst_asset_rate_matches_gaussian_tail(self):
        inst = small_instance(seed=3)
        # all weight on the single riskiest asset: closed-form tail check
        vols = np.sqrt(np.diag(inst.model.covariance))
        j = int(np.argmax(vols))
        x = np.zeros(inst.n_assets)
        x[j] = 1.0
        want = inst.model.violation_probability(x, inst.alpha)
        rate, _ = validate_solution(x, inst, 200_000, seed=11)
        assert rate == pytest.approx(want, abs=0.005)

    def test_dimension_mismatch(self):
        inst = small_instance()
        from ccsaa.errors import ConfigError
        with pytest.raises(ConfigError):
            validate_solution(np.ones(2), inst, 100, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_solution(self, bad):
        from ccsaa.errors import ConfigError
        x = np.zeros(4)
        x[0] = bad
        with pytest.raises(ConfigError, match="finite"):
            validate_solution(x, small_instance(), 100, seed=0)

    @pytest.mark.parametrize("x", [np.ones(2), np.array([np.nan, 0, 0, 1])])
    def test_solution_refused_before_the_draw(self, x):
        # a test draw of 1e12 rows would take hours: x is checked first
        with pytest.raises(ConfigError, match="validation refused"):
            validate_solution(x, small_instance(), 10**12, seed=0)

    @pytest.mark.parametrize("size", [1, 2, 2048, 2049, 2050, 4097, 100_000])
    def test_streamed_counts_equal_the_materialised_draw(self, size):
        inst = default_instance()
        rng = np.random.default_rng(size)
        xs = []
        for nonzero in (1, 2, 3, 9, 21):
            x = np.zeros(inst.n_assets)
            x[rng.choice(inst.n_assets, nonzero, replace=False)] = (
                rng.dirichlet(np.ones(nonzero)))
            xs.append(x)
        for seed in (5, 500_017):
            test = sample_scenarios(inst.model, size, seed)
            want = []
            for x in xs:
                count = evaluate_outcomes(x, test,
                                          inst.program_spec).violation_count
                want.append((count / size, binomial_upper_limit(
                    count, size, 1.0 - inst.beta)))
            # every x in one pass over the draw, as a campaign's trial counts
            assert cli._violation_rates(xs, inst, size, None, cli.draw_blocks(
                inst.model, size, seed)) == want
            assert [validate_solution(x, inst, size, seed)
                    for x in xs] == want

    def test_streamed_draw_holds_blocks_not_the_test_set(self):
        # the 200,000 x 21 draw alone would take 33.6 MB
        inst = default_instance()
        x = np.zeros(inst.n_assets)
        x[[0, 3]] = 0.5
        tracemalloc.start()
        try:
            validate_solution(x, inst, 200_000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestRunExperiment:
    def test_single_trial_full(self):
        inst = small_instance()
        config = ExperimentConfig(instance=inst, methods=["full"],
                                  n_grid=[100], trials=1, base_seed=7,
                                  test_set_size=5000)
        rows, aggs = run_experiment(config)
        assert len(rows) == 1
        assert rows[0].train_violations == 0
        assert rows[0].status == "ok"
        assert aggs[0]["runs"] == 1

    def test_polish_dominates_in_mean(self):
        inst = small_instance(seed=1)
        config = ExperimentConfig(instance=inst, methods=["asm1", "asm2"],
                                  n_grid=[400], trials=8, base_seed=21,
                                  test_set_size=2000)
        rows, aggs = run_experiment(config)
        by = {a["method"]: a for a in aggs}
        assert by["asm2"]["objective_mean"] >= by["asm1"]["objective_mean"] - 1e-12
        # paired per-trial dominance as well
        one = {r.trial: r.objective for r in rows if r.method == "asm1"}
        two = {r.trial: r.objective for r in rows if r.method == "asm2"}
        for t in one:
            assert two[t] >= one[t] - 1e-12

    def test_scenarios_shared_within_trial(self):
        inst = small_instance(seed=2)
        config = ExperimentConfig(instance=inst, methods=["rap", "fgrp"],
                                  n_grid=[200], trials=2, base_seed=3,
                                  test_set_size=1000)
        rows, _ = run_experiment(config)
        seeds = {(r.method, r.trial): r.seed for r in rows}
        assert seeds[("rap", 0)] == seeds[("fgrp", 0)]
        assert seeds[("rap", 0)] != seeds[("rap", 1)]

    def test_deterministic_except_wall_time(self):
        inst = small_instance(seed=4)
        config = ExperimentConfig(instance=inst,
                                  methods=["asm1", "rap", "pnd"],
                                  n_grid=[150], trials=3, base_seed=11,
                                  test_set_size=1000)
        strip = RAW_COLUMNS.index("wall_time")
        runs = []
        for _ in range(2):
            rows, _ = run_experiment(config)
            runs.append([[v for i, v in enumerate(r.as_list()) if i != strip]
                         for r in rows])
        assert runs[0] == runs[1]

    def test_jobs_parallel_matches_serial(self):
        inst = small_instance(seed=5)
        base = dict(instance=inst, methods=["asm1"], n_grid=[120], trials=4,
                    base_seed=13, test_set_size=1000)
        strip = RAW_COLUMNS.index("wall_time")
        serial, _ = run_experiment(ExperimentConfig(**base, jobs=1))
        parallel, _ = run_experiment(ExperimentConfig(**base, jobs=2))
        a = [[v for i, v in enumerate(r.as_list()) if i != strip] for r in serial]
        b = [[v for i, v in enumerate(r.as_list()) if i != strip] for r in parallel]
        assert a == b

    def test_jobs_parallel_matches_serial_on_the_threaded_pass(self,
                                                               helper_pools):
        # forked trial workers evaluate on thread pools of their own; no
        # thread is inherited from the parent, which has joined all of its own
        N = 2 * saa._RUN_BLOCKS * saa._BLOCK
        base = dict(instance=small_instance(n_risky=11, seed=5),
                    methods=["asm1"], n_grid=[N], trials=2, base_seed=13,
                    test_set_size=1000)
        strip = RAW_COLUMNS.index("wall_time")
        serial, _ = run_experiment(ExperimentConfig(**base, jobs=1))
        assert helper_pools and set(helper_pools) == {1}
        parallel, _ = run_experiment(ExperimentConfig(**base, jobs=2))
        a = [[v for i, v in enumerate(r.as_list()) if i != strip] for r in serial]
        b = [[v for i, v in enumerate(r.as_list()) if i != strip] for r in parallel]
        assert a == b

    def test_exact_mip_and_socp_methods(self):
        inst = small_instance(seed=6)
        config = ExperimentConfig(instance=inst,
                                  methods=["asm1", "exact-mip", "socp"],
                                  n_grid=[100], trials=2, base_seed=17,
                                  test_set_size=1000)
        rows, aggs = run_experiment(config)
        by = {a["method"]: a for a in aggs}
        assert by["exact-mip"]["objective_mean"] >= by["asm1"]["objective_mean"] - 1e-6

    def test_socp_counts_its_training_violations(self):
        inst = small_instance(seed=6)
        sc = sample_scenarios(inst.model, 400, 17)
        budget = max_removals(400, inst.risk_spec)
        assert budget.k_removals == 7
        [row], [rep] = cli._trial_rows(["socp"], inst, sc, budget, 0, 17,
                                       None, None, None,
                                       (1000, cli.test_seed(17, 0)))
        violations = evaluate_outcomes(rep.x, sc, inst.program_spec).violation_count
        assert row.train_violations == rep.train_violations == violations == 6

    def test_one_test_set_per_trial(self, monkeypatch):
        inst = small_instance(seed=8)
        config = ExperimentConfig(instance=inst,
                                  methods=["asm1", "rap", "fgrp"],
                                  n_grid=[150], trials=2, base_seed=19,
                                  test_set_size=3000)
        draws, streamed = [], []
        sample, stream = cli.sample_scenarios, cli.draw_blocks

        def counted(model, n, seed):
            draws.append((n, seed))
            return sample(model, n, seed)

        def counted_stream(model, n, seed):
            streamed.append((n, seed))
            return stream(model, n, seed)

        monkeypatch.setattr(cli, "sample_scenarios", counted)
        monkeypatch.setattr(cli, "draw_blocks", counted_stream)
        rows, _ = run_experiment(config)
        # training sets are held whole; each trial's test draw streams once
        assert sorted(draws) == [(150, cli.scenario_seed(19, t))
                                 for t in range(2)]
        assert sorted(streamed) == [(3000, cli.test_seed(19, t))
                                    for t in range(2)]
        monkeypatch.undo()
        budget = max_removals(150, inst.risk_spec)
        for r in rows:
            sc = sample_scenarios(inst.model, 150, r.seed)
            rep = run_method(r.method, sc, inst.program_spec, budget, seed=r.seed)
            assert rep.objective == r.objective
            direct = validate_solution(rep.x, inst, 3000, cli.test_seed(19, r.trial))
            assert (r.test_violation_rate, r.binomial_upper_limit) == direct

    def test_over_limit_flag_counts_the_whole_method(self, monkeypatch):
        # the master LP takes milliseconds; the slowed evaluation does not
        evaluate = heuristics.evaluate_outcomes

        def slow(*args, **kwargs):
            time.sleep(0.3)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(heuristics, "evaluate_outcomes", slow)
        inst = small_instance(seed=3)
        budget = max_removals(100, inst.risk_spec)
        config = ExperimentConfig(instance=inst, methods=["full"],
                                  n_grid=[100], base_seed=5, time_limit=0.2,
                                  test_set_size=1000)
        rows = cli._trial_worker(config, 100, budget, 0)
        assert rows[0].wall_time > 0.3
        assert rows[0].status == "time_limit"

    def test_one_asm1_run_per_trial(self, monkeypatch):
        inst = small_instance(seed=2)
        config = ExperimentConfig(instance=inst,
                                  methods=["asm1", "asm2", "asm3"],
                                  n_grid=[300], trials=2, base_seed=23,
                                  test_set_size=2000)
        calls = []
        active_set = heuristics.active_set

        def counted(*args, **kwargs):
            calls.append(1)
            return active_set(*args, **kwargs)

        monkeypatch.setattr(heuristics, "active_set", counted)
        rows, _ = run_experiment(config)
        assert len(calls) == config.trials
        budget = max_removals(300, inst.risk_spec)
        cfg = heuristics.AsmConfig(w=config.w)
        for trial in range(config.trials):
            seed = cli.scenario_seed(23, trial)
            sc = sample_scenarios(inst.model, 300, seed)
            got = {r.method: r for r in rows if r.trial == trial}
            for method in config.methods:
                # each tag running its own ASM-1, as before the runs were shared
                [want], [rep] = cli._trial_rows(
                    [method], inst, sc, budget, trial, seed, cfg, None,
                    config.time_limit, (2000, cli.test_seed(23, trial)))
                assert rep.lp_solves > got["asm1"].lp_solves or method == "asm1"
                for column in RAW_COLUMNS:
                    if column != "wall_time":
                        assert (getattr(got[method], column)
                                == getattr(want, column)), (method, column)
            # a polish's wall time includes the shared ASM-1 run
            assert got["asm2"].wall_time >= got["asm1"].wall_time
            assert got["asm3"].wall_time >= got["asm1"].wall_time
        # the old path above ran ASM-1 once per tag
        assert len(calls) == (1 + len(config.methods)) * config.trials

    def test_config_validation(self):
        from ccsaa.errors import ConfigError
        inst = small_instance()
        with pytest.raises(ConfigError):
            ExperimentConfig(instance=inst, methods=[], n_grid=[10])
        with pytest.raises(ConfigError):
            ExperimentConfig(instance=inst, methods=["nope"], n_grid=[10])
        with pytest.raises(ConfigError):
            ExperimentConfig(instance=inst, methods=["full"], n_grid=[10],
                             trials=0)

    @pytest.mark.parametrize("field", ["jobs", "test_set_size"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_jobs_and_test_size_below_one_refused(self, monkeypatch, field,
                                                  value):
        def never(*args, **kwargs):
            raise AssertionError("sampled under an invalid configuration")

        monkeypatch.setattr(cli, "sample_scenarios", never)
        monkeypatch.setattr(cli, "draw_blocks", never)
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            ExperimentConfig(instance=small_instance(), methods=["full"],
                             n_grid=[100], **{field: value})

    def test_concurrent_draws_larger_than_memory_refused(self, monkeypatch):
        # two workers at N = 1e5 and n = 4 hold 6.4 MB of training draws:
        # refused, before any draw, when the machine has 4 MB
        def never(*args, **kwargs):
            raise AssertionError("sampled a draw that cannot fit")

        pages = {"SC_PHYS_PAGES": 1024, "SC_PAGE_SIZE": 4096}
        config = ExperimentConfig(instance=small_instance(), methods=["full"],
                                  n_grid=[100, 100_000], trials=2, jobs=2)
        monkeypatch.setattr(cli, "sample_scenarios", never)
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        with pytest.raises(ConfigError, match="2 concurrent draws"):
            run_experiment(config)


class TestGoldenCampaign:
    """raw.csv of a small campaign over every method tag, recorded before the
    heuristics became pick rules over shared loops and exact-mip moved into
    run_method; wall_time is left out.  Six objectives of trial 0 (full,
    grp, fgrp and rap at N=100, full and grp at N=150) were re-recorded in
    their last bit when masters began to generate their rows: the final
    basis is the same, but its tight rows reach the kernel in another order.
    Only the last bits of the normal
    quantile may move: the Wilson limit and the Gaussian baseline's figures
    are compared to 1e-12 relative, everything else exactly."""

    def test_raw_rows_match_recording(self):
        config = ExperimentConfig(instance=small_instance(seed=6),
                                  methods=list(cli.ALL_METHODS),
                                  n_grid=[100, 150], trials=2, base_seed=17,
                                  test_set_size=1000)
        rows, _ = run_experiment(config)
        with open(GOLDEN_RAW, newline="") as fh:
            golden = list(csv.DictReader(fh))
        assert len(rows) == len(golden)
        for row, want in zip(rows, golden):
            for column, value in want.items():
                got = getattr(row, column)
                if isinstance(got, float) and (column == "binomial_upper_limit"
                                               or row.method == "socp"):
                    assert got == pytest.approx(float(value), rel=1e-12, abs=0)
                else:
                    assert str(cli._fmt(got)) == value, (row.method, row.trial,
                                                         column)


class TestSweepW:
    def test_single_w_matches_experiment(self):
        inst = small_instance(seed=7)
        config = ExperimentConfig(instance=inst, methods=["asm1"],
                                  n_grid=[200], trials=3, base_seed=29,
                                  test_set_size=1000)
        records = sweep_w(config, [0.5])
        rows, aggs = run_experiment(config)
        assert records[0]["objective_mean"] == pytest.approx(
            aggs[0]["objective_mean"], abs=1e-12)
        assert records[0]["constraints_added_mean"] == pytest.approx(
            aggs[0]["lp_solves_mean"] - 1.0, abs=1e-12)

    def test_low_w_adds_at_least_as_many_constraints(self):
        inst = small_instance(seed=8, alpha=0.97)
        config = ExperimentConfig(instance=inst, methods=["asm1"],
                                  n_grid=[400], trials=6, base_seed=31,
                                  test_set_size=1000)
        recs = {r["w"]: r for r in sweep_w(config, [0.01, 0.5])}
        assert recs[0.01]["constraints_added_mean"] >= \
            recs[0.5]["constraints_added_mean"] - 1e-9

    def test_midpoint_w_beats_greedy_cut_in_mean(self):
        # needs competitive assets: with one dominant asset the optimum is
        # insensitive to the selection weight
        rng = np.random.default_rng(1)
        n_risky = 10
        means = rng.uniform(1.06, 1.10, n_risky)
        factors = rng.normal(size=(n_risky, 3))
        idio = rng.uniform(0.2, 1.0, n_risky)
        raw = factors @ factors.T + np.diag(idio)
        tv = rng.uniform(0.15, 0.35, n_risky)
        s = tv / np.sqrt(np.diag(raw))
        cov = np.zeros((n_risky + 1, n_risky + 1))
        cov[:n_risky, :n_risky] = raw * np.outer(s, s)
        inst = Instance(tuple(f"r{i}" for i in range(n_risky)) + ("cash",),
                        GaussianModel(np.append(means, 1.0), cov),
                        alpha=0.95, epsilon=0.05, beta=5e-6,
                        cash_index=n_risky)
        config = ExperimentConfig(instance=inst, methods=["asm1"],
                                  n_grid=[10_000], trials=20, base_seed=40000,
                                  test_set_size=1000)
        recs = {r["w"]: r for r in sweep_w(config, [0.5, 1.0])}
        assert recs[0.5]["objective_mean"] >= recs[1.0]["objective_mean"]


class TestCommandLine:
    def test_budget_row(self, capsys):
        rc = main(["budget", "--n-scenarios", "10000", "--epsilon", "0.05",
                   "--beta", "5e-6", "--n-dims", "20"])
        assert rc == 0
        out = capsys.readouterr().out.strip().split(",")
        assert int(out[0]) == 238
        assert float(out[1]) <= 5e-6
        assert float(out[2]) == pytest.approx(0.0238)

    def test_sample_solve_validate_round_trip(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        write_instance(inst_path, small_instance(seed=9))
        scen_path = tmp_path / "scen.csv"
        rc = main(["sample", "--instance", str(inst_path), "--n-scenarios",
                   "300", "--seed", "5", "--out", str(scen_path)])
        assert rc == 0
        header = scen_path.read_text().splitlines()[0]
        assert header == "a1,a2,a3,a4"
        report_path = tmp_path / "report.json"
        rc = main(["solve", "--instance", str(inst_path), "--method", "asm1",
                   "--scenarios", str(scen_path), "--out", str(report_path)])
        assert rc == 0
        payload = json.loads(report_path.read_text())
        assert payload["method"] == "asm1"
        assert payload["n_scenarios"] == 300
        rc = main(["validate", "--report", str(report_path), "--instance",
                   str(inst_path), "--test-size", "2000"])
        assert rc == 0
        rate, upper = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert 0.0 <= float(rate) <= 1.0
        assert float(rate) <= float(upper) <= 1.0
        # validating against a scenario file re-uses the training draws
        rc = main(["validate", "--report", str(report_path), "--instance",
                   str(inst_path), "--scenarios", str(scen_path)])
        assert rc == 0
        rate2, _ = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        k = json.loads(report_path.read_text())["k"]
        assert float(rate2) * 300 <= k + 1e-9

    def test_sampled_csv_reads_back_bit_exact(self, tmp_path):
        inst = small_instance(seed=9)
        inst_path, scen_path = tmp_path / "inst.json", tmp_path / "scen.csv"
        write_instance(inst_path, inst)
        assert main(["sample", "--instance", str(inst_path), "--n-scenarios",
                     "500", "--seed", "5", "--out", str(scen_path)]) == 0
        back = cli.read_scenario_csv(scen_path)
        assert np.array_equal(back.returns,
                              sample_scenarios(inst.model, 500, 5).returns)

    def test_scenario_file_read_into_one_array(self, tmp_path):
        # the body goes straight into one column-major array, chunk by chunk
        rows = np.random.default_rng(4).normal(1.0, 0.1, size=(20_000, 21))
        path = tmp_path / "scen.csv"
        np.savetxt(path, rows, fmt="%.17g", delimiter=",", comments="",
                   header=",".join(f"a{j + 1}" for j in range(21)))
        tracemalloc.start()
        try:
            back = cli.read_scenario_csv(path).returns
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, rows) and back.flags.f_contiguous
        assert peak <= 1.1 * back.nbytes

    def test_scenario_file_chunks(self, tmp_path, monkeypatch):
        # blank and comment lines are no rows, as for np.loadtxt, and a
        # chunk of another width is refused like a ragged row
        monkeypatch.setattr(cli, "_CSV_ROWS", 3)
        body = "1,2\n\n3,4 # c\n# only a comment\n5,6\n7,8\n\n9,10"
        path = tmp_path / "scen.csv"
        path.write_text("a1,a2\n" + body)
        back = cli.read_scenario_csv(path).returns
        assert np.array_equal(back, np.arange(1.0, 11.0).reshape(5, 2))
        for width in ("7\n8\n9\n", "7,8,1\n8,9,1\n"):
            path.write_text("a1,a2\n1,2\n3,4\n5,6\n" + width)
            with pytest.raises(ConfigError, match="columns"):
                cli.read_scenario_csv(path)

    def test_scenario_file_reader_lets_other_warnings_through(
            self, tmp_path, monkeypatch):
        # only numpy's blank-line warning is silenced while the file parses
        loadtxt = np.loadtxt

        def deprecated(*args, **kwargs):
            warnings.warn("a deprecated call", DeprecationWarning)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", deprecated)
        path = tmp_path / "scen.csv"
        path.write_text("a1,a2\n1,2\n\n3,4\n")
        with pytest.warns(DeprecationWarning, match="a deprecated call"):
            back = cli.read_scenario_csv(path).returns
        assert np.array_equal(back, [[1.0, 2.0], [3.0, 4.0]])

    def test_malformed_scenario_file_exit_code(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        write_instance(inst_path, small_instance(seed=9))
        for name, text in [("value", "a1,a2,a3,a4\n1,1,x,1\n"),
                           ("ragged", "a1,a2,a3,a4\n1,1,1,1\n1,1,1\n"),
                           ("empty", "a1,a2,a3,a4\n"),
                           ("nan", "a1,a2,a3,a4\n1,1,nan,1\n"),
                           ("header", "1,1,1,1\n1,1,1,1\n")]:
            path = tmp_path / f"{name}.csv"
            path.write_text(text)
            rc = main(["solve", "--instance", str(inst_path), "--method",
                       "asm1", "--scenarios", str(path)])
            assert rc == 2, name
            assert str(path) in capsys.readouterr().err, name

    def test_solve_exact_mip_reports_its_work(self, tmp_path, capsys):
        inst = small_instance(seed=6)
        inst_path = tmp_path / "inst.json"
        write_instance(inst_path, inst)
        report_path = tmp_path / "report.json"
        t0 = time.perf_counter()
        rc = main(["solve", "--instance", str(inst_path), "--method",
                   "exact-mip", "--n-scenarios", "200", "--seed", "3",
                   "--out", str(report_path)])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        payload = json.loads(report_path.read_text())
        sc = sample_scenarios(inst.model, 200, 3)
        k = max_removals(200, inst.risk_spec).k_removals
        res = mip_solve(build_saa_bigm(sc, inst.alpha, k, inst.model.mean))
        violations = evaluate_outcomes(res.x[: inst.n_assets], sc,
                                       inst.program_spec).violation_count
        assert payload["status"] == "ok"
        assert payload["objective"] == pytest.approx(res.objective_value, abs=1e-12)
        assert (payload["lp_solves"], payload["mip_nodes"]) == (res.lp_solves,
                                                                res.node_count)
        assert payload["train_violations"] == violations <= k
        assert 0.0 < payload["wall_time"] < elapsed
        out = capsys.readouterr().out
        assert f"solves={res.lp_solves} " in out
        assert f"train_violations={violations} " in out

    def test_solve_socp_at_given_epsilon_counts_violations(self, tmp_path,
                                                            capsys):
        inst = small_instance(seed=6)
        inst_path = tmp_path / "inst.json"
        write_instance(inst_path, inst)
        report_path = tmp_path / "report.json"
        rc = main(["solve", "--instance", str(inst_path), "--method", "socp",
                   "--epsilon", "0.03", "--n-scenarios", "400", "--seed", "17",
                   "--out", str(report_path)])
        assert rc == 0
        payload = json.loads(report_path.read_text())
        sc = sample_scenarios(inst.model, 400, 17)
        violations = evaluate_outcomes(np.array(payload["x"]), sc,
                                       inst.program_spec).violation_count
        assert payload["train_violations"] == violations > 0
        assert f"train_violations={violations} " in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["full", "socp"])
    def test_solve_over_the_time_limit(self, tmp_path, capsys, method):
        # as under experiment: a run past the limit is time_limit, exit 3
        inst_path = tmp_path / "inst.json"
        write_instance(inst_path, small_instance(seed=6))
        rc = main(["solve", "--instance", str(inst_path), "--method", method,
                   "--n-scenarios", "200", "--seed", "7", "--time-limit", "0"])
        assert rc == 3
        assert "status=time_limit" in capsys.readouterr().out

    def test_banded_solve_stops_its_master_at_the_time_limit(
            self, tmp_path, capsys, monkeypatch):
        # the master's branch-and-bound gets what is left of the limit and
        # stops after its root; the run is time_limit, exit 3
        limits = []

        def recorded(model, warm=None, time_limit=None):
            limits.append(time_limit)
            return mip_solve(model, warm=warm, time_limit=time_limit)

        monkeypatch.setattr(heuristics, "mip_solve", recorded)
        inst_path = tmp_path / "inst.json"
        write_instance(inst_path, small_instance(seed=6))
        rc = main(["solve", "--instance", str(inst_path), "--method", "rap",
                   "--semicontinuous", "--n-scenarios", "200", "--seed", "7",
                   "--time-limit", "0"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "status=time_limit" in out and " nodes=1 " in out
        assert len(limits) == 1 and limits[0] < 0

    @pytest.mark.parametrize("method", ["rap", "socp", "asm2"])
    def test_solve_report_is_the_experiment_row(self, tmp_path, method):
        # solve is trial 0 of the campaign: same training and test sets
        inst = small_instance(seed=6)
        inst_path = tmp_path / "inst.json"
        write_instance(inst_path, inst)
        report_path = tmp_path / "report.json"
        assert main(["solve", "--instance", str(inst_path), "--method", method,
                     "--n-scenarios", "300", "--seed", "17",
                     "--out", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        rows, _ = run_experiment(ExperimentConfig(
            instance=inst, methods=[method], n_grid=[300], trials=1,
            base_seed=17, test_set_size=100_000))
        assert set(payload) == set(RAW_COLUMNS) | {"x"}
        for column in RAW_COLUMNS:
            if column != "wall_time":
                assert payload[column] == getattr(rows[0], column), column

    def test_solve_exact_mip_infeasible_exit_code(self, tmp_path, capsys):
        # no cash column and a floor far above every return: no k rows can go
        inst = small_instance(seed=6)
        inst = Instance(inst.names, inst.model, alpha=3.0, epsilon=0.05,
                        beta=0.2, cash_index=None)
        inst_path = tmp_path / "inst.json"
        write_instance(inst_path, inst)
        rc = main(["solve", "--instance", str(inst_path), "--method",
                   "exact-mip", "--n-scenarios", "150", "--seed", "3"])
        assert rc == 4
        assert "infeasible" in capsys.readouterr().err

    def test_solve_socp_infeasible_exit_code(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps({
            "names": ["a", "b"], "mean": [1.01, 1.02],
            "covariance": [[0.01, 0], [0, 0.02]], "alpha": 1.5,
            "epsilon": 0.05, "beta": 0.001}))
        rc = main(["solve", "--instance", str(inst_path), "--method", "socp",
                   "--n-scenarios", "2000", "--seed", "3"])
        captured = capsys.readouterr()
        assert rc == 4
        assert "infeasible" in captured.err and captured.out == ""

    def test_ingest(self, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        rng = np.random.default_rng(0)
        rows = ["date,x1,x2"]
        vals = rng.uniform(10, 20, size=(30, 2))
        y, m = 2018, 1
        for t in range(30):
            rows.append(f"{y:04d}-{m:02d},{vals[t, 0]},{vals[t, 1]}")
            m += 1
            if m == 13:
                y, m = y + 1, 1
        prices.write_text("\n".join(rows) + "\n")
        out = tmp_path / "inst.json"
        rc = main(["ingest", "--prices", str(prices), "--lag", "12",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["names"] == ["x1", "x2", "CASH"]
        assert payload["cash_index"] == 2
        assert payload["mean"][2] == 1.0

    def test_experiment_writes_outputs(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        write_instance(inst_path, small_instance(seed=10))
        outdir = tmp_path / "results"
        rc = main(["experiment", "--instance", str(inst_path),
                   "--methods", "full,asm1", "--n-grid", "120",
                   "--trials", "2", "--test-size", "1000",
                   "--plot-data", "--out-dir", str(outdir)])
        assert rc == 0
        with open(outdir / "raw.csv") as fh:
            raw = list(csv.reader(fh))
        assert raw[0] == RAW_COLUMNS
        assert len(raw) == 1 + 4      # two methods x two trials
        with open(outdir / "aggregate.csv") as fh:
            agg = list(csv.reader(fh))
        assert len(agg) == 1 + 2
        assert (outdir / "plot_long.csv").exists()

    def test_sweep_w_writes_outputs(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        write_instance(inst_path, small_instance(seed=11))
        outdir = tmp_path / "sweep"
        rc = main(["sweep-w", "--instance", str(inst_path), "--w-list",
                   "0.5,1.0", "--n-grid", "100", "--trials", "2",
                   "--test-size", "500", "--out-dir", str(outdir)])
        assert rc == 0
        with open(outdir / "sweep_w.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_validate_refuses_a_non_finite_solution(self, tmp_path, capsys,
                                                    bad):
        inst_path, report = tmp_path / "inst.json", tmp_path / "r.json"
        write_instance(inst_path, small_instance(seed=9))
        report.write_text(f"[{bad}, 0, 0, 1]\n")
        rc = main(["validate", "--report", str(report), "--instance",
                   str(inst_path), "--test-size", "500"])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        rc = main(["solve", "--instance", str(tmp_path / "missing.json"),
                   "--method", "asm1"])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["budget", "--n-scenarios", "10", "--epsilon", "0.05", "--beta",
         "5e-6", "--n-dims", "20"],
        ["solve", "--method", "asm1", "--n-scenarios", "10"],
        ["experiment", "--methods", "asm1", "--n-grid", "10", "--trials", "1",
         "--test-size", "100"]])
    def test_no_feasible_budget_exit_code(self, tmp_path, capsys, argv):
        # N too small for even k=0 at the instance's beta is a configuration error
        inst_path = tmp_path / "inst.json"
        write_instance(inst_path, small_instance(seed=9))
        if argv[0] != "budget":
            argv = argv + ["--instance", str(inst_path)]
        if argv[0] == "experiment":
            argv = argv + ["--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "k=0 already exceeds beta" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", ["nan", "-1"])
    @pytest.mark.parametrize("argv", [
        ["solve", "--method", "asm2", "--n-scenarios", "200"],
        ["experiment", "--methods", "asm1", "--n-grid", "120", "--trials", "1",
         "--test-size", "100"],
        ["sweep-w", "--w-list", "0.5", "--n-grid", "100", "--trials", "1",
         "--test-size", "100"]])
    def test_time_limit_must_be_a_number_at_least_zero(self, tmp_path, capsys,
                                                       monkeypatch, argv, limit):
        # a NaN limit never expires and a negative one expires at once; both
        # are refused before any work, while 0 keeps its meaning
        def never(*args, **kwargs):
            raise AssertionError("solved under an invalid time limit")

        monkeypatch.setattr(cli, "run_method", never)
        inst_path = tmp_path / "inst.json"
        write_instance(inst_path, small_instance(seed=9))
        argv = argv + ["--instance", str(inst_path), "--time-limit", limit]
        if argv[0] != "solve":
            argv = argv + ["--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "time limit must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "--n-scenarios", "100000000000", "--out", "out"],
        ["solve", "--method", "asm1", "--n-scenarios", "100000000000",
         "--out", "out"]])
    def test_draw_larger_than_memory_exit_code(self, tmp_path, capsys,
                                               monkeypatch, argv):
        # refused before the draw is allocated, and before any file is written
        monkeypatch.chdir(tmp_path)
        write_instance("inst.json", small_instance(seed=9))
        assert main(argv + ["--instance", "inst.json"]) == 2
        assert "physical memory" in capsys.readouterr().err
        assert not Path("out").exists()

    def test_semicontinuous_dual_method_rejected(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        write_instance(inst_path, small_instance(seed=12))
        rc = main(["solve", "--instance", str(inst_path), "--method", "fgrp",
                   "--n-scenarios", "100", "--semicontinuous"])
        assert rc == 2


class TestAggregate:
    def test_time_limited_rows_excluded(self):
        from ccsaa.cli import TrialRow
        rows = [
            TrialRow("asm1", 100, 2, 0, 1, 1.05, 0.1, 5, 0, 1, 0.01, 0.02, "ok"),
            TrialRow("asm1", 100, 2, 1, 2, 9.99, 99., 5, 0, 1, 0.01, 0.02,
                     "time_limit"),
        ]
        aggs = aggregate(rows)
        assert aggs[0]["runs"] == 1
        assert aggs[0]["objective_mean"] == pytest.approx(1.05)
