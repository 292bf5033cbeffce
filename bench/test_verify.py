"""The benchmark's independent checks accept real solutions and reject
corrupted ones.  Run with ``python -m pytest bench``."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ccsaa  # noqa: E402
from ccsaa.cli import validate_solution  # noqa: E402

import verify  # noqa: E402
from verify import CheckFailed  # noqa: E402

INSTANCE = Path(__file__).resolve().parent.parent / "instances" / "default.json"


@pytest.fixture(scope="module")
def inst():
    return ccsaa.read_instance(str(INSTANCE))


@pytest.fixture(scope="module")
def asm(inst):
    """An active-set solution at N=2,000 with its certificate budget."""
    scen = ccsaa.sample_scenarios(inst.model, 2_000, seed=11)
    budget = ccsaa.max_removals(2_000, inst.risk_spec)
    rep = ccsaa.active_set(scen, inst.program_spec, budget)
    return scen.returns, budget, rep


def _check(inst, returns, budget, x, objective, violations, rows):
    c = inst.model.mean
    verify.check_solution("t", x, objective, c, returns, inst.alpha,
                          budget.k_removals, violations)
    verify.check_working_set_lp("t", x, objective, c, returns[rows], inst.alpha)


def test_real_solution_passes(inst, asm):
    returns, budget, rep = asm
    _check(inst, returns, budget, rep.x, rep.objective, rep.train_violations,
           rep.working_set.scenario_indices)


def test_perturbed_x_rejected(inst, asm):
    returns, budget, rep = asm
    x = rep.x.copy()
    x[np.argmax(x)] -= 1e-4
    x[np.argmin(x)] += 1e-4             # still on the simplex
    with pytest.raises(CheckFailed):
        _check(inst, returns, budget, x, rep.objective, rep.train_violations,
               rep.working_set.scenario_indices)
    with pytest.raises(CheckFailed):    # even with its objective made consistent
        _check(inst, returns, budget, x, float(inst.model.mean @ x),
               rep.train_violations, rep.working_set.scenario_indices)


@pytest.mark.parametrize("delta", [-1, 1])
def test_violation_count_off_by_one_rejected(inst, asm, delta):
    returns, budget, rep = asm
    with pytest.raises(CheckFailed, match="training violations"):
        _check(inst, returns, budget, rep.x, rep.objective,
               rep.train_violations + delta, rep.working_set.scenario_indices)


def test_objective_off_the_lp_optimum_rejected(inst, asm):
    returns, budget, rep = asm
    with pytest.raises(CheckFailed, match="HiGHS"):
        verify.check_working_set_lp("t", rep.x, rep.objective - 1e-6, inst.model.mean,
                                    returns[rep.working_set.scenario_indices],
                                    inst.alpha)


def test_too_many_violations_rejected(inst, asm):
    returns, budget, rep = asm
    count = verify.count_violations(returns, rep.x, inst.alpha)
    with pytest.raises(CheckFailed, match="exceed"):
        verify.check_solution("t", rep.x, rep.objective, inst.model.mean, returns,
                              inst.alpha, count - 1)


@pytest.mark.parametrize("n_scenarios", [10_000, 1_000_000])
def test_budget_is_largest_certified_k(inst, n_scenarios):
    budget = ccsaa.max_removals(n_scenarios, inst.risk_spec)
    args = (inst.epsilon, inst.beta, inst.n_assets - 1, budget.beta_achieved)
    verify.check_budget("t", n_scenarios, budget.k_removals, *args)
    for wrong in (budget.k_removals - 1, budget.k_removals + 1):
        with pytest.raises(CheckFailed):
            verify.check_budget("t", n_scenarios, wrong, *args)


def test_validation_recount(inst, asm):
    _, _, rep = asm
    rate, upper = validate_solution(rep.x, inst, 20_000, seed=5)
    test = verify.draw_scenarios(inst.model.mean, inst.model.chol, 20_000, 5)
    args = (test, inst.alpha, inst.beta)
    verify.check_validation("t", rep.x, rate, upper, *args, epsilon=inst.epsilon)
    with pytest.raises(CheckFailed, match="rate"):
        verify.check_validation("t", rep.x, rate + 1 / 20_000, upper, *args)
    with pytest.raises(CheckFailed, match="Wilson"):
        verify.check_validation("t", rep.x, rate, upper * 1.001, *args)
    with pytest.raises(CheckFailed, match="epsilon"):
        verify.check_validation("t", rep.x, rate, upper, *args, epsilon=rate / 2)


def test_exact_checks(inst):
    scen = ccsaa.sample_scenarios(inst.model, 60, seed=3)
    model = ccsaa.build_saa_bigm(scen, inst.alpha, 3, inst.model.mean)
    res = ccsaa.mip_solve(model)
    c, returns = inst.model.mean, scen.returns
    args = (c, returns, inst.alpha, 3)
    verify.check_exact("t", res.x, res.objective_value, *args, {"h": 1.0})
    with pytest.raises(CheckFailed, match="HiGHS"):
        verify.check_exact("t", res.x, res.objective_value + 1e-3, *args, {})
    with pytest.raises(CheckFailed, match="heuristic"):
        verify.check_exact("t", res.x, res.objective_value, *args,
                           {"h": res.objective_value + 1e-3})
    with pytest.raises(CheckFailed, match="discards exceed"):
        verify.check_exact("t", res.x, res.objective_value, c, returns,
                           inst.alpha, int(round(res.x[c.size:].sum())) - 1, {})


def test_band_checks(inst):
    scen = ccsaa.sample_scenarios(inst.model, 300, seed=4)
    budget = ccsaa.ScenarioBudget(300, 5, float("nan"))
    semi = inst.semicontinuous
    rep = ccsaa.random_removal(scen, inst.program_spec, budget, seed=4, semi=semi)
    rows = scen.returns[rep.working_set.scenario_indices]
    args = (inst.model.mean, rows, inst.alpha, semi.lower, semi.upper,
            inst.cash_index)
    verify.check_band_mip("t", rep.x, rep.objective, *args)
    risky = rep.x[: inst.cash_index]
    x = rep.x.copy()                    # move a sliver into an unheld asset
    x[int(np.argmax(risky))] -= 0.5 * semi.lower
    x[int(np.flatnonzero(risky == 0.0)[0])] += 0.5 * semi.lower
    with pytest.raises(CheckFailed, match="outside the band"):
        verify.check_band_mip("t", x, rep.objective, *args)
    with pytest.raises(CheckFailed, match="band optimum"):
        verify.check_band_mip("t", rep.x, rep.objective + 1e-2, *args)


def test_tracer_counts_and_restores(inst):
    from tracing import Tracer
    originals = (ccsaa.heuristics.run_method, ccsaa.lp.lp_solve,
                 ccsaa.lp.LpModel.add_row, ccsaa.saa.OutcomeVector.ranked)
    scen = ccsaa.sample_scenarios(inst.model, 2_000, seed=11)
    budget = ccsaa.max_removals(2_000, inst.risk_spec)
    tracer = Tracer()
    tracer.install(ccsaa)
    try:
        rep = ccsaa.heuristics.run_method("asm1", scen, inst.program_spec, budget)
    finally:
        tracer.uninstall()
    assert (ccsaa.heuristics.run_method, ccsaa.lp.lp_solve,
            ccsaa.lp.LpModel.add_row, ccsaa.saa.OutcomeVector.ranked) == originals
    m = tracer.metrics()
    assert m["lp.solves"] == m["heuristics.master_solves"] == rep.lp_solves
    assert m["lp.row_adds"] == len(rep.working_set) == rep.lp_solves - 1
    assert m["saa.evaluate_calls"] == m["saa.rank_calls"] == rep.lp_solves
    assert m["heuristics.solve_yield"] == len(rep.working_set) / rep.lp_solves
    assert 0.0 < m["saa.status_change_frac"] < 1.0
    layers = sum(v for k, v in m.items() if k.endswith("_s")
                 and k not in ("heuristics.asm1_s", "mip.solve_s"))
    assert layers <= m["heuristics.asm1_s"]
