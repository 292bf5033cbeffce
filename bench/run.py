#!/usr/bin/env python3
"""Benchmark of ccsaa on its default instance.

    python3 bench/run.py --workload removal-1e4 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Workloads (bench/README.md says why each exists):

  removal-1e4    grp, fgrp and rap at N=10,000 on two training sets
  insertion-1e6  asm1, asm2 and asm3 at N=1,000,000 on one training set
  integer-bb     exact big-M branch-and-bound (N=500, k=10) and rap with
                 semi-continuous band masters at N=10,000

Training sets are fixed draws; --seed draws the out-of-sample test sets.

An untraced run (--trace 0) has three timed phases, each reported as a median:

  setup_s     read the instance, compute the budgets, sample every training
              set; repeated until SETUP_MIN_SECONDS have passed
  solve_s     one round of the workload's solver calls, timed around each
              call; rounds repeat until they add up to --seconds
  validate_s  cli.validate_solution on every solution of a round, with its
              trial's test seed; repeated until VALIDATE_MIN_SECONDS, after
              the first round

and peak_rss_mb, the process's peak resident memory after set-up, the first
round and validation.  A traced run (--trace 1) wraps ccsaa's public functions
(bench/tracing.py) and reports per-layer figures instead: one set-up, rounds
for --seconds, one validation pass, with the solve phase averaged per round.  It writes its figures to
bench/out/ when it ends.  Either way every solution is then checked with
numpy and scipy alone (bench/verify.py).

``--workload all`` runs every workload, untraced and traced, each in a
process of its own, and prints every metric by name with its unit.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit codes: 0 done, 1 a check failed, 2 ccsaa
or its instance file is missing.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One process, with BLAS on at most the cores it may run on; set before numpy.
BLAS_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import verify  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INSTANCE = ROOT / "instances" / "default.json"
OUT_DIR = HERE / "out"

WORKLOADS = ("removal-1e4", "insertion-1e6", "integer-bb")
END_TO_END = {"setup_s": "s", "solve_s": "s", "validate_s": "s",
              "peak_rss_mb": "MB"}

TEST_SET_SIZE = 100_000         # cli's default out-of-sample test set
SETUP_MIN_SECONDS = 2.0
VALIDATE_MIN_SECONDS = 2.0
MIN_REPEATS = 3

# Training sets follow cli's trial protocol with this base seed whatever
# --seed is; --seed sets the base of the test sets.  Solver work on a draw is
# heavy tailed: exact B&B at N=500, k=10 takes 70 nodes on draw 7 and over
# 240 s on draw 1; banded rap at N=1e4 takes 246 to 1,916 nodes over four
# draws; asm work at N=1e6 spreads by about 12% per draw; and grp at N=1e4
# fails on draw 301 (NumericalFailure after 142 s, see CHANGES.md).  A run
# has room for one or two draws, so a seeded draw could neither repeat within
# a tenth nor keep the share of failed solves the same for every seed.
FIXED_TRAIN_SEED = 7


@dataclass
class Trial:
    """One training set, its budget and the test seed of its solutions."""
    n_scenarios: int
    train_seed: int
    test_seed: int
    k: int | None = None            # None: the certificate's budget
    scenarios: object = None
    budget: object = None


@dataclass
class Job:
    trial: int                      # index into the workload's trials
    method: str                     # a run_method tag, or "exact-bb"
    semi: bool = False              # semi-continuous band masters


@dataclass
class Workload:
    trials: list
    jobs: list


def make_workload(name, seed, cli):
    """Trials and solver calls of a workload; trial t tests on
    test_seed(seed, t) and trains on scenario_seed(FIXED_TRAIN_SEED, draw)."""
    def trial(t, n_scenarios, k=None, draw=None):
        draw = t if draw is None else draw
        return Trial(n_scenarios, cli.scenario_seed(FIXED_TRAIN_SEED, draw),
                     cli.test_seed(seed, t), k)

    if name == "removal-1e4":
        trials = [trial(0, 10_000), trial(1, 10_000)]
        jobs = [Job(t, m) for t in range(2) for m in ("grp", "fgrp", "rap")]
    elif name == "insertion-1e6":
        trials = [trial(0, 1_000_000)]
        jobs = [Job(0, m) for m in ("asm1", "asm2", "asm3")]
    elif name == "integer-bb":
        trials = [trial(0, 500, k=10), trial(1, 10_000, draw=0)]
        jobs = [Job(0, "exact-bb"), Job(1, "rap", semi=True)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(trials, jobs)


@dataclass
class Solution:
    job: Job
    x: np.ndarray
    objective: float
    train_violations: int | None = None     # None: not reported (exact B&B)
    working_set: list = field(default_factory=list)
    x_full: np.ndarray | None = None        # exact B&B: x and the binaries


def import_ccsaa():
    """ccsaa from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import ccsaa
        import ccsaa.cli
    except ImportError as e:
        print(f"bench: cannot import ccsaa from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
    if Path(ccsaa.__file__).resolve().parent.parent != SRC.resolve():
        print(f"bench: ccsaa came from {ccsaa.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    if not INSTANCE.is_file():
        print(f"bench: instance file {INSTANCE} is missing", file=sys.stderr)
        sys.exit(2)
    return ccsaa


# ----------------------------------------------------------------------
# the timed phases
# ----------------------------------------------------------------------

def setup(ccsaa, workload):
    """Everything before the first solve; fills the trials in place."""
    inst = ccsaa.data.read_instance(str(INSTANCE))
    budgets = {}
    for trial in workload.trials:
        trial.scenarios = None          # release the previous draw first
        if trial.k is not None:
            trial.budget = ccsaa.certificate.ScenarioBudget(
                trial.n_scenarios, trial.k, float("nan"))
        else:
            if trial.n_scenarios not in budgets:
                budgets[trial.n_scenarios] = ccsaa.certificate.max_removals(
                    trial.n_scenarios, inst.risk_spec)
            trial.budget = budgets[trial.n_scenarios]
        trial.scenarios = ccsaa.gaussian.sample_scenarios(
            inst.model, trial.n_scenarios, trial.train_seed)
    return inst, inst.program_spec


def solve(ccsaa, inst, spec, trial, job):
    """One solver call; raises ccsaa.CcsaaError or returns (status, Solution)."""
    if job.method == "exact-bb":
        model = ccsaa.mip.build_saa_bigm(trial.scenarios, inst.alpha,
                                         trial.budget.k_removals, spec.objective)
        res = ccsaa.mip.mip_solve(model)
        status = "time_limit" if res.hit_time_limit else res.status
        return status, Solution(job, res.x[: inst.n_assets], res.objective_value,
                                x_full=res.x)
    rep = ccsaa.heuristics.run_method(
        job.method, trial.scenarios, spec, trial.budget, seed=trial.train_seed,
        semi=inst.semicontinuous if job.semi else None)
    return rep.status, Solution(job, rep.x, rep.objective, rep.train_violations,
                                list(rep.working_set.scenario_indices))


def run_round(ccsaa, inst, spec, workload):
    """Every solver call once: (seconds in the calls, solutions, failures)."""
    seconds, solutions, failures = 0.0, [], []
    for job in workload.jobs:
        trial = workload.trials[job.trial]
        t0 = time.perf_counter()
        try:
            status, sol = solve(ccsaa, inst, spec, trial, job)
        except ccsaa.CcsaaError as e:
            status, sol = f"{type(e).__name__}: {e}", None
        seconds += time.perf_counter() - t0
        if status in ("ok", "optimal"):
            solutions.append(sol)
        else:
            failures.append(f"{job.method} on trial {job.trial}: {status}")
    return seconds, solutions, failures


def validate_pass(ccsaa, inst, workload, solutions):
    """cli.validate_solution once per solution: (seconds, [(rate, upper)])."""
    seconds, results = 0.0, []
    for sol in solutions:
        t0 = time.perf_counter()
        rate, upper = ccsaa.cli.validate_solution(
            sol.x, inst, TEST_SET_SIZE, workload.trials[sol.job.trial].test_seed)
        seconds += time.perf_counter() - t0
        results.append((rate, upper))
    return seconds, results


def repeat(fn, min_seconds, min_repeats):
    """Call fn, which returns (seconds, value), until both minimums are met:
    (the seconds of every call, the last value)."""
    times, start = [], time.perf_counter()
    while True:
        seconds, value = fn()
        times.append(seconds)
        if len(times) >= min_repeats and time.perf_counter() - start >= min_seconds:
            return times, value


def timed_setup(ccsaa, workload):
    t0 = time.perf_counter()
    value = setup(ccsaa, workload)
    return time.perf_counter() - t0, value


# ----------------------------------------------------------------------
# independent checks
# ----------------------------------------------------------------------

def check_run(ccsaa, spec, workload, solutions, validations):
    """Every check of bench/verify.py on the first round's solutions, which
    the validation phase validated.

    The instance is re-read from its JSON file and its covariance factored
    with numpy, so the reference data does not pass through ccsaa either."""
    raw = json.loads(INSTANCE.read_text())
    mean = np.asarray(raw["mean"], dtype=float)
    cov = np.asarray(raw["covariance"], dtype=float)
    alpha, epsilon, beta = raw["alpha"], raw["epsilon"], raw["beta"]
    band = raw["semicontinuous"]
    n_dims = mean.size - 1              # dimension of the budget simplex
    chol = np.zeros_like(cov)
    live = np.flatnonzero(np.diag(cov) > 0)
    chol[np.ix_(live, live)] = np.linalg.cholesky(cov[np.ix_(live, live)])

    for t, trial in enumerate(workload.trials):
        returns = np.asarray(trial.scenarios.returns)
        drawn = verify.draw_scenarios(mean, chol, trial.n_scenarios, trial.train_seed)
        if not np.allclose(returns, drawn, rtol=0.0, atol=1e-12):
            raise verify.CheckFailed(f"trial {t}: training set differs from "
                                     "an independent draw")
        if trial.k is None:
            verify.check_budget(f"trial {t}", trial.n_scenarios,
                                trial.budget.k_removals, epsilon, beta, n_dims,
                                trial.budget.beta_achieved)

    for sol, (rate, upper) in zip(solutions, validations):
        trial = workload.trials[sol.job.trial]
        returns = np.asarray(trial.scenarios.returns)
        k = trial.budget.k_removals
        tag = f"{sol.job.method} on trial {sol.job.trial}"
        verify.check_solution(tag, sol.x, sol.objective, mean, returns, alpha,
                              k, sol.train_violations)
        rows = returns[np.asarray(sol.working_set, dtype=np.int64)]
        if sol.job.method == "exact-bb":
            rivals = {m: ccsaa.heuristics.run_method(
                          m, trial.scenarios, spec, trial.budget,
                          seed=trial.train_seed).objective
                      for m in ccsaa.heuristics.METHODS}
            verify.check_exact(tag, sol.x_full, sol.objective, mean, returns,
                               alpha, k, rivals)
        elif sol.job.semi:
            verify.check_band_mip(tag, sol.x, sol.objective, mean, rows, alpha,
                                  band["l"], band["u"], raw["cash_index"])
        else:
            verify.check_working_set_lp(tag, sol.x, sol.objective, mean, rows, alpha)
        test = verify.draw_scenarios(mean, chol, TEST_SET_SIZE, trial.test_seed)
        certified = trial.k is None
        verify.check_validation(tag, sol.x, rate, upper, test, alpha, beta,
                                epsilon if certified else None)


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

class Phases:
    """Tracer totals charged to the phase that was running (traced runs)."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.totals = {p: ({}, {}, 0) for p in ("setup", "solve", "validate")}

    def run(self, phase, fn):
        if self.tracer is None:
            return fn()
        before = self.tracer.snapshot()
        value = fn()
        after = self.tracer.snapshot()
        seconds, counts, distinct = self.totals[phase]
        for total, a, b in ((seconds, before[0], after[0]), (counts, before[1], after[1])):
            for key in b:
                total[key] = total.get(key, 0.0) + b[key] - a.get(key, 0.0)
        self.totals[phase] = (seconds, counts, distinct + after[2] - before[2])
        return value

    def layer_metrics(self, rounds):
        """Per-layer figures of one set-up, one average round and one
        validation pass."""
        merged = []
        for i in range(2):
            keys = set().union(*(self.totals[p][i] for p in self.totals))
            merged.append({key: self.totals["setup"][i].get(key, 0.0)
                           + self.totals["solve"][i].get(key, 0.0) / rounds
                           + self.totals["validate"][i].get(key, 0.0)
                           for key in keys})
        return self.tracer.metrics(*merged, self.totals["validate"][2])


def run(name, seed, seconds, trace):
    """One workload; returns the result object."""
    ccsaa = import_ccsaa()
    workload = make_workload(name, seed, ccsaa.cli)
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(ccsaa)
    phases = Phases(tracer)
    setup_repeats = (0.0, 1) if trace else (SETUP_MIN_SECONDS, MIN_REPEATS)
    validate_repeats = (0.0, 1) if trace else (VALIDATE_MIN_SECONDS, MIN_REPEATS)

    setup_times, (inst, spec) = phases.run("setup", lambda: repeat(
        lambda: timed_setup(ccsaa, workload), *setup_repeats))

    round_times, failures, problems, first = [], [], [], None

    def solve_round():
        nonlocal first
        spent, solutions, failed = run_round(ccsaa, inst, spec, workload)
        round_times.append(spent)
        failures.extend(failed)
        outcome = [(s.job.method, s.job.trial, s.objective) for s in solutions]
        if first is None:
            first = outcome
        elif outcome != first:
            problems.append("a round's solutions differ from the first round's")
        return solutions

    # Validation runs after the first round, so that the peak RSS covers one
    # set-up, one round and one validation pass however many rounds fit.
    solving = time.perf_counter()
    solutions = phases.run("solve", solve_round)
    solving = time.perf_counter() - solving
    validate_times, validations = phases.run("validate", lambda: repeat(
        lambda: validate_pass(ccsaa, inst, workload, solutions), *validate_repeats))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while solving < seconds:
        t0 = time.perf_counter()
        phases.run("solve", solve_round)
        solving += time.perf_counter() - t0

    if tracer is not None:
        tracer.uninstall()
        import tracing
        metrics = phases.layer_metrics(len(round_times))
        units = tracing.PER_LAYER
        traced_solve = statistics.median(round_times)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"trace-{name}-seed{seed}.json").write_text(json.dumps({
            "workload": name, "seed": seed, "round_seconds": round_times,
            "traced_solve_s": traced_solve, "per_layer": metrics,
            "phase_totals": {p: {"seconds": t[0], "counts": t[1]}
                             for p, t in phases.totals.items()},
        }, indent=1) + "\n")
        print(f"bench: traced solve_s {traced_solve!r}", file=sys.stderr)
    else:
        metrics = {"setup_s": statistics.median(setup_times),
                   "solve_s": statistics.median(round_times),
                   "validate_s": statistics.median(validate_times),
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END

    try:
        check_run(ccsaa, spec, workload, solutions, validations)
    except verify.CheckFailed as e:
        problems.append(f"check failed: {e}")
    print(f"bench: {name} rounds {' '.join(f'{t:.3f}' for t in round_times)} s, "
          f"{len(setup_times)} setups, {len(validate_times)} validation passes",
          file=sys.stderr)
    for line in failures + problems:
        print(f"bench: {line}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": len(round_times) * len(workload.jobs),
            "failed": len(failures),
            "metrics": {key: {"value": float(value), "unit": units[key]}
                        for key, value in metrics.items()}}


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in a child process."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                sys.exit(proc.returncode or 1)
            result = json.loads(lines[-1])
            results[(name, trace)] = result
            print(f"{name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for key, metric in result["metrics"].items():
                print(f"  {key:32s} {metric['value']:>16.6g} {metric['unit']}")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": metric
                        for (name, _), r in results.items()
                        for key, metric in r["metrics"].items()}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="length of the solve phase; whole rounds, at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
