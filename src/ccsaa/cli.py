"""Experiment harness and command-line surface.

Subcommands: ``budget``, ``sample``, ``ingest``, ``solve``, ``validate``,
``experiment``, ``sweep-w``.  Exit codes: 0 success, 2 configuration error,
3 time-limit-partial results, 4 numerical failure.

Trial protocol: for each (N, trial) pair the training set is sampled with
seed ``base_seed + 1000 * trial`` and shared by every method in the trial;
the out-of-sample test set uses seed ``base_seed + 1000 * trial + 500000``
so the streams never overlap.  Rows whose run exceeded the time limit are
recorded with status ``time_limit`` and excluded from aggregate means.
"""

import argparse
import csv
import json
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .certificate import RiskSpec, binomial_upper_limit, max_removals
from .data import (Instance, estimate_moments, instance_from_dict,
                   read_instance, read_price_csv, returns_from_prices,
                   write_instance)
from .errors import (CcsaaError, ConfigError, NoFeasibleBudget,
                     NumericalFailure, UnsupportedForMip, check_memory)
from .gaussian import draw_blocks, sample_scenarios, solve_gaussian_exact
from .heuristics import METHODS, AsmConfig, run_method
from .reports import STATUS_OK, STATUS_TIME_LIMIT
from .saa import ScenarioSet, count_violations, evaluate_outcomes

SWEEP_COLUMNS = ["w", "n_scenarios", "k", "runs", "objective_mean",
                 "wall_time_mean", "constraints_added_mean",
                 "test_violation_rate_mean"]

ALL_METHODS = METHODS + ("exact-mip", "socp")
# rows of a scenario file parsed at a time: small beside the array they fill
_CSV_ROWS = 512
TEST_SET_SIZE = 100_000     # rows of a test draw unless told otherwise


@dataclass
class ExperimentConfig:
    instance: Instance
    methods: list
    n_grid: list
    trials: int = 30
    base_seed: int = 1234
    time_limit: float = 3600.0
    test_set_size: int = TEST_SET_SIZE
    w: float = 0.5
    polish_iterations: int | None = None
    semicontinuous: bool = False
    jobs: int = 1

    def __post_init__(self):
        for name in ("trials", "jobs", "test_set_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not self.methods:
            raise ConfigError("methods must be non-empty")
        if any(n < 1 for n in self.n_grid):
            raise ConfigError("scenario counts must be positive")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ConfigError(f"unknown method {m!r}")
        _check_time_limit(self.time_limit)


def _check_time_limit(seconds):
    if not seconds >= 0:        # a NaN limit would never expire
        raise ConfigError(f"time limit must be >= 0 seconds, got {seconds}")


@dataclass
class TrialRow:
    """One method on one trial: a raw.csv row, and with x the JSON report
    that ``solve --out`` writes."""

    method: str
    n_scenarios: int
    k: int
    trial: int
    seed: int
    objective: float
    wall_time: float
    lp_solves: int
    mip_nodes: int
    train_violations: int
    test_violation_rate: float
    binomial_upper_limit: float
    status: str

    def as_list(self):
        return [getattr(self, c) for c in RAW_COLUMNS]


RAW_COLUMNS = [f.name for f in fields(TrialRow)]
# fields averaged per (method, N) in aggregate.csv, as <field>_mean
MEAN_FIELDS = ["objective", "wall_time", "lp_solves", "mip_nodes",
               "test_violation_rate", "binomial_upper_limit"]
AGG_COLUMNS = (["method", "n_scenarios", "k", "runs"]
               + [f"{c}_mean" for c in MEAN_FIELDS])


def scenario_seed(base_seed: int, trial: int) -> int:
    return base_seed + 1000 * trial


def test_seed(base_seed: int, trial: int) -> int:
    return base_seed + 1000 * trial + 500_000


def validate_solution(x, instance: Instance, test_set_size: int, seed: int,
                      beta: float | None = None):
    """Out-of-sample violation rate and its one-sided upper confidence limit,
    counted on a test draw streamed block by block: memory O(block)."""
    return _violation_rates([x], instance, test_set_size, beta, draw_blocks(
        instance.model, test_set_size, seed))[0]


def _violation_rates(xs, instance: Instance, size: int, beta, blocks):
    """Each x's violation rate on the ``size`` rows of ``blocks``, with its
    upper limit."""
    beta = instance.beta if beta is None else beta
    try:
        counts = count_violations(xs, blocks, instance.program_spec)
    except ValueError as e:    # a bad x, a non-finite draw, a size below 1
        raise ConfigError(f"validation refused: {e}") from None
    return [(c / size, binomial_upper_limit(c, size, 1.0 - beta))
            for c in counts]


def _trial_rows(methods, inst, scenarios, budget, trial, seed, cfg, semi,
                time_limit, test, eps=None):
    """The TrialRows and reports of ``methods`` on a training set, every x
    then counted in one pass over the streamed draw ``test`` = (size, seed).
    Two or more asm tags share one ASM-1 run; socp solves the Gaussian model
    at risk ``eps`` (None: k/N, or epsilon at k = 0) and counts training
    violations."""
    base = (run_method("asm1", scenarios, inst.program_spec, budget, cfg=cfg,
                       seed=seed, semi=semi, time_limit=time_limit)
            if sum(m.startswith("asm") for m in methods) > 1 else None)
    if eps is None:
        eps = budget.discard_fraction if budget.k_removals > 0 else inst.epsilon
    reps = []
    for method in methods:
        if method == "socp":
            rep = solve_gaussian_exact(inst.model, inst.alpha, eps, semi=semi,
                                       cash_index=inst.cash_index)
            rep.train_violations = evaluate_outcomes(
                rep.x, scenarios, inst.program_spec).violation_count
        else:
            rep = run_method(method, scenarios, inst.program_spec, budget,
                             cfg=cfg, seed=seed, semi=semi,
                             time_limit=time_limit, base=base)
        reps.append(rep)
    tested = _violation_rates([r.x for r in reps], inst, test[0], None,
                              draw_blocks(inst.model, *test))
    rows = [TrialRow(method, scenarios.n_scenarios, budget.k_removals, trial,
                     seed, rep.objective, rep.wall_time, rep.lp_solves,
                     rep.mip_nodes, rep.train_violations, rate, upper,
                     STATUS_TIME_LIMIT if time_limit is not None
                     and rep.wall_time > time_limit else rep.status)
            for method, rep, (rate, upper) in zip(methods, reps, tested)]
    return rows, reps


def _trial_worker(config: ExperimentConfig, N, budget, trial):
    """One (N, trial) work unit: sample once, run every method, validate."""
    inst = config.instance
    cfg = AsmConfig(w=config.w, polish_iterations=config.polish_iterations)
    semi = inst.semicontinuous if config.semicontinuous else None
    seed = scenario_seed(config.base_seed, trial)
    scenarios = sample_scenarios(inst.model, N, seed)
    test = (config.test_set_size, test_seed(config.base_seed, trial))
    return _trial_rows(config.methods, inst, scenarios, budget, trial, seed,
                       cfg, semi, config.time_limit, test)[0]


def run_experiment(config: ExperimentConfig):
    """All (method, N, trial) rows plus per-(method, N) aggregate rows."""
    inst = config.instance
    budgets = {N: max_removals(N, inst.risk_spec) for N in config.n_grid}
    units = [(config, N, budgets[N], trial)
             for N in config.n_grid for trial in range(config.trials)]
    # each worker holds one training draw; its test draw streams
    workers, N = min(config.jobs, len(units)), max(config.n_grid)
    check_memory(8 * workers * N * inst.n_assets,
                 f"{workers} concurrent draws of {N} scenarios")
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            batches = list(pool.map(_trial_worker, *zip(*units)))
    else:
        batches = [_trial_worker(*unit) for unit in units]
    rows = sorted((r for batch in batches for r in batch),
                  key=lambda r: (r.method, r.n_scenarios, r.trial))
    return rows, aggregate(rows)


def aggregate(rows):
    """Mean per (method, N) over rows that finished inside the limit."""
    groups = {}
    for r in rows:
        groups.setdefault((r.method, r.n_scenarios), []).append(r)
    out = []
    for (method, N), grp in sorted(groups.items()):
        ok = [r for r in grp if r.status == STATUS_OK]
        if not ok:
            continue
        out.append({
            "method": method, "n_scenarios": N, "k": ok[0].k, "runs": len(ok),
            **{f"{c}_mean": float(np.mean([getattr(r, c) for r in ok]))
               for c in MEAN_FIELDS}})
    return out


def sweep_w(config: ExperimentConfig, w_values):
    """Per-w aggregates of the plain active-set method."""
    out = []
    for w in w_values:
        if not 0.0 <= w <= 1.0:
            raise ConfigError(f"w must lie in [0,1], got {w}")
        _, aggs = run_experiment(replace(config, methods=["asm1"], w=w))
        by_n = {a["n_scenarios"]: a for a in aggs}
        for a in (by_n[N] for N in config.n_grid if N in by_n):
            out.append({
                "w": w, "constraints_added_mean": a["lp_solves_mean"] - 1,
                **{c: a[c] for c in ("n_scenarios", "k", "runs",
                                     "objective_mean", "wall_time_mean",
                                     "test_violation_rate_mean")}})
    return out


# ----------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------

def write_csv(path, columns, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            row = rec if isinstance(rec, list) else [rec[c] for c in columns]
            writer.writerow([_fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, float):
        return repr(float(v))
    return v


def write_plot_data(path, rows):
    """Tidy long-format CSV for external plotting."""
    metrics = ["objective", "wall_time", "lp_solves", "test_violation_rate"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "method", "n_scenarios", "trial", "value"])
        for r in rows:
            for m in metrics:
                writer.writerow([m, r.method, r.n_scenarios, r.trial,
                                 _fmt(float(getattr(r, m)))])


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=1234,
                        help="base seed for all sampling")
    common.add_argument("--jobs", type=int, default=1,
                        help="concurrent trial workers")
    common.add_argument("--time-limit", type=float, default=3600.0,
                        help="per-run solver time limit in seconds")

    p = argparse.ArgumentParser(prog="ccsaa",
                                description="chance-constrained scenario-program toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("budget", parents=[common],
                       help="certificate budget for one (N, eps, beta, n)")
    b.add_argument("--n-scenarios", type=int, required=True)
    b.add_argument("--epsilon", type=float, required=True)
    b.add_argument("--beta", type=float, required=True)
    b.add_argument("--n-dims", type=int, required=True)
    b.add_argument("--sum-limit", choices=["paper", "campi"], default="campi")

    s = sub.add_parser("sample", parents=[common],
                       help="sample a scenario CSV from an instance")
    s.add_argument("--instance", required=True)
    s.add_argument("--n-scenarios", type=int, required=True)
    s.add_argument("--out", required=True)

    i = sub.add_parser("ingest", parents=[common],
                       help="build an instance file from a price CSV")
    i.add_argument("--prices", required=True)
    i.add_argument("--lag", type=int, default=12)
    i.add_argument("--out", required=True)
    i.add_argument("--alpha", type=float, default=0.95)
    i.add_argument("--epsilon", type=float, default=0.05)
    i.add_argument("--beta", type=float, default=5e-6)
    i.add_argument("--no-cash", action="store_true",
                   help="do not append a unit-return cash column")

    so = sub.add_parser("solve", parents=[common], help="run one method")
    so.add_argument("--instance", required=True)
    so.add_argument("--method", required=True, choices=ALL_METHODS)
    so.add_argument("--scenarios", help="scenario CSV (else sampled fresh)")
    so.add_argument("--n-scenarios", type=int, default=10_000)
    so.add_argument("--epsilon", type=float,
                    help="override risk level (socp baseline only)")
    so.add_argument("--w", type=float, default=0.5)
    so.add_argument("--polish-a", type=int, default=None)
    so.add_argument("--semicontinuous", action="store_true")
    so.add_argument("--out", help="write a JSON report here")

    v = sub.add_parser("validate", parents=[common],
                       help="out-of-sample check of a saved solution")
    v.add_argument("--report", required=True,
                   help="JSON report from solve, or a JSON list holding x")
    v.add_argument("--instance", required=True)
    v.add_argument("--scenarios",
                   help="use this scenario CSV as the test set instead of sampling")
    v.add_argument("--test-size", type=int, default=TEST_SET_SIZE)
    v.add_argument("--beta", type=float, default=None)

    e = sub.add_parser("experiment", parents=[common],
                       help="full multi-method trial campaign")
    e.add_argument("--instance", required=True)
    e.add_argument("--methods", default=",".join(METHODS))
    e.add_argument("--n-grid", default="1000,10000")
    e.add_argument("--trials", type=int, default=30)
    e.add_argument("--test-size", type=int, default=TEST_SET_SIZE)
    e.add_argument("--w", type=float, default=0.5)
    e.add_argument("--polish-a", type=int, default=None)
    e.add_argument("--semicontinuous", action="store_true")
    e.add_argument("--plot-data", action="store_true")
    e.add_argument("--out-dir", required=True)

    w = sub.add_parser("sweep-w", parents=[common],
                       help="active-set selection-weight sweep")
    w.add_argument("--instance", required=True)
    w.add_argument("--w-list", default="0.01,0.5,1.0")
    w.add_argument("--n-grid", default="10000")
    w.add_argument("--trials", type=int, default=30)
    w.add_argument("--test-size", type=int, default=TEST_SET_SIZE)
    w.add_argument("--out-dir", required=True)
    return p


def _cmd_budget(args):
    spec = RiskSpec(args.epsilon, args.beta, args.n_dims)
    budget = max_removals(args.n_scenarios, spec, sum_limit=args.sum_limit)
    print(f"{budget.k_removals},{float(budget.beta_achieved)!r},"
          f"{float(budget.discard_fraction)!r}")
    return 0


def _cmd_sample(args):
    inst = read_instance(args.instance)
    sc = sample_scenarios(inst.model, args.n_scenarios, args.seed)
    # 17 significant digits read back to the same doubles
    np.savetxt(args.out, sc.returns, fmt="%.17g", delimiter=",", comments="",
               header=",".join(f"a{j + 1}" for j in range(sc.n_assets)))
    print(f"wrote {sc.n_scenarios} scenarios to {args.out}")
    return 0


def read_scenario_csv(path) -> ScenarioSet:
    """A scenario file with an a1,...,an header: its rows are counted, then
    read _CSV_ROWS at a time straight into one column-major array."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("a"):
            raise ConfigError(f"{path}: expected header a1,...,an")
        body = fh.tell()
        # loadtxt's rows: lines with anything before a comment
        n_rows = sum(1 for line in fh if line.partition("#")[0].rstrip("\n"))
        fh.seek(body)
        returns = np.empty((header.count(",") + 1, n_rows)).T
        try:
            with warnings.catch_warnings():
                # numpy warns of each blank line
                warnings.filterwarnings("ignore", "Input line", UserWarning)
                for lo in range(0, n_rows, _CSV_ROWS):
                    chunk = np.loadtxt(fh, delimiter=",", ndmin=2,
                                       max_rows=_CSV_ROWS)
                    if chunk.shape != returns[lo:lo + _CSV_ROWS].shape:
                        raise ValueError(
                            f"rows {lo + 1}.. have {chunk.shape[1]} columns, "
                            f"not the header's {returns.shape[1]}")
                    returns[lo:lo + _CSV_ROWS] = chunk
            # an empty body is refused here
            return ScenarioSet(returns, provenance=f"file({path})")
        except ValueError as e:
            raise ConfigError(f"{path}: {e}") from None


def _cmd_ingest(args):
    panel = read_price_csv(args.prices)
    returns = returns_from_prices(panel, lag_months=args.lag)
    mean, cov = estimate_moments(returns)
    names = list(panel.names)
    cash_index = None
    if not args.no_cash:
        n = mean.size
        mean = np.append(mean, 1.0)
        grown = np.zeros((n + 1, n + 1))
        grown[:n, :n] = cov
        cov = grown
        names.append("CASH")
        cash_index = n
    inst = instance_from_dict({
        "names": names, "mean": mean.tolist(), "covariance": cov.tolist(),
        "alpha": args.alpha, "epsilon": args.epsilon, "beta": args.beta,
        "cash_index": cash_index,
    })
    write_instance(args.out, inst)
    print(f"wrote instance with {inst.n_assets} assets to {args.out}")
    return 0


def _cmd_solve(args):
    _check_time_limit(args.time_limit)
    inst = read_instance(args.instance)
    if args.scenarios:
        scenarios = read_scenario_csv(args.scenarios)
        if scenarios.n_assets != inst.n_assets:
            raise ConfigError("scenario file does not match the instance")
    else:
        scenarios = sample_scenarios(inst.model, args.n_scenarios, args.seed)
    budget = max_removals(scenarios.n_scenarios, inst.risk_spec)
    cfg = AsmConfig(w=args.w, polish_iterations=args.polish_a)
    semi = inst.semicontinuous if args.semicontinuous else None
    # trial 0 of the experiment protocol: its training seed is --seed
    test = (TEST_SET_SIZE, test_seed(args.seed, 0))
    [row], [rep] = _trial_rows([args.method], inst, scenarios, budget, 0,
                               args.seed, cfg, semi, args.time_limit, test,
                               eps=args.epsilon)
    print(f"method={row.method} N={row.n_scenarios} k={row.k} "
          f"objective={row.objective:.6f} solves={row.lp_solves} "
          f"nodes={row.mip_nodes} train_violations={row.train_violations} "
          f"test_rate={row.test_violation_rate:.5f} "
          f"upper={row.binomial_upper_limit:.5f} status={row.status}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({**asdict(row), "x": [float(v) for v in rep.x]}, fh,
                      indent=1)
            fh.write("\n")
    return 3 if row.status == STATUS_TIME_LIMIT else 0


def _cmd_validate(args):
    inst = read_instance(args.instance)
    with open(args.report) as fh:
        raw = json.load(fh)
    x = np.asarray(raw["x"] if isinstance(raw, dict) else raw, dtype=float)
    if args.scenarios:
        test = read_scenario_csv(args.scenarios)
        if test.n_assets != inst.n_assets:
            raise ConfigError("scenario file does not match the instance")
        [(rate, upper)] = _violation_rates([x], inst, test.n_scenarios,
                                           args.beta, [test.returns])
    else:
        rate, upper = validate_solution(x, inst, args.test_size, args.seed,
                                        beta=args.beta)
    print(f"{float(rate)!r},{float(upper)!r}")
    return 0


def _cmd_experiment(args):
    inst = read_instance(args.instance)
    config = ExperimentConfig(
        instance=inst,
        methods=[m.strip() for m in args.methods.split(",") if m.strip()],
        n_grid=[int(v) for v in args.n_grid.split(",")],
        trials=args.trials, base_seed=args.seed, time_limit=args.time_limit,
        test_set_size=args.test_size, w=args.w,
        polish_iterations=args.polish_a,
        semicontinuous=args.semicontinuous, jobs=args.jobs)
    rows, aggs = run_experiment(config)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "raw.csv", RAW_COLUMNS, [r.as_list() for r in rows])
    write_csv(outdir / "aggregate.csv", AGG_COLUMNS, aggs)
    if args.plot_data:
        write_plot_data(outdir / "plot_long.csv", rows)
    limited = sum(r.status == STATUS_TIME_LIMIT for r in rows)
    print(f"wrote {len(rows)} rows ({limited} over the time limit) to {outdir}")
    return 3 if limited else 0


def _cmd_sweep_w(args):
    inst = read_instance(args.instance)
    config = ExperimentConfig(
        instance=inst, methods=["asm1"],
        n_grid=[int(v) for v in args.n_grid.split(",")],
        trials=args.trials, base_seed=args.seed, time_limit=args.time_limit,
        test_set_size=args.test_size, jobs=args.jobs)
    w_values = [float(v) for v in args.w_list.split(",")]
    records = sweep_w(config, w_values)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "sweep_w.csv", SWEEP_COLUMNS, records)
    print(f"wrote {len(records)} sweep rows to {outdir}")
    return 0


_COMMANDS = {
    "budget": _cmd_budget,
    "sample": _cmd_sample,
    "ingest": _cmd_ingest,
    "solve": _cmd_solve,
    "validate": _cmd_validate,
    "experiment": _cmd_experiment,
    "sweep-w": _cmd_sweep_w,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, FileNotFoundError, KeyError, NoFeasibleBudget,
            ValueError, UnsupportedForMip) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    except CcsaaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
