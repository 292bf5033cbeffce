"""Per-layer tracing of ccsaa from outside the library.

``Tracer.install`` rebinds a fixed list of public ccsaa functions and methods
(every module-level name that refers to them, and the class attributes) to
timing wrappers, and ``uninstall`` puts the originals back.  Nothing inside
the library changes.  Each wrapper opens a span; a span's self time is its
duration minus the time its child spans cover, so the self times of all
layers add up to the traced wall time without double counting.  The
tracer's own bookkeeping after a call (counting, masks) is charged to no
layer.

Spans and counters stay in memory; ``metrics`` turns them into the
per-layer figures named in ``PER_LAYER`` once the run is over.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# Metric name -> unit, in the order the runner prints them.
PER_LAYER = {
    "gaussian.sample_s": "s",
    "gaussian.sample_rows": "count",
    "certificate.budget_s": "s",
    "data.read_instance_s": "s",
    "saa.build_s": "s",
    "saa.evaluate_s": "s",
    "saa.evaluate_calls": "count",
    "saa.evaluate_rows": "count",
    "saa.rank_s": "s",
    "saa.rank_calls": "count",
    "saa.status_change_frac": "ratio",
    "lp.solve_s": "s",
    "lp.solves": "count",
    "lp.pivots": "count",
    "lp.pivot_us": "us",
    "lp.row_edit_s": "s",
    "lp.row_adds": "count",
    "lp.row_removes": "count",
    "lp.bound_edit_s": "s",
    "lp.bound_edits": "count",
    "heuristics.self_s": "s",
    "heuristics.grp_s": "s",
    "heuristics.fgrp_s": "s",
    "heuristics.rap_s": "s",
    "heuristics.asm1_s": "s",
    "heuristics.asm2_s": "s",
    "heuristics.asm3_s": "s",
    "heuristics.master_solves": "count",
    "heuristics.working_set_rows": "count",
    "heuristics.solve_yield": "ratio",
    "mip.build_s": "s",
    "mip.solve_s": "s",
    "mip.self_s": "s",
    "mip.nodes": "count",
    "mip.lp_solves": "count",
    "cli.validate_s": "s",
    "cli.validations": "count",
    "cli.test_rows_sampled": "count",
    "cli.distinct_test_set_frac": "ratio",
}

# Methods that start from every scenario row and drop rows; the others
# start from an empty working set and add rows.
_REMOVAL_METHODS = ("full", "grp", "rap", "fgrp")

# Layers whose row appends are part of building a model, not edits of a
# live one; ``add_row`` under these spans is charged to the build.
_BUILD_LAYERS = ("saa.build", "mip.build")


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.seconds = defaultdict(float)   # span self times, by layer key
        self.counts = defaultdict(float)
        self.test_sets = set()              # (size, seed) pairs validated
        self._stack = []                    # open spans: [layer, child seconds]
        self._previous_mask = None          # (scenarios, violated) in a solve
        self._in_solve = False
        self._restore = []

    # -- spans ------------------------------------------------------------
    def _wrap(self, fn, layer, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
            tracer.seconds[layer] += (t1 - t0) - frame[1]
            if after is not None:
                after(t1 - t0, args, kwargs, result)
            if tracer._stack:
                tracer._stack[-1][1] += time.perf_counter() - t0
            return result

        return traced

    def _row_edit(self, fn, counter):
        traced = self._wrap(fn, "lp.row_edit",
                            lambda *_: self._count(counter))

        @functools.wraps(fn)
        def edit(*args, **kwargs):
            if self._stack and self._stack[-1][0] in _BUILD_LAYERS:
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)

        return edit

    def _count(self, key, amount=1):
        self.counts[key] += amount

    # -- hooks run after a traced call returns --------------------------
    def _after_sample(self, _, args, kwargs, result):
        self._count("gaussian.sample_rows", result.n_scenarios)

    def _after_evaluate(self, _, args, kwargs, result):
        scenarios = self._bind("evaluate", args, kwargs)["scenarios"]
        self._count("saa.evaluate_calls")
        self._count("saa.evaluate_rows", scenarios.n_scenarios)
        if not self._in_solve:
            return
        violated = result.values > self._violation_tol
        previous = self._previous_mask
        if previous is not None and previous[0] is scenarios:
            self._count("saa.status_changes",
                        np.count_nonzero(violated != previous[1]))
            self._count("saa.status_compared", violated.size)
        self._previous_mask = (scenarios, violated)

    def _after_lp_solve(self, _, args, kwargs, result):
        self._count("lp.solves")
        self._count("lp.pivots", result.iterations)

    def _after_mip_solve(self, _, args, kwargs, result):
        self._count("mip.nodes", result.node_count)
        self._count("mip.lp_solves", result.lp_solves)

    def _after_validate(self, _, args, kwargs, result):
        bound = self._bind("validate", args, kwargs)
        size, seed = bound["test_set_size"], bound["seed"]
        self._count("cli.validations")
        self._count("cli.test_rows_sampled", size)
        self.test_sets.add((int(size), int(seed)))

    def _method_span(self, fn):
        traced = self._wrap(fn, "heuristics", self._after_method)

        @functools.wraps(fn)
        def method(*args, **kwargs):
            self._in_solve, self._previous_mask = True, None
            try:
                return traced(*args, **kwargs)
            finally:
                self._in_solve, self._previous_mask = False, None

        return method

    def _after_method(self, duration, args, kwargs, report):
        bound = self._bind("run_method", args, kwargs)
        name = bound["name"]
        n_rows = bound["scenarios"].n_scenarios
        kept = len(report.working_set)
        if name in _REMOVAL_METHODS:
            kept = n_rows - kept
        self.seconds[f"heuristics.{name}.inclusive"] += duration
        self._count("heuristics.master_solves", report.lp_solves)
        self._count("heuristics.working_set_rows", len(report.working_set))
        self._count("heuristics.edits_kept", kept)

    def _mip_solve_span(self, fn):
        def after(duration, args, kwargs, result):
            self.seconds["mip.solve.inclusive"] += duration
            self._after_mip_solve(duration, args, kwargs, result)
        return self._wrap(fn, "mip.solve", after)

    # -- installation -----------------------------------------------------
    def install(self, ccsaa):
        """Rebind the traced ccsaa entry points to their wrappers."""
        gaussian, certificate, data = ccsaa.gaussian, ccsaa.certificate, ccsaa.data
        saa, lp, heuristics, mip, cli = (ccsaa.saa, ccsaa.lp, ccsaa.heuristics,
                                         ccsaa.mip, ccsaa.cli)
        self._violation_tol = saa.VIOLATION_TOL
        self._signatures = {
            "evaluate": inspect.signature(saa.evaluate_outcomes),
            "validate": inspect.signature(cli.validate_solution),
            "run_method": inspect.signature(heuristics.run_method)}
        functions = [
            (gaussian.sample_scenarios,
             self._wrap(gaussian.sample_scenarios, "gaussian.sample",
                        self._after_sample)),
            (certificate.max_removals,
             self._wrap(certificate.max_removals, "certificate.budget")),
            (data.read_instance,
             self._wrap(data.read_instance, "data.read_instance")),
            (saa.build_saa_lp, self._wrap(saa.build_saa_lp, "saa.build")),
            (saa.evaluate_outcomes,
             self._wrap(saa.evaluate_outcomes, "saa.evaluate",
                        self._after_evaluate)),
            (lp.lp_solve, self._wrap(lp.lp_solve, "lp.solve",
                                     self._after_lp_solve)),
            (heuristics.run_method, self._method_span(heuristics.run_method)),
            (mip.build_saa_bigm, self._wrap(mip.build_saa_bigm, "mip.build")),
            (mip.apply_semicontinuous,
             self._wrap(mip.apply_semicontinuous, "mip.build")),
            (mip.mip_solve, self._mip_solve_span(mip.mip_solve)),
            (cli.validate_solution,
             self._wrap(cli.validate_solution, "cli.validate",
                        self._after_validate)),
        ]
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ccsaa" or name.startswith("ccsaa."))]
        for original, wrapper in functions:
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, value))
                        setattr(module, name, wrapper)

        outcome = saa.OutcomeVector
        ranked = outcome.ranked
        self._set(outcome, "ranked",
                  property(self._wrap(ranked.fget, "saa.rank",
                                      lambda *_: self._count("saa.rank_calls"))))
        self._set(outcome, "kth_ranked",
                  self._wrap(outcome.kth_ranked, "saa.rank",
                             lambda *_: self._count("saa.rank_calls")))
        model = lp.LpModel
        self._set(model, "add_row", self._row_edit(model.add_row, "lp.row_adds"))
        self._set(model, "remove_row",
                  self._row_edit(model.remove_row, "lp.row_removes"))
        self._set(model, "set_bounds",
                  self._wrap(model.set_bounds, "lp.bound_edit",
                             lambda *_: self._count("lp.bound_edits")))

    def _bind(self, function, args, kwargs):
        """Arguments of a traced call by parameter name."""
        return self._signatures[function].bind(*args, **kwargs).arguments

    def _set(self, owner, name, value):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------
    def snapshot(self):
        """Copy of the raw totals, for splitting a run into phases."""
        return dict(self.seconds), dict(self.counts), len(self.test_sets)

    def metrics(self, seconds=None, counts=None, distinct_test_sets=None):
        """Per-layer figures from raw totals (default: this tracer's own)."""
        s = self.seconds if seconds is None else defaultdict(float, seconds)
        c = self.counts if counts is None else defaultdict(float, counts)
        distinct = (len(self.test_sets) if distinct_test_sets is None
                    else distinct_test_sets)
        out = {
            "gaussian.sample_s": s["gaussian.sample"],
            "gaussian.sample_rows": c["gaussian.sample_rows"],
            "certificate.budget_s": s["certificate.budget"],
            "data.read_instance_s": s["data.read_instance"],
            "saa.build_s": s["saa.build"],
            "saa.evaluate_s": s["saa.evaluate"],
            "saa.evaluate_calls": c["saa.evaluate_calls"],
            "saa.evaluate_rows": c["saa.evaluate_rows"],
            "saa.rank_s": s["saa.rank"],
            "saa.rank_calls": c["saa.rank_calls"],
            "saa.status_change_frac": _ratio(c["saa.status_changes"],
                                             c["saa.status_compared"]),
            "lp.solve_s": s["lp.solve"],
            "lp.solves": c["lp.solves"],
            "lp.pivots": c["lp.pivots"],
            "lp.pivot_us": 1e6 * _ratio(s["lp.solve"], c["lp.pivots"]),
            "lp.row_edit_s": s["lp.row_edit"],
            "lp.row_adds": c["lp.row_adds"],
            "lp.row_removes": c["lp.row_removes"],
            "lp.bound_edit_s": s["lp.bound_edit"],
            "lp.bound_edits": c["lp.bound_edits"],
            "heuristics.self_s": s["heuristics"],
            "heuristics.master_solves": c["heuristics.master_solves"],
            "heuristics.working_set_rows": c["heuristics.working_set_rows"],
            "heuristics.solve_yield": _ratio(c["heuristics.edits_kept"],
                                             c["heuristics.master_solves"]),
            "mip.build_s": s["mip.build"],
            "mip.solve_s": s["mip.solve.inclusive"],
            "mip.self_s": s["mip.solve"],
            "mip.nodes": c["mip.nodes"],
            "mip.lp_solves": c["mip.lp_solves"],
            "cli.validate_s": s["cli.validate"],
            "cli.validations": c["cli.validations"],
            "cli.test_rows_sampled": c["cli.test_rows_sampled"],
            "cli.distinct_test_set_frac": _ratio(distinct, c["cli.validations"]),
        }
        for method in ("grp", "fgrp", "rap", "asm1", "asm2", "asm3"):
            out[f"heuristics.{method}_s"] = s[f"heuristics.{method}.inclusive"]
        return {name: float(out[name]) for name in PER_LAYER}


def _ratio(num, den):
    return num / den if den else 0.0

