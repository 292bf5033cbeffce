"""Dense bounded-variable linear programming with warm starts and exact duals.

Purpose-built for scenario programs: many inequality rows over a small block
of structural columns.  Any basis of such a program contains at most n
structural columns, so the active factorization -- the "kernel" of tight rows
against basic columns -- never exceeds n x n, and search directions and duals
are dense solves against it.  The tight rows ``A[S]`` are taken once per
change of S: pricing, the dual's pivot row, the kernel and the re-derivation
of x all read that take.  The row slacks ``rhs - A x`` are cached and read
only the columns where x is nonzero when those are few (``support_product``);
the cache lives until x moves, an added row appends its own slacks, and a
released row with a basic slack changes no other, so single-row edits (the
dominant workload of discard heuristics) stay nearly free.  Callers keep
models small: the heuristics' masters hold only the scenario rows that bind
or were violated (``heuristics._Master``).

Conventions: problems MAXIMIZE ``objective . x`` subject to column bounds and
rows ``a . x (<=|>=|=) b``.  Row duals are shadow prices dObj/dRHS, so
``<=`` rows carry duals >= 0 and ``>=`` rows duals <= 0 at an optimum.

Every simplex variable has one index: column j is ``j``, the slack ``rhs -
a . x`` of row slot r is ``n + r``.  Ties go to the least index, among
entering candidates of equal score and among leaving ones within ``_TIE`` of
the least step.  The dual's leaving variable is the first most violated one,
basic slacks listed before columns (a slack wins an exact tie), or under
Bland's rule the least violated index.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure

# Row relations
LE, GE, EQ = 0, 1, 2
_REL_CODES = {"<=": LE, "<": LE, ">=": GE, ">": GE, "=": EQ, "==": EQ,
              LE: LE, GE: GE, EQ: EQ}
_REL_TEXT = {LE: "<=", GE: ">=", EQ: "="}
# slack s = rhs - a.x must lie in these limits for each relation
_SLACK_LIMS = {LE: (0.0, np.inf), GE: (-np.inf, 0.0), EQ: (0.0, 0.0)}

# Variable / slack status markers
BASIC, AT_LOWER, AT_UPPER, NB_FREE = 0, 1, 2, 3

# Solution statuses
OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"

TOL_FEAS = 1e-9
TOL_DUAL = 1e-9
TOL_PIVOT = 1e-10
_TIE = 1e-12
_MAX_PIVOTS = 200_000
# Doubles per 64-byte cache line: a gather of one column of a row-major
# matrix reads as many lines as a product over _LINE columns.
_LINE = 8

log = logging.getLogger("ccsaa")


class _KernelSingular(Exception):
    pass


def support_product(A, x):
    """``A @ x`` for a row-major A, over x's support if it is 1/_LINE or less."""
    support = np.flatnonzero(x)
    if 0 < _LINE * support.size <= x.size:
        return A[:, support] @ x[support]
    return A @ x


def _improving(status, d, tol):
    """Direction (+1, -1, or 0 for none) in which each nonbasic variable may
    leave its ``status`` to raise, by more than ``tol`` per unit, a quantity
    that rises at rate ``d`` per unit increase of the variable."""
    up = ((status == AT_LOWER) | (status == NB_FREE)) & (d > tol)
    down = ((status == AT_UPPER) | (status == NB_FREE)) & (d < -tol)
    return up.astype(float) - down


def _lexmin(score, vindex, ok, bland):
    """Position of the least (score, vindex) among the candidates flagged
    ``ok``, or of the least vindex under Bland's rule; None if none."""
    idx = np.flatnonzero(ok)
    if idx.size == 0:
        return None
    if bland:
        return int(idx[np.argmin(vindex[idx])])
    return int(idx[np.lexsort((vindex[idx], score[idx]))[0]])


@dataclass
class Basis:
    """Warm-start token: status markers for columns and row slacks.

    ``row_ids`` ascend strictly (``snapshot_basis`` lists the alive slots in
    slot order); ``load_basis`` looks rows up in it by binary search.
    """

    col_status: np.ndarray          # int8, one per structural column
    row_ids: np.ndarray             # row ids the snapshot knows about
    row_status: np.ndarray          # int8 aligned with row_ids

    @property
    def n_basic(self) -> int:
        return int((self.col_status == BASIC).sum()
                   + (self.row_status == BASIC).sum())


@dataclass
class SolveStats:
    """Work and silent recoveries, summed over a model's solves."""

    solves: int = 0
    pivots: int = 0
    seconds: float = 0.0
    cold_resets: int = 0        # singular kernel -> cold restart
    detach_failures: int = 0    # row release failed -> next solve starts cold
    bland_switches: int = 0     # a phase came back to a basis -> Bland's rule
    repairs: int = 0            # optimum drifted out of feasibility -> re-run


@dataclass
class LpSolution:
    status: str
    x: np.ndarray
    objective_value: float
    basis: Basis
    iterations: int
    _row_ids: np.ndarray = field(repr=False, default=None)
    _duals: np.ndarray = field(repr=False, default=None)
    _model: "LpModel" = field(repr=False, default=None)

    def dual(self, row_id: int) -> float:
        return float(self._duals[self._locate(row_id)])

    def slack(self, row_id: int) -> float:
        self._locate(row_id)
        return float(self.slacks_for([row_id])[0])

    def duals_for(self, row_ids) -> np.ndarray:
        return self._duals[np.searchsorted(self._row_ids, row_ids)]

    def slacks_for(self, row_ids) -> np.ndarray:
        """rhs - a.x at this solution's x, computed on demand (rows are never
        edited, and columns added later have zero coefficients in them)."""
        ids = np.asarray(row_ids, dtype=np.intp)
        m = self._model
        return m._rhs[ids] - m._A[ids, : self.x.size] @ self.x

    def _locate(self, row_id):
        idx = int(np.searchsorted(self._row_ids, row_id))
        if idx >= len(self._row_ids) or self._row_ids[idx] != row_id:
            raise KeyError(f"unknown row id {row_id}")
        return idx


class LpModel:
    """Mutable LP over a fixed column block and an editable set of rows.

    A row's id is its only identity: assigned on ``add_row``/``add_rows``,
    never reused, and unaffected by the removal of other rows.
    """

    def __init__(self, objective, lower=None, upper=None):
        c = np.asarray(objective, dtype=float).ravel()
        if c.size == 0 or not np.all(np.isfinite(c)):
            raise ValueError("objective must be a non-empty finite vector")
        n = c.size
        self.obj = c.copy()
        self.lb = np.zeros(n) if lower is None else np.asarray(lower, float).copy()
        self.ub = np.full(n, np.inf) if upper is None else np.asarray(upper, float).copy()
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise ValueError("bounds must match the objective dimension")
        if np.any(self.lb > self.ub):
            raise ValueError("lower bound exceeds upper bound")
        cap = 16
        self._A = np.zeros((cap, n))
        self._rhs = np.zeros(cap)
        self._rel = np.zeros(cap, dtype=np.int8)
        self._slo, self._shi = np.zeros(cap), np.zeros(cap)   # fixed by _rel
        self._alive = np.zeros(cap, dtype=bool)
        self._n_slots = 0
        self.stats = SolveStats()
        self._engine = None

    # ------------------------------------------------------------------
    @property
    def n_cols(self) -> int:
        return self.obj.size

    @property
    def n_rows(self) -> int:
        return int(self._alive[: self._n_slots].sum())

    def row_ids(self) -> np.ndarray:
        return np.flatnonzero(self._alive[: self._n_slots])

    def row(self, row_id: int):
        self._check_row(row_id)
        return (self._A[row_id].copy(), _REL_TEXT[int(self._rel[row_id])],
                float(self._rhs[row_id]))

    def _check_row(self, row_id):
        if not (0 <= row_id < self._n_slots and self._alive[row_id]):
            raise KeyError(f"unknown row id {row_id}")

    # ------------------------------------------------------------------
    def add_row(self, coeffs, rel, rhs) -> int:
        return int(self.add_rows(np.reshape(coeffs, (1, -1)), rel, (rhs,))[0])

    def add_rows(self, coeffs, rel, rhs) -> np.ndarray:
        """Bulk append of rows sharing one relation; returns their ids."""
        A = np.asarray(coeffs, dtype=float)
        b = np.asarray(rhs, dtype=float).ravel()
        if A.ndim != 2 or A.shape != (b.size, self.n_cols):
            raise ValueError(f"rows have shape {A.shape} and {b.size} rhs, "
                             f"expected {self.n_cols} columns and one rhs each")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("row coefficients and rhs must be finite")
        code = _REL_CODES.get(rel)
        if code is None:
            raise ValueError(f"unknown relation {rel!r}")
        first = self._n_slots
        need = first + b.size
        if need > self._A.shape[0]:
            self._grow(max(need, 2 * self._A.shape[0]))
        self._A[first:need] = A
        self._rhs[first:need] = b
        self._rel[first:need] = code
        self._slo[first:need], self._shi[first:need] = _SLACK_LIMS[code]
        self._alive[first:need] = True
        self._n_slots = need
        eng = self._engine
        if eng is not None:
            # new rows enter with basic slacks, appended to a kept cache
            eng._sync_slack_capacity()
            eng.ss[first:need] = BASIC
            if eng._s is not None:
                eng._s = np.concatenate([eng._s, b - support_product(A, eng.x)])
        return np.arange(first, need)

    def remove_row(self, row_id) -> None:
        self._check_row(row_id)
        if self._engine is not None:
            self._engine.detach_row(row_id)
        self._alive[row_id] = False

    def add_columns(self, objective, lower, upper) -> list:
        """Append structural columns (zero coefficients in existing rows)."""
        c = np.atleast_1d(np.asarray(objective, dtype=float))
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        hi = np.atleast_1d(np.asarray(upper, dtype=float))
        if not (c.shape == lo.shape == hi.shape):
            raise ValueError("objective and bounds must have equal length")
        first = self.n_cols
        self.obj = np.concatenate([self.obj, c])
        self.lb = np.concatenate([self.lb, lo])
        self.ub = np.concatenate([self.ub, hi])
        self._A = np.hstack([self._A, np.zeros((self._A.shape[0], c.size))])
        self._engine = None
        return list(range(first, self.n_cols))

    def set_bounds(self, col, lower, upper) -> None:
        """Set the bounds of one column, or of an array of distinct columns
        with bound arrays of the same length.

        Raises ValueError, writing nothing, when any lower bound exceeds its
        upper bound.  The iterate is re-derived once per call, so patching
        every binary of a branch-and-bound node costs one kernel solve.
        """
        lower = np.broadcast_to(lower, np.shape(col))
        upper = np.broadcast_to(upper, np.shape(col))
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        self.lb[col] = lower
        self.ub[col] = upper
        if self._engine is not None:
            self._engine.bounds_changed(col)

    def _grow(self, cap):
        n = self.n_cols
        grow = cap - self._A.shape[0]
        self._A = np.vstack([self._A, np.zeros((grow, n))])
        self._rhs = np.concatenate([self._rhs, np.zeros(grow)])
        self._rel = np.concatenate([self._rel, np.zeros(grow, dtype=np.int8)])
        self._slo = np.concatenate([self._slo, np.zeros(grow)])
        self._shi = np.concatenate([self._shi, np.zeros(grow)])
        self._alive = np.concatenate([self._alive, np.zeros(grow, dtype=bool)])

    # ------------------------------------------------------------------
    def dump(self) -> str:
        """Plain-text listing of the model for triage."""
        lines = ["maximize",
                 "  " + " + ".join(f"{c:g} x{j}" for j, c in enumerate(self.obj)),
                 "subject to"]
        for rid in self.row_ids():
            a, rel, b = self.row(rid)
            body = " + ".join(f"{v:g} x{j}" for j, v in enumerate(a) if v != 0.0)
            lines.append(f"  [r{rid}] {body} {rel} {b:g}")
        lines.append("bounds")
        for j in range(self.n_cols):
            lines.append(f"  {self.lb[j]:g} <= x{j} <= {self.ub[j]:g}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

class _Engine:
    """Simplex state for one LpModel: statuses, kernel index sets, iterate.
    While ``valid``, x is the basic solution of the statuses, (S, T) and the
    bounds (every edit of them re-derives it), so a solve starts from x as it
    is; ``_s`` is None or the slacks ``rhs - A x`` of every slot."""

    def __init__(self, model: LpModel):
        self.m = model
        n = model.n_cols
        self.cs = np.full(n, AT_LOWER, dtype=np.int8)
        self.ss = np.zeros(model._A.shape[0], dtype=np.int8)
        self.S: list = []           # row slots whose slack is nonbasic (tight)
        self.T: list = []           # basic structural columns
        self.x = np.zeros(n)
        self._s = None              # cached slack values over all slots
        self._AS = self._AS_key = None  # cached tight rows A[S], and its S
        self._y = self._y_key = None    # cached objective duals, and their (S, T)
        self.valid = False

    # -- construction / loading ---------------------------------------
    def cold_reset(self):
        self.cs = self._rest_status(slice(None), AT_LOWER)
        self._sync_slack_capacity()
        self.ss[:] = BASIC
        self.S = []
        self.T = []
        self._set_nonbasic_values()
        self.valid = True

    def load_basis(self, basis: Basis):
        m = self.m
        n = m.n_cols
        self._sync_slack_capacity()
        cs = np.full(n, AT_LOWER, dtype=np.int8)
        k = min(n, basis.col_status.size)
        cs[:k] = basis.col_status[:k]
        # the snapshot's bounds may differ: nonbasic columns rest at finite ones
        self.cs = cs = self._rest_status(slice(None), cs)
        self.ss[:] = BASIC
        # alive rows the snapshot lists as tight; rows it misses stay basic
        alive, ids = m.row_ids(), basis.row_ids
        pos = np.searchsorted(ids, alive)
        listed = pos < ids.size
        listed[listed] = ids[pos[listed]] == alive[listed]
        tight = alive[listed][basis.row_status[pos[listed]] != BASIC]
        self.ss[tight] = self._nb_slack_status(tight)
        self.S = tight.tolist()
        self.T = np.flatnonzero(cs == BASIC).tolist()
        self._repair_counts()
        self._set_nonbasic_values()
        try:
            self._recompute_x()
        except _KernelSingular:
            self._recover_cold("loading a basis")
        self.valid = True

    def _recover_cold(self, during):
        self.m.stats.cold_resets += 1
        log.debug("singular kernel while %s: cold reset", during)
        self.cold_reset()

    def _nb_slack_status(self, slots):
        return np.where(self.m._rel[slots] == GE, AT_UPPER, AT_LOWER)

    def _sync_slack_capacity(self):
        cap = self.m._A.shape[0]
        if self.ss.size < cap:
            self.ss = np.concatenate(
                [self.ss, np.zeros(cap - self.ss.size, dtype=np.int8)])

    def _repair_counts(self):
        # A valid basis pairs tight rows with basic columns one-to-one: the
        # surplus at the end of T rests at its nearer bound, that of S turns basic.
        k = min(len(self.S), len(self.T))
        j = np.asarray(self.T[k:], dtype=np.intp)
        xj, m = self.x[j], self.m
        self.cs[j] = self._rest_status(j, np.where(
            np.abs(xj - m.lb[j]) > np.abs(xj - m.ub[j]), AT_UPPER, AT_LOWER))
        self.ss[self.S[k:]] = BASIC
        del self.S[k:], self.T[k:]

    def _rest_status(self, cols, st):
        """Statuses ``st`` of ``cols`` with the nonbasic ones at rest: at the
        upper bound where ``st`` is AT_UPPER and that bound is finite, else
        at a finite lower bound, else at a finite upper one, else free at 0."""
        lo, hi = np.isfinite(self.m.lb[cols]), np.isfinite(self.m.ub[cols])
        return np.where(st == BASIC, BASIC, np.where(
            hi & ((st == AT_UPPER) | ~lo), AT_UPPER,
            np.where(lo, AT_LOWER, NB_FREE))).astype(np.int8)

    # -- incremental edits ---------------------------------------------
    def detach_row(self, slot):
        """Release one row ahead of its removal, keeping the point feasible.

        A non-binding row (basic slack) simply drops out.  A binding row is
        released by pivoting its slack into the basis along the objective-
        improving direction -- the textbook constraint-relaxation step -- so
        the iterate stays primal feasible and re-optimization stays warm.
        """
        if not self.valid or self.ss[slot] == BASIC:
            return      # no other slack changes
        try:
            d = -self._duals_kernel(self.m.obj)[self.S.index(slot)]
            self._begin("release")
            for sigma in ((1.0, -1.0) if abs(d) <= TOL_DUAL
                          else ((1.0,) if d > 0 else (-1.0,))):
                if self._primal_step(self.m.n_cols + slot, sigma):
                    return
        except (_KernelSingular, np.linalg.LinAlgError):
            pass
        self.valid = False
        self.m.stats.detach_failures += 1
        log.debug("releasing row %d failed: the next solve starts cold", slot)

    def bounds_changed(self, col):
        """Follow bound edits on one column or an array of columns.

        Only nonbasic values enter x, and the kernel A[S, T] does not depend
        on bounds, so one recompute after a batch gives the x of one
        recompute per edited column.
        """
        if not self.valid:
            return
        self.cs[col] = new = self._rest_status(col, self.cs[col])
        if np.any(new != BASIC):
            self._set_nonbasic_values()
            try:
                self._recompute_x()
            except _KernelSingular:
                self.valid = False

    # -- kernel algebra -------------------------------------------------
    def _tight_rows(self):
        # rows are never edited once added, so A[S] changes only with S
        key = tuple(self.S)
        if key != self._AS_key:
            self._AS, self._AS_key = self.m._A[self.S], key
        return self._AS

    def _ksolve(self, rhs, transpose=False):
        if not self.T:
            return np.zeros(0)
        K = self._tight_rows()[:, self.T]
        try:
            return np.linalg.solve(K.T if transpose else K, rhs)
        except np.linalg.LinAlgError:
            raise _KernelSingular from None

    def _duals_kernel(self, c):
        if c is not self.m.obj:
            return self._ksolve(c[self.T], transpose=True)
        # the objective's duals change only with the basis: solution(),
        # detach_row and a dual phase after dual_feasible reuse them
        key = (tuple(self.S), tuple(self.T))
        if key != self._y_key:
            self._y, self._y_key = self._ksolve(c[self.T], transpose=True), key
        return self._y

    def _set_nonbasic_values(self):
        m = self.m
        nb_lo = self.cs == AT_LOWER
        nb_hi = self.cs == AT_UPPER
        self.x[nb_lo] = m.lb[nb_lo]
        self.x[nb_hi] = m.ub[nb_hi]
        self.x[self.cs == NB_FREE] = 0.0
        self._s = None

    def _recompute_x(self):
        self._s = None
        if not self.T:
            return
        m = self.m
        xn = self.x.copy()
        xn[self.T] = 0.0
        r = m._rhs[self.S] - self._tight_rows() @ xn
        # Nonbasic slacks sit at zero, so tight rows read A x = rhs exactly.
        self.x[self.T] = self._ksolve(r)

    def _slack_values(self):
        if self._s is None:
            ns = self.m._n_slots
            self._s = self.m._rhs[:ns] - support_product(self.m._A[:ns], self.x)
        return self._s

    def _basic(self):
        """The basic variables -- slacks of alive rows by ascending slot, then
        the columns in T's order -- with their index, value and limits."""
        m, ns = self.m, self.m._n_slots
        slots = np.flatnonzero(m._alive[:ns] & (self.ss[:ns] == BASIC))
        T = np.asarray(self.T, dtype=np.intp)
        return (np.concatenate([m.n_cols + slots, T]),
                np.concatenate([self._slack_values()[slots], self.x[T]]),
                np.concatenate([m._slo[slots], m.lb[T]]),
                np.concatenate([m._shi[slots], m.ub[T]]))

    # -- pricing ---------------------------------------------------------
    def _nonbasic_candidates(self):
        """Nonbasic columns that can move and the positions in S of the
        tight non-equality rows, whose slacks can move; then the variable
        index (slacks after columns) and status of each, columns first."""
        m = self.m
        cols = np.flatnonzero((self.cs != BASIC) & (m.lb < m.ub))
        S = np.asarray(self.S, dtype=np.intp)
        pos = np.flatnonzero(m._rel[S] != EQ)
        vindex = np.concatenate([cols, m.n_cols + S[pos]])
        status = np.concatenate([self.cs[cols], self.ss[S[pos]]])
        return cols, pos, vindex, status

    def _reduced_costs(self, c, cols, pos):
        """Reduced costs of the candidate columns, then of the slacks."""
        y = self._duals_kernel(c)
        d_cols = c[cols]
        if self.S:
            d_cols = d_cols - (self._tight_rows().T @ y)[cols]
        return np.concatenate([d_cols, -y[pos]])

    def dual_feasible(self, c):
        cols, pos, _, status = self._nonbasic_candidates()
        try:
            d = self._reduced_costs(c, cols, pos)
        except _KernelSingular:
            return False
        return not _improving(status, d, TOL_DUAL).any()

    # -- ratio test and basis exchange ------------------------------------
    def _ratio(self, dx):
        """Ratio test over the basic variables along ``dx``: (theta, index,
        status) of the least step to a limit, the least variable index
        within _TIE of it and the limit it reaches, or (inf, -1, None)."""
        m = self.m
        vindex, value, lo, hi = self._basic()
        rate = np.concatenate([dx, -(m._A[: m._n_slots] @ dx)])[vindex]
        # the limit each variable heads for, and the room left before it
        down = rate < 0.0
        lim = np.where(down, lo, hi)
        room = np.maximum(np.where(down, value - lim, lim - value), 0.0)
        speed = np.abs(rate)
        thetas = np.divide(room, speed, out=np.full(vindex.size, np.inf),
                           where=(speed > TOL_PIVOT) & np.isfinite(lim))
        theta = thetas.min(initial=np.inf)
        if np.isinf(theta):
            return np.inf, -1, None
        near = np.flatnonzero(thetas <= theta + _TIE)
        at = near[np.argmin(vindex[near])]
        return theta, int(vindex[at]), AT_LOWER if down[at] else AT_UPPER

    def _direction(self, j, sigma):
        """Move of x per unit move of the nonbasic variable ``j`` in
        direction ``sigma``, the other tight rows held, and the length of its
        own box (inf for a slack: it leaves its finite limit outward)."""
        m, n = self.m, self.m.n_cols
        dx = np.zeros(n)
        if j < n:
            a, box = m._A[self.S, j], m.ub[j] - m.lb[j]
            dx[j] = sigma
        else:
            a, box = np.zeros(len(self.S)), np.inf
            a[self.S.index(j - n)] = 1.0
        dx[self.T] = sigma * (-self._ksolve(a))
        return dx, box

    def _primal_step(self, j, sigma):
        """Primal ratio test for a unit move of the entering variable ``j``;
        applies the winning pivot or bound flip.  False when the ray is
        unbounded."""
        dx, box = self._direction(j, sigma)
        theta, leave, status = self._ratio(dx)
        if np.isinf(theta) and np.isinf(box):
            return False
        if box < theta - _TIE:
            # entering column crosses its own box: bound flip, basis kept
            self.cs[j] = AT_UPPER if sigma > 0 else AT_LOWER
            self._set_nonbasic_values()
            self._recompute_x()
        else:
            self._exchange(leave, status, j)
        return True

    def _exchange(self, leave, status, enter):
        """Basis exchange of two variable indices: ``leave`` turns nonbasic
        (a column at ``status``, a slack at its row's limit) and ``enter``
        basic; then the nonbasic values are reset, x re-derived and the pivot
        counted.  A basis that comes back within a phase switches the phase
        to Bland's rule, under which the simplex cannot cycle."""
        self._seen.add(self._basis_key())
        n = self.m.n_cols
        if leave < n:
            self.T.remove(leave)
            self.cs[leave] = status
        else:
            self.ss[leave - n] = self._nb_slack_status(leave - n)
            self.S.append(leave - n)
        if enter < n:
            self.cs[enter] = BASIC
            self.T.append(enter)
        else:
            self.ss[enter - n] = BASIC
            self.S.remove(enter - n)
        self._set_nonbasic_values()
        self._recompute_x()
        self.m.stats.pivots += 1
        if not self._bland and self._basis_key() in self._seen:
            self._bland = True
            self.m.stats.bland_switches += 1
            log.debug("%s simplex came back to a basis: switching to Bland's rule",
                      self._phase)

    def _begin(self, phase):
        """Start a phase (or a row release) under the usual pivot rules."""
        self._phase, self._bland, self._seen = phase, False, set()

    def _basis_key(self):
        return tuple(sorted(self.S)), tuple(sorted(self.T))

    # -- primal simplex ----------------------------------------------------
    def primal(self, c):
        self._begin("primal")
        for _ in range(_MAX_PIVOTS):
            cols, pos, vindex, status = self._nonbasic_candidates()
            d = self._reduced_costs(c, cols, pos)
            sig = _improving(status, d, TOL_DUAL)
            # Dantzig's rule, lowest variable index on ties
            pick = _lexmin(-np.abs(d), vindex, sig != 0, self._bland)
            if pick is None:
                return OPTIMAL
            if not self._primal_step(int(vindex[pick]), float(sig[pick])):
                return UNBOUNDED
        raise NumericalFailure("primal simplex exceeded the pivot cap")

    # -- dual simplex -------------------------------------------------------
    def dual(self, c):
        m, n = self.m, self.m.n_cols
        self._begin("dual")
        for _ in range(_MAX_PIVOTS):
            basic, below, above = self._violations()
            viol = np.maximum(below, above)
            viol[viol < TOL_FEAS] = 0.0
            if not viol.any():
                return "feasible"
            # the first most violated variable (slacks are listed first), or
            # the least violated index under Bland's rule
            at = (_lexmin(viol, basic, viol > 0.0, True) if self._bland
                  else int(np.argmax(viol)))
            leave, need = int(basic[at]), +1 if below[at] >= above[at] else -1

            # pivot row of the leaving variable, which is sign * g.x plus a
            # constant: a slack is rhs - A[r].x, a column is e_j.x
            if leave < n:
                g, sign = np.zeros(n), 1.0
                g[leave] = 1.0
            else:
                g, sign = m._A[leave - n], -1.0
            w = self._ksolve(g[self.T], transpose=True)
            cols, pos, vindex, status = self._nonbasic_candidates()
            d = self._reduced_costs(c, cols, pos)
            proj = (self._tight_rows().T @ w)[cols]
            alpha = sign * np.concatenate([proj - g[cols], w[pos]])
            # the leaving variable moves toward its violated bound at rate
            # -alpha * need per unit increase of the entering one
            ok = _improving(status, -alpha * need, TOL_PIVOT) != 0
            # every candidate has |alpha| > TOL_PIVOT, so the floor changes no ratio
            ratio = np.abs(d) / np.maximum(np.abs(alpha), TOL_PIVOT)
            if self._bland:     # only the least ratios keep the dual feasible
                ok &= ratio <= ratio[ok].min(initial=np.inf) + _TIE
            pick = _lexmin(ratio, vindex, ok, self._bland)
            if pick is None:
                return INFEASIBLE
            # the leaving variable snaps to its violated bound
            self._exchange(leave, AT_LOWER if need > 0 else AT_UPPER,
                           int(vindex[pick]))
        raise NumericalFailure("dual simplex exceeded the pivot cap")

    def _violations(self):
        """Each basic variable's index, and how far it lies below its lower
        limit and above its upper one (negative inside its limits)."""
        vindex, value, lo, hi = self._basic()
        return vindex, lo - value, value - hi

    # -- driver -----------------------------------------------------------
    def _primal_infeasibility(self):
        _, below, above = self._violations()
        return float(np.max(np.maximum(below, above), initial=0.0))

    def _clamped_costs(self):
        c = self.m.obj
        ct = np.zeros_like(c)
        lo = self.cs == AT_LOWER
        hi = self.cs == AT_UPPER
        ct[lo] = np.minimum(c[lo], 0.0)
        ct[hi] = np.maximum(c[hi], 0.0)
        return ct

    def optimize(self):
        c = self.m.obj
        if not self.valid:
            self.cold_reset()
        for attempt in range(3):
            try:
                if attempt:     # a repair starts from a freshly derived x
                    self._set_nonbasic_values()
                    self._recompute_x()
                if self._primal_infeasibility() > 10 * TOL_FEAS:
                    if self.dual_feasible(c):
                        r = self.dual(c)
                    else:
                        ct = self._clamped_costs()
                        if not self.dual_feasible(ct):
                            self.cold_reset()
                            ct = self._clamped_costs()
                        r = self.dual(ct)
                    if r == INFEASIBLE:
                        return INFEASIBLE
                r = self.primal(c)
                if r == UNBOUNDED:
                    return UNBOUNDED
                drift = self._primal_infeasibility()
                if drift <= 1e-7:
                    return OPTIMAL
                self.m.stats.repairs += 1
                log.debug("drifted out of feasibility by %.3g: repairing", drift)
            except _KernelSingular:
                self._recover_cold("optimizing")
        raise NumericalFailure("could not stabilize the basis")

    # -- reporting ----------------------------------------------------------
    def snapshot_basis(self) -> Basis:
        ids = self.m.row_ids()
        return Basis(self.cs.copy(), ids.copy(), self.ss[ids].copy())

    def solution(self, status, iterations=0) -> LpSolution:
        m = self.m
        ids = m.row_ids()
        duals = np.zeros(ids.size)
        obj = float("nan")
        if status == OPTIMAL:
            y_full = np.zeros(m._n_slots)
            if self.S:
                y_full[self.S] = self._duals_kernel(m.obj)
            duals = y_full[ids]
            obj = float(m.obj @ self.x)
        return LpSolution(status=status, x=self.x.copy(), objective_value=obj,
                          basis=self.snapshot_basis(), iterations=iterations,
                          _row_ids=ids, _duals=duals, _model=m)


# ----------------------------------------------------------------------

def lp_solve(model: LpModel, warm: Basis | None = None,
             from_scratch: bool = False) -> LpSolution:
    """Solve ``model``, reusing its internal basis unless told otherwise.

    ``warm`` installs an explicit starting basis (stale bases are repaired
    against the current rows, not rejected).  ``from_scratch`` forces a cold
    start.  The model keeps its final basis, so consecutive calls after
    single-row edits warm-start automatically.
    """
    t0 = time.perf_counter()
    eng = model._engine
    if eng is None or from_scratch:
        eng = _Engine(model)
        model._engine = eng
    if warm is not None:
        eng.load_basis(warm)
    pivots_before = model.stats.pivots
    status = eng.optimize()
    model.stats.solves += 1
    model.stats.seconds += time.perf_counter() - t0
    return eng.solution(status, iterations=model.stats.pivots - pivots_before)


def dual_objective(model: LpModel, sol: LpSolution) -> float:
    """Dual objective of an optimal solution, for strong-duality checks."""
    ids = model.row_ids()
    y = sol.duals_for(ids)
    val = float(y @ model._rhs[ids])
    d = model.obj - model._A[ids].T @ y
    for j in range(model.n_cols):
        st = sol.basis.col_status[j]
        if st == AT_LOWER:
            val += d[j] * model.lb[j]
        elif st == AT_UPPER:
            val += d[j] * model.ub[j]
    return val
