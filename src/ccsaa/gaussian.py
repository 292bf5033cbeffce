"""Gaussian machinery: normal quantiles, PSD factorization, scenario
sampling, and the exact conic baseline solved by supporting hyperplanes.

With normally distributed returns the chance constraint
``Prob[r.x >= alpha] >= 1 - eps`` is equivalent, on the budget simplex, to
the conic inequality

    z_eps * ||L^T x||  <=  mean . x - alpha,        z_eps = F^-1(1 - eps),

where L is a Cholesky factor of the covariance.  The printed squared form of
this constraint admits a spurious branch with ``mean . x < alpha``, so the
un-squared conic form plus the explicit side condition
``mean . x - alpha * sum(x) >= 0`` is what gets solved here.  A Kelley
cutting-plane loop around the LP core handles it: at a master optimum x^ the
violated conic constraint is cut with the supporting hyperplane

    z_eps * (Cov x^ . x) / ||L^T x^||  <=  mean . x - alpha.

With a semi-continuous band the master becomes the indicator MIP and every
node honours the accumulated cuts.
"""

import queue
import threading
import time

import numpy as np

from . import lp, saa
from ._normal import inv_norm_cdf, norm_cdf  # noqa: F401  (re-exported surface)
from .errors import (InfeasibleModel, NotPositiveSemidefinite, NumericalFailure,
                     check_memory)
from .mip import MipModel, SemiContinuousSpec, banded, mip_solve
from .reports import SolveReport, WorkingSet
from .saa import ScenarioSet

_CUT_TOL = 1e-8
_MAX_CUTS = 1000
_SAMPLE_BLOCK = 2048            # rows per block when sampling scenarios
_PIPE_BLOCKS = 8                # draws of this many blocks draw on a helper
_RING = 3                       # normals buffers the helper fills ahead
_BLAS_SERIAL = 1 << 18          # OpenBLAS threads a dgemm beyond m*n*k = 2^18
_CHOL_TOL = 1e-12               # pivots below this share of the scale are zero


def cholesky(cov) -> np.ndarray:
    """Lower-triangular L with L L^T = cov, tolerant of semidefinite input.

    Zero-variance coordinates (a cash column) produce zero pivots and zero
    factor columns.  Raises NotPositiveSemidefinite with the failing pivot
    index when the matrix is indefinite beyond tolerance.
    """
    A = np.asarray(cov, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("covariance must be square")
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.abs(A - A.T).max()) > 1e-12 * scale:
        raise ValueError("covariance must be symmetric")
    n = A.shape[0]
    L = np.zeros((n, n))
    piv_tol = _CHOL_TOL * scale
    for j in range(n):
        d = A[j, j] - L[j, :j] @ L[j, :j]
        if d > piv_tol:
            L[j, j] = np.sqrt(d)
            if j + 1 < n:
                L[j + 1:, j] = (A[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
        else:
            if d < -piv_tol:
                raise NotPositiveSemidefinite(j)
            # semidefinite pivot: the rest of the column must vanish too
            if j + 1 < n:
                resid = A[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]
                if float(np.abs(resid).max(initial=0.0)) > np.sqrt(piv_tol) * scale:
                    raise NotPositiveSemidefinite(j)
    err = float(np.abs(L @ L.T - A).max())
    if err > 1e-10 * scale:
        raise NotPositiveSemidefinite(n - 1, f"reconstruction error {err:.2e}")
    return L


class GaussianModel:
    """Mean vector and covariance with a cached Cholesky factor.

    Immutable after construction; safe to share across concurrent solves.
    """

    def __init__(self, mean, covariance):
        mean = np.asarray(mean, dtype=float).copy()
        cov = np.asarray(covariance, dtype=float).copy()
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean must be length n and covariance n x n")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("model parameters must be finite")
        self.mean = mean
        self.covariance = cov
        self.chol = cholesky(cov)
        for a in (self.mean, self.covariance, self.chol):
            a.setflags(write=False)

    @property
    def n_assets(self) -> int:
        return self.mean.size

    def portfolio_std(self, x) -> float:
        return float(np.linalg.norm(self.chol.T @ x))

    def violation_probability(self, x, alpha: float) -> float:
        """Exact P[r.x < alpha] for this model at allocation x."""
        sigma = self.portfolio_std(x)
        gap = float(self.mean @ x) - alpha
        if sigma == 0.0:
            return 0.0 if gap >= 0 else 1.0
        return norm_cdf(-gap / sigma)


def sample_scenarios(model: GaussianModel, count: int, seed) -> ScenarioSet:
    """Draw ``count`` return vectors; identical seeds give identical sets.

    Raises ConfigError, before allocating, when the draws would not fit in
    the machine's physical memory."""
    check_memory(8 * count * model.n_assets, f"a draw of {count} scenarios")
    rows = np.empty((model.n_assets, max(count, 0))).T
    for _ in draw_blocks(model, count, seed, rows):
        pass
    return ScenarioSet(rows, provenance=f"sampled(seed={seed})")


def draw_blocks(model: GaussianModel, count: int, seed, rows=None):
    """The rows of ``sample_scenarios(model, count, seed)``, bit for bit, a
    block at a time: written into ``rows``, a count x n array, or else into
    a buffer that the next block overwrites, so nothing grows with count.

    From 8 blocks on, where the process may use two cores, a helper thread
    draws the next blocks' normals (``_drawn_ahead``) while the caller
    transforms and stores, or counts, the block before."""
    if count < 1:
        raise ValueError("count must be positive")
    n = model.n_assets
    rng = np.random.default_rng(seed)
    # Block buffers of 2,049 x n, reused by every block.  At n = 21 (344 kB)
    # one draw after another gets the same pages back: two N = 1e4 draws
    # took no minor faults, against 1,284 with 8,192-row buffers.  A lone
    # last row joins the block before it, since numpy computes a 1-row
    # product with its vector kernel, which rounds differently from the
    # matrix product of the one-shot ``mean + z @ chol.T``.
    size = min(count, _SAMPLE_BLOCK + 1)
    sizes = (count - i if count - i <= size else _SAMPLE_BLOCK
             for i in range(0, max(count - 1, 1), _SAMPLE_BLOCK))
    t, step = np.empty((size, n)), size
    if count >= _PIPE_BLOCKS * _SAMPLE_BLOCK and saa._cores() > 1:
        normals = _drawn_ahead(rng, sizes, (size, n))
        # products in row slices that OpenBLAS computes on this thread: its
        # own second thread would compete with the helper
        while step > 2 and step * n * n > _BLAS_SERIAL:
            step //= 2              # 512 rows at n = 21
    else:
        buf = np.empty((size, n))
        normals = (rng.standard_normal(out=buf[:b]) for b in sizes)
    try:
        for i, z in zip(range(0, count, _SAMPLE_BLOCK), normals):
            b = len(z)
            for lo in range(0, max(b - 1, 1), step):    # no 1-row slice
                hi = lo + step if lo + step < b - 1 else b
                np.matmul(z[lo:hi], model.chol.T, out=t[lo:hi])
            yield np.add(t[:b], model.mean,
                         out=t[:b] if rows is None else rows[i:i + b])
    finally:
        normals.close()


def _drawn_ahead(rng, sizes, shape):
    """Standard normals from ``rng`` for blocks of ``sizes`` rows in turn,
    drawn by a helper thread into a ring of _RING buffers of ``shape``: a
    buffer goes back to the helper when the next block is asked for.  The
    helper is joined when this generator ends, however it ends, and its
    exception is raised here after the blocks it drew before it."""
    ready, free = queue.SimpleQueue(), queue.SimpleQueue()
    for _ in range(_RING):
        free.put(np.empty(shape))

    def fill():
        try:
            for b in sizes:
                z = free.get()
                if z is None:           # put back on close
                    return
                ready.put(rng.standard_normal(out=z[:b]))
            ready.put(None)             # every block is drawn
        except BaseException as e:      # raised again in the caller
            ready.put(e)

    helper = threading.Thread(target=fill, daemon=True)
    helper.start()
    try:
        while (z := ready.get()) is not None:
            if isinstance(z, BaseException):
                raise z
            yield z
            free.put(z.base)            # the whole buffer
    finally:
        free.put(None)
        helper.join()


def solve_gaussian_exact(model: GaussianModel, alpha: float, eps: float,
                         semi: SemiContinuousSpec | None = None,
                         cash_index: int | None = None) -> SolveReport:
    """Maximize mean return on the simplex at exact risk level ``eps``.

    ``semi`` switches the master to the indicator MIP; ``cash_index`` names
    the column left out of the band (required with ``semi``).  A master
    that comes back other than optimal raises InfeasibleModel.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0,1)")
    t0 = time.perf_counter()
    n = model.n_assets
    z = inv_norm_cdf(1.0 - eps)
    master = lp.LpModel(model.mean)
    master.add_row(np.ones(n), "=", 1.0)
    master.add_row(model.mean - alpha, ">=", 0.0)
    mip_master = None if semi is None else banded(
        MipModel(base=master, binaries=[]), semi, n, cash_index)

    lp_solves = 0
    mip_nodes = 0
    for _ in range(_MAX_CUTS):
        if mip_master is not None:
            res = mip_solve(mip_master)
            lp_solves += res.lp_solves
            mip_nodes += res.node_count
            status, x = res.status, res.x
        else:
            sol = lp.lp_solve(master)
            lp_solves += 1
            status, x = sol.status, sol.x
        if status != lp.OPTIMAL:
            raise InfeasibleModel(f"Gaussian master is {status}")
        x = x[:n]
        if z <= 0.0:
            break                     # quantile at or below zero: cone is vacuous
        sigma = model.portfolio_std(x)
        violation = z * sigma - (float(model.mean @ x) - alpha)
        if violation <= _CUT_TOL:
            break
        if sigma > 0.0:
            g = model.covariance @ x / sigma
        else:
            norms = np.linalg.norm(model.chol, axis=0)
            g = model.chol[:, int(np.argmax(norms))]
        coeffs = np.zeros(master.n_cols)
        coeffs[:n] = model.mean - z * g
        master.add_row(coeffs, ">=", alpha)
    else:
        raise NumericalFailure("cutting-plane loop did not converge")

    return SolveReport(method="socp" if semi is None else "socp-ip",
                       x=x.copy(), objective=float(model.mean @ x),
                       working_set=WorkingSet(), lp_solves=lp_solves,
                       mip_nodes=mip_nodes, wall_time=time.perf_counter() - t0,
                       train_violations=0)
