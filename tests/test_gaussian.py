import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from ccsaa import gaussian, saa
from ccsaa._normal import norm_cdf
from ccsaa.errors import ConfigError, InfeasibleModel, NotPositiveSemidefinite
from ccsaa.gaussian import (GaussianModel, cholesky, draw_blocks,
                            inv_norm_cdf, sample_scenarios,
                            solve_gaussian_exact)
from ccsaa.mip import SemiContinuousSpec

from oracles import normal_quantile_bisect


class TestInvNormCdf:
    def test_median(self):
        assert inv_norm_cdf(0.5) == 0.0

    def test_reference_value(self):
        assert inv_norm_cdf(0.95) == pytest.approx(1.6448536269514729, abs=1e-9)

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.43, 0.77, 0.999):
            assert abs(inv_norm_cdf(p) + inv_norm_cdf(1 - p)) <= 1e-12

    def test_round_trip_accuracy(self):
        rng = np.random.default_rng(0)
        ps = np.concatenate([rng.uniform(1e-12, 1 - 1e-12, 2000),
                             [1e-10, 1e-6, 1e-3, 0.999999, 1 - 1e-9]])
        for p in ps:
            z = inv_norm_cdf(float(p))
            assert abs(norm_cdf(z) - p) <= 1e-9

    def test_against_bisection_oracle(self):
        for p in (0.001, 0.025, 0.3, 0.5, 0.75, 0.95, 0.9999):
            assert inv_norm_cdf(p) == pytest.approx(
                normal_quantile_bisect(p), abs=1e-9)

    def test_rejects_bad_input(self):
        for p in (0.0, 1.0, -0.5, 1.5, float("nan")):
            with pytest.raises(ValueError):
                inv_norm_cdf(p)


class TestCholesky:
    def test_identity(self):
        assert np.allclose(cholesky(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        d = np.diag([4.0, 9.0, 0.25])
        assert np.allclose(cholesky(d), np.diag([2.0, 3.0, 0.5]))

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            A = rng.normal(size=(6, 6))
            cov = A @ A.T
            L = cholesky(cov)
            assert np.abs(L @ L.T - cov).max() <= 1e-10 * np.abs(cov).max()
            assert np.allclose(L, np.tril(L))

    def test_semidefinite_cash_column(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 3))
        cov = np.zeros((4, 4))
        cov[:3, :3] = A @ A.T
        L = cholesky(cov)
        assert np.abs(L @ L.T - cov).max() <= 1e-10 * np.abs(cov).max()
        assert np.all(L[3] == 0.0) and np.all(L[:, 3] == 0.0)

    def test_indefinite_reports_pivot(self):
        cov = np.diag([1.0, -0.5, 2.0])
        with pytest.raises(NotPositiveSemidefinite) as exc:
            cholesky(cov)
        assert exc.value.pivot_index == 1

    def test_asymmetric_rejected(self):
        bad = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(ValueError):
            cholesky(bad)


class TestSampling:
    def test_zero_covariance(self):
        m = GaussianModel([1.05, 1.0], np.zeros((2, 2)))
        sc = sample_scenarios(m, 50, seed=3)
        assert np.allclose(sc.returns, [1.05, 1.0])

    def test_determinism(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(3, 3)) * 0.1
        m = GaussianModel([1.1, 1.05, 1.0], A @ A.T)
        a = sample_scenarios(m, 100, seed=7)
        b = sample_scenarios(m, 100, seed=7)
        assert np.array_equal(a.returns, b.returns)
        c = sample_scenarios(m, 100, seed=8)
        assert not np.array_equal(a.returns, c.returns)

    @pytest.mark.parametrize("count", [1, 7, 500, 2047, 2048, 2049, 4097, 8191,
                                       8192, 8193, 10000])
    def test_column_major_and_bit_identical(self, count):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(4, 4)) * 0.1
        m = GaussianModel([1.1, 1.05, 1.02, 1.0], A @ A.T)
        r = sample_scenarios(m, count, seed=21).returns
        z = np.random.default_rng(21).standard_normal((count, 4))
        want = m.mean + z @ m.chol.T
        assert r.flags.f_contiguous and not r.flags.writeable
        assert r.shape == (count, 4)
        assert r.tobytes(order="C") == want.tobytes(order="C")

    @pytest.mark.parametrize("count", [1, 2, 2048, 2049, 2050, 4097, 8193])
    def test_streamed_blocks_are_the_draw(self, count):
        # the blocks a test draw streams through are the sampled rows, bit
        # for bit, in blocks of at most 2,049 rows
        rng = np.random.default_rng(2)
        A = rng.normal(size=(4, 4)) * 0.1
        m = GaussianModel([1.1, 1.05, 1.02, 1.0], A @ A.T)
        blocks = [b.copy() for b in draw_blocks(m, count, seed=21)]
        assert max(len(b) for b in blocks) <= 2049
        streamed = np.concatenate(blocks)
        assert streamed.tobytes() == sample_scenarios(
            m, count, seed=21).returns.tobytes(order="C")

    def test_streamed_draw_is_not_refused_for_memory(self):
        # nothing a streamed draw allocates grows with its size
        m = GaussianModel([1.1, 1.05, 1.02, 1.0], np.eye(4) * 0.01)
        block = next(draw_blocks(m, 10**12, seed=1))
        assert block.shape == (2048, 4)

    def test_peak_memory_is_the_returned_array(self):
        # draws stream into the one output array through small block buffers
        rng = np.random.default_rng(2)
        A = rng.normal(size=(4, 4)) * 0.1
        m = GaussianModel([1.1, 1.05, 1.02, 1.0], A @ A.T)
        tracemalloc.start()
        try:
            r = sample_scenarios(m, 200_000, seed=21).returns
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * r.nbytes

    def test_draw_larger_than_memory_is_refused(self):
        # 32 TB: refused before anything is allocated
        m = GaussianModel([1.1, 1.05, 1.02, 1.0], np.eye(4) * 0.01)
        with pytest.raises(ConfigError, match="physical memory"):
            sample_scenarios(m, 10**12, seed=1)

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(2, 2)) * 0.2
        cov = A @ A.T
        m = GaussianModel([1.08, 1.02], cov)
        sc = sample_scenarios(m, 200_000, seed=11)
        assert np.abs(sc.returns.mean(axis=0) - m.mean).max() <= 0.01
        emp_cov = np.cov(sc.returns.T)
        assert np.abs(emp_cov - cov).max() <= 0.02


def model21():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(21, 21)) * 0.05
    return GaussianModel(rng.uniform(1.0, 1.1, 21), A @ A.T)


@pytest.fixture
def helpers(monkeypatch):
    """Two cores whatever the machine has; records every helper thread a
    draw starts."""
    monkeypatch.setattr(saa, "_cores", lambda: 2)
    started = []

    class Recording(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(gaussian.threading, "Thread", Recording)
    return started


class TestPipelinedDraw:
    """From 8 blocks on a helper thread draws the normals; the rows, the
    blocks and the counts stay those of the serial loop, and the helper is
    joined however the draw ends."""

    @pytest.mark.parametrize("count", [1, 2, 513, 514, 2049, 2050, 16_383,
                                       16_385, 100_001])
    def test_bit_identical_at_block_and_slice_edges(self, helpers, count):
        m = model21()
        want = m.mean + np.random.default_rng(21).standard_normal((count, 21)) @ m.chol.T
        r = sample_scenarios(m, count, seed=21).returns
        assert r.flags.f_contiguous and r.tobytes(order="C") == want.tobytes()
        blocks = [b.copy() for b in draw_blocks(m, count, seed=21)]
        assert np.concatenate(blocks).tobytes() == want.tobytes()
        assert len(helpers) == 2 * (count >= 16_384)
        assert not any(h.is_alive() for h in helpers)

    def test_one_core_is_serial(self, helpers, monkeypatch):
        m = model21()
        piped = sample_scenarios(m, 20_000, seed=5).returns
        assert len(helpers) == 1
        monkeypatch.setattr(saa, "_cores", lambda: 1)
        before = threading.active_count()
        serial = sample_scenarios(m, 20_000, seed=5).returns
        assert threading.active_count() == before and len(helpers) == 1
        assert serial.tobytes() == piped.tobytes()

    def test_closed_after_three_blocks(self, helpers):
        blocks = draw_blocks(model21(), 100_000, seed=1)
        for _ in range(3):
            next(blocks)
        assert helpers[0].is_alive()
        blocks.close()
        assert not helpers[0].is_alive()

    def test_abandoned(self, helpers):
        blocks = draw_blocks(model21(), 100_000, seed=1)
        next(blocks)
        del blocks
        assert not helpers[0].is_alive()

    def test_consumer_raises(self, helpers):
        with pytest.raises(KeyError):
            for k, _ in enumerate(draw_blocks(model21(), 100_000, seed=1)):
                if k == 4:
                    raise KeyError(k)
        assert not helpers[0].is_alive()

    def test_helper_exception_reaches_the_caller(self, helpers, monkeypatch):
        class Failing:
            def __init__(self, seed):
                self.rng, self.calls = real(seed), 0

            def standard_normal(self, out):
                self.calls += 1
                if self.calls == 5:
                    raise MemoryError("fifth block")
                return self.rng.standard_normal(out=out)

        m, real = model21(), np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", Failing)
        got = []
        with pytest.raises(MemoryError, match="fifth block"):
            for block in draw_blocks(m, 100_000, seed=1):
                got.append(block.copy())
        assert not helpers[0].is_alive()
        # the four blocks drawn before it are the draw's
        want = m.mean + real(1).standard_normal((4 * 2048, 21)) @ m.chol.T
        assert np.concatenate(got).tobytes() == want.tobytes()

    def test_concurrent_draws_with_fast_switching(self, helpers):
        # four pipelined draws at once, eight threads on two cores, with the
        # interpreter switching threads every microsecond
        m = model21()
        want = [m.mean + np.random.default_rng(s).standard_normal((40_000, 21))
                @ m.chol.T for s in range(4)]
        got = [None] * 4

        def draw(s):
            got[s] = sample_scenarios(m, 40_000, seed=s).returns

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(s,)) for s in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        started = [h for h in helpers if h not in threads]
        assert len(started) == 4 and not any(h.is_alive() for h in started)
        for g, w in zip(got, want):
            assert g.tobytes(order="C") == w.tobytes()

    def test_huge_draw_first_block_at_once(self, helpers):
        m = GaussianModel([1.1, 1.05, 1.02, 1.0], np.eye(4) * 0.01)
        t0 = time.perf_counter()
        block = next(draw_blocks(m, 10**12, seed=1))
        assert block.shape == (2048, 4) and time.perf_counter() - t0 < 1.0
        assert not helpers[0].is_alive()


class TestExactBaseline:
    def one_risky(self, mu, sigma):
        cov = np.array([[sigma ** 2, 0.0], [0.0, 0.0]])
        return GaussianModel([mu, 1.0], cov)

    def test_vacuous_at_half(self):
        m = self.one_risky(1.2, 0.4)
        rep = solve_gaussian_exact(m, alpha=0.9, eps=0.5)
        assert rep.x[0] == pytest.approx(1.0, abs=1e-9)
        assert rep.objective == pytest.approx(1.2, abs=1e-9)

    def test_one_risky_closed_form(self):
        for mu, sigma, alpha, eps in [(1.10, 0.30, 0.95, 0.05),
                                      (1.05, 0.20, 0.90, 0.02),
                                      (1.15, 0.45, 0.97, 0.10)]:
            z = inv_norm_cdf(1 - eps)
            assert z * sigma > mu - 1.0   # cap regime
            x_star = min(1.0, (1.0 - alpha) / (z * sigma - mu + 1.0))
            want = 1.0 + x_star * (mu - 1.0)
            rep = solve_gaussian_exact(self.one_risky(mu, sigma), alpha, eps)
            assert rep.objective == pytest.approx(want, abs=1e-6)
            assert rep.x[0] == pytest.approx(x_star, abs=1e-6)

    def test_solution_satisfies_cone(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            A = rng.normal(size=(4, 4)) * 0.15
            cov = np.zeros((5, 5))
            cov[:4, :4] = A @ A.T
            mean = np.append(rng.uniform(1.02, 1.15, 4), 1.0)
            m = GaussianModel(mean, cov)
            rep = solve_gaussian_exact(m, alpha=0.95, eps=0.04)
            z = inv_norm_cdf(0.96)
            lhs = z * m.portfolio_std(rep.x)
            rhs = float(mean @ rep.x) - 0.95
            assert lhs <= rhs + 1e-8

    def test_matches_grid_oracle_two_assets(self):
        # two risky assets, no cash: optimum found by scanning the simplex edge
        rng = np.random.default_rng(7)
        for _ in range(3):
            vols = rng.uniform(0.05, 0.4, 2)
            rho = rng.uniform(-0.5, 0.5)
            cov = np.array([[vols[0] ** 2, rho * vols[0] * vols[1]],
                            [rho * vols[0] * vols[1], vols[1] ** 2]])
            mean = rng.uniform(1.02, 1.2, 2)
            alpha, eps = 0.9, 0.07
            m = GaussianModel(mean, cov)
            z = inv_norm_cdf(1 - eps)
            ts = np.linspace(0.0, 1.0, 200_001)
            xs = np.column_stack([ts, 1 - ts])
            sig = np.sqrt(np.einsum("ij,jk,ik->i", xs, cov, xs))
            objs = xs @ mean
            ok = z * sig <= objs - alpha
            want = objs[ok].max() if ok.any() else None
            if want is None:
                with pytest.raises(InfeasibleModel):
                    solve_gaussian_exact(m, alpha, eps)
            else:
                assert solve_gaussian_exact(m, alpha, eps).objective == \
                    pytest.approx(want, abs=1e-6)

    def test_tighter_covariance_never_helps(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(3, 3)) * 0.2
        cov = np.zeros((4, 4))
        cov[:3, :3] = A @ A.T
        mean = np.append(rng.uniform(1.05, 1.12, 3), 1.0)
        objs = []
        for t in (0.5, 1.0, 2.0, 4.0):
            m = GaussianModel(mean, cov * t * t)
            objs.append(solve_gaussian_exact(m, 0.95, 0.05).objective)
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    def test_semicontinuous_master(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(3, 3)) * 0.12
        cov = np.zeros((4, 4))
        cov[:3, :3] = A @ A.T
        mean = np.append(rng.uniform(1.04, 1.12, 3), 1.0)
        m = GaussianModel(mean, cov)
        band = SemiContinuousSpec(0.05, 0.30)
        rep = solve_gaussian_exact(m, 0.95, 0.05, semi=band, cash_index=3)
        plain = solve_gaussian_exact(m, 0.95, 0.05)
        assert rep.objective <= plain.objective + 1e-9
        for j in range(3):
            assert rep.x[j] <= 1e-6 or 0.05 - 1e-6 <= rep.x[j] <= 0.30 + 1e-6
        with pytest.raises(ConfigError):
            solve_gaussian_exact(m, 0.95, 0.05, semi=band)

    def test_infeasible_master_raises(self):
        # the floor alpha = 1.5 lies above every mean return
        m = GaussianModel([1.01, 1.02], np.diag([0.01, 0.02]))
        with pytest.raises(InfeasibleModel):
            solve_gaussian_exact(m, 1.5, 0.05)
        with pytest.raises(InfeasibleModel):
            solve_gaussian_exact(m, 1.5, 0.05, semi=SemiContinuousSpec(0.1, 0.9),
                                 cash_index=1)

    def test_violation_probability_helper(self):
        m = self.one_risky(1.1, 0.3)
        x = np.array([0.4, 0.6])
        p = m.violation_probability(x, alpha=0.95)
        # by hand: mean 1.04, std 0.12 -> P[r < 0.95] = Phi(-0.75)
        assert p == pytest.approx(norm_cdf(-0.75), abs=1e-12)
