from fractions import Fraction

import numpy as np
import pytest

from ccsaa import certificate
from ccsaa.certificate import (RiskSpec, ScenarioBudget, binomial_upper_limit,
                               cg_log_beta, max_removals)
from ccsaa.errors import NoFeasibleBudget

from oracles import (certificate_log10_exact, clopper_pearson_upper,
                     clopper_pearson_upper_bisect)

SPEC20 = RiskSpec(epsilon=0.05, beta=5e-6, n_dims=20)

# Published reference grid for eps=0.05, n=20: (N, k, bound)
REFERENCE_GRID = [
    (1000, 1, 1.53e-05),
    (2500, 24, 3.73e-06),
    (5000, 85, 3.46e-06),
    (10000, 238, 3.31e-06),
    (20000, 593, 4.40e-06),
    (50000, 1786, 3.75e-06),
    (100000, 3923, 4.72e-06),
    (500000, 22278, 4.96e-06),
    (1000000, 45978, 4.74e-06),
]


class TestCgLogBeta:
    @pytest.mark.parametrize("N,k,expected", REFERENCE_GRID)
    def test_reference_grid(self, N, k, expected):
        got = 10 ** cg_log_beta(N, k, SPEC20)
        assert got == pytest.approx(expected, rel=0.02)

    def test_zero_removals_footnote(self):
        got = 10 ** cg_log_beta(1000, 0, SPEC20)
        assert got == pytest.approx(2.88e-07, rel=0.02)

    def test_rejects_k_ge_n(self):
        with pytest.raises(ValueError):
            cg_log_beta(10, 10, SPEC20)
        with pytest.raises(ValueError):
            cg_log_beta(10, -1, SPEC20)

    def test_monotone_in_k(self):
        spec = RiskSpec(0.05, 5e-6, 21)
        vals = [cg_log_beta(500, k, spec) for k in range(0, 60)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_n(self):
        spec = RiskSpec(0.05, 5e-6, 21)
        for k in (0, 3, 10):
            lo_n = int(np.ceil(k / spec.epsilon)) + 1
            vals = [cg_log_beta(N, k, spec) for N in range(lo_n, lo_n + 200, 7)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_exact_rational_oracle_small_n(self):
        for n_dims in (1, 2, 3, 5):
            spec = RiskSpec(0.05, 0.5, n_dims)
            for N in (5, 12, 30):
                for k in range(0, N, max(1, N // 4)):
                    got = cg_log_beta(N, k, spec)
                    want = certificate_log10_exact(N, k, Fraction(1, 20), n_dims)
                    assert got == pytest.approx(want, abs=1e-10)

    def test_sum_limit_variants_ordered(self):
        # the looser printed series limit can only add probability mass
        a = cg_log_beta(1000, 5, SPEC20, sum_limit="campi")
        b = cg_log_beta(1000, 5, SPEC20, sum_limit="paper")
        assert b >= a


class TestMaxRemovals:
    @pytest.mark.parametrize("N,k,_", [r for r in REFERENCE_GRID if r[0] >= 2500])
    def test_reference_grid_k(self, N, k, _):
        budget = max_removals(N, SPEC20)
        assert budget.k_removals == k
        assert budget.beta_achieved <= SPEC20.beta

    def test_no_feasible_budget(self):
        # tiny N at a strict beta: even honouring all scenarios fails
        with pytest.raises(NoFeasibleBudget):
            max_removals(10, RiskSpec(0.05, 1e-9, 20))

    def test_small_n_budget_is_zero(self):
        # at N=1000 the k=1 bound (1.53e-5) exceeds beta, so the rule stops at 0
        budget = max_removals(1000, SPEC20)
        assert budget.k_removals == 0
        assert budget.beta_achieved == pytest.approx(2.88e-07, rel=0.02)

    def test_discard_fraction_monotone_and_below_eps(self):
        fracs = [max_removals(N, SPEC20).discard_fraction
                 for N, _, _ in REFERENCE_GRID]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert all(f <= SPEC20.epsilon for f in fracs)

    def test_maximality(self):
        for N in (2500, 10000):
            budget = max_removals(N, SPEC20)
            above = cg_log_beta(N, budget.k_removals + 1, SPEC20)
            assert 10 ** above > SPEC20.beta


def old_search(N, spec, sum_limit):
    """The doubling-and-bisection search that preceded the one-pass proposal."""
    def ok(k):
        return cg_log_beta(N, k, spec, sum_limit) <= np.log10(spec.beta)
    if not ok(0):
        return None
    hi = 1
    while hi < N and ok(min(hi, N - 1)):
        hi *= 2
    hi = min(hi, N - 1)
    lo = hi // 2 if hi > 1 else 0
    while lo < hi:                  # ok(lo) holds; find the last k with ok(k)
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid - 1)
    return ScenarioBudget(N, lo, float(10.0 ** cg_log_beta(N, lo, spec, sum_limit)))


class TestOnePassBudget:
    GRID = [(N, RiskSpec(eps, beta, n), limit)
            for N in (1, 2, 7, 60, 1000, 2500, 10_007, 100_000)
            for eps in (0.01, 0.05, 0.3)
            for beta in (1e-9, 5e-6, 0.2)
            for n in (1, 3, 21)
            for limit in ("campi", "paper")]

    def test_same_budget_as_the_search(self):
        for N, spec, limit in self.GRID:
            want = old_search(N, spec, limit)
            if want is None:
                with pytest.raises(NoFeasibleBudget):
                    max_removals(N, spec, limit)
            else:
                got = max_removals(N, spec, limit)
                assert (got.k_removals, repr(got.beta_achieved)) == \
                    (want.k_removals, repr(want.beta_achieved)), (N, spec, limit)

    def test_large_n_budgets(self):
        for N in (10**6, 10**7):
            got, want = max_removals(N, SPEC20), old_search(N, SPEC20, "campi")
            assert (got.k_removals, repr(got.beta_achieved)) == \
                (want.k_removals, repr(want.beta_achieved))

    @pytest.mark.parametrize("offset", [-5, -1, 1, 7, 10**9])
    def test_wrong_proposal_falls_back(self, monkeypatch, offset):
        right = certificate._propose
        monkeypatch.setattr(certificate, "_propose", lambda *a: right(*a) + offset)
        for N, spec, limit in [(2500, SPEC20, "campi"), (100_000, SPEC20, "paper"),
                               (60, RiskSpec(0.3, 0.2, 1), "campi")]:
            got, want = max_removals(N, spec, limit), old_search(N, spec, limit)
            assert (got.k_removals, got.beta_achieved) == \
                (want.k_removals, want.beta_achieved)

    def test_proposal_needs_three_bound_evaluations(self, monkeypatch):
        calls = []
        exact = certificate.cg_log_beta
        monkeypatch.setattr(certificate, "cg_log_beta",
                            lambda *a: calls.append(a[1]) or exact(*a))
        budget = max_removals(1_000_000, SPEC20)
        assert budget.k_removals == 45978
        assert calls == [0, 45978, 45979]


class TestBinomialUpperLimit:
    def test_zero_violations(self):
        u = binomial_upper_limit(0, 100, 0.95)
        assert 0.0 < u < 0.05

    def test_all_violations(self):
        assert binomial_upper_limit(77, 77, 0.9) == 1.0
        assert binomial_upper_limit(10, 10, 1 - 5e-6) == 1.0

    def test_against_clopper_pearson(self):
        got = binomial_upper_limit(5000, 100000, 1 - 5e-6)
        want = clopper_pearson_upper(5000, 100000, 1 - 5e-6)
        assert got == pytest.approx(want, abs=0.002)

    def test_clopper_pearson_closed_form_matches_bisection(self):
        # the beta quantile the oracle uses, against bisection on the exact
        # binomial lower tail
        assert clopper_pearson_upper(7, 200, 0.99) == pytest.approx(
            clopper_pearson_upper_bisect(7, 200, 0.99), rel=0, abs=1e-11)

    def test_monotone_in_violations(self):
        vals = [binomial_upper_limit(v, 1000, 0.99) for v in range(0, 1000, 37)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_trials_at_fixed_ratio(self):
        vals = [binomial_upper_limit(5 * m, 100 * m, 0.99) for m in (1, 2, 5, 10, 50)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            binomial_upper_limit(11, 10, 0.95)
        with pytest.raises(ValueError):
            binomial_upper_limit(-1, 10, 0.95)


class TestTypes:
    def test_risk_spec_validation(self):
        with pytest.raises(ValueError):
            RiskSpec(0.0, 0.5, 3)
        with pytest.raises(ValueError):
            RiskSpec(0.5, 1.0, 3)
        with pytest.raises(ValueError):
            RiskSpec(0.5, 0.5, 0)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ScenarioBudget(10, 10, 1e-6)
        b = ScenarioBudget(10, 3, 1e-6)
        assert b.discard_fraction == pytest.approx(0.3)
