"""From a monthly price panel to a solvable instance.

Builds a synthetic price CSV, ingests it (year-over-year gross returns,
unbiased moments, appended cash column), and runs one method on the result.
"""

import tempfile
from pathlib import Path

import numpy as np

from ccsaa import max_removals, run_method, sample_scenarios
from ccsaa.data import (estimate_moments, instance_from_dict, read_price_csv,
                        returns_from_prices)

# fabricate five years of monthly prices for three tickers with drift
rng = np.random.default_rng(5)
months = 60
drift = np.array([0.006, 0.004, 0.008])
vol = np.array([0.05, 0.03, 0.08])
log_paths = np.cumsum(drift + vol * rng.standard_normal((months, 3)), axis=0)
prices = 100.0 * np.exp(log_paths)

rows = ["date,BLU,GRN,RED"]
y, m = 2019, 1
for t in range(months):
    rows.append(f"{y:04d}-{m:02d}," + ",".join(f"{p:.4f}" for p in prices[t]))
    m += 1
    if m == 13:
        y, m = y + 1, 1
with tempfile.TemporaryDirectory() as tmp:
    csv_path = Path(tmp) / "prices.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    panel = read_price_csv(csv_path)
returns = returns_from_prices(panel, lag_months=12)
mean, cov = estimate_moments(returns)
print(f"panel: {months} months x {len(panel.names)} assets "
      f"-> {returns.shape[0]} annual-return rows")
print("estimated means:", np.round(mean, 4))
print("estimated vols: ", np.round(np.sqrt(np.diag(cov)), 4))

n = mean.size
grown = np.zeros((n + 1, n + 1))
grown[:n, :n] = cov
inst = instance_from_dict({
    "names": list(panel.names) + ["CASH"],
    "mean": np.append(mean, 1.0).tolist(),
    "covariance": grown.tolist(),
    "alpha": 0.95, "epsilon": 0.05, "beta": 0.01, "cash_index": n,
})

N = 2000
budget = max_removals(N, inst.risk_spec)
scenarios = sample_scenarios(inst.model, N, seed=9)
rep = run_method("asm2", scenarios, inst.program_spec, budget, seed=9)
print(f"\nasm2 on the ingested instance: objective={rep.objective:.5f} "
      f"k={budget.k_removals} violations={rep.train_violations}")
