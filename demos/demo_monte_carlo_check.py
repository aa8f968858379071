"""End-to-end stochastic check of the closed forms.

Simulates the physical model directly (pair draws; a threshold herald
detector that fires unless it misses every photon and has no dark count;
binomial signal-branch losses in the heralded bins) and compares the
empirical histogram with the exact distribution, bin by bin, in units of
the binomial standard error.  Run:  python demos/demo_monte_carlo_check.py
"""

import math

from hspstats import (
    McConfig,
    PairStatistics,
    SourceParams,
    herald_click_probability,
    signal_pmf,
    simulate,
)

params = SourceParams(mu=0.01, eta_h=0.5, eta_s=0.5, d_h=1e-4)
config = McConfig(params=params, stat=PairStatistics.POISSON,
                  trials=2_000_000, seed=424242)

est = simulate(config)
pmf = signal_pmf(PairStatistics.POISSON, params)

print(f"{config.trials} simulated bins, seed {config.seed}")
print(f"herald rate: simulated {est.herald_rate:.5e}, "
      f"exact {herald_click_probability(PairStatistics.POISSON, params):.5e}")
print(f"heralded trials: {est.heralded}\n")

print(f"{'n':>2} {'simulated':>12} {'exact':>12} {'pull':>7}")
for n in range(5):
    p = pmf.prob(n)
    sigma = math.sqrt(p * (1 - p) / est.heralded)
    pull = (est.pmf_hat[n] - p) / sigma if sigma else 0.0
    print(f"{n:>2} {est.pmf_hat[n]:12.5e} {p:12.5e} {pull:7.2f}")

print("\npulls are O(1): the simulation and the closed forms describe the")
print("same physics.  Rerunning with the same seed replays bit-identically;")
print("changing the seed moves every bin within its error bar.")
