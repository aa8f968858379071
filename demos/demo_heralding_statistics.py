"""How heralding reshapes the photon-number statistics of a pair source.

A parametric pair source at mu = 0.01 pairs per time bin, with 50%
transmission in both branches and a 1e-4 dark-count rate, emits an almost
Poissonian signal beam.  Conditioning on the herald click multiplies each
p(n) by a correcting factor xi(n) ~ 100: the single-photon probability
jumps from half a percent to about 49%, while multi-photon terms stay
suppressed.  Run:  python demos/demo_heralding_statistics.py
"""

import math

from hspstats import (
    NO_FILTER,
    PairStatistics,
    SourceParams,
    herald_click_probability,
    heralded_terms,
    moments_from_pmf,
    signal_pmf,
    unconditioned_terms,
    xi_values,
)

params = SourceParams(mu=0.01, eta_h=0.5, eta_s=0.5, d_h=1e-4)
stat = PairStatistics.POISSON

pmf = signal_pmf(stat, params)
rate = herald_click_probability(stat, params)
print(f"source: mu={params.mu}, eta_h={params.eta_h}, eta_s={params.eta_s}, "
      f"d_h={params.d_h}")
print(f"herald click probability per bin: {rate:.4e}\n")

print(f"{'n':>2} {'unheralded':>13} {'heralded':>13} {'xi(n)':>10}")
columns = (unconditioned_terms(stat, params, NO_FILTER, 7),
           heralded_terms(stat, params, NO_FILTER, 7), xi_values(stat, params, NO_FILTER, 6))
for n, (base, heralded, factor) in enumerate(zip(*columns)):
    print(f"{n:>2} {base:13.6e} {heralded:13.6e} {factor:10.4f}")

limit = 1 / rate
print(f"\nxi grows with n but stays below its limit {limit:.2f}: the")
print("heralded tail keeps the exponential suppression of the base law.")

g2 = moments_from_pmf(pmf).g2
print(f"\ng2(0) of the heralded beam: {g2:.4f}  (Poisson light: 1, "
      f"thermal light: 2)")
print(f"=> strongly sub-Poisson: {g2:.1%} of the Poisson coincidence rate")

mean = math.fsum(n * p for n, p in enumerate(pmf.probs))
print(f"mean heralded photon number: {mean:.4f} per bin")
