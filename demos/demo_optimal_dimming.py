"""Why a heralded source has an optimal pump level.

Dimming the pump suppresses multi-pair emission, but below some level the
detector's dark counts take over the heralds and the output degrades back
to Poisson statistics.  The Fano ratio (Delta n)^2/<n> therefore dips to a
minimum at an intermediate pump.  Run:  python demos/demo_optimal_dimming.py
"""

from hspstats import SourceParams, moments_closed_form, optimize_mu, sweep

ETA_H = ETA_S = 0.5
DARK = 1e-4

result = optimize_mu(ETA_H, ETA_S, DARK, bounds=(1e-6, 1.0))
print(f"eta_h = eta_s = {ETA_H}, d_h = {DARK}")
print(f"optimal pump: mu = {result.mu_opt:.4f} pairs per bin "
      f"(Fano ratio {result.fano_opt:.4f}, {result.evaluations} evaluations)\n")

grid = tuple(1e-5 * (1e5 ** (i / 39)) for i in range(40))
curve = sweep(SourceParams(0.01, ETA_H, ETA_S, DARK), axis="mu", grid=grid)

print(f"{'mu':>10} {'fano':>8}  ")
scale = 56
for row in curve.rows:
    bar = "#" * int(round(row.moments.fano * scale))
    print(f"{row.value:10.2e} {row.moments.fano:8.4f}  {bar}")

print("\nboth ends sit at Fano = 1 (Poisson); the dip marks the best")
print(f"trade-off between multi-pair noise and dark-count noise.")
fano = lambda mu: moments_closed_form(SourceParams(mu, ETA_H, ETA_S, DARK)).fano
print(f"fano(mu -> 0) = {fano(1e-7):.4f},  fano(mu = 1)  = {fano(1.0):.4f}")
