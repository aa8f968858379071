"""Correctness checks of a workload's outputs, run after the timed section.

Outputs are compared with :mod:`reference` (direct enumeration, no code
shared with hspstats) or with a property the method must have.  Each check
returns a list of failure messages; an empty list means the outputs pass.
Operations that failed outright carry ``{"error": ...}`` and are counted as
failed by the worker, so they are skipped here.

"Within 5 sigma" for a Monte Carlo count is judged with the exact binomial
law: the observed count must not lie in either tail beyond the probability
a normal deviate has beyond 5 sigma.  Bins whose expected count is far below
one would fail a normal-approximation test on a single event.
"""

import math
from functools import lru_cache

from scipy import stats

import reference

PMF_TOL = 1e-10          # per term, program vs reference and oracles
MOMENT_RTOL = 1e-9       # relative, mean and variance
REDUCTION_TOL = 1e-12    # pmf terms of filtered configurations at f = 1 vs thermal
FANO_STEP = 1e-3         # relative step around an optimum
MU_OPT_WINDOW = (0.014, 0.018)    # at eta_h = eta_s = 0.5, d_h = 1e-4
MC_MIN_PROB = 1e-6
FIVE_SIGMA_TAIL = stats.norm.sf(5.0)

law = lru_cache(maxsize=None)(reference.signal_law)


def _ok(output):
    return not (isinstance(output, dict) and "error" in output)


def pmf_deviation(probs, ref) -> float:
    """Largest per-term difference; terms beyond either range count as 0."""
    size = max(len(probs), len(ref))
    return max(abs((probs[n] if n < len(probs) else 0.0)
                   - (ref[n] if n < len(ref) else 0.0)) for n in range(size))


def _relative(a, b) -> float:
    return abs(a - b) / abs(b)


def count_within_5_sigma(count: int, total: int, p: float) -> bool:
    """True unless ``count`` lies in a tail of Binomial(total, p) thinner
    than the normal tail beyond 5 sigma."""
    return (stats.binom.cdf(count, total, p) >= FIVE_SIGMA_TAIL
            and stats.binom.sf(count - 1, total, p) >= FIVE_SIGMA_TAIL)


def check_histogram(counts, heralded, trials, ref, where) -> list:
    """Bins with reference probability >= 1e-6 (the top, clamped bin
    excluded) and the herald count, each within 5 sigma."""
    failures = []
    for n, count in enumerate(counts[:-1]):
        p = float(ref.heralded[n]) if n < len(ref.heralded) else 0.0
        if p >= MC_MIN_PROB and not count_within_5_sigma(count, heralded, p):
            failures.append(f"{where}: bin {n} holds {count} of {heralded}, "
                            f"reference p = {p:.6g}")
    if not count_within_5_sigma(heralded, trials, ref.p_click):
        failures.append(f"{where}: {heralded} heralds in {trials} trials, "
                        f"reference click probability {ref.p_click:.6g}")
    return failures


def check_sweep_row(row, config, params, where) -> list:
    """A sweep row [value, error, mean, variance, p0..p3] at ``params``."""
    if row[1] is not None:
        return [f"{where}: row carries error {row[1]!r}"]
    ref = law(config, params["mu"], params["eta_h"], params["eta_s"], params["d_h"], params["f"])
    failures = []
    dev = pmf_deviation(row[4:], ref.heralded[:len(row) - 4])
    if dev > PMF_TOL:
        failures.append(f"{where}: p0..p3 off by {dev:.3g}")
    for label, got, want in (("mean", row[2], ref.mean), ("variance", row[3], ref.variance)):
        if _relative(got, want) > MOMENT_RTOL:
            failures.append(f"{where}: {label} {got!r} vs reference {want!r}")
    return failures


def check_fano_minimum(eta_h, eta_s, d_h, mu_opt, where) -> list:
    """The reference Fano ratio at mu_opt is no greater than one step off."""
    at = reference.fano(mu_opt, eta_h, eta_s, d_h)
    worse = [s for s in (1 - FANO_STEP, 1 + FANO_STEP)
             if reference.fano(mu_opt * s, eta_h, eta_s, d_h) < at]
    if worse:
        return [f"{where}: mu_opt = {mu_opt!r} is not a minimum of the Fano ratio"]
    return []


def check_digests(result) -> list:
    """Every round re-runs the first on the same inputs and seeds, so every
    round's outputs, Monte Carlo histograms included, must be the first's."""
    if len(result["digests"]) < 2:
        return ["fewer than two rounds: the outputs were never replayed"]
    if len(set(result["digests"])) != 1:
        return ["rounds on the same inputs returned different outputs"]
    return []


# ---------------------------------------------------------------- workloads

def check_cli_cold(result, parse) -> list:
    """``parse`` is ``hspstats.records.parse``."""
    inputs, outputs = result["inputs"], result["outputs"]
    p = inputs["params"]
    failures = []
    rows = {}
    for label, text in outputs.items():
        if not _ok(text):
            continue
        try:
            rows[label] = parse(text)
        except Exception as exc:      # any parse failure is a wrong output
            failures.append(f"{label}: output does not parse: {exc!r}")

    for config in reference.CONFIGURATIONS:
        records = [rows[k] for k in (f"pmf.{config}.csv", f"pmf.{config}.json") if k in rows]
        if len(records) == 2 and records[0].rows != records[1].rows:
            failures.append(f"pmf.{config}: csv and json rows differ")
        for record in records[:1]:
            probs = [r["p_heralded"] for r in record.rows]
            ref = law(config, p["mu"], p["eta_h"], p["eta_s"], p["d_h"], p["f"])
            dev = pmf_deviation(probs, ref.heralded)
            if dev > PMF_TOL:
                failures.append(f"pmf.{config}: off the reference by {dev:.3g}")
            tail = record.inputs["tail_bound"]
            if not 1.0 - tail <= math.fsum(probs) <= 1.0 + 1e-12:
                failures.append(f"pmf.{config}: mass {math.fsum(probs)!r} outside tail_bound")

    if "moments" in rows:
        got = rows["moments"].rows[0]
        ref = law("poisson", p["mu"], p["eta_h"], p["eta_s"], p["d_h"])
        for label, want in (("mean", ref.mean), ("variance", ref.variance)):
            if _relative(got[label], want) > MOMENT_RTOL:
                failures.append(f"moments: {label} {got[label]!r} vs reference {want!r}")

    if "optimize" in rows:
        mu_opt = rows["optimize"].rows[0]["mu_opt"]
        if not MU_OPT_WINDOW[0] <= mu_opt <= MU_OPT_WINDOW[1]:
            failures.append(f"optimize: mu_opt = {mu_opt!r} outside {MU_OPT_WINDOW}")
        failures += check_fano_minimum(0.5, 0.5, 1e-4, mu_opt, "optimize")

    if "sweep" in rows:
        for r in rows["sweep"].rows:
            head = [r[f"p{i}"] for i in range(4) if r[f"p{i}"] is not None]
            row = [r["mu"], r["error"], r["mean"], r["variance"], *head]
            failures += check_sweep_row(row, "poisson", dict(p, mu=r["mu"]),
                                        f"sweep mu={r['mu']!r}")

    if "simulate" in rows:
        s, sim = inputs["sim_params"], rows["simulate"].rows
        heralded = sim[0]["heralded"]
        counts = [round(r["pmf_hat"] * heralded) for r in sim]
        ref = law("poisson", s["mu"], s["eta_h"], s["eta_s"], s["d_h"])
        failures += check_histogram(counts, heralded, inputs["sim_trials"], ref, "simulate")
    return failures


def check_design_sweep(result) -> list:
    inputs, outputs = result["inputs"], result["outputs"]
    failures = []
    f_rows = {}
    for sweep in outputs["sweeps"]:
        if not _ok(sweep):
            continue
        s = inputs["settings"][sweep["setting"]]
        where = f"{sweep['config']} setting {sweep['setting']} along {sweep['axis']}"
        for row in sweep["rows"]:
            params = dict(s, **{sweep["axis"]: row[0]})
            failures += check_sweep_row(row, sweep["config"], params, f"{where} at {row[0]!r}")
        if sweep["axis"] == "f":
            f_rows[sweep["setting"], sweep["config"]] = sweep["rows"][-1]

    # At f = 1 both filtered laws are the thermal law: the pmf terms must
    # agree to rounding.  Each pmf is truncated at its own tail bound, so
    # their moments agree only to the moment tolerance.
    for (setting, config), row in f_rows.items():
        thermal = f_rows.get((setting, "thermal"))
        if not config.endswith("filtered") or thermal is None or row[1] is not None:
            continue
        dev = pmf_deviation(row[4:], thermal[4:])
        moments = max(_relative(a, b) for a, b in zip(row[2:4], thermal[2:4]))
        if dev > REDUCTION_TOL or moments > MOMENT_RTOL:
            failures.append(f"{config} setting {setting}: f = 1 row differs from thermal "
                            f"by {dev:.3g} per term, {moments:.3g} in the moments")

    if _ok(outputs["optima"]):
        for point, out in zip(inputs["opt_grid"], outputs["optima"]):
            failures += check_fano_minimum(point["eta_h"], point["eta_s"], point["d_h"],
                                           out["mu_opt"], f"optimize_mu at {point}")
    return failures


def check_oracle_scan(result) -> list:
    inputs, outputs = result["inputs"], result["outputs"]
    failures = []
    for checks in filter(_ok, outputs["verify"]):
        failures += [f"verify: {name} deviates by {dev:.3g} (tolerance {tol:.3g})"
                     for name, _, dev, tol, passed in checks if not passed]
    routes = {
        "poisson": ("poisson", "series.poisson"),
        "thermal": ("thermal", "series.thermal"),
        "signal_filtered": ("signal_filtered",),
        "herald_filtered": ("herald_filtered", "convolution.herald_filtered"),
    }
    for c, out in zip(inputs["corner"], outputs["corner"]):
        if not _ok(out):
            continue
        for config, keys in routes.items():
            ref = law(config, c["mu"], c["eta_h"], c["eta_s"], c["d_h"], c["f"]).heralded
            for key in keys:
                dev = pmf_deviation(out[key][0], ref)
                if dev > PMF_TOL:
                    failures.append(f"corner mu={c['mu']} f={c['f']}: {key} off the "
                                    f"reference by {dev:.3g}")
            if len(keys) == 2:
                dev = pmf_deviation(out[keys[0]][0], out[keys[1]][0])
                if dev > PMF_TOL:
                    failures.append(f"corner mu={c['mu']} f={c['f']}: {keys[0]} and "
                                    f"{keys[1]} differ by {dev:.3g}")
    return failures


def check_mc_simulate(result) -> list:
    failures = []
    for name, out in result["outputs"].items():
        if not _ok(out):
            continue
        config = {"none": out["stat"], "signal": "signal_filtered",
                  "herald": "herald_filtered"}[out["branch"]]
        ref = law(config, out["mu"], out["eta_h"], out["eta_s"], out["d_h"], out["f"])
        failures += check_histogram(out["counts"], out["heralded"], out["trials"], ref, name)
    return failures


def check(result, parse) -> list:
    """All checks of one worker result."""
    workload = result["workload"]
    if workload == "cli_cold":
        failures = check_cli_cold(result, parse)
    else:
        failures = {"design_sweep": check_design_sweep,
                    "oracle_scan": check_oracle_scan,
                    "mc_simulate": check_mc_simulate}[workload](result)
    return check_digests(result) + failures
