"""The workload checks accept the reference's own outputs and reject
perturbed ones: a pmf term shifted by 1e-9, a Monte Carlo histogram drawn at
another mu, and an optimum moved off the minimum of the Fano ratio."""

import math

import numpy as np
import pytest

import checks
import reference

SETTING = {"mu": 0.2, "eta_h": 0.6, "eta_s": 0.4, "d_h": 1e-4, "f": 0.3}
CORNER = {"mu": 5.0, "f": 0.5, "eta_h": 0.3, "eta_s": 0.7, "d_h": 1e-3}


def _sweep_row(config, params):
    law = reference.signal_law(config, params["mu"], params["eta_h"], params["eta_s"],
                               params["d_h"], params["f"])
    return [params["mu"], None, law.mean, law.variance, *law.heralded[:4].tolist()]


def _corner_output():
    out = {}
    for config in reference.CONFIGURATIONS:
        law = reference.signal_law(config, CORNER["mu"], CORNER["eta_h"], CORNER["eta_s"],
                                   CORNER["d_h"], CORNER["f"])
        out[config] = [law.heralded.tolist(), law.tail]
    out["series.poisson"] = out["poisson"]
    out["series.thermal"] = out["thermal"]
    out["convolution.herald_filtered"] = out["herald_filtered"]
    return {"workload": "oracle_scan", "digests": ["x", "x"],
            "inputs": {"corner": [CORNER]}, "outputs": {"verify": [[]], "corner": [out]}}


def _mc_result(draw_mu, seed=7, trials=2_000_000):
    """A histogram sampled from the reference law at ``draw_mu``, labelled
    as a run at SETTING's mu."""
    rng = np.random.default_rng(seed)
    law = reference.signal_law("poisson", draw_mu, SETTING["eta_h"], SETTING["eta_s"],
                               SETTING["d_h"])
    heralded = int(rng.binomial(trials, law.p_click))
    probs = np.zeros(65)
    probs[:min(64, len(law.heralded))] = law.heralded[:64]
    probs[64] = max(0.0, 1.0 - probs[:64].sum())
    counts = rng.multinomial(heralded, probs / probs.sum()).tolist()
    out = {"stat": "poisson", "branch": "none", "f": 1.0, "mu": SETTING["mu"],
           "eta_h": SETTING["eta_h"], "eta_s": SETTING["eta_s"], "d_h": SETTING["d_h"],
           "trials": trials, "heralded": heralded, "seed": seed, "counts": counts}
    return {"workload": "mc_simulate", "digests": ["x", "x"], "outputs": {"poisson": out}}


def _reference_optimum(eta_h, eta_s, d_h):
    """Golden-section minimum of the reference Fano ratio over log mu."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(1e-4), math.log(1.0)
    fano = lambda x: reference.fano(math.exp(x), eta_h, eta_s, d_h)
    while b - a > 1e-7:
        c, d = b - (b - a) * inv_phi, a + (b - a) * inv_phi
        if fano(c) < fano(d):
            b = d
        else:
            a = c
    return math.exp((a + b) / 2.0)


@pytest.mark.parametrize("config", sorted(reference.CONFIGURATIONS))
def test_sweep_row_check_rejects_a_shifted_term(config):
    row = _sweep_row(config, SETTING)
    assert checks.check_sweep_row(row, config, SETTING, "row") == []
    row[5] += 1e-9
    assert checks.check_sweep_row(row, config, SETTING, "row")


def test_sweep_row_check_rejects_moments_off_the_reference():
    row = _sweep_row("thermal", SETTING)
    row[3] *= 1.0 + 1e-8
    assert checks.check_sweep_row(row, "thermal", SETTING, "row")


@pytest.mark.parametrize("key", ["poisson", "series.thermal", "convolution.herald_filtered",
                                 "signal_filtered"])
def test_corner_check_rejects_a_shifted_term(key):
    result = _corner_output()
    assert checks.check_oracle_scan(result) == []
    result["outputs"]["corner"][0][key][0][1] += 1e-9
    assert checks.check_oracle_scan(result)


def test_verify_failure_is_reported():
    result = _corner_output()
    result["outputs"]["verify"] = [[], [["some_check", 200, 1e-8, 1e-10, False]]]
    assert checks.check_oracle_scan(result)


def test_mc_check_accepts_a_histogram_drawn_at_the_stated_mu():
    assert checks.check_mc_simulate(_mc_result(SETTING["mu"])) == []


def test_mc_check_rejects_a_histogram_drawn_at_another_mu():
    assert checks.check_mc_simulate(_mc_result(1.5 * SETTING["mu"]))


def test_single_rare_event_is_within_five_sigma():
    """Expected 0.04 counts: one event is likely enough, though a normal
    approximation would put it 5 sigma out."""
    assert checks.count_within_5_sigma(1, 10_000, 4e-6)
    assert not checks.count_within_5_sigma(4, 10_000, 4e-6)


def test_fano_check_rejects_an_optimum_moved_off_the_minimum():
    mu_opt = _reference_optimum(0.5, 0.5, 1e-4)
    assert checks.check_fano_minimum(0.5, 0.5, 1e-4, mu_opt, "opt") == []
    assert checks.check_fano_minimum(0.5, 0.5, 1e-4, mu_opt * 1.02, "opt")
    assert checks.check_fano_minimum(0.5, 0.5, 1e-4, mu_opt / 1.02, "opt")


def test_rounds_that_disagree_are_rejected():
    assert checks.check_digests({"digests": ["a", "a"]}) == []
    assert checks.check_digests({"digests": ["a", "a", "b"]})


def test_a_run_that_never_replayed_its_inputs_is_rejected():
    assert checks.check_digests({"digests": ["a"]})
