"""Physical properties of the benchmark's reference law (no hspstats)."""

import math

import numpy as np
import pytest

import reference

PARAMS = [
    (0.01, 0.5, 0.5, 1e-4, 0.1),
    (0.3, 0.9, 0.2, 1e-6, 0.5),
    (2.0, 0.05, 0.95, 1e-2, 0.8),
    (15.0, 0.6, 0.7, 0.0, 0.3),
]


@pytest.mark.parametrize("mu", [0.001, 0.01, 0.1, 1.0])
def test_perfect_source_limits(mu):
    """eta_h = eta_s = 1 and d_h = 0: no vacuum after a herald, and the
    single-photon terms of the Poisson and thermal laws."""
    pois = reference.signal_law("poisson", mu, 1.0, 1.0, 0.0).heralded
    ther = reference.signal_law("thermal", mu, 1.0, 1.0, 0.0).heralded
    assert pois[0] == pytest.approx(0.0, abs=1e-15)
    assert ther[0] == pytest.approx(0.0, abs=1e-15)
    assert pois[1] == pytest.approx(mu / math.expm1(mu), abs=1e-12)
    assert ther[1] == pytest.approx(1.0 / (1.0 + mu), abs=1e-12)


@pytest.mark.parametrize("config", ["poisson", "thermal"])
@pytest.mark.parametrize("eta_h, d_h", [(0.5, 1e-4), (0.2, 1e-3)])
def test_heralding_gain_at_vanishing_mu(config, eta_h, d_h):
    """xi(1)/xi(0) tends to 1 - eta_h + eta_h/d_h as mu -> 0."""
    law = reference.signal_law(config, 1e-12, eta_h, 0.5, d_h)
    xi = law.heralded[:2] / law.unconditioned[:2]
    assert xi[1] / xi[0] == pytest.approx(1.0 - eta_h + eta_h / d_h, rel=1e-6)


@pytest.mark.parametrize("mu, eta_h, eta_s, d_h, _", PARAMS)
def test_filtered_configurations_at_full_fraction_are_thermal(mu, eta_h, eta_s, d_h, _):
    thermal = reference.signal_law("thermal", mu, eta_h, eta_s, d_h)
    for config in ("signal_filtered", "herald_filtered"):
        law = reference.signal_law(config, mu, eta_h, eta_s, d_h, 1.0)
        size = min(len(law.heralded), len(thermal.heralded))
        assert np.max(np.abs(law.heralded[:size] - thermal.heralded[:size])) < 1e-13
        assert law.p_click == pytest.approx(thermal.p_click, rel=1e-13)


@pytest.mark.parametrize("config", sorted(reference.CONFIGURATIONS))
@pytest.mark.parametrize("mu, eta_h, eta_s, d_h, f", PARAMS)
def test_normalization(config, mu, eta_h, eta_s, d_h, f):
    law = reference.signal_law(config, mu, eta_h, eta_s, d_h, f)
    assert 1.0 - law.tail - 1e-13 <= math.fsum(law.heralded) <= 1.0 + 1e-13
    assert math.fsum(law.unconditioned) == pytest.approx(1.0, abs=1e-13)
    assert law.tail <= reference.TRUNCATION
    assert law.mean > 0.0 and law.variance > 0.0


@pytest.mark.parametrize("mu, eta_h, eta_s, d_h, _", PARAMS)
def test_poisson_click_probability(mu, eta_h, eta_s, d_h, _):
    """A Poisson source heralds with 1 - (1 - d_h) exp(-mu eta_h)."""
    law = reference.signal_law("poisson", mu, eta_h, eta_s, d_h)
    expected = 1.0 - (1.0 - d_h) * math.exp(-mu * eta_h)
    assert law.p_click == pytest.approx(expected, rel=1e-13)
