"""Independent high-precision reference for the closed-form engine.

Every quantity here is recomputed from the model's defining integrals with
mpmath's adaptive quadrature at ``DPS`` significant digits, without the
closed-form interference transform or the package's Gauss-Legendre rule.
"""
import math
from dataclasses import replace

import pytest

from leosec import analytics
from leosec.config import Tier, table2_config

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

SPEED_OF_LIGHT = 299_792_458
# enough for the alternating fading sum at shape 5; more only costs time
DPS = 20


def _model(cfg):
    """Link constants of ``cfg`` as mpf values."""
    radio = cfg.radio
    return {
        "re": mp.mpf(cfg.earth_radius_km),
        "lam": mp.mpf(cfg.device_density_per_km2),
        "ptg": mp.mpf(radio.tx_power_w) * mp.mpf(radio.antenna_gain_linear),
        "k1": (SPEED_OF_LIGHT / (4 * mp.pi * mp.mpf(radio.carrier_hz) * 1000)) ** 2,
        "m1": cfg.fading.shape_m1,
        "m2": mp.mpf(cfg.fading.scale_m2),
        "noise": mp.mpf(radio.noise_density_w_per_hz) * mp.mpf(radio.bandwidth_hz),
    }


def _distance_sq(theta, rs, k):
    return k["re"] ** 2 + rs ** 2 - 2 * k["re"] * rs * mp.cos(theta)


def _laplace(s, rs, theta_max, k):
    """E[exp(-s I)] from the theta-integral of the Poisson Laplace functional."""
    def integrand(theta):
        x = k["m2"] * s * k["ptg"] * k["k1"] / _distance_sq(theta, rs, k)
        return (1 - (1 + x) ** (-k["m1"])) * mp.sin(theta)
    exponent = mp.quad(integrand, [0, theta_max])
    return mp.exp(-k["lam"] * 2 * mp.pi * k["re"] ** 2 * exponent)


def _secrecy_outage(cfg):
    """Product over eavesdropper tiers of (1 - P[one satellite exceeds])^N."""
    k = _model(cfg)
    m1, info = k["m1"], mp.mpf(cfg.radio.info_ratio)
    beta = mp.mpf(cfg.beta_es)
    rate = mp.factorial(m1) ** (mp.mpf(-1) / m1) / k["m2"]
    margin = info - beta * (1 - info)
    total = mp.mpf(1)
    for i, geom in enumerate(cfg.tier_geometries()):
        if i == cfg.legit_tier or geom.num_satellites == 0:
            continue
        rs, theta_max = mp.mpf(geom.shell_radius_km), mp.mpf(geom.max_central_angle)

        def exceed(theta):
            s = rate * beta * _distance_sq(theta, rs, k) / (margin * k["ptg"] * k["k1"])
            return sum(math.comb(m1, q) * (-1) ** (q + 1) * mp.exp(-q * s * k["noise"])
                       * _laplace(q * s, rs, theta_max, k) for q in range(1, m1 + 1))

        mass = mp.quad(lambda t: exceed(t) * mp.sin(t) / 2, [0, theta_max])
        total *= (1 - mass) ** geom.num_satellites
    return total


@pytest.mark.parametrize("m1", [1, 2, 3, 5])
def test_interference_transform_matches_quadrature_reference(m1):
    cfg = table2_config()
    cfg = replace(cfg, fading=replace(cfg.fading, shape_m1=m1))
    with mp.workdps(DPS):
        k = _model(cfg)
        for geom in cfg.tier_geometries():
            rs, theta_max = mp.mpf(geom.shell_radius_km), mp.mpf(geom.max_central_angle)
            for scale in (1e-3, 1.0, 1e3):
                s = scale / cfg.noise_w
                want = _laplace(mp.mpf(s), rs, theta_max, k)
                got = analytics.interference_laplace(s, geom, cfg)
                assert abs(got - want) <= 1e-12 * want, (geom, scale, got, want)


def test_interference_transform_on_narrow_dense_caps():
    # A narrow beam leaves u1 - u0 tiny next to u0, where forming it from
    # d(theta_max)^2 or differencing t1^k - t0^k directly loses digits; the
    # dense field makes the exponent large enough for that to show.
    cfg = table2_config()
    cfg = replace(cfg, theta_beam=0.01, device_density_per_km2=1e-2,
                  fading=replace(cfg.fading, shape_m1=5))
    with mp.workdps(DPS):
        k = _model(cfg)
        for geom in cfg.tier_geometries():
            rs, theta_max = mp.mpf(geom.shell_radius_km), mp.mpf(geom.max_central_angle)
            for scale in (1e-3, 1.0, 1e3):
                s = scale / cfg.noise_w
                want = _laplace(mp.mpf(s), rs, theta_max, k)
                got = analytics.interference_laplace(s, geom, cfg)
                assert abs(got - want) <= 1e-12 * want, (geom, scale, got, want)


def test_secrecy_outage_matches_reference_at_tiny_threshold():
    # A fuzz-range scenario whose outage quadrature used to fail to converge:
    # at beta_es ~ 5e-6 a satellite in view almost surely exceeds, so the
    # below-threshold integrand was rounding dust.
    cfg = table2_config()
    cfg = replace(cfg, tiers=(Tier(32003.261037644104, 3233), Tier(469.98043213069, 4581)),
                  legit_tier=0, fading=replace(cfg.fading, shape_m1=5),
                  beta_ls=5.150416985722238e-05, beta_es=4.752407042117199e-06)
    with mp.workdps(DPS):
        want = _secrecy_outage(cfg)
    got = analytics.secrecy_outage_probability(cfg)
    assert 0.0 < got < 1.0
    assert abs(got - want) <= 1e-8 * want
