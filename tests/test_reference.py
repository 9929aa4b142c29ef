"""Independent high-precision reference for the closed-form engine.

Every quantity here is recomputed from the model's defining integrals with
mpmath's adaptive quadrature at ``DPS`` significant digits, without the
closed-form interference transform or the package's Gauss-Legendre rule.
Where the fading sum has many terms, the transform runs on one fixed
mpmath Gauss-Legendre rule per tier instead, first checked against the
adaptive one.
"""
import math
from dataclasses import replace

import pytest

from leosec import analytics
from leosec.channel import MAX_SHAPE_M1
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
        "rate": mp.factorial(cfg.fading.shape_m1) ** (mp.mpf(-1) / cfg.fading.shape_m1)
        / mp.mpf(cfg.fading.scale_m2),
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


def _cap_rule(rs, theta_max, k, degree):
    """mpmath's Gauss-Legendre rule of ``degree`` (3 * 2^(degree-1) nodes) on
    the cap, as (weight * sin(phi), 1 / d(phi)^2) pairs for ``_laplace_on``."""
    rule = mpmath.calculus.quadrature.GaussLegendre(mp)
    return [(w * mp.sin(phi), 1 / _distance_sq(phi, rs, k))
            for phi, w in rule.get_nodes(mp.zero, theta_max, degree, mp.prec)]


def _laplace_on(s, cap_rule, k):
    """``_laplace`` with one fixed rule shared by every s: the same integrand
    at a fraction of the cost of adaptive quadrature per call."""
    x = k["m2"] * s * k["ptg"] * k["k1"]
    exponent = mp.fsum(w * (1 - (1 + x * inv_d2) ** (-k["m1"])) for w, inv_d2 in cap_rule)
    return mp.exp(-k["lam"] * 2 * mp.pi * k["re"] ** 2 * exponent)


def _scaling(theta, beta, margin, rs, k):
    """Per-unit-power factor s of a link's threshold event at angle theta."""
    return k["rate"] * beta * _distance_sq(theta, rs, k) / (margin * k["ptg"] * k["k1"])


def _exceed(theta, beta, margin, rs, theta_max, k, cap_rule=None):
    """P[a link at angle theta clears SINR threshold beta]: the gain must
    exceed beta * (I + noise) / (margin * P * G * pg(d)), and the fading
    CCDF 1 - (1 - exp(-rate * x))^m1 expands into an alternating sum of
    exponentials, each averaged over the interference I (by adaptive
    quadrature, or on ``cap_rule`` when one is given)."""
    m1 = k["m1"]
    s = _scaling(theta, beta, margin, rs, k)

    def laplace(x):
        return _laplace(x, rs, theta_max, k) if cap_rule is None else _laplace_on(x, cap_rule, k)

    return sum(math.comb(m1, q) * (-1) ** (q + 1) * mp.exp(-q * s * k["noise"])
               * laplace(q * s) for q in range(1, m1 + 1))


def _coverage(cfg):
    """E[serving link's exceed probability; nearest satellite in the cap].

    The nearest angle has CDF u = 1 - ((1 + cos theta) / 2)^N, so the
    expectation is the integral over u in [0, u(theta_max)] of the exceed
    probability at theta(u) = arccos(2 (1 - u)^(1/N) - 1): a smooth
    integrand, where the angle density itself is sharply peaked.
    """
    k = _model(cfg)
    geom = cfg.legit_geometry()
    n, beta, info = geom.num_satellites, mp.mpf(cfg.beta_ls), mp.mpf(cfg.radio.info_ratio)
    rs, theta_max = mp.mpf(geom.shell_radius_km), mp.mpf(geom.max_central_angle)
    u_max = 1 - ((1 + mp.cos(theta_max)) / 2) ** n
    return mp.quad(lambda u: _exceed(mp.acos(2 * (1 - u) ** (mp.mpf(1) / n) - 1),
                                     beta, info, rs, theta_max, k), [0, u_max])


def _secrecy_outage(cfg, rule_degree=None):
    """Product over eavesdropper tiers of (1 - P[one satellite exceeds])^N.

    With ``rule_degree`` the transform runs on one shared Gauss-Legendre cap
    rule per tier, and the outer integral on mpmath's Gauss-Legendre method;
    the shared rule is first checked against adaptive quadrature of the
    transform at the extreme arguments the fading sum reaches.
    """
    k = _model(cfg)
    info, beta = mp.mpf(cfg.radio.info_ratio), mp.mpf(cfg.beta_es)
    margin = info - beta * (1 - info)
    total = mp.mpf(1)
    for i, geom in enumerate(cfg.tier_geometries()):
        if i == cfg.legit_tier or geom.num_satellites == 0:
            continue
        rs, theta_max = mp.mpf(geom.shell_radius_km), mp.mpf(geom.max_central_angle)
        rule, method = None, "tanh-sinh"
        if rule_degree is not None:
            rule, method = _cap_rule(rs, theta_max, k, rule_degree), "gauss-legendre"
            for s in (_scaling(0, beta, margin, rs, k),
                      k["m1"] * _scaling(theta_max, beta, margin, rs, k)):
                want = _laplace(s, rs, theta_max, k)
                assert abs(_laplace_on(s, rule, k) - want) <= mp.mpf(10) ** (4 - mp.dps) * want
        mass = mp.quad(lambda t: _exceed(t, beta, margin, rs, theta_max, k, rule) * mp.sin(t) / 2,
                       [0, theta_max], method=method)
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


def test_secrecy_outage_matches_reference_at_largest_fading_shape():
    # The fading sum alternates over q = 1..m1 with binomial weights, so its
    # rounding error grows like 2^m1; at the largest accepted shape p_out
    # still matches the reference to rel 4e-12.  The sum cancels about six
    # digits there, leaving 14 of DPS's 20.
    cfg = table2_config()
    cfg = replace(cfg, fading=replace(cfg.fading, shape_m1=MAX_SHAPE_M1))
    with mp.workdps(DPS):
        want = _secrecy_outage(cfg, rule_degree=4)
    got = analytics.secrecy_outage_probability(cfg)
    assert 0.0 < got < 1.0
    assert abs(got - want) <= 1e-10 * want


@pytest.mark.parametrize("edit", [
    lambda cfg: replace(cfg, fading=replace(cfg.fading, shape_m1=3)),
    lambda cfg: replace(cfg, tiers=tuple(replace(t, num_satellites=20) for t in cfg.tiers)),
], ids=["shape_3", "20_satellites_per_tier"])
def test_coverage_matches_reference(edit):
    cfg = edit(table2_config())
    # at shape <= 3 the fading sum cancels little, and 15 digits already put
    # the reference within 1e-14 of the engine; more digits would only cost time
    with mp.workdps(15):
        want = _coverage(cfg)
    got = analytics.coverage_probability(cfg)
    assert 0.0 < got < 1.0
    assert abs(got - want) <= 1e-8 * want
