"""Simulation oracle: estimate every metric by direct trial sampling.

Each trial draws a fresh world: satellite positions per tier (independent
uniform points on each shell), the serving link's channel gain, and -- for
every receiver that can see the reference device -- an independent Poisson
field of interfering devices on that receiver's visibility cap with i.i.d.
Gamma(m1, scale m2) channel gains.  SINRs follow from the same link model
the closed forms use, so the two engines agree in distribution and differ
only by sampling noise.

Because the reference device sits at polar angle 0, a satellite's central
angle to it equals the satellite's polar angle, and interferers only matter
through their central angle to their receiver; azimuths therefore never
enter any observable and are not drawn.

Reproducibility: trial i is driven by a generator seeded from a counter
stream derived from the master seed alone, so estimates are bit-identical
for any execution order or worker count.  The worker count defaults to the
LEOSEC_THREADS environment variable.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import received_power, sample_fades, sinr_eavesdropper, sinr_legitimate
from .config import NetworkConfig
from .geometry import (cap_area_km2, central_angle_to_distance, sample_cap_cosines,
                       sample_sphere_cosines)

THREADS_ENV_VAR = "LEOSEC_THREADS"


def default_thread_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
    return max(1, n)


@dataclass(frozen=True)
class TrialOutcome:
    in_view_per_tier: tuple[bool, ...]
    sinr_ls: float | None          # None when the serving tier is not in view
    max_es_sinr: float             # 0 when no eavesdropper sees the device


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_trials: int
    master_seed: int


def trial_seeds(master_seed: int, n_trials: int) -> np.ndarray:
    """Per-trial seeds: a counter-based stream derived from the master seed."""
    return np.random.SeedSequence(master_seed).generate_state(n_trials, dtype=np.uint64)


def legit_link_sinr(cfg: NetworkConfig, theta0: float, fade: float,
                    interference_w: float) -> float:
    """Serving-link SINR for a given contact angle, channel gain, and
    interference draw (the deterministic core of a trial's step 2)."""
    geom = cfg.legit_geometry()
    d = central_angle_to_distance(theta0, geom.shell_radius_km, cfg.earth_radius_km)
    signal = received_power(cfg.radio, d, fade)
    return sinr_legitimate(signal, interference_w, cfg.noise_w, cfg.radio.info_ratio)


def _eavesdropper_sinrs(cfg, shell_radius_km, thetas, fades, interference_w):
    d = central_angle_to_distance(thetas, shell_radius_km, cfg.earth_radius_km)
    signal = received_power(cfg.radio, d, fades)
    return sinr_eavesdropper(signal, interference_w, cfg.noise_w, cfg.radio.info_ratio)


def _cap_poisson_means(cfg: NetworkConfig) -> tuple[float, ...]:
    return tuple(cfg.device_density_per_km2
                 * cap_area_km2(g.max_central_angle, cfg.earth_radius_km)
                 for g in cfg.tier_geometries())


def _interference_fields(cfg, rng, tier_index, n_fields, cap_mean) -> np.ndarray:
    """Total interference power (W) at each of ``n_fields`` receivers of one
    tier, each with its own Poisson device field on its visibility cap."""
    if cap_mean == 0.0 or n_fields == 0:
        return np.zeros(n_fields)
    geom = cfg.tier_geometries()[tier_index]
    counts = rng.poisson(cap_mean, n_fields)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(n_fields)
    cos_a = sample_cap_cosines(rng, geom.max_central_angle, total)
    d = np.sqrt(cfg.earth_radius_km ** 2 + geom.shell_radius_km ** 2
                - 2.0 * cfg.earth_radius_km * geom.shell_radius_km * cos_a)
    # interferer gains follow the Gamma(m1, scale m2) law the closed-form
    # transform averages over, not the serving/eavesdropper link law
    gains = rng.gamma(cfg.fading.shape_m1, cfg.fading.scale_m2, total)
    powers = received_power(cfg.radio, d, gains)
    owner = np.repeat(np.arange(n_fields), counts)
    return np.bincount(owner, weights=powers, minlength=n_fields)


def run_trial(cfg: NetworkConfig, trial_seed: int) -> TrialOutcome:
    """Sample one world and score it.

    Draw order is fixed: satellite angles per tier, then the serving link's
    gain and interference field, then per eavesdropper tier the gains and
    interference fields of the in-view satellites.
    """
    rng = np.random.default_rng(trial_seed)
    geoms = cfg.tier_geometries()
    cap_means = _cap_poisson_means(cfg)
    m = cfg.legit_tier

    polar = [np.arccos(np.clip(sample_sphere_cosines(rng, g.num_satellites), -1.0, 1.0))
             for g in geoms]
    in_view = tuple(bool(p.size) and float(p.min()) <= g.max_central_angle
                    for p, g in zip(polar, geoms))

    sinr_ls = None
    if in_view[m]:
        fade0 = float(sample_fades(cfg.fading, rng, 1)[0])
        interference = float(_interference_fields(cfg, rng, m, 1, cap_means[m])[0])
        sinr_ls = float(legit_link_sinr(cfg, float(polar[m].min()), fade0, interference))

    max_es = 0.0
    for k, geom in enumerate(geoms):
        if k == m or not in_view[k]:
            continue
        thetas = polar[k][polar[k] <= geom.max_central_angle]
        fades = sample_fades(cfg.fading, rng, thetas.size)
        fields = _interference_fields(cfg, rng, k, thetas.size, cap_means[k])
        sinrs = _eavesdropper_sinrs(cfg, geom.shell_radius_km, thetas, fades, fields)
        max_es = max(max_es, float(np.max(sinrs)))

    return TrialOutcome(in_view_per_tier=in_view, sinr_ls=sinr_ls, max_es_sinr=max_es)


def estimate(cfg: NetworkConfig, n_trials: int, master_seed: int,
             n_jobs: int | None = None) -> dict[str, McEstimate]:
    """Frequency estimates of all metrics over ``n_trials`` worlds.

    Returns keys ``p_av_<k>`` per tier, ``p_cov`` (joint frequency of being
    in view and clearing beta_ls), ``p_suc`` (availability times that joint
    frequency), ``p_out``, and ``p_sec`` (p_suc times p_out).  Product
    metrics carry the binomial stderr of their composed mean.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if n_jobs is None:
        n_jobs = default_thread_count()
    n_tiers = len(cfg.tiers)
    m = cfg.legit_tier
    seeds = trial_seeds(master_seed, n_trials)

    in_view = np.zeros((n_trials, n_tiers), dtype=bool)
    covered = np.zeros(n_trials, dtype=bool)
    outage = np.zeros(n_trials, dtype=bool)

    def work(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            o = run_trial(cfg, int(seeds[i]))
            in_view[i] = o.in_view_per_tier
            covered[i] = o.sinr_ls is not None and o.sinr_ls > cfg.beta_ls
            outage[i] = o.max_es_sinr < cfg.beta_es

    if n_jobs <= 1:
        work(0, n_trials)
    else:
        chunk = math.ceil(n_trials / n_jobs)
        bounds = [(lo, min(lo + chunk, n_trials)) for lo in range(0, n_trials, chunk)]
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            for future in [pool.submit(work, lo, hi) for lo, hi in bounds]:
                future.result()

    def indicator(mean: float) -> McEstimate:
        stderr = math.sqrt(mean * (1.0 - mean) / n_trials)
        return McEstimate(mean=mean, stderr=stderr, n_trials=n_trials, master_seed=master_seed)

    out = {f"p_av_{k}": indicator(float(in_view[:, k].mean())) for k in range(n_tiers)}
    p_cov = float(covered.mean())
    p_out = float(outage.mean())
    p_suc = out[f"p_av_{m}"].mean * p_cov
    out["p_cov"] = indicator(p_cov)
    out["p_suc"] = indicator(p_suc)
    out["p_out"] = indicator(p_out)
    out["p_sec"] = indicator(p_suc * p_out)
    return out


def estimate_laplace(cfg: NetworkConfig, tier_index: int, s_grid,
                     n_real: int, seed: int) -> list[McEstimate]:
    """Empirical E[exp(-s * I)] on a shared set of interference realizations.

    One batch of ``n_real`` device fields is drawn for the given tier's cap
    and reused across the whole s grid; each grid point gets its own mean
    and sample stderr.
    """
    s_arr = np.asarray(list(s_grid), dtype=float)
    if np.any(s_arr < 0.0):
        raise ValueError("s values must be nonnegative")
    if n_real < 1:
        raise ValueError(f"n_real must be >= 1, got {n_real}")
    rng = np.random.default_rng(seed)
    cap_mean = _cap_poisson_means(cfg)[tier_index]
    fields = _interference_fields(cfg, rng, tier_index, n_real, cap_mean)
    out = []
    for s in s_arr:
        vals = np.exp(-s * fields)
        stderr = float(vals.std(ddof=1) / math.sqrt(n_real)) if n_real > 1 else 0.0
        out.append(McEstimate(mean=float(vals.mean()), stderr=stderr,
                              n_trials=n_real, master_seed=seed))
    return out


def _max_cosines(num_satellites: int, n_constellations: int, seed: int,
                 batch: int) -> np.ndarray:
    """Largest polar-angle cosine (i.e. the nearest satellite) of each of
    ``n_constellations`` sampled constellations of N uniform shell points;
    -inf for an empty constellation."""
    rng = np.random.default_rng(seed)
    out = np.empty(n_constellations)
    filled = 0
    while filled < n_constellations:
        b = min(batch, n_constellations - filled)
        cos_t = rng.uniform(-1.0, 1.0, (b, num_satellites))
        out[filled:filled + b] = cos_t.max(axis=1, initial=-np.inf)
        filled += b
    return out


def empirical_availability(num_satellites: int, theta_max: float,
                           n_constellations: int, seed: int,
                           batch: int = 20_000) -> float:
    """Fraction of sampled constellations with a satellite inside the cap."""
    max_cos = _max_cosines(num_satellites, n_constellations, seed, batch)
    return int((max_cos >= math.cos(theta_max)).sum()) / n_constellations


def sample_nearest_angles(num_satellites: int, n_samples: int, seed: int,
                          batch: int = 20_000) -> np.ndarray:
    """Nearest-satellite central angles over sampled constellations (pi
    for an empty constellation)."""
    return np.arccos(np.clip(_max_cosines(num_satellites, n_samples, seed, batch), -1.0, 1.0))
