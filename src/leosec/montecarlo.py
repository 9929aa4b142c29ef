"""Simulation oracle: estimate every metric by direct sampling of worlds.

A world is the uniform-shell model the closed forms analyse: each tier's N
satellites are i.i.d. uniform on its shell, links draw i.i.d. channel gains,
and each receiver that sees the reference device hears its own Poisson field
of devices on its visibility cap, with i.i.d. Gamma(m1, m2) gains.

Blocks of ``BLOCK_TRIALS`` worlds are drawn as arrays by exact thinning, with
no use of the closed-form contact law.  A tier's in-cap count K is
Binomial(N, (1 - cos theta_max) / 2); the tier is in view when K > 0.  The
serving tier needs only its nearest cosine, the largest of K uniform cap
cosines, ``c + (1 - c) * U**(1/K)``; an eavesdropper tier draws all K.
``empirical_availability`` and ``sample_nearest_angles`` (the whole sphere,
K = N) make these same draws, so the acceptance checks of the contact-angle
law certify the simulator's own sampler.

Exact pruning: interference only lowers an SINR, so a link that misses its
threshold on part of its field misses it on the whole.  A field is drawn as
independent Poisson stages of growing mean that sum to the cap mean, and
only for links still clearing their threshold.  ``_interference_fields`` is
the one interference draw.  Azimuths never enter an observable.

Seeding: block i draws from the i-th child of ``SeedSequence(master_seed)
.spawn``, so estimates are bit-identical for any worker count and a block's
worlds do not depend on how many blocks follow.  Blocks run on ``n_jobs``
threads, by default LEOSEC_THREADS.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import received_power, sample_fades, sinr_eavesdropper, sinr_legitimate
from .config import NetworkConfig
from .geometry import cap_area_km2, central_angle_to_distance, sample_cap_cosines

THREADS_ENV_VAR = "LEOSEC_THREADS"
BLOCK_TRIALS = 256
_CHUNK_DEVICES = 1 << 15        # interferers per ``_interference_fields`` call
_FIRST_STAGE_DEVICES = 4.0      # mean devices in a field's first stage; x4 per stage


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
    covered: bool                  # serving tier in view and its SINR above beta_ls
    outage: bool                   # no eavesdropper SINR reaches beta_es


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_trials: int
    master_seed: int


def legit_link_sinr(cfg: NetworkConfig, theta0, fade, interference_w):
    """Serving-link SINR for given contact angles, channel gains and
    interference powers (scalars or arrays)."""
    geom = cfg.legit_geometry()
    d = central_angle_to_distance(theta0, geom.shell_radius_km, cfg.earth_radius_km)
    signal = received_power(cfg.radio, d, fade)
    return sinr_legitimate(signal, interference_w, cfg.noise_w, cfg.radio.info_ratio)


def _clears(cfg, k, geom, thetas, fades, interference_w):
    """Whether each link to tier ``k`` clears its threshold: SINR above
    beta_ls for the serving tier, at least beta_es for an eavesdropper."""
    if k == cfg.legit_tier:
        return legit_link_sinr(cfg, thetas, fades, interference_w) > cfg.beta_ls
    d = central_angle_to_distance(thetas, geom.shell_radius_km, cfg.earth_radius_km)
    signal = received_power(cfg.radio, d, fades)
    return sinr_eavesdropper(signal, interference_w, cfg.noise_w, cfg.radio.info_ratio) >= cfg.beta_es


def _cap_mean(cfg: NetworkConfig, geom) -> float:
    """Mean number of devices on a receiver's visibility cap."""
    return cfg.device_density_per_km2 * cap_area_km2(geom.max_central_angle, cfg.earth_radius_km)


def _interference_fields(cfg, rng, geom, counts) -> np.ndarray:
    """Total interference power (W) at each receiver of one tier, given the
    Poisson device count on each receiver's visibility cap."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(counts.size)
    cos_a = sample_cap_cosines(rng, geom.max_central_angle, total)
    d = np.sqrt(cfg.earth_radius_km ** 2 + geom.shell_radius_km ** 2
                - 2.0 * cfg.earth_radius_km * geom.shell_radius_km * cos_a)
    # interferer gains follow the Gamma(m1, scale m2) law the closed-form
    # transform averages over, not the serving/eavesdropper link law
    gains = rng.gamma(cfg.fading.shape_m1, cfg.fading.scale_m2, total)
    powers = received_power(cfg.radio, d, gains)
    owner = np.repeat(np.arange(counts.size), counts)
    return np.bincount(owner, weights=powers, minlength=counts.size)


def _chunked_fields(cfg, rng, geom, cap_mean, n_fields) -> np.ndarray:
    """Interference at ``n_fields`` receivers, drawn in runs of receivers
    holding at most ``_CHUNK_DEVICES`` devices (or one receiver's field)."""
    counts = rng.poisson(cap_mean, n_fields)
    ends, out, lo = np.cumsum(counts), np.empty(n_fields), 0
    while lo < n_fields:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + _CHUNK_DEVICES, "right")))
        out[lo:hi] = _interference_fields(cfg, rng, geom, counts[lo:hi])
        lo = hi
    return out


def _in_cap_counts(rng, num_satellites: int, theta_max: float, n: int) -> np.ndarray:
    """In-cap satellite count K of ``n`` worlds: Binomial(N, (1 - cos theta_max) / 2)."""
    return rng.binomial(num_satellites, 0.5 * (1.0 - math.cos(theta_max)), n)


def _nearest_cosines(rng, theta_max: float, counts) -> np.ndarray:
    """Nearest of K = ``counts[i]`` > 0 uniform cap cosines: ``c + (1 - c) * U**(1/K)``."""
    c = math.cos(theta_max)
    return c + (1.0 - c) * rng.random(counts.size) ** (1.0 / counts)


def _simulate_block(cfg, tiers, rng, n):
    """Indicators of ``n`` independent worlds: in view (n, tiers), covered
    (n,) and outage (n,).  Draws in-cap counts, then per tier the cosines,
    gains and staged device fields.  ``tiers`` holds (geometry, cap mean)."""
    in_cap = np.stack([_in_cap_counts(rng, g.num_satellites, g.max_central_angle, n)
                       for g, _ in tiers], axis=1)
    covered, outage = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    for k, (g, cap_mean) in enumerate(tiers):
        seen = np.flatnonzero(in_cap[:, k])
        if k == cfg.legit_tier:
            owner, cosines = seen, _nearest_cosines(rng, g.max_central_angle, in_cap[seen, k])
        else:
            owner = np.repeat(seen, in_cap[seen, k])
            cosines = sample_cap_cosines(rng, g.max_central_angle, owner.size)
        thetas = np.arccos(np.minimum(cosines, 1.0))
        fades = sample_fades(cfg.fading, rng, owner.size)
        live = np.flatnonzero(_clears(cfg, k, g, thetas, fades, 0.0))
        partial = np.zeros(owner.size)
        done, upto = 0.0, _FIRST_STAGE_DEVICES
        while live.size and done < cap_mean:
            upto = min(upto, cap_mean)
            partial[live] += _chunked_fields(cfg, rng, g, upto - done, live.size)
            live = live[_clears(cfg, k, g, thetas[live], fades[live], partial[live])]
            done, upto = upto, 4.0 * upto
        if k == cfg.legit_tier:
            covered[owner[live]] = True
        else:
            outage[owner[live]] = False
    return in_cap > 0, covered, outage


def run_trial(cfg: NetworkConfig, trial_seed: int) -> TrialOutcome:
    """Sample one world from ``trial_seed`` and score it (a one-trial block)."""
    tiers = [(g, _cap_mean(cfg, g)) for g in cfg.tier_geometries()]
    in_view, covered, outage = _simulate_block(cfg, tiers, np.random.default_rng(trial_seed), 1)
    return TrialOutcome(tuple(bool(v) for v in in_view[0]), bool(covered[0]), bool(outage[0]))


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
    n_jobs = max(1, default_thread_count() if n_jobs is None else n_jobs)
    tiers = [(g, _cap_mean(cfg, g)) for g in cfg.tier_geometries()]
    n_blocks = -(-n_trials // BLOCK_TRIALS)
    block_seeds = np.random.SeedSequence(master_seed).spawn(n_blocks)

    def block(i: int):
        n = min(BLOCK_TRIALS, n_trials - i * BLOCK_TRIALS)
        return _simulate_block(cfg, tiers, np.random.default_rng(block_seeds[i]), n)

    with ThreadPoolExecutor(max_workers=min(n_jobs, n_blocks)) as pool:  # no thread at 1 job
        parts = list((map if n_jobs <= 1 else pool.map)(block, range(n_blocks)))
    in_view, covered, outage = (np.concatenate(a) for a in zip(*parts))

    def indicator(mean: float) -> McEstimate:
        stderr = math.sqrt(mean * (1.0 - mean) / n_trials)
        return McEstimate(mean=mean, stderr=stderr, n_trials=n_trials, master_seed=master_seed)

    out = {f"p_av_{k}": indicator(float(in_view[:, k].mean())) for k in range(len(tiers))}
    p_cov, p_out = float(covered.mean()), float(outage.mean())
    p_suc = out[f"p_av_{cfg.legit_tier}"].mean * p_cov
    out.update(p_cov=indicator(p_cov), p_suc=indicator(p_suc), p_out=indicator(p_out),
               p_sec=indicator(p_suc * p_out))
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
    geom = cfg.tier_geometries()[tier_index]
    fields = _interference_fields(cfg, rng, geom, rng.poisson(_cap_mean(cfg, geom), n_real))
    out = []
    for s in s_arr:
        vals = np.exp(-s * fields)
        stderr = float(vals.std(ddof=1) / math.sqrt(n_real)) if n_real > 1 else 0.0
        out.append(McEstimate(mean=float(vals.mean()), stderr=stderr,
                              n_trials=n_real, master_seed=seed))
    return out


def empirical_availability(num_satellites: int, theta_max: float,
                           n_constellations: int, seed: int) -> float:
    """Fraction of sampled constellations with a satellite inside the cap,
    drawn as the simulator draws its in-cap counts."""
    counts = _in_cap_counts(np.random.default_rng(seed), num_satellites, theta_max,
                            n_constellations)
    return np.count_nonzero(counts) / n_constellations


def sample_nearest_angles(num_satellites: int, n_samples: int, seed: int) -> np.ndarray:
    """Nearest-satellite central angles over sampled constellations, drawn as
    the simulator draws its serving satellite (pi for an empty constellation)."""
    if num_satellites == 0:
        return np.full(n_samples, math.pi)
    cosines = _nearest_cosines(np.random.default_rng(seed), math.pi,  # the sphere holds all N
                               np.full(n_samples, num_satellites))
    return np.arccos(np.minimum(cosines, 1.0))
