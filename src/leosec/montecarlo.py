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

Link power: each link's received power is formed once, straight from its
drawn cap cosine c, as ``channel.received_power`` at 1 km and unit gain,
times the gain, over u = d^2 = Re^2 + Rs^2 - 2 Re Rs c (the free-space
form the closed forms integrate), and the stages carry each live link's
power and partial field.  Interferers take the same form.  It makes the
checks ``received_power`` makes (positive distance, nonnegative gain), and
a test holds it to ``received_power`` at
``geometry.central_angle_to_distance`` within rel 1e-12.  Only rounding
separates the two paths, so a world's draws (their sizes and order) and its
indicators are those of the angle -> distance -> ``received_power`` path bit
for bit, unless a ratio lies within rounding of its threshold, where the
rest of that block's draws differ.

Memory: a tier's eavesdropper links are drawn in runs of at most
``_MAX_LINKS`` (one world's links may span runs), so a block's arrays stay
bounded at any satellite count.  A block at or below the cap is one run,
and only a larger block's random stream depends on the cap.

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
from typing import NamedTuple

import numpy as np

from .channel import received_power, sample_fades
from .config import NetworkConfig
from .geometry import TierGeometry, cap_area_km2, sample_cap_cosines

THREADS_ENV_VAR = "LEOSEC_THREADS"
BLOCK_TRIALS = 256
_CHUNK_DEVICES = 1 << 15        # interferers per ``_interference_fields`` call
_FIRST_STAGE_DEVICES = 4.0      # mean devices in a field's first stage; x4 per stage
_MAX_LINKS = 1 << 20            # eavesdropper links per draw, bounding a block's memory


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


class _Tier(NamedTuple):
    """One tier's constants.  At cap cosine c a link's squared slant
    distance is u = a - b * c (km^2), by the law of cosines, and its
    received power ``scale * gain / u``, free-space loss being pg(1 km) / u."""

    geom: TierGeometry
    cap_mean: float         # mean devices on a receiver's visibility cap
    a: float                # Re^2 + Rs^2
    b: float                # 2 Re Rs
    scale: float            # received_power at 1 km, unit gain (W km^2); config-wide
    threshold: float        # cfg.link_threshold of the tier
    serving: bool


def _tiers(cfg: NetworkConfig) -> list[_Tier]:
    """Every tier's constants, formed once per estimate."""
    re, scale = cfg.earth_radius_km, received_power(cfg.radio, 1.0, 1.0)
    return [_Tier(g, cfg.device_density_per_km2 * cap_area_km2(g.max_central_angle, re),
                  re ** 2 + g.shell_radius_km ** 2, 2.0 * re * g.shell_radius_km, scale,
                  cfg.link_threshold(k), k == cfg.legit_tier)
            for k, g in enumerate(cfg.tier_geometries())]


def _powers(tier: _Tier, cosines, gains) -> np.ndarray:
    """Received power (W) of links at cap cosines ``cosines`` with channel
    gains ``gains``, checked as ``channel.received_power`` checks them."""
    u = tier.a - tier.b * cosines
    if (u <= 0.0).any():
        raise ValueError("distance_km must be positive")
    if (gains < 0.0).any():
        raise ValueError("fade must be nonnegative")
    return tier.scale * gains / u


def _clears(cfg, tier: _Tier, power, interference_w):
    """Whether each link clears its threshold: a ratio S / (I + N) above
    ``cfg.link_threshold(k)`` for the serving tier, at least it for an
    eavesdropper (SINR above beta_ls, at least beta_es)."""
    ratio = power / (interference_w + cfg.noise_w)
    return ratio > tier.threshold if tier.serving else ratio >= tier.threshold


def _interference_fields(cfg, rng, tier: _Tier, counts) -> np.ndarray:
    """Total interference power (W) at each receiver of one tier, given the
    Poisson device count on each receiver's visibility cap."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(counts.size)
    cos_a = sample_cap_cosines(rng, tier.geom.max_central_angle, total)
    # interferer gains follow the Gamma(m1, scale m2) law the closed-form
    # transform averages over, not the serving/eavesdropper link law
    gains = rng.gamma(cfg.fading.shape_m1, cfg.fading.scale_m2, total)
    owner = np.repeat(np.arange(counts.size), counts)
    return np.bincount(owner, weights=_powers(tier, cos_a, gains), minlength=counts.size)


def _chunked_fields(cfg, rng, tier: _Tier, mean: float, n_fields: int) -> np.ndarray:
    """Interference at ``n_fields`` receivers whose caps hold Poisson(``mean``)
    devices, drawn in runs of receivers holding at most ``_CHUNK_DEVICES``
    devices (or one receiver's field)."""
    counts = rng.poisson(mean, n_fields)
    ends, out, lo = np.cumsum(counts), np.empty(n_fields), 0
    while lo < n_fields:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + _CHUNK_DEVICES, "right")))
        out[lo:hi] = _interference_fields(cfg, rng, tier, counts[lo:hi])
        lo = hi
    return out


def _in_cap_counts(rng, num_satellites: int, theta_max: float, n: int) -> np.ndarray:
    """In-cap satellite count K of ``n`` worlds: Binomial(N, (1 - cos theta_max) / 2)."""
    return rng.binomial(num_satellites, 0.5 * (1.0 - math.cos(theta_max)), n)


def _nearest_cosines(rng, theta_max: float, counts) -> np.ndarray:
    """Nearest of K = ``counts[i]`` > 0 uniform cap cosines: ``c + (1 - c) * U**(1/K)``."""
    c = math.cos(theta_max)
    return c + (1.0 - c) * rng.random(counts.size) ** (1.0 / counts)


def _link_runs(seen, links):
    """Owner world of every link, ``links[i]`` links in world ``seen[i]``,
    in runs of at most ``_MAX_LINKS`` links; one world's links may span
    runs.  At or below the cap the loop makes one run of every link (none
    when there are no links)."""
    ends = np.cumsum(links)
    starts = ends - links
    for lo in range(0, int(ends[-1]) if ends.size else 0, _MAX_LINKS):
        yield np.repeat(seen, np.maximum(np.minimum(ends, lo + _MAX_LINKS)
                                         - np.maximum(starts, lo), 0))


def _survivors(cfg, rng, tier: _Tier, cosines) -> np.ndarray:
    """Indices of the links at ``cosines`` that clear their threshold over
    their whole device field.  Each link's power is formed once; fields are
    drawn in stages, each only for the links still clearing."""
    power = _powers(tier, cosines, sample_fades(cfg.fading, rng, cosines.size))
    live = np.flatnonzero(_clears(cfg, tier, power, 0.0))
    power, partial = power[live], np.zeros(live.size)
    done, upto = 0.0, _FIRST_STAGE_DEVICES
    while live.size and done < tier.cap_mean:
        upto = min(upto, tier.cap_mean)
        partial += _chunked_fields(cfg, rng, tier, upto - done, live.size)
        keep = np.flatnonzero(_clears(cfg, tier, power, partial))
        live, power, partial = live[keep], power[keep], partial[keep]
        done, upto = upto, 4.0 * upto
    return live


def _simulate_block(cfg, tiers, rng, n):
    """Indicators of ``n`` independent worlds: in view (n, tiers), covered
    (n,) and outage (n,).  Draws in-cap counts, then per tier the cosines,
    gains and staged device fields.  ``tiers`` is ``_tiers(cfg)``."""
    in_cap = np.stack([_in_cap_counts(rng, t.geom.num_satellites, t.geom.max_central_angle, n)
                       for t in tiers], axis=1)
    covered, outage = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    for k, tier in enumerate(tiers):
        seen = np.flatnonzero(in_cap[:, k])
        theta_max = tier.geom.max_central_angle
        if tier.serving:    # one link per world in view, so never split
            cosines = _nearest_cosines(rng, theta_max, in_cap[seen, k])
            covered[seen[_survivors(cfg, rng, tier, cosines)]] = True
            continue
        for owner in _link_runs(seen, in_cap[seen, k]):
            cosines = sample_cap_cosines(rng, theta_max, owner.size)
            outage[owner[_survivors(cfg, rng, tier, cosines)]] = False
    return in_cap > 0, covered, outage


def run_trial(cfg: NetworkConfig, trial_seed: int) -> TrialOutcome:
    """Sample one world from ``trial_seed`` and score it (a one-trial block)."""
    in_view, covered, outage = _simulate_block(cfg, _tiers(cfg),
                                               np.random.default_rng(trial_seed), 1)
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
    tiers = _tiers(cfg)
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
    tier = _tiers(cfg)[tier_index]
    fields = _interference_fields(cfg, rng, tier, rng.poisson(tier.cap_mean, n_real))
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
