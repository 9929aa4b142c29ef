"""Seeded random scenarios for the ``scenario_mix`` workload.

A fixed pool of configs is drawn once from the fuzz ranges of the ROADMAP
(1-4 tiers, altitudes 160-36,000 km, 0-5,000 satellites per tier, fading
shape 1-5, both SINR thresholds 1e-6..1e3) and stored, with each config's
outcome and metric values at the recording commit, in ``references.json``.
No config is dropped, however slow or failing.

A run draws ``n`` distinct pool configs from its ``--seed``.  The draw is
stratified by (recorded outcome class, fading shape, tier count) with a
fixed allocation, so every seed gets the same failure share and cost mix:
the run-to-run spread then measures the program, not the luck of the draw.
Within a stratum the seed picks which configs, and the run order is a
seeded shuffle.
"""
from __future__ import annotations

import collections
import math

import numpy as np

ALTITUDE_KM = (160.0, 36_000.0)
MAX_SATELLITES = 5_000
MAX_FADING_SHAPE = 5
MAX_TIERS = 4
THRESHOLD = (1e-6, 1e3)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def draw_pool(pool_seed: int, size: int) -> list[dict]:
    """``size`` scenario entries; shape and tier count cycle through their
    ranges so every (shape, tiers) pair is equally common."""
    rng = np.random.default_rng(pool_seed)
    pool = []
    for i in range(size):
        n_tiers = 1 + (i // MAX_FADING_SHAPE) % MAX_TIERS
        pool.append({
            "tiers": [[_log_uniform(rng, *ALTITUDE_KM), int(rng.integers(0, MAX_SATELLITES + 1))]
                      for _ in range(n_tiers)],
            "legit_tier": int(rng.integers(0, n_tiers)),
            "fading_shape_m1": 1 + i % MAX_FADING_SHAPE,
            "beta_ls": _log_uniform(rng, *THRESHOLD),
            "beta_es": _log_uniform(rng, *THRESHOLD),
        })
    return pool


def to_config(entry: dict, base: dict):
    """NetworkConfig for a pool entry, through the package's JSON schema;
    ``base`` is ``config_to_dict`` of the preset that supplies every other
    field."""
    from leosec.config import config_from_dict

    doc = dict(base)
    doc["tiers"] = [{"altitude_km": a, "num_satellites": n} for a, n in entry["tiers"]]
    for key in ("legit_tier", "fading_shape_m1", "beta_ls", "beta_es"):
        doc[key] = entry[key]
    return config_from_dict(doc)


def _stratum(entry: dict) -> tuple[str, int, int]:
    return entry["outcome"], entry["fading_shape_m1"], len(entry["tiers"])


def _allocation(pool: list[dict], n: int) -> dict[tuple[str, int, int], int]:
    """Largest-remainder proportional allocation of ``n`` over strata."""
    strata = collections.Counter(_stratum(e) for e in pool)
    quotas = {k: n * c / len(pool) for k, c in strata.items()}
    alloc = {k: int(q) for k, q in quotas.items()}
    spare = n - sum(alloc.values())
    for k in sorted(quotas, key=lambda k: (alloc[k] - quotas[k], k))[:spare]:
        alloc[k] += 1
    return alloc


def select(pool: list[dict], seed: int, n: int) -> list[int]:
    """Indices of ``n`` distinct pool entries for this seed, in run order."""
    if not 1 <= n <= len(pool):
        raise ValueError(f"need 1 <= n <= {len(pool)}, got {n}")
    rng = np.random.default_rng(seed)
    chosen: list[int] = []
    for key, count in sorted(_allocation(pool, n).items()):
        members = [i for i, e in enumerate(pool) if _stratum(e) == key]
        chosen.extend(int(i) for i in rng.choice(members, size=count, replace=False))
    return [chosen[i] for i in rng.permutation(len(chosen))]
