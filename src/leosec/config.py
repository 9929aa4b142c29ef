"""Scenario description, its JSON schema, and its sweep parameters.

A scenario is a multi-tier constellation above a field of ground devices:
one tier is the serving (legitimate) tier, every other tier is a population
of potential eavesdroppers.  ``table2_config`` is the built-in default.

Two tables define how a scenario is read, written and swept.  ``_SCHEMA``
(``_TIER_SCHEMA`` inside each tier) has one row per JSON key: its owner,
attribute, integer or not, and an optional dB spelling (``tx_power_dbm``,
``beta_ls_db``, ...) with its converter.  Parsing, serialization (linear
keys, so a dump/parse round trip is exact) and the unknown-key checks all
walk it.  ``_SWEEPS`` maps each sweepable name to (integer, setter).  One
rule covers every integer: a value that is not integral raises
``ConfigError`` naming its key.  An invariant of the config, its radio or
its fading names the JSON key as written (the dB spelling when that was
given), keys inside a tier carry their ``tiers[i].`` prefix, and
``with_parameter`` names the sweep parameter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .channel import (ConfigError, FadingParams, RadioParams, dbm_to_watts, db_to_linear,
                      noise_power)
from .geometry import EARTH_RADIUS_KM, TierGeometry, tier_geometry


@dataclass(frozen=True)
class Tier:
    altitude_km: float
    num_satellites: int


@dataclass(frozen=True)
class NetworkConfig:
    """Full scenario: constellation tiers, beam, radio, fading, thresholds."""

    earth_radius_km: float
    tiers: tuple[Tier, ...]
    legit_tier: int                  # index into tiers (0-based)
    theta_beam: float                # half beamwidth, rad
    device_density_per_km2: float
    radio: RadioParams
    fading: FadingParams
    beta_ls: float                   # serving-link SINR threshold, linear
    beta_es: float                   # eavesdropper SINR threshold, linear

    def __post_init__(self):
        if not (math.isfinite(self.earth_radius_km) and self.earth_radius_km > 0.0):
            raise ConfigError("earth_radius_km", f"must be positive, got {self.earth_radius_km}")
        if len(self.tiers) < 1:
            raise ConfigError("tiers", "at least one tier is required")
        for i, t in enumerate(self.tiers):
            if not (math.isfinite(t.altitude_km) and t.altitude_km > 0.0):
                raise ConfigError(f"tiers[{i}].altitude_km", f"must be positive, got {t.altitude_km}")
            if t.num_satellites < 0 or t.num_satellites != int(t.num_satellites):
                raise ConfigError(f"tiers[{i}].num_satellites",
                                  f"must be a nonnegative integer, got {t.num_satellites}")
        if not 0 <= self.legit_tier < len(self.tiers):
            raise ConfigError("legit_tier",
                              f"must index tiers (0..{len(self.tiers) - 1}), got {self.legit_tier}")
        if not 0.0 < self.theta_beam <= math.pi / 2.0:
            raise ConfigError("theta_beam", f"must be in (0, pi/2], got {self.theta_beam}")
        if not (math.isfinite(self.device_density_per_km2)
                and self.device_density_per_km2 >= 0.0):
            raise ConfigError("device_density_per_km2",
                              f"must be finite and nonnegative, got {self.device_density_per_km2}")
        if not (math.isfinite(self.beta_ls) and self.beta_ls > 0.0):
            raise ConfigError("beta_ls", f"must be positive, got {self.beta_ls}")
        if not (math.isfinite(self.beta_es) and self.beta_es > 0.0):
            raise ConfigError("beta_es", f"must be positive, got {self.beta_es}")

    def tier_geometries(self) -> tuple[TierGeometry, ...]:
        return tuple(
            tier_geometry(t.altitude_km, t.num_satellites, self.theta_beam, self.earth_radius_km)
            for t in self.tiers)

    def legit_geometry(self) -> TierGeometry:
        t = self.tiers[self.legit_tier]
        return tier_geometry(t.altitude_km, t.num_satellites, self.theta_beam, self.earth_radius_km)

    @property
    def noise_w(self) -> float:
        return noise_power(self.radio.noise_density_w_per_hz, self.radio.bandwidth_hz)


def table2_config() -> NetworkConfig:
    """Default three-tier scenario (tiers at 500/1000/1500 km, 500 satellites
    each, pi/3 half beamwidth; the 1000 km tier serves)."""
    return NetworkConfig(
        earth_radius_km=EARTH_RADIUS_KM,
        tiers=(Tier(500.0, 500), Tier(1000.0, 500), Tier(1500.0, 500)),
        legit_tier=1,
        theta_beam=math.pi / 3.0,
        device_density_per_km2=1e-6,
        radio=RadioParams(
            carrier_hz=2e9,
            tx_power_w=dbm_to_watts(23.0),
            antenna_gain_linear=db_to_linear(41.9),
            noise_density_w_per_hz=dbm_to_watts(-174.0),
            bandwidth_hz=180e3,
            info_ratio=0.1,
        ),
        fading=FadingParams(shape_m1=1, scale_m2=0.1269),
        beta_ls=db_to_linear(-30.0),
        beta_es=db_to_linear(-10.0),
    )


PRESETS = {"table2": table2_config}

# (JSON key, owner: None (the config), "radio" or "fading", attribute, integer,
# (dB key, converter) or None), in serialization order; "tiers" comes second.
_SCHEMA = (
    ("earth_radius_km", None, "earth_radius_km", False, None),
    ("legit_tier", None, "legit_tier", True, None),
    ("theta_beam_rad", None, "theta_beam", False, None),
    ("device_density_per_km2", None, "device_density_per_km2", False, None),
    ("carrier_hz", "radio", "carrier_hz", False, None),
    ("tx_power_w", "radio", "tx_power_w", False, ("tx_power_dbm", dbm_to_watts)),
    ("antenna_gain_linear", "radio", "antenna_gain_linear", False, ("antenna_gain_dbi", db_to_linear)),
    ("noise_density_w_per_hz", "radio", "noise_density_w_per_hz", False,
     ("noise_density_dbm_per_hz", dbm_to_watts)),
    ("bandwidth_hz", "radio", "bandwidth_hz", False, None),
    ("info_ratio", "radio", "info_ratio", False, None),
    ("fading_shape_m1", "fading", "shape_m1", True, None),
    ("fading_scale_m2", "fading", "scale_m2", False, None),
    ("beta_ls", None, "beta_ls", False, ("beta_ls_db", db_to_linear)),
    ("beta_es", None, "beta_es", False, ("beta_es_db", db_to_linear)),
)
_KEYS = {"tiers", *(row[0] for row in _SCHEMA), *(row[4][0] for row in _SCHEMA if row[4])}

# (JSON key and Tier attribute, integer)
_TIER_SCHEMA = (("altitude_km", False), ("num_satellites", True))


def _integer(field: str, value: float) -> int:
    if not float(value).is_integer():
        raise ConfigError(field, f"must be an integer, got {value}")
    return int(value)


def _number(d: dict, key: str, path: str = "") -> float:
    if key not in d:
        raise ConfigError(path + key, "missing required field")
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path + key, f"expected a number, got {v!r}")
    if not math.isfinite(v):
        raise ConfigError(path + key, f"must be finite, got {v}")
    return float(v)


def _read(d: dict, key: str, integral: bool, db=None, path: str = ""):
    """One schema row's value; every error names ``path + key``."""
    if db is not None and db[0] in d:
        if key in d:
            raise ConfigError(key, f"give either {key} or {db[0]}, not both")
        try:
            return db[1](_number(d, db[0]))
        except OverflowError:
            raise ConfigError(db[0], f"out of range, got {d[db[0]]}") from None
    v = _number(d, key, path)
    return _integer(path + key, v) if integral else v


def _reject_unknown(d: dict, known, path: str = "") -> None:
    for key in d:
        if key not in known:
            raise ConfigError(path + key, "unknown field")


def config_from_dict(d: dict) -> NetworkConfig:
    """Build and validate a NetworkConfig from parsed JSON."""
    if not isinstance(d, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    _reject_unknown(d, _KEYS)
    if "tiers" not in d:
        raise ConfigError("tiers", "missing required field")
    raw_tiers = d["tiers"]
    if not isinstance(raw_tiers, list) or not raw_tiers:
        raise ConfigError("tiers", "must be a non-empty list of objects")
    tiers = []
    for i, t in enumerate(raw_tiers):
        if not isinstance(t, dict):
            raise ConfigError(f"tiers[{i}]", "must be an object")
        _reject_unknown(t, dict(_TIER_SCHEMA), f"tiers[{i}].")
        tiers.append(Tier(**{key: _read(t, key, integral, path=f"tiers[{i}].")
                             for key, integral in _TIER_SCHEMA}))
    fields = {None: {}, "radio": {}, "fading": {}}
    for key, owner, attr, integral, db in _SCHEMA:
        fields[owner][attr] = _read(d, key, integral, db)
    try:
        return NetworkConfig(tiers=tuple(tiers), radio=RadioParams(**fields["radio"]),
                             fading=FadingParams(**fields["fading"]), **fields[None])
    except ConfigError as e:  # an invariant names an attribute; a tier key is already a key
        field = next((db[0] if db and db[0] in d else key
                      for key, _, attr, _, db in _SCHEMA if attr == e.field), e.field)
        raise ConfigError(field, e.message) from e


def config_to_dict(cfg: NetworkConfig) -> dict:
    """Serialize with linear-unit keys; parsing the result reproduces cfg."""
    doc = {key: getattr(cfg if owner is None else getattr(cfg, owner), attr)
           for key, owner, attr, _, _ in _SCHEMA}
    tiers = [{key: getattr(t, key) for key, _ in _TIER_SCHEMA} for t in cfg.tiers]
    return {"earth_radius_km": doc.pop("earth_radius_km"), "tiers": tiers, **doc}


def _set(attr: str):
    return lambda cfg, v: replace(cfg, **{attr: v})


# sweepable name -> (integer, setter(cfg, value))
_SWEEPS = {
    "gamma": (False, lambda cfg, v: replace(cfg, radio=replace(cfg.radio, info_ratio=v))),
    "theta_beam": (False, _set("theta_beam")),
    "altitude_m": (False, lambda cfg, v: replace(cfg, tiers=tuple(  # serving tier's altitude, km
        replace(t, altitude_km=v) if k == cfg.legit_tier else t for k, t in enumerate(cfg.tiers)))),
    "num_satellites": (True, lambda cfg, v: replace(cfg, tiers=tuple(  # every tier
        replace(t, num_satellites=v) for t in cfg.tiers))),
    "device_density": (False, _set("device_density_per_km2")),
    "legit_tier": (True, _set("legit_tier")),
    "beta_ls": (False, _set("beta_ls")),  # linear thresholds
    "beta_es": (False, _set("beta_es")),
}

SWEEPABLE_PARAMETERS = tuple(_SWEEPS)


def with_parameter(cfg: NetworkConfig, name: str, value: float) -> NetworkConfig:
    """Copy of cfg with the sweepable parameter ``name`` set to ``value``."""
    if name not in _SWEEPS:
        raise ConfigError(name, "unknown sweepable parameter")
    integral, setter = _SWEEPS[name]
    try:
        return setter(cfg, _integer(name, value) if integral else float(value))
    except ConfigError as e:  # the value breaks an invariant of the field it sets
        raise ConfigError(name, e.message) from e
    except ValueError as e:  # not a number
        raise ConfigError(name, str(e)) from e
