"""Link-level radio model: unit conversions, free-space loss, fading, SINR.

All computation is done in SI units (watts, Hz); dB/dBm values are converted
once at the interface.  Distances cross the module boundary in km and are
converted to meters internally.

Small-scale fading uses two laws with the same parameters (shape ``m1``,
scale ``m2``):

* the serving and eavesdropper links: the channel power gain is the maximum
  of ``shape_m1`` i.i.d. exponentials with scale ``scale_m2 * (m1!)**(1/m1)``,
  whose CDF is ``(1 - exp(-rate * x)) ** m1`` (``gamma_fade_ccdf_bound``,
  ``sample_fades``);
* interfering devices: the gain is Gamma(m1, scale m2), whose moment
  generating function ``(1 + m2 * x) ** -m1`` enters the interference
  Laplace transform.

The two laws coincide at m1 = 1.  The closed-form expressions and the
simulator use the same law for each role, so the two engines share one
channel model.

The transmitter splits its power: a fraction ``info_ratio`` carries the
message and the remainder carries a jamming component that the intended
receiver can cancel but an eavesdropper cannot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0


@dataclass(frozen=True)
class FadingParams:
    """Shape/scale of the channel power-gain law."""

    shape_m1: int
    scale_m2: float

    def __post_init__(self):
        if self.shape_m1 != int(self.shape_m1) or self.shape_m1 < 1:
            raise ValueError(f"shape_m1 must be a positive integer, got {self.shape_m1}")
        if not (math.isfinite(self.scale_m2) and self.scale_m2 > 0.0):
            raise ValueError(f"scale_m2 must be positive, got {self.scale_m2}")

    @property
    def rate(self) -> float:
        """Exponential rate (m1!)**(-1/m1) / m2 appearing in the gain CDF."""
        m1 = int(self.shape_m1)
        return math.factorial(m1) ** (-1.0 / m1) / self.scale_m2


@dataclass(frozen=True)
class RadioParams:
    carrier_hz: float
    tx_power_w: float
    antenna_gain_linear: float        # combined tx*rx gain
    noise_density_w_per_hz: float
    bandwidth_hz: float
    info_ratio: float                 # message share of tx power, in [0, 1]

    def __post_init__(self):
        for name in ("carrier_hz", "tx_power_w", "antenna_gain_linear",
                     "noise_density_w_per_hz", "bandwidth_hz"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not 0.0 <= self.info_ratio <= 1.0:
            raise ValueError(f"info_ratio must be in [0, 1], got {self.info_ratio}")


def dbm_to_watts(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def noise_power(noise_density_w_per_hz: float, bandwidth_hz: float) -> float:
    """Thermal noise power in the receive bandwidth."""
    if noise_density_w_per_hz <= 0.0 or bandwidth_hz <= 0.0:
        raise ValueError("noise density and bandwidth must be positive")
    return noise_density_w_per_hz * bandwidth_hz


def path_gain(distance_km, carrier_hz: float):
    """Free-space power gain (c / (4 pi f d))^2; scalar or ndarray distance."""
    d = np.asarray(distance_km, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("distance_km must be positive")
    g = (SPEED_OF_LIGHT_M_PER_S / (4.0 * math.pi * carrier_hz * d * 1e3)) ** 2
    return float(g) if np.ndim(distance_km) == 0 else g


def gamma_fade_ccdf_bound(x, fading: FadingParams):
    """P[gain > x] under the fading law; nonincreasing, 1 at x = 0."""
    xx = np.asarray(x, dtype=float)
    if np.any(xx < 0.0):
        raise ValueError("x must be nonnegative")
    out = 1.0 - (1.0 - np.exp(-fading.rate * xx)) ** fading.shape_m1
    return float(out) if np.ndim(x) == 0 else out


def sample_fades(fading: FadingParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` i.i.d. channel power gains (max of m1 exponentials)."""
    draws = rng.exponential(1.0 / fading.rate, (count, int(fading.shape_m1)))
    return draws.max(axis=1)


def received_power(radio: RadioParams, distance_km, fade):
    """tx power x free-space gain x antenna gain x channel gain."""
    if np.any(np.asarray(fade) < 0.0):
        raise ValueError("fade must be nonnegative")
    return radio.tx_power_w * path_gain(distance_km, radio.carrier_hz) \
        * radio.antenna_gain_linear * fade


def sinr_legitimate(signal_w, interference_w, noise_w, info_ratio: float):
    """SINR at a receiver that cancels the jamming share of the signal."""
    return info_ratio * signal_w / (interference_w + noise_w)


def sinr_eavesdropper(signal_w, interference_w, noise_w, info_ratio: float):
    """SINR at a receiver that cannot cancel the jamming share.

    The uncancelled (1 - info_ratio) share of the received signal lands in
    the denominator, capping the result below info_ratio / (1 - info_ratio).
    """
    return info_ratio * signal_w / ((1.0 - info_ratio) * signal_w + interference_w + noise_w)
