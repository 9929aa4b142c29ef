"""Spherical geometry of Earth-centered shells.

Satellites of a constellation tier live on a sphere of radius
``shell_radius_km`` concentric with the Earth; ground devices live on the
Earth sphere itself.  Everything a receiver cares about reduces to the
central angle between two points, so this module provides angle/distance
conversion, visibility caps, the nearest-satellite (contact) angle law,
and sampling of the polar-angle cosines of points uniform on a sphere or a
spherical cap (azimuths never enter any observable, so none are drawn).

The reference ground device sits at polar angle 0 (the "north pole" of the
coordinate frame), so the central angle between it and any satellite is
simply the satellite's polar angle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class TierGeometry:
    """Derived geometry of one constellation shell."""

    shell_radius_km: float    # orbit altitude + Earth radius
    num_satellites: int
    max_central_angle: float  # rad, edge of the visibility cap

    def __post_init__(self):
        if not self.shell_radius_km > 0.0:
            raise ValueError(f"shell_radius_km must be positive, got {self.shell_radius_km}")
        if self.num_satellites < 0 or self.num_satellites != int(self.num_satellites):
            raise ValueError(f"num_satellites must be a nonnegative integer, got {self.num_satellites}")
        if not 0.0 < self.max_central_angle <= math.pi / 2.0:
            raise ValueError(f"max_central_angle must be in (0, pi/2], got {self.max_central_angle}")


def central_angle_to_distance(theta, shell_radius_km: float,
                              earth_radius_km: float = EARTH_RADIUS_KM):
    """Slant distance (km) between a ground point and a shell point separated
    by central angle ``theta``, by the law of cosines.

    Accepts a scalar or ndarray ``theta``; strictly increasing in theta.
    """
    if earth_radius_km <= 0.0 or shell_radius_km <= earth_radius_km:
        raise ValueError(
            f"need shell_radius_km > earth_radius_km > 0, got {shell_radius_km}, {earth_radius_km}")
    th = np.asarray(theta, dtype=float)
    if np.any(th < 0.0) or np.any(th > math.pi):
        raise ValueError("theta must be in [0, pi]")
    d = np.sqrt(earth_radius_km ** 2 + shell_radius_km ** 2
                - 2.0 * earth_radius_km * shell_radius_km * np.cos(th))
    return float(d) if np.ndim(theta) == 0 else d


def max_central_angle(theta_beam: float, shell_radius_km: float,
                      earth_radius_km: float = EARTH_RADIUS_KM) -> float:
    """Largest central angle at which a shell point can serve a ground point.

    For a narrow receive beam (half-angle ``theta_beam``) pointed at the
    Earth's center, the cap edge is where the beam cone meets the ground;
    for wide beams the line-of-sight horizon limits the cap instead.
    """
    if not 0.0 < theta_beam <= math.pi / 2.0:
        raise ValueError(f"theta_beam must be in (0, pi/2], got {theta_beam}")
    if earth_radius_km <= 0.0 or shell_radius_km <= earth_radius_km:
        raise ValueError(
            f"need shell_radius_km > earth_radius_km > 0, got {shell_radius_km}, {earth_radius_km}")
    ratio = earth_radius_km / shell_radius_km
    if theta_beam < math.asin(ratio):
        return math.asin(math.sin(theta_beam) / ratio) - theta_beam
    return math.acos(ratio)


def tier_geometry(altitude_km: float, num_satellites: int, theta_beam: float,
                  earth_radius_km: float = EARTH_RADIUS_KM) -> TierGeometry:
    """Build the derived geometry for one tier."""
    if altitude_km <= 0.0:
        raise ValueError(f"altitude_km must be positive, got {altitude_km}")
    shell = earth_radius_km + altitude_km
    return TierGeometry(
        shell_radius_km=shell,
        num_satellites=int(num_satellites),
        max_central_angle=max_central_angle(theta_beam, shell, earth_radius_km),
    )


def _cap_miss_log(theta, num_satellites: int):
    """N * log((1 + cos theta) / 2), the log of the probability that none of
    N uniform satellites falls in the cap of central angle theta: the base
    is 1 - sin^2(theta/2) in log1p, so a narrow cap keeps its digits."""
    th = np.asarray(theta, dtype=float)
    if num_satellites == 0:
        return np.zeros_like(th)
    with np.errstate(divide="ignore"):
        return num_satellites * np.log1p(-np.sin(0.5 * th) ** 2)


def contact_angle_cdf(theta, num_satellites: int, theta_max: float):
    """CDF of the central angle to the nearest of N uniform shell points.

    Accepts scalar or ndarray theta in [0, theta_max].
    """
    if num_satellites < 0:
        raise ValueError(f"num_satellites must be nonnegative, got {num_satellites}")
    th = np.asarray(theta, dtype=float)
    if np.any(th < 0.0) or np.any(th > theta_max):
        raise ValueError(f"theta must be in [0, theta_max={theta_max}]")
    out = -np.expm1(_cap_miss_log(th, num_satellites))
    return float(out) if np.ndim(theta) == 0 else out


def contact_angle_pdf(theta, num_satellites: int, theta_max: float):
    """Density of the nearest-satellite central angle (per radian)."""
    if num_satellites < 1:
        raise ValueError(f"num_satellites must be >= 1, got {num_satellites}")
    th = np.asarray(theta, dtype=float)
    if np.any(th < 0.0) or np.any(th > theta_max):
        raise ValueError(f"theta must be in [0, theta_max={theta_max}]")
    out = (num_satellites * np.sin(th) / 2.0) * np.exp(_cap_miss_log(th, num_satellites - 1))
    return float(out) if np.ndim(theta) == 0 else out


def cap_area_km2(cap_angle: float, radius_km: float) -> float:
    """Area of a spherical cap of the given central half-angle."""
    if not 0.0 < cap_angle <= math.pi:
        raise ValueError(f"cap_angle must be in (0, pi], got {cap_angle}")
    return 2.0 * math.pi * radius_km ** 2 * (1.0 - math.cos(cap_angle))


def sample_sphere_cosines(rng: np.random.Generator, count: int) -> np.ndarray:
    """cos(polar angle) for ``count`` points uniform on a sphere."""
    return rng.uniform(-1.0, 1.0, count)


def sample_cap_cosines(rng: np.random.Generator, cap_angle: float, count: int) -> np.ndarray:
    """cos(central angle from cap center) for points uniform on a cap."""
    return rng.uniform(math.cos(cap_angle), 1.0, count)
