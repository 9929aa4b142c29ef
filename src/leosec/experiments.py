"""Engine cross-validation, parameter sweeps, and power-split optimization."""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import analytics, montecarlo
from .analytics import DEFAULT_QUAD, LINK_METRICS, QuadratureSpec
from .config import ConfigError, NetworkConfig, SWEEPABLE_PARAMETERS, with_parameter

# Absolute agreement floor for engine comparison; the band per metric is
# max(ABS_TOLERANCE, 3 * stderr).
ABS_TOLERANCE = 0.02

METRIC_NAMES = ("p_av", *LINK_METRICS)

ENGINES = ("analytic", "montecarlo", "both")

# Power-share grid for the optimizer: 0.05 steps through the bulk of the
# range, denser only near full message power where curves flatten.
DEFAULT_GAMMA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 18)) + (0.9, 0.95, 0.99)


@dataclass(frozen=True)
class ValidationRow:
    metric: str
    analytic: float
    mc_mean: float
    mc_stderr: float
    abs_diff: float
    passed: bool


def validate(cfg: NetworkConfig, n_trials: int, seed: int,
             quad: QuadratureSpec = DEFAULT_QUAD) -> list[ValidationRow]:
    """Compare every analytic metric against its Monte Carlo estimate.

    One row per metric (availability per tier, then the four link metrics);
    a row passes when |analytic - mc| <= max(ABS_TOLERANCE, 3 * stderr).
    Failing rows are data, not errors.
    """
    report = analytics.full_report(cfg, quad)  # before the oracle: a QuadratureError fails fast
    est = montecarlo.estimate(cfg, n_trials, seed)
    rows = []
    for metric, value in report.values().items():
        mc = est[metric]
        diff = abs(value - mc.mean)
        rows.append(ValidationRow(metric=metric, analytic=value, mc_mean=mc.mean,
                                  mc_stderr=mc.stderr, abs_diff=diff,
                                  passed=diff <= max(ABS_TOLERANCE, 3.0 * mc.stderr)))
    return rows


@dataclass(frozen=True)
class SweepSpec:
    """One- or two-axis grid over sweepable config parameters."""

    axis1: tuple[str, tuple[float, ...]]
    axis2: tuple[str, tuple[float, ...]] | None = None
    metric: str = "p_sec"
    engine: str = "analytic"

    def __post_init__(self):
        for axis in (self.axis1, self.axis2):
            if axis is None:
                continue
            name, values = axis
            if name not in SWEEPABLE_PARAMETERS:
                raise ConfigError(name, f"not sweepable; choose from {SWEEPABLE_PARAMETERS}")
            if not values:
                raise ConfigError(name, "axis values must be non-empty")
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(name, "axis values must be finite")
        if self.axis2 is not None and self.axis2[0] == self.axis1[0]:
            raise ConfigError("axis2", f"sweeps {self.axis1[0]} again, which axis1 already sets")
        if self.metric not in METRIC_NAMES:
            raise ConfigError("metric", f"must be one of {METRIC_NAMES}, got {self.metric}")
        if self.engine not in ENGINES:
            raise ConfigError("engine", f"must be one of {ENGINES}, got {self.engine}")


@dataclass(frozen=True)
class SweepRow:
    axis1: float
    axis2: float | None
    metric: str
    engine: str
    value: float
    stderr: float | None


def sweep(cfg: NetworkConfig, spec: SweepSpec, n_trials: int = 10_000, seed: int = 1,
          quad: QuadratureSpec = DEFAULT_QUAD) -> list[SweepRow]:
    """Evaluate the requested metric over the grid, in deterministic axis
    order (axis1 outer, axis2 inner, analytic rows before Monte Carlo)."""
    name1, values1 = spec.axis1
    name2, values2 = spec.axis2 or (None, (None,))

    rows = []
    for v1 in values1:
        cfg1 = with_parameter(cfg, name1, v1)
        for v2 in values2:
            point = cfg1 if name2 is None else with_parameter(cfg1, name2, v2)
            key = f"p_av_{point.legit_tier}" if spec.metric == "p_av" else spec.metric
            if spec.engine in ("analytic", "both"):
                value = analytics.full_report(point, quad).values()[key]
                rows.append(SweepRow(axis1=v1, axis2=v2, metric=spec.metric, engine="analytic",
                                     value=value, stderr=None))
            if spec.engine in ("montecarlo", "both"):
                est = montecarlo.estimate(point, n_trials, seed)[key]
                rows.append(SweepRow(axis1=v1, axis2=v2, metric=spec.metric, engine="montecarlo",
                                     value=est.mean, stderr=est.stderr))
    return rows


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(f, lo: float, hi: float, tol: float = 1e-3) -> tuple[float, float]:
    a, b = lo, hi
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def gamma_grid(grid_points: int | None = None) -> tuple[float, ...]:
    """Power-share search grid: the default grid, or ``grid_points`` uniform
    points covering (0, 1]."""
    if grid_points is None:
        return DEFAULT_GAMMA_GRID
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")
    return tuple(i / grid_points for i in range(1, grid_points + 1))


def optimize_gamma(cfg: NetworkConfig, grid_points: int | None = None,
                   quad: QuadratureSpec = DEFAULT_QUAD
                   ) -> tuple[float, float, tuple[float, ...], list[float]]:
    """Maximize the analytic secure-communication probability over the
    message power share: grid search plus golden-section refinement on the
    best bracket.  The result never falls below the best grid value.

    Returns ``(gamma_star, p_sec_star, grid, values)``, where ``values`` are
    the secure probabilities at the ``grid`` points.
    """
    grid = gamma_grid(grid_points)

    def objective(g: float) -> float:
        return analytics.secure_probability(with_parameter(cfg, "gamma", g), quad)

    values = [objective(g) for g in grid]
    best = max(range(len(grid)), key=lambda i: values[i])
    lo = grid[best - 1] if best > 0 else max(grid[best] / 2.0, 1e-6)
    hi = grid[best + 1] if best + 1 < len(grid) else 1.0
    g_star, p_star = _golden_section_max(objective, lo, hi)
    if values[best] >= p_star:
        g_star, p_star = grid[best], values[best]
    return g_star, p_star, grid, values
