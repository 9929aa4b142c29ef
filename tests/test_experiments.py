from dataclasses import replace

import pytest

from leosec import analytics, montecarlo
from leosec.channel import db_to_linear
from leosec.config import ConfigError, Tier, table2_config, with_parameter
from leosec.experiments import (ABS_TOLERANCE, SweepRow, SweepSpec, ValidationRow,
                                gamma_grid, optimize_gamma, sweep, validate)


class TestValidate:
    def test_default_scenario_rows_pass(self, table2):
        rows = validate(table2, n_trials=1500, seed=1)
        assert [r.metric for r in rows] == [
            "p_av_0", "p_av_1", "p_av_2", "p_cov", "p_suc", "p_out", "p_sec"]
        for r in rows:
            assert isinstance(r, ValidationRow)
            assert r.abs_diff == pytest.approx(abs(r.analytic - r.mc_mean))
            assert r.passed == (r.abs_diff <= max(ABS_TOLERANCE, 3.0 * r.mc_stderr))
            assert r.passed, f"{r.metric}: |{r.analytic} - {r.mc_mean}| = {r.abs_diff}"

    def test_single_tier_outage_is_one_for_both_engines(self, table2):
        cfg = replace(table2, tiers=(Tier(1000.0, 500),), legit_tier=0)
        row = {r.metric: r for r in validate(cfg, n_trials=300, seed=2)}["p_out"]
        assert row.analytic == 1.0
        assert row.mc_mean == 1.0
        assert row.passed

    def test_interference_free_coverage_agrees(self, table2):
        cfg = replace(table2, device_density_per_km2=0.0)
        row = {r.metric: r for r in validate(cfg, n_trials=1200, seed=3)}["p_cov"]
        assert row.passed

    def test_interference_limited_shape_three_rows_pass(self, table2):
        # interference-limited coverage at fading shape 3: the engines agree
        # only if both draw interferer gains from the same (Gamma) law
        cfg = replace(table2, fading=replace(table2.fading, shape_m1=3),
                      beta_ls=db_to_linear(-20.0))
        for r in validate(cfg, n_trials=5000, seed=1):
            assert r.passed, f"{r.metric}: |{r.analytic} - {r.mc_mean}| = {r.abs_diff}"


@pytest.mark.parametrize("cfg", [
    replace(table2_config(), tiers=(Tier(1000.0, 500),), legit_tier=0), table2_config(),
], ids=["one_tier", "table2"])
def test_report_and_estimate_share_one_key_order(cfg):
    keys = list(analytics.full_report(cfg).values())
    assert keys == list(montecarlo.estimate(cfg, 300, 1))
    assert keys == [f"p_av_{k}" for k in range(len(cfg.tiers))] + list(analytics.LINK_METRICS)
    assert [r.metric for r in validate(cfg, n_trials=300, seed=1)] == keys


class TestSweep:
    def test_rows_are_deterministic(self, table2):
        spec = SweepSpec(axis1=("gamma", (0.2, 0.5)), metric="p_sec", engine="both")
        a = sweep(table2, spec, n_trials=300, seed=7)
        b = sweep(table2, spec, n_trials=300, seed=7)
        assert a == b

    def test_row_ordering_and_engines(self, table2):
        spec = SweepSpec(axis1=("gamma", (0.2, 0.5)),
                         axis2=("device_density", (1e-6, 1e-5)),
                         metric="p_suc", engine="both")
        rows = sweep(table2, spec, n_trials=200, seed=1)
        assert len(rows) == 8  # 2 x 2 grid, two engines per point
        assert [(r.axis1, r.axis2, r.engine) for r in rows[:4]] == [
            (0.2, 1e-6, "analytic"), (0.2, 1e-6, "montecarlo"),
            (0.2, 1e-5, "analytic"), (0.2, 1e-5, "montecarlo")]
        for r in rows:
            assert isinstance(r, SweepRow)
            assert (r.stderr is None) == (r.engine == "analytic")

    def test_analytic_gamma_trend_at_low_density(self, table2):
        spec = SweepSpec(axis1=("gamma", (0.1, 0.5, 0.9)), metric="p_sec")
        vals = [r.value for r in sweep(table2, spec)]
        assert vals[0] > vals[1] > vals[2]

    def test_p_av_metric_uses_legit_tier(self, table2):
        spec = SweepSpec(axis1=("legit_tier", (0, 1, 2)), metric="p_av")
        rows = sweep(table2, spec)
        expected = [analytics.availability_probability(g) for g in table2.tier_geometries()]
        assert [r.value for r in rows] == pytest.approx(expected)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="warp"):
            SweepSpec(axis1=("warp", (1.0,)))

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(axis1=("gamma", ()))

    def test_same_parameter_on_both_axes_rejected(self):
        # the inner axis would silently overwrite the outer one
        with pytest.raises(ConfigError) as info:
            SweepSpec(axis1=("gamma", (0.2, 0.6)), axis2=("gamma", (0.3, 0.9)))
        assert info.value.field == "axis2"

    def test_altitude_with_legit_tier_rejected(self):
        # altitude_m moves the tier serving when it is applied, so the two
        # axis orders would sweep different tiers' altitudes
        for axis1, axis2 in ((("altitude_m", (600.0, 1400.0)), ("legit_tier", (0.0, 2.0))),
                             (("legit_tier", (0.0, 2.0)), ("altitude_m", (600.0, 1400.0)))):
            with pytest.raises(ConfigError) as info:
                SweepSpec(axis1=axis1, axis2=axis2, metric="p_av")
            assert info.value.field == "axis2"

    def test_bad_metric_and_engine_rejected(self):
        with pytest.raises(ConfigError, match="metric"):
            SweepSpec(axis1=("gamma", (0.1,)), metric="p_bogus")
        with pytest.raises(ConfigError, match="engine"):
            SweepSpec(axis1=("gamma", (0.1,)), engine="quantum")


class TestOptimizeGamma:
    def test_ceiling_everywhere_maximizes_successful(self, table2):
        # an unreachable eavesdropper threshold makes outage certain, so the
        # optimum chases pure link success, which grows with the power share
        cfg = replace(table2, beta_es=1e6)
        g_star, p_star, _, _ = optimize_gamma(cfg)
        assert g_star >= 0.99
        assert p_star == pytest.approx(
            analytics.secure_probability(with_parameter(cfg, "gamma", g_star)), rel=1e-12)

    def test_result_not_below_any_grid_value(self, table2):
        g_star, p_star, grid, values = optimize_gamma(table2, grid_points=6)
        assert p_star >= max(values)
        assert len(grid) == len(values) == 6

    def test_denser_devices_push_optimum_up(self, table2):
        sparse = with_parameter(table2, "device_density", 1e-6)
        dense = with_parameter(table2, "device_density", 1e-4)
        g_sparse = optimize_gamma(sparse, grid_points=9)[0]
        g_dense = optimize_gamma(dense, grid_points=9)[0]
        assert g_dense > g_sparse

    def test_default_grid(self):
        grid = gamma_grid()
        assert grid[0] == 0.05 and grid[-1] == 0.99
        assert len(grid) == 20
        with pytest.raises(ValueError):
            gamma_grid(2)
        assert gamma_grid(4) == (0.25, 0.5, 0.75, 1.0)
