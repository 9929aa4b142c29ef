import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leosec import analytics, montecarlo
from leosec.analytics import (DEFAULT_QUAD, MetricsReport, QuadratureError, QuadratureSpec,
                              _cap_span, _link_scale, availability_probability,
                              coverage_probability, full_report, integrate,
                              interference_laplace, secrecy_outage_probability,
                              secure_probability)
from leosec.channel import path_gain
from leosec.config import Tier, table2_config, with_parameter
from leosec.geometry import (central_angle_to_distance, contact_angle_cdf, contact_angle_pdf,
                             tier_geometry)
from strategies import fuzz_configs

# Implementation outputs at the default scenario, recorded as goldens once the
# Monte Carlo cross-checks below (and the acceptance suite) agreed with them.
GOLDEN_P_COV = 0.9074084510134934
GOLDEN_P_OUT = 0.8473807245887575
GOLDEN_P_SEC = 0.7689204307177756
AVAIL_500KM_N500 = 0.9564049462285963   # direct closed-form evaluation
NOVIS_PRODUCT = 7.851884534107749e-24   # ((1+cos t1)/2)^500 * ((1+cos t3)/2)^500


class TestIntegrate:
    def test_sine_over_half_period(self):
        assert integrate(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_parabola(self):
        assert integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_contact_pdf_integrates_to_availability(self, table2):
        geom = table2.legit_geometry()
        val = integrate(lambda t: contact_angle_pdf(t, geom.num_satellites,
                                                    geom.max_central_angle),
                        0.0, geom.max_central_angle)
        assert val == pytest.approx(availability_probability(geom), abs=1e-10)

    def test_empty_interval(self):
        assert integrate(np.sin, 1.0, 1.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(np.sin, 1.0, 0.0)

    def test_vector_valued_integrand(self):
        out = integrate(lambda x: np.stack([np.sin(x), np.cos(x)]), 0.0, math.pi / 2)
        assert out == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_nonconvergence_raises(self):
        # far more oscillations than any node budget can resolve
        with pytest.raises(QuadratureError):
            integrate(lambda x: np.sin(1e6 * x), 0.0, 1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_panel=1)
        with pytest.raises(ValueError):
            QuadratureSpec(panels=0)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tolerance=0.0)


class TestAvailability:
    def test_no_satellites(self):
        geom = tier_geometry(500.0, 500, math.pi / 3)
        assert availability_probability(replace(geom, num_satellites=0)) == 0.0

    def test_default_500km_tier(self):
        geom = tier_geometry(500.0, 500, math.pi / 3)
        assert availability_probability(geom) == pytest.approx(AVAIL_500KM_N500, rel=1e-12)
        # near-certain availability above 500 km altitude at this beamwidth
        assert availability_probability(geom) >= 0.95

    def test_shares_formula_with_contact_cdf(self):
        geom = tier_geometry(800.0, 77, 0.9)
        assert availability_probability(geom) == contact_angle_cdf(
            geom.max_central_angle, geom.num_satellites, geom.max_central_angle)

    def test_monotone_in_count_beam_and_altitude(self):
        for alt in (500.0, 1000.0, 1500.0):
            for tb in (math.pi / 6, math.pi / 4, math.pi / 3):
                vals = [availability_probability(tier_geometry(alt, n, tb))
                        for n in (100, 500, 1000)]
                assert vals == sorted(vals)
        for n in (100, 500, 1000):
            for tb in (math.pi / 6, math.pi / 4, math.pi / 3):
                vals = [availability_probability(tier_geometry(alt, n, tb))
                        for alt in (500.0, 1000.0, 1500.0)]
                assert vals == sorted(vals)
            for alt in (500.0, 1000.0, 1500.0):
                vals = [availability_probability(tier_geometry(alt, n, tb))
                        for tb in (math.pi / 6, math.pi / 4, math.pi / 3)]
                assert vals == sorted(vals)

    def test_approaches_one(self):
        geom = tier_geometry(1500.0, 100_000, math.pi / 2)
        assert availability_probability(geom) == pytest.approx(1.0, abs=1e-12)


class TestInterferenceLaplace:
    def test_unity_at_origin(self, table2):
        geom = table2.tier_geometries()[0]
        assert interference_laplace(0.0, geom, table2) == 1.0

    def test_unity_without_devices(self, table2):
        cfg = replace(table2, device_density_per_km2=0.0)
        geom = cfg.tier_geometries()[0]
        s = 1.0 / cfg.noise_w
        assert interference_laplace(s, geom, cfg) == 1.0

    def test_in_unit_interval_and_nonincreasing(self, table2):
        geom = table2.legit_geometry()
        grid = np.logspace(10, 18, 9)
        vals = interference_laplace(grid, geom, table2)
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-15)

    @given(st.floats(1e8, 1e18), st.floats(1.1, 100.0))
    def test_monotone_pairs(self, s, factor):
        cfg = table2_config()
        geom = cfg.tier_geometries()[0]
        assert interference_laplace(s * factor, geom, cfg) <= \
            interference_laplace(s, geom, cfg) + 1e-15

    def test_matches_monte_carlo_on_small_cap(self, table2):
        # 500 km tier: its cap holds ~3.2 devices on average, so the plain
        # sample mean of exp(-s I) resolves the transform across this range
        geom = table2.tier_geometries()[0]
        s_grid = [1e-2 / table2.noise_w, 1e-1 / table2.noise_w, 1.0 / table2.noise_w]
        estimates = montecarlo.estimate_laplace(table2, 0, s_grid, 20_000, seed=5)
        for s, est in zip(s_grid, estimates):
            assert abs(interference_laplace(s, geom, table2) - est.mean) <= 3.0 * est.stderr

    def test_rejects_negative_s(self, table2):
        with pytest.raises(ValueError):
            interference_laplace(-1.0, table2.tier_geometries()[0], table2)


class TestScalingFactors:
    def test_es_reduces_to_ls_without_an(self, table2):
        # with info_ratio 1 and equal thresholds the two tiers' thresholds,
        # and so their factors, coincide
        cfg = replace(with_parameter(table2, "gamma", 1.0), beta_es=table2.beta_ls)
        assert cfg.link_threshold(0) == pytest.approx(cfg.link_threshold(cfg.legit_tier),
                                                      rel=1e-12)
        assert _link_scale(cfg, 0) == pytest.approx(_link_scale(cfg, cfg.legit_tier), rel=1e-12)

    def test_default_margin_is_finite(self, table2):
        # info_ratio 0.1 against beta_es 0.1 leaves margin 0.01
        assert table2.link_threshold(0) == pytest.approx(0.1 / 0.01, rel=1e-12)
        assert 0.0 < _link_scale(table2, 0) < math.inf

    def test_ceiling_condition_is_unreachable(self, table2):
        cfg = with_parameter(table2, "gamma", 0.05)  # 0.05 - 0.1*0.95 < 0
        assert cfg.link_threshold(0) == math.inf
        assert cfg.link_threshold(2) == math.inf
        assert cfg.link_threshold(cfg.legit_tier) < math.inf

    def test_an_ceiling_predicate(self, table2):
        def unreachable(gamma):
            return with_parameter(table2, "gamma", gamma).link_threshold(0) == math.inf
        assert unreachable(0.05)
        assert unreachable(0.1 / 1.1)  # boundary is inclusive
        assert not unreachable(0.1)

    def test_serving_link_unreachable_without_message_power(self, table2):
        cfg = with_parameter(table2, "gamma", 0.0)
        assert cfg.link_threshold(cfg.legit_tier) == math.inf
        assert cfg.link_threshold(0) == math.inf

    def test_scaling_increases_with_distance(self, table2):
        u0, b, _ = _cap_span(table2.legit_geometry(), table2)
        scale = _link_scale(table2, table2.legit_tier)
        assert scale * (u0 + b * math.sin(0.2) ** 2) > scale * (u0 + b * math.sin(0.05) ** 2)

    def test_link_form_matches_physical_path(self, table2):
        # The engine forms d^2 from v = sin^2(theta/2) and the link factor
        # per unit of d^2, never calling the angle -> distance -> path-gain
        # chain; pin both to that chain across each cap, up to a GEO tier.
        cfg = replace(table2, tiers=table2.tiers + (Tier(36_000.0, 500),))
        radio = cfg.radio
        for k, geom in enumerate(cfg.tier_geometries()):
            theta = np.linspace(0.0, geom.max_central_angle, 17)
            u0, b, v_max = _cap_span(geom, cfg)
            d = central_angle_to_distance(theta, geom.shell_radius_km, cfg.earth_radius_km)
            u = u0 + b * np.sin(0.5 * theta) ** 2
            assert u == pytest.approx(d ** 2, rel=1e-12)
            assert u0 + b * v_max == pytest.approx(d[-1] ** 2, rel=1e-12)
            want = cfg.fading.rate * cfg.link_threshold(k) / (
                radio.tx_power_w * radio.antenna_gain_linear * path_gain(d, radio.carrier_hz))
            assert _link_scale(cfg, k) * u == pytest.approx(want, rel=1e-12)


class TestCoverage:
    def test_tiny_threshold_recovers_availability(self, table2):
        cfg = replace(table2, beta_ls=1e-6)
        cov = coverage_probability(cfg)
        assert abs(cov - availability_probability(cfg.legit_geometry())) < 1e-3

    def test_noise_free_interference_free_limit(self, table2):
        cfg = replace(table2, device_density_per_km2=0.0,
                      radio=replace(table2.radio, noise_density_w_per_hz=1e-40))
        cov = coverage_probability(cfg)
        assert cov == pytest.approx(availability_probability(cfg.legit_geometry()), abs=1e-9)

    def test_golden_default(self, table2):
        assert coverage_probability(table2) == pytest.approx(GOLDEN_P_COV, rel=1e-10)

    def test_matches_monte_carlo_joint_frequency(self, table2):
        est = montecarlo.estimate(table2, 3000, master_seed=17)
        assert abs(coverage_probability(table2) - est["p_cov"].mean) <= \
            max(0.02, 3.0 * est["p_cov"].stderr)

    def test_bounded_by_availability(self, table2):
        assert coverage_probability(table2) <= availability_probability(table2.legit_geometry())

    def test_monotone_in_info_ratio(self, table2):
        vals = [coverage_probability(with_parameter(table2, "gamma", round(0.1 * i, 1)))
                for i in range(1, 10)]
        assert vals == sorted(vals)

    def test_zero_without_satellites_or_power_share(self, table2):
        none = replace(table2, tiers=(Tier(500.0, 500), Tier(1000.0, 0), Tier(1500.0, 500)))
        assert coverage_probability(none) == 0.0
        assert coverage_probability(with_parameter(table2, "gamma", 0.0)) == 0.0


class TestSecrecyOutage:
    def test_single_tier_is_certain(self, table2):
        cfg = replace(table2, tiers=(Tier(1000.0, 500),), legit_tier=0)
        assert secrecy_outage_probability(cfg) == 1.0

    def test_tiny_threshold_recovers_no_visibility_product(self, table2):
        cfg = replace(table2, beta_es=1e-6)
        assert abs(secrecy_outage_probability(cfg) - NOVIS_PRODUCT) < 1e-3

    def test_ceiling_regime_returns_one_exactly(self, table2):
        assert secrecy_outage_probability(with_parameter(table2, "gamma", 0.05)) == 1.0
        boundary = table2.beta_es / (1.0 + table2.beta_es)
        assert secrecy_outage_probability(with_parameter(table2, "gamma", boundary)) == 1.0

    def test_golden_default(self, table2):
        assert secrecy_outage_probability(table2) == pytest.approx(GOLDEN_P_OUT, rel=1e-10)

    def test_matches_monte_carlo(self, table2):
        est = montecarlo.estimate(table2, 3000, master_seed=23)
        assert abs(secrecy_outage_probability(table2) - est["p_out"].mean) <= \
            max(0.02, 3.0 * est["p_out"].stderr)

    def test_monotone_decreasing_in_info_ratio(self, table2):
        vals = [secrecy_outage_probability(with_parameter(table2, "gamma", round(0.1 * i, 1)))
                for i in range(1, 10)]
        assert vals == sorted(vals, reverse=True)


class TestShapeTwoFading:
    """With two-branch fading (shape 2) the threshold probabilities become a
    genuine alternating binomial sum; pin the expansion against the simulator."""

    def probe(self, table2):
        # interference-free, so both engines share the identical max-of-two-
        # exponentials signal law and agreement is exact in distribution;
        # thresholds chosen to keep both metrics well inside (0, 1)
        return replace(with_parameter(table2, "gamma", 0.48),
                       fading=replace(table2.fading, shape_m1=2),
                       device_density_per_km2=0.0, beta_ls=30.0, beta_es=0.9)

    def test_interference_free_agreement(self, table2):
        cfg = self.probe(table2)
        est = montecarlo.estimate(cfg, 6000, master_seed=99)
        cov = coverage_probability(cfg)
        out = secrecy_outage_probability(cfg)
        assert 0.05 < cov < 0.95 and 0.001 < out < 0.95  # interior, not saturated
        assert abs(cov - est["p_cov"].mean) <= 3.0 * est["p_cov"].stderr
        assert abs(out - est["p_out"].mean) <= 3.0 * est["p_out"].stderr

    def test_with_interference_within_band(self, table2):
        # with devices present both engines draw interferer gains from the
        # Gamma law and link gains from the max-of-exponentials law
        cfg = replace(table2, fading=replace(table2.fading, shape_m1=2))
        est = montecarlo.estimate(cfg, 6000, master_seed=123)
        assert abs(coverage_probability(cfg) - est["p_cov"].mean) <= \
            max(0.02, 3.0 * est["p_cov"].stderr)
        assert abs(secrecy_outage_probability(cfg) - est["p_out"].mean) <= \
            max(0.02, 3.0 * est["p_out"].stderr)


class TestComposedMetrics:
    def test_successful_is_product(self, table2):
        assert full_report(table2).p_suc == pytest.approx(
            availability_probability(table2.legit_geometry()) * coverage_probability(table2),
            rel=1e-14)

    def test_zero_when_unavailable(self, table2):
        cfg = replace(table2, tiers=(Tier(500.0, 500), Tier(1000.0, 0), Tier(1500.0, 500)))
        assert full_report(cfg).p_suc == 0.0

    def test_zero_without_power_share(self, table2):
        assert full_report(with_parameter(table2, "gamma", 0.0)).p_suc == 0.0
        assert secure_probability(with_parameter(table2, "gamma", 0.0)) == 0.0

    def test_secure_equals_successful_in_ceiling_regime(self, table2):
        cfg = with_parameter(table2, "gamma", 0.05)
        assert secure_probability(cfg) == full_report(cfg).p_suc

    def test_golden_default(self, table2):
        assert secure_probability(table2) == pytest.approx(GOLDEN_P_SEC, rel=1e-10)


class TestFullReport:
    def test_product_identities_to_machine_precision(self, table2):
        r = full_report(table2)
        assert r.p_suc == r.p_av_per_tier[table2.legit_tier] * r.p_cov
        assert r.p_sec == r.p_suc * r.p_out
        assert abs(r.p_sec - r.p_suc * r.p_out) < 1e-12

    def test_all_fields_are_probabilities(self, table2):
        r = full_report(table2)
        for v in (*r.p_av_per_tier, r.p_cov, r.p_suc, r.p_out, r.p_sec):
            assert 0.0 <= v <= 1.0

    def test_bit_identical_reruns(self, table2):
        assert full_report(table2) == full_report(table2)

    def test_quadrature_refinement_stability(self, table2):
        r4 = full_report(table2, QuadratureSpec(panels=4))
        r8 = full_report(table2, QuadratureSpec(panels=8))
        for name in ("p_cov", "p_suc", "p_out", "p_sec"):
            assert abs(getattr(r4, name) - getattr(r8, name)) < 1e-6

    def test_report_validation(self):
        with pytest.raises(ValueError):
            MetricsReport(p_av_per_tier=(0.5,), p_cov=1.2, p_suc=0.5, p_out=0.5, p_sec=0.25)


def test_coverage_rounding_near_availability_stays_in_bound(table2):
    # A one-tier scenario whose coverage integral is availability up to
    # rounding; the theta-space rule overshot it by 3.6e-15, which
    # full_report used to reject.
    cfg = replace(table2, tiers=(Tier(733.0622721139226, 3201),), legit_tier=0,
                  fading=replace(table2.fading, shape_m1=5),
                  beta_ls=5.653424715587807e-06, beta_es=0.39403864688113355)
    p_av = availability_probability(cfg.legit_geometry())
    assert p_av - 1e-14 <= full_report(cfg).p_cov <= p_av


def test_bracket_rule_clips_rounding_and_raises_past_it(table2, monkeypatch):
    bound = availability_probability(table2.legit_geometry())

    def coverage_with_integral(value):
        monkeypatch.setattr(analytics, "integrate", lambda *args: value)
        return coverage_probability(table2)

    assert coverage_with_integral(bound + 0.5e-12) == bound
    assert coverage_with_integral(-0.5e-12) == 0.0
    with pytest.raises(ArithmeticError, match=r"^coverage, tier 1: integral .* outside") as info:
        coverage_with_integral(bound + 1e-9)
    assert not isinstance(info.value, QuadratureError)


def assert_report_in_range(cfg, r):
    p_av = r.p_av_per_tier[cfg.legit_tier]
    for v in (*r.p_av_per_tier, r.p_cov, r.p_suc, r.p_out, r.p_sec):
        assert 0.0 <= v <= 1.0
    assert r.p_cov <= p_av
    assert r.p_sec <= r.p_suc


@pytest.mark.parametrize("tiers, legit, beta_ls, beta_es", [
    # fuzz-range scenarios whose outage quadrature used to fail: at a tiny
    # beta_es the below-threshold integrand was rounding dust
    (((32003.261037644104, 3233), (469.98043213069, 4581)), 0,
     5.150416985722238e-05, 4.752407042117199e-06),
    (((35306.44351195311, 3799), (12885.104637740438, 898)), 0,
     224.17295858554402, 1.4441065255565709e-06),
])
def test_tiny_eavesdropper_threshold_evaluates(table2, tiers, legit, beta_ls, beta_es):
    cfg = replace(table2, tiers=tuple(Tier(a, n) for a, n in tiers), legit_tier=legit,
                  fading=replace(table2.fading, shape_m1=5), beta_ls=beta_ls, beta_es=beta_es)
    assert_report_in_range(cfg, full_report(cfg))


def test_narrow_cap_at_constellation_scale_evaluates(table2):
    # theta_beam 0.001 leaves caps of ~1e-4 rad; availability formed from
    # (1 + cos theta) / 2 lost 9e-9 of itself there and fell below the
    # coverage integral, which full_report then rejected
    cfg = replace(table2, theta_beam=1e-3,
                  tiers=tuple(replace(t, num_satellites=10**6) for t in table2.tiers),
                  fading=replace(table2.fading, shape_m1=5), beta_ls=1e-3, beta_es=1e-3)
    assert_report_in_range(cfg, full_report(cfg))


@settings(max_examples=200, derandomize=True)
@given(fuzz_configs())
def test_full_report_in_range_or_typed_error(cfg):
    try:
        r = full_report(cfg)
    except ArithmeticError:  # QuadratureError included, as full_report documents
        return
    assert_report_in_range(cfg, r)


@pytest.mark.parametrize("metric, fragments", [
    (coverage_probability, ("coverage", "tier 1")),
    (secrecy_outage_probability, ("secrecy outage", "tier 0")),
])
def test_quadrature_error_names_metric_and_tier(table2, metric, fragments):
    coarse = QuadratureSpec(nodes_per_panel=2, panels=1, rel_tolerance=1e-15)
    with pytest.raises(QuadratureError) as info:
        metric(table2, coarse)
    for fragment in fragments:
        assert fragment in str(info.value)
