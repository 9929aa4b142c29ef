import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from leosec import geometry
from leosec.geometry import (TierGeometry, cap_area_km2, central_angle_to_distance,
                             contact_angle_cdf, contact_angle_pdf, max_central_angle,
                             sample_cap_cosines, sample_sphere_cosines, tier_geometry)

from conftest import ks_distance

RE = 6371.0

# Frozen by hand evaluation of the law of cosines:
# sqrt(6371^2 + 6871^2 - 2*6371*6871*cos(0.1585))
DIST_01585_500KM = 1160.7883766444643

# Frozen direct trig evaluations of the two visibility-cap branches.
THETA_MAX_500KM_PI3 = 0.1582287317704747    # asin((6871/6371)*sin(pi/3)) - pi/3
THETA_MAX_500KM_HORIZON = 0.38384819529001624  # acos(6371/6871)
THETA_MAX_1500KM_PI3 = 0.6276206342983836   # acos(6371/7871): horizon-limited

# 1 - ((1 + cos 0.1585)/2)**500, direct evaluation
CDF_01585_N500 = 0.9568716138785356


class TestCentralAngleToDistance:
    def test_nadir_equals_altitude(self):
        assert central_angle_to_distance(0.0, 6871.0, RE) == pytest.approx(500.0)

    def test_antipodal_equals_radius_sum(self):
        assert central_angle_to_distance(math.pi, 6871.0, RE) == pytest.approx(13242.0)

    def test_law_of_cosines_value(self):
        d = central_angle_to_distance(0.1585, 6871.0, RE)
        assert d == pytest.approx(DIST_01585_500KM, rel=1e-12)

    def test_vectorized(self):
        theta = np.array([0.0, 0.1585, math.pi])
        d = central_angle_to_distance(theta, 6871.0, RE)
        assert d.shape == (3,)
        assert d[1] == pytest.approx(DIST_01585_500KM, rel=1e-12)

    @given(st.floats(0.0, math.pi - 1e-6), st.floats(1e-4, math.pi / 2),
           st.floats(100.0, 2000.0))
    def test_strictly_increasing(self, theta, dtheta, altitude):
        lo = central_angle_to_distance(theta, RE + altitude, RE)
        hi = central_angle_to_distance(min(theta + dtheta, math.pi), RE + altitude, RE)
        assert hi > lo

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            central_angle_to_distance(-0.1, 6871.0, RE)
        with pytest.raises(ValueError):
            central_angle_to_distance(3.5, 6871.0, RE)
        with pytest.raises(ValueError):
            central_angle_to_distance(0.5, RE, RE)  # shell not above ground
        with pytest.raises(ValueError):
            central_angle_to_distance(0.5, 6871.0, -1.0)


class TestMaxCentralAngle:
    def test_horizon_branch_at_wide_beam(self):
        assert max_central_angle(math.pi / 2, 6871.0, RE) == pytest.approx(
            THETA_MAX_500KM_HORIZON, rel=1e-12)

    def test_beam_branch_at_pi_3(self):
        assert max_central_angle(math.pi / 3, 6871.0, RE) == pytest.approx(
            THETA_MAX_500KM_PI3, rel=1e-12)

    def test_grows_with_altitude(self):
        hi = max_central_angle(math.pi / 3, 7871.0, RE)
        assert hi == pytest.approx(THETA_MAX_1500KM_PI3, rel=1e-12)
        assert hi > max_central_angle(math.pi / 3, 6871.0, RE)

    def test_continuous_at_branch_point(self):
        # The beam-limited branch has a square-root cusp at the branch point,
        # so double precision can only resolve its value there to ~1.5e-8;
        # the 1e-9 agreement of the two branch formulas needs extended
        # precision, with a double-precision probe at the cusp's own scale.
        one = np.longdouble(1)
        re_ld = np.longdouble(RE)
        for rk in (6871.0, 7371.0, 7871.0):
            rk_ld = np.longdouble(rk)
            b = np.arcsin(re_ld / rk_ld)
            beam_branch = np.arcsin(np.minimum(one, (rk_ld / re_ld) * np.sin(b))) - b
            horizon_branch = np.arccos(re_ld / rk_ld)
            assert abs(float(beam_branch - horizon_branch)) < 1e-9
            b64 = math.asin(RE / rk)
            assert abs(max_central_angle(b64 - 1e-12, rk, RE) - math.acos(RE / rk)) < 1e-5

    @given(st.floats(1e-3, math.pi / 2), st.floats(100.0, 2000.0))
    def test_bounded_by_horizon(self, theta_beam, altitude):
        rk = RE + altitude
        assert max_central_angle(theta_beam, rk, RE) <= math.acos(RE / rk) + 1e-15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            max_central_angle(0.0, 6871.0, RE)
        with pytest.raises(ValueError):
            max_central_angle(math.pi / 2 + 0.01, 6871.0, RE)


class TestContactAngleLaw:
    def test_cdf_zero_at_origin(self):
        assert contact_angle_cdf(0.0, 500, 0.2) == 0.0

    def test_cdf_zero_without_satellites(self):
        assert contact_angle_cdf(0.1, 0, 0.2) == 0.0

    def test_cdf_value_n500(self):
        assert contact_angle_cdf(0.1585, 500, 0.2) == pytest.approx(CDF_01585_N500, rel=1e-12)

    def test_cdf_matches_sampled_constellations(self):
        # empirical in-cap frequency over sampled 10-satellite constellations
        rng = np.random.default_rng(42)
        n = 40_000
        theta = 0.5
        nearest = np.arccos(rng.uniform(-1, 1, (n, 10)).max(axis=1))
        emp = float((nearest <= theta).mean())
        expected = contact_angle_cdf(theta, 10, math.pi)
        assert abs(emp - expected) < 3.0 * math.sqrt(expected * (1 - expected) / n)

    def test_pdf_zero_at_origin(self):
        assert contact_angle_pdf(0.0, 5, 0.2) == 0.0

    def test_single_satellite_density_is_half_sine(self):
        theta = np.linspace(0.0, math.pi, 7)
        assert contact_angle_pdf(theta, 1, math.pi) == pytest.approx(np.sin(theta) / 2.0)
        # integrates to 1 over the full sphere
        x, w = np.polynomial.legendre.leggauss(200)
        t = 0.5 * math.pi * (x + 1.0)
        assert 0.5 * math.pi * np.dot(w, contact_angle_pdf(t, 1, math.pi)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n_sats", [1, 10, 500])
    def test_pdf_integrates_to_cdf(self, n_sats):
        # independent single-panel Gauss-Legendre oracle, 200 nodes
        theta_max = 0.6
        x, w = np.polynomial.legendre.leggauss(200)
        t = 0.5 * theta_max * (x + 1.0)
        quad = 0.5 * theta_max * np.dot(w, contact_angle_pdf(t, n_sats, theta_max))
        assert abs(quad - contact_angle_cdf(theta_max, n_sats, theta_max)) < 1e-10

    @pytest.mark.parametrize("n_sats,angles", [
        (1, (0.3, 1.0, 2.0)),
        (7, (0.2, 0.5, 0.9)),
        (500, (0.02, 0.05, 0.1)),  # where the CDF is not saturated at 1
    ])
    def test_pdf_is_cdf_derivative(self, n_sats, angles):
        h = 1e-6
        for theta in angles:
            num = (contact_angle_cdf(theta + h, n_sats, math.pi)
                   - contact_angle_cdf(theta - h, n_sats, math.pi)) / (2 * h)
            assert num == pytest.approx(contact_angle_pdf(theta, n_sats, math.pi), rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            contact_angle_cdf(0.3, 5, 0.2)
        with pytest.raises(ValueError):
            contact_angle_cdf(-0.1, 5, 0.2)
        with pytest.raises(ValueError):
            contact_angle_pdf(0.1, 0, 0.2)

    def test_no_underflow_at_large_counts(self):
        v = contact_angle_cdf(0.01, 100_000, 0.2)
        assert 0.0 < v < 1.0


class TestSphereSampling:
    def test_uniform_sphere_statistics(self):
        rng = np.random.default_rng(7)
        n = 1_000_000
        cos_t = sample_sphere_cosines(rng, n)
        sigma_half = 3.0 * math.sqrt(0.25 / n)
        assert abs(float((cos_t >= 0.0).mean()) - 0.5) < sigma_half
        cap = 0.1585
        p_cap = (1.0 - math.cos(cap)) / 2.0
        emp = float((cos_t >= math.cos(cap)).mean())
        assert abs(emp - p_cap) < 3.0 * math.sqrt(p_cap * (1 - p_cap) / n)
        # mean of cos(polar) has variance 1/3 under the uniform law
        assert abs(float(cos_t.mean())) < 3.0 * math.sqrt(1.0 / 3.0 / n)

    def test_cap_cosines_inside_cap(self):
        rng = np.random.default_rng(5)
        n = 100_000
        cos_a = sample_cap_cosines(rng, 0.3, n)
        assert np.all((cos_a >= math.cos(0.3)) & (cos_a <= 1.0))
        # uniform on the cap means cos is uniform on [cos(cap), 1]
        width = 1.0 - math.cos(0.3)
        assert abs(float(cos_a.mean()) - (1.0 - width / 2.0)) < 3.0 * width / math.sqrt(12.0 * n)

    def test_cap_area_value(self):
        # 1e-6 devices/km^2 on this cap give a Poisson mean of
        # density * 2*pi*R^2*(1 - cos(cap)) = 3.1967908316715063
        assert 1e-6 * cap_area_km2(0.1585, RE) == pytest.approx(3.1967908316715063, rel=1e-12)


class TestTypes:
    def test_tier_geometry_invariants(self):
        with pytest.raises(ValueError):
            TierGeometry(6871.0, -1, 0.3)
        with pytest.raises(ValueError):
            TierGeometry(6871.0, 10, 0.0)
        with pytest.raises(ValueError):
            tier_geometry(-5.0, 10, math.pi / 3, RE)

    def test_tier_geometry_factory(self):
        g = tier_geometry(500.0, 500, math.pi / 3, RE)
        assert g.shell_radius_km == pytest.approx(6871.0)
        assert g.max_central_angle == pytest.approx(THETA_MAX_500KM_PI3, rel=1e-12)


def test_nearest_angle_distribution_matches_cdf():
    # quick KS check; the full 1e5-sample version lives in the acceptance suite
    rng = np.random.default_rng(19)
    n = 20_000
    nearest = np.arccos(np.clip(rng.uniform(-1, 1, (n, 50)).max(axis=1), -1, 1))
    d = ks_distance(nearest, lambda t: contact_angle_cdf(t, 50, math.pi))
    assert d < 0.02
