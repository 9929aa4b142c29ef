import math
from dataclasses import replace

import numpy as np
import pytest

from leosec import analytics, montecarlo
from leosec.config import Tier, table2_config, with_parameter
from leosec.montecarlo import (McEstimate, TrialOutcome, empirical_availability,
                               estimate, estimate_laplace, legit_link_sinr,
                               run_trial, sample_nearest_angles, trial_seeds)

# Hand-composed serving-link SINR at the sub-satellite point with the channel
# gain forced to the fading scale and no interference:
#   0.1 * (0.19952623... * pg(1000 km) * 10**4.19 * 0.1269) / 7.16592906...e-16
PINNED_NADIR_SINR = 7.786652677294913


class TestRunTrial:
    def test_empty_constellation(self, table2):
        cfg = replace(table2, tiers=tuple(replace(t, num_satellites=0) for t in table2.tiers))
        out = run_trial(cfg, trial_seed=3)
        assert out.in_view_per_tier == (False, False, False)
        assert out.sinr_ls is None
        assert out.max_es_sinr == 0.0

    def test_single_tier_has_no_eavesdroppers(self, table2):
        cfg = replace(table2, tiers=(Tier(1000.0, 500),), legit_tier=0)
        for seed in range(5):
            assert run_trial(cfg, seed).max_es_sinr == 0.0

    def test_outcome_invariants(self, table2):
        for seed in range(10):
            out = run_trial(table2, seed)
            assert (out.sinr_ls is not None) == out.in_view_per_tier[table2.legit_tier]
            assert out.max_es_sinr >= 0.0

    def test_deterministic_for_seed(self, table2):
        assert run_trial(table2, 1234) == run_trial(table2, 1234)


def test_pinned_nadir_link_sinr(table2):
    cfg = replace(table2, device_density_per_km2=0.0)
    sinr = legit_link_sinr(cfg, theta0=0.0, fade=cfg.fading.scale_m2, interference_w=0.0)
    assert sinr == pytest.approx(PINNED_NADIR_SINR, rel=1e-12)


class TestEstimate:
    def test_deterministic_across_runs_and_workers(self, table2):
        a = estimate(table2, 400, master_seed=9, n_jobs=1)
        b = estimate(table2, 400, master_seed=9, n_jobs=1)
        c = estimate(table2, 400, master_seed=9, n_jobs=4)
        assert a == b == c

    def test_availability_matches_closed_form(self, table2):
        est = estimate(table2, 4000, master_seed=2)
        for k, geom in enumerate(table2.tier_geometries()):
            expected = analytics.availability_probability(geom)
            got = est[f"p_av_{k}"]
            assert abs(got.mean - expected) <= max(3.0 * got.stderr, 0.005)

    def test_zero_info_ratio_never_covers(self, table2):
        est = estimate(with_parameter(table2, "gamma", 0.0), 300, master_seed=4)
        assert est["p_cov"].mean == 0.0

    def test_ceiling_regime_outage_is_exactly_one(self, table2):
        est = estimate(with_parameter(table2, "gamma", 0.05), 300, master_seed=6)
        assert est["p_out"].mean == 1.0

    def test_composed_metrics(self, table2):
        est = estimate(table2, 500, master_seed=11)
        m = table2.legit_tier
        assert est["p_suc"].mean == est[f"p_av_{m}"].mean * est["p_cov"].mean
        assert est["p_sec"].mean == est["p_suc"].mean * est["p_out"].mean

    def test_estimate_fields(self, table2):
        est = estimate(table2, 250, master_seed=13)
        for item in est.values():
            assert isinstance(item, McEstimate)
            assert 0.0 <= item.mean <= 1.0
            assert item.n_trials == 250
            assert item.master_seed == 13
            assert item.stderr == pytest.approx(
                math.sqrt(item.mean * (1.0 - item.mean) / 250))

    def test_rejects_zero_trials(self, table2):
        with pytest.raises(ValueError):
            estimate(table2, 0, master_seed=1)


class TestEstimateLaplace:
    def test_at_origin(self, table2):
        (est,) = estimate_laplace(table2, 0, [0.0], 500, seed=1)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_without_devices(self, table2):
        cfg = replace(table2, device_density_per_km2=0.0)
        for est in estimate_laplace(cfg, 1, [0.0, 1e12, 1e15], 200, seed=1):
            assert est.mean == 1.0

    def test_agrees_with_transform(self, table2):
        geom = table2.tier_geometries()[0]
        s = 0.1 / table2.noise_w
        (est,) = estimate_laplace(table2, 0, [s], 30_000, seed=21)
        assert abs(est.mean - analytics.interference_laplace(s, geom, table2)) <= 3 * est.stderr

    def test_agrees_with_transform_at_shape_three(self, table2):
        # interferer gains must follow the Gamma law the transform averages
        # over; the max-of-exponentials link law misses it by up to z = 40 here
        cfg = replace(table2, fading=replace(table2.fading, shape_m1=3))
        geom = cfg.tier_geometries()[0]
        s_grid = [x / cfg.noise_w for x in (1e-4, 1e-3, 1e-2)]
        for s, est in zip(s_grid, estimate_laplace(cfg, 0, s_grid, 100_000, seed=7)):
            assert abs(est.mean - analytics.interference_laplace(s, geom, cfg)) <= 3 * est.stderr

    def test_rejects_negative_s(self, table2):
        with pytest.raises(ValueError):
            estimate_laplace(table2, 0, [-1.0], 100, seed=1)


class TestSeeding:
    def test_trial_seeds_deterministic(self):
        a = trial_seeds(42, 1000)
        b = trial_seeds(42, 1000)
        assert np.array_equal(a, b)
        assert len(np.unique(a)) == 1000

    def test_prefix_stability(self):
        # seeds for trial i do not depend on how many trials follow
        assert np.array_equal(trial_seeds(7, 100), trial_seeds(7, 1000)[:100])


class TestSamplingHelpers:
    def test_empirical_availability_tracks_closed_form(self):
        from leosec.geometry import tier_geometry
        geom = tier_geometry(500.0, 100, math.pi / 4)
        expected = analytics.availability_probability(geom)
        emp = empirical_availability(100, geom.max_central_angle, 30_000, seed=3)
        assert abs(emp - expected) <= max(3.0 * math.sqrt(expected * (1 - expected) / 30_000),
                                          0.005)

    def test_nearest_angle_samples(self):
        samples = sample_nearest_angles(10, 5000, seed=9)
        assert samples.shape == (5000,)
        assert np.all((samples >= 0.0) & (samples <= math.pi))

    @pytest.mark.parametrize("n_sats, theta", [(1, 0.3), (10, 0.5), (100, 0.1585), (7, 1.2)])
    def test_availability_is_nearest_angle_within_cap(self, n_sats, theta):
        # both draw the same constellations from the seed, batch by batch
        emp = empirical_availability(n_sats, theta, 5000, seed=12, batch=1500)
        angles = sample_nearest_angles(n_sats, 5000, seed=12, batch=1500)
        assert emp == float(np.mean(angles <= theta))

    def test_availability_without_satellites_is_zero(self):
        assert empirical_availability(0, math.pi / 2, 100, seed=1) == 0.0


def test_default_thread_count(monkeypatch):
    monkeypatch.delenv(montecarlo.THREADS_ENV_VAR, raising=False)
    assert montecarlo.default_thread_count() == 1
    monkeypatch.setenv(montecarlo.THREADS_ENV_VAR, "8")
    assert montecarlo.default_thread_count() == 8
    monkeypatch.setenv(montecarlo.THREADS_ENV_VAR, "not-a-number")
    with pytest.raises(ValueError):
        montecarlo.default_thread_count()
