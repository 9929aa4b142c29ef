import math
from dataclasses import replace

import numpy as np
import pytest

from leosec import analytics, montecarlo
from leosec.channel import db_to_linear, received_power, sinr_legitimate
from leosec.config import Tier, table2_config, with_parameter
from leosec.geometry import central_angle_to_distance, contact_angle_cdf
from leosec.montecarlo import (BLOCK_TRIALS, McEstimate, empirical_availability, estimate,
                               estimate_laplace, run_trial,
                               sample_nearest_angles)

# Hand-composed serving-link SINR at the sub-satellite point with the channel
# gain forced to the fading scale and no interference:
#   0.1 * (0.19952623... * pg(1000 km) * 10**4.19 * 0.1269) / 7.16592906...e-16
PINNED_NADIR_SINR = 7.786652677294913


class TestRunTrial:
    def test_empty_constellation(self, table2):
        cfg = replace(table2, tiers=tuple(replace(t, num_satellites=0) for t in table2.tiers))
        out = run_trial(cfg, trial_seed=3)
        assert out.in_view_per_tier == (False, False, False)
        assert not out.covered
        assert out.outage

    def test_single_tier_has_no_eavesdroppers(self, table2):
        cfg = replace(table2, tiers=(Tier(1000.0, 500),), legit_tier=0)
        for seed in range(5):
            assert run_trial(cfg, seed).outage

    def test_outcome_invariants(self, table2):
        m = table2.legit_tier
        for seed in range(10):
            out = run_trial(table2, seed)
            assert len(out.in_view_per_tier) == len(table2.tiers)
            assert not out.covered or out.in_view_per_tier[m]
            eavesdropper_in_view = any(v for k, v in enumerate(out.in_view_per_tier) if k != m)
            assert out.outage or eavesdropper_in_view

    def test_deterministic_for_seed(self, table2):
        assert run_trial(table2, 1234) == run_trial(table2, 1234)


def test_pinned_nadir_link_sinr(table2):
    cfg = replace(table2, device_density_per_km2=0.0)
    geom = cfg.legit_geometry()
    d = central_angle_to_distance(0.0, geom.shell_radius_km, cfg.earth_radius_km)
    signal = received_power(cfg.radio, d, cfg.fading.scale_m2)
    sinr = sinr_legitimate(signal, 0.0, cfg.noise_w, cfg.radio.info_ratio)
    assert sinr == pytest.approx(PINNED_NADIR_SINR, rel=1e-12)
    # the simulator's rule decides this link as its SINR does
    fade, k = np.array([cfg.fading.scale_m2]), cfg.legit_tier
    for beta_ls, clears in ((0.99 * sinr, True), (1.01 * sinr, False)):
        point = replace(cfg, beta_ls=beta_ls)
        assert montecarlo._clears(point, k, geom, np.zeros(1), fade, 0.0)[0] == clears


class TestEstimate:
    def test_deterministic_across_runs_and_workers(self, table2):
        n = 3 * BLOCK_TRIALS + 17
        a = estimate(table2, n, master_seed=9, n_jobs=1)
        assert estimate(table2, n, master_seed=9, n_jobs=1) == a
        for n_jobs in (2, 8):
            assert estimate(table2, n, master_seed=9, n_jobs=n_jobs) == a

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


# Away from table2's operating point: a shape-3 fading law with a low serving
# threshold; sparse tiers, so availability is below one; ten times the device
# density at a larger power share, so eavesdroppers clear beta_es without
# interference and their fields decide the outage.
SPOT_CONFIGS = {
    "shape3_beta_ls_-20dB": lambda c: replace(c, fading=replace(c.fading, shape_m1=3),
                                              beta_ls=db_to_linear(-20.0)),
    "20_satellites_per_tier": lambda c: with_parameter(c, "num_satellites", 20),
    "density_1e-5_gamma_0.3": lambda c: with_parameter(
        with_parameter(c, "device_density", 1e-5), "gamma", 0.3),
}


def _assert_within_four_sigma(cfg, n, seed):
    """Every metric within |z| <= 4 of its closed form at ``n`` trials, with
    no absolute floor; z uses the binomial stderr at the closed-form value."""
    expected = analytics.full_report(cfg).values()
    est = estimate(cfg, n, master_seed=seed)
    assert set(expected) == set(est)
    for metric, value in expected.items():
        stderr = math.sqrt(value * (1.0 - value) / n)
        assert abs(est[metric].mean - value) <= 4.0 * stderr, (metric, value, est[metric])


@pytest.mark.parametrize("name", SPOT_CONFIGS)
def test_spot_check_against_closed_forms(table2, name):
    _assert_within_four_sigma(SPOT_CONFIGS[name](table2), 100_000, seed=1)


# Random spot checks draw from the fuzz ranges of ``strategies.fuzz_configs``
# (1-3 tiers here), plus a power share uniform on (0, 1], so some configs sit
# under the jamming ceiling (7 of the 20).  The simulator's cost grows with
# each eavesdropper tier's in-cap satellites times its cap's device count, so
# altitudes stop at 1,500 km and satellite counts at 500.  At 4,000 trials on
# 2 shared cores the 20 checks then take about 1 s in all, and the costliest
# config within the bounds (three full 1,500 km tiers, every link clearing)
# 1.8 s; the full fuzz ranges reach minutes.
RANDOM_SPOT_CONFIGS = 20
RANDOM_SPOT_MAX_ALTITUDE_KM = 1_500.0
RANDOM_SPOT_MAX_SATELLITES = 500


def _random_spot_config(base, seed):
    rng = np.random.default_rng(seed)
    n_tiers = int(rng.integers(1, 4))
    altitudes = np.exp(rng.uniform(math.log(160.0), math.log(RANDOM_SPOT_MAX_ALTITUDE_KM), n_tiers))
    counts = rng.integers(0, RANDOM_SPOT_MAX_SATELLITES + 1, n_tiers)
    beta_ls, beta_es = np.exp(rng.uniform(math.log(1e-6), math.log(1e3), 2))
    tiers = tuple(Tier(float(a), int(n)) for a, n in zip(altitudes, counts))
    return replace(base, tiers=tiers,
                   legit_tier=int(rng.integers(0, n_tiers)),
                   radio=replace(base.radio, info_ratio=1.0 - rng.random()),
                   fading=replace(base.fading, shape_m1=int(rng.integers(1, 6))),
                   beta_ls=float(beta_ls), beta_es=float(beta_es))


@pytest.mark.parametrize("seed", range(RANDOM_SPOT_CONFIGS))
def test_random_config_spot_check(table2, seed):
    """A random fuzz-range config, drawn within ``RANDOM_SPOT_MAX_ALTITUDE_KM``
    and ``RANDOM_SPOT_MAX_SATELLITES``, at 4,000 trials."""
    _assert_within_four_sigma(_random_spot_config(table2, seed), 4_000, seed)


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


def _recorded_blocks(monkeypatch, cfg, n_trials, seed):
    """Indicator arrays of every block ``estimate`` simulates, in order."""
    blocks = []
    kernel = montecarlo._simulate_block

    def record(*args):
        blocks.append(kernel(*args))
        return blocks[-1]

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_simulate_block", record)
        estimate(cfg, n_trials, master_seed=seed)
    return blocks


class TestSeeding:
    def test_prefix_stability_at_block_boundaries(self, table2, monkeypatch):
        # a block's worlds do not depend on how many blocks follow
        (first,) = _recorded_blocks(monkeypatch, table2, BLOCK_TRIALS, 7)
        blocks = _recorded_blocks(monkeypatch, table2, 3 * BLOCK_TRIALS, 7)
        assert len(blocks) == 3
        for got, want in zip(blocks[0], first):
            assert got.shape[0] == BLOCK_TRIALS
            assert np.array_equal(got, want)

    def test_blocks_draw_distinct_worlds(self, table2, monkeypatch):
        blocks = _recorded_blocks(monkeypatch, table2, 3 * BLOCK_TRIALS, 7)
        outages = [b[2] for b in blocks]
        assert not np.array_equal(outages[0], outages[1])
        assert not np.array_equal(outages[1], outages[2])
        other_seed = _recorded_blocks(monkeypatch, table2, BLOCK_TRIALS, 8)
        assert not np.array_equal(other_seed[0][2], outages[0])


def test_fields_are_drawn_in_bounded_chunks(table2, monkeypatch):
    # dense devices: every interference draw holds at most the chunk bound,
    # unless one receiver's field alone exceeds it
    chunk = 64
    sizes = []
    draw = montecarlo._interference_fields

    def record(cfg, rng, geom, counts):
        sizes.append((int(counts.sum()), counts.size))
        return draw(cfg, rng, geom, counts)

    monkeypatch.setattr(montecarlo, "_CHUNK_DEVICES", chunk)
    monkeypatch.setattr(montecarlo, "_interference_fields", record)
    estimate(with_parameter(table2, "device_density", 1e-5), 300, master_seed=5)
    assert sizes and max(total for total, _ in sizes) > chunk
    assert all(total <= chunk or receivers == 1 for total, receivers in sizes)


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
        # two independent estimates of one probability: the in-cap count
        # draw and the nearest-angle draw must agree within 4 sigma
        n = 20_000
        emp = empirical_availability(n_sats, theta, n, seed=12)
        from_angles = float(np.mean(sample_nearest_angles(n_sats, n, seed=13) <= theta))
        p = contact_angle_cdf(theta, n_sats, math.pi)
        assert abs(emp - from_angles) <= 4.0 * math.sqrt(2.0 * p * (1.0 - p) / n)

    def test_availability_without_satellites_is_zero(self):
        assert empirical_availability(0, math.pi / 2, 100, seed=1) == 0.0
        assert np.all(sample_nearest_angles(0, 100, seed=1) == math.pi)


def test_default_thread_count(monkeypatch):
    monkeypatch.delenv(montecarlo.THREADS_ENV_VAR, raising=False)
    assert montecarlo.default_thread_count() == 1
    monkeypatch.setenv(montecarlo.THREADS_ENV_VAR, "8")
    assert montecarlo.default_thread_count() == 8
    monkeypatch.setenv(montecarlo.THREADS_ENV_VAR, "not-a-number")
    with pytest.raises(ValueError):
        montecarlo.default_thread_count()
