import math
from dataclasses import replace

import numpy as np
import pytest

from leosec import analytics, montecarlo
from leosec.channel import db_to_linear
from leosec.config import Tier, table2_config, with_parameter
from leosec.montecarlo import (BLOCK_TRIALS, McEstimate, empirical_availability, estimate,
                               estimate_laplace, legit_link_sinr, run_trial,
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
    sinr = legit_link_sinr(cfg, theta0=0.0, fade=cfg.fading.scale_m2, interference_w=0.0)
    assert sinr == pytest.approx(PINNED_NADIR_SINR, rel=1e-12)


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


@pytest.mark.parametrize("name", SPOT_CONFIGS)
def test_spot_check_against_closed_forms(table2, name):
    """Every metric within |z| <= 4 of its closed form at 10^5 trials, with
    no absolute floor; z uses the binomial stderr at the closed-form value."""
    cfg = SPOT_CONFIGS[name](table2)
    n = 100_000
    report = analytics.full_report(cfg)
    est = estimate(cfg, n, master_seed=1)
    expected = {f"p_av_{k}": p for k, p in enumerate(report.p_av_per_tier)}
    expected.update({m: getattr(report, m) for m in ("p_cov", "p_suc", "p_out", "p_sec")})
    assert set(expected) == set(est)
    for metric, value in expected.items():
        stderr = math.sqrt(value * (1.0 - value) / n)
        assert abs(est[metric].mean - value) <= 4.0 * stderr, (metric, value, est[metric])


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
