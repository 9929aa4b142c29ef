import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from leosec import analytics, montecarlo
from leosec.channel import db_to_linear, received_power, sinr_legitimate
from leosec.config import Tier, table2_config, with_parameter
from leosec.geometry import central_angle_to_distance, contact_angle_cdf, sample_cap_cosines
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
    # the simulator's rule decides this link (cap cosine 1) as its SINR does
    fade = np.array([cfg.fading.scale_m2])
    for beta_ls, clears in ((0.99 * sinr, True), (1.01 * sinr, False)):
        tier = montecarlo._tiers(replace(cfg, beta_ls=beta_ls))[cfg.legit_tier]
        power = montecarlo._powers(tier, np.ones(1), fade)
        assert montecarlo._clears(cfg, tier, power, 0.0)[0] == clears


def test_kernel_powers_match_physical_functions(table2):
    # the kernel forms power as received_power at 1 km and unit gain, times
    # the gain, over u = d^2 taken from the cap cosine; it must equal
    # received_power at the law-of-cosines distance, on table2's tiers and a
    # 36,000 km tier, cap edge to nadir
    cfg = replace(table2, tiers=table2.tiers + (Tier(36_000.0, 10),))
    rng = np.random.default_rng(3)
    for tier in montecarlo._tiers(cfg):
        geom = tier.geom

        def reference(cosines, gains):
            d = central_angle_to_distance(np.arccos(cosines), geom.shell_radius_km,
                                          cfg.earth_radius_km)
            return received_power(cfg.radio, d, gains)

        cosines = np.linspace(math.cos(geom.max_central_angle), 1.0, 201)
        gains = rng.exponential(1.0, cosines.size)
        np.testing.assert_allclose(montecarlo._powers(tier, cosines, gains),
                                   reference(cosines, gains), rtol=1e-12, atol=0.0)
        # interferers: the same draws, summed per receiver
        counts = np.array([1, 0, 3, 1, 2])
        got = montecarlo._interference_fields(cfg, np.random.default_rng(5), tier, counts)
        draw = np.random.default_rng(5)
        cos_a = sample_cap_cosines(draw, geom.max_central_angle, int(counts.sum()))
        powers = reference(cos_a, draw.gamma(cfg.fading.shape_m1, cfg.fading.scale_m2, cos_a.size))
        want = [powers[lo:lo + c].sum() for lo, c in zip(np.cumsum(counts) - counts, counts)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_kernel_rejects_what_received_power_rejects(table2):
    tier = montecarlo._tiers(table2)[0]
    with pytest.raises(ValueError, match="fade"):
        montecarlo._powers(tier, np.ones(2), np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="distance"):   # u = 0: the receiver on the shell
        montecarlo._powers(tier._replace(a=tier.b), np.ones(1), np.ones(1))


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


# Family level of one engine comparison: the chance that the judge fails a
# comparison whose every binomial row follows its closed form is at most this.
FAMILY_ALPHA = 1e-3


@functools.lru_cache(maxsize=None)
def _log_factorials(n):
    return np.array([math.lgamma(j + 1.0) for j in range(n + 1)])


def _binomial_two_sided_p(k, n, p):
    """Exact two-sided tail of ``k`` successes in ``n`` Binomial(n, p)
    trials: twice the smaller one-sided tail, at most 1."""
    if p <= 0.0 or p >= 1.0:
        return float(k == (n if p >= 1.0 else 0))
    lf, j = _log_factorials(n), np.arange(n + 1)
    pmf = np.exp(lf[n] - lf - lf[::-1] + j * math.log(p) + (n - j) * math.log1p(-p))
    return min(1.0, 2.0 * min(float(pmf[:k + 1].sum()), float(pmf[k:].sum())))


def _holm_rejections(pvalues, alpha):
    """Rows that Holm's step-down rejects at family level ``alpha``: the
    i-th smallest of m p-values is rejected while p <= alpha / (m - i)."""
    ordered = sorted(pvalues.items(), key=lambda item: item[1])
    rejected = []
    for i, (row, pvalue) in enumerate(ordered):
        if pvalue > alpha / (len(ordered) - i):
            break
        rejected.append(row)
    return rejected


def _judge(cfg, est, n):
    """Rows of ``est`` (``n`` trials) that disagree with the closed forms:
    each frequency row's count is scored by its exact two-sided binomial
    tail at the analytic value, and Holm's step-down over the rows holds the
    comparison at ``FAMILY_ALPHA``.  p_suc and p_sec are products of judged
    rows in both engines, not counts, so they are judged through their
    factors."""
    expected = analytics.full_report(cfg).values()
    assert set(expected) == set(est)
    pvalues = {metric: _binomial_two_sided_p(round(est[metric].mean * n), n, value)
               for metric, value in expected.items() if metric not in ("p_suc", "p_sec")}
    return _holm_rejections(pvalues, FAMILY_ALPHA)


def _assert_matches_closed_forms(cfg, n, seed):
    """``estimate`` at ``n`` trials passes the judge against ``full_report``."""
    est = estimate(cfg, n, master_seed=seed)
    assert not _judge(cfg, est, n), {m: e.mean for m, e in est.items()}


@pytest.mark.parametrize("name", SPOT_CONFIGS)
def test_spot_check_against_closed_forms(table2, name):
    _assert_matches_closed_forms(SPOT_CONFIGS[name](table2), 100_000, seed=1)


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
    _assert_matches_closed_forms(_random_spot_config(table2, seed), 4_000, seed)


class TestJudge:
    def test_binomial_tail_matches_exact_sum(self):
        n, p = 30, 0.3
        pmf = [math.comb(n, j) * p ** j * (1 - p) ** (n - j) for j in range(n + 1)]
        for k in range(n + 1):
            want = min(1.0, 2.0 * min(sum(pmf[:k + 1]), sum(pmf[k:])))
            assert _binomial_two_sided_p(k, n, p) == pytest.approx(want, rel=1e-12)
        assert _binomial_two_sided_p(0, n, 0.0) == _binomial_two_sided_p(n, n, 1.0) == 1.0
        assert _binomial_two_sided_p(1, n, 0.0) == _binomial_two_sided_p(n - 1, n, 1.0) == 0.0

    def test_holm_steps_down(self):
        rows = {"a": 1e-4, "b": 4e-4, "c": 0.02}
        assert _holm_rejections(rows, 1e-3) == ["a", "b"]   # 1e-4 <= 1e-3/3, 4e-4 <= 1e-3/2
        assert _holm_rejections({"a": 4e-4, "b": 4e-4, "c": 0.5}, 1e-3) == []

    def test_rare_misses_pass_on_their_merits(self, table2):
        # seed 73: 2 of 4,000 worlds miss a tier whose availability is
        # 0.99998 (0.09 misses expected): |z| 6.4, exact two-sided tail 0.0076
        cfg, n = _random_spot_config(table2, 73), 4_000
        est = estimate(cfg, n, master_seed=73)
        assert round((1.0 - est["p_av_2"].mean) * n) == 2
        assert not _judge(cfg, est, n)

    def test_fails_a_simulator_without_the_jamming_share(self, table2, monkeypatch):
        # the judge is no looser than |z| <= 4, which failed these 8 of the
        # 20 random configs when eavesdroppers ignore the jamming share
        tiers = montecarlo._tiers

        def no_jamming(cfg):
            return [t if t.serving else t._replace(threshold=cfg.beta_es / cfg.radio.info_ratio)
                    for t in tiers(cfg)]

        monkeypatch.setattr(montecarlo, "_tiers", no_jamming)
        failed = set()
        for seed in range(RANDOM_SPOT_CONFIGS):
            cfg = _random_spot_config(table2, seed)
            if _judge(cfg, estimate(cfg, 4_000, master_seed=seed), 4_000):
                failed.add(seed)
        assert {0, 4, 6, 9, 10, 15, 18, 19} <= failed


def _link_draws(monkeypatch):
    """Links per ``sample_fades`` draw, recorded while the monkeypatch holds."""
    sizes, draw = [], montecarlo.sample_fades

    def record(fading, rng, count):
        sizes.append(count)
        return draw(fading, rng, count)

    monkeypatch.setattr(montecarlo, "sample_fades", record)
    return sizes


class TestLinkCap:
    def test_cap_at_the_largest_draw_keeps_the_stream(self, table2, monkeypatch):
        with monkeypatch.context() as patch:
            sizes = _link_draws(patch)
            want = estimate(table2, 2 * BLOCK_TRIALS, master_seed=3)
        monkeypatch.setattr(montecarlo, "_MAX_LINKS", max(sizes))
        assert estimate(table2, 2 * BLOCK_TRIALS, master_seed=3) == want

    def test_split_draws_match_closed_forms(self, table2, monkeypatch):
        # table2 blocks hold about 12,000 eavesdropper links per tier; a cap of
        # one block's serving links splits each into about 48 runs
        unsplit = estimate(table2, 4_000, master_seed=1)
        monkeypatch.setattr(montecarlo, "_MAX_LINKS", BLOCK_TRIALS)
        sizes = _link_draws(monkeypatch)
        split = estimate(table2, 4_000, master_seed=1)
        assert max(sizes) <= BLOCK_TRIALS and split != unsplit
        assert not _judge(table2, split, 4_000)


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

    def record(cfg, rng, tier, counts):
        sizes.append((int(counts.sum()), counts.size))
        return draw(cfg, rng, tier, counts)

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
