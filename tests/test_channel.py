import math
import operator
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from leosec.channel import (FadingParams, RadioParams, db_to_linear, dbm_to_watts,
                            gamma_fade_ccdf_bound, noise_power, path_gain,
                            received_power, sample_fades,
                            sinr_eavesdropper, sinr_legitimate)
from leosec.config import table2_config

from conftest import ks_distance

# Frozen direct evaluations:
TX_23DBM_W = 0.19952623149688797                 # 10**((23-30)/10)
NOISE_174DBMHZ_180KHZ_W = 7.165929069962975e-16  # 10**(-20.4) * 1.8e5
PATH_GAIN_500KM_2GHZ = 5.691433657143452e-16     # (c / (4*pi*2e9*5e5))**2
RECEIVED_500KM_UNIT_FADE = 1.7588211435124546e-12  # 0.1995.. * pg * 10**4.19
GAIN_419_DBI = 15488.166189124795
# max of 3 exponentials with rate (3!)**(-1/3)/0.1269 = 4.336652546486245,
# CCDF at x=0.2:
CCDF_M1_3_AT_02 = 0.8049600788885253


@pytest.fixture
def fading_default():
    return FadingParams(shape_m1=1, scale_m2=0.1269)


class TestConversions:
    def test_dbm_zero_is_milliwatt(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)

    def test_dbm_23(self):
        assert dbm_to_watts(23.0) == pytest.approx(TX_23DBM_W, rel=1e-14)

    def test_db_zero_is_unity(self):
        assert db_to_linear(0.0) == 1.0

    def test_db_419(self):
        assert db_to_linear(41.9) == pytest.approx(GAIN_419_DBI, rel=1e-14)


class TestNoisePower:
    def test_default_scenario_value(self):
        assert noise_power(dbm_to_watts(-174.0), 180e3) == pytest.approx(
            NOISE_174DBMHZ_180KHZ_W, rel=1e-14)

    def test_unit_bandwidth(self):
        assert noise_power(4e-21, 1.0) == 4e-21

    def test_linear_in_bandwidth(self):
        assert noise_power(4e-21, 2e5) == 2 * noise_power(4e-21, 1e5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            noise_power(0.0, 1e5)


class TestPathGain:
    def test_500km_2ghz(self):
        assert path_gain(500.0, 2e9) == pytest.approx(PATH_GAIN_500KM_2GHZ, rel=1e-14)

    def test_inverse_square(self):
        assert path_gain(2000.0, 2e9) == pytest.approx(path_gain(500.0, 2e9) / 16.0)

    def test_vanishes_at_infinity(self):
        assert path_gain(1e20, 2e9) < 1e-48

    def test_domain_error(self):
        with pytest.raises(ValueError):
            path_gain(0.0, 2e9)
        with pytest.raises(ValueError):
            path_gain(-10.0, 2e9)

    def test_vectorized(self):
        g = path_gain(np.array([500.0, 1000.0]), 2e9)
        assert g[0] == pytest.approx(4 * g[1])


class TestFadingLaw:
    def test_ccdf_one_at_zero(self, fading_default):
        assert gamma_fade_ccdf_bound(0.0, fading_default) == 1.0

    def test_unit_shape_is_exponential(self, fading_default):
        # shape 1 reduces to an exponential with mean scale_m2
        assert gamma_fade_ccdf_bound(0.1269, fading_default) == pytest.approx(math.exp(-1.0))

    def test_ccdf_vanishes(self, fading_default):
        assert gamma_fade_ccdf_bound(1e6, fading_default) == 0.0

    def test_shape_three_value(self):
        fp = FadingParams(shape_m1=3, scale_m2=0.1269)
        assert fp.rate == pytest.approx(4.336652546486245, rel=1e-14)
        assert gamma_fade_ccdf_bound(0.2, fp) == pytest.approx(CCDF_M1_3_AT_02, rel=1e-12)

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_ccdf_nonincreasing(self, x1, x2):
        fp = FadingParams(shape_m1=2, scale_m2=0.5)
        lo, hi = sorted((x1, x2))
        assert gamma_fade_ccdf_bound(hi, fp) <= gamma_fade_ccdf_bound(lo, fp) + 1e-15

    @pytest.mark.parametrize("m1", [1, 2, 4])
    def test_sampler_matches_ccdf(self, m1):
        fp = FadingParams(shape_m1=m1, scale_m2=0.1269)
        rng = np.random.default_rng(100 + m1)
        samples = sample_fades(fp, rng, 100_000)
        assert np.all(samples >= 0.0)
        d = ks_distance(samples, lambda x: 1.0 - gamma_fade_ccdf_bound(x, fp))
        assert d < 0.01

    def test_unit_shape_sample_mean(self, fading_default):
        rng = np.random.default_rng(8)
        n = 200_000
        samples = sample_fades(fading_default, rng, n)
        # exponential: std == mean == scale_m2
        assert abs(samples.mean() - 0.1269) < 3.0 * 0.1269 / math.sqrt(n)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FadingParams(shape_m1=0, scale_m2=0.1)
        with pytest.raises(ValueError):
            FadingParams(shape_m1=1, scale_m2=0.0)


@pytest.fixture
def radio_default():
    return RadioParams(carrier_hz=2e9, tx_power_w=TX_23DBM_W,
                       antenna_gain_linear=GAIN_419_DBI,
                       noise_density_w_per_hz=dbm_to_watts(-174.0),
                       bandwidth_hz=180e3, info_ratio=0.1)


class TestReceivedPower:
    def test_zero_fade(self, radio_default):
        assert received_power(radio_default, 500.0, 0.0) == 0.0

    def test_composed_factors(self, radio_default):
        assert received_power(radio_default, 500.0, 1.0) == pytest.approx(
            RECEIVED_500KM_UNIT_FADE, rel=1e-12)

    def test_linear_in_tx_power(self, radio_default):
        from dataclasses import replace
        doubled = replace(radio_default, tx_power_w=2 * radio_default.tx_power_w)
        assert received_power(doubled, 500.0, 1.0) == pytest.approx(
            2 * received_power(radio_default, 500.0, 1.0))

    @given(st.floats(0.1, 10.0))
    def test_multiplicative_in_fade(self, c):
        radio = RadioParams(2e9, 0.2, 1e4, 4e-21, 1.8e5, 0.1)
        assert received_power(radio, 700.0, c * 2.0) == pytest.approx(
            c * received_power(radio, 700.0, 2.0))

    def test_rejects_negative_fade(self, radio_default):
        with pytest.raises(ValueError):
            received_power(radio_default, 500.0, -1.0)


class TestSinr:
    def test_snr_case(self):
        assert sinr_legitimate(1e-12, 0.0, 1e-15, 1.0) == pytest.approx(1e3)

    def test_zero_info_ratio(self):
        assert sinr_legitimate(1e-12, 1e-13, 1e-15, 0.0) == 0.0
        assert sinr_eavesdropper(1e-12, 1e-13, 1e-15, 0.0) == 0.0

    def test_arithmetic(self):
        assert sinr_legitimate(1e-15, 1e-15, 7.16e-16, 0.1) == pytest.approx(
            0.05827505827505828, rel=1e-12)

    def test_eavesdropper_equals_legitimate_without_an(self):
        assert sinr_eavesdropper(1e-14, 2e-15, 1e-15, 1.0) == sinr_legitimate(
            1e-14, 2e-15, 1e-15, 1.0)

    def test_an_limited_ceiling(self):
        # signal -> infinity approaches info_ratio / (1 - info_ratio); the
        # strict gap is only float-visible while noise/signal >~ 1e-16
        assert sinr_eavesdropper(1e12, 0.0, 1e-15, 0.1) == pytest.approx(1.0 / 9.0, rel=1e-6)
        assert sinr_eavesdropper(1.0, 0.0, 1e-10, 0.1) < 1.0 / 9.0

    @given(st.floats(1e-20, 1e-10), st.floats(0.0, 1e-10), st.floats(1e-18, 1e-12),
           st.floats(0.0, 1.0))
    def test_eavesdropper_never_exceeds_legitimate(self, s, i, n, g):
        assert sinr_eavesdropper(s, i, n, g) <= sinr_legitimate(s, i, n, g) + 1e-20

    @given(st.floats(1e-20, 1e-6), st.floats(0.0, 1e-10), st.floats(1e-18, 1e-12),
           st.floats(0.01, 0.99))
    def test_eavesdropper_below_an_ceiling(self, s, i, n, g):
        assert sinr_eavesdropper(s, i, n, g) < g / (1.0 - g)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# Draws within this relative distance of an SINR threshold are skipped: the
# ratio rule and the SINR formula round differently, by a few ulps.
_TIE_REL = 16 * np.finfo(float).eps


@settings(max_examples=200, derandomize=True)
@given(_log_uniform(1e-20, 1e-8), st.one_of(st.just(0.0), _log_uniform(1e-20, 1e-10)),
       _log_uniform(1e-18, 1e-12), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       _log_uniform(1e-6, 1e3), _log_uniform(1e-6, 1e3))
def test_link_threshold_matches_sinr_formulas(s, i, n, gamma, beta_ls, beta_es):
    """``NetworkConfig.link_threshold``, the rule both engines share, against
    the SINR formulas: S / (I + N) > threshold iff the serving SINR exceeds
    beta_ls, and S / (I + N) >= threshold iff an eavesdropper's SINR reaches
    beta_es (none can under the jamming ceiling, where the threshold is inf)."""
    base = table2_config()
    cfg = replace(base, radio=replace(base.radio, info_ratio=gamma),
                  beta_ls=beta_ls, beta_es=beta_es)
    ratio = s / (i + n)
    for k, sinr, beta, clears in (
            (cfg.legit_tier, sinr_legitimate(s, i, n, gamma), beta_ls, operator.gt),
            (0, sinr_eavesdropper(s, i, n, gamma), beta_es, operator.ge)):
        assume(abs(sinr - beta) > _TIE_REL * beta)
        assert clears(ratio, cfg.link_threshold(k)) == clears(sinr, beta)


def test_radio_params_validation():
    with pytest.raises(ValueError):
        RadioParams(2e9, -0.1, 1e4, 4e-21, 1.8e5, 0.1)
    with pytest.raises(ValueError):
        RadioParams(2e9, 0.1, 1e4, 4e-21, 1.8e5, 1.5)
