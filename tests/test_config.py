import json
import math

import pytest
from hypothesis import given, settings

from leosec.channel import db_to_linear, dbm_to_watts
from leosec.cli import EXIT_INPUT, main
from leosec.config import (ConfigError, NetworkConfig, SWEEPABLE_PARAMETERS, Tier,
                           config_from_dict, config_to_dict, table2_config,
                           with_parameter)
from test_analytics import fuzz_configs


class TestPreset:
    def test_table2_values(self, table2):
        assert table2.earth_radius_km == 6371.0
        assert [t.altitude_km for t in table2.tiers] == [500.0, 1000.0, 1500.0]
        assert all(t.num_satellites == 500 for t in table2.tiers)
        assert table2.legit_tier == 1
        assert table2.theta_beam == pytest.approx(math.pi / 3)
        assert table2.device_density_per_km2 == 1e-6
        assert table2.radio.carrier_hz == 2e9
        assert table2.radio.tx_power_w == pytest.approx(dbm_to_watts(23.0))
        assert table2.radio.antenna_gain_linear == pytest.approx(db_to_linear(41.9))
        assert table2.radio.noise_density_w_per_hz == pytest.approx(dbm_to_watts(-174.0))
        assert table2.radio.bandwidth_hz == 180e3
        assert table2.radio.info_ratio == 0.1
        assert table2.fading.shape_m1 == 1
        assert table2.fading.scale_m2 == 0.1269
        assert table2.beta_ls == pytest.approx(db_to_linear(-30.0))
        assert table2.beta_es == pytest.approx(db_to_linear(-10.0))

    def test_noise_power_helper(self, table2):
        assert table2.noise_w == pytest.approx(7.165929069962975e-16, rel=1e-14)

    def test_tier_geometries(self, table2):
        geoms = table2.tier_geometries()
        assert [g.shell_radius_km for g in geoms] == [6871.0, 7371.0, 7871.0]
        assert geoms[0].max_central_angle < geoms[1].max_central_angle < geoms[2].max_central_angle
        assert table2.legit_geometry() is not None


class TestRoundTrip:
    def test_exact_round_trip(self, table2):
        text = json.dumps(config_to_dict(table2))
        from leosec.cli import parse_config
        assert parse_config(text) == table2

    def test_round_trip_from_db_unit_document(self):
        doc = {
            "earth_radius_km": 6371.0,
            "tiers": [{"altitude_km": 600.0, "num_satellites": 120},
                      {"altitude_km": 1200.0, "num_satellites": 80}],
            "legit_tier": 0,
            "theta_beam_rad": 0.7,
            "device_density_per_km2": 2e-6,
            "carrier_hz": 2e9,
            "tx_power_dbm": 23.0,
            "antenna_gain_dbi": 41.9,
            "noise_density_dbm_per_hz": -174.0,
            "bandwidth_hz": 180e3,
            "info_ratio": 0.25,
            "fading_shape_m1": 1,
            "fading_scale_m2": 0.1269,
            "beta_ls_db": -30.0,
            "beta_es_db": -10.0,
        }
        cfg = config_from_dict(doc)
        assert cfg.radio.tx_power_w == pytest.approx(dbm_to_watts(23.0))
        assert cfg.beta_es == pytest.approx(0.1)
        # once serialized (linear units), the cycle is exact
        again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert again == cfg


class TestSchemaErrors:
    def base(self):
        return config_to_dict(table2_config())

    def test_missing_tiers_names_field(self):
        doc = self.base()
        del doc["tiers"]
        with pytest.raises(ConfigError, match="tiers"):
            config_from_dict(doc)

    def test_unknown_field(self):
        doc = self.base()
        doc["unknown_knob"] = 1
        with pytest.raises(ConfigError, match="unknown_knob"):
            config_from_dict(doc)

    def test_both_unit_spellings_rejected(self):
        doc = self.base()
        doc["tx_power_dbm"] = 23.0  # tx_power_w already present
        with pytest.raises(ConfigError, match="tx_power"):
            config_from_dict(doc)

    def test_non_numeric_value(self):
        doc = self.base()
        doc["bandwidth_hz"] = "wide"
        with pytest.raises(ConfigError, match="bandwidth_hz"):
            config_from_dict(doc)

    def test_invariant_info_ratio(self):
        doc = self.base()
        doc["info_ratio"] = 1.5
        with pytest.raises(ConfigError, match="info_ratio"):
            config_from_dict(doc)

    def test_invariant_legit_tier_range(self):
        doc = self.base()
        doc["legit_tier"] = 5
        with pytest.raises(ConfigError, match="legit_tier"):
            config_from_dict(doc)

    def test_invariant_negative_density(self):
        doc = self.base()
        doc["device_density_per_km2"] = -1.0
        with pytest.raises(ConfigError, match="device_density_per_km2"):
            config_from_dict(doc)

    def test_fractional_satellite_count(self):
        doc = self.base()
        doc["tiers"][0]["num_satellites"] = 10.5
        with pytest.raises(ConfigError, match="num_satellites"):
            config_from_dict(doc)


class TestWithParameter:
    def test_gamma(self, table2):
        assert with_parameter(table2, "gamma", 0.4).radio.info_ratio == 0.4

    def test_altitude_m_changes_only_legit_tier(self, table2):
        cfg = with_parameter(table2, "altitude_m", 800.0)
        assert cfg.tiers[1].altitude_km == 800.0
        assert cfg.tiers[0].altitude_km == 500.0
        assert cfg.tiers[2].altitude_km == 1500.0

    def test_num_satellites_applies_to_all_tiers(self, table2):
        cfg = with_parameter(table2, "num_satellites", 200)
        assert all(t.num_satellites == 200 for t in cfg.tiers)

    def test_each_name_is_applicable(self, table2):
        values = {"gamma": 0.3, "theta_beam": 0.6, "altitude_m": 700.0,
                  "num_satellites": 100, "device_density": 1e-5, "legit_tier": 0,
                  "beta_ls": 0.01, "beta_es": 0.2}
        for name in SWEEPABLE_PARAMETERS:
            cfg = with_parameter(table2, name, values[name])
            assert isinstance(cfg, NetworkConfig)

    def test_unknown_parameter(self, table2):
        with pytest.raises(ConfigError, match="spin"):
            with_parameter(table2, "spin", 1.0)

    def test_rejects_invalid_value(self, table2):
        with pytest.raises(ConfigError):
            with_parameter(table2, "legit_tier", 9)


def test_direct_construction_invariants(table2):
    with pytest.raises(ConfigError, match="tiers"):
        NetworkConfig(earth_radius_km=6371.0, tiers=(), legit_tier=0,
                      theta_beam=1.0, device_density_per_km2=0.0,
                      radio=table2.radio, fading=table2.fading,
                      beta_ls=1e-3, beta_es=0.1)
    with pytest.raises(ConfigError, match="beta_ls"):
        NetworkConfig(earth_radius_km=6371.0, tiers=(Tier(500.0, 10),), legit_tier=0,
                      theta_beam=1.0, device_density_per_km2=0.0,
                      radio=table2.radio, fading=table2.fading,
                      beta_ls=0.0, beta_es=0.1)


def _analyze_doc(doc, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code = main(["analyze", "--config", str(path)])
    return code, capsys.readouterr()


class TestIntegerAndKeyChecks:
    """Inputs that once ran silently with a truncated or ignored value."""

    @pytest.mark.parametrize("shape", [2.9, 0.5])
    def test_fractional_fading_shape(self, shape, tmp_path, capsys):
        doc = config_to_dict(table2_config())
        doc["fading_shape_m1"] = shape
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert info.value.field == "fading_shape_m1"
        code, captured = _analyze_doc(doc, tmp_path, capsys)
        assert code == EXIT_INPUT and captured.out == ""
        assert "fading_shape_m1" in captured.err

    @pytest.mark.parametrize("name, values", [("num_satellites", "100,100.9"),
                                              ("legit_tier", "0,0.7")])
    def test_fractional_integer_sweep_value(self, table2, name, values, capsys):
        with pytest.raises(ConfigError) as info:
            with_parameter(table2, name, float(values.split(",")[1]))
        assert info.value.field == name
        code = main(["sweep", "--axis1", f"{name}={values}", "--metric", "p_av"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert name in captured.err

    def test_integral_float_still_accepted(self, table2):
        assert with_parameter(table2, "num_satellites", 100.0).tiers[0].num_satellites == 100
        doc = config_to_dict(table2)
        doc["fading_shape_m1"] = 1.0
        assert config_from_dict(doc) == table2

    def test_unknown_key_inside_tier(self, tmp_path, capsys):
        doc = config_to_dict(table2_config())
        doc["tiers"][1]["altitude_m"] = 800.0
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert info.value.field == "tiers[1].altitude_m"
        code, captured = _analyze_doc(doc, tmp_path, capsys)
        assert code == EXIT_INPUT and captured.out == ""
        assert "altitude_m" in captured.err


def _drop_first_altitude(doc):
    del doc["tiers"][0]["altitude_km"]


def _huge_tx_power_dbm(doc):
    # 10 ** (1e5 / 10) W overflows a float
    del doc["tx_power_w"]
    doc["tx_power_dbm"] = 1e5


class TestErrorsNameTheJsonKey:
    """Radio and fading invariants, tier keys and sweep names each raise a
    ConfigError whose field is the key the user wrote."""

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc.update(fading_shape_m1=0), "fading_shape_m1"),
        (lambda doc: doc.update(fading_scale_m2=-1), "fading_scale_m2"),
        (lambda doc: doc.update(info_ratio=-1), "info_ratio"),
        (_drop_first_altitude, "tiers[0].altitude_km"),
        (_huge_tx_power_dbm, "tx_power_dbm"),
    ], ids=["fading_shape_m1", "fading_scale_m2", "info_ratio", "tier_altitude_km",
            "tx_power_dbm_overflow"])
    def test_document_error(self, edit, field, tmp_path, capsys):
        doc = config_to_dict(table2_config())
        edit(doc)
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert info.value.field == field
        code, captured = _analyze_doc(doc, tmp_path, capsys)
        assert code == EXIT_INPUT and captured.out == ""
        assert f"{field}:" in captured.err

    def test_sweep_value_outside_range(self, table2, capsys):
        with pytest.raises(ConfigError) as info:
            with_parameter(table2, "gamma", 1.5)
        assert info.value.field == "gamma"
        code = main(["sweep", "--axis1", "gamma=0.5,1.5", "--metric", "p_av"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert "gamma:" in captured.err


@settings(max_examples=200, derandomize=True)
@given(fuzz_configs())
def test_json_round_trip_is_exact(cfg):
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg
