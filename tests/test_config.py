import pytest

from phykey.config import config_from_mapping, parse_config
from phykey.errors import ConfigError


def write(tmp_path, text):
    p = tmp_path / "cfg.yaml"
    p.write_text(text)
    return p


def test_minimal_config_gets_documented_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, "seed: 1\n"))
    assert cfg.beta == 0.4
    assert cfg.excursion_len == 1
    assert cfg.coherence_block_rounds == 10
    assert cfg.attack.d == 3.0
    assert cfg.scheme == "RAKG"
    assert cfg.attack.enabled is True
    assert cfg.noise_sigma_db == 0.0
    assert cfg.reconciliation.n == 255 and cfg.reconciliation.k == 223


def test_default_topology_is_equilateral(tmp_path):
    cfg = parse_config(write(tmp_path, "seed: 1\n"))
    top = cfg.build_topology()
    assert top.distance("alice", "bob") == pytest.approx(10.0)
    assert top.distance("alice", "mallory") == pytest.approx(10.0)
    assert top.distance("mallory", "bob") == pytest.approx(10.0)
    assert len(top.scatterers) == 2


def test_seed_is_mandatory(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        parse_config(write(tmp_path, "rounds: 10\n"))


def test_beta_out_of_range_rejected():
    with pytest.raises(ConfigError, match="beta"):
        config_from_mapping({"seed": 1, "beta": 1.5})
    with pytest.raises(ConfigError, match="beta"):
        config_from_mapping({"seed": 1, "beta": 0.0})


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(write(tmp_path, "seed: 1\nrounds: 5\nrounds: 6\n"))


def test_unknown_key_rejected_with_field_path():
    with pytest.raises(ConfigError, match="frobnicate"):
        config_from_mapping({"seed": 1, "frobnicate": True})
    with pytest.raises(ConfigError, match="attack"):
        config_from_mapping({"seed": 1, "attack": {"dd": 2}})


def test_nested_validation_reports_path():
    with pytest.raises(ConfigError, match="attack.d"):
        config_from_mapping({"seed": 1, "attack": {"d": -1.0}})


def test_rs_params_checked():
    with pytest.raises(ConfigError, match="reconciliation"):
        config_from_mapping({"seed": 1, "reconciliation": {"symbol_bits": 4, "n": 99, "k": 5}})


def test_code_size_rule_is_rs_params_alone():
    # the smallest code RsParams allows loads; below it, its message names n or k
    cfg = config_from_mapping({"seed": 1, "reconciliation": {"symbol_bits": 2, "n": 2, "k": 1}})
    assert (cfg.rs_params().n, cfg.rs_params().k) == (2, 1)
    for field, value in (("n", 1), ("k", 0)):
        with pytest.raises(ConfigError, match=rf"^reconciliation: require 1 <= k < n .*\b{field}={value}\b"):
            config_from_mapping({"seed": 1, "reconciliation": {field: value}})


def test_unsupported_symbol_size_rejected_at_load(tmp_path):
    # no primitive polynomial for GF(2^13): fail at load, not after a session
    path = write(tmp_path, "seed: 1\nreconciliation: {symbol_bits: 13, n: 15, k: 11}\n")
    with pytest.raises(ConfigError, match=r"^reconciliation: need m = 2\.\.12 .*got m=13"):
        parse_config(path)


def test_scheme_literal():
    with pytest.raises(ConfigError, match="scheme"):
        config_from_mapping({"seed": 1, "scheme": "XAKG"})


def test_profile_csv_config(tmp_path):
    csv = tmp_path / "p.csv"
    csv.write_text("mode,angle_deg,gain_linear\n0,0,1.0\n")
    cfg = config_from_mapping({"seed": 1, "antenna": {"profile_csv": str(csv)}})
    profile = cfg.build_profile()
    assert profile.mode_count == 1


def test_synthesis_config_controls_profile():
    cfg = config_from_mapping(
        {"seed": 1, "antenna": {"synthesis": {"mode_count": 12, "front_to_back_db": 6.0}}}
    )
    profile = cfg.build_profile()
    assert profile.mode_count == 12
    assert profile.gains.min() == pytest.approx(10 ** (-6.0 / 20.0))


def test_oakg_profile_is_omni_whatever_the_antenna_section():
    cfg = config_from_mapping(
        {"seed": 1, "scheme": "OAKG",
         "antenna": {"profile_csv": "no/such/file.csv", "synthesis": {"mode_count": 12}}}
    )
    assert cfg.build_profile().kind == "OA"


def test_empty_config_rejected(tmp_path):
    with pytest.raises(ConfigError, match="empty"):
        parse_config(write(tmp_path, ""))


def test_yaml_syntax_error_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "seed: [1,\n"))


def test_scenario_shared_by_copies_made_after_the_build():
    cfg = config_from_mapping({"seed": 1, "rounds": 1000})
    scenario = cfg.build_scenario()
    copy = cfg.model_copy(update={"seed": 2, "rounds": 500, "attack": {"enabled": False}})
    assert copy.build_scenario() is scenario
    assert cfg.build_scenario() is scenario


def test_scenario_rebuilt_by_copies_made_before_the_build():
    cfg = config_from_mapping({"seed": 1, "rounds": 1000})
    copy = cfg.model_copy(update={"seed": 2})
    scenario = cfg.build_scenario()
    rebuilt = copy.build_scenario()
    assert rebuilt is not scenario
    assert rebuilt.p_x_dbm == scenario.p_x_dbm
    assert rebuilt.tx_power_gap_vs_oa_db == scenario.tx_power_gap_vs_oa_db
    assert rebuilt.links == scenario.links
    for name in ("g_ab", "g_am"):
        assert getattr(rebuilt, name).tobytes() == getattr(scenario, name).tobytes()
    assert rebuilt.profile.gains.tobytes() == scenario.profile.gains.tobytes()
