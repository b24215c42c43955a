import math
import re

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


# every field of `seed: 1`, by dotted path
DEFAULTS = {
    "seed": 1, "scheme": "RAKG", "rounds": 100_000, "coherence_block_rounds": 10,
    "beta": 0.4, "excursion_len": 1, "noise_sigma_db": 0.0,
    "detection_threshold_dbm": -75.0, "wavelength_m": 0.125,
    "topology.alice": (5.0, 0.0), "topology.bob": (15.0, 0.0),
    "topology.mallory": (10.0, 5.0 * math.sqrt(3.0)),
    "topology.scatterers": ((8.2, 3.7), (13.5, 6.1)),
    "antenna.profile_csv": None, "antenna.synthesis.mode_count": 360,
    "antenna.synthesis.front_to_back_db": 20.0, "antenna.synthesis.beam_exponent": 1.0,
    "fading.reference_amplitude": 1e-4, "fading.reference_distance_m": 10.0,
    "fading.k_factor": 300.0,
    **{f"fading.{link}.{name}": None for link in ("ab", "ma", "mb")
       for name in ("los_amplitude", "k_factor")},
    "attack.enabled": True, "attack.d": 3.0, "attack.injection_power_dbm": None,
    "attack.repeat_injection": False,
    "reconciliation.symbol_bits": 8, "reconciliation.n": 255, "reconciliation.k": 223,
}

# (YAML after `seed: 1`, {dotted path: loaded value})
LOADED = [
    ("", DEFAULTS),
    ("attack: {d: 3}", {"attack.d": 3.0}),
    ("rounds: 5000.0", {"rounds": 5000}),
    # YAML 1.1 reads an exponent without a dot, and JSON's 1e-05, as strings
    ("fading: {k_factor: 1e14, reference_amplitude: 1e-05}",
     {"fading.k_factor": 1e14, "fading.reference_amplitude": 1e-5}),
    ("topology: {alice: [1, 2], scatterers: [[0, 5]]}",
     {"topology.alice": (1.0, 2.0), "topology.scatterers": ((0.0, 5.0),)}),
    ("antenna: {profile_csv: null}\nfading: {ab: {k_factor: null}}\n"
     "attack: {injection_power_dbm: null}",
     {"antenna.profile_csv": None, "fading.ab.k_factor": None,
      "attack.injection_power_dbm": None}),
    # YAML 1.1's boolean words
    ("attack: {enabled: no, repeat_injection: on}",
     {"attack.enabled": False, "attack.repeat_injection": True}),
    ("fading: {ab: {k_factor: 50}}\nantenna: {synthesis: {mode_count: 12}}",
     {"fading.ab.k_factor": 50.0, "fading.ab.los_amplitude": None, "fading.k_factor": 300.0,
      "fading.ma.k_factor": None, "antenna.synthesis.mode_count": 12,
      "antenna.synthesis.front_to_back_db": 20.0}),
]

# (whole YAML, the dotted paths its message names, in order)
REJECTED = [
    ("seed: 1\nfrobnicate: 1", ["frobnicate"]),
    ("seed: 1\nattack: {dd: 1}", ["attack.dd"]),
    ("seed: 1\nfading: {ab: {x: 1}}", ["fading.ab.x"]),
    ("seed: 1\ntopology: {alice: [1, 2, 3]}", ["topology.alice"]),
    ("seed: 1\nrounds: 1.5", ["rounds"]),
    ('seed: 1\nrounds: "1e5"', ["rounds"]),
    ("seed: 1\nbeta: .nan", ["beta"]),
    ("seed: 1\nnoise_sigma_db: .nan", ["noise_sigma_db"]),
    # every float must be finite, also where a field has no range (the dBm
    # fields, coordinates) or only a lower bound; 1e400 overflows to inf
    ("seed: 1\nantenna: {synthesis: {front_to_back_db: 1e400}}",
     ["antenna.synthesis.front_to_back_db"]),
    ("seed: 1\nfading: {k_factor: 1e400}", ["fading.k_factor"]),
    ("seed: 1\nnoise_sigma_db: .inf", ["noise_sigma_db"]),
    ("seed: 1\nfading: {ab: {los_amplitude: .inf}}", ["fading.ab.los_amplitude"]),
    ("seed: 1\ntopology: {alice: [.inf, 0]}", ["topology.alice.0"]),
    ("seed: 1\nattack: {injection_power_dbm: .nan}", ["attack.injection_power_dbm"]),
    ("seed: 1\nattack: {injection_power_dbm: .inf}", ["attack.injection_power_dbm"]),
    ("seed: 1\nattack: {injection_power_dbm: -.inf}", ["attack.injection_power_dbm"]),
    ("seed: 1\ndetection_threshold_dbm: .nan", ["detection_threshold_dbm"]),
    ("seed: 1\ndetection_threshold_dbm: .inf", ["detection_threshold_dbm"]),
    ("seed: 1\ndetection_threshold_dbm: -.inf", ["detection_threshold_dbm"]),
    ("seed: 1\nantenna: {profile_csv: 5}", ["antenna.profile_csv"]),
    ("seed: 1\nattack: 5", ["attack"]),
    ("seed: 1\nscheme: XAKG", ["scheme"]),
    ("rounds: 10", ["seed"]),
    # field order, then unknown keys, at every level
    ("seed: 1\nbeta: 2\nrounds: 0\nfoo: 1\nattack: {zz: 1, d: 0}",
     ["rounds", "beta", "attack.d", "attack.zz", "foo"]),
]


def _plain(value):
    """Sequences as tuples, so a list and a tuple of the same floats compare equal."""
    return tuple(map(_plain, value)) if isinstance(value, (list, tuple)) else value


def test_load_table(tmp_path):
    # repr tells 3 from 3.0 and True from 1, so each value is checked with its type
    wrong = []
    for text, want in LOADED:
        cfg = parse_config(write(tmp_path, f"seed: 1\n{text}\n"))
        for path, value in want.items():
            got = cfg
            for name in path.split("."):
                got = getattr(got, name)
            if repr(_plain(got)) != repr(value):
                wrong.append((text, path, got, value))
    for text, paths in REJECTED:
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, text + "\n"))
        named = [part.split(": ", 1)[0] for part in str(exc.value).split("; ")]
        if named != paths:
            wrong.append((text, named, paths))
    assert wrong == []


@pytest.mark.parametrize("text, path", [
    # booleans are not numbers, and numbers and strings are not booleans
    ("seed: true", "seed"),
    ("seed: 1\nrounds: true", "rounds"),
    ("seed: 1\nattack: {d: true}", "attack.d"),
    ("seed: 1\nattack: {enabled: 1}", "attack.enabled"),
    ('seed: 1\nattack: {enabled: "yes"}', "attack.enabled"),
    ("seed: 1\nattack: {repeat_injection: 0}", "attack.repeat_injection"),
    # a string is a number only in a float field, and only when it spells a decimal
    ('seed: 1\nrounds: "5000"', "rounds"),
    ('seed: 1\nfading: {k_factor: "inf"}', "fading.k_factor"),
])
def test_lax_coercions_rejected(tmp_path, text, path):
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: expected"):
        parse_config(write(tmp_path, text + "\n"))


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
    with pytest.raises(ConfigError, match="^1: unknown key$"):
        config_from_mapping({"seed": 1, 1: 2})


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


def test_model_copy_loads_the_update():
    cfg = config_from_mapping({"seed": 1, "attack": {"d": 2.0}})
    copy = cfg.model_copy(update={"rounds": 500.0, "attack": {"enabled": False}})
    assert (copy.seed, copy.rounds, copy.attack.enabled, copy.attack.d) == (1, 500, False, 3.0)
    assert cfg.attack.d == 2.0
    for update, path in (({"seed": -1}, "seed"), ({"bogus": 1}, "bogus")):
        with pytest.raises(ConfigError, match=f"^{path}: "):
            cfg.model_copy(update=update)


def test_scenario_rebuilt_by_copies_made_before_the_build():
    cfg = config_from_mapping({"seed": 1, "rounds": 1000})
    copy = cfg.model_copy(update={"seed": 2})
    scenario = cfg.build_scenario()
    rebuilt = copy.build_scenario()
    assert rebuilt is not scenario
    assert rebuilt.p_x_dbm == scenario.p_x_dbm
    assert rebuilt.tx_power_gap_vs_oa_db == scenario.tx_power_gap_vs_oa_db
    for name in ("ab", "am", "mb"):
        got, want = getattr(rebuilt, name), getattr(scenario, name)
        assert got.fading == want.fading
        assert got.gains.tobytes() == want.gains.tobytes()
    assert rebuilt.profile.gains.tobytes() == scenario.profile.gains.tobytes()
