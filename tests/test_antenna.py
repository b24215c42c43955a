import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phykey import analysis, antenna
from phykey.antenna import AntennaProfile, calibrate_tx_power, omni_profile, synthesize_rotated_beam
from phykey.config import config_from_mapping
from phykey.errors import CalibrationError, ProfileError
from phykey.geometry import Topology, path_angles
from phykey.rician import rician_params
from phykey.session import build_scenario
from phykey.traceio import load_antenna_profile, save_antenna_profile


def test_omni_profile_gain_is_one_everywhere():
    g = omni_profile().gain_matrix((0.0, 17.3, 90.0, 255.5, 359.999))
    np.testing.assert_array_equal(g, np.ones((1, 5)))


def test_single_mode_unit_csv_is_oa_equivalent(tmp_path):
    path = tmp_path / "oa.csv"
    path.write_text(
        "mode,angle_deg,gain_linear\n"
        + "\n".join(f"0,{a},1.0" for a in range(0, 360, 45))
        + "\n"
    )
    profile = load_antenna_profile(path)
    assert profile.kind == "OA"
    assert profile.mode_count == 1
    assert profile.gain_matrix([123.4]).tolist() == [[1.0]]


def test_profile_kind_is_derived_from_its_gains(tmp_path):
    # a one-mode beam with no front-to-back ratio is the omni table: it is
    # OA before and after a save and load, and OAKG takes it either way
    flat = synthesize_rotated_beam(mode_count=1, front_to_back_db=0.0)
    path = tmp_path / "flat.csv"
    save_antenna_profile(flat, path)
    loaded = load_antenna_profile(path)
    assert flat.kind == loaded.kind == "OA"
    assert synthesize_rotated_beam(mode_count=1).kind == "RA"
    assert AntennaProfile(modes=(0, 1), angles_deg=[0.0], gains=np.ones((2, 1))).kind == "RA"
    cfg = config_from_mapping({"seed": 0, "scheme": "OAKG"})
    for profile in (flat, loaded):
        scenario = build_scenario(cfg.build_topology(), profile, cfg.fading, "OAKG",
                                  cfg.detection_threshold_dbm)
        assert scenario.p_x_dbm == cfg.build_scenario().p_x_dbm


def test_midpoint_linear_interpolation():
    profile = AntennaProfile(
        modes=(5,), angles_deg=np.array([0.0, 10.0]), gains=np.array([[2.0, 4.0]])
    )
    assert profile.gain_matrix([5.0])[0, 0] == pytest.approx(3.0)


def test_interpolation_wraps_across_360():
    # entries at 350 and 0 only; query at 355 must match the unwrapped line
    profile = AntennaProfile(
        modes=(0,), angles_deg=np.array([0.0, 350.0]), gains=np.array([[1.0, 3.0]])
    )
    # unwrapped evaluation: segment from (350, 3.0) to (360, 1.0)
    expected = 3.0 + (355.0 - 350.0) / (360.0 - 350.0) * (1.0 - 3.0)
    # -5 is the same point mod 360
    np.testing.assert_allclose(profile.gain_matrix([355.0, -5.0])[0], expected)


def test_gain_deterministic_and_continuous():
    profile = synthesize_rotated_beam(mode_count=8, front_to_back_db=12.0)
    samples = profile.gain_matrix([77.7] * 5)[3]
    assert len(set(samples.tolist())) == 1
    # continuity across a table knot
    left, right = profile.gain_matrix([45.0 - 1e-9, 45.0 + 1e-9])[3]
    assert abs(left - right) < 1e-6


def test_synthesized_profile_is_circular_shift_of_mode_zero():
    profile = synthesize_rotated_beam(mode_count=360, front_to_back_db=20.0)
    assert profile.mode_count == 360
    base = profile.gains[0]
    for u in (1, 37, 180, 359):
        np.testing.assert_allclose(profile.gains[u], np.roll(base, u))


# Reference oracles: the per-mode np.interp and per-mode np.roll loops the
# gather kernels replaced. Both kernels must match them bit for bit.


def oracle_gain_matrix(profile, angles_deg):
    query = np.asarray(angles_deg, dtype=float) % 360.0
    return np.array([
        np.interp(query, profile.angles_deg, row, period=360.0) for row in profile.gains
    ]).reshape(profile.mode_count, query.size)


def oracle_rotated_gains(base, mode_count):
    return np.array([np.roll(base, u % base.size) for u in range(mode_count)])


@st.composite
def profiles_and_queries(draw):
    grid = draw(st.sampled_from([0.5, 1.0, 7.5, 45.0, None]))
    if grid is None:
        pool = st.floats(0.0, 360.0, exclude_max=True)
    else:
        pool = st.integers(0, int(360 / grid) - 1).map(lambda i: i * grid)
    angles = sorted(draw(st.sets(pool, min_size=1, max_size=12)))
    modes = draw(st.integers(1, 5))
    gain = st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, 1e-300))
    gains = [[draw(gain) + 0.0 for _ in angles] for _ in range(modes)]
    profile = AntennaProfile(modes=tuple(range(modes)), angles_deg=angles, gains=gains)
    listed = st.sampled_from(angles).flatmap(
        lambda a: st.sampled_from([a, a - 360.0, a + 360.0, a + 720.0, -a])
    )
    query = st.one_of(listed, st.floats(-1e4, 1e4), st.sampled_from([-0.0, -1e-20, 360.0]))
    return profile, draw(st.lists(query, max_size=20))


# -1e-20 % 360 rounds to 360.0; np.interp folds it again to 0, where this
# table's segment from 319 to 360 gives a value an ulp off from gains[0]
WRAPPED_TINY_NEGATIVE = (
    AntennaProfile(modes=(0,), angles_deg=[0.0, 319.0],
                   gains=[[0.08401534358238483, 0.8326441476533978]]),
    [-1e-20],
)


@given(case=profiles_and_queries())
@example(case=WRAPPED_TINY_NEGATIVE)
@settings(max_examples=150, deadline=None)
def test_gain_matrix_bit_identical_to_per_mode_interp(case):
    profile, query = case
    got = profile.gain_matrix(query)
    want = oracle_gain_matrix(profile, query)
    assert got.shape == want.shape == (profile.mode_count, len(query))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode_count, beam_exponent", [(360, 1.0), (360, 0.5), (12, 30.0),
                                                      (7, 2.5), (400, 1.0), (1, 1.0), (4, 1e17)])
def test_rotated_beam_equals_rolled_base(mode_count, beam_exponent):
    # mode u is mode 0 rotated by u degrees; past 360 modes the rotations repeat
    profile = synthesize_rotated_beam(mode_count, 15.0, beam_exponent)
    base = synthesize_rotated_beam(1, 15.0, beam_exponent).gains[0]
    want = oracle_rotated_gains(base, mode_count)
    assert profile.gains.tobytes() == want.tobytes()


def test_synthesized_profile_front_to_back_span():
    profile = synthesize_rotated_beam(mode_count=4, front_to_back_db=20.0)
    row = profile.gains[0]
    assert row.max() == pytest.approx(1.0)
    assert row.min() == pytest.approx(10.0 ** (-20.0 / 20.0))


def test_profile_csv_roundtrip(tmp_path):
    profile = synthesize_rotated_beam(mode_count=6, front_to_back_db=9.0)
    path = tmp_path / "beam.csv"
    save_antenna_profile(profile, path)
    loaded = load_antenna_profile(path)
    np.testing.assert_allclose(loaded.gains, profile.gains, rtol=1e-10)
    np.testing.assert_allclose(loaded.angles_deg, profile.angles_deg)


HEADER = b"mode,angle_deg,gain_linear\n"


@pytest.mark.parametrize("body, where, reason", [
    (b"mode,angle,gain\n0,0,1\n", "line 1", "expected header"),
    (HEADER + b"0,0\n", "line 2", "expected 3 fields"),
    (HEADER + b"0,0,1.0\n0,ten,1.0\n", "line 3", "could not convert"),
    (HEADER + b"5,90,-0.1\n", "line 2", "gain must be finite and >= 0"),
    (HEADER + b"0,0,1\n0,360,1\n", "line 3", "angle must be in [0, 360)"),
    (HEADER + b"0,0,1\n0,0,0.5\n", "line 3", "duplicate (mode, angle) = (0, 0.0)"),
    (HEADER + b"\n", None, "no profile rows"),
    (HEADER + b"0,0,1\n1,90,1\n", None, "modes list different angle sets"),
    (HEADER + b"0,0,1\n0,180,0.\xff5\n", "line 3", "could not convert"),
    (HEADER + b"9223372036854775807,0,1\n9223372036854775808,0,1\n", "line 3",
     "mode must be an int64, got 9223372036854775808"),
    (HEADER + b"-9223372036854775809,0,1\n", "line 2", "mode must be an int64"),
    (HEADER + b"0,0,1\n0.5,0,1\n", "line 3", "mode must be an int64, got 0.5"),
    (HEADER + b"0,0,1\n \t \n0,360,1\n", "line 4", "angle must be in [0, 360), got 360.0"),
    (HEADER + b"0,400,1\n0,90,-1\n", "line 2", "angle must be in [0, 360), got 400.0"),
    (HEADER + b"0,90,-1\n0,400,1\n", "line 2", "gain must be finite and >= 0, got -1.0"),
    (HEADER + b"0,400,1\n0,x,1\n", "line 3", "could not convert"),
], ids=["header", "fields", "number", "negative-gain", "angle-range", "duplicate",
        "no-rows", "angle-sets", "undecodable-byte", "mode-above-int64", "mode-below-int64",
        "fractional-mode", "whitespace-line", "angle-then-gain", "gain-then-angle",
        "number-before-value"])
def test_profile_csv_refusal_names_path_and_line(tmp_path, body, where, reason):
    path = tmp_path / "bad.csv"
    path.write_bytes(body)
    with pytest.raises(ProfileError) as info:
        load_antenna_profile(path)
    message = str(info.value)
    assert message.startswith(f"{path}: {where}: " if where else f"{path}: ")
    assert reason in message


def test_profile_csv_modes_follow_the_trace_rule(tmp_path):
    # any number float reads that is an int64 is a mode, in any row order
    path = tmp_path / "modes.csv"
    path.write_bytes(HEADER + b"1e3,90,0.5\n5.0,90,0.25\n1e3,0,1\n 5 ,0,1\n")
    profile = load_antenna_profile(path)
    assert profile.modes == (5, 1000) and profile.kind == "RA"
    assert profile.angles_deg.tolist() == [0.0, 90.0]
    assert profile.gains.tolist() == [[1.0, 0.25], [1.0, 0.5]]


def oracle_load_profile(path):
    """The per-line profile loader the shared table reader replaced, with
    its two deliberate changes: a mode is any number `float` reads that is
    an int64, and a field count or a number that does not parse is refused
    before any bad value. Values are checked line by line, in file order."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = list(enumerate(fh, start=1))
    if lines[0][1].strip().replace(" ", "") != "mode,angle_deg,gain_linear":
        raise ProfileError(f"{path}: line 1: expected header")
    parsed = []
    for lineno, line in lines[1:]:
        if line.strip():
            parts = line.strip().split(",")
            if len(parts) != 3:
                raise ProfileError(f"{path}: line {lineno}: expected 3 fields, got {len(parts)}")
            try:
                parsed.append((lineno, parts[0].strip(), [float(p) for p in parts]))
            except ValueError as exc:
                raise ProfileError(f"{path}: line {lineno}: {exc}") from None
    rows = {}
    for lineno, text, (value, angle, g) in parsed:
        exact = Decimal(text)
        if exact != exact.to_integral_value() or not -(2**63) <= exact < 2**63:
            raise ProfileError(f"{path}: line {lineno}: mode must be an int64, got {text}")
        if not math.isfinite(g) or g < 0.0:
            raise ProfileError(f"{path}: line {lineno}: gain must be finite and >= 0, got {g}")
        if not 0.0 <= angle < 360.0:
            raise ProfileError(f"{path}: line {lineno}: angle must be in [0, 360), got {angle}")
        if angle in rows.setdefault(int(exact), {}):
            raise ProfileError(
                f"{path}: line {lineno}: duplicate (mode, angle) = ({int(exact)}, {angle})")
        rows[int(exact)][angle] = g
    if not rows:
        raise ProfileError(f"{path}: no profile rows")
    modes = sorted(rows)
    if len({tuple(sorted(rows[m])) for m in modes}) != 1:
        raise ProfileError(f"{path}: modes list different angle sets")
    angles = sorted(rows[modes[0]])
    gains = np.array([[rows[m][a] for a in angles] for m in modes])
    return AntennaProfile(modes=tuple(modes), angles_deg=angles, gains=gains)


PROFILE_FIELDS = (
    ["0", "1", " 2", "5.0", "1e3", "0.5", "-3", "9223372036854775807", "9223372036854775808",
     "-9223372036854775808", "1e19", "nan", "inf"],
    ["0", "90", "180.0", "1e2", " 45 ", "-0", "359.9999999", "360", "-1", "nan", "inf"],
    ["1", "0.5", "0", "-0", "1e-320", "1e400", "-1", "inf", "nan"],
)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_profile_csv_loads_as_the_line_by_line_oracle(data, tmp_path_factory):
    # rows of the first fields of each pool load; up to two other lines
    # reach every refusal, so both loads and refusals are compared
    def row(size):
        return st.tuples(*(st.sampled_from(pool[:size]) for pool in PROFILE_FIELDS)).map(",".join)

    lines = data.draw(st.lists(row(5), max_size=8))
    for _ in range(data.draw(st.integers(0, 2))):
        other = st.one_of(row(None), st.sampled_from(["", " \t ", "1,2", "0,x,1"]))
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(other))
    path = tmp_path_factory.mktemp("profile") / "p.csv"
    path.write_text("mode,angle_deg,gain_linear\n" + "".join(f"{line}\n" for line in lines))
    try:
        want = oracle_load_profile(path)
    except ProfileError as exc:
        with pytest.raises(ProfileError) as info:
            load_antenna_profile(path)
        assert str(info.value) == str(exc)
        return
    got = load_antenna_profile(path)
    assert (got.modes, got.kind) == (want.modes, want.kind)
    assert got.angles_deg.tobytes() == want.angles_deg.tobytes()
    assert got.gains.tobytes() == want.gains.tobytes()


@pytest.mark.parametrize("profile", [
    synthesize_rotated_beam(360),
    AntennaProfile(modes=(-(2**63), 7, 2**63 - 1), angles_deg=[0.0, 1e-9, 123.456789, 359.9999],
                   gains=[[0.1, 1 / 3, 2.0, 0.0], [1.0, 1e-300, 5e-324, 7.0], [1.0] * 4]),
], ids=["rotated-360", "wide-modes-fine-angles"])
def test_profile_csv_roundtrip_is_exact(tmp_path, profile):
    path = tmp_path / "beam.csv"
    save_antenna_profile(profile, path)
    loaded = load_antenna_profile(path)
    assert loaded.modes == profile.modes and loaded.kind == profile.kind
    assert loaded.angles_deg.tobytes() == profile.angles_deg.tobytes()
    assert loaded.gains.tobytes() == profile.gains.tobytes()


@pytest.mark.parametrize("mode", [2**63, -(2**63) - 1, 2**64])
def test_profile_refuses_mode_outside_int64(mode):
    # the type holds the rule, so a profile built in code cannot reach a
    # session whose int64 mode column would overflow
    with pytest.raises(ProfileError, match=f"mode must be an int64, got {mode}"):
        AntennaProfile(modes=(0, mode), angles_deg=np.array([0.0]), gains=np.ones((2, 1)))
    edges = AntennaProfile(modes=(-(2**63), 2**63 - 1), angles_deg=np.array([0.0]),
                           gains=np.ones((2, 1)))
    assert edges.modes == (-(2**63), 2**63 - 1)


TOP = Topology(alice=(0, 0), bob=(10, 0), mallory=(5, 5))


def _ab_gains(profile, paths=None):
    """The profile's gain matrix on TOP's A->B paths, or on the given ones."""
    return profile.gain_matrix(paths or path_angles(TOP, "alice", "bob"))


def test_calibrate_oa_inverts_rss_formula():
    # mean channel amplitude 1e-4 at threshold -75 dBm -> P_x = 5 dBm;
    # with sigma0 -> 0 the Rician mean collapses to the LoS amplitude
    p_x = calibrate_tx_power(omni_profile(), _ab_gains(omni_profile()), -75.0, 1e-4, 1e-12)
    assert p_x == pytest.approx(-75.0 - 20.0 * math.log10(1e-4), abs=1e-6)


def test_degenerate_ra_matches_oa_power():
    flat = AntennaProfile(
        modes=(0, 1, 2),
        angles_deg=np.array([0.0]),
        gains=np.ones((3, 1)),
    )
    p_flat = calibrate_tx_power(flat, _ab_gains(flat), -75.0, 1e-4, 2e-6)
    p_oa = calibrate_tx_power(omni_profile(), _ab_gains(omni_profile()), -75.0, 1e-4, 2e-6)
    assert p_flat == pytest.approx(p_oa, abs=1e-12)


def test_calibration_monotone_in_threshold():
    profile = synthesize_rotated_beam(mode_count=36, front_to_back_db=15.0)
    base = calibrate_tx_power(profile, _ab_gains(profile), -75.0, 1e-4, 2e-6)
    for delta in (0.5, 3.0, 11.0):
        raised = calibrate_tx_power(profile, _ab_gains(profile), -75.0 + delta, 1e-4, 2e-6)
        assert raised == pytest.approx(base + delta, abs=1e-9)


def test_zero_gain_mode_excluded_with_warning(monkeypatch):
    gains = np.array([[1.0], [0.0]])
    profile = AntennaProfile(modes=(0, 1), angles_deg=np.array([0.0]), gains=gains)
    with pytest.warns(UserWarning, match="zero-gain"):
        p_x = calibrate_tx_power(profile, _ab_gains(profile), -75.0, 1e-4, 2e-6)
    assert math.isfinite(p_x)

    # calibration and the closed form agree on (nu, varsigma) of the live
    # modes: both read them from rician_params on the profile's gain matrix
    beam = synthesize_rotated_beam(mode_count=6, front_to_back_db=15.0)
    profile = AntennaProfile(modes=tuple(range(7)), angles_deg=beam.angles_deg,
                             gains=np.vstack([beam.gains, np.zeros(360)]))
    seen = []

    def recording(*args):
        seen.append(rician_params(*args))
        return seen[-1]

    monkeypatch.setattr(antenna, "rician_params", recording)
    monkeypatch.setattr(analysis, "rician_params", recording)
    paths = path_angles(TOP, "alice", "bob")
    with pytest.warns(UserWarning, match="zero-gain"):
        p_x = calibrate_tx_power(profile, _ab_gains(profile, paths), -75.0, 1e-4, 2e-6)
    with pytest.warns(UserWarning, match="excluding 1 degenerate mode"):
        analysis.closed_form_p0_p1(
            profile, profile.gain_matrix(paths), 1e-4, 2e-6, -80.0, -70.0, p_x
        )
    (cal_nu, cal_vs), (cf_nu, cf_vs) = seen
    assert cal_nu.shape == (6,) and cf_nu.shape == (7,) and cf_vs[6] == 0.0
    np.testing.assert_array_equal(cal_nu, cf_nu[:6])
    np.testing.assert_array_equal(cal_vs, cf_vs[:6])


def test_all_zero_modes_rejected():
    profile = AntennaProfile(
        modes=(0,), angles_deg=np.array([0.0]), gains=np.array([[0.0]])
    )
    with pytest.raises(CalibrationError):
        calibrate_tx_power(profile, _ab_gains(profile), -75.0, 1e-4, 2e-6)


def test_calibrate_with_explicit_paths():
    p = calibrate_tx_power(omni_profile(), _ab_gains(omni_profile(), (0.0, 90.0)), -75.0, 1e-4, 1e-12)
    assert math.isfinite(p)
