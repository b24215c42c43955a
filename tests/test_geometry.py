import math

import pytest

from phykey.errors import GeometryError
from phykey.geometry import Topology, bearing_deg, path_angles


def test_axis_aligned_los_no_scatterers():
    top = Topology(alice=(0, 0), bob=(10, 0), mallory=(5, 5))
    assert path_angles(top, "alice", "bob") == (0.0,)


def test_perpendicular_scatterer():
    top = Topology(alice=(0, 0), bob=(10, 0), mallory=(5, 5), scatterers=((0, 5),))
    assert path_angles(top, "alice", "bob") == (0.0, 90.0)


def test_paper_topology_alice_to_mallory_is_60_degrees(topology):
    # hand trigonometry: dx = 5, dy = 5*sqrt(3) -> atan2 = 60 degrees
    angles = path_angles(topology, "alice", "mallory")
    assert math.isclose(angles[0], 60.0, abs_tol=1e-12)


def test_path_count_always_one_plus_scatterers():
    for k in range(5):
        scat = tuple((1.0 + i, 2.0 + i) for i in range(k))
        top = Topology(alice=(0, 0), bob=(10, 0), mallory=(5, 5), scatterers=scat)
        for tx, rx in [("alice", "bob"), ("alice", "mallory"), ("mallory", "bob")]:
            assert len(path_angles(top, tx, rx)) == 1 + k


def test_angles_normalized_to_half_open_circle():
    top = Topology(alice=(0, 0), bob=(-10, -1e-9), mallory=(5, 5))
    a = path_angles(top, "alice", "bob")[0]
    assert 0.0 <= a < 360.0


def test_tx_equals_rx_rejected(topology):
    with pytest.raises(GeometryError):
        path_angles(topology, "alice", "alice")


def test_coincident_points_rejected():
    with pytest.raises(GeometryError):
        bearing_deg((1.0, 2.0), (1.0, 2.0))


def test_mallory_too_close_rejected():
    with pytest.raises(GeometryError, match="wavelength"):
        Topology(alice=(0, 0), bob=(10, 0), mallory=(0.01, 0), wavelength_m=0.125)


def test_scatterer_on_node_rejected():
    with pytest.raises(GeometryError, match="scatterer"):
        Topology(alice=(0, 0), bob=(10, 0), mallory=(5, 5), scatterers=((10.0, 0.0),))


def test_non_finite_position_rejected():
    with pytest.raises(GeometryError):
        Topology(alice=(0, 0), bob=(float("nan"), 0), mallory=(5, 5))


def test_unknown_node_rejected(topology):
    with pytest.raises(GeometryError):
        topology.position("eve")
