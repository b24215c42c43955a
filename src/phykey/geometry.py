"""Node/scatterer geometry and per-link path angles.

All geometry is planar (2-D). A link's path angles are the departure
angles seen from the transmitting node: index 0 is the line-of-sight
bearing towards the receiver, indices 1..P are the bearings towards
the scatterers (single-bounce reflections, one path per scatterer).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GeometryError

Point = tuple[float, float]


def _finite_point(p) -> Point:
    x, y = float(p[0]), float(p[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise GeometryError(f"non-finite coordinate {p!r}")
    return (x, y)


def _dist(p: Point, q: Point) -> float:
    return math.hypot(q[0] - p[0], q[1] - p[1])


def bearing_deg(p: Point, q: Point) -> float:
    """Bearing from p to q in degrees, normalized to [0, 360)."""
    if p == q:
        raise GeometryError(f"coincident points {p}")
    return math.degrees(math.atan2(q[1] - p[1], q[0] - p[0])) % 360.0


@dataclass(frozen=True)
class Topology:
    """Positions (meters) of the three nodes plus scatterers.

    Mallory must sit at least one carrier wavelength away from both
    Alice and Bob, otherwise her observations would not decorrelate
    and the whole adversary model changes.
    """

    alice: Point
    bob: Point
    mallory: Point
    scatterers: tuple[Point, ...] = ()
    wavelength_m: float = 0.125

    def __post_init__(self):
        object.__setattr__(self, "alice", _finite_point(self.alice))
        object.__setattr__(self, "bob", _finite_point(self.bob))
        object.__setattr__(self, "mallory", _finite_point(self.mallory))
        object.__setattr__(
            self, "scatterers", tuple(_finite_point(s) for s in self.scatterers)
        )
        if not (self.wavelength_m > 0 and math.isfinite(self.wavelength_m)):
            raise GeometryError("wavelength must be positive and finite")
        if self.alice == self.bob:
            raise GeometryError("Alice and Bob are coincident")
        for name, pos in (("Alice", self.alice), ("Bob", self.bob)):
            if _dist(self.mallory, pos) < self.wavelength_m:
                raise GeometryError(
                    f"Mallory within one wavelength of {name} "
                    f"({_dist(self.mallory, pos):.4g} m < {self.wavelength_m} m)"
                )
        nodes = {self.alice, self.bob, self.mallory}
        for s in self.scatterers:
            if s in nodes:
                raise GeometryError(f"scatterer {s} coincides with a node position")

    def position(self, node: str) -> Point:
        try:
            return {"alice": self.alice, "bob": self.bob, "mallory": self.mallory}[node]
        except KeyError:
            raise GeometryError(f"unknown node id {node!r}") from None

    def distance(self, tx: str, rx: str) -> float:
        return _dist(self.position(tx), self.position(rx))


def path_angles(topology: Topology, tx: str, rx: str) -> tuple[float, ...]:
    """Path departure angles (degrees) at the transmitter for the tx-rx link.

    angles[0] is the direct bearing tx->rx; angles[l] (l >= 1) is the
    bearing tx->scatterer_l. One NLoS path per scatterer, always.
    """
    if tx == rx:
        raise GeometryError("tx and rx must differ")
    p, q = topology.position(tx), topology.position(rx)
    if p == q:
        raise GeometryError(f"{tx} and {rx} are coincident")
    return (bearing_deg(p, q), *(bearing_deg(p, s) for s in topology.scatterers))
