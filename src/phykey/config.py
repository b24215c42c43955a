"""Experiment configuration: YAML loading, validation, defaults.

Each config section is a frozen dataclass, and one table-driven loader
(`_load_section`) checks a YAML mapping against it. It walks the
section's fields, coerces each value by the field's annotation, applies
the `ge`/`gt`/`lt` bounds in the field's metadata and rejects
unknown and duplicate keys at every level. It reports every bad field as
`dotted.path: reason`, fields in declaration order and then unknown
keys, joined by "; " in one ConfigError. The seed is mandatory so every
run is reproducible.

Coercion rules:
- an int field takes an int, or a float with an integral value
  (`rounds: 5000.0` loads as 5000);
- a float field takes an int or a float, or a string that spells a
  decimal number, because YAML 1.1 reads an exponent without a dot
  (`k_factor: 1e14`) and JSON's `1e-05` as strings. No other string is
  a number, and no float may be infinite or NaN (`1e400` overflows);
- booleans are not numbers and numbers are not booleans: a bool field
  takes only `true`/`false` (YAML's `yes`/`no`/`on`/`off` already load
  as booleans), and an int or float field takes no boolean;
- a point is a list of two numbers, a section is a mapping, and an
  optional field also takes `null`.
"""
import math
import operator
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Literal, Optional, Union, get_args, get_origin

import yaml

from .antenna import AntennaProfile, omni_profile, synthesize_rotated_beam
from .errors import CalibrationError, ConfigError, ContractError
from .geometry import Topology
from .reed_solomon import RsParams
from .session import Scenario, build_scenario
from .traceio import load_antenna_profile

_DEFAULT_MALLORY_Y = 5.0 * math.sqrt(3.0)

Point = tuple[float, float]


def _bounded(default=MISSING, **bounds):
    """A field whose loaded value must satisfy bounds: ge, gt or lt."""
    return field(default=default, metadata=bounds)


@dataclass(frozen=True)
class TopologyConfig:
    alice: Point = (5.0, 0.0)
    bob: Point = (15.0, 0.0)
    mallory: Point = (10.0, _DEFAULT_MALLORY_Y)
    scatterers: tuple[Point, ...] = ((8.2, 3.7), (13.5, 6.1))


@dataclass(frozen=True)
class SynthesisConfig:
    mode_count: int = _bounded(360, ge=1)
    front_to_back_db: float = _bounded(20.0, ge=0.0)
    beam_exponent: float = _bounded(1.0, gt=0.0)


@dataclass(frozen=True)
class AntennaConfig:
    profile_csv: Optional[str] = None
    synthesis: SynthesisConfig = SynthesisConfig()


@dataclass(frozen=True)
class LinkFadingConfig:
    """Optional per-link override of the distance-derived defaults."""

    los_amplitude: Optional[float] = _bounded(None, gt=0.0)
    k_factor: Optional[float] = _bounded(None, gt=0.0)


@dataclass(frozen=True)
class FadingConfig:
    reference_amplitude: float = _bounded(1e-4, gt=0.0)
    reference_distance_m: float = _bounded(10.0, gt=0.0)
    k_factor: float = _bounded(300.0, gt=0.0)
    ab: LinkFadingConfig = LinkFadingConfig()
    ma: LinkFadingConfig = LinkFadingConfig()
    mb: LinkFadingConfig = LinkFadingConfig()


@dataclass(frozen=True)
class AttackConfig:
    enabled: bool = True
    d: float = _bounded(3.0, gt=0.0)
    injection_power_dbm: Optional[float] = None
    repeat_injection: bool = False


@dataclass(frozen=True)
class ReconciliationConfig:
    # checked as RsParams(m=symbol_bits, n, k) at load: RsParams alone states the rule
    symbol_bits: int = 8
    n: int = 255
    k: int = 223


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = _bounded(ge=0)
    scheme: Literal["RAKG", "OAKG"] = "RAKG"
    rounds: int = _bounded(100_000, ge=1)
    coherence_block_rounds: int = _bounded(10, ge=1)
    beta: float = _bounded(0.4, gt=0.0, lt=1.0)
    excursion_len: int = _bounded(1, ge=1)
    noise_sigma_db: float = _bounded(0.0, ge=0.0)
    detection_threshold_dbm: float = -75.0
    wavelength_m: float = _bounded(0.125, gt=0.0)
    topology: TopologyConfig = TopologyConfig()
    antenna: AntennaConfig = AntennaConfig()
    fading: FadingConfig = FadingConfig()
    attack: AttackConfig = AttackConfig()
    reconciliation: ReconciliationConfig = ReconciliationConfig()
    # (the scenario fields, the Scenario built from them): a cache, not a field
    _scenario: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def build_topology(self) -> Topology:
        t = self.topology
        return Topology(
            alice=t.alice,
            bob=t.bob,
            mallory=t.mallory,
            scatterers=t.scatterers,
            wavelength_m=self.wavelength_m,
        )

    def build_profile(self) -> AntennaProfile:
        """Alice's antenna: the omni profile under OAKG, otherwise the
        configured CSV or synthesized beam (OAKG reads no `antenna.*`)."""
        if self.scheme == "OAKG":
            return omni_profile()
        a = self.antenna
        if a.profile_csv is not None:
            return load_antenna_profile(a.profile_csv)
        s = a.synthesis
        return synthesize_rotated_beam(
            mode_count=s.mode_count,
            front_to_back_db=s.front_to_back_db,
            beam_exponent=s.beam_exponent,
        )

    def build_scenario(self) -> Scenario:
        """The run's Scenario, built on the first call and kept on this config.

        Later calls return the same object while the fields it is derived
        from are unchanged. `model_copy` carries the kept scenario along, so
        a copy made after a build shares it, also when it changes seed,
        rounds or attack. A copy of a config that has not built one yet
        builds its own (one beam synthesis, or one profile CSV read, and the
        calibrations) on its first call. A CalibrationError of a CSV profile
        names the file, as its ProfileErrors do."""
        key = (self.scheme, self.detection_threshold_dbm, self.wavelength_m,
               self.topology, self.antenna, self.fading)
        if self._scenario is None or self._scenario[0] != key:
            try:
                scenario = build_scenario(self.build_topology(), self.build_profile(),
                                          self.fading, self.scheme, self.detection_threshold_dbm)
            except CalibrationError as exc:
                if self.scheme == "OAKG" or self.antenna.profile_csv is None:
                    raise
                raise CalibrationError(f"{self.antenna.profile_csv}: {exc}") from None
            object.__setattr__(self, "_scenario", (key, scenario))
        return self._scenario[1]

    def rs_params(self) -> RsParams:
        r = self.reconciliation
        return RsParams(m=r.symbol_bits, n=r.n, k=r.k)

    def model_copy(self, *, update: Optional[dict] = None) -> "ExperimentConfig":
        """This config with the fields in `update` replaced, each loaded as
        from a config file (a ConfigError names a bad one); a section may be
        given as a mapping. The copy keeps a scenario this config has built
        (see `build_scenario`)."""
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        copy = config_from_mapping({**data, **(update or {})})
        object.__setattr__(copy, "_scenario", self._scenario)
        return copy


# a failed load: its reasons are in the caller's error list
_BAD = object()

# a decimal number, with or without an exponent
_DECIMAL = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

_BOUNDS = {
    "ge": (operator.ge, "greater than or equal to {}"),
    "gt": (operator.gt, "greater than {}"),
    "lt": (operator.lt, "less than {}"),
}


def _load_section(cls, data, path: str, errors: list):
    """cls from the mapping data, or _BAD after appending to errors.

    An instance of cls is taken as it is: `model_copy` passes the sections
    it does not replace."""
    if isinstance(data, cls):
        return data
    if not isinstance(data, dict):
        errors.append(f"{path}: expected a mapping, got {data!r}")
        return _BAD
    before = len(errors)
    prefix = f"{path}." if path else ""
    known = [f for f in fields(cls) if f.init]
    values = {}
    for f in known:
        where = prefix + f.name
        if f.name not in data:
            if f.default is MISSING:
                errors.append(f"{where}: required")
            continue
        value = _load(f.type, data[f.name], where, errors)
        if value is _BAD:
            continue
        values[f.name] = value
        if value is None:
            continue
        for name, bound in f.metadata.items():
            check, words = _BOUNDS[name]
            if not check(value, bound):
                errors.append(f"{where}: must be {words.format(bound)}, got {value!r}")
                break
    names = {f.name for f in known}
    errors.extend(f"{prefix}{key}: unknown key" for key in data if key not in names)
    return cls(**values) if len(errors) == before else _BAD


def _load(tp, value, where: str, errors: list):
    """value loaded as annotation tp by the module's coercion rules, or
    _BAD after appending `where: reason` to errors."""
    if is_dataclass(tp):
        return _load_section(tp, value, where, errors)
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:  # Optional[X]
        return None if value is None else _load(args[0], value, where, errors)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            errors.append(f"{where}: expected a list, got {value!r}")
            return _BAD
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            errors.append(f"{where}: expected {len(args)} items, got {len(value)}")
            return _BAD
        before = len(errors)
        items = tuple(_load(t, v, f"{where}.{i}", errors) for i, (t, v) in enumerate(zip(args, value)))
        return items if len(errors) == before else _BAD
    try:
        return _scalar(tp, value)
    except ValueError as exc:
        errors.append(f"{where}: {exc}, got {value!r}")
        return _BAD


def _scalar(tp, value):
    """value as the scalar annotation tp; ValueError says what was expected."""
    if get_origin(tp) is Literal:
        if isinstance(value, str) and value in get_args(tp):
            return value
        raise ValueError("expected one of " + ", ".join(map(repr, get_args(tp))))
    if tp is bool or tp is str:
        if isinstance(value, tp):
            return value
        raise ValueError(f"expected a {'boolean' if tp is bool else 'string'}")
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is int:
        if number and (isinstance(value, int) or value.is_integer()):
            return int(value)
        raise ValueError("expected an integer")
    if not (number or (isinstance(value, str) and _DECIMAL.fullmatch(value))):
        raise ValueError("expected a number")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        raise ValueError("number out of float range") from None
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


class _NoDuplicateLoader(yaml.SafeLoader):
    pass


def _mapping_no_duplicates(loader, node, deep=False):
    seen = set()
    for key_node, _ in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if key in seen:
            raise ConfigError(
                f"duplicate key {key!r} at line {key_node.start_mark.line + 1}"
            )
        seen.add(key)
    return loader.construct_mapping(node, deep)


_NoDuplicateLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _mapping_no_duplicates
)


def config_from_mapping(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping of keys to values")
    errors: list[str] = []
    cfg = _load_section(ExperimentConfig, data, "", errors)
    if errors:
        raise ConfigError("; ".join(errors))
    try:
        cfg.rs_params()
    except ContractError as exc:
        raise ConfigError(f"reconciliation: {exc}") from None
    return cfg


def parse_config(path) -> ExperimentConfig:
    """Load, validate, and default-fill a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_NoDuplicateLoader)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if data is None:
        raise ConfigError(f"{path}: empty config")
    return config_from_mapping(data)
