"""Experiment configuration: YAML loading, validation, defaults.

Configs are strict: unknown keys and duplicate keys are rejected, and
every numeric range is validated at load with a path-to-field message.
The seed is mandatory so every run is reproducible.
"""
from __future__ import annotations

import math
from typing import Literal, Optional

import yaml
from pydantic import BaseModel, ConfigDict, Field, PrivateAttr, ValidationError

from .antenna import AntennaProfile, load_antenna_profile, omni_profile, synthesize_rotated_beam
from .errors import ConfigError, ContractError
from .geometry import Topology
from .reed_solomon import RsParams
from .session import Scenario, build_scenario

# the fields a Scenario is derived from
_SCENARIO_FIELDS = {"scheme", "detection_threshold_dbm", "wavelength_m",
                    "topology", "antenna", "fading"}

_DEFAULT_MALLORY_Y = 5.0 * math.sqrt(3.0)


class _StrictModel(BaseModel):
    model_config = ConfigDict(extra="forbid")


class TopologyConfig(_StrictModel):
    alice: tuple[float, float] = (5.0, 0.0)
    bob: tuple[float, float] = (15.0, 0.0)
    mallory: tuple[float, float] = (10.0, _DEFAULT_MALLORY_Y)
    scatterers: list[tuple[float, float]] = Field(
        default_factory=lambda: [(8.2, 3.7), (13.5, 6.1)]
    )


class SynthesisConfig(_StrictModel):
    mode_count: int = Field(default=360, ge=1)
    front_to_back_db: float = Field(default=20.0, ge=0.0)
    beam_exponent: float = Field(default=1.0, gt=0.0)


class AntennaConfig(_StrictModel):
    profile_csv: Optional[str] = None
    synthesis: SynthesisConfig = Field(default_factory=SynthesisConfig)


class LinkFadingConfig(_StrictModel):
    """Optional per-link override of the distance-derived defaults."""

    los_amplitude: Optional[float] = Field(default=None, gt=0.0)
    k_factor: Optional[float] = Field(default=None, gt=0.0)


class FadingConfig(_StrictModel):
    reference_amplitude: float = Field(default=1e-4, gt=0.0)
    reference_distance_m: float = Field(default=10.0, gt=0.0)
    k_factor: float = Field(default=300.0, gt=0.0)
    ab: LinkFadingConfig = Field(default_factory=LinkFadingConfig)
    ma: LinkFadingConfig = Field(default_factory=LinkFadingConfig)
    mb: LinkFadingConfig = Field(default_factory=LinkFadingConfig)


class AttackConfig(_StrictModel):
    enabled: bool = True
    d: float = Field(default=3.0, gt=0.0)
    injection_power_dbm: Optional[float] = None
    repeat_injection: bool = False


class ReconciliationConfig(_StrictModel):
    # checked as RsParams(m=symbol_bits, n, k) at load: RsParams alone states the rule
    symbol_bits: int = 8
    n: int = 255
    k: int = 223


class ExperimentConfig(_StrictModel):
    seed: int = Field(ge=0)
    scheme: Literal["RAKG", "OAKG"] = "RAKG"
    rounds: int = Field(default=100_000, ge=1)
    coherence_block_rounds: int = Field(default=10, ge=1)
    beta: float = Field(default=0.4, gt=0.0, lt=1.0)
    excursion_len: int = Field(default=1, ge=1)
    noise_sigma_db: float = Field(default=0.0, ge=0.0)
    detection_threshold_dbm: float = -75.0
    wavelength_m: float = Field(default=0.125, gt=0.0)
    topology: TopologyConfig = Field(default_factory=TopologyConfig)
    antenna: AntennaConfig = Field(default_factory=AntennaConfig)
    fading: FadingConfig = Field(default_factory=FadingConfig)
    attack: AttackConfig = Field(default_factory=AttackConfig)
    reconciliation: ReconciliationConfig = Field(default_factory=ReconciliationConfig)
    # (scenario fields as JSON, the Scenario built from them)
    _scenario: Optional[tuple[str, Scenario]] = PrivateAttr(default=None)

    def __eq__(self, other) -> bool:
        # configs are equal by their fields; a cached scenario is not one
        return type(other) is type(self) and self.__dict__ == other.__dict__

    def build_topology(self) -> Topology:
        t = self.topology
        return Topology(
            alice=t.alice,
            bob=t.bob,
            mallory=t.mallory,
            scatterers=tuple(t.scatterers),
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
        calibrations) on its first call."""
        key = self.model_dump_json(include=_SCENARIO_FIELDS)
        if self._scenario is None or self._scenario[0] != key:
            self._scenario = (key, build_scenario(
                self.build_topology(), self.build_profile(), self.fading, self.scheme,
                self.detection_threshold_dbm))
        return self._scenario[1]

    def rs_params(self) -> RsParams:
        r = self.reconciliation
        return RsParams(m=r.symbol_bits, n=r.n, k=r.k)


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


def _format_validation_error(exc: ValidationError) -> str:
    lines = []
    for err in exc.errors():
        path = ".".join(str(p) for p in err["loc"]) or "<root>"
        lines.append(f"{path}: {err['msg']}")
    return "; ".join(lines)


def config_from_mapping(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping of keys to values")
    try:
        cfg = ExperimentConfig(**data)
    except ValidationError as exc:
        raise ConfigError(_format_validation_error(exc)) from None
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
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if data is None:
        raise ConfigError(f"{path}: empty config")
    return config_from_mapping(data)
