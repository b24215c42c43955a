"""Per-round channel synthesis for a whole probing session.

Rounds are grouped into coherence blocks during which all links keep
the same path coefficients. Alice redraws her antenna mode uniformly at
random every round; under OAKG the profile is the single omni mode, so
the draw always lands on it. Within one round both probe directions see
the identical channel, so with zero measurement noise x_a(i) == x_b(i)
exactly. Mallory's per-round observations of Alice's and Bob's probes
ride on the same frozen fading. The session is the channel only:
Mallory's injection is applied to its trace afterwards
(`pipeline._attack`), the same way for a simulated and a recorded
trace.

The channel is computed on a (block, round-in-block) grid: the per-round
mode draws are padded to whole blocks and reshaped to (n_blocks,
block_len), so each path's frozen coefficient broadcasts over its
block's rounds and no per-round copy of the coefficients is built. The
M-B channel has no per-round input at all, so its RSS is computed once
per block and repeated. Each link's magnitude is taken with complex
`np.abs`, the function the per-round formula used: `np.hypot(re, im)`
on the two parts differs from it in the last bit on about a third of
the rounds, which would move every digest of a trace or a key.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import OA_KIND, AntennaProfile, calibrate_tx_power, omni_profile
from .errors import ContractError
from .fading import FadingParams, sample_fading_blocks
from .geometry import LinkPathSet, Topology, path_angles

RAKG = "RAKG"
OAKG = "OAKG"


@dataclass(frozen=True)
class LinkSet:
    """Path sets and fading parameters for the three links."""

    ab: LinkPathSet
    am: LinkPathSet
    mb_path_count: int
    fading_ab: FadingParams
    fading_am: FadingParams
    fading_mb: FadingParams


@dataclass
class MeasurementTrace:
    """One session's per-round columns, exactly those of the trace CSV.

    Run-level facts (scheme, calibrated power, block length, injection
    power) are not kept here: the run's config and its Scenario fix them."""

    mode: np.ndarray
    x_a: np.ndarray
    x_b: np.ndarray
    rss_ma: np.ndarray
    rss_mb: np.ndarray
    injected: np.ndarray

    def __post_init__(self):
        n = self.x_a.size
        for name in ("mode", "x_b", "rss_ma", "rss_mb", "injected"):
            if getattr(self, name).size != n:
                raise ContractError(f"per-round series {name} has wrong length")

    @property
    def n_rounds(self) -> int:
        return int(self.x_a.size)


def build_links(topology: Topology, fading_cfg) -> LinkSet:
    """Per-link path sets and fading parameters.

    By default the LoS amplitude decays as reference_amplitude *
    ref_distance / d with its phase advancing along the carrier, and
    sigma0 follows from the configured K-factor over P+1 paths; each
    link can override its amplitude or K-factor individually.
    """
    ab = path_angles(topology, "alice", "bob")
    am = path_angles(topology, "alice", "mallory")
    path_count = 1 + len(topology.scatterers)

    def params(d: float, override) -> FadingParams:
        amp = fading_cfg.reference_amplitude * fading_cfg.reference_distance_m / d
        k = fading_cfg.k_factor
        if override is not None:
            if override.los_amplitude is not None:
                amp = override.los_amplitude
            if override.k_factor is not None:
                k = override.k_factor
        phase = -2.0 * math.pi * d / topology.wavelength_m
        return FadingParams.from_k_factor(amp, k, path_count, phase)

    return LinkSet(
        ab=ab,
        am=am,
        mb_path_count=path_count,
        fading_ab=params(topology.distance("alice", "bob"), getattr(fading_cfg, "ab", None)),
        fading_am=params(topology.distance("alice", "mallory"), getattr(fading_cfg, "ma", None)),
        fading_mb=params(topology.distance("mallory", "bob"), getattr(fading_cfg, "mb", None)),
    )


def _rss(h: np.ndarray, p_x: float) -> np.ndarray:
    """RSS in dBm, 20*log10|h| + P_x; |h| = 0 maps to -inf, the erasure
    sentinel (below any threshold, treated as packet loss downstream)."""
    mag = np.abs(h)
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(mag) + p_x


def _block_channel(g: np.ndarray, a: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """sum_p g[mode, p] * a[block, p] on a (block, round-in-block) mode grid.

    Each path's gains are a 1-D take from one gain column, scaled by that
    block's coefficient broadcast over its rounds. A real gain times a
    complex coefficient is the gain times each part, and a complex sum adds
    the parts separately, so accumulating them in path order rounds exactly
    as the complex sum over the paths of per-round gathers does.
    """
    gain = g[:, 0].take(grid)
    re = gain * a[:, 0, None].real
    im = gain * a[:, 0, None].imag
    for p in range(1, g.shape[1]):
        g[:, p].take(grid, out=gain)
        re += gain * a[:, p, None].real
        im += gain * a[:, p, None].imag
    h = np.empty(grid.shape, dtype=complex)
    h.real = re
    h.imag = im
    return h


@dataclass(frozen=True, eq=False)
class Scenario:
    """What a run derives from its config before drawing randomness: links,
    the profile's gain matrices on the A-B and A-M paths, the calibrated
    power and (RAKG only) its gap to the omni calibration. Built once per run."""

    scheme: str
    topology: Topology
    profile: AntennaProfile
    links: LinkSet
    g_ab: np.ndarray
    g_am: np.ndarray
    p_x_dbm: float
    tx_power_gap_vs_oa_db: float | None


def build_scenario(
    topology: Topology, profile: AntennaProfile, fading_cfg, scheme: str,
    detection_threshold_dbm: float,
) -> Scenario:
    """Transmit power is calibrated so every usable mode reaches the
    detection threshold on the A-B link. OAKG requires the omni (OA) profile."""
    if scheme not in (RAKG, OAKG):
        raise ContractError(f"unknown scheme {scheme!r}")
    if scheme == OAKG and profile.kind != OA_KIND:
        raise ContractError("OAKG needs the omni (OA) profile")
    links = build_links(topology, fading_cfg)
    g_ab = profile.gain_matrix(links.ab.angles_deg)
    g_am = profile.gain_matrix(links.am.angles_deg)
    g_ab.setflags(write=False)
    g_am.setflags(write=False)
    calibration = (detection_threshold_dbm, abs(links.fading_ab.los_mean), links.fading_ab.sigma0)
    p_x = calibrate_tx_power(profile, g_ab, *calibration)
    gap = None
    if scheme == RAKG:
        omni = omni_profile()
        gap = p_x - calibrate_tx_power(omni, omni.gain_matrix(links.ab.angles_deg), *calibration)
    return Scenario(scheme, topology, profile, links, g_ab, g_am, p_x, gap)


def simulate_session(
    scenario: Scenario,
    *,
    n_rounds: int,
    coherence_block_rounds: int,
    noise_sigma_db: float,
    rng: np.random.Generator,
) -> MeasurementTrace:
    """Simulate N clean probing rounds; no round is injected.

    The antenna profile drives both the A-B and the M-A channels
    through Alice's per-round mode; Bob and Mallory are omnidirectional
    so the M-B channel only changes across coherence blocks. Every
    probe goes out at the scenario's calibrated power.

    Round i sits at (i // block_len, i % block_len) of the mode grid,
    where block_len is the coherence length capped at n_rounds; the
    last block is padded with mode 0 (only when n_rounds is not a whole
    number of blocks) and the padding is cut off again before the RSS
    leaves this function. The results are bit-identical
    to summing g[mode] * a[block] over the paths of each round.
    """
    if n_rounds < 1:
        raise ContractError("n_rounds must be >= 1")
    if coherence_block_rounds < 1:
        raise ContractError("coherence_block_rounds must be >= 1")
    links, p_x = scenario.links, scenario.p_x_dbm

    n_blocks = -(-n_rounds // coherence_block_rounds)
    a_ab = sample_fading_blocks(rng, links.fading_ab, links.ab.path_count, n_blocks)
    a_am = sample_fading_blocks(rng, links.fading_am, links.am.path_count, n_blocks)
    a_mb = sample_fading_blocks(rng, links.fading_mb, links.mb_path_count, n_blocks)

    mode_idx = rng.integers(0, scenario.profile.mode_count, size=n_rounds)
    # one block never spans more rounds than the session has
    block_len = min(coherence_block_rounds, n_rounds)
    pad = n_blocks * block_len - n_rounds
    grid = (np.pad(mode_idx, (0, pad)) if pad else mode_idx).reshape(n_blocks, block_len)

    clean_ab = _rss(_block_channel(scenario.g_ab, a_ab, grid), p_x).reshape(-1)[:n_rounds]
    rss_ma = _rss(_block_channel(scenario.g_am, a_am, grid), p_x).reshape(-1)[:n_rounds]
    rss_mb = np.repeat(_rss(np.sum(a_mb, axis=1), p_x), block_len)[:n_rounds]
    if noise_sigma_db > 0.0:
        x_a = clean_ab + noise_sigma_db * rng.standard_normal(n_rounds)
        x_b = clean_ab + noise_sigma_db * rng.standard_normal(n_rounds)
        rss_ma = rss_ma + noise_sigma_db * rng.standard_normal(n_rounds)
        rss_mb = rss_mb + noise_sigma_db * rng.standard_normal(n_rounds)
    else:
        x_a = clean_ab.copy()
        x_b = clean_ab.copy()

    modes = np.asarray(scenario.profile.modes, dtype=np.int64)[mode_idx]
    return MeasurementTrace(modes, x_a, x_b, rss_ma, rss_mb, np.zeros(n_rounds, dtype=bool))
