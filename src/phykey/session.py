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

A noisy session overlaps its two halves on two cores. The generator is
drawn in one fixed order: the fading coefficients of the three links,
the modes, then one noise array each for x_a, x_b, rss_ma and rss_mb.
After the mode draw the calling thread allocates the four noise arrays
and one worker fills them in that order, while the calling thread, which
no longer touches the generator, synthesizes the A-B and A-M channels
about _CHUNK_ROUNDS rounds at a time straight into preallocated RSS
columns. Once the worker's result is read each noise array becomes its
column in place (`z *= sigma; z += clean` rounds as `clean + sigma * z`
does), so every output and the generator's final state equal those of
the serial order. The steps keep the peak flat at every coherence
length: the four noise arrays are live for the whole synthesis, so no
whole-session complex or gain temporary may sit beside them, and each
link's fading coefficients and clean column are released once used. The
noise arrays are allocated by the calling thread because a thread's own
allocations go to a separate malloc arena. A zero-noise session starts
no thread.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import OA_KIND, AntennaProfile, calibrate_tx_power, omni_profile
from .errors import ContractError
from .fading import FadingParams, sample_fading_blocks
from .geometry import Topology, path_angles

RAKG = "RAKG"
OAKG = "OAKG"
# rounds synthesized per step, whatever the coherence length: a step's
# temporaries stay in cache and small next to the session's columns
_CHUNK_ROUNDS = 16384


@dataclass(frozen=True, eq=False)
class Link:
    """One link: its fading law and the read-only (modes, paths) gain table
    that weights its paths, column 0 the LoS path. Only Alice's end carries
    the profile, so the M-B table is one row of ones."""

    fading: FadingParams
    gains: np.ndarray

    def __post_init__(self):
        self.gains.setflags(write=False)

    @property
    def path_count(self) -> int:
        return self.gains.shape[1]

    @property
    def k_factor(self) -> float:
        """Ratio of LoS power to total diffuse power over the link's paths."""
        if self.fading.sigma0 == 0.0:
            return math.inf
        return abs(self.fading.los_mean) ** 2 / (2.0 * self.fading.sigma0**2 * self.path_count)


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


def build_links(topology: Topology, fading_cfg, profile: AntennaProfile) -> tuple[Link, Link, Link]:
    """The A-B, A-M and M-B links.

    By default the LoS amplitude decays as reference_amplitude *
    ref_distance / d with its phase advancing along the carrier, and
    sigma0 follows from the configured K-factor over P+1 paths; each
    link can override its amplitude or K-factor individually. The A-B
    and A-M gains are the profile's on Alice's departure angles.
    """
    path_count = 1 + len(topology.scatterers)

    def link(tx: str, rx: str, override, gains: np.ndarray) -> Link:
        d = topology.distance(tx, rx)
        amp = fading_cfg.reference_amplitude * fading_cfg.reference_distance_m / d
        k = fading_cfg.k_factor
        if override is not None:
            if override.los_amplitude is not None:
                amp = override.los_amplitude
            if override.k_factor is not None:
                k = override.k_factor
        phase = -2.0 * math.pi * d / topology.wavelength_m
        return Link(FadingParams.from_k_factor(amp, k, path_count, phase), gains)

    return (
        link("alice", "bob", getattr(fading_cfg, "ab", None),
             profile.gain_matrix(path_angles(topology, "alice", "bob"))),
        link("alice", "mallory", getattr(fading_cfg, "ma", None),
             profile.gain_matrix(path_angles(topology, "alice", "mallory"))),
        link("mallory", "bob", getattr(fading_cfg, "mb", None), np.ones((1, path_count))),
    )


def _rss(h: np.ndarray, p_x: float, out: np.ndarray | None = None) -> np.ndarray:
    """RSS in dBm, 20*log10|h| + P_x, written into `out` when given; |h| = 0
    maps to -inf, the erasure sentinel (below any threshold, treated as
    packet loss downstream)."""
    mag = np.abs(h, out=out)
    with np.errstate(divide="ignore"):
        np.log10(mag, out=mag)
    mag *= 20.0
    mag += p_x
    return mag


def _block_channel(g: np.ndarray, a: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """sum_p g[mode, p] * a[block, p] on a (block, round-in-block) mode grid.

    Each path's gains are a 1-D take from one gain column, scaled by that
    block's coefficient broadcast over its rounds, and accumulated straight
    into the result's real and imaginary parts. A real gain times a complex
    coefficient is the gain times each part, and a complex sum adds the
    parts separately, so accumulating them in path order rounds exactly as
    the complex sum over the paths of per-round gathers does.
    """
    h = np.empty(grid.shape, dtype=complex)
    re, im = h.real, h.imag
    gain = g[:, 0].take(grid)
    np.multiply(gain, a[:, 0, None].real, out=re)
    np.multiply(gain, a[:, 0, None].imag, out=im)
    for p in range(1, g.shape[1]):
        g[:, p].take(grid, out=gain)
        re += gain * a[:, p, None].real
        im += gain * a[:, p, None].imag
    return h


@dataclass(frozen=True, eq=False)
class Scenario:
    """What a run derives from its config before drawing randomness: the
    profile, the A-B, A-M and M-B links, the calibrated power and (RAKG
    only) its gap to the omni calibration. Built once per run."""

    scheme: str
    profile: AntennaProfile
    ab: Link
    am: Link
    mb: Link
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
    ab, am, mb = build_links(topology, fading_cfg, profile)
    p_x = calibrate_tx_power(profile, ab, detection_threshold_dbm)
    gap = None
    if scheme == RAKG:
        # the omni antenna weighs every path by 1, as the M-B table does
        omni_ab = Link(ab.fading, mb.gains)
        gap = p_x - calibrate_tx_power(omni_profile(), omni_ab, detection_threshold_dbm)
    return Scenario(scheme, profile, ab, am, mb, p_x, gap)


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
    p_x = scenario.p_x_dbm

    n_blocks = -(-n_rounds // coherence_block_rounds)
    a_ab, a_am, a_mb = [sample_fading_blocks(rng, link.fading, link.path_count, n_blocks)
                        for link in (scenario.ab, scenario.am, scenario.mb)]
    mode_idx = rng.integers(0, scenario.profile.mode_count, size=n_rounds)

    # one block never spans more rounds than the session has
    block_len = min(coherence_block_rounds, n_rounds)
    shape = (n_blocks, block_len)
    # the noise is drawn next in the serial order: the worker takes the
    # generator until its result is read, and this thread allocates its arrays
    noise = [np.empty(n_rounds) for _ in range(4)] if noise_sigma_db > 0.0 else []

    def draw_noise():
        for z in noise:
            rng.standard_normal(out=z)

    # imported on first use: concurrent.futures loads logging, about 12 ms
    # of every start of the CLI
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="phykey-session-noise") as pool:
        drawn = pool.submit(draw_noise) if noise else None
        # M-B is omni at both ends: one RSS per block, spread over its
        # rounds at the end
        block_mb = _rss(np.sum(a_mb, axis=1), p_x)
        del a_mb
        clean_ab = _synthesize(scenario.ab.gains, a_ab, mode_idx, shape, p_x)
        del a_ab
        clean_am = _synthesize(scenario.am.gains, a_am, mode_idx, shape, p_x)
        del a_am
        if drawn:
            drawn.result()

    clean_ab = clean_ab.reshape(-1)[:n_rounds]
    clean_am = clean_am.reshape(-1)[:n_rounds]
    if noise:
        # z *= sigma; z += clean rounds as clean + sigma * z does
        for z in noise:
            z *= noise_sigma_db
        x_a, x_b, rss_ma, rss_mb = noise
        x_a += clean_ab
        x_b += clean_ab
        rss_ma += clean_am
    else:
        x_a, x_b, rss_ma = clean_ab, clean_ab.copy(), clean_am
    # the clean columns are gone or in use before the M-B column is spread
    del clean_ab, clean_am
    mb = np.repeat(block_mb, block_len)[:n_rounds]
    if noise:
        rss_mb += mb
    else:
        rss_mb = mb

    modes = np.asarray(scenario.profile.modes, dtype=np.int64)[mode_idx]
    return MeasurementTrace(modes, x_a, x_b, rss_ma, rss_mb, np.zeros(n_rounds, dtype=bool))


def _synthesize(g: np.ndarray, a: np.ndarray, mode_idx: np.ndarray, shape, p_x: float):
    """One link's clean RSS on the (block, round-in-block) grid `shape`,
    computed about _CHUNK_ROUNDS rounds at a time into one preallocated array.

    A step is a run of whole blocks, or part of one block when a block is
    longer than a step, so its rounds are contiguous. The last block is
    padded with mode 0 (only when the session is not a whole number of
    blocks); the caller cuts the padding off."""
    n_blocks, block_len = shape
    rss = np.empty(shape)
    rows, cols = max(1, _CHUNK_ROUNDS // block_len), min(block_len, _CHUNK_ROUNDS)
    for b0 in range(0, n_blocks, rows):
        b1 = min(b0 + rows, n_blocks)
        for c0 in range(0, block_len, cols):
            c1 = min(c0 + cols, block_len)
            start, stop = b0 * block_len + c0, (b1 - 1) * block_len + c1
            part = mode_idx[start:stop]
            pad = stop - start - part.size
            grid = (np.pad(part, (0, pad)) if pad else part).reshape(b1 - b0, c1 - c0)
            _rss(_block_channel(g, a[b0:b1], grid), p_x, out=rss[b0:b1, c0:c1])
    return rss
