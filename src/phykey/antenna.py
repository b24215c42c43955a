"""Antenna gain profiles: interpolation, synthesis, power calibration.

A profile is a dense gain table over (mode, angle). Gains are linear
weights applied directly to per-path fading coefficients; between
listed angles the gain is interpolated linearly with wraparound at
360 degrees. An omnidirectional (OA) profile is the degenerate single
mode with gain 1 everywhere. Power calibration reads the A->B link's
per-mode Rician law with `rician.rician_params`. Profile CSV files are
read and written by `traceio`.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, ProfileError
from .rician import rician_mean_amplitude, rician_params

OA_KIND = "OA"
RA_KIND = "RA"
# a mode is an integer in the int64 range, in a profile as in the trace CSV
_INT64_MODES = range(-(2**63), 2**63)


@dataclass(frozen=True)
class AntennaProfile:
    """Gain table over modes x listed angles, interpolated in between.

    angles_deg is sorted, within [0, 360); gains has one row per mode.
    """

    modes: tuple[int, ...]
    angles_deg: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        modes = tuple(int(m) for m in self.modes)
        for mode in modes:
            if mode not in _INT64_MODES:
                raise ProfileError(f"mode must be an int64, got {mode}")
        angles = np.asarray(self.angles_deg, dtype=float)
        gains = np.asarray(self.gains, dtype=float)
        if gains.ndim != 2 or gains.shape != (len(self.modes), angles.size):
            raise ProfileError(
                f"gain table shape {gains.shape} does not match "
                f"{len(self.modes)} modes x {angles.size} angles"
            )
        if len(self.modes) < 1:
            raise ProfileError("profile needs at least one mode")
        if angles.size < 1:
            raise ProfileError("profile needs at least one listed angle")
        if np.any(angles < 0.0) or np.any(angles >= 360.0):
            raise ProfileError("angles must lie in [0, 360)")
        if np.any(np.diff(angles) <= 0):
            raise ProfileError("angles must be strictly increasing")
        if not np.all(np.isfinite(gains)):
            raise ProfileError("all gains must be finite")
        if np.any(gains < 0.0):
            raise ProfileError("gains must be non-negative")
        angles.setflags(write=False)
        gains.setflags(write=False)
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "modes", modes)

    @property
    def mode_count(self) -> int:
        return len(self.modes)

    @property
    def kind(self) -> str:
        """OA_KIND for one mode with gain 1 at every angle, else RA_KIND."""
        return OA_KIND if self.mode_count == 1 and bool(np.all(self.gains == 1.0)) else RA_KIND

    def gain_matrix(self, angles_deg) -> np.ndarray:
        """Interpolated gains for every mode at the given angles.

        Returns an array of shape (mode_count, len(angles_deg)); used by
        the simulator to weight per-path fading coefficients. Bit-identical
        to `np.interp(angles % 360, angles_deg, row, period=360)` per mode:
        the same padded table, one bracketing index for every mode, and
        numpy's formula in its operation order.
        """
        # the second % folds the 360.0 a tiny negative angle rounds to
        x = np.asarray(angles_deg, dtype=float).reshape(-1) % 360.0 % 360.0
        a, g = self.angles_deg, self.gains
        xp = np.concatenate((a[-1:] - 360.0, a, a[:1] + 360.0))
        fp = np.concatenate((g[:, -1:], g, g[:, :1]), axis=1)
        j = np.minimum(np.searchsorted(xp, x, side="right") - 1, xp.size - 2)
        # angles a few ulps apart overflow the slope, and inf * 0 is nan where
        # x is a table angle and the slope goes unused; np.interp does the same
        with np.errstate(over="ignore", invalid="ignore"):
            slope = (fp[:, j + 1] - fp[:, j]) / (xp[j + 1] - xp[j])
            return np.where(xp[j] == x, fp[:, j], slope * (x - xp[j]) + fp[:, j])


def omni_profile() -> AntennaProfile:
    """Single-mode unit-gain profile (conventional omni antenna)."""
    return AntennaProfile(modes=(0,), angles_deg=np.array([0.0]), gains=np.array([[1.0]]))


def synthesize_rotated_beam(
    mode_count: int = 360,
    front_to_back_db: float = 20.0,
    beam_exponent: float = 1.0,
) -> AntennaProfile:
    """Synthesize a rotated-beam profile: one raised-cosine lobe per mode.

    The attenuation at offset delta from boresight is
    front_to_back_db * ((1 - cos delta) / 2) ** beam_exponent, so the
    stored gain spans [10^(-ftb/20), 1]. Mode u is mode 0 rotated by
    u mod 360 degrees, so every mode's table is a circular shift of mode 0's.
    """
    if mode_count < 1:
        raise ProfileError("mode_count must be >= 1")
    if not (np.isfinite(front_to_back_db) and front_to_back_db >= 0):
        raise ProfileError("front_to_back_db must be finite and >= 0")
    if beam_exponent <= 0:
        raise ProfileError("beam_exponent must be > 0")
    angles = np.arange(0.0, 360.0, 1.0)
    offsets = np.radians(angles)
    atten_db = front_to_back_db * ((1.0 - np.cos(offsets)) / 2.0) ** beam_exponent
    base = 10.0 ** (-atten_db / 20.0)
    # row u is base rolled by u: np.roll(base, u)[k] == base[(k - u) % 360]
    gains = base[(np.arange(angles.size) - np.arange(mode_count)[:, None]) % angles.size]
    return AntennaProfile(modes=tuple(range(mode_count)), angles_deg=angles, gains=gains)


def calibrate_tx_power(profile: AntennaProfile, link, detection_threshold_dbm: float) -> float:
    """Transmit power (dBm) so every usable mode reaches the detection threshold.

    `link` is the A->B `session.Link`: its gains are the profile's on the
    A->B paths (column 0 the LoS path), its fading their law. For each mode
    the expected Alice->Bob RSS is 20*log10(mean Rician amplitude) + P_x;
    the returned P_x is the maximum over modes of the minimum power meeting
    the threshold. Degenerate modes (varsigma == 0: zero gain on every A->B
    path) have no finite calibration and are excluded with a warning, as
    `analysis.closed_form_p0_p1` excludes them; with sigma0 == 0 every mode is.
    """
    if not np.isfinite(detection_threshold_dbm):
        raise CalibrationError("detection threshold must be finite")
    nu, varsigma = rician_params(link)
    live = varsigma > 0.0
    if not np.any(live):
        raise CalibrationError(
            "every mode has zero gain on all A->B paths or sigma0 == 0, so no power calibrates"
        )
    if not np.all(live):
        dead = [profile.modes[i] for i in np.flatnonzero(~live)]
        warnings.warn(
            f"excluding {len(dead)} zero-gain mode(s) from calibration: {dead[:8]}...",
            stacklevel=2,
        )
    mean_amp = rician_mean_amplitude(nu[live], varsigma[live])
    # also refuses a NaN, which no comparison passes
    if not np.all(mean_amp > 0.0):
        raise CalibrationError("degenerate mode with zero or undefined mean amplitude")
    p_x = detection_threshold_dbm - 20.0 * np.log10(mean_amp)
    return float(np.max(p_x))
