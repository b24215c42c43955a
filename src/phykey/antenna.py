"""Antenna gain profiles: CSV loading, interpolation, synthesis, power calibration.

A profile is a dense gain table over (mode, angle). Gains are linear
weights applied directly to per-path fading coefficients; between
listed angles the gain is interpolated linearly with wraparound at
360 degrees. An omnidirectional (OA) profile is the degenerate single
mode with gain 1 everywhere.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, ProfileError
from .rician import rician_mean_amplitude, rician_params

OA_KIND = "OA"
RA_KIND = "RA"


@dataclass(frozen=True)
class AntennaProfile:
    """Gain table over modes x listed angles, interpolated in between.

    angles_deg is sorted, within [0, 360); gains has one row per mode.
    """

    modes: tuple[int, ...]
    angles_deg: np.ndarray
    gains: np.ndarray
    kind: str = RA_KIND

    def __post_init__(self):
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
        if self.kind not in (RA_KIND, OA_KIND):
            raise ProfileError(f"unknown profile kind {self.kind!r}")
        if self.kind == OA_KIND and (len(self.modes) != 1 or not np.all(gains == 1.0)):
            raise ProfileError("OA profile must be a single mode with unit gain")
        angles.setflags(write=False)
        gains.setflags(write=False)
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "modes", tuple(int(m) for m in self.modes))

    @property
    def mode_count(self) -> int:
        return len(self.modes)

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
    return AntennaProfile(
        modes=(0,), angles_deg=np.array([0.0]), gains=np.array([[1.0]]), kind=OA_KIND
    )


def synthesize_rotated_beam(
    mode_count: int = 360,
    front_to_back_db: float = 20.0,
    beam_exponent: float = 1.0,
    angle_step_deg: float = 1.0,
) -> AntennaProfile:
    """Synthesize a rotated-beam profile: one raised-cosine lobe per mode.

    The attenuation at offset delta from boresight is
    front_to_back_db * ((1 - cos delta) / 2) ** beam_exponent, so the
    stored gain spans [10^(-ftb/20), 1]. Mode u is mode 0 rotated by
    u * angle_step_deg; with a 1-degree step and 360 modes every mode's
    table is a circular shift of mode 0's.
    """
    if mode_count < 1:
        raise ProfileError("mode_count must be >= 1")
    if front_to_back_db < 0:
        raise ProfileError("front_to_back_db must be >= 0")
    if beam_exponent <= 0:
        raise ProfileError("beam_exponent must be > 0")
    if not np.isfinite(angle_step_deg):
        raise ProfileError("angle_step_deg must be finite")
    angles = np.arange(0.0, 360.0, 1.0)
    offsets = np.radians(angles)
    atten_db = front_to_back_db * ((1.0 - np.cos(offsets)) / 2.0) ** beam_exponent
    base = 10.0 ** (-atten_db / 20.0)
    # row u is base rolled by its shift: np.roll(base, s)[k] == base[(k - s) % 360]
    shifts = (np.round(np.arange(mode_count) * angle_step_deg) % angles.size).astype(np.int64)
    gains = base[(np.arange(angles.size) - shifts[:, None]) % angles.size]
    return AntennaProfile(
        modes=tuple(range(mode_count)), angles_deg=angles, gains=gains, kind=RA_KIND
    )


def load_antenna_profile(path) -> AntennaProfile:
    """Load a profile CSV with header mode,angle_deg,gain_linear.

    Every mode must list the same angle set; gaps between listed angles
    are covered by the interpolation rule at query time.
    """
    rows: dict[int, dict[float, float]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip().replace(" ", "") != "mode,angle_deg,gain_linear":
            raise ProfileError(
                f"{path}: line 1: expected header 'mode,angle_deg,gain_linear', "
                f"got {header.strip()!r}"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ProfileError(f"{path}: line {lineno}: expected 3 fields")
            try:
                mode = int(parts[0])
                angle = float(parts[1])
                g = float(parts[2])
            except ValueError as exc:
                raise ProfileError(f"{path}: line {lineno}: {exc}") from None
            if not np.isfinite(g) or g < 0.0:
                raise ProfileError(
                    f"{path}: line {lineno}: gain must be finite and >= 0, got {g}"
                )
            if not (0.0 <= angle < 360.0):
                raise ProfileError(
                    f"{path}: line {lineno}: angle must be in [0, 360), got {angle}"
                )
            per_mode = rows.setdefault(mode, {})
            if angle in per_mode:
                raise ProfileError(
                    f"{path}: line {lineno}: duplicate (mode, angle) = ({mode}, {angle})"
                )
            per_mode[angle] = g
    if not rows:
        raise ProfileError(f"{path}: no profile rows")
    modes = tuple(sorted(rows))
    angle_sets = {tuple(sorted(rows[m])) for m in modes}
    if len(angle_sets) != 1:
        raise ProfileError(f"{path}: modes list different angle sets")
    angles = np.array(sorted(rows[modes[0]]))
    gains = np.array([[rows[m][a] for a in angles] for m in modes])
    kind = OA_KIND if len(modes) == 1 and np.all(gains == 1.0) else RA_KIND
    return AntennaProfile(modes=modes, angles_deg=angles, gains=gains, kind=kind)


def save_antenna_profile(profile: AntennaProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mode,angle_deg,gain_linear\n")
        for i, mode in enumerate(profile.modes):
            for angle, g in zip(profile.angles_deg, profile.gains[i]):
                fh.write(f"{mode},{angle:g},{g:.12g}\n")


def calibrate_tx_power(
    profile: AntennaProfile,
    gains: np.ndarray,
    detection_threshold_dbm: float,
    los_mean_amplitude: float,
    sigma0: float,
) -> float:
    """Transmit power (dBm) so every usable mode reaches the detection threshold.

    `gains` is the profile's gain matrix on the A->B paths (column 0 the
    LoS path). For each mode the expected Alice->Bob RSS is
    20*log10(mean Rician amplitude) + P_x; the returned P_x is the maximum
    over modes of the minimum power meeting the threshold. Modes with zero
    gain on every A->B path have no finite calibration and are excluded
    with a warning.
    """
    if not np.isfinite(detection_threshold_dbm):
        raise CalibrationError("detection threshold must be finite")
    usable = np.any(gains > 0.0, axis=1)
    if not np.any(usable):
        raise CalibrationError("every mode has zero gain on all A->B paths")
    if not np.all(usable):
        dead = [profile.modes[i] for i in np.nonzero(~usable)[0]]
        warnings.warn(
            f"excluding {len(dead)} zero-gain mode(s) from calibration: {dead[:8]}...",
            stacklevel=2,
        )
    nu, varsigma = rician_params(gains[usable], los_mean_amplitude, sigma0)
    mean_amp = rician_mean_amplitude(nu, varsigma)
    if np.any(mean_amp <= 0.0):
        raise CalibrationError("degenerate mode with zero mean amplitude")
    p_x = detection_threshold_dbm - 20.0 * np.log10(mean_amp)
    return float(np.max(p_x))
