"""Multipath fading coefficients.

Each link has P+1 complex path coefficients, redrawn once per
coherence block. The LoS coefficient (index 0) has mean los_mean,
NLoS coefficients are zero-mean; all quadratures share the same
standard deviation sigma0 and are independent across paths, links,
and blocks. The session weights them with the antenna's gain matrix
and maps the sum to RSS.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass(frozen=True)
class FadingParams:
    """Distribution of one link's path coefficients."""

    los_mean: complex
    sigma0: float

    def __post_init__(self):
        if not (
            math.isfinite(self.los_mean.real) and math.isfinite(self.los_mean.imag)
        ):
            raise ContractError("los_mean must be finite")
        if not (self.sigma0 >= 0.0 and math.isfinite(self.sigma0)):
            raise ContractError("sigma0 must be finite and >= 0")

    def k_factor(self, path_count: int) -> float:
        """Ratio of LoS power to total diffuse power over P+1 paths."""
        if self.sigma0 == 0.0:
            return math.inf
        return abs(self.los_mean) ** 2 / (2.0 * self.sigma0**2 * path_count)

    @classmethod
    def from_k_factor(
        cls, los_amplitude: float, k_factor: float, path_count: int, los_phase_rad: float = 0.0
    ) -> "FadingParams":
        if k_factor <= 0:
            raise ContractError("k_factor must be > 0")
        sigma0 = los_amplitude / math.sqrt(2.0 * k_factor * path_count)
        return cls(
            los_mean=los_amplitude * cmath.exp(1j * los_phase_rad), sigma0=sigma0
        )


def sample_fading_blocks(
    rng: np.random.Generator, params: FadingParams, path_count: int, n_blocks: int
) -> np.ndarray:
    """Vectorized batch of block coefficients, shape (n_blocks, path_count)."""
    if path_count < 1 or n_blocks < 1:
        raise ContractError("path_count and n_blocks must be >= 1")
    z = params.sigma0 * (
        rng.standard_normal((n_blocks, path_count))
        + 1j * rng.standard_normal((n_blocks, path_count))
    )
    z[:, 0] += params.los_mean
    return z

