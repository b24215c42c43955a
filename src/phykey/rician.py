"""Per-mode Rician amplitude parameters and moments.

The channel under one antenna mode is a complex Gaussian with mean
g(u, theta_0) * los_mean and per-quadrature variance
sigma0^2 * sum_l g(u, theta_l)^2, so its amplitude is Rician with
noncentrality nu(u) = g(u, theta_0) * |los_mean| and scale
varsigma(u) = sigma0 * sqrt(sum_l g(u, theta_l)^2). The gains g are
the rows of `AntennaProfile.gain_matrix`, the same matrix the simulator
weights its path coefficients with.
"""
from __future__ import annotations

import numpy as np
from scipy.special import i0e, i1e


def rician_params(gains, los_mean_amplitude: float, sigma0: float):
    """Rician (nu, varsigma) of |h| for every mode of a (modes, paths) gain matrix.

    Column 0 is the LoS path. A mode with varsigma == 0 (zero gain on
    every path) is degenerate: its amplitude law is not Rician.
    """
    gains = np.asarray(gains, dtype=float)
    nu = gains[:, 0] * los_mean_amplitude
    varsigma = sigma0 * np.sqrt(np.sum(gains**2, axis=1))
    return nu, varsigma


def rician_mean_amplitude(nu, varsigma):
    """E|X| for X Rician(nu, varsigma), elementwise over arrays; overflow-safe.

    Uses the Laguerre form E|X| = varsigma * sqrt(pi/2) * L_{1/2}(-x)
    with x = nu^2 / (2 varsigma^2) and exponentially scaled Bessel
    functions, valid for arbitrarily large K-factors.
    """
    nu = np.asarray(nu, dtype=float)
    varsigma = np.asarray(varsigma, dtype=float)
    x = nu**2 / (2.0 * varsigma**2)
    # L_{1/2}(-x) = e^{-x/2} [(1+x) I0(x/2) + x I1(x/2)]; i0e/i1e carry the e^{-x/2}
    laguerre = (1.0 + x) * i0e(x / 2.0) + x * i1e(x / 2.0)
    return varsigma * np.sqrt(np.pi / 2.0) * laguerre
