"""Per-mode Rician amplitude parameters and moments.

The channel of one link under one antenna mode is a complex Gaussian
with mean g(u, theta_0) * los_mean and per-quadrature variance
sigma0^2 * sum_l g(u, theta_l)^2, so its amplitude is Rician with
noncentrality nu(u) = g(u, theta_0) * |los_mean| and scale
varsigma(u) = sigma0 * sqrt(sum_l g(u, theta_l)^2). los_mean and sigma0
are the link's `fading`, and the gains g are the rows of its `gains`
table, the same matrix the simulator weights its path coefficients with.

`i0e_i1e` is Cephes' scaled Bessel pair (Moshier, 1989): Chebyshev series
on t in [-1, 1] of e^-x I0(x) and e^-x I1(x)/x at x = 4(t+1), and of
e^-x sqrt(x) I0(x) and e^-x sqrt(x) I1(x) at x = 16/(t+1). The tables are
their coefficients from mpmath (40 digits, 64 Gauss-Chebyshev nodes),
highest order first, rounded to doubles; it equals scipy.special's
`i0e`/`i1e` bit for bit.
"""
from __future__ import annotations

import numpy as np

_I0_SMALL = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16, 1.715391285555133e-15,
    -1.1685332877993451e-14, 7.676185498604936e-14, -4.856446783111929e-13, 2.95505266312964e-12,
    -1.726826291441556e-11, 9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07, 1.1173875391201037e-06,
    -4.4167383584587505e-06, 1.6448448070728896e-05, -5.754195010082104e-05, 0.00018850288509584165,
    -0.0005763755745385824, 0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764, 0.17162090152220877,
    -0.3046826723431984, 0.6767952744094761,
)
_I0_LARGE = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17, 3.461222867697461e-17,
    -2.8276239805165836e-16, -3.425485619677219e-16, 1.7725601330565263e-15, 3.8116806693526224e-15,
    -9.554846698828307e-15, -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10, 3.3962320257083865e-09,
    2.266668990498178e-08, 2.0489185894690638e-07, 2.8913705208347567e-06, 6.889758346916825e-05,
    0.0033691164782556943, 0.8044904110141088,
)
_I1_SMALL = (
    2.7779141127610464e-18, -2.111421214358166e-17, 1.5536319577362005e-16, -1.1055969477353862e-15,
    7.600684294735408e-15, -5.042185504727912e-14, 3.223793365945575e-13, -1.9839743977649436e-12,
    1.1736186298890901e-11, -6.663489723502027e-11, 3.625590281552117e-10, -1.8872497517228294e-09,
    9.381537386495773e-09, -4.445059128796328e-08, 2.0032947535521353e-07, -8.568720264695455e-07,
    3.4702513081376785e-06, -1.3273163656039436e-05, 4.781565107550054e-05, -0.00016176081582589674,
    0.0005122859561685758, -0.0015135724506312532, 0.004156422944312888, -0.010564084894626197,
    0.024726449030626516, -0.05294598120809499, 0.1026436586898471, -0.17641651835783406,
    0.25258718644363365,
)
_I1_LARGE = (
    7.517296310842105e-18, 4.414348323071708e-18, -4.6503053684893586e-17, -3.209525921993424e-17,
    2.96262899764595e-16, 3.3082023109209285e-16, -1.8803547755107825e-15, -3.8144030724370075e-15,
    1.0420276984128802e-14, 4.272440016711951e-14, -2.1015418427726643e-14, -4.0835511110921974e-13,
    -7.198551776245908e-13, 2.0356285441470896e-12, 1.4125807436613782e-11, 3.2526035830154884e-11,
    -1.8974958123505413e-11, -5.589743462196584e-10, -3.835380385964237e-09,
    -2.6314688468895196e-08, -2.512236237870209e-07, -3.882564808877691e-06,
    -0.00011058893876262371, -0.009761097491361469, 0.7785762350182801,
)


def _chbevl(y, coef):
    """Clenshaw's sum of the Chebyshev series `coef` (highest order first) at y/2."""
    b0 = b1 = b2 = 0.0
    for c in coef:
        b2, b1 = b1, b0
        b0 = y * b1 - b2 + c
    return 0.5 * (b0 - b2)


def i0e_i1e(x):
    """(e^-x I0(x), e^-x I1(x)) elementwise for x >= 0."""
    x = np.asarray(x, dtype=float)
    i0, i1 = np.empty_like(x), np.empty_like(x)
    low = x <= 8.0
    y = x[low] / 2.0 - 2.0
    i0[low], i1[low] = _chbevl(y, _I0_SMALL), _chbevl(y, _I1_SMALL) * x[low]
    y, root = 32.0 / x[~low] - 2.0, np.sqrt(x[~low])
    i0[~low], i1[~low] = _chbevl(y, _I0_LARGE) / root, _chbevl(y, _I1_LARGE) / root
    return i0, i1


def rician_params(link):
    """Rician (nu, varsigma) of |h| for every mode of a link, one per row of
    its (modes, paths) `gains`, column 0 the LoS path, under its `fading`.

    A mode with varsigma == 0 (zero gain on every path, or sigma0 == 0)
    is degenerate: its amplitude law is not Rician.
    """
    gains, fading = link.gains, link.fading
    nu = gains[:, 0] * abs(fading.los_mean)
    varsigma = fading.sigma0 * np.sqrt(np.sum(gains**2, axis=1))
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
    # L_{1/2}(-x) = e^{-x/2} [(1+x) I0(x/2) + x I1(x/2)]; i0e_i1e carries the e^{-x/2}
    i0, i1 = i0e_i1e(x / 2.0)
    laguerre = (1.0 + x) * i0 + x * i1
    return varsigma * np.sqrt(np.pi / 2.0) * laguerre
