"""The numpy `i0e_i1e` behind transmit-power calibration: equal to
scipy's bit for bit, and built from tables that regenerate exactly."""
import mpmath
import numpy as np
import scipy.special

from phykey import rician


def test_i0e_i1e_equal_scipy_bit_for_bit():
    rng = np.random.default_rng(16)
    x = np.concatenate([
        rng.uniform(0.0, 16.0, 500_000),
        10.0 ** rng.uniform(-8.0, 6.0, 500_000),
        np.linspace(7.99, 8.01, 200_001),  # both sides of the branch at 8
        np.nextafter(8.0, [0.0, 16.0]),
        [0.0, 8.0, 1e300, np.inf],
    ])
    i0, i1 = rician.i0e_i1e(x)
    assert np.array_equal(i0, scipy.special.i0e(x))
    assert np.array_equal(i1, scipy.special.i1e(x))


def _chebyshev_table(f, order, nodes=64):
    """Chebyshev coefficients of f on [-1, 1], highest order first, from
    `nodes` Gauss-Chebyshev nodes at 40 digits, rounded to doubles."""
    with mpmath.workdps(40):
        angles = [mpmath.pi * (k + mpmath.mpf(1) / 2) / nodes for k in range(nodes)]
        values = [f(mpmath.cos(t)) for t in angles]
        coef = [2 * mpmath.fsum(v * mpmath.cos(j * t) for v, t in zip(values, angles)) / nodes
                for j in range(order)]
        return tuple(float(c) for c in reversed(coef))


def near(t):  # maps [-1, 1] onto x in [0, 8]
    return 4 * (t + 1)


def far(t):  # maps (-1, 1] onto x in [8, inf)
    return 16 / (t + 1)


def test_tables_regenerate_from_mpmath():
    e, i, sqrt = mpmath.exp, mpmath.besseli, mpmath.sqrt
    assert rician._I0_SMALL == _chebyshev_table(lambda t: e(-near(t)) * i(0, near(t)), 30)
    assert rician._I0_LARGE == _chebyshev_table(
        lambda t: e(-far(t)) * sqrt(far(t)) * i(0, far(t)), 25)
    assert rician._I1_SMALL == _chebyshev_table(
        lambda t: e(-near(t)) * i(1, near(t)) / near(t), 29)
    assert rician._I1_LARGE == _chebyshev_table(
        lambda t: e(-far(t)) * sqrt(far(t)) * i(1, far(t)), 25)
