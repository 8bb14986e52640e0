"""Airy evaluation, the one-sided exit kernel K, and the two-sided minimum law.

Frozen K values were produced by an independent extended-precision quadrature
of the defining contour integral (25-digit arithmetic, adaptive rule).
"""

import cmath
import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import airy as scipy_airy

from peelcore.airy import (
    airy_pair,
    cdf_Z,
    kernel_K,
    mc_parabolic_min,
    min_law_tables,
    omega_integral,
)


FROZEN_K = {
    0.5: 0.45133445553304086,
    1.0: 0.7529241732513553,
    2.0: 0.9692099463016672,
    3.0: 0.997763776971462,
    4.0: 0.9998970598049925,
    5.0: 0.9999968253775386,
    6.0: 0.9999999288847903,
}

FROZEN_OMEGA = 0.9961930227240624


def test_airy_at_zero_closed_forms():
    p = airy_pair(0.0)
    assert p.ai.real == pytest.approx(3.0 ** (-2 / 3) / math.gamma(2 / 3), rel=1e-15)
    assert p.aip.real == pytest.approx(-(3.0 ** (-1 / 3)) / math.gamma(1 / 3), rel=1e-15)
    assert p.bi.real == pytest.approx(math.sqrt(3) * p.ai.real, rel=1e-14)
    assert abs(p.ai.imag) == 0.0


def test_airy_real_axis_against_scipy():
    xs = np.concatenate([np.linspace(-12, 8, 81), [3.999, 4.001, 7.999, 8.001]])
    for x in xs:
        ref_ai, ref_aip, ref_bi, ref_bip = scipy_airy(x)
        p = airy_pair(x)
        for got, ref in ((p.ai, ref_ai), (p.aip, ref_aip), (p.bi, ref_bi), (p.bip, ref_bip)):
            assert got.real == pytest.approx(ref, rel=1e-10, abs=1e-13)
            assert abs(got.imag) < 1e-10 * max(abs(ref), 1.0)


def test_airy_complex_against_mpmath():
    import mpmath as mp
    mp.mp.dps = 30
    pts = [r * cmath.exp(1j * ph)
           for r in (0.3, 2.0, 3.9, 4.1, 6.5, 7.9, 8.1, 12.0, 30.0, 49.0)
           for ph in (0.4, 2.0, 2.9, -1.2, -2.8)]
    for z in pts:
        p = airy_pair(z)
        for got, ref in ((p.ai, mp.airyai(z)), (p.aip, mp.airyai(z, 1)),
                         (p.bi, mp.airybi(z)), (p.bip, mp.airybi(z, 1))):
            ref = complex(ref)
            assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-30), z


def test_airy_wronskian():
    # tolerance must scale with the cancelled magnitude: the products can be
    # astronomically large while the Wronskian stays at 1/pi
    for z in (0.0, 1.5 + 2j, -3.0 + 0.5j, 7.0 + 7j, 20j, -30.0 + 1j):
        p = airy_pair(z)
        w = p.ai * p.bip - p.aip * p.bi
        scale = max(1.0, abs(p.ai * p.bip) + abs(p.aip * p.bi))
        assert abs(w - 1.0 / math.pi) < 1e-12 * scale


def test_airy_conjugation_symmetry():
    for z in (1.0 + 2.0j, -5.0 + 3.0j, 9.0 + 0.1j):
        p = airy_pair(z)
        q = airy_pair(z.conjugate())
        assert q.ai == p.ai.conjugate()
        assert q.bip == p.bip.conjugate()


def test_airy_connection_identity():
    # Ai(z) + e^{-2pi i/3} Ai(e^{-2pi i/3} z) + e^{2pi i/3} Ai(e^{2pi i/3} z) = 0
    rot = cmath.exp(2j * cmath.pi / 3.0)
    for z in (1.0, 2.0 + 1.0j, -3.0 + 2.0j, 6.0, 10.0 + 5.0j):
        a0 = airy_pair(z).ai
        a1 = airy_pair(z * rot).ai
        a2 = airy_pair(z / rot).ai
        resid = a0 + rot * a1 + a2 / rot
        scale = max(abs(a0), abs(rot * a1), abs(a2 / rot))
        assert abs(resid) < 1e-11 * scale


def test_airy_domain_guard():
    for zeta in (51.0, math.nan, complex(0.0, math.nan), math.inf):
        with pytest.raises(ValueError, match="supported disk"):
            airy_pair(zeta)
    airy_pair(49.9 + 0.0j)


# --- exit kernel ---


def test_kernel_frozen_values():
    for z, ref in FROZEN_K.items():
        assert kernel_K(z) == pytest.approx(ref, abs=1e-8)


def test_kernel_live_oracle():
    # independent extended-precision quadrature of the same contour integral
    import mpmath as mp
    mp.mp.dps = 25
    rot = mp.e ** (-2j * mp.pi / 3)

    def integrand(y, w):
        zy = 1j * y
        return 2 * mp.e ** (-1j * mp.pi / 6) * (
            mp.airyai(rot * (w + zy))
            - mp.airyai(rot * zy) * mp.airyai(w + zy) / mp.airyai(zy)
        )

    w = mp.mpf(2) ** (mp.mpf(1) / 3) * 1
    ref = mp.quad(lambda y: mp.re(integrand(mp.mpf(y), w)), [0, 4, 12, 24])
    assert kernel_K(1.0) == pytest.approx(float(ref), abs=1e-10)


def test_kernel_edge_behavior():
    assert kernel_K(0.0) == 0.0
    with pytest.raises(ValueError):
        kernel_K(-0.5)
    # increasing toward 1
    vals = [kernel_K(z) for z in (0.25, 0.75, 1.5, 2.5)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert 0 < vals[0] < vals[-1] < 1


def test_kernel_rejects_z_beyond_reliable_range():
    assert kernel_K(6.0) == pytest.approx(FROZEN_K[6.0], abs=1e-8)
    with pytest.raises(ValueError):
        kernel_K(6.5)
    with pytest.raises(ValueError):
        kernel_K(math.nan)


# --- tabulated minimum law ---


def test_table_monotone_and_interpolation():
    tab = min_law_tables()
    assert np.all(np.diff(tab.Ks) > 0)
    assert tab.us[0] == 0.0 and tab.Ks[0] == 0.0
    # interpolation reproduces the nodes and respects [0, 1]
    assert np.allclose(tab.K_interp(tab.us), tab.Ks, atol=1e-14)
    dense = tab.K_interp(np.linspace(0, 6, 1000))
    assert dense.min() >= 0.0 and dense.max() <= 1.0
    assert np.all(np.diff(dense) >= -1e-14)


def test_tail_fit_is_log_linear():
    tab = min_law_tables()
    sel = tab.us >= 4.5
    resid = (np.log(1.0 - tab.Ks[sel] ** 2)
             - (tab.tail_a + tab.tail_b * tab.us[sel] ** 1.5))
    assert np.abs(resid).max() < 0.05
    assert tab.tail_b < -0.5


def test_cdf_trivials_and_monotonicity():
    assert cdf_Z(0.0) == 1.0
    assert cdf_Z(2.5) == 1.0
    assert cdf_Z(-40.0) < 1e-30
    zs = np.linspace(-12, 1, 400)
    vals = cdf_Z(zs)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all((vals >= 0) & (vals <= 1))
    # continuity across the deep-tail switchover at -6
    assert cdf_Z(-5.999) == pytest.approx(cdf_Z(-6.001), rel=0.02)


def test_cdf_matches_kernel_square():
    # P(Z <= z) = 1 - K(-z)^2 for z < 0
    for z in (-0.5, -1.0, -2.0, -3.0):
        assert cdf_Z(z) == pytest.approx(1.0 - FROZEN_K[-z] ** 2, abs=1e-7)


def test_omega_frozen_and_mean_identity():
    om = omega_integral()
    assert om == pytest.approx(FROZEN_OMEGA, abs=1e-5)
    # omega is the mean depth: integral of the cdf over the negative axis
    val, _ = quad(lambda z: float(cdf_Z(z)), -30.0, 0.0, limit=300, points=[-6.0])
    assert om == pytest.approx(val, abs=1e-5)


def test_mc_minimum_smoke():
    rng = np.random.default_rng(12)
    z = mc_parabolic_min(4000, rng)
    assert z.shape == (4000,)
    assert np.all(z <= 0)
    res = stats.ks_1samp(z, lambda t: cdf_Z(t))
    assert res.statistic < 0.05
    assert -z.mean() == pytest.approx(FROZEN_OMEGA, abs=0.05)


@pytest.mark.parametrize("kw", [{"chunk": 0}, {"chunk": -3}, {"dt": 0.0},
                                {"dt": -1e-3}, {"dt": float("nan")},
                                {"horizon": 5e-4}, {"horizon": 0.0},
                                {"reps": -1}, {"reps": 2.5}], ids=str)
def test_mc_minimum_rejects_bad_arguments_before_drawing(kw, no_draws):
    with pytest.raises(ValueError, match="must be"):
        mc_parabolic_min(**{"reps": 10, "rng": no_draws, **kw})


def test_mc_minimum_zero_reps_is_empty(no_draws):
    assert mc_parabolic_min(0, no_draws).shape == (0,)
