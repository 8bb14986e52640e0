"""Finite-size scaling predictions: survival probability, onset law, core size."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy import stats

from peelcore.experiments import ExperimentConfig, _n_for_r
from peelcore.scaling import (
    core_size_cdf,
    core_size_density,
    core_size_scale,
    onset_cdf,
    predict_core_prob,
    scaling_vars,
    standardize_core_size,
    standardize_onset,
    std_normal_cdf,
    std_normal_pdf,
)


def test_normal_helpers_against_scipy():
    xs = np.linspace(-9, 9, 121)
    assert np.allclose(std_normal_cdf(xs), stats.norm.cdf(xs), atol=1e-14)
    assert np.allclose(std_normal_pdf(xs), stats.norm.pdf(xs), atol=1e-14)
    # scalar in, scalar out
    assert isinstance(std_normal_cdf(0.3), float)
    assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-16)
    # erfc route keeps relative accuracy deep in the tail
    assert std_normal_cdf(-8.0) == pytest.approx(stats.norm.cdf(-8.0), rel=1e-12)


def test_scaling_vars_definitions(cc3_omega):
    n, rho = 4000, cc3_omega.rho_c + 0.01
    r, rt1, rt2 = scaling_vars(n, rho, cc3_omega)
    assert r == pytest.approx(math.sqrt(n) * 0.01, rel=1e-12)
    assert rt1 == pytest.approx(r / cc3_omega.alpha, rel=1e-15)
    shift = cc3_omega.delta * n ** (-2 / 3)
    assert rt2 == pytest.approx(math.sqrt(n) * (rho - cc3_omega.rho_c - shift) / cc3_omega.alpha,
                                rel=1e-12)
    # the two rescalings differ by exactly beta*omega*n^{-1/6}
    assert rt1 - rt2 == pytest.approx(cc3_omega.beta * cc3_omega.omega * n ** (-1 / 6),
                                      rel=1e-10)


def test_scaling_vars_requires_omega(cc3):
    with pytest.raises(ValueError):
        scaling_vars(100, 1.22, cc3)
    with pytest.raises(ValueError):
        predict_core_prob(100, 1.22, cc3)
    with pytest.raises(ValueError):
        standardize_onset(100.0, 200, cc3)


def test_window_center_closed_form(cc3_omega):
    # at rho = rho_c: exactly 1/2 + beta*omega*n^{-1/6}/sqrt(2 pi)
    n = 1000
    pred = predict_core_prob(n, cc3_omega.rho_c, cc3_omega)
    assert pred.r == 0.0
    assert pred.p_gauss == 0.5
    expected = 0.5 + cc3_omega.beta * cc3_omega.omega * n ** (-1 / 6) / math.sqrt(2 * math.pi)
    assert pred.p_corrected == expected


def test_prediction_clamped_and_monotone(cc3_omega):
    n = 400
    rhos = np.linspace(cc3_omega.rho_c - 0.4, cc3_omega.rho_c + 0.4, 161)
    ps = [predict_core_prob(n, rho, cc3_omega).p_corrected for rho in rhos]
    assert all(0.0 <= p <= 1.0 for p in ps)
    # survival probability falls as the graph gets denser in vertices
    assert all(b <= a + 1e-12 for a, b in zip(ps, ps[1:]))
    assert ps[0] == 1.0 and ps[-1] < 1e-20
    # the hard clamp engages deep on the sparse side
    assert predict_core_prob(n, cc3_omega.rho_c - 0.2, cc3_omega).p_corrected == 1.0


def test_prediction_approaches_unexpanded_form(cc3_omega):
    # the linearized correction differs from Phi(-r_tilde2) at O(n^{-1/3});
    # the Taylor remainder bound is (beta omega)^2/2 * max|Phi''| * n^{-1/3}
    # with max|Phi''| = phi(1)
    c2 = 0.5 * (cc3_omega.beta * cc3_omega.omega) ** 2 * std_normal_pdf(1.0)
    for r in (-1.0, 0.0, 1.0):
        gaps = []
        for n in (10 ** 4, 10 ** 6):
            rho = cc3_omega.rho_c + r / math.sqrt(n)
            pred = predict_core_prob(n, rho, cc3_omega)
            gap = abs(pred.p_corrected - std_normal_cdf(-pred.r_tilde2))
            assert gap <= c2 * n ** (-1 / 3) * (1 + 1e-9)
            gaps.append(gap)
        # two decades in n: the gap must shrink by at least 10^{2/3} ~ 4.6
        assert gaps[1] < gaps[0] / 3.0


def test_onset_standardization_center_and_scale(cc3_omega):
    m = 900
    center = m / cc3_omega.rho_c
    shift = cc3_omega.beta * cc3_omega.omega * cc3_omega.rho_c ** (1 / 6) * m ** (-1 / 6)
    assert standardize_onset(center, m, cc3_omega) == pytest.approx(shift, rel=1e-12)
    scale = math.sqrt(m) * cc3_omega.rho_c ** (-1.5) * cc3_omega.alpha
    z1 = standardize_onset(center + scale, m, cc3_omega)
    assert z1 - shift == pytest.approx(1.0, rel=1e-12)
    assert onset_cdf(center, m, cc3_omega) == pytest.approx(std_normal_cdf(shift), rel=1e-14)
    # vector input
    out = standardize_onset(np.array([center, center + scale]), m, cc3_omega)
    assert out.shape == (2,)


def test_onset_consistency_with_survival(cc3_omega):
    # P(onset <= m-th edge) is the survival probability at n = m/rho: the two
    # formulations must agree to the order both are stated
    for m in (10 ** 4, 10 ** 5, 10 ** 6):
        rho = cc3_omega.rho_c * (1.0 + 0.3 * m ** (-0.5))
        n = m / rho
        p_onset = float(onset_cdf(n, m, cc3_omega))
        pred = predict_core_prob(int(round(n)), m / round(n), cc3_omega)
        gap = abs(p_onset - pred.p_corrected)
        assert gap < 2.0 * m ** (-1 / 3)


def test_shifted_survival_matches_onset_law(cc3_omega):
    # {core at (m, n)} = {N_c <= n}: at desk scale the recorded survival
    # prediction and the onset law must give one answer for the same event
    m = 600
    for r in ExperimentConfig().r_list:
        n = _n_for_r(r, m, cc3_omega.rho_c)
        pred = predict_core_prob(n, m / n, cc3_omega)
        assert 0.0 <= pred.p_shifted <= 1.0
        assert pred.p_shifted == std_normal_cdf(-pred.r_tilde2)
        assert abs(pred.p_shifted - onset_cdf(float(n), m, cc3_omega)) < 0.01


def test_core_size_density_normalized(cc3_omega):
    for r in (-1.5, 0.0, 2.0):
        val, err = quad(lambda z: core_size_density(z, r, cc3_omega), 0.0, 12.0,
                        limit=200)
        assert abs(val - 1.0) < 1e-8
        assert core_size_density(-0.3, r, cc3_omega) == 0.0


def test_core_size_density_window_center_form(cc3_omega):
    # r = 0: density is 2 z exp(-z^4/2) / (sqrt(2 pi) / 2)
    zs = np.linspace(0.01, 2.5, 40)
    ref = 2.0 * zs * np.exp(-0.5 * zs ** 4) / (math.sqrt(2 * math.pi) * 0.5)
    assert np.allclose(core_size_density(zs, 0.0, cc3_omega), ref, rtol=1e-12)


def test_core_size_cdf_matches_density(cc3_omega):
    r = 0.7
    for z in (0.4, 1.0, 1.8):
        num, _ = quad(lambda t: core_size_density(t, r, cc3_omega), 0.0, z)
        assert core_size_cdf(z, r, cc3_omega) == pytest.approx(num, abs=1e-9)
    assert core_size_cdf(-1.0, r, cc3_omega) == 0.0
    assert core_size_cdf(50.0, r, cc3_omega) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("r", [-6.0, -2.0, 0.0, 2.0, 4.0, 5.0, 5.5, 6.0, 8.0, 26.0, 30.0, 40.0])
def test_core_size_law_against_mpmath(r, cc3):
    # far on the sparse side the survival Phi(-r/alpha) is tiny, far on the
    # dense side the cdf's numerator is: neither may be a difference from 1.
    # From r = 26 on the survival underflows a double.  The reference on the sparse
    # side is the complementary form: 50 digits cancel in
    # ncdf(rb + z^2) - ncdf(rb) there.
    import mpmath as mp

    with mp.workdps(50):
        rb = mp.mpf(r) / mp.mpf(cc3.alpha)
        tail = mp.ncdf(-rb)
        for z in (0.5, 1.0, 2.0):
            z2 = mp.mpf(z) ** 2
            if rb >= 0:
                cdf = float(1 - mp.ncdf(-rb - z2) / tail)
            else:
                cdf = float((mp.ncdf(rb + z2) - mp.ncdf(rb)) / tail)
            dens = float(2 * z * mp.exp(-(rb + z2) ** 2 / 2)
                         / (mp.sqrt(2 * mp.pi) * tail))
            assert core_size_cdf(z, r, cc3) == pytest.approx(cdf, rel=1e-12, abs=0.0)
            assert core_size_density(z, r, cc3) == pytest.approx(dens, rel=1e-12, abs=0.0)


def test_core_size_standardization(cc3_omega):
    n = 2000
    scale = core_size_scale(n, cc3_omega)
    assert scale == pytest.approx(n ** 0.75 * (4 * cc3_omega.Q11c / cc3_omega.F_tilde ** 2) ** 0.25,
                                  rel=1e-15)
    center = n * (1.0 - cc3_omega.theta_c)
    assert standardize_core_size(center, n, cc3_omega) == 0.0
    assert standardize_core_size(center + scale, n, cc3_omega) == pytest.approx(1.0, rel=1e-12)
    out = standardize_core_size(np.array([center, center + 2 * scale]), n, cc3_omega)
    assert np.allclose(out, [0.0, 2.0])


def test_delta_bit_identity(cc3_omega):
    assert cc3_omega.delta == cc3_omega.alpha * cc3_omega.beta * cc3_omega.omega
