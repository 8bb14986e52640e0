"""Fluid limit: drift/noise identities, closed form, critical point, constants.

Frozen constants were independently reproduced from the defining equations
(double-root reduction, closed-form curvature) in extended precision.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from peelcore.ensemble import EnsembleParams, initial_moments
from peelcore import kernels
from peelcore.kernels import p_triple, w_hat
from peelcore.ode import (
    _dF1_dtheta,
    _grid,
    _jacobian,
    _y_formula,
    critical_constants,
    critical_point,
    jacobian_A,
    noise_G,
    rhs_F,
    solve_Q,
    solve_y,
    theta_minus,
    y_closed,
)

P3 = EnsembleParams(3, 100, 100)    # for w_hat only; the analytic layer takes l

STATES = [
    ((0.3, 0.4), 0.0),
    ((0.1, 0.8), 0.2),
    ((0.6, 0.3), 0.1),
    ((0.05, 0.5), 0.55),
]


@pytest.mark.parametrize("x,th", STATES)
def test_drift_is_kernel_mean(x, th):
    mu = w_hat(x, th, P3).mean()
    assert np.allclose(rhs_F(p_triple(x, th, 3), 3), mu, atol=1e-12)


@pytest.mark.parametrize("x,th", STATES)
def test_noise_is_kernel_covariance(x, th):
    cov = w_hat(x, th, P3).cov()
    G = noise_G(p_triple(x, th, 3), 3)
    assert np.allclose(G, cov, atol=1e-12)
    assert G[0, 1] == G[1, 0]
    assert np.linalg.eigvalsh(G).min() > -1e-12


def test_second_drift_component_closed_form():
    for x, th in STATES:
        p = p_triple(x, th, 3)
        assert rhs_F(p_triple(x, th, 3), 3)[1] == pytest.approx(-2.0 * p.p1, abs=1e-14)


@pytest.mark.parametrize("x,th", STATES)
def test_jacobian_matches_finite_differences(x, th):
    A = jacobian_A(x, th, 3)
    d = 1e-6
    fd = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = d
        fd[:, j] = (rhs_F(p_triple(np.add(x, e), th, 3), 3)
                    - rhs_F(p_triple(np.subtract(x, e), th, 3), 3)) / (2 * d)
    assert np.allclose(A, fd, atol=2e-6)


def test_dF1_dtheta_matches_finite_differences():
    for x, th in STATES:
        d = 1e-6
        fd = (rhs_F(p_triple(x, th + d, 3), 3)[0]
              - rhs_F(p_triple(x, th - d, 3), 3)[0]) / (2 * d)
        assert _dF1_dtheta(x, th, 3) == pytest.approx(fd, abs=2e-6)


def test_jacobian_rejects_kink_region():
    with pytest.raises(ValueError):
        jacobian_A((0.0, 0.4), 0.1, 3)
    with pytest.raises(ValueError):
        jacobian_A((0.3, 0.0), 0.1, 3)


def test_jacobian_finite_below_the_tilt_tolerance():
    # x2 < 1e-12 L gives p_triple's limit lam = inf, p1 = 0; the partials of
    # p1 vanish there, as they do at x2 = 1e-9
    tiny = jacobian_A((0.3, 1e-14), 0.1, 3)
    assert np.isfinite(tiny).all()
    assert np.array_equal(tiny, jacobian_A((0.3, 1e-9), 0.1, 3))


def test_jacobian_fallback_continuous_at_kink():
    # at the kink x1 = 0 the analytic jacobian is the one-sided derivative:
    # it matches second-order one-sided differences (x1 forward, x2 central)
    # there, and the analytic jacobian just above the kink
    th, x2, d = 0.2, 0.5, 1e-6

    def F(a, b):
        return rhs_F(p_triple((a, b), th, 3), 3)

    col0 = (-3.0 * F(0.0, x2) + 4.0 * F(d, x2) - F(2 * d, x2)) / (2.0 * d)
    col1 = (F(0.0, x2 + d) - F(0.0, x2 - d)) / (2.0 * d)
    at_kink = _jacobian(p_triple((0.0, x2), th, 3), x2, th, 3)
    assert np.allclose(at_kink, np.column_stack([col0, col1]), rtol=0.0, atol=1e-7)
    assert np.allclose(at_kink, jacobian_A((2e-8, x2), th, 3), rtol=0.0, atol=1e-7)


# --- closed form and validity ---


def test_closed_form_initial_condition():
    for rho in (0.9, 1.2217931327672212, 1.5):
        y0, _ = initial_moments(3, rho)
        assert np.allclose(_y_formula(0.0, rho, 3), y0, atol=1e-14)


def test_closed_form_satisfies_ode():
    rho = 1.3
    for th in (0.1, 0.3, 0.5, 0.7):
        d = 1e-6
        dy = (_y_formula(th + d, rho, 3) - _y_formula(th - d, rho, 3)) / (2 * d)
        F = rhs_F(p_triple(_y_formula(th, rho, 3), th, 3), 3)
        assert np.allclose(dy, F, atol=1e-8)


def test_closed_form_theta_one_limit():
    # y1(1 - d) / (l d) -> 1
    for rho in (1.2217931327672212, 1.4):
        d = 1e-9
        assert _y_formula(1.0 - d, rho, 3)[0] / (3 * d) == pytest.approx(1.0, abs=0.01)


def test_theta_minus_and_guard():
    rho_c = critical_point(3)[0]
    assert theta_minus(rho_c, 3) == 1.0
    assert theta_minus(1.5, 3) == 1.0
    tm = theta_minus(0.95 * rho_c, 3)
    assert tm == pytest.approx(0.4174991961020825, abs=1e-8)
    # y1 proportional to the root function: positive before, negative after
    assert _y_formula(tm - 1e-4, 0.95 * rho_c, 3)[0] > 0
    assert _y_formula(tm + 1e-3, 0.95 * rho_c, 3)[0] < 0
    with pytest.raises(ValueError):
        y_closed(tm + 1e-3, 0.95 * rho_c, 3)
    assert y_closed(tm - 1e-4, 0.95 * rho_c, 3)[0] > 0


def test_theta_minus_just_below_critical():
    # the dip of h_rho below 0 narrows to a point as rho -> rho_c; the crossing
    # still lies just before theta_c
    rho_c, theta_c, _ = critical_point(3)
    for f in (1 - 1e-9, 1 - 1e-13):
        tm = theta_minus(f * rho_c, 3)
        assert theta_c - 1e-3 < tm < theta_c
        assert _y_formula(tm - 1e-4, f * rho_c, 3)[0] > 0
    # one ulp below rho_c the dip is lost to rounding: no crossing, no error
    assert 0.0 < theta_minus(float(np.nextafter(rho_c, 0.0)), 3) <= 1.0


def test_subcritical_supercritical_dichotomy():
    rho_c = critical_point(3)[0]
    ths = np.linspace(0, 0.98, 500)
    sub = np.array([_y_formula(t, 0.95 * rho_c, 3)[0] for t in ths])
    sup = np.array([_y_formula(t, 1.05 * rho_c, 3)[0] for t in ths])
    assert sub.min() < -1e-3
    assert sup.min() > 1e-4


# --- critical point and constants ---


def test_critical_point_frozen_values():
    rho_c, theta_c, u2 = critical_point(3)
    assert u2 == pytest.approx(0.7153318629591615, rel=1e-12)
    assert rho_c == pytest.approx(1.2217931327672212, rel=1e-12)
    assert theta_c == pytest.approx(0.6339649188042231, rel=1e-12)
    # defining equations: double root of u - 1 + exp(-gamma u^(l-1))
    gamma_c = 3.0 / rho_c
    assert u2 - 1.0 + math.exp(-gamma_c * u2 ** 2) == pytest.approx(0.0, abs=1e-12)
    # tangency: derivative also vanishes
    d = 1e-7
    h = lambda u: u - 1.0 + math.exp(-gamma_c * u * u)
    assert (h(u2 + d) - h(u2 - d)) / (2 * d) == pytest.approx(0.0, abs=1e-5)


@pytest.mark.parametrize("l", [3, 4, 5, 6])
def test_critical_point_matches_molloy_threshold(l):
    # third route, sharing no code with the double-root reduction: Molloy's
    # core threshold c*_l = min_{x>0} x / (l (1 - e^{-x})^{l-1}) edges per
    # vertex, so rho_c = 1 / c*_l; the minimum value is flat in x, so an x
    # tolerance of 1e-10 pins it to rounding
    res = minimize_scalar(lambda x: x / (l * (1.0 - math.exp(-x)) ** (l - 1)),
                          bounds=(0.1, 10.0), method="bounded", options={"xatol": 1e-10})
    assert res.success
    assert abs(1.0 / res.fun - critical_point(l)[0]) <= 1e-12


def test_critical_point_fast():
    import time
    critical_point.cache_clear()
    t0 = time.time()
    critical_point(3)
    assert time.time() - t0 < 1.0


def test_analytic_layer_rejects_bad_l_and_rho():
    for l in (2, 1):
        with pytest.raises(ValueError, match="l must be >= 3"):
            critical_point(l)
    with pytest.raises(ValueError, match="l >= 3"):
        initial_moments(2, 1.2)
    for rho in (-1.0, 0.0):
        with pytest.raises(ValueError, match="rho > 0"):
            initial_moments(3, rho)
        with pytest.raises(ValueError, match="rho > 0"):
            solve_y(rho, 3)


def test_solve_Q_solves_the_tilt_once_per_stage(monkeypatch):
    calls = []
    real = kernels.solve_lambda

    def counted(xi):
        calls.append(xi)
        return real(xi)

    monkeypatch.setattr(kernels, "solve_lambda", counted)
    sol = solve_Q(1.3, 3, h=1e-3)
    assert len(calls) == 4 * (len(sol.thetas) - 1)


def test_cold_critical_constants_solves_the_tilt_at_the_default_step(monkeypatch):
    calls = []
    real = kernels.solve_lambda

    def counted(xi):
        calls.append(xi)
        return real(xi)

    monkeypatch.setattr(kernels, "solve_lambda", counted)
    critical_point.cache_clear()
    critical_constants(3)
    _, theta_c, _ = critical_point(3)
    stages = len(_grid(theta_c, 1e-3)) - 1
    # four solves per RK4 stage, plus the two at the critical state
    assert len(calls) == 4 * stages + 2


@pytest.mark.parametrize("l", [3, 4, 5, 6])
def test_critical_constants_default_step_matches_fine_step(l, cc3):
    fine = cc3 if l == 3 else critical_constants(l, h=1e-4)
    cc = critical_constants(l)
    for k in ("Q11c", "alpha", "beta"):
        assert getattr(cc, k) == pytest.approx(getattr(fine, k), rel=1e-10)
    # the rest comes from closed forms and the critical state, not from the ODE
    for k in ("rho_c", "theta_c", "u2", "F_tilde", "G_tilde", "dy1_drho"):
        assert getattr(cc, k) == getattr(fine, k)


def test_solver_validation():
    bad = [{"h": 5e-3}, {"h": 0.0}, {"h": -1e-4},
           {"theta_end": 0.0}, {"theta_end": -0.1}, {"theta_end": 1.0}]
    for solver in (solve_y, solve_Q):
        for kw in bad:
            with pytest.raises(ValueError):
                solver(1.2, 3, **kw)


def test_solver_matches_closed_form():
    rho_c, theta_c, _ = critical_point(3)
    sol = solve_y(rho_c, 3, h=1e-3, theta_end=theta_c)
    worst = max(
        abs(sol.ys[k] - _y_formula(float(t), rho_c, 3)).max()
        for k, t in enumerate(sol.thetas)
    )
    assert worst < 1e-10
    # grid covers [0, theta_end] with the exact endpoint included
    assert sol.thetas[0] == 0.0
    assert sol.thetas[-1] == pytest.approx(theta_c, abs=1e-15)


def test_solver_supercritical_full_range():
    sol = solve_y(1.35, 3, h=1e-3)
    assert sol.thetas[-1] == pytest.approx(0.95)
    assert sol.ys[:, 0].min() > 0


def test_covariance_solver_initial_and_richardson():
    rho_c, theta_c, _ = critical_point(3)
    sol = solve_Q(rho_c, 3, h=1e-3, theta_end=theta_c)
    y0, Q0 = initial_moments(3, rho_c)
    assert np.allclose(sol.Qs[0], Q0, atol=1e-14)
    assert np.allclose(sol.ys[0], y0, atol=1e-14)
    # symmetry everywhere, positive definite endpoint
    assert np.allclose(sol.Qs[:, 0, 1], sol.Qs[:, 1, 0])
    Qc = sol.Qs[-1]
    assert np.linalg.eigvalsh(Qc).min() > 0
    # halving the step moves Q11(theta_c) by far less than the tolerance used
    sol2 = solve_Q(rho_c, 3, h=5e-4, theta_end=theta_c)
    assert abs(sol2.Qs[-1][0, 0] - Qc[0, 0]) < 1e-9


def test_critical_constants_frozen_values(cc3):
    assert cc3.rho_c == pytest.approx(1.2217931327672212, rel=1e-12)
    assert cc3.theta_c == pytest.approx(0.6339649188042231, rel=1e-12)
    assert cc3.F_tilde == pytest.approx(1.3777025709394344, rel=1e-10)
    assert cc3.dy1_drho == pytest.approx(0.44938263857329445, rel=1e-10)
    assert cc3.G_tilde == pytest.approx(0.5, rel=1e-12)
    assert cc3.Q11c == pytest.approx(0.09129605331177276, rel=1e-8)
    assert cc3.alpha == pytest.approx(0.6723721429640561, rel=1e-8)
    assert cc3.beta == pytest.approx(1.8737091523268201, rel=1e-8)
    assert cc3.omega is None and cc3.delta is None


def test_critical_constants_identities(cc3):
    # alpha = sqrt(Q11)/dy1_drho, beta = G^(2/3) F^(-1/3) / sqrt(Q11)
    assert cc3.alpha == math.sqrt(cc3.Q11c) / cc3.dy1_drho
    assert cc3.beta == cc3.G_tilde ** (2 / 3) * cc3.F_tilde ** (-1 / 3) / math.sqrt(cc3.Q11c)
    # second drift component is exactly -1 at the critical state
    xc = _y_formula(cc3.theta_c, cc3.rho_c, 3)
    F2 = rhs_F(p_triple(np.array([max(xc[0], 0.0), xc[1]]), cc3.theta_c, 3), 3)[1]
    assert F2 == pytest.approx(-1.0, abs=1e-12)


def test_with_omega_bit_identity(cc3):
    cc = cc3.with_omega(0.9961930227240624)
    assert cc.omega == 0.9961930227240624
    assert cc.delta == cc.alpha * cc.beta * cc.omega
    d = cc.as_dict()
    assert set(d) == {"rho_c", "theta_c", "u2", "F_tilde", "G_tilde", "Q11c",
                      "dy1_drho", "alpha", "beta", "omega", "delta"}


@given(st.floats(min_value=0.9, max_value=1.6))
@settings(max_examples=25, deadline=None)
def test_y2_nonnegative_on_valid_range(rho):
    # vertex mass in the degree->=2 class can never go negative
    tm = min(theta_minus(rho, 3), 0.95)
    ths = np.linspace(0, tm - 1e-6, 50)
    vals = np.array([_y_formula(t, rho, 3)[1] for t in ths])
    assert vals.min() > -1e-12
