"""Fluid limit of the peeling chain: drift/noise/Jacobian fields, the closed-form
solution, fixed-step RK4 integration of the mean and covariance ODEs, and the
critical point with every scalar constant the scaling law needs.

Throughout, u(theta) = (1 - theta)^(1/l) and gamma = l/rho; the closed-form
mean trajectory is y1 = l u^(l-1) (u - 1 + E), y2 = (l/gamma)(1 - E - gamma u^(l-1) E)
with E = exp(-gamma u^(l-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import bisect, brentq

from .ensemble import EnsembleParams, initial_moments_lr
from .kernels import (
    f1_prime,
    p_triple,
    project_feasible,
    psi_eval,
    psi_prime,
    solve_lambda,
)

__all__ = [
    "OdeSolution",
    "CriticalConstants",
    "rhs_F",
    "noise_G",
    "jacobian_A",
    "y_closed",
    "theta_minus",
    "solve_y",
    "solve_Q",
    "critical_point",
    "critical_constants",
]


@dataclass(frozen=True)
class OdeSolution:
    rho: float
    l: int
    thetas: np.ndarray
    ys: np.ndarray              # (N, 2)
    Qs: np.ndarray | None       # (N, 2, 2) or None for mean-only solves
    eps: float


@dataclass(frozen=True)
class CriticalConstants:
    rho_c: float
    theta_c: float
    u2: float
    F_tilde: float
    G_tilde: float
    Q11c: float
    dy1_drho: float
    alpha: float
    beta: float
    omega: float | None = None
    delta: float | None = None

    def with_omega(self, omega: float) -> "CriticalConstants":
        return replace(self, omega=omega, delta=self.alpha * self.beta * omega)

    def as_dict(self) -> dict:
        return {
            "rho_c": self.rho_c, "theta_c": self.theta_c, "u2": self.u2,
            "F_tilde": self.F_tilde, "G_tilde": self.G_tilde, "Q11c": self.Q11c,
            "dy1_drho": self.dy1_drho, "alpha": self.alpha, "beta": self.beta,
            "omega": self.omega, "delta": self.delta,
        }


def rhs_F(x, theta: float, params: EnsembleParams) -> np.ndarray:
    """Drift of the rescaled profile: the mean increment of the one-step kernel."""
    p = p_triple(x, theta, params)
    lm1 = params.l - 1
    return np.array([-1.0 + lm1 * (p.p1 - p.p0), -lm1 * p.p1])


def noise_G(x, theta: float, params: EnsembleParams) -> np.ndarray:
    """Covariance of the one-step increment; nonnegative definite by construction."""
    p = p_triple(x, theta, params)
    lm1 = params.l - 1
    g11 = lm1 * (p.p0 + p.p1 - (p.p0 - p.p1) ** 2)
    g12 = -lm1 * (p.p0 * p.p1 + p.p1 * (1.0 - p.p1))
    g22 = lm1 * p.p1 * (1.0 - p.p1)
    return np.array([[g11, g12], [g12, g22]])


def _p1_partials(x1: float, x2: float, theta: float, l: int):
    """(dp1/dx1, dp1/dx2, dp1/dtheta) for x1 >= 0, x2 > 0, via implicit
    differentiation of x2 f1(lam) = l(1 - theta) - x1."""
    L = l * (1.0 - theta)
    lam = solve_lambda((L - x1) / x2)
    f1p = f1_prime(lam)
    psi = psi_eval(lam)
    psip = psi_prime(lam)
    dp1_dx1 = -psip / (L * f1p)
    dp1_dx2 = (psi - psip * (lam + psi) / f1p) / L
    dp1_dth = -l * psip / (L * f1p) + l * x2 * psi / (L * L)
    return dp1_dx1, dp1_dx2, dp1_dth


def jacobian_A(x, theta: float, params: EnsembleParams) -> np.ndarray:
    """Jacobian of the drift in x, on the differentiable region x1 > 0, x2 > 0."""
    x1, x2 = float(x[0]), float(x[1])
    if x1 <= 0.0:
        raise ValueError("jacobian_A needs x1 > 0 (drift has a kink at x1 = 0)")
    if x2 <= 0.0:
        raise ValueError("jacobian_A needs x2 > 0")
    l = params.l
    L = l * (1.0 - theta)
    dp1_dx1, dp1_dx2, _ = _p1_partials(x1, x2, theta, l)
    lm1 = l - 1
    return np.array([
        [lm1 * (dp1_dx1 - 1.0 / L), lm1 * dp1_dx2],
        [-lm1 * dp1_dx1, -lm1 * dp1_dx2],
    ])


def _dF1_dtheta(x, theta: float, params: EnsembleParams) -> float:
    """Partial of the first drift component in theta at fixed x (x1 clamped at 0+)."""
    l = params.l
    x1 = max(float(x[0]), 0.0)
    x2 = float(x[1])
    L = l * (1.0 - theta)
    _, _, dp1_dth = _p1_partials(x1, x2, theta, l)
    dp0_dth = l * x1 / (L * L)
    return (l - 1) * (dp1_dth - dp0_dth)


# --- closed form and critical machinery ---


def _y_formula(theta: float, rho: float, l: int) -> np.ndarray:
    """Closed-form trajectory, evaluated without the validity guard."""
    g = l / rho
    u = (1.0 - theta) ** (1.0 / l)
    ul1 = u ** (l - 1)
    E = math.exp(-g * ul1)
    y1 = l * ul1 * (u - 1.0 + E)
    y2 = (l / g) * (1.0 - E - g * ul1 * E)
    return np.array([y1, y2])


def y_closed(theta: float, rho: float, params: EnsembleParams) -> np.ndarray:
    """Closed-form mean trajectory; only valid up to theta_minus(rho)."""
    tmin = theta_minus(rho, params)
    if theta > tmin + 1e-12:
        raise ValueError(f"theta = {theta} beyond validity bound theta_- = {tmin}")
    return _y_formula(theta, rho, params.l)


def _h_rho(u: float, rho: float, l: int) -> float:
    return u - 1.0 + math.exp(-(l / rho) * u ** (l - 1))


def theta_minus(rho: float, params: EnsembleParams) -> float:
    """Largest theta with h_rho(u(theta)) >= 0 on the way from theta = 0; 1.0 when
    h_rho never crosses (rho >= rho_c, or so close below that h_rho rounds to
    >= 0 at theta_c).

    Below rho_c, h_rho(1) > 0 > h_rho(u2): h_rho(u) = 0 exactly where
    -log(1 - u)/u^(l-1) = l/rho, and that ratio increases on [u2, 1], so the
    crossing is the one root of h_rho(u(theta)) on [0, theta_c].
    """
    l = params.l
    rho_c, theta_c, _ = critical_point(params)

    def h(theta):
        return _h_rho((1.0 - theta) ** (1.0 / l), rho, l)

    if rho >= rho_c or h(theta_c) >= 0.0:
        return 1.0
    return brentq(h, 0.0, theta_c, xtol=1e-300)


@lru_cache(maxsize=8)
def _critical_point_l(l: int):
    def g(u):
        return u - 1.0 + math.exp(-u / ((l - 1) * (1.0 - u)))

    lo, hi = 0.05, 1.0 - 1e-9
    if not (g(lo) > 0.0 > g(hi)):
        raise RuntimeError("double-root bracket failed")
    u2 = bisect(g, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    gamma_c = u2 ** (2 - l) / ((l - 1) * (1.0 - u2))
    rho_c = l / gamma_c
    theta_c = 1.0 - u2 ** l
    # the located rho_c must make h_rho nonnegative everywhere (tangency, not crossing)
    ugrid = np.linspace(1e-4, 1.0 - 1e-4, 10000)
    hvals = ugrid - 1.0 + np.exp(-gamma_c * ugrid ** (l - 1))
    if hvals.min() < -1e-10:
        raise RuntimeError(f"h_rho_c dips to {hvals.min()}; critical point unreliable")
    return rho_c, theta_c, u2


def critical_point(params: EnsembleParams):
    """(rho_c, theta_c, u2): the density where the trajectory minimum develops a
    tangential zero, by reducing the double-root system to one equation in u."""
    return _critical_point_l(params.l)


# --- integration ---


def _grid(theta_end: float, h: float):
    n_full = int(theta_end / h)
    thetas = [k * h for k in range(n_full + 1)]
    if thetas[-1] < theta_end - 1e-15:
        thetas.append(theta_end)
    return thetas


def _check_inside(y, theta, l, rho):
    x1, x2 = y
    if not (np.isfinite(x1) and np.isfinite(x2)):
        raise RuntimeError(f"trajectory lost at theta = {theta}: {y}")
    if x2 < -1e-9 or x1 < -l or x1 > l + 1.0 or x2 > rho + 1.0:
        raise RuntimeError(f"trajectory left the feasible slab at theta = {theta}: {y}")
    if x1 + 2.0 * x2 > l * (1.0 - theta) + 0.02:
        raise RuntimeError(f"degree budget violated at theta = {theta}: {y}")


def _rk4(rhs, state, theta_end: float, h: float, l: int, rho: float):
    """Classical RK4 for d state/d theta = rhs(state, theta) on [0, theta_end];
    the mean (state[:2]) must stay inside the feasible slab after every step.
    Returns the grid and the (N, len(state)) states on it."""
    thetas = _grid(theta_end, h)
    out = np.empty((len(thetas), len(state)))
    out[0] = state
    for k in range(1, len(thetas)):
        th0 = thetas[k - 1]
        hh = thetas[k] - th0
        k1 = rhs(state, th0)
        k2 = rhs(state + 0.5 * hh * k1, th0 + 0.5 * hh)
        k3 = rhs(state + 0.5 * hh * k2, th0 + 0.5 * hh)
        k4 = rhs(state + hh * k3, th0 + hh)
        state = state + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_inside(state[:2], thetas[k], l, rho)
        out[k] = state
    return np.array(thetas), out


def solve_y(rho: float, params: EnsembleParams, h: float = 1e-4,
            eps: float = 0.05, theta_end: float | None = None) -> OdeSolution:
    """Classical RK4 for the mean ODE on [0, theta_end] (default 1 - eps).

    Stage inputs are projected onto the feasible triangle before evaluating the
    drift; the recorded state itself is not projected.
    """
    if h > 1e-3:
        raise ValueError("step too coarse; need h <= 1e-3")
    l = params.l
    theta_end = 1.0 - eps if theta_end is None else theta_end

    def F(x, th):
        return rhs_F(project_feasible(x, th, params), th, params)

    thetas, ys = _rk4(F, initial_moments_lr(l, rho)[0], theta_end, h, l, rho)
    return OdeSolution(rho, l, thetas, ys, None, eps)


_KINK_TOL = 1e-8
_FD_STEP = 1e-6


def _A_any(x, theta: float, params: EnsembleParams) -> np.ndarray:
    """Drift Jacobian, falling back to one-sided differences beside the x1 kink."""
    x1, x2 = float(x[0]), float(x[1])
    if x1 > _KINK_TOL:
        return jacobian_A(x, theta, params)
    x1c = max(x1, 0.0)
    d = _FD_STEP

    def F(a, b):
        return rhs_F(np.array([a, b]), theta, params)

    col0 = (-3.0 * F(x1c, x2) + 4.0 * F(x1c + d, x2) - F(x1c + 2 * d, x2)) / (2.0 * d)
    col1 = (F(x1c, x2 + d) - F(x1c, x2 - d)) / (2.0 * d)
    return np.column_stack([col0, col1])


def solve_Q(rho: float, params: EnsembleParams, h: float = 1e-4,
            eps: float = 0.05, theta_end: float | None = None) -> OdeSolution:
    """RK4 for the joint (mean, covariance) system dQ = G + A Q + Q A^T.

    Q is stored symmetric by construction; positive definiteness is verified on
    the whole grid afterwards.
    """
    if h > 1e-3:
        raise ValueError("step too coarse; need h <= 1e-3")
    l = params.l
    theta_end = 1.0 - eps if theta_end is None else theta_end
    y0, Q0 = initial_moments_lr(l, rho)

    def rhs(state, th):
        y = state[:2]
        Q = np.array([[state[2], state[3]], [state[3], state[4]]])
        x = project_feasible(y, th, params)
        Fv = rhs_F(x, th, params)
        A = _A_any(x, th, params)
        G = noise_G(x, th, params)
        M = A @ Q
        dQ = G + M + M.T
        return np.array([Fv[0], Fv[1], dQ[0, 0], dQ[0, 1], dQ[1, 1]])

    state = np.array([y0[0], y0[1], Q0[0, 0], Q0[0, 1], Q0[1, 1]])
    thetas, out = _rk4(rhs, state, theta_end, h, l, rho)
    Qs = np.empty((len(thetas), 2, 2))
    Qs[:, 0, 0] = out[:, 2]
    Qs[:, 0, 1] = out[:, 3]
    Qs[:, 1, 0] = out[:, 3]
    Qs[:, 1, 1] = out[:, 4]
    dets = Qs[:, 0, 0] * Qs[:, 1, 1] - Qs[:, 0, 1] ** 2
    if (Qs[:, 0, 0] <= 0).any() or (dets <= 0).any():
        raise RuntimeError("covariance lost positive definiteness on the grid")
    return OdeSolution(rho, l, thetas, out[:, :2], Qs, eps)


# --- constants at the critical point ---


def _y1_second_derivative_closed(u: float, gamma: float, l: int) -> float:
    """d^2 y1/d theta^2 from the closed form, via the substitution y1 = phi(u(theta))."""
    E = math.exp(-gamma * u ** (l - 1))
    Ep = -gamma * (l - 1) * u ** (l - 2) * E
    Epp = (-gamma * (l - 1) * (l - 2) * u ** (l - 3)
           + gamma ** 2 * (l - 1) ** 2 * u ** (2 * l - 4)) * E
    base = u - 1.0 + E
    phi_p = l * (l - 1) * u ** (l - 2) * base + l * u ** (l - 1) * (1.0 + Ep)
    phi_pp = (l * (l - 1) * (l - 2) * u ** (l - 3) * base
              + 2.0 * l * (l - 1) * u ** (l - 2) * (1.0 + Ep)
              + l * u ** (l - 1) * Epp)
    up = -(1.0 / l) * u ** (1 - l)
    upp = -((l - 1) / l ** 2) * u ** (1 - 2 * l)
    return phi_pp * up * up + phi_p * upp


def critical_constants(params: EnsembleParams, h: float = 1e-4) -> CriticalConstants:
    """All scalar constants of the scaling law at (rho_c, theta_c).

    The curvature F~ and the density sensitivity dy1/drho are each computed by
    two independent routes that must agree to 1e-6 relative, else this raises.
    """
    l = params.l
    rho_c, theta_c, u2 = critical_point(params)
    gamma_c = l / rho_c

    F1 = _y1_second_derivative_closed(u2, gamma_c, l)
    yc = _y_formula(theta_c, rho_c, l)
    xc = np.array([max(yc[0], 0.0), yc[1]])
    dF1_dx2 = (l - 1) * _p1_partials(xc[0], xc[1], theta_c, l)[1]
    F2c = rhs_F(xc, theta_c, params)[1]
    F2 = _dF1_dtheta(xc, theta_c, params) + dF1_dx2 * F2c
    if abs(F1 - F2) > 1e-6 * abs(F1):
        raise RuntimeError(f"curvature routes disagree: {F1} vs {F2}")
    F_tilde = F1

    d1 = (l ** 2 / rho_c ** 2) * u2 ** (2 * (l - 1)) * (1.0 - u2)
    dr = 1e-6
    d2 = (_y_formula(theta_c, rho_c + dr, l)[0]
          - _y_formula(theta_c, rho_c - dr, l)[0]) / (2.0 * dr)
    if abs(d1 - d2) > 1e-6 * abs(d1):
        raise RuntimeError(f"density-sensitivity routes disagree: {d1} vs {d2}")
    dy1_drho = d1

    G_tilde = float(noise_G(xc, theta_c, params)[0, 0])
    sol = solve_Q(rho_c, params, h=h, theta_end=theta_c)
    Q11c = float(sol.Qs[-1][0, 0])
    alpha = math.sqrt(Q11c) / dy1_drho
    beta = G_tilde ** (2.0 / 3.0) * F_tilde ** (-1.0 / 3.0) / math.sqrt(Q11c)
    return CriticalConstants(rho_c, theta_c, u2, F_tilde, G_tilde, Q11c,
                             dy1_drho, alpha, beta)
