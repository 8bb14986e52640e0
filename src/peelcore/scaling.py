"""Finite-size scaling predictions assembled from the critical constants: the
near-critical survival probability with its first-order size correction, the
standardized onset count, and the law of the rescaled core size at the window
center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ode import CriticalConstants

__all__ = [
    "ScalingPrediction",
    "std_normal_cdf",
    "std_normal_pdf",
    "scaling_vars",
    "predict_core_prob",
    "standardize_onset",
    "onset_cdf",
    "core_size_scale",
    "standardize_core_size",
    "core_size_density",
    "core_size_cdf",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def std_normal_cdf(x):
    from scipy.special import erfc
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(-x / _SQRT2)
    return float(out) if out.ndim == 0 else out


def std_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ScalingPrediction:
    """Survival probability at (n, rho) in three forms.

    p_gauss is Phi(-r_tilde1) and p_shifted is Phi(-r_tilde2); both are
    probabilities by construction.  p_corrected is the stated law
    Phi(-r_tilde1) + beta*Omega*phi(r_tilde1)*n^{-1/6}, the first-order Taylor
    expansion of p_shifted; it can leave [0, 1] and is clamped there.  The two
    corrected forms differ at O(n^{-1/3}).
    """
    n: int
    rho: float
    r: float
    r_tilde1: float
    r_tilde2: float
    p_gauss: float          # plain Gaussian limit
    p_corrected: float      # with the n^{-1/6} correction term, clamped
    p_shifted: float        # Gaussian limit at the shifted coordinate


def scaling_vars(n: int, rho: float, cc: CriticalConstants):
    """(r, r_tilde1, r_tilde2): the critical-window coordinate, its Gaussian
    rescaling, and the shift-corrected rescaling (needs cc.delta)."""
    sn = math.sqrt(n)
    r = sn * (rho - cc.rho_c)
    rt1 = r / cc.alpha
    if cc.delta is None:
        raise ValueError("constants carry no delta; attach omega first")
    rt2 = sn * (rho - cc.rho_c - cc.delta * n ** (-2.0 / 3.0)) / cc.alpha
    return r, rt1, rt2


def predict_core_prob(n: int, rho: float, cc: CriticalConstants) -> ScalingPrediction:
    """Survival probability prediction at (n, rho).

    Only p_corrected is clamped to [0, 1]; p_gauss and p_shifted are normal
    CDF values.  p_shifted applies the same first-order shift as onset_cdf,
    so the two agree on the event {core at (m, n)} = {N_c <= n} up to terms
    beyond that order.
    """
    if cc.omega is None:
        raise ValueError("constants carry no omega; attach omega first")
    r, rt1, rt2 = scaling_vars(n, rho, cc)
    p0 = std_normal_cdf(-rt1)
    corr = cc.beta * cc.omega * std_normal_pdf(-rt1) * n ** (-1.0 / 6.0)
    p1 = min(max(p0 + corr, 0.0), 1.0)
    return ScalingPrediction(n, rho, r, rt1, rt2, p0, p1, std_normal_cdf(-rt2))


def standardize_onset(nc, m: int, cc: CriticalConstants):
    """Map onset counts to the standardized scale where they converge to N(0,1).

    Centering is m/rho_c, the raw scale sqrt(m) rho_c^{-3/2} alpha, plus the
    same first-order shift that corrects the survival probability.
    """
    if cc.omega is None:
        raise ValueError("constants carry no omega; attach omega first")
    nc = np.asarray(nc, dtype=float)
    scale = math.sqrt(m) * cc.rho_c ** (-1.5) * cc.alpha
    shift = cc.beta * cc.omega * cc.rho_c ** (1.0 / 6.0) * m ** (-1.0 / 6.0)
    out = (nc - m / cc.rho_c) / scale + shift
    return float(out) if out.ndim == 0 else out


def onset_cdf(nc, m: int, cc: CriticalConstants):
    return std_normal_cdf(standardize_onset(nc, m, cc))


def core_size_scale(n: int, cc: CriticalConstants) -> float:
    """Fluctuation scale of the core size at the window center: n^{3/4} times
    (4 Q11 / F~^2)^{1/4}."""
    return n ** 0.75 * (4.0 * cc.Q11c / cc.F_tilde ** 2) ** 0.25


def standardize_core_size(sizes, n: int, cc: CriticalConstants):
    sizes = np.asarray(sizes, dtype=float)
    out = (sizes - n * (1.0 - cc.theta_c)) / core_size_scale(n, cc)
    return float(out) if out.ndim == 0 else out


def _scaled_tail(x):
    """Phi(-x) exp(x^2/2) = erfcx(x/sqrt 2)/2, finite and O(1/x) for x >= 0."""
    from scipy.special import erfcx
    return 0.5 * erfcx(np.asarray(x, dtype=float) / _SQRT2)


def core_size_density(z, r: float, cc: CriticalConstants):
    """Density of the rescaled core size, conditioned on a nonempty core, at
    window coordinate r; supported on z > 0.

    For rb = r/alpha >= 0 the survival Phi(-rb) is taken in the scaled form
    of _scaled_tail, so its exp(-rb^2/2) cancels the numerator's analytically
    and neither underflows far past the window."""
    z = np.asarray(z, dtype=float)
    rb = r / cc.alpha
    zp = np.maximum(z, 0.0)
    z2 = zp * zp
    if rb >= 0.0:
        dens = 2.0 * zp * np.exp(-z2 * (rb + 0.5 * z2)) / (_SQRT_2PI * _scaled_tail(rb))
    else:
        dens = 2.0 * zp * np.exp(-0.5 * (rb + z2) ** 2) / (_SQRT_2PI * std_normal_cdf(-rb))
    out = np.where(z >= 0.0, dens, 0.0)
    return float(out) if out.ndim == 0 else out


def core_size_cdf(z, r: float, cc: CriticalConstants):
    """P(rb < X <= rb + z^2 | X > rb) for standard normal X, rb = r/alpha.

    For rb >= 0 this is 1 - Phi(-rb - z^2)/Phi(-rb), both tails in the scaled
    form of _scaled_tail; for rb < 0 the numerator Phi(rb + z^2) - Phi(rb) is
    taken in its small tail.  Neither form cancels or underflows far from the
    window center."""
    z = np.asarray(z, dtype=float)
    rb = r / cc.alpha
    z2 = z * z
    if rb >= 0.0:
        mass = 1.0 - (_scaled_tail(rb + z2) / _scaled_tail(rb)
                      * np.exp(-z2 * (rb + 0.5 * z2)))
    else:
        mass = (std_normal_cdf(rb + z2) - std_normal_cdf(rb)) / std_normal_cdf(-rb)
    out = np.clip(np.where(z >= 0.0, mass, 0.0), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out
