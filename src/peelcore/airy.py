"""Airy functions on the complex plane, the one-sided exit kernel K built from
them, the limiting minimum law of a parabola-plus-Brownian-motion path, and the
mean of that law (the constant feeding the onset shift).

Everything here is scalar complex arithmetic; the only vectorized surface is
the tabulated CDF used for goodness-of-fit against large samples.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import _require_int

__all__ = [
    "AiryPair",
    "airy_pair",
    "kernel_K",
    "MinLawTables",
    "min_law_tables",
    "cdf_Z",
    "omega_integral",
    "mc_parabolic_min",
]

_ROT = cmath.exp(-2j * cmath.pi / 3.0)
_MAX_ABS = 50.0


@dataclass(frozen=True)
class AiryPair:
    ai: complex
    aip: complex
    bi: complex
    bip: complex


def airy_pair(zeta) -> AiryPair:
    """Ai, Ai', Bi, Bi' at a complex point, |zeta| <= 50.

    One call of scipy's AMOS evaluator; the lower half plane goes through
    conjugation symmetry, so conjugate points give exactly conjugate values.
    """
    z = complex(zeta)
    r = abs(z)
    if not r <= _MAX_ABS:
        raise ValueError(f"|zeta| = {r} out of the supported disk (<= {_MAX_ABS})")
    if z.imag < 0.0:
        p = airy_pair(z.conjugate())
        return AiryPair(p.ai.conjugate(), p.aip.conjugate(),
                        p.bi.conjugate(), p.bip.conjugate())
    from scipy import special
    return AiryPair(*(complex(v) for v in special.airy(z)))


# --- the one-sided exit kernel ---


def _k_integrand(y: float, w: float) -> complex:
    """Integrand of K, written so the two exponentially growing pieces cancel
    analytically instead of numerically."""
    a_shift = airy_pair(_ROT * (w + 1j * y)).ai
    a_base = airy_pair(_ROT * (1j * y)).ai
    num = airy_pair(w + 1j * y).ai
    den = airy_pair(1j * y).ai
    return 2.0 * cmath.exp(-1j * cmath.pi / 6.0) * (a_shift - a_base * num / den)


def _y_max(w: float) -> float:
    return max(16.0, math.sqrt(3.0) * w + 42.0 / math.sqrt(max(w, 1.0)))


def kernel_K(z: float) -> float:
    """P(one-sided parabola-plus-Brownian path stays above -z); K(0) = 0,
    K(inf) = 1.  Double precision reliable for z <= 6; ValueError for z outside
    [0, 6], NaN included."""
    if not z >= 0.0:
        raise ValueError(f"kernel K defined for z >= 0, got {z}")
    if not z <= 6.0:
        raise ValueError(f"kernel K is reliable only for z <= 6, got {z}")
    if z == 0.0:
        return 0.0
    w = 2.0 ** (1.0 / 3.0) * z
    for ys in (0.7, 2.3):
        a = _k_integrand(ys, w)
        b = _k_integrand(-ys, w)
        if abs(b - a.conjugate()) > 1e-9 * max(abs(a), 1e-12):
            raise RuntimeError("integrand symmetry check failed; contour unusable")
    from scipy.integrate import quad
    ymax = _y_max(w)
    val, err = quad(lambda y: _k_integrand(y, w).real, 0.0, ymax, limit=200)
    if err > 1e-6:
        raise RuntimeError(f"K quadrature error estimate {err} too large at z = {z}")
    return val


# --- tabulated law of the two-sided minimum ---


@dataclass(frozen=True)
class MinLawTables:
    us: np.ndarray
    Ks: np.ndarray
    tail_a: float        # 1 - K(u)^2 ~ exp(tail_a + tail_b u^{3/2}) past the grid
    tail_b: float

    def K_interp(self, u):
        return np.clip(self._pchip(np.asarray(u, dtype=float)), 0.0, 1.0)

    @property
    def _pchip(self):
        from scipy.interpolate import PchipInterpolator
        return PchipInterpolator(self.us, self.Ks)

    def cdf(self, z):
        """P(Z <= z) for the two-sided minimum; vectorized."""
        z = np.asarray(z, dtype=float)
        u = np.minimum(-z, self.us[-1])
        out = np.where(z >= 0.0, 1.0, 1.0 - self.K_interp(np.maximum(u, 0.0)) ** 2)
        deep = -z > self.us[-1]
        if deep.any():
            t = np.exp(self.tail_a + self.tail_b * (-z[deep]) ** 1.5)
            out = out.copy()
            out[deep] = t
        return np.clip(out, 0.0, 1.0)


@functools.lru_cache(maxsize=4)
def min_law_tables(n_grid: int = 121, u_max: float = 6.0) -> MinLawTables:
    us = np.linspace(0.0, u_max, n_grid)
    Ks = np.array([kernel_K(u) for u in us])
    # log-linear fit of 1 - K^2 in u^{3/2} over the last stretch of the grid
    sel = us >= u_max - 1.5
    xs = us[sel] ** 1.5
    ys = np.log(np.maximum(1.0 - Ks[sel] ** 2, 1e-300))
    b = np.polyfit(xs, ys, 1)[0]
    # keep the fitted slope but anchor the level at the last node, so the cdf
    # has no jump where the tail takes over from the table
    a = ys[-1] - b * xs[-1]
    return MinLawTables(us, Ks, float(a), float(b))


def cdf_Z(z) -> np.ndarray:
    """CDF of the two-sided minimum law, from the cached kernel table."""
    return min_law_tables().cdf(z)


def omega_integral() -> float:
    """Mean depth of the two-sided minimum: integral of 1 - K^2, grid part by
    monotone interpolation, the (~3e-7) tail from the fitted decay."""
    from scipy.integrate import quad
    from scipy.interpolate import PchipInterpolator
    tab = min_law_tables()
    pch = PchipInterpolator(tab.us, 1.0 - tab.Ks ** 2)
    head = pch.integrate(tab.us[0], tab.us[-1])
    tail, _ = quad(lambda u: math.exp(tab.tail_a + tab.tail_b * u ** 1.5),
                   tab.us[-1], 40.0)
    return float(head + tail)


# --- Monte Carlo of the same minimum, for cross-validation ---


def mc_parabolic_min(reps: int, rng: np.random.Generator,
                     horizon: float = 5.0, dt: float = 1e-3,
                     chunk: int = 250) -> np.ndarray:
    """Sample min over [-T, T] of t^2/2 + W(t) on a grid, with the conditional
    within-cell Brownian-bridge minimum so the discretization bias is tiny.
    Raises ValueError, before any draw, for reps not an integer >= 0, chunk not
    an integer >= 1, dt <= 0 or horizon < dt."""
    _require_int("reps", reps, 0)
    _require_int("chunk", chunk, 1)
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not horizon >= dt:
        raise ValueError(f"horizon must be >= dt = {dt}, got {horizon}")
    n_steps = int(round(horizon / dt))
    ts = np.arange(1, n_steps + 1) * dt
    drift = 0.5 * ts * ts
    sdt = math.sqrt(dt)
    out = np.empty(reps)
    done = 0
    while done < reps:
        b = min(chunk, reps - done)
        # two independent sides per replicate
        dw = rng.standard_normal((2 * b, n_steps)) * sdt
        w = np.cumsum(dw, axis=1)
        x = w + drift
        left = np.concatenate([np.zeros((2 * b, 1)), x[:, :-1]], axis=1)
        lnu = np.log(rng.random((2 * b, n_steps)))
        cell_min = 0.5 * (left + x - np.sqrt((left - x) ** 2 - 2.0 * dt * lnu))
        side_min = cell_min.min(axis=1)
        z = np.minimum(side_min[:b], side_min[b:])
        out[done:done + b] = np.minimum(z, 0.0)
        done += b
    return out
