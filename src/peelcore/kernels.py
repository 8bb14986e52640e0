"""One-step transition kernels of the peeling profile chain.

Exact finite-n kernel (ratio of ensemble counts times an explicit transition
count, summed over a small integer simplex) and its large-n multinomial
approximation, plus a chain simulator and the conditional-ensemble sampler used
to validate the exact kernel empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .ensemble import (
    EnsembleParams,
    _log_coeff_columns,
    _log_factorials,
    degree_profile,
    log_ensemble_count,
    sample_uniform,
)

__all__ = [
    "ProbTriple",
    "KernelDistribution",
    "f0_eval",
    "psi_eval",
    "psi_prime",
    "f1_eval",
    "f1_prime",
    "solve_lambda",
    "project_feasible",
    "p_triple",
    "w_hat",
    "w_exact",
    "ChainRecord",
    "simulate_chain",
    "sample_conditional_steps",
    "kernel_max_discrepancy",
    "default_state_grid",
]


# --- scalar special functions around the removable singularity at lambda = 0 ---

# psi(lam) = lam^2/(e^lam - 1 - lam);  f1 = lam + psi;  f1' = 1 + psi'.
# Series coefficients below lam = 0.1 keep full double accuracy through the
# cancellation that the direct formulas hit near 0.

_PSI_PRIME_COEFFS = (
    -2.0 / 3.0, 1.0 / 9.0, 1.0 / 90.0, -1.0 / 810.0,
    -5.0 / 13608.0, -1.0 / 340200.0, 7.0 / 874800.0, 13.0 / 18370800.0,
)
_SERIES_CUT = 0.1


_F0_HORNER = tuple(1.0 / math.factorial(k + 2) for k in range(12, -1, -1))
_PSIP_HORNER = tuple(reversed(_PSI_PRIME_COEFFS))


def f0_eval(lam: float) -> float:
    """(e^lam - 1 - lam)/lam^2, continuous value 1/2 at 0."""
    x = float(lam)
    if abs(x) < _SERIES_CUT:
        acc = 0.0
        for c in _F0_HORNER:
            acc = acc * x + c
        return acc
    if x > 500.0:
        return math.inf
    return (math.expm1(x) - x) / (x * x)


def psi_eval(lam: float) -> float:
    """lam^2/(e^lam - 1 - lam) = 1/f0; equals 2 at 0, decays to 0 as lam -> inf."""
    return 1.0 / f0_eval(lam)


def psi_prime(lam: float) -> float:
    x = float(lam)
    if abs(x) < _SERIES_CUT:
        acc = 0.0
        for c in _PSIP_HORNER:
            acc = acc * x + c
        return acc
    if x > 200.0:
        return 0.0
    e1 = math.expm1(x)
    d = e1 - x
    return x * (2.0 * d - x * e1) / (d * d)


def f1_eval(lam: float) -> float:
    """lam(e^lam - 1)/(e^lam - 1 - lam), the mean-degree map; f1(0) = 2."""
    x = float(lam)
    if x < 0:
        raise ValueError("f1 defined for lam >= 0")
    return x + psi_eval(x)


def f1_prime(lam: float) -> float:
    return 1.0 + psi_prime(lam)


def solve_lambda(xi: float) -> float:
    """Inverse of f1 on [2, inf): the unique lam >= 0 with f1(lam) = xi.

    Series inversion near the flat point xi = 2, then a short bisection to
    localize and safeguarded Newton to finish; accepts a hair below 2
    (rounding) and rejects anything lower.
    """
    if xi < 2.0:
        if xi > 2.0 - 1e-9:
            xi = 2.0
        else:
            raise ValueError(f"f1 >= 2 always, cannot invert xi = {xi}")
    d = xi - 2.0
    if d == 0.0:
        return 0.0
    if d < 1e-6:
        return d * (3.0 + d * (-1.5 + 1.2 * d))
    lo, hi = 0.0, xi  # f1(lam) > lam, so the root is below xi
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if mid + 1.0 / f0_eval(mid) < xi:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    for _ in range(8):
        r = lam + 1.0 / f0_eval(lam) - xi
        if r == 0.0:
            return lam
        if r > 0.0:
            hi = lam
        else:
            lo = lam
        nxt = lam - r / (1.0 + psi_prime(lam))
        if not lo < nxt < hi:
            # clamp an overshoot to the violated end (the bracket may be 1 ulp wide)
            b = hi if nxt >= hi else lo
            nxt = b if b != lam else 0.5 * (lo + hi)
        if nxt == lam:
            return lam
        lam = nxt
    return lam


# --- feasible set and probability triple ---


def project_feasible(x, theta: float, l: int):
    """Euclidean projection onto {x1 >= 0, x2 >= 0, x1 + 2 x2 <= l(1 - theta)}."""
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"theta must be in [0, 1), got {theta}")
    L = l * (1.0 - theta)
    x1, x2 = float(x[0]), float(x[1])
    if x1 >= 0.0 and x2 >= 0.0 and x1 + 2.0 * x2 <= L:
        return np.array([x1, x2])
    # projection of an exterior point lies on one of the three edges
    cands = [
        (0.0, min(max(x2, 0.0), L / 2.0)),
        (min(max(x1, 0.0), L), 0.0),
    ]
    # hypotenuse from (L, 0) to (0, L/2): foot of perpendicular, clamped to the segment
    t = ((x1 - L) * (-L) + x2 * (L / 2.0)) / (L * L * 1.25)
    t = min(max(t, 0.0), 1.0)
    cands.append((L * (1.0 - t), 0.5 * L * t))
    best = min(cands, key=lambda c: (c[0] - x1) ** 2 + (c[1] - x2) ** 2)
    return np.array(best)


@dataclass(frozen=True)
class ProbTriple:
    """Socket-class probabilities (p0, p1, p2) and the tilt lam behind them."""

    p0: float
    p1: float
    p2: float
    lam: float

    def __post_init__(self):
        s = self.p0 + self.p1 + self.p2
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {s}, not 1")


def p_triple(x, theta: float, l: int) -> ProbTriple:
    """Class probabilities at state x = (x1, x2) and time theta.

    p0 = max(x1, 0)/L with L = l(1 - theta); lam solves f1(lam) = (L - max(x1,0))/x2;
    p1 = x2 psi(lam)/L, p2 = x2 lam/L.  For x2 below tolerance the continuous
    limit p1 = 0, p2 = 1 - p0 is used.
    """
    if theta >= 1.0:
        raise ValueError("theta must be < 1")
    L = l * (1.0 - theta)
    x1 = max(float(x[0]), 0.0)
    x2 = float(x[1])
    if x2 < 0.0:
        raise ValueError("x2 must be >= 0")
    p0 = x1 / L
    if p0 > 1.0 + 1e-12:
        raise ValueError("x1 exceeds the feasible slab; project first")
    p0 = min(p0, 1.0)
    if x2 < 1e-12 * L:
        return ProbTriple(p0, 0.0, 1.0 - p0, math.inf)
    lam = solve_lambda((L - x1) / x2)
    p1 = x2 * psi_eval(lam) / L
    p2 = x2 * lam / L
    # guard the corner where rounding leaves a residue just outside [0, 1]
    p1 = min(max(p1, 0.0), 1.0)
    p2 = max(min(p2, 1.0 - p0 - p1), 0.0)
    p1 = 1.0 - p0 - p2
    return ProbTriple(p0, p1, p2, lam)


# --- kernel distributions ---


@dataclass(frozen=True)
class KernelDistribution:
    """Finite distribution over profile increments (dz1, dz2)."""

    probs: dict

    def total(self) -> float:
        return float(sum(self.probs.values()))

    def arrays(self):
        keys = sorted(self.probs)
        inc = np.array(keys, dtype=np.int64).reshape(-1, 2)
        p = np.array([self.probs[k] for k in keys])
        return inc, p

    def mean(self) -> np.ndarray:
        inc, p = self.arrays()
        return p @ inc

    def cov(self) -> np.ndarray:
        inc, p = self.arrays()
        mu = p @ inc
        centered = inc - mu
        return (centered * p[:, None]).T @ centered

    def support_in_box(self, l: int) -> bool:
        return all(-l <= d1 <= l - 2 and -(l - 1) <= d2 <= 0 for d1, d2 in self.probs)


def w_hat(x, theta: float, params: EnsembleParams) -> KernelDistribution:
    """Large-n kernel: (a0, a1, a2) multinomial(l - 1; p0, p1, p2) mapped to the
    increment (a1 - a0 - 1, -a1)."""
    p = p_triple(x, theta, params.l)
    lm1 = params.l - 1
    out = {}
    for a0 in range(lm1 + 1):
        for a1 in range(lm1 - a0 + 1):
            a2 = lm1 - a0 - a1
            w = (
                math.comb(lm1, a0) * math.comb(lm1 - a0, a1)
                * p.p0 ** a0 * p.p1 ** a1 * p.p2 ** a2
            )
            if w == 0.0:
                continue
            key = (a1 - a0 - 1, -a1)
            out[key] = out.get(key, 0.0) + w
    return KernelDistribution(out)


@lru_cache(maxsize=256)
def _coeff_mixed(n_em1mx: int, n_em1: int, deg: int) -> Fraction:
    """Exact coeff[(e^x - 1 - x)^n_em1mx (e^x - 1)^n_em1, x^deg]."""
    row = [Fraction(0)] * (deg + 1)
    row[0] = Fraction(1)
    for kmin, reps in ((2, n_em1mx), (1, n_em1)):
        for _ in range(reps):
            new = [Fraction(0)] * (deg + 1)
            for s, val in enumerate(row):
                if val:
                    for k in range(kmin, deg - s + 1):
                        new[s + k] += val / math.factorial(k)
            row = new
    return row[deg]


def w_exact(profile, tau: int, params: EnsembleParams) -> KernelDistribution:
    """Exact one-step kernel at profile z = (z1, z2) and step tau.

    Identity kernel when z1 = 0; otherwise a sum over the transition counts
    (d_p0, d_q0, d_q1, d_q2) with 2 d_p0 + d_q0 + d_q1 + d_q2 <= l, each term a
    ratio of ensemble counts (log space) times exact small combinatorics.
    Terms are nonnegative and the result sums to 1 without renormalization.
    """
    z1, z2 = int(profile[0]), int(profile[1])
    if z1 == 0:
        return KernelDistribution({(0, 0): 1.0})
    n, m, l = params.n, params.m, params.l
    log_h = log_ensemble_count((z1, z2), tau, params)
    if log_h == -np.inf:
        raise ValueError(f"infeasible profile (z1={z1}, z2={z2}) at tau={tau}")
    log_pref = math.log(tau + 1) + math.lgamma(l + 1)
    out = {}
    for d_p0 in range(l // 2 + 1):
        for d_q0 in range(1, l - 2 * d_p0 + 1):
            for d_q1 in range(l - 2 * d_p0 - d_q0 + 1):
                for d_q2 in range(l - 2 * d_p0 - d_q0 - d_q1 + 1):
                    dz1 = d_q1 - d_q0
                    dz2 = -(d_p0 + d_q1)
                    z1p, z2p = z1 + dz1, z2 + dz2
                    if z1p < 0 or z2p < 0:
                        continue
                    z0p = m - z1p - z2p
                    if z0p < d_q0 + d_p0 or d_q1 > z1p or d_q2 > z2p:
                        continue
                    log_hp = log_ensemble_count((z1p, z2p), tau + 1, params)
                    if log_hp == -np.inf:
                        continue
                    coeff = _coeff_mixed(d_p0, d_q1 + d_q2, l - d_q0)
                    if coeff == 0:
                        continue
                    log_term = (
                        log_hp - log_h + log_pref
                        + math.lgamma(z0p + 1) - math.lgamma(d_q0 + 1)
                        - math.lgamma(d_p0 + 1) - math.lgamma(z0p - d_q0 - d_p0 + 1)
                        + math.lgamma(z1p + 1) - math.lgamma(d_q1 + 1) - math.lgamma(z1p - d_q1 + 1)
                        + math.lgamma(z2p + 1) - math.lgamma(d_q2 + 1) - math.lgamma(z2p - d_q2 + 1)
                        + math.log(d_q0) - math.log(z1)
                        + math.log(float(coeff))
                    )
                    key = (dz1, dz2)
                    out[key] = out.get(key, 0.0) + math.exp(log_term)
    return KernelDistribution(out)


# --- chain simulation ---


@dataclass(frozen=True)
class ChainRecord:
    profiles: np.ndarray   # (n+1, 2)
    stop_time: int         # first tau with z1 <= 0 (n if never)
    min_z1: int


@lru_cache(maxsize=4096)
def _w_exact_arrays(z1: int, z2: int, tau: int, params: EnsembleParams):
    inc, p = w_exact((z1, z2), tau, params).arrays()
    inc.flags.writeable = p.flags.writeable = False
    return inc, p


def simulate_chain(params: EnsembleParams, rng: np.random.Generator) -> ChainRecord:
    """Iterate the exact kernel from a sampled initial profile; the chain
    absorbs at z1 = 0."""
    n = params.n
    prof = degree_profile(sample_uniform(params, rng))
    z = np.array([prof.z1, prof.z2], dtype=np.int64)
    profiles = np.empty((n + 1, 2), dtype=np.int64)
    profiles[0] = z
    stop = n if z[0] > 0 else 0
    min_z1 = int(z[0])
    for tau in range(n):
        if z[0] == 0:
            profiles[tau + 1] = z
            continue
        inc, p = _w_exact_arrays(int(z[0]), int(z[1]), tau, params)
        j = rng.choice(len(p), p=p / p.sum())
        z = z + inc[j]
        profiles[tau + 1] = z
        min_z1 = min(min_z1, int(z[0]))
        if z[0] <= 0 and stop == n:
            stop = tau + 1
    return ChainRecord(profiles, stop, min_z1)


# --- conditional-ensemble sampler (empirical oracle for the exact kernel) ---


_STEP_CHUNK = 20000     # conditioned draws per vectorized pass


def sample_conditional_steps(profile, tau: int, params: EnsembleParams,
                             reps: int, rng: np.random.Generator) -> np.ndarray:
    """(reps, 2) empirical increments: sample the ensemble conditioned on z = (z1, z2)
    at step tau uniformly, apply one peel step to each draw.

    Degrees of the degree->=2 class are drawn by inverting the counting DP one
    vertex at a time; sockets are matched by a uniform shuffle.  Both stages are
    exchangeable over vertex labels, so fixing the class layout is harmless.
    """
    z1, z2 = int(profile[0]), int(profile[1])
    if z1 <= 0:
        raise ValueError("conditional stepping needs z1 >= 1")
    n, m, l = params.n, params.m, params.l
    S = (n - tau) * l
    s_deg2 = S - z1
    if log_ensemble_count((z1, z2), tau, params) == -np.inf:
        raise ValueError("infeasible profile")
    lf = _log_factorials(S)
    rows = np.array(list(_log_coeff_columns(z2, S))).T     # rows[t][s], t = 0..z2
    out = np.empty((reps, 2), dtype=np.int64)
    done = 0
    while done < reps:
        R = min(_STEP_CHUNK, reps - done)
        # stage 1: degree vector for the z2 class, sequential DP inversion
        degs = np.zeros((R, max(z2, 1)), dtype=np.int64)
        s_rem = np.full(R, s_deg2, dtype=np.int64)
        for j in range(z2):
            t = z2 - j          # this vertex plus the ones still to draw
            kmax = s_deg2 - 2 * (t - 1)
            ks = np.arange(2, kmax + 1)
            idx = s_rem[:, None] - ks[None, :]
            valid = idx >= 0
            logp = np.where(valid, rows[t - 1][np.clip(idx, 0, S)], -np.inf)
            logp = logp - lf[ks][None, :] - rows[t][s_rem][:, None]
            pr = np.exp(logp)
            cdf = np.cumsum(pr, axis=1)
            u = rng.random(R) * cdf[:, -1]
            pick = (cdf < u[:, None]).sum(axis=1)
            k = ks[np.minimum(pick, len(ks) - 1)]
            degs[:, j] = k
            s_rem -= k
        # stage 2: socket multiset (ids: [0, z1) degree 1, [z1, z1+z2) the drawn degrees)
        sockets = np.empty((R, S), dtype=np.int64)
        sockets[:, :z1] = np.arange(z1)
        if z2:
            starts = np.cumsum(degs, axis=1) - degs
            posn = np.arange(s_deg2)
            sockets[:, z1:] = z1 - 1 + (posn[None, None, :] >= starts[:, :, None]).sum(axis=1)
        sockets = rng.permuted(sockets, axis=1)
        # stage 3: one peel step -- delete the v-node holding a uniform leaf
        leaf = rng.integers(0, z1, R)
        pos = np.argmax(sockets == leaf[:, None], axis=1)
        v = pos // l
        cols = v[:, None] * l + np.arange(l)[None, :]
        hit = np.take_along_axis(sockets, cols, axis=1)        # (R, l) vertex ids
        nclass = z1 + z2
        mult = np.bincount(
            (hit + (np.arange(R, dtype=np.int64) * nclass)[:, None]).ravel(),
            minlength=R * nclass,
        ).reshape(R, nclass)
        old = np.empty((R, nclass), dtype=np.int64)
        old[:, :z1] = 1
        if z2:
            old[:, z1:] = degs
        new = old - mult
        was2 = old >= 2
        dz1 = -((old == 1) & (mult == 1)).sum(axis=1) + (was2 & (new == 1)).sum(axis=1)
        dz2 = -(was2 & (new <= 1)).sum(axis=1)
        out[done:done + R, 0] = dz1
        out[done:done + R, 1] = dz2
        done += R
    return out


# --- approximation-rate sweep ---


def default_state_grid(l: int = 3, rho: float = 1.2218):
    """Fixed interior states (x1, x2, theta) with a 0.1 margin to every face,
    including the vertex budget x1 + x2 <= rho."""
    grid = []
    for theta in (0.0, 0.3, 0.6):
        L = l * (1.0 - theta)
        for x1 in (0.15, 0.4, 0.8):
            for x2 in (0.15, 0.4, 0.8):
                if x1 + 2.0 * x2 <= L - 0.1 and x1 + x2 <= rho - 0.1:
                    grid.append((x1, x2, theta))
    return grid


def kernel_max_discrepancy(n: int, rho: float, l: int = 3) -> float:
    """D(n): max entrywise |w_exact - w_hat| over default_state_grid(l, rho), with
    the profile z = round(n x) and step tau = round(n theta) at m = round(n rho)."""
    params = EnsembleParams(l, n, int(round(n * rho)))
    worst = 0.0
    for x1, x2, theta in default_state_grid(l, rho):
        tau = int(round(n * theta))
        z1, z2 = int(round(n * x1)), int(round(n * x2))
        exact = w_exact((z1, z2), tau, params)
        approx = w_hat((z1 / n, z2 / n), tau / n, params)
        keys = set(exact.probs) | set(approx.probs)
        d = max(abs(exact.probs.get(k, 0.0) - approx.probs.get(k, 0.0)) for k in keys)
        worst = max(worst, d)
    return worst
