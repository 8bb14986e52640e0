"""One-step transition kernels of the peeling profile chain.

Exact finite-n kernel (ratio of ensemble counts times an explicit transition
count, summed over a small integer simplex) and its large-n multinomial
approximation, both as probability arrays on one sorted list of the l(l + 1)/2
increments (arrays() gives the support), plus the conditional-ensemble sampler
used to validate the exact kernel empirically.  The sampler is an independent
oracle: it simulates the degrees and the matching and reads nothing of the exact
kernel's moves or weights.  Its peel step draws only the v-node holding the
leaf: a uniform (l - 1)-subset of the other sockets, the exact marginal of a
uniform matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .ensemble import (
    EnsembleParams,
    _empty_class,
    _exact_state,
    _log_factorials,
    _require_int,
    log_coeff_band,
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
    "w_exact_states",
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


_NEWTON_MAX = 40        # Newton steps before solve_lambda gives up; 11 suffice


def solve_lambda(xi: float) -> float:
    """Inverse of f1 on [2, inf): the unique lam >= 0 with f1(lam) = xi.

    Series inversion near the flat point xi = 2, else Newton from lam = xi.
    f1 is increasing and convex with f1(lam) > lam, so the iterates fall
    monotonically onto the root; the first step that does not decrease ends
    the solve.  Accepts a hair below 2 (rounding) and rejects anything lower.
    """
    if not xi >= 2.0:
        if xi > 2.0 - 1e-9:
            xi = 2.0
        else:
            raise ValueError(f"f1 >= 2 always, cannot invert xi = {xi}")
    d = xi - 2.0
    if d == 0.0:
        return 0.0
    if d < 1e-6:
        return d * (3.0 + d * (-1.5 + 1.2 * d))
    lam = xi
    for _ in range(_NEWTON_MAX):
        nxt = lam - (lam + 1.0 / f0_eval(lam) - xi) / (1.0 + psi_prime(lam))
        if not nxt < lam:
            return lam
        lam = nxt
    raise RuntimeError(f"Newton on f1(lam) = {xi} did not settle in {_NEWTON_MAX} steps")


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
        if not abs(s - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {s}, not 1")


def p_triple(x, theta: float, l: int) -> ProbTriple:
    """Class probabilities at state x = (x1, x2) and time theta.

    p0 = max(x1, 0)/L with L = l(1 - theta); lam solves f1(lam) = (L - max(x1,0))/x2;
    p1 = x2 psi(lam)/L, p2 = x2 lam/L.  For x2 below tolerance the continuous
    limit p1 = 0, p2 = 1 - p0 is used.
    """
    if not theta < 1.0:
        raise ValueError(f"theta must be < 1, got {theta}")
    L = l * (1.0 - theta)
    x1 = max(float(x[0]), 0.0)
    x2 = float(x[1])
    if not x2 >= 0.0:
        raise ValueError(f"x2 must be >= 0, got {x2}")
    p0 = x1 / L
    if not p0 <= 1.0 + 1e-12:
        raise ValueError(f"x1 = {x1} exceeds the feasible slab; project first")
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


@dataclass(frozen=True, eq=False)
class KernelDistribution:
    """Law over profile increments (dz1, dz2): read-only arrays `keys`, (k, 2)
    int64 rows sorted by increment, and `probs`, (k,) float64, zero off the
    support.  Both kernels use the k = l(l + 1)/2 increments of _moves(l); the
    absorbed identity is keys [[0, 0]], probs [1.0]."""

    keys: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        for arr in (self.keys, self.probs):
            arr.flags.writeable = False

    def total(self) -> float:
        return float(sum(self.probs.tolist()))

    def arrays(self):
        """The support: the rows of keys and probs with probs > 0."""
        keep = self.probs > 0
        return self.keys[keep], self.probs[keep]

    def mean(self) -> np.ndarray:
        inc, p = self.arrays()
        return p @ inc

    def cov(self) -> np.ndarray:
        inc, p = self.arrays()
        mu = p @ inc
        centered = inc - mu
        return (centered * p[:, None]).T @ centered

    def support_in_box(self, l: int) -> bool:
        return all(-l <= d1 <= l - 2 and -(l - 1) <= d2 <= 0
                   for d1, d2 in self.arrays()[0].tolist())


def w_hat(x, theta: float, params: EnsembleParams) -> KernelDistribution:
    """Large-n kernel: (a0, a1, a2) multinomial(l - 1; p0, p1, p2) mapped to the
    increment (a1 - a0 - 1, -a1), one term per increment of _moves(l)."""
    p = p_triple(x, theta, params.l)
    lm1 = params.l - 1
    keys = _moves(params.l)[0]
    probs = np.empty(len(keys))
    for i, (d1, d2) in enumerate(keys.tolist()):
        a1 = -d2
        a0 = a1 - d1 - 1
        probs[i] = (math.comb(lm1, a0) * math.comb(lm1 - a0, a1)
                    * p.p0 ** a0 * p.p1 ** a1 * p.p2 ** (lm1 - a0 - a1))
    return KernelDistribution(keys, probs)


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


@lru_cache(maxsize=8)
def _moves(l: int):
    """The exact kernel's moves at edge size l, sorted by increment (dz1, dz2):
    the (k, 2) int64 increments, where each one's moves start, the moves' (dz1,
    dz2, d_q0, d_p0 + d_q1 + d_q2) and log(l! d_q0 coeff / (d_p0! d_q0! d_q1! d_q2!)).

    Deleting a leaf's v-node empties d_q0 >= 1 degree-1 and d_p0 class-2
    vertices, takes d_q1 class-2 vertices to degree 1 and leaves d_q2 in class 2.
    """
    moves = sorted((d_q1 - d_q0, -(d_p0 + d_q1), d_q0, d_p0 + d_q1 + d_q2,
                    math.log(math.factorial(l) * d_q0 * _coeff_mixed(d_p0, d_q1 + d_q2, l - d_q0)
                             / (math.factorial(d_p0) * math.factorial(d_q0)
                                * math.factorial(d_q1) * math.factorial(d_q2))))
                   for d_p0 in range(l // 2 + 1)
                   for d_q0 in range(1, l - 2 * d_p0 + 1)
                   for d_q1 in range(l - 2 * d_p0 - d_q0 + 1)
                   for d_q2 in range(l - 2 * d_p0 - d_q0 - d_q1 + 1)
                   if _coeff_mixed(d_p0, d_q1 + d_q2, l - d_q0))
    moves = np.array(moves)
    starts = np.flatnonzero(np.r_[True, np.any(moves[1:, :2] != moves[:-1, :2], axis=1)])
    keys = moves[starts, :2].astype(np.int64)
    ints = moves[:, :4].astype(np.int64)
    for arr in (keys, starts, ints, moves):
        arr.flags.writeable = False
    return keys, starts, ints, moves[:, 4]


def w_exact_states(profiles, tau: int, params: EnsembleParams) -> list:
    """Exact one-step kernels of profiles z = (z1, z2) at one step tau, the
    identity where z1 = 0; ValueError for an infeasible or non-integral profile.

    A move's probability is h(z', tau + 1)/h(z, tau) (log_ensemble_count) times
    its count of ways; the class factorials of z' cancel.  All states read one
    coefficient band, rows z2_min - (l-1) .. z2_max for s <= (n - tau) l.  Each
    law sums to 1 without renormalization.
    """
    n, m, l = params.n, params.m, params.l
    states = [_exact_state(p, tau, n)[:2] for p in profiles]
    tau = int(tau)
    out = [KernelDistribution(np.zeros((1, 2), dtype=np.int64), np.ones(1))] * len(states)
    live = [i for i, (z1, _) in enumerate(states) if z1 != 0]
    if not live:
        return out
    z1, z2 = np.array([states[i] for i in live], dtype=np.int64).T
    S = (n - tau) * l
    s = S - z1
    bad = _empty_class(z1, z2, s, m)
    if bad.any():
        raise ValueError(f"infeasible profile {states[live[int(np.argmax(bad))]]} at tau={tau}")
    keys, starts, ints, log_w = _moves(l)
    dz1, dz2, d_q0, d_out2 = ints.T
    t_lo = max(int(z2.min()) - (l - 1), 0)
    band = log_coeff_band(t_lo, int(z2.max()), S)
    lf = _log_factorials(max(S, m))
    z1c, z2c = z1[:, None], z2[:, None]
    s_next = S - l - (z1c + dz1)
    ok = (z1c >= d_q0) & (z2c >= d_out2) & (s_next >= 0)
    lc_next = np.where(ok, band[np.where(ok, z2c + dz2 - t_lo, 0), np.where(ok, s_next, 0)],
                       -np.inf)
    log_state = band[z2 - t_lo, s] + np.log(z1) - lf[z1] - lf[z2]
    log_term = (lc_next - lf[np.where(ok, z1c - d_q0, 0)] - lf[np.where(ok, z2c - d_out2, 0)]
                - log_state[:, None] + (math.log(n - tau) + lf[S - l] - lf[S]) + log_w)
    probs = np.add.reduceat(np.exp(log_term), starts, axis=1)
    for i, row in zip(live, probs):
        out[i] = KernelDistribution(keys, row)
    return out


def w_exact(profile, tau: int, params: EnsembleParams) -> KernelDistribution:
    """Exact one-step kernel at profile z = (z1, z2) and step tau: the one-state
    slice of w_exact_states."""
    return w_exact_states([profile], tau, params)[0]


# --- conditional-ensemble sampler (empirical oracle for the exact kernel) ---


_STEP_CHUNK = 5000      # conditioned draws per vectorized pass; keeps the (R, W)
                        # stage-1 gather cache-resident


def _partner_slots(S: int, l: int, R: int, rng: np.random.Generator) -> np.ndarray:
    """(R, l - 1) distinct slots of range(S - 1) per row, a uniform (l - 1)-subset
    by Floyd's algorithm: slot j joins unless its draw t <= j is already taken."""
    slots = np.empty((R, l - 1), dtype=np.int64)
    for i, j in enumerate(range(S - l, S - 1)):
        t = rng.integers(0, j + 1, R)
        slots[:, i] = np.where((slots[:, :i] == t[:, None]).any(axis=1), j, t)
    return slots


def _delete_leaf_vnode(old: np.ndarray, leaf: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """(R, nclass) degrees after deleting the v-node of each row's leaf socket.

    The sockets other than the leaf's are numbered 0..S-2 in vertex order; slot s
    belongs to the vertex whose running degree cumsum first exceeds s.
    """
    deg = old.copy()
    deg[np.arange(len(old)), leaf] -= 1
    below = (slots[:, :, None] < np.cumsum(deg, axis=1)[:, None, :]).sum(axis=1)
    return deg - np.diff(below, axis=1, prepend=0)


def sample_conditional_steps(profile, tau: int, params: EnsembleParams,
                             reps: int, rng: np.random.Generator) -> np.ndarray:
    """(reps, 2) empirical increments: sample the ensemble conditioned on z = (z1, z2)
    at step tau uniformly, apply one peel step to each draw.

    Degrees of the degree->=2 class are drawn by inverting the counting DP one
    vertex at a time.  Under a uniform matching a uniform leaf's socket sits in
    a uniform v-node whose other l - 1 sockets are a uniform draw without
    replacement from the other S - 1 sockets, so only those are drawn: the
    exact marginal of a full shuffle, by exchangeability.  Both stages are
    exchangeable over vertex labels, so fixing the class layout is harmless.
    ValueError for reps not an integer >= 0, before any draw.
    """
    _require_int("reps", reps, 0)
    n, l = params.n, params.l
    z1, z2, tau = _exact_state(profile, tau, n)
    if z1 <= 0:
        raise ValueError("conditional stepping needs z1 >= 1")
    S = (n - tau) * l
    s_deg2 = S - z1
    if _empty_class(z1, z2, s_deg2, params.m):
        raise ValueError("infeasible profile")
    # stage-1 CDF per (t, s_rem = 2t + e), t vertices left: only e <= s_deg2 - 2 z2
    # is reachable, and a degree k > e + 2 has probability 0
    extra = s_deg2 - 2 * z2
    ks = np.arange(2, extra + 3)
    if z2:
        lf = _log_factorials(S)
        rows = log_coeff_band(0, z2, s_deg2)                # rows[t][s], t = 0..z2
        t = np.arange(1, z2 + 1)[:, None, None]
        s_rem = 2 * t + np.arange(extra + 1)[None, :, None]
        idx = s_rem - ks
        logp = np.where(idx >= 0, rows[t - 1, np.clip(idx, 0, None)], -np.inf)
        logp = logp - lf[ks] - rows[t, s_rem]
        cdf = np.cumsum(np.exp(logp), axis=2)                # (z2, extra + 1, extra + 1)
    out = np.empty((reps, 2), dtype=np.int64)
    nclass = z1 + z2
    for done in range(0, reps, _STEP_CHUNK):
        R = min(_STEP_CHUNK, reps - done)
        # stage 1: class degrees, 1 for [0, z1); the z2 class by sequential DP inversion
        old = np.ones((R, nclass), dtype=np.int64)
        s_rem = np.full(R, s_deg2, dtype=np.int64)
        for j in range(z2):
            t = z2 - j          # this vertex plus the ones still to draw
            rowsel = cdf[t - 1][s_rem - 2 * t]
            u = rng.random(R) * rowsel[:, -1]
            old[:, z1 + j] = k = ks[(rowsel < u[:, None]).sum(axis=1)]
            s_rem -= k
        # stage 2: one peel step -- delete the v-node holding a uniform leaf
        leaf = rng.integers(0, z1, R)
        new = _delete_leaf_vnode(old, leaf, _partner_slots(S, l, R, rng))
        was2 = old >= 2
        out[done:done + R, 0] = (-((old == 1) & (new == 0)).sum(axis=1)
                                 + (was2 & (new == 1)).sum(axis=1))
        out[done:done + R, 1] = -(was2 & (new <= 1)).sum(axis=1)
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
    the profile z = round(n x) and step tau = round(n theta) at m = round(n rho).
    The states of one step share one coefficient band (w_exact_states)."""
    params = EnsembleParams(l, n, int(round(n * rho)))
    by_tau = {}
    for x1, x2, theta in default_state_grid(l, rho):
        by_tau.setdefault(int(round(n * theta)), []).append(
            (int(round(n * x1)), int(round(n * x2))))
    worst = 0.0
    for tau, zs in by_tau.items():
        for (z1, z2), exact in zip(zs, w_exact_states(zs, tau, params)):
            approx = w_hat((z1 / n, z2 / n), tau / n, params)
            # an absorbed state's identity sits at (0, 0), off w_hat's increments
            d = (float(np.abs(exact.probs - approx.probs).max())
                 if exact.probs.shape == approx.probs.shape else 1.0)
            worst = max(worst, d)
    return worst
