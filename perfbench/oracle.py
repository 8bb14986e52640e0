"""References the benchmark checks the program's outputs against.

Nothing here imports peelcore: each reference is an independent computation
(a sequential leaf-removal peel, the tangency equations solved with
scipy.optimize, the exit kernel K integrated over Airy values from
scipy.special.airy) or a statistical bound on a sample.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
from scipy import integrate, optimize, special, stats


def core_size(edges: list, m: int) -> int:
    """Edges left in the 2-core of one hypergraph on vertices 0..m-1.

    Sequential leaf removal with a stack: a vertex covered by exactly one
    socket removes the edge holding that socket, until no such vertex is left.
    `edges` is a list of vertex tuples; a vertex may repeat inside an edge.
    """
    deg = [0] * m
    incident = [[] for _ in range(m)]
    for i, e in enumerate(edges):
        for v in e:
            deg[v] += 1
            incident[v].append(i)
    alive = [True] * len(edges)
    stack = [v for v in range(m) if deg[v] == 1]
    removed = 0
    while stack:
        v = stack.pop()
        if deg[v] != 1:
            continue
        i = next(i for i in incident[v] if alive[i])
        alive[i] = False
        removed += 1
        for u in edges[i]:
            deg[u] -= 1
            if deg[u] == 1:
                stack.append(u)
    return len(edges) - removed


def replicate_sockets(seed: int, point: int, reps: int, block: int, n: int,
                      m: int, l: int):
    """Yield the socket table (n, l) of every replicate of one grid point, in
    order, regenerated from the documented per-block seeding
    default_rng([seed, point, block]) over blocks of `block` replicates."""
    for b, start in enumerate(range(0, reps, block)):
        rng = np.random.default_rng([seed, point, b])
        yield from rng.integers(0, m, size=(min(block, reps - start), n, l))


def tangency_rho_c(l: int) -> float:
    """Critical density from the double root of h(u) = u - 1 + exp(-g u^(l-1)):
    h = 0 and h' = 0 solved jointly in (u, g); rho_c = l / g."""
    def eqs(x):
        u, g = x
        e = math.exp(-g * u ** (l - 1))
        return [u - 1.0 + e, 1.0 - g * (l - 1) * u ** (l - 2) * e]

    (u, g), info, ok, msg = optimize.fsolve(eqs, [0.7, 2.5], xtol=1e-14,
                                            full_output=True)
    if ok != 1:
        raise RuntimeError(f"tangency solve failed: {msg}")
    return l / g


_ROT = cmath.exp(-2j * cmath.pi / 3.0)
_PHASE = 2.0 * cmath.exp(-1j * cmath.pi / 6.0)


def exit_kernel(z: float) -> float:
    """K(z) as the contour integral over y of
    Re 2 e^{-i pi/6} [Ai(w' (w+iy)) - Ai(w' iy) Ai(w+iy) / Ai(iy)],
    w = 2^{1/3} z, w' = e^{-2 pi i/3}, with Ai from scipy.special.airy."""
    if z == 0.0:
        return 0.0
    w = 2.0 ** (1.0 / 3.0) * z

    def f(y):
        ai = special.airy(np.array([_ROT * (w + 1j * y), _ROT * 1j * y,
                                    w + 1j * y, 1j * y]))[0]
        return (_PHASE * (ai[0] - ai[1] * ai[2] / ai[3])).real

    y_max = max(16.0, math.sqrt(3.0) * w + 42.0 / math.sqrt(max(w, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(f, 0.0, y_max, limit=200, epsabs=1e-12,
                                epsrel=1e-12)
    return val


normal_cdf = special.ndtr


def survival_tolerance(p_hat: float, pred: float, reps: int) -> float:
    """Allowed |p_hat - pred|: c10's model allowance 0.03 plus five standard
    errors, taken at the larger of the two binomial variances.  Five standard
    errors keep the chance that a correct run fails one of nine points below
    1e-5 at a few hundred replicates, where c10's max(0.03, 3 se) would fail
    2% or more of correct runs."""
    var = max(p_hat * (1.0 - p_hat), pred * (1.0 - pred))
    return 0.03 + 5.0 * math.sqrt(var / reps)


def lattice_ks(counts: np.ndarray, cdf) -> float:
    """Kolmogorov distance of integer counts to a model CDF, taken over the
    integer lattice from min - 1 to max."""
    counts = np.sort(np.asarray(counts))
    grid = np.arange(counts[0] - 1, counts[-1] + 1)
    ecdf = np.searchsorted(counts, grid, side="right") / counts.size
    return float(np.max(np.abs(ecdf - cdf(grid.astype(float)))))


def ks_tolerance(reps: int, alpha: float = 1e-6) -> float:
    """c11's model allowance 0.05 plus the Dvoretzky-Kiefer-Wolfowitz band,
    which a correct sample of `reps` draws exceeds with probability <= alpha."""
    return 0.05 + math.sqrt(math.log(2.0 / alpha) / (2.0 * reps))


def chi_square_p(steps: np.ndarray, keys: np.ndarray, probs: np.ndarray):
    """p-value of sampled increments against a law, cells with expectation
    below 5 merged into one, and the number of steps outside the support."""
    index = {tuple(int(v) for v in k): i for i, k in enumerate(keys)}
    codes = np.array([index.get((int(a), int(b)), -1) for a, b in steps])
    unseen = int((codes < 0).sum())
    counts = np.bincount(codes[codes >= 0], minlength=len(keys)).astype(float)
    expected = np.asarray(probs, dtype=float) * len(steps)
    keep = expected >= 5.0
    f_obs, f_exp = list(counts[keep]), list(expected[keep])
    if not keep.all() or unseen:
        f_obs.append(counts[~keep].sum() + unseen)
        f_exp.append(expected[~keep].sum())
    # the law sums to 1 within 1e-9, so rescale the expectation to the sample
    f_exp = np.array(f_exp) * (sum(f_obs) / sum(f_exp))
    return float(stats.chisquare(f_obs, f_exp).pvalue), unseen
