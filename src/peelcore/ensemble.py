"""Configuration-model hypergraph ensemble: sampling, degree profiles, exact counts.

The ensemble G_l(n, m) has n hyperedges ("v-nodes") of size l over m vertices
("c-nodes"); each v-node carries l ordered sockets, each socket holding a
c-node index, repeats allowed.  An ensemble element is the full socket table,
so |G_l(n, m)| = m^(n*l) and degrees are counted with multiplicity.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "EnsembleParams",
    "Hypergraph",
    "DegreeProfile",
    "sample_uniform",
    "sample_balls_in_bins",
    "degree_profile",
    "sample_profiles",
    "log_ensemble_count",
    "log_coeff_rows",
    "log_coeff_band",
    "initial_moments",
]


def _require_int(name: str, value, low: int) -> int:
    """value as an int; ValueError naming the argument for a bool, a non-integer
    or a value below low.  Numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        positive = f"{name} must be a positive integer: " if low == 1 else ""
        raise ValueError(f"{positive}{name} must be an integer >= {low}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class EnsembleParams:
    """Size parameters: edge size l >= 3, n edges, m vertices, all integers."""

    l: int
    n: int
    m: int

    def __post_init__(self):
        for name, low in (("l", 3), ("n", 1), ("m", 1)):
            _require_int(name, getattr(self, name), low)

    @property
    def rho(self) -> float:
        return self.m / self.n

    @property
    def gamma(self) -> float:
        return self.l * self.n / self.m


@dataclass(frozen=True)
class Hypergraph:
    params: EnsembleParams
    sockets: np.ndarray  # shape (n, l), integer entries in [0, m)

    def __post_init__(self):
        s = np.asarray(self.sockets)
        if s.shape != (self.params.n, self.params.l):
            raise ValueError(f"sockets shape {s.shape} != {(self.params.n, self.params.l)}")
        if s.size and (s.min() < 0 or s.max() >= self.params.m):
            raise ValueError("socket entry out of range")


@dataclass(frozen=True)
class DegreeProfile:
    """(z0, z1, z2): vertices of degree 0, exactly 1, and >= 2."""

    z0: int
    z1: int
    z2: int

    @property
    def as_pair(self) -> tuple:
        return (self.z1, self.z2)


def sample_uniform(params: EnsembleParams, rng: np.random.Generator) -> Hypergraph:
    """Uniform ensemble element: every socket i.i.d. uniform over the m vertices."""
    sockets = rng.integers(0, params.m, size=(params.n, params.l), dtype=np.int64)
    return Hypergraph(params, sockets)


def sample_balls_in_bins(params: EnsembleParams, rng: np.random.Generator) -> Hypergraph:
    """Equivalent two-stage sampler: vertex socket counts first, then a uniform matching.

    Counts are multinomial(n*l; uniform over m) -- the law of i.i.d. Poisson degrees
    conditioned on total n*l, for any Poisson rate.  A uniform random bijection between
    edge sockets and vertex sockets then yields the same distribution as sample_uniform.
    """
    nl = params.n * params.l
    counts = rng.multinomial(nl, np.full(params.m, 1.0 / params.m))
    vertex_sockets = np.repeat(np.arange(params.m, dtype=np.int64), counts)
    matching = rng.permutation(nl)
    sockets = vertex_sockets[matching].reshape(params.n, params.l)
    return Hypergraph(params, sockets)


def degree_profile(H: Hypergraph) -> DegreeProfile:
    deg = np.bincount(H.sockets.ravel(), minlength=H.params.m)
    z1 = int(np.count_nonzero(deg == 1))
    z2 = int(np.count_nonzero(deg >= 2))
    return DegreeProfile(H.params.m - z1 - z2, z1, z2)


_PROFILE_CHUNK = 512    # multinomial degree draws per vectorized pass


def sample_profiles(params: EnsembleParams, reps: int,
                    rng: np.random.Generator) -> np.ndarray:
    """(reps, 2) array of initial (z1, z2) draws, without materializing graphs.

    The profile depends on the socket table only through the vertex degree counts,
    which are multinomial; sampling those directly is exact and much faster.
    ValueError for reps not an integer >= 0, before any draw.
    """
    _require_int("reps", reps, 0)
    out = np.empty((reps, 2), dtype=np.int64)
    pvals = np.full(params.m, 1.0 / params.m)
    done = 0
    while done < reps:
        b = min(_PROFILE_CHUNK, reps - done)
        counts = rng.multinomial(params.n * params.l, pvals, size=b)
        out[done:done + b, 0] = (counts == 1).sum(axis=1)
        out[done:done + b, 1] = (counts >= 2).sum(axis=1)
        done += b
    return out


# ---------------------------------------------------------------------------
# exact counting


@lru_cache(maxsize=32)
def _log_factorials(nmax: int) -> np.ndarray:
    lf = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, nmax + 1)))])
    lf.flags.writeable = False
    return lf


def _log_coeff_columns(t: int, s_max: int):
    """Yield, for s = 0..s_max, the column log coeff[(e^x - 1 - x)^t', x^s] over
    t' = 0..t (-inf where zero).

    With g = e^x - 1 - x, g' = g + x, so s c(s,t) = t (c(s-1,t) + c(s-2,t-1)):
    the 2-associated Stirling numbers of the second kind scaled by t!/s!
    (Comtet 1974).  Both terms are nonnegative, so the log-space sum has no
    cancellation; only the two previous columns are kept.
    """
    log_t = np.log(np.arange(1, t + 1))
    prev, col = np.full(t + 1, -np.inf), np.full(t + 1, -np.inf)   # s = -1, s = 0
    col[0] = 0.0
    yield col
    for s in range(1, s_max + 1):
        nxt = np.empty(t + 1)
        nxt[0] = -np.inf
        np.logaddexp(col[1:], prev[:-1], out=nxt[1:])
        nxt[1:] += log_t - math.log(s)
        prev, col = col, nxt
        yield col


def log_coeff_band(t_lo: int, t_hi: int, s_max: int) -> np.ndarray:
    """Rows t_lo..t_hi of log coeff[(e^x - 1 - x)^t, x^s], s = 0..s_max, from one
    column pass.  Entry t of a column depends on nothing above t, so each row
    equals its one-row pass bit for bit."""
    band = np.empty((s_max + 1, t_hi - t_lo + 1))
    for s, col in enumerate(_log_coeff_columns(t_hi, s_max)):
        band[s] = col[t_lo:]
    return band.T


@lru_cache(maxsize=256)
def log_coeff_rows(t: int, s_max: int) -> np.ndarray:
    """Row of log coeff[(e^x - 1 - x)^t, x^s] for s = 0..s_max (-inf where zero).

    One pass over s with O(t + s_max) memory and no recursion.
    """
    row = log_coeff_band(t, t, s_max)[0]
    row.flags.writeable = False
    return row


def _exact_state(profile, tau, n: int) -> tuple:
    """(z1, z2, tau) as ints; ValueError unless all are integral and 0 <= tau <= n."""
    vals = (profile[0], profile[1], tau)
    if not all(float(v).is_integer() for v in vals):
        raise ValueError(f"profile {tuple(vals[:2])} and step {tau} must be integers")
    z1, z2, tau = map(int, vals)
    if not 0 <= tau <= n:
        raise ValueError(f"step tau = {tau} outside [0, n = {n}]")
    return z1, z2, tau


def _empty_class(z1, z2, s, m: int):
    """True (elementwise for arrays) where no ensemble element has profile
    (z1, z2) with degree mass s left for the z2 class."""
    return (z1 < 0) | (z2 < 0) | (z1 + z2 > m) | (s < 2 * z2) | ((z2 == 0) & (s != 0))


def log_ensemble_count(profile, tau: int, params: EnsembleParams) -> float:
    """log of the number of ensemble elements that reach z = (z1, z2) at step tau.

    The count is C(m; z1, z2, z0) * C(n, tau) * ((n-tau)l)! *
    coeff[(e^x - 1 - x)^z2, x^((n-tau)l - z1)]; -inf signals an empty class
    (infeasible profile), not an error.  ValueError for non-integral entries
    or tau outside [0, n].
    """
    n, m, l = params.n, params.m, params.l
    z1, z2, tau = _exact_state(profile, tau, n)
    s = (n - tau) * l - z1  # degree mass left for the z2 class
    if _empty_class(z1, z2, s, m):
        return -np.inf
    z0 = m - z1 - z2
    lc = log_coeff_rows(z2, (n - tau) * l)[s]
    lf = _log_factorials(max(n, (n - tau) * l, m))
    out = lf[m] - lf[z1] - lf[z2] - lf[z0]        # C(m; z1, z2, z0)
    out += lf[n] - lf[tau] - lf[n - tau]          # C(n, tau)
    out += lf[(n - tau) * l]                       # socket orderings
    out += lc
    return float(out)


def initial_moments(l: int, rho: float):
    """Mean fractions y(0) and profile covariance-rate Q(0) of (z1, z2)/n at tau = 0,
    for edge size l >= 3 and density rho = m/n > 0.

    Closed forms in gamma = l/rho; Q(0) is the n->infinity covariance of
    (z1, z2)/sqrt(n) and is positive definite for gamma > 0.
    """
    if l < 3 or not rho > 0.0:
        raise ValueError(f"need l >= 3 and rho > 0, got l={l}, rho={rho}")
    g = l / rho
    eg = math.exp(-g)
    y0 = np.array([l * eg, rho * (1.0 - eg) - l * eg])
    e2 = math.exp(-2.0 * g)
    q11 = l * e2 * (math.expm1(g) + g - g * g)
    q12 = -l * e2 * (math.expm1(g) - g * g)
    q22 = (l / g) * e2 * (math.expm1(g) + g * (math.exp(g) - 2.0) - g * g * (1.0 + g))
    Q0 = np.array([[q11, q12], [q12, q22]])
    return y0, Q0
