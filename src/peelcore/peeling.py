"""Leaf removal: sequential random-order peeling, deterministic 2-core extraction,
stopping sets, and core-onset detection along incremental edge streams.

The 2-core (every incident vertex covered >= 2 times) is the unique maximum
stopping set, hence independent of removal order; the sequential peel below is
the order the profile chain is defined with, while the batch peel exploits
order invariance for speed: each step removes, at once, every edge incident to
a vertex whose degree has just fallen to 1, so it visits only the frontier.
Each vertex keeps its live degree and the sum of its live incident edge ids,
so at degree 1 the sum is the id of its last live edge.

The onset of an edge stream is the first prefix length whose 2-core is
nonempty.  The core is monotone under edge addition and idempotent, so
Core(t) = core(Core(t+1) minus edge t) for the prefix cores Core(t): one
reverse deletion pass from the full-stream core visits every Core(t), and the
onset is one past the index at which that pass empties the core.  The reverse
pass runs on the batch peel's state and frontier step, every stream on its
own schedule: a stream deletes its next top edge only once its last cascade
has finished.  Its top pointer walks over the edges of its full-stream core
only, so an edge outside that core costs no step; a core edge that an earlier
cascade already killed costs a step but no deletion.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .ensemble import Hypergraph

__all__ = [
    "PeelTrajectory",
    "peel",
    "core_of",
    "batch_core_mask",
    "check_id_range",
    "is_stopping_set",
    "brute_force_max_stopping_set",
    "onset_edge_count",
    "batch_onset_edge_counts",
]


@dataclass(frozen=True)
class PeelTrajectory:
    """Profile path (z1, z2)(tau) for tau = 0..n, frozen after the stop time.

    stop_time is the first tau with z1 = 0; the surviving v-nodes are the
    2-core and S counts them (S = n - stop_time when the core is nonempty).
    """

    profiles: np.ndarray          # (n+1, 2) int
    stop_time: int
    core_vnodes: frozenset
    core_edge_count: int


def _initial_degree_state(H: Hypergraph):
    m = H.params.m
    deg = np.bincount(H.sockets.ravel(), minlength=m).astype(np.int64)
    z1 = int(np.count_nonzero(deg == 1))
    z2 = int(np.count_nonzero(deg >= 2))
    return deg, z1, z2


def peel(H: Hypergraph, rng: np.random.Generator) -> PeelTrajectory:
    """Sequential peel: repeatedly delete a uniformly random degree-1 vertex's edge
    together with all edges of its v-node, recording the profile after each step."""
    n, l, m = H.params.n, H.params.l, H.params.m
    sockets = H.sockets
    deg, z1, z2 = _initial_degree_state(H)

    # vertex -> incident v-nodes with multiplicity (lists never shrink; rely on alive[])
    incident = [[] for _ in range(m)]
    for i in range(n):
        for a in sockets[i]:
            incident[a].append(i)
    alive = np.ones(n, dtype=bool)

    # degree-1 pool with O(1) uniform pick/remove (swap with last)
    pool = [a for a in range(m) if deg[a] == 1]
    pos = {a: i for i, a in enumerate(pool)}

    def pool_remove(a):
        i = pos.pop(a)
        last = pool.pop()
        if last != a:
            pool[i] = last
            pos[last] = i

    def pool_add(a):
        pos[a] = len(pool)
        pool.append(a)

    profiles = np.empty((n + 1, 2), dtype=np.int64)
    profiles[0] = (z1, z2)
    tau = 0
    while pool:
        a = pool[rng.integers(len(pool))]
        # unique remaining edge at a: its v-node is the one still alive
        v = next(i for i in incident[a] if alive[i])
        alive[v] = False
        for b in sockets[v]:
            d = deg[b]
            deg[b] = d - 1
            if d == 1:
                z1 -= 1
                pool_remove(b)
            elif d == 2:
                z2 -= 1
                z1 += 1
                pool_add(b)
        tau += 1
        profiles[tau] = (z1, z2)
    profiles[tau:] = profiles[tau]
    core = frozenset(np.flatnonzero(alive).tolist())
    return PeelTrajectory(profiles, tau, core, len(core))


def core_of(H: Hypergraph):
    """Deterministic 2-core: (sorted core v-node array, residual vertex degrees)."""
    alive = batch_core_mask(H.sockets[None, :, :], H.params.m)[0]
    core = np.flatnonzero(alive)
    deg = np.bincount(H.sockets[alive].ravel(), minlength=H.params.m).astype(np.int64)
    return core, deg


def batch_core_mask(sockets: np.ndarray, m: int) -> np.ndarray:
    """Vectorized frontier peel over a batch: sockets (R, n, l) -> alive mask (R, n).

    Replicate r's vertices are offset by r*m, so the block peels as one graph
    of R*m vertices and R*n edges.  Each vertex keeps its live degree and the
    sum of its live incident edge ids over sockets (with multiplicity), so a
    vertex of degree 1 names its last live edge without an incidence table.
    A step kills the distinct edges named by the frontier (the vertices whose
    degree fell to 1 in the previous step), subtracts their sockets from the
    degrees and id-sums, and takes as the next frontier the touched vertices
    now of degree 1.  After the O(R*(n*l + m)) set-up, work is proportional to
    the killed sockets plus a fixed cost per step, and a finished replicate
    costs nothing.  The fixpoint is each replicate's 2-core.

    Raises ValueError, before any pass over the data, for an m that is not a
    positive integer, for a socket table that is not 3-D, for a non-integer
    socket table, which the int32 cast would silently truncate, and when R*m
    or R*n*l reaches 2**31, past which the int32 vertex and edge ids would
    wrap; and for a socket outside [0, m), which would otherwise alias into a
    neighbouring replicate's vertices.
    """
    peel = _FrontierPeel(sockets, m)
    return peel.alive.reshape(peel.shape[:2])


def check_id_range(R: int, n: int, l: int, m: int):
    """Raise ValueError when a batch of R graphs of n edges of size l over m
    vertices has R*m or R*n*l at 2**31, past which the batch peel's int32
    vertex and edge ids would wrap."""
    if R * m >= 2**31 or R * n * l >= 2**31:
        raise ValueError(f"R*m = {R * m} and R*n*l = {R * n * l} must stay below "
                         f"2**31, the range of the int32 vertex and edge ids")


class _FrontierPeel:
    """Live degrees and id-sums of a batch peeled to its 2-core, and the
    frontier step that peels it.

    A vertex's id-sum is the int64 sum of its live incident edge ids, counted
    with multiplicity, so at degree 1 it is the id of the last live edge.  Ids
    stay below R*n and degrees below R*n*l, both under 2**31, so a sum stays
    below 2**62 and cannot overflow.

    The (R*n, l) edge table is stored as int32, half the memory of intp.  A
    step gathers with `ndarray.take` and casts the sockets it gathers to intp
    once, because numpy's gathers and `ufunc.at` take their fast path only for
    intp indices; every other index a step uses is intp already.
    """

    def __init__(self, sockets: np.ndarray, m: int):
        if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
            raise ValueError(f"m must be a positive integer, got {m!r}")
        self.m = m = int(m)
        sockets = np.asarray(sockets)
        if sockets.ndim != 3:
            raise ValueError(f"sockets must be a 3-D (R, n, l) array, got shape {sockets.shape}")
        R, n, l = self.shape = sockets.shape
        check_id_range(R, n, l, m)
        if not np.issubdtype(sockets.dtype, np.integer):
            raise ValueError(f"sockets must have an integer dtype, got {sockets.dtype}")
        if sockets.size:
            lo, hi = sockets.min(), sockets.max()
            if lo < 0 or hi >= m:
                raise ValueError(f"sockets must lie in [0, {m}), got range [{lo}, {hi}]")
        edges = sockets.astype(np.int32)
        edges += (np.arange(R, dtype=np.int32) * np.int32(m))[:, None, None]
        self.edges = edges.reshape(R * n, l)
        self.deg = np.bincount(self.edges.ravel(), minlength=R * m)
        self.idsum = np.zeros(R * m, dtype=np.int64)
        ids = np.arange(R * n, dtype=np.int64)
        for col in self.edges.T:
            np.add.at(self.idsum, col, ids)
        self.alive = np.ones(R * n, dtype=bool)
        self._slot = np.empty(R * n, dtype=np.int32)
        frontier = np.flatnonzero(self.deg == 1)
        while frontier.size:
            frontier, _ = self.step(frontier)

    def step(self, frontier: np.ndarray, extra=None):
        """Kill the distinct edges named by the frontier's id-sums, plus the
        live edges `extra` that no frontier vertex names; return the next
        frontier (touched vertices now of degree 1) and the killed edge ids."""
        named = self.idsum.take(frontier)
        # distinct edges without a sort: one write per name survives in slot,
        # whichever it is, and exactly that position reads its own index back
        at = np.arange(named.size, dtype=np.int32)
        self._slot[named] = at
        dead = named[self._slot.take(named) == at]
        if extra is not None:
            dead = np.concatenate((dead, extra))
        self.alive[dead] = False
        touched = self.edges.take(dead, axis=0).ravel().astype(np.intp)
        np.subtract.at(self.deg, touched, 1)
        np.subtract.at(self.idsum, touched, dead.repeat(self.shape[2]))
        return touched[self.deg.take(touched) == 1], dead


def is_stopping_set(H: Hypergraph, vset) -> bool:
    """True iff every vertex touched by the v-nodes in vset is touched >= 2 times.

    vset is a set of v-node ids: ValueError for an id that is not an integer,
    lies outside [0, n) or is repeated."""
    ids = list(vset)
    if not all(isinstance(i, numbers.Integral) for i in ids):
        raise ValueError(f"v-node ids must be integers, got {vset!r}")
    idx = np.array(ids, dtype=np.int64)
    if len(idx) == 0:
        return True
    if idx.min() < 0 or idx.max() >= H.params.n:
        raise ValueError(f"v-node ids must lie in [0, {H.params.n}), got {vset!r}")
    if len(np.unique(idx)) < len(idx):
        raise ValueError(f"v-node ids must be distinct, got {vset!r}")
    deg = np.bincount(H.sockets[idx].ravel(), minlength=H.params.m)
    return not np.any(deg == 1)


def brute_force_max_stopping_set(H: Hypergraph) -> frozenset:
    """Exhaustive maximum stopping set; unique because stopping sets are union-closed.

    Exponential in n; guarded at n <= 20.
    """
    n, m = H.params.n, H.params.m
    if n > 20:
        raise ValueError(f"subset enumeration guarded at n <= 20, got n = {n}")
    # per-v-node vertex hit counts, then subset degree = mask-matrix product
    counts = np.zeros((n, m), dtype=np.int64)
    for i in range(n):
        counts[i] = np.bincount(H.sockets[i], minlength=m)
    best_mask, best_size = 0, -1
    n_masks = 1 << n
    bits = 1 << np.arange(n, dtype=np.int64)
    chunk = 1 << 14
    for start in range(0, n_masks, chunk):
        masks = np.arange(start, min(start + chunk, n_masks), dtype=np.int64)
        sel = (masks[:, None] & bits[None, :]) != 0           # (chunk, n)
        deg = sel @ counts                                    # (chunk, m)
        ok = ~np.any(deg == 1, axis=1)
        sizes = sel.sum(axis=1)
        sizes[~ok] = -1
        j = int(np.argmax(sizes))
        if sizes[j] > best_size:
            best_size = int(sizes[j])
            best_mask = int(masks[j])
    return frozenset(i for i in range(n) if best_mask >> i & 1)


def onset_edge_count(edge_stream: np.ndarray, m: int) -> int:
    """Smallest prefix length of the edge stream whose hypergraph has a nonempty
    core, or n_max + 1 if even the whole stream has none: the one-stream form
    of `batch_onset_edge_counts` and its reverse pass."""
    edge_stream = np.asarray(edge_stream)
    if edge_stream.ndim != 2:
        raise ValueError(f"edge_stream must be a 2-D (n_max, l) array, "
                         f"got shape {edge_stream.shape}")
    return int(batch_onset_edge_counts(edge_stream[None], m)[0])


def batch_onset_edge_counts(sockets: np.ndarray, m: int) -> np.ndarray:
    """Onset for a batch of edge streams, sockets (R, n_max, l) -> (R,) int64.

    One frontier peel gives each stream's full-stream core, and the reverse
    pass runs on the same state and step.  Within a step, a stream with
    frontier vertices pending keeps cascading, and one with none moves its top
    pointer down to the next edge of its full core and deletes that edge if it
    is still live: the walk steps over full-core edges only, so an edge outside
    the full core costs no step, and one that an earlier cascade killed costs a
    step but no deletion.  When a stream's live-edge count reaches 0, its onset
    is one past its top pointer, the last edge it deleted that way.  A stream
    whose full core is empty gets the sentinel n_max + 1.
    """
    peel = _FrontierPeel(sockets, m)
    R, n, _ = peel.shape
    m = peel.m
    live = peel.alive.reshape(R, n).sum(axis=1)
    # below[p]: the largest full-core position <= p of the flat stream table;
    # a stream with live edges has one below its top, so it never reads past
    # its own first edge
    below = np.maximum.accumulate(np.where(peel.alive, np.arange(R * n), -1))
    start = np.arange(R, dtype=np.int64) * n
    top = start + n         # flat position of each stream's top pointer
    frontier = np.empty(0, dtype=np.intp)
    while True:
        walking = live > 0
        walking[frontier // m] = False
        walk = walking.nonzero()[0]
        if not (walk.size or frontier.size):
            return top - start + 1
        cand = below.take(top.take(walk) - 1)
        top[walk] = cand
        frontier, dead = peel.step(frontier, cand[peel.alive.take(cand)])
        live -= np.bincount(dead // n, minlength=R)
