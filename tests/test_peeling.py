"""Peeling, 2-core extraction, stopping sets, and onset detection."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peelcore.ensemble import EnsembleParams, Hypergraph, sample_uniform
from peelcore.peeling import (
    batch_core_mask,
    batch_onset_edge_counts,
    brute_force_max_stopping_set,
    core_of,
    is_stopping_set,
    onset_edge_count,
    peel,
)


def _graph(l, m, rows):
    sockets = np.array(rows, dtype=np.int64)
    return Hypergraph(EnsembleParams(l, sockets.shape[0], m), sockets)


def test_fully_peelable_graph():
    # a path-like graph: vertex 3 has degree 1, peeling cascades to empty
    H = _graph(3, 4, [[0, 1, 2], [1, 2, 3]])
    core, deg = core_of(H)
    assert core.size == 0
    assert not deg.any()
    traj = peel(H, np.random.default_rng(0))
    assert traj.stop_time == 2
    assert traj.core_edge_count == 0
    assert traj.core_vnodes == frozenset()


def test_graph_that_is_all_core():
    # two identical edges: every touched vertex has degree 2
    H = _graph(3, 3, [[0, 1, 2], [0, 1, 2]])
    core, deg = core_of(H)
    assert list(core) == [0, 1]
    assert deg.tolist() == [2, 2, 2]
    traj = peel(H, np.random.default_rng(0))
    assert traj.stop_time == 0
    assert traj.core_vnodes == frozenset({0, 1})


def test_repeated_vertex_within_edge_counts_multiplicity():
    # one edge hitting vertex 0 twice and vertex 1 once: vertex 1 is a leaf,
    # so the edge peels even though vertex 0 has degree 2
    H = _graph(3, 2, [[0, 0, 1]])
    core, _ = core_of(H)
    assert core.size == 0
    # all three sockets on one vertex: degree 3, no leaf, edge is core
    H2 = _graph(3, 1, [[0, 0, 0]])
    core2, deg2 = core_of(H2)
    assert list(core2) == [0] and deg2.tolist() == [3]


def test_peel_profile_bookkeeping():
    H = _graph(3, 5, [[0, 1, 2], [2, 3, 4], [0, 1, 4]])
    traj = peel(H, np.random.default_rng(1))
    n = 3
    assert traj.profiles.shape == (n + 1, 2)
    # initial profile: all five vertices hit, deg = (2,2,2,1,2) -> z1=1, z2=4
    assert traj.profiles[0].tolist() == [1, 4]
    # stop time is the first index with z1 = 0
    z1 = traj.profiles[:, 0]
    first_zero = int(np.argmax(z1 == 0)) if (z1 == 0).any() else n
    assert traj.stop_time == first_zero
    # frozen after the stop
    for t in range(traj.stop_time, n + 1):
        assert traj.profiles[t].tolist() == traj.profiles[traj.stop_time].tolist()
    assert np.all(traj.profiles >= 0)


def test_peel_core_independent_of_removal_order():
    params = EnsembleParams(3, 40, 44)
    rng = np.random.default_rng(5)
    for _ in range(25):
        H = sample_uniform(params, rng)
        cores = {peel(H, np.random.default_rng(k)).core_vnodes for k in range(4)}
        assert len(cores) == 1
        core, _ = core_of(H)
        assert cores.pop() == frozenset(core.tolist())


def test_core_against_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(120):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(2, 9))
        H = sample_uniform(EnsembleParams(3, n, m), rng)
        assert frozenset(core_of(H)[0].tolist()) == brute_force_max_stopping_set(H)


def test_core_is_maximum_stopping_set_property():
    # the core is a stopping set and contains any other stopping set
    rng = np.random.default_rng(13)
    for _ in range(40):
        H = sample_uniform(EnsembleParams(3, 8, 7), rng)
        core = frozenset(core_of(H)[0].tolist())
        assert is_stopping_set(H, core)
        best = brute_force_max_stopping_set(H)
        assert core == best


def test_is_stopping_set_examples():
    H = _graph(3, 3, [[0, 1, 2], [0, 1, 2], [0, 1, 2]])
    assert is_stopping_set(H, frozenset())
    assert is_stopping_set(H, {0, 1})
    assert not is_stopping_set(H, {0})
    assert is_stopping_set(H, np.array([0, 1, 2]))


@pytest.mark.parametrize("vset", [[3, 3], [2.7], [-1], [4], np.array([1.0])])
def test_is_stopping_set_rejects_bad_ids(vset):
    # v-node 3 alone is no stopping set: vertices 2, 3, 4 are each touched once
    H = _graph(3, 5, [[0, 1, 2], [0, 1, 2], [0, 1, 2], [2, 3, 4]])
    assert not is_stopping_set(H, {3})
    with pytest.raises(ValueError, match="v-node ids"):
        is_stopping_set(H, vset)


def test_batch_core_mask_matches_single():
    params = EnsembleParams(3, 30, 33)
    rng = np.random.default_rng(21)
    tables = np.stack([sample_uniform(params, rng).sockets for _ in range(64)])
    masks = batch_core_mask(tables, params.m)
    for i in range(64):
        H = Hypergraph(params, tables[i])
        assert np.array_equal(np.flatnonzero(masks[i]), core_of(H)[0])


def test_batch_core_mask_on_edge_subtables():
    H = _graph(3, 3, [[0, 1, 2], [0, 1, 2], [0, 1, 2]])
    tables = H.sockets[None]
    full = batch_core_mask(tables, 3)
    assert full.sum() == 3
    # restricting to a single edge breaks the cover, core empties
    assert batch_core_mask(tables[:, [True, False, False]], 3).sum() == 0
    # two edges still cover each vertex twice
    assert batch_core_mask(tables[:, [True, True, False]], 3).sum() == 2


def _linear_onset(stream, m):
    """Reference onset: peel every prefix of the stream until one has a core."""
    for t in range(1, stream.shape[0] + 1):
        if batch_core_mask(stream[None, :t, :], m)[0].any():
            return t
    return stream.shape[0] + 1


def test_onset_matches_linear_scan():
    m = 40
    rng = np.random.default_rng(3)
    stream = rng.integers(0, m, size=(60, 3))
    assert onset_edge_count(stream, m) == _linear_onset(stream, m)
    # batch version agrees replicate by replicate
    streams = rng.integers(0, m, size=(20, 60, 3))
    counts = batch_onset_edge_counts(streams, m)
    for i in range(20):
        assert counts[i] == onset_edge_count(streams[i], m)
        assert counts[i] == _linear_onset(streams[i], m)


def test_onset_no_core_sentinel():
    # pairwise-disjoint edges never build a core
    stream = np.arange(12, dtype=np.int64).reshape(4, 3)
    assert onset_edge_count(stream, 12) == 5
    counts = batch_onset_edge_counts(stream[None], 12)
    assert counts.tolist() == [5]


def test_onset_immediate_core():
    stream = np.array([[0, 0, 0], [1, 2, 3]], dtype=np.int64)
    assert onset_edge_count(stream, 4) == 1


@st.composite
def _tiny_stream(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    l = draw(st.integers(min_value=3, max_value=5))
    n = draw(st.integers(min_value=0, max_value=12))
    rows = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=l, max_size=l),
                         min_size=n, max_size=n))
    return m, np.array(rows, dtype=np.int64).reshape(n, l)


@given(_tiny_stream())
@settings(max_examples=300, deadline=None)
def test_onset_matches_brute_force_oracle(case):
    # few vertices, so repeated vertices inside an edge are common
    m, stream = case
    n, l = stream.shape
    expected = next((t for t in range(1, n + 1) if brute_force_max_stopping_set(
        Hypergraph(EnsembleParams(l, t, m), stream[:t]))), n + 1)
    assert onset_edge_count(stream, m) == expected


@pytest.mark.parametrize("rows", [([[3, 4, 5]], [[0, 1, 2]]),
                                  ([[0, 1, 2]], [[-3, -2, -1]])])
def test_batch_core_mask_rejects_out_of_range_socket(rows):
    # unchecked, either out-of-range edge aliases onto the other replicate's
    # edge at m = 3 and the batch reports a 2-edge core that does not exist
    with pytest.raises(ValueError, match="sockets must lie in"):
        batch_core_mask(np.array(rows, dtype=np.int64), 3)


@pytest.mark.parametrize("bad", [-1, 4])
def test_batch_onset_rejects_out_of_range_socket(bad):
    streams = np.array([[[0, 1, 2], [0, 1, 2]], [[0, 1, 2], [0, 1, 2]]], dtype=np.int64)
    streams[0, 1, 0] = bad
    with pytest.raises(ValueError, match="sockets must lie in"):
        batch_onset_edge_counts(streams, 4)


@pytest.mark.parametrize("call", [
    lambda s: batch_core_mask(s, 4),
    lambda s: batch_onset_edge_counts(s, 4),
    lambda s: core_of(Hypergraph(EnsembleParams(3, 5, 4), s[0])),
], ids=["batch_core_mask", "batch_onset_edge_counts", "core_of"])
def test_peel_entry_points_reject_float_sockets(call):
    # in range [0, 4), so only the dtype check can refuse the table; the int32
    # cast would read vertex 2.7 as vertex 2
    sockets = np.random.default_rng(7).uniform(0.0, 4.0, size=(2, 5, 3))
    with pytest.raises(ValueError, match="integer dtype"):
        call(sockets)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.int64, np.uint64,
                                   "reversed view", "strided view"])
def test_peel_entry_points_agree_across_socket_dtypes(dtype):
    m = 60
    sockets = np.random.default_rng(8).integers(0, m, size=(6, 80, 3))
    if dtype == "reversed view":
        table = sockets[:, ::-1][:, ::-1]
    elif dtype == "strided view":
        table = np.repeat(sockets, 2, axis=1)[:, ::2]
        assert not table.flags.c_contiguous
    else:
        table = sockets.astype(dtype)
    assert np.array_equal(batch_core_mask(table, m), batch_core_mask(sockets, m))
    assert np.array_equal(batch_onset_edge_counts(table, m),
                          batch_onset_edge_counts(sockets, m))
    assert onset_edge_count(table[2], m) == batch_onset_edge_counts(sockets, m)[2]


@pytest.mark.parametrize("call", [
    lambda s, m: batch_core_mask(s, m),
    lambda s, m: batch_onset_edge_counts(s, m),
    lambda s, m: onset_edge_count(s[0], m),
], ids=["batch_core_mask", "batch_onset_edge_counts", "onset_edge_count"])
def test_peel_entry_points_name_a_bad_argument(call):
    # a zero-stride table of 2**40 sockets: each refusal comes before any pass
    # over the data
    huge = np.broadcast_to(np.zeros(1, dtype=np.int64), (2**24, 2**14, 4))
    for m in (3.0, 0, True, "3"):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            call(huge, m)
    with pytest.raises(ValueError, match=r"sockets must be a 3-D|edge_stream must be a 2-D"):
        call(np.zeros((5, 3), dtype=np.int64), 4)
    # a numpy integer m works too, uint64 included, whose floor division of
    # an intp array would give float vertex indices
    assert np.array_equal(call(np.zeros((2, 4, 3), dtype=np.int64), np.uint64(4)),
                          call(np.zeros((2, 4, 3), dtype=np.int64), 4))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_core_fixpoint_property(seed):
    # peeling the core changes nothing, and the complement of the core
    # peels to empty when taken alone
    rng = np.random.default_rng(seed)
    H = sample_uniform(EnsembleParams(3, 15, 14), rng)
    core, deg = core_of(H)
    mask = np.zeros(15, dtype=bool)
    mask[core] = True
    again = batch_core_mask(H.sockets[None, mask], 14)[0]
    assert again.all()
    assert not batch_core_mask(H.sockets[None, ~mask], 14).any()
    if core.size:
        assert deg[np.unique(H.sockets[core].ravel())].min() >= 2


def _round_based_core_mask(sockets, m):
    """Reference peel: every round removes each edge incident to a degree-1
    vertex, rescanning all sockets of the batch, until a round removes none."""
    R, n, l = sockets.shape
    alive = np.ones((R, n), dtype=bool)
    flat = sockets + (np.arange(R, dtype=sockets.dtype) * m)[:, None, None]
    while True:
        deg = np.bincount(flat[alive].ravel(), minlength=R * m)
        kill = alive & (deg == 1)[flat].any(axis=2)
        if not kill.any():
            return alive
        alive &= ~kill


@st.composite
def _tiny_batch(draw):
    # few vertices, so repeated vertices inside an edge are common, and up to
    # six replicates, so vertex offsets between replicates are exercised
    l = draw(st.integers(min_value=2, max_value=5))
    m = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=0, max_value=12))
    R = draw(st.integers(min_value=1, max_value=6))
    flat = draw(st.lists(st.integers(0, m - 1), min_size=R * n * l, max_size=R * n * l))
    perm = draw(st.permutations(range(R)))
    return m, np.array(flat, dtype=np.int64).reshape(R, n, l), np.array(perm, dtype=np.int64)


@given(_tiny_batch())
@settings(max_examples=300, deadline=None)
def test_batch_core_mask_matches_round_based_and_brute_force(case):
    m, sockets, perm = case
    R, n, l = sockets.shape
    mask = batch_core_mask(sockets, m)
    assert mask.shape == (R, n) and mask.dtype == bool
    assert np.array_equal(mask, _round_based_core_mask(sockets, m))
    for r in range(R):
        # the brute force reads only params.n, params.m and sockets, while
        # EnsembleParams rejects the l = 2 and n = 0 drawn here
        H = SimpleNamespace(params=SimpleNamespace(n=n, m=m), sockets=sockets[r])
        assert frozenset(np.flatnonzero(mask[r]).tolist()) == brute_force_max_stopping_set(H)
    assert np.array_equal(batch_core_mask(sockets[perm], m), mask[perm])


@pytest.mark.parametrize("shape", [(0, 5, 3), (4, 0, 3), (0, 0, 2)])
def test_batch_core_mask_empty_shapes(shape):
    sockets = np.zeros(shape, dtype=np.int64)
    mask = batch_core_mask(sockets, 4)
    assert mask.shape == shape[:2] and mask.dtype == bool
    assert np.array_equal(mask, _round_based_core_mask(sockets, 4))
    # no stream has a core, so each gets the sentinel n_max + 1
    counts = batch_onset_edge_counts(sockets, 4)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.full(shape[0], shape[1] + 1))


@pytest.mark.parametrize("shape, m", [((2**16, 1, 3), 2**15),       # R*m = 2**31
                                      ((2**20, 2**10, 2), 4)])      # R*n*l = 2**31
def test_batch_core_mask_rejects_batches_past_int32_ids(shape, m):
    # zero strides: the table allocates nothing, so the check must come from
    # the shape before any pass over the data
    sockets = np.broadcast_to(np.zeros(1, dtype=np.int64), shape)
    with pytest.raises(ValueError, match=r"2\*\*31"):
        batch_core_mask(sockets, m)


def _reverse_onset(edges: list, alive: list, m: int) -> int:
    """Reference onset of one stream from its full-stream core `alive`: a
    pure-Python reverse pass that deletes edges n_max-1, n_max-2, ... and runs
    each cascade to its end, with per-vertex degrees and XORs of live ids."""
    deg = [0] * m
    xor = [0] * m
    live = 0
    for e, row in enumerate(edges):
        if alive[e]:
            live += 1
            for a in row:
                deg[a] += 1
                xor[a] ^= e
    t = len(edges)
    while live:
        t -= 1
        if not alive[t]:
            continue
        alive[t] = False
        stack = [t]
        while stack:
            e = stack.pop()
            live -= 1
            for a in edges[e]:
                deg[a] -= 1
                xor[a] ^= e
                if deg[a] == 1 and alive[xor[a]]:
                    alive[xor[a]] = False
                    stack.append(xor[a])
    return t + 1


@st.composite
def _tiny_stream_batch(draw):
    # streams of one batch advance on their own schedules, so a batch mixes
    # streams with nonempty full cores and streams built to have none
    l = draw(st.integers(min_value=2, max_value=5))
    m = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=0, max_value=14))
    R = draw(st.integers(min_value=1, max_value=6))
    streams = []
    for _ in range(R):
        if n < m and draw(st.booleans()):
            # edge i holds vertex pv[i] once and its other sockets in pv[i+1:],
            # so the edges peel in the order 0, 1, ...: the full core is empty
            pv = draw(st.permutations(range(m)))
            rows = [[pv[i]] + draw(st.lists(st.sampled_from(pv[i + 1:]),
                                            min_size=l - 1, max_size=l - 1))
                    for i in range(n)]
            rows = draw(st.permutations(rows))
        else:
            rows = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=l, max_size=l),
                                 min_size=n, max_size=n))
        streams.append(rows)
    perm = draw(st.permutations(range(R)))
    return m, np.array(streams, dtype=np.int64).reshape(R, n, l), np.array(perm, dtype=np.int64)


@given(_tiny_stream_batch())
@settings(max_examples=300, deadline=None)
def test_batch_onset_matches_reverse_walk_and_brute_force(case):
    m, streams, perm = case
    R, n, l = streams.shape
    counts = batch_onset_edge_counts(streams, m)
    assert counts.shape == (R,) and counts.dtype == np.int64
    alive = batch_core_mask(streams, m)
    for r in range(R):
        assert counts[r] == _reverse_onset(streams[r].tolist(), alive[r].tolist(), m)
        # the brute force reads only params.n, params.m and sockets
        expected = next((t for t in range(1, n + 1) if brute_force_max_stopping_set(
            SimpleNamespace(params=SimpleNamespace(n=t, m=m), sockets=streams[r, :t]))),
            n + 1)
        assert counts[r] == expected
    assert np.array_equal(batch_onset_edge_counts(streams[perm], m), counts[perm])


def _skip_walk_streams(n: int, l: int, rng):
    """Streams of n edges over m = 2n vertices, three of each kind: dense (over
    n/2 vertices), critical (over n vertices), a pendant tail, and an empty
    full core.  Returns (streams, m, tails): tails[r] is the first edge of a
    stretch built to hold no core edge (the pendant tail, or 0 for an empty
    full core), or None."""
    m = 2 * n
    streams, tails = [], []
    for kind in ("dense", "critical", "pendant", "empty") * 3:
        tail = None
        if kind in ("dense", "critical"):
            rows = rng.integers(0, n // 2 if kind == "dense" else n, size=(n, l))
        elif kind == "pendant":
            # a dense head, then 50-80% of the stream as edges that each hold a
            # fresh vertex once: the last edge peels first, then the one before
            tail = n - int(rng.integers(n // 2, 4 * n // 5 + 1))
            used = list(range(max(tail // 2, 1)))
            rows = [rng.integers(0, len(used), size=l) for _ in range(tail)]
            for j in range(n - tail):
                fresh = n + j
                rows.append(rng.permutation([fresh, *rng.choice(used, size=l - 1)]))
                used.append(fresh)
        else:
            # edge i holds pv[i] once and its other sockets in pv[i+1:], so
            # the edges peel in the order 0, 1, ...: the full core is empty
            pv = rng.permutation(m)
            rows = [[pv[i], *rng.choice(pv[i + 1:], size=l - 1)] for i in range(n)]
            rows = rng.permutation(rows)
            tail = 0
        streams.append(np.asarray(rows, dtype=np.int64).reshape(n, l))
        tails.append(tail)
    return np.stack(streams), m, tails


@pytest.mark.parametrize("n", [40, 120])
def test_onset_skip_walk_on_pendant_tails_and_empty_cores(n):
    # The onset walk jumps from core edge to core edge of the full-stream core.
    # At these sizes, far past the hypothesis test's, the pendant tails are
    # long runs of edges outside that core.  Every edge outside the core needs
    # a vertex of its own, so the streams have m = 2n vertices: at n = 2m no
    # stream could have an empty core or a pendant tail over half its length.
    streams, m, tails = _skip_walk_streams(n, 3, np.random.default_rng([17, n]))
    alive = batch_core_mask(streams, m)
    counts = batch_onset_edge_counts(streams, m)
    for r, tail in enumerate(tails):
        if tail is not None:
            # the construction does what it says: nothing from the tail on is core
            assert not alive[r, tail:].any()
            assert alive[r].any() == (tail > 0)
        expected = _reverse_onset(streams[r].tolist(), alive[r].tolist(), m)
        assert counts[r] == expected
        assert counts[r] == _linear_onset(streams[r], m)
        assert batch_onset_edge_counts(streams[r:r + 1], m)[0] == expected   # R = 1
    assert (counts == n + 1).sum() >= 3 and (counts <= n).sum() >= 9
