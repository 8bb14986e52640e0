"""Transition kernels: tilt functions, class probabilities, exact and large-n laws.

The frozen laws below come from exhaustive enumeration over all m^(n*l) socket
tables (with exact Fraction weights over leaf choices), independent of the
counting-based kernel implementation.
"""

import hashlib
import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from peelcore import ensemble, kernels
from peelcore.ensemble import EnsembleParams, degree_profile, log_ensemble_count, sample_uniform
from peelcore.kernels import (
    ProbTriple,
    _delete_leaf_vnode,
    _moves,
    _partner_slots,
    default_state_grid,
    f0_eval,
    f1_eval,
    f1_prime,
    kernel_max_discrepancy,
    p_triple,
    project_feasible,
    psi_eval,
    psi_prime,
    sample_conditional_steps,
    solve_lambda,
    w_exact,
    w_exact_states,
    w_hat,
)
from peelcore.peeling import peel


# conditional one-step increment laws at l = 3, n = 3, m = 4, from enumeration
# of all 4^9 tables and every leaf choice, exact rational arithmetic
ORACLE_TAU0 = {
    (3, 1): {(-3, 0): 1 / 28, (-2, 0): 12 / 28, (-1, 0): 15 / 28},
    (2, 2): {(-2, 0): 0.22321428571428573, (-1, -1): 0.04017857142857143,
             (-1, 0): 0.5357142857142857, (0, -1): 0.20089285714285715},
    (1, 3): {(-1, -1): 0.05102040816326531, (-1, 0): 0.2755102040816326,
             (0, -1): 0.6122448979591837, (1, -2): 0.061224489795918366},
    (2, 1): {(-2, 0): 0.25, (-1, 0): 0.75},
    (1, 2): {(-1, -1): 0.008403361344537815, (-1, 0): 0.8403361344537815,
             (0, -1): 0.15126050420168066},
    (1, 1): {(-1, 0): 1.0},
}
ORACLE_TAU1 = {
    (2, 1): {(-2, 0): 0.4, (-1, 0): 0.6},
    (1, 2): {(-1, -1): 0.1, (0, -1): 0.9},
    (1, 1): {(-1, 0): 1.0},
}


def _law(d):
    """A kernel's support as {(dz1, dz2): probability}."""
    inc, p = d.arrays()
    return dict(zip(map(tuple, inc.tolist()), p.tolist()))


@pytest.mark.parametrize("tau,oracle", [(0, ORACLE_TAU0), (1, ORACLE_TAU1)])
def test_exact_kernel_matches_enumeration(tau, oracle):
    params = EnsembleParams(3, 3, 4)
    for z, law in oracle.items():
        got = _law(w_exact(z, tau, params))
        assert set(got) == set(law)
        for k, v in law.items():
            assert got[k] == pytest.approx(v, abs=1e-12)


def test_exact_kernel_live_enumeration_n2():
    # independent in-test oracle at n = 2, m = 3 (729 tables), tau = 0
    from fractions import Fraction
    from collections import Counter
    l, n, m = 3, 2, 3
    acc, norm = {}, {}
    for tab in itertools.product(range(m), repeat=n * l):
        rows = [tab[:l], tab[l:]]
        deg = [0] * m
        for a in tab:
            deg[a] += 1
        z1 = sum(1 for d in deg if d == 1)
        z2 = sum(1 for d in deg if d >= 2)
        if z1 == 0:
            continue
        key = (z1, z2)
        acc.setdefault(key, Counter())
        norm.setdefault(key, Fraction(0))
        for a in range(m):
            if deg[a] != 1:
                continue
            v = 0 if a in rows[0] else 1
            d2 = list(deg)
            for b in rows[v]:
                d2[b] -= 1
            nz1 = sum(1 for d in d2 if d == 1)
            nz2 = sum(1 for d in d2 if d >= 2)
            w = Fraction(1, z1)
            acc[key][(nz1 - z1, nz2 - z2)] += w
            norm[key] += w
    params = EnsembleParams(l, n, m)
    for key, law in acc.items():
        got = _law(w_exact(key, 0, params))
        ref = {k: v / norm[key] for k, v in law.items()}
        assert set(got) == set(ref)
        for k, v in ref.items():
            assert got[k] == pytest.approx(float(v), abs=1e-12)


def test_identity_kernel_at_absorbed_state():
    params = EnsembleParams(3, 10, 12)
    d = w_exact((0, 5), 3, params)
    assert _law(d) == {(0, 0): 1.0}


def test_exact_kernel_rejects_infeasible():
    params = EnsembleParams(3, 2, 3)
    with pytest.raises(ValueError):
        w_exact((1, 0), 0, params)


@pytest.mark.parametrize("profile,tau", [
    ((2.7, 1), 0), ((2, 1.5), 0), ((2, 1), 0.5), ((0, 5), 99), ((2, 1), 5), ((2, 1), -1),
])
def test_exact_layer_rejects_garbage_inputs(profile, tau):
    # a non-integral entry used to be truncated, a step past n used to give
    # the identity kernel or an empty class
    params = EnsembleParams(3, 4, 5)
    calls = (
        lambda: w_exact(profile, tau, params),
        lambda: log_ensemble_count(profile, tau, params),
        lambda: sample_conditional_steps(profile, tau, params, 10,
                                         np.random.default_rng(0)),
    )
    for call in calls:
        with pytest.raises(ValueError, match="integers|outside"):
            call()


def test_array_kernel_matches_per_state_kernel():
    # every feasible state at one step, absorbed ones included, through one band
    params = EnsembleParams(3, 12, 15)
    tau = 3
    states = [(z1, z2) for z1 in range(16) for z2 in range(16 - z1)
              if log_ensemble_count((z1, z2), tau, params) > -np.inf]
    assert len(states) > 100
    for z, law in zip(states, w_exact_states(states, tau, params)):
        single, batch = _law(w_exact(z, tau, params)), _law(law)
        assert set(batch) == set(single)
        for k, v in single.items():
            assert batch[k] == pytest.approx(v, rel=1e-14, abs=0.0)


def test_kernels_normalized_without_renormalization_n12():
    params = EnsembleParams(3, 12, 15)
    checked = 0
    from peelcore.ensemble import log_ensemble_count
    for tau in range(0, 12):
        for z1 in range(1, 16):
            for z2 in range(0, 16 - z1):
                if log_ensemble_count((z1, z2), tau, params) == -np.inf:
                    continue
                tot = w_exact((z1, z2), tau, params).total()
                assert abs(tot - 1.0) < 1e-9, (z1, z2, tau, tot)
                checked += 1
    assert checked > 200


def test_approx_kernel_normalized_and_boxed():
    params = EnsembleParams(3, 100, 122)
    for x1, x2, th in [(0.3, 0.4, 0.0), (0.1, 0.9, 0.2), (0.0, 0.5, 0.5), (0.7, 0.2, 0.1)]:
        d = w_hat((x1, x2), th, params)
        assert d.total() == pytest.approx(1.0, abs=1e-12)
        assert d.support_in_box(3)


def test_exact_kernel_support_box():
    params = EnsembleParams(3, 12, 15)
    assert w_exact((5, 4), 2, params).support_in_box(3)
    assert w_exact((2, 8), 0, params).support_in_box(3)


# --- tilt functions ---


def test_tilt_closed_forms_at_one():
    e = math.e
    assert f0_eval(1.0) == pytest.approx(e - 2.0, rel=1e-14)
    assert psi_eval(1.0) == pytest.approx(1.0 / (e - 2.0), rel=1e-14)
    assert f1_eval(1.0) == pytest.approx(1.0 + 1.0 / (e - 2.0), rel=1e-14)
    assert psi_prime(1.0) == pytest.approx((e - 3.0) / (e - 2.0) ** 2, rel=1e-12)


def test_tilt_small_argument_series_continuity():
    # series/direct switchover at 0.1 must be seamless
    for f in (f0_eval, psi_eval, psi_prime, f1_eval, f1_prime):
        lo, hi = f(0.1 - 1e-12), f(0.1 + 1e-12)
        assert lo == pytest.approx(hi, rel=1e-9)
    # limits at 0: f0 -> 1/2, psi -> 2, f1 -> 2, psi' -> -2/3
    assert f0_eval(0.0) == pytest.approx(0.5, rel=1e-14)
    assert psi_eval(0.0) == pytest.approx(2.0, rel=1e-14)
    assert f1_eval(0.0) == pytest.approx(2.0, rel=1e-14)
    assert psi_prime(0.0) == pytest.approx(-2.0 / 3.0, rel=1e-12)


def test_f1_strictly_increasing():
    lam = np.linspace(0.0, 40.0, 4001)
    vals = np.array([f1_eval(x) for x in lam])
    assert np.all(np.diff(vals) > 0)


def test_solve_lambda_round_trip():
    for lam in [1e-8, 1e-4, 0.01, 0.09999, 0.10001, 0.5, 1.0, 1.2564312086261697,
                2.0, 5.0, 10.0, 30.0]:
        xi = f1_eval(lam)
        back = solve_lambda(float(xi))
        assert back == pytest.approx(lam, rel=1e-8, abs=1e-12)


def test_solve_lambda_boundary():
    assert solve_lambda(2.0) == 0.0
    # series/Newton switchover continuity around xi - 2 = 1e-6
    a = solve_lambda(2.0 + 0.99e-6)
    b = solve_lambda(2.0 + 1.01e-6)
    assert b > a > 0
    assert (b - a) / (a + b) < 0.02
    with pytest.raises(ValueError):
        solve_lambda(1.9)


def test_solve_lambda_at_exact_bisection_midpoint():
    # at the fixed point psi(lam) = lam the root is exactly xi/2; the solver
    # must converge to full precision there
    xi = 2.512862417252339
    lam = solve_lambda(xi)
    assert f1_eval(lam) == pytest.approx(xi, rel=1e-14)
    assert lam == pytest.approx(1.2564312086261697, rel=1e-12)
    assert psi_eval(lam) == pytest.approx(lam, rel=1e-10)


def test_solve_lambda_newton_falls_monotonically_onto_the_root(monkeypatch):
    # f1 is increasing and convex, so Newton from lam = xi decreases at every
    # step; each step evaluates f0 once, at the current iterate
    iterates = []
    real = kernels.f0_eval

    def recorded(lam):
        iterates.append(lam)
        return real(lam)

    monkeypatch.setattr(kernels, "f0_eval", recorded)
    for d in np.logspace(-6, 6, 601):
        xi = 2.0 + float(d)
        iterates.clear()
        lam = solve_lambda(xi)
        assert abs(lam + 1.0 / real(lam) - xi) <= 4e-15 * xi
        assert iterates[0] == xi and iterates[-1] == lam
        assert np.all(np.diff(iterates) < 0)
        assert len(iterates) <= kernels._NEWTON_MAX


# --- feasibility projection ---


def test_projection_identity_inside():
    x = project_feasible((0.3, 0.4), 0.2, 3)
    assert x.tolist() == [0.3, 0.4]


@given(
    st.floats(min_value=-2.0, max_value=5.0),
    st.floats(min_value=-2.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=150, deadline=None)
def test_projection_is_nearest_feasible(x1, x2, theta):
    L = 3 * (1.0 - theta)
    p = project_feasible((x1, x2), theta, 3)
    assert p[0] >= -1e-12 and p[1] >= -1e-12
    assert p[0] + 2 * p[1] <= L + 1e-9
    # no grid point of the feasible triangle is closer
    a = np.linspace(0, L, 60)
    b = np.linspace(0, L / 2, 60)
    A, B = np.meshgrid(a, b)
    ok = A + 2 * B <= L + 1e-12
    d_grid = ((A - x1) ** 2 + (B - x2) ** 2)[ok].min()
    d_proj = (p[0] - x1) ** 2 + (p[1] - x2) ** 2
    assert d_proj <= d_grid + 1e-6


# --- class probabilities ---


def test_p_triple_basic_conventions():
    p = p_triple((0.3, 0.5), 0.1, 3)
    assert p.p0 + p.p1 + p.p2 == pytest.approx(1.0, abs=1e-15)
    assert p.p0 == pytest.approx(0.3 / 2.7, rel=1e-14)
    assert min(p.p0, p.p1, p.p2) >= 0
    # negative x1 clamps to zero mass, not an error
    q = p_triple((-0.2, 0.5), 0.1, 3)
    assert q.p0 == 0.0
    # x2 = 0 degenerates
    r = p_triple((0.3, 0.0), 0.1, 3)
    assert (r.p1, r.p2) == (0.0, pytest.approx(1.0 - 0.3 / 2.7))
    assert r.lam == math.inf
    with pytest.raises(ValueError):
        p_triple((0.3, -0.1), 0.1, 3)
    with pytest.raises(ValueError):
        p_triple((5.0, 0.1), 0.1, 3)  # x1 beyond the slab


def test_p_triple_tilt_identity():
    # p1/p2 = psi(lam)/lam and p1 + p2 = x2 f1(lam)/L by construction
    x1, x2, th = 0.4, 0.6, 0.25
    p = p_triple((x1, x2), th, 3)
    L = 3 * (1 - th)
    assert f1_eval(p.lam) == pytest.approx((L - x1) / x2, rel=1e-12)
    assert p.p1 / p.p2 == pytest.approx(psi_eval(p.lam) / p.lam, rel=1e-10)


@pytest.mark.parametrize("call", [
    lambda: solve_lambda(math.nan),
    lambda: p_triple((0.3, 0.4), math.nan, 3),
    lambda: p_triple((math.nan, 0.4), 0.1, 3),
    lambda: p_triple((0.3, math.nan), 0.1, 3),
    lambda: ProbTriple(math.nan, 0.5, 0.5, 0.0),
], ids=["solve_lambda", "p_triple-theta", "p_triple-x1", "p_triple-x2", "ProbTriple"])
def test_nan_inputs_are_rejected(call):
    # each guard is the negation of its valid range, so NaN fails it
    with pytest.raises(ValueError):
        call()


def test_w_hat_corner_point_masses():
    params = EnsembleParams(3, 10, 12)
    L = 3.0
    d = w_hat((L, 0.0), 0.0, params)           # p0 = 1
    assert _law(d) == {(-3, 0): pytest.approx(1.0)}
    d2 = w_hat((0.0, 1e-15), 0.0, params)      # p2 = 1
    assert _law(d2) == {(-1, 0): pytest.approx(1.0)}


def test_w_hat_mean_formula():
    # mean = (-1 + (l-1)(p1 - p0), -(l-1) p1)
    params = EnsembleParams(3, 10, 12)
    x, th = (0.35, 0.55), 0.15
    p = p_triple(x, th, 3)
    mu = w_hat(x, th, params).mean()
    assert mu[0] == pytest.approx(-1 + 2 * (p.p1 - p.p0), abs=1e-12)
    assert mu[1] == pytest.approx(-2 * p.p1, abs=1e-12)


# --- exact kernel vs conditional resampling, and chain vs graph peel ---


@pytest.mark.parametrize("l,n,m,z,tau,seed", [
    (3, 15, 18, (6, 7), 2, 31),
    (4, 15, 20, (5, 8), 1, 41),
    (6, 10, 14, (4, 5), 2, 61),
], ids=["l3", "l4", "l6"])
def test_exact_kernel_matches_conditional_resampling(l, n, m, z, tau, seed):
    params = EnsembleParams(l, n, m)
    rng = np.random.default_rng(seed)
    draws = sample_conditional_steps(z, tau, params, 8000, rng)
    law = w_exact(z, tau, params)
    inc, p = law.arrays()
    keymap = {tuple(k): i for i, k in enumerate(inc)}
    counts = np.zeros(len(p))
    for d1, d2 in draws:
        counts[keymap[(int(d1), int(d2))]] += 1
    keep = p * 8000 >= 5
    obs, exp = counts[keep], p[keep] * 8000
    if not keep.all():
        obs = np.append(obs, counts[~keep].sum())
        exp = np.append(exp, p[~keep].sum() * 8000)
    res = stats.chisquare(obs, exp * (obs.sum() / exp.sum()))
    assert res.pvalue > 1e-3


def _arrangements(counts):
    """Every distinct sequence holding vertex i counts[i] times."""
    if not any(counts):
        yield ()
        return
    for i, c in enumerate(counts):
        if c:
            rest = list(counts)
            rest[i] -= 1
            for tail in _arrangements(rest):
                yield (i,) + tail


def test_leaf_vnode_draw_is_the_shuffle_marginal():
    # no sampling: the increment law over every arrangement of the socket
    # multiset and every leaf equals the law over every leaf and every ordered
    # choice of l - 1 partner slots among the other S - 1 sockets
    l, old = 3, (1, 1, 1, 2, 4)
    z1, S = 3, sum(old)

    def increment(new):
        return (sum(b == 1 for b in new) - sum(a == 1 for a in old),
                sum(b >= 2 for b in new) - sum(a >= 2 for a in old))

    shuffle = Counter()
    for arr in _arrangements(old):
        for leaf in range(z1):
            v = arr.index(leaf) // l
            new = list(old)
            for b in arr[v * l:(v + 1) * l]:
                new[b] -= 1
            shuffle[increment(new)] += 1
    choices = [(leaf, slots) for leaf in range(z1)
               for slots in itertools.permutations(range(S - 1), l - 1)]
    leaves, slots = map(np.array, zip(*choices))
    direct = Counter(increment(new) for new in
                     _delete_leaf_vnode(np.tile(old, (len(choices), 1)), leaves, slots))
    assert sum(shuffle.values()) == 7560 * z1
    assert set(shuffle) == set(direct) and len(direct) > 2
    for k in shuffle:
        assert abs(shuffle[k] / sum(shuffle.values())
                   - direct[k] / len(choices)) <= 1e-15


@pytest.mark.parametrize("l", [3, 4])
def test_partner_slots_are_a_uniform_subset(l):
    # l - 1 distinct slots of range(S - 1), every subset equally likely
    S, R = 7, 30_000
    slots = _partner_slots(S, l, R, np.random.default_rng(70 + l))
    assert slots.min() >= 0 and slots.max() <= S - 2
    slots.sort(axis=1)
    assert np.all(np.diff(slots, axis=1) > 0)
    _, counts = np.unique(slots, axis=0, return_counts=True)
    assert len(counts) == math.comb(S - 1, l - 1)
    assert stats.chisquare(counts).pvalue > 1e-3


@pytest.mark.parametrize("reps", [-1, 2.5, "10"])
def test_conditioned_steps_reject_bad_reps_before_drawing(reps, no_draws):
    with pytest.raises(ValueError, match="reps"):
        sample_conditional_steps((7, 9), 3, EnsembleParams(3, 20, 24), reps, no_draws)


def test_conditioned_steps_zero_reps_is_empty(no_draws):
    draws = sample_conditional_steps((7, 9), 3, EnsembleParams(3, 20, 24), 0, no_draws)
    assert draws.dtype == np.int64 and draws.shape == (0, 2)


# SHA-256 of the int64 bytes of the draws below, from the direct draw of the
# leaf's v-node that replaced the full socket shuffle
C05_STEPS_SHA256 = "3071663e584c96d0d4f18b838c6f5930d704661701a1e86974a330c4601ae0fe"


def test_conditioned_steps_pinned_at_c05_state():
    # c05's exact inputs; no RuntimeWarning may escape the table
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = sample_conditional_steps((7, 9), 3, EnsembleParams(3, 20, 24), 100_000,
                                         np.random.default_rng(52005))
    assert draws.dtype == np.int64 and draws.shape == (100_000, 2)
    assert hashlib.sha256(np.ascontiguousarray(draws).tobytes()).hexdigest() == C05_STEPS_SHA256


def _exact_chain(params, rng):
    """Profiles (n + 1, 2) of the chain driven by w_exact from a sampled initial
    profile, absorbed at z1 = 0, and its stop time (first tau with z1 <= 0, n if
    never)."""
    prof = degree_profile(sample_uniform(params, rng))
    z = np.array([prof.z1, prof.z2], dtype=np.int64)
    profiles = [z]
    stop = params.n if z[0] > 0 else 0
    for tau in range(params.n):
        if z[0] != 0:
            inc, p = w_exact(z, tau, params).arrays()
            z = z + inc[rng.choice(len(p), p=p / p.sum())]
            if z[0] <= 0 and stop == params.n:
                stop = tau + 1
        profiles.append(z)
    return np.array(profiles), stop


def test_exact_chain_matches_graph_peel():
    # the profile chain driven by the exact kernel reproduces the law of the
    # graph peel: compare stop times and mid-path profiles
    params = EnsembleParams(3, 14, 17)
    rng = np.random.default_rng(8)
    reps = 400
    stops_chain = np.empty(reps)
    stops_graph = np.empty(reps)
    mid_chain = np.empty(reps)
    mid_graph = np.empty(reps)
    for i in range(reps):
        profiles, stops_chain[i] = _exact_chain(params, rng)
        mid_chain[i] = profiles[5, 0]
        traj = peel(sample_uniform(params, rng), rng)
        stops_graph[i] = traj.stop_time
        mid_graph[i] = traj.profiles[5, 0]
    assert stats.ks_2samp(stops_chain, stops_graph).pvalue > 1e-3
    assert stats.ks_2samp(mid_chain, mid_graph).pvalue > 1e-3


def test_discrepancy_positive_and_decreasing():
    d16 = kernel_max_discrepancy(16, 1.2218)
    d48 = kernel_max_discrepancy(48, 1.2218)
    assert d16 > d48 > 0


@pytest.mark.parametrize("l", range(3, 9))
def test_both_kernels_share_one_increment_list(l):
    keys = _moves(l)[0]
    assert keys.dtype == np.int64 and keys.shape == (l * (l + 1) // 2, 2)
    exact = w_exact((5, 10), 0, EnsembleParams(l, 40, 50))
    approx = w_hat((0.3, 0.4), 0.1, EnsembleParams(l, 40, 50))
    for d in (exact, approx):
        assert np.array_equal(d.keys, keys)
        assert d.probs.dtype == np.float64 and d.probs.shape == (len(keys),)
        assert not d.keys.flags.writeable and not d.probs.flags.writeable
    # an interior state gives every multinomial term a positive weight
    assert np.array_equal(approx.arrays()[0], keys)


@pytest.mark.parametrize("l,z,tau,n,m", [(3, (7, 9), 3, 20, 24), (4, (6, 11), 0, 30, 40),
                                         (5, (3, 2), 7, 12, 15)])
def test_exact_kernel_reads_n_and_tau_through_n_minus_tau(l, z, tau, n, m):
    got = w_exact(z, tau, EnsembleParams(l, n, m)).arrays()
    for d in (1, 17):
        shifted = w_exact(z, tau + d, EnsembleParams(l, n + d, m)).arrays()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, shifted))


@pytest.mark.parametrize("n,l,rho", [(16, 3, 1.2218), (48, 3, 1.2218), (16, 4, 1.2218),
                                     (48, 4, 1.2218), (3, 3, 0.6)])
def test_discrepancy_matches_key_union_reference(n, l, rho):
    # at n = 3, rho = 0.6 every grid state is absorbed (z1 = 0)
    params = EnsembleParams(l, n, int(round(n * rho)))
    ref = 0.0
    for x1, x2, theta in default_state_grid(l, rho):
        z, tau = (int(round(n * x1)), int(round(n * x2))), int(round(n * theta))
        exact = _law(w_exact(z, tau, params))
        approx = _law(w_hat((z[0] / n, z[1] / n), tau / n, params))
        ref = max(ref, max(abs(exact.get(k, 0.0) - approx.get(k, 0.0))
                           for k in set(exact) | set(approx)))
    assert kernel_max_discrepancy(n, rho, l) == ref


# SHA-256 of the arrays() bytes of c05's exact law and of both kernels on the
# kernel-check grid at n = 100 and 200, then repr(D(100)) and repr(D(200))
KERNEL_ARRAYS_SHA256 = "2340c82802ff60772af016b99260420fc6223471a178ddf3927198054c55e8ae"


def test_kernel_arrays_and_discrepancy_pinned():
    h = hashlib.sha256()

    def add(d):
        for a in d.arrays():
            h.update(np.ascontiguousarray(a).tobytes())

    add(w_exact((7, 9), 3, EnsembleParams(3, 20, 24)))
    for n in (100, 200):
        params = EnsembleParams(3, n, int(round(n * 1.2218)))
        for x1, x2, theta in default_state_grid(3, 1.2218):
            z, tau = (int(round(n * x1)), int(round(n * x2))), int(round(n * theta))
            add(w_exact(z, tau, params))
            add(w_hat((z[0] / n, z[1] / n), tau / n, params))
        h.update(repr(kernel_max_discrepancy(n, 1.2218)).encode())
    assert h.hexdigest() == KERNEL_ARRAYS_SHA256

@pytest.mark.parametrize("tau", [0, 300])
def test_exact_kernel_deep_state_normalized(tau):
    # z2 = 800 needs coefficient rows with t = 800 on a cold cache
    _, probs = w_exact((150, 800), tau, EnsembleParams(3, 1000, 1222)).arrays()
    assert np.all(np.isfinite(probs))
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("tau", [0, 300])
def test_deep_kernel_makes_one_coefficient_pass(monkeypatch, tau):
    # rows z2 - 2 .. z2 at s <= (n - tau) l all come from one column pass
    passes = []
    columns = ensemble._log_coeff_columns

    def counted(t, s_max):
        passes.append((t, s_max))
        return columns(t, s_max)

    monkeypatch.setattr(ensemble, "_log_coeff_columns", counted)
    ensemble.log_coeff_rows.cache_clear()
    S = (1000 - tau) * 3
    w_exact((150, 800), tau, EnsembleParams(3, 1000, 1222))
    assert passes == [(800, S)]
    band = ensemble.log_coeff_band(798, 800, S)
    for t in (798, 799, 800):
        assert np.array_equal(band[t - 798], ensemble.log_coeff_rows(t, S))


def test_discrepancy_ladder_slope():
    # D(n) ~ c/n: the fitted log-log slope over a doubling ladder is near -1
    ns = np.array([100, 200, 400, 800, 1600])
    ds = np.array([kernel_max_discrepancy(int(n), 1.2218) for n in ns])
    assert np.all(ds > 0)
    slope = np.polyfit(np.log(ns), np.log(ds), 1)[0]
    assert -1.1 <= slope <= -0.9
