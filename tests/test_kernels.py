"""Transition kernels: tilt functions, class probabilities, exact and large-n laws.

The frozen laws below come from exhaustive enumeration over all m^(n*l) socket
tables (with exact Fraction weights over leaf choices), independent of the
counting-based kernel implementation.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from peelcore.ensemble import EnsembleParams, sample_uniform
from peelcore.kernels import (
    f0_eval,
    f1_eval,
    f1_prime,
    kernel_max_discrepancy,
    p_triple,
    project_feasible,
    psi_eval,
    psi_prime,
    sample_conditional_steps,
    simulate_chain,
    solve_lambda,
    w_exact,
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


@pytest.mark.parametrize("tau,oracle", [(0, ORACLE_TAU0), (1, ORACLE_TAU1)])
def test_exact_kernel_matches_enumeration(tau, oracle):
    params = EnsembleParams(3, 3, 4)
    for z, law in oracle.items():
        got = w_exact(z, tau, params).probs
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
        got = w_exact(key, 0, params).probs
        ref = {k: v / norm[key] for k, v in law.items()}
        assert set(got) == set(ref)
        for k, v in ref.items():
            assert got[k] == pytest.approx(float(v), abs=1e-12)


def test_identity_kernel_at_absorbed_state():
    params = EnsembleParams(3, 10, 12)
    d = w_exact((0, 5), 3, params)
    assert d.probs == {(0, 0): 1.0}


def test_exact_kernel_rejects_infeasible():
    params = EnsembleParams(3, 2, 3)
    with pytest.raises(ValueError):
        w_exact((1, 0), 0, params)


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
    # series/bisection switchover continuity around xi - 2 = 1e-6
    a = solve_lambda(2.0 + 0.99e-6)
    b = solve_lambda(2.0 + 1.01e-6)
    assert b > a > 0
    assert (b - a) / (a + b) < 0.02
    with pytest.raises(ValueError):
        solve_lambda(1.9)


def test_solve_lambda_at_exact_bisection_midpoint():
    # the fixed point psi(lam) = lam makes lam = xi/2 the first midpoint;
    # the solver must still converge to full precision there
    xi = 2.512862417252339
    lam = solve_lambda(xi)
    assert f1_eval(lam) == pytest.approx(xi, rel=1e-14)
    assert lam == pytest.approx(1.2564312086261697, rel=1e-12)
    assert psi_eval(lam) == pytest.approx(lam, rel=1e-10)


# --- feasibility projection ---


def test_projection_identity_inside():
    params = EnsembleParams(3, 10, 12)
    x = project_feasible((0.3, 0.4), 0.2, params)
    assert x.tolist() == [0.3, 0.4]


@given(
    st.floats(min_value=-2.0, max_value=5.0),
    st.floats(min_value=-2.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=150, deadline=None)
def test_projection_is_nearest_feasible(x1, x2, theta):
    params = EnsembleParams(3, 10, 12)
    L = 3 * (1.0 - theta)
    p = project_feasible((x1, x2), theta, params)
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
    params = EnsembleParams(3, 10, 12)
    p = p_triple((0.3, 0.5), 0.1, params)
    assert p.p0 + p.p1 + p.p2 == pytest.approx(1.0, abs=1e-15)
    assert p.p0 == pytest.approx(0.3 / 2.7, rel=1e-14)
    assert min(p.p0, p.p1, p.p2) >= 0
    # negative x1 clamps to zero mass, not an error
    q = p_triple((-0.2, 0.5), 0.1, params)
    assert q.p0 == 0.0
    # x2 = 0 degenerates
    r = p_triple((0.3, 0.0), 0.1, params)
    assert (r.p1, r.p2) == (0.0, pytest.approx(1.0 - 0.3 / 2.7))
    assert r.lam == math.inf
    with pytest.raises(ValueError):
        p_triple((0.3, -0.1), 0.1, params)
    with pytest.raises(ValueError):
        p_triple((5.0, 0.1), 0.1, params)  # x1 beyond the slab


def test_p_triple_tilt_identity():
    # p1/p2 = psi(lam)/lam and p1 + p2 = x2 f1(lam)/L by construction
    params = EnsembleParams(3, 10, 12)
    x1, x2, th = 0.4, 0.6, 0.25
    p = p_triple((x1, x2), th, params)
    L = 3 * (1 - th)
    assert f1_eval(p.lam) == pytest.approx((L - x1) / x2, rel=1e-12)
    assert p.p1 / p.p2 == pytest.approx(psi_eval(p.lam) / p.lam, rel=1e-10)


def test_w_hat_corner_point_masses():
    params = EnsembleParams(3, 10, 12)
    L = 3.0
    d = w_hat((L, 0.0), 0.0, params)           # p0 = 1
    assert d.probs == {(-3, 0): pytest.approx(1.0)}
    d2 = w_hat((0.0, 1e-15), 0.0, params)      # p2 = 1
    assert d2.probs == {(-1, 0): pytest.approx(1.0)}


def test_w_hat_mean_formula():
    # mean = (-1 + (l-1)(p1 - p0), -(l-1) p1)
    params = EnsembleParams(3, 10, 12)
    x, th = (0.35, 0.55), 0.15
    p = p_triple(x, th, params)
    mu = w_hat(x, th, params).mean()
    assert mu[0] == pytest.approx(-1 + 2 * (p.p1 - p.p0), abs=1e-12)
    assert mu[1] == pytest.approx(-2 * p.p1, abs=1e-12)


# --- exact kernel vs conditional resampling, and chain vs graph peel ---


def test_exact_kernel_matches_conditional_resampling():
    params = EnsembleParams(3, 15, 18)
    z, tau = (6, 7), 2
    rng = np.random.default_rng(31)
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
        rec = simulate_chain(params, rng)
        stops_chain[i] = rec.stop_time
        mid_chain[i] = rec.profiles[5, 0]
        traj = peel(sample_uniform(params, rng), rng)
        stops_graph[i] = traj.stop_time
        mid_graph[i] = traj.profiles[5, 0]
    assert stats.ks_2samp(stops_chain, stops_graph).pvalue > 1e-3
    assert stats.ks_2samp(mid_chain, mid_graph).pvalue > 1e-3


def test_discrepancy_positive_and_decreasing():
    d16 = kernel_max_discrepancy(16, 1.2218)
    d48 = kernel_max_discrepancy(48, 1.2218)
    assert d16 > d48 > 0


@pytest.mark.parametrize("tau", [0, 300])
def test_exact_kernel_deep_state_normalized(tau):
    # z2 = 800 needs coefficient rows with t = 800 on a cold cache
    _, probs = w_exact((150, 800), tau, EnsembleParams(3, 1000, 1222)).arrays()
    assert np.all(np.isfinite(probs))
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_discrepancy_ladder_slope():
    # D(n) ~ c/n: the fitted log-log slope over a doubling ladder is near -1
    ns = np.array([100, 200, 400, 800, 1600])
    ds = np.array([kernel_max_discrepancy(int(n), 1.2218) for n in ns])
    assert np.all(ds > 0)
    slope = np.polyfit(np.log(ns), np.log(ds), 1)[0]
    assert -1.1 <= slope <= -0.9
