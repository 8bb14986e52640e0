"""Ensemble sampling and exact counting.

Frozen counts below were produced by brute-force enumeration of every socket
table (m^(n*l) of them) for tiny sizes, independent of the counting code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from peelcore.airy import mc_parabolic_min
from peelcore.ensemble import (
    EnsembleParams,
    Hypergraph,
    _require_int,
    degree_profile,
    initial_moments,
    log_coeff_rows,
    log_ensemble_count,
    sample_balls_in_bins,
    sample_profiles,
    sample_uniform,
)
from peelcore.experiments import ExperimentConfig, small_core_fraction
from peelcore.kernels import _coeff_mixed, sample_conditional_steps
from peelcore.peeling import batch_core_mask, is_stopping_set


# enumeration of all 3^6 tables at l=3, n=2, m=3
COUNTS_2_3 = {(0, 1): 3, (0, 2): 150, (0, 3): 90, (1, 1): 36, (1, 2): 360, (2, 1): 90}
# enumeration of all 4^9 tables at l=3, n=3, m=4
COUNTS_3_4 = {
    (0, 1): 4, (0, 2): 2952, (0, 3): 46032, (0, 4): 30240,
    (1, 1): 108, (1, 2): 25704, (1, 3): 105840,
    (2, 1): 864, (2, 2): 48384, (3, 1): 2016,
}


@pytest.mark.parametrize("n,m,counts", [(2, 3, COUNTS_2_3), (3, 4, COUNTS_3_4)])
def test_counts_match_enumeration(n, m, counts):
    params = EnsembleParams(3, n, m)
    for (z1, z2), c in counts.items():
        got = math.exp(log_ensemble_count((z1, z2), 0, params))
        assert got == pytest.approx(c, rel=1e-9)
    assert sum(counts.values()) == m ** (n * params.l)


def test_counts_sum_to_ensemble_size():
    # Sigma_z h(z, 0) = m^(n l), checked in log space
    for n, m in [(2, 3), (3, 4), (4, 3), (2, 6)]:
        params = EnsembleParams(3, n, m)
        logs = [
            log_ensemble_count((z1, z2), 0, params)
            for z1 in range(m + 1)
            for z2 in range(m + 1 - z1)
        ]
        logs = [v for v in logs if v > -np.inf]
        total = np.logaddexp.reduce(logs)
        assert total == pytest.approx(n * params.l * math.log(m), abs=1e-9)


def test_infeasible_profiles_are_empty():
    params = EnsembleParams(3, 2, 3)
    assert log_ensemble_count((1, 0), 0, params) == -np.inf      # z2=0 needs z1 = nl
    assert log_ensemble_count((0, 0), 0, params) == -np.inf
    assert log_ensemble_count((5, 0), 0, params) == -np.inf      # z0 < 0
    assert log_ensemble_count((0, 3), 1, params) == -np.inf      # mass 3 < 2*z2
    # all-degree-1 profile is feasible and counted exactly: nl = 6 > m = 3 makes
    # it empty here, but at m = 6 it is 6! orderings
    params6 = EnsembleParams(3, 2, 6)
    assert math.exp(log_ensemble_count((6, 0), 0, params6)) == pytest.approx(
        math.factorial(6), rel=1e-9
    )


def test_log_coeff_rows_vs_exact_fractions():
    # float log-space DP against the exact Fraction DP used by the kernel module
    for t in (1, 2, 3, 5):
        row = log_coeff_rows(t, 14)
        for s in range(15):
            exact = _coeff_mixed(t, 0, s)
            if exact == 0:
                assert row[s] == -np.inf
            else:
                assert row[s] == pytest.approx(math.log(float(exact)), abs=1e-11)


def test_log_coeff_rows_vs_integer_stirling():
    # coeff[(e^x - 1 - x)^t, x^s] = t! S2(s, t)/s! with the 2-associated Stirling
    # numbers S2(s, t) = t S2(s-1, t) + (s-1) S2(s-2, t-1), in exact integers
    T, S = 60, 300
    S2 = [[0] * (T + 1) for _ in range(S + 1)]
    S2[0][0] = 1
    for s in range(2, S + 1):
        for t in range(1, T + 1):
            S2[s][t] = t * S2[s - 1][t] + (s - 1) * S2[s - 2][t - 1]
    for t in (1, 7, 30, 60):
        row = log_coeff_rows(t, S)
        for s in range(S + 1):
            if S2[s][t] == 0:
                assert row[s] == -np.inf
            else:
                exact = math.log(math.factorial(t) * S2[s][t]) - math.log(math.factorial(s))
                assert row[s] == pytest.approx(exact, abs=1e-10)


def test_log_coeff_rows_cold_deep_row():
    # a cold call far past the interpreter's recursion limit in t
    log_coeff_rows.cache_clear()
    row = log_coeff_rows(1000, 3000)
    assert row.shape == (3001,)
    assert np.all(row[:2000] == -np.inf)
    assert np.all(np.isfinite(row[2000:]))
    assert not row.flags.writeable


def test_sampler_shapes_and_ranges():
    params = EnsembleParams(4, 7, 11)
    rng = np.random.default_rng(0)
    for sampler in (sample_uniform, sample_balls_in_bins):
        H = sampler(params, rng)
        assert H.sockets.shape == (7, 4)
        assert H.sockets.min() >= 0 and H.sockets.max() < 11


def test_uniform_sampler_socket_uniformity():
    # every socket is uniform over the m vertices
    params = EnsembleParams(3, 10, 7)
    rng = np.random.default_rng(42)
    tallies = np.zeros(7)
    for _ in range(400):
        H = sample_uniform(params, rng)
        tallies += np.bincount(H.sockets.ravel(), minlength=7)
    res = stats.chisquare(tallies)
    assert res.pvalue > 1e-3


@pytest.mark.parametrize("sampler", [sample_uniform, sample_balls_in_bins])
def test_samplers_match_exact_profile_law(sampler):
    # empirical profile frequencies against h(z, 0)/m^(nl), chi-square
    params = EnsembleParams(3, 3, 4)
    rng = np.random.default_rng(7)
    reps = 4000
    obs = {}
    for _ in range(reps):
        prof = degree_profile(sampler(params, rng))
        key = (prof.z1, prof.z2)
        obs[key] = obs.get(key, 0) + 1
    total = 4 ** 9
    keys = [k for k, c in COUNTS_3_4.items() if c / total * reps >= 5]
    expected = np.array([COUNTS_3_4[k] / total * reps for k in keys])
    observed = np.array([obs.get(k, 0) for k in keys], dtype=float)
    # lump the small-expectation remainder into one cell
    rest_e = reps - expected.sum()
    rest_o = reps - observed.sum()
    expected = np.append(expected, rest_e)
    observed = np.append(observed, rest_o)
    res = stats.chisquare(observed, expected)
    assert res.pvalue > 1e-3


def test_sample_profiles_matches_degree_profile_law():
    # the multinomial shortcut draws the same (z1, z2) law as full graphs
    params = EnsembleParams(3, 50, 60)
    rng = np.random.default_rng(3)
    fast = sample_profiles(params, 3000, rng)
    slow = np.array(
        [degree_profile(sample_uniform(params, rng)).as_pair for _ in range(3000)]
    )
    for col in (0, 1):
        res = stats.ks_2samp(fast[:, col], slow[:, col])
        assert res.pvalue > 1e-3


_P = EnsembleParams(3, 20, 24)
_H = Hypergraph(EnsembleParams(3, 2, 4), np.array([[0, 1, 2], [0, 1, 3]]))


@pytest.mark.parametrize("name,call", [
    ("n", lambda rng: EnsembleParams(3, True, 5)),
    ("reps", lambda rng: ExperimentConfig(reps=True)),
    ("workers", lambda rng: ExperimentConfig(workers=True)),
    ("seed", lambda rng: ExperimentConfig(seed=False)),
    ("m_list entry", lambda rng: ExperimentConfig(m_list=(60, True))),
    ("n_list entry", lambda rng: ExperimentConfig(n_list=(np.float64(500),))),
    ("reps", lambda rng: sample_profiles(_P, True, rng)),
    ("reps", lambda rng: sample_conditional_steps((7, 9), 3, _P, True, rng)),
    ("reps", lambda rng: mc_parabolic_min(True, rng)),
    ("chunk", lambda rng: mc_parabolic_min(10, rng, chunk=2.5)),
    ("m", lambda rng: batch_core_mask(np.zeros((1, 2, 3), dtype=np.int64), True)),
    ("v-node ids entry", lambda rng: is_stopping_set(_H, [True])),
    ("reps", lambda rng: small_core_fraction(3, 80, 98, reps=True, seed=1)),
    ("block", lambda rng: small_core_fraction(3, 80, 98, reps=10, seed=1, block=2.5)),
], ids=["EnsembleParams-n", "config-reps", "config-workers", "config-seed",
        "config-m_list", "config-n_list", "sample_profiles-reps",
        "sample_conditional_steps-reps", "mc_parabolic_min-reps",
        "mc_parabolic_min-chunk", "batch_core_mask-m", "is_stopping_set-ids",
        "small_core_fraction-reps", "small_core_fraction-block"])
def test_integer_arguments_refuse_bools_and_non_integers(name, call, no_draws):
    # each refusal names its argument and comes before any draw
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(no_draws)


def test_require_int_accepts_numpy_integers():
    for v in (np.int64(4), np.uint8(4), np.int32(4)):
        got = _require_int("n", v, 1)
        assert got == 4 and type(got) is int

@pytest.mark.parametrize("reps", [-1, 2.5, "10"])
def test_sample_profiles_rejects_bad_reps_before_drawing(reps, no_draws):
    with pytest.raises(ValueError, match="reps"):
        sample_profiles(EnsembleParams(3, 20, 24), reps, no_draws)


def test_sample_profiles_zero_reps_is_empty(no_draws):
    draws = sample_profiles(EnsembleParams(3, 20, 24), 0, no_draws)
    assert draws.dtype == np.int64 and draws.shape == (0, 2)


def test_initial_moments_frozen_values():
    # q-entries at l = 3, gamma = gamma_c, against an independent symbolic
    # evaluation of the closed forms
    rho = 3.0 / 2.455407482284128
    y0, Q0 = initial_moments(3, rho)
    assert y0[0] == pytest.approx(3 * math.exp(-2.455407482284128), rel=1e-12)
    assert Q0[0, 0] == pytest.approx(0.15641020483434657, rel=1e-10)
    assert Q0[0, 1] == pytest.approx(-0.10214705636682844, rel=1e-10)
    assert Q0[1, 1] == pytest.approx(0.12164846631397359, rel=1e-10)
    assert Q0[1, 0] == Q0[0, 1]


def test_initial_moments_small_gamma_limits():
    # gamma -> 0: y -> (l, 0), q11 ~ 2 l gamma, q12 ~ -l gamma, q22 ~ l gamma / 2
    l, g = 3, 1e-5
    y0, Q0 = initial_moments(l, l / g)
    assert y0[0] == pytest.approx(l, rel=1e-4)
    assert abs(y0[1]) < 1e-4
    assert Q0[0, 0] == pytest.approx(2 * l * g, rel=1e-3)
    assert Q0[0, 1] == pytest.approx(-l * g, rel=1e-3)
    assert Q0[1, 1] == pytest.approx(l * g / 2, rel=1e-3)


@given(st.floats(min_value=0.05, max_value=12.0))
@settings(max_examples=60, deadline=None)
def test_initial_covariance_positive_definite(gamma):
    _, Q0 = initial_moments(3, 3.0 / gamma)
    assert Q0[0, 0] > 0 and Q0[1, 1] > 0
    assert np.linalg.det(Q0) > 0


def test_initial_moments_match_multinomial_simulation():
    # empirical profile mean/covariance at n = 3000 against the closed forms
    params = EnsembleParams(3, 3000, 3664)
    rng = np.random.default_rng(11)
    draws = sample_profiles(params, 4000, rng)
    y0, Q0 = initial_moments(3, params.rho)
    n = params.n
    mean = draws.mean(axis=0) / n
    se = np.sqrt(np.diag(Q0) / n / 4000)
    assert np.all(np.abs(mean - y0) < 5 * se)
    cov = np.cov(draws.T) / n
    assert np.allclose(cov, Q0, rtol=0.15, atol=1e-4)


def test_params_validation():
    with pytest.raises(ValueError):
        EnsembleParams(2, 5, 5)
    with pytest.raises(ValueError):
        EnsembleParams(3, 0, 5)
    for args in ((3.5, 10, 10), (3, 10.5, 10), (3, 10, 10.0), (3, "10", 10)):
        with pytest.raises(ValueError, match="must be an integer"):
            EnsembleParams(*args)
    params = EnsembleParams(3, 4, 5)
    assert EnsembleParams(np.int64(3), np.int64(4), np.int64(5)) == params
    assert params.rho == pytest.approx(1.25)
    assert params.gamma == pytest.approx(12 / 5)
