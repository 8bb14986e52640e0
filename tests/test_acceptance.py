"""End-to-end checks of the package's quantitative deliverables.

Every test in this module prints and registers one "[cNN] PASS/FAIL - ..."
verdict line (echoed in the terminal summary by conftest) before asserting,
so a single run reports the status of all fourteen checks even when one
fails.  Monte Carlo checks run with fixed seeds and are deterministic.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy import stats

from peelcore import ode
from peelcore import scaling
from peelcore.airy import cdf_Z, mc_parabolic_min, omega_integral
from peelcore.ensemble import (
    EnsembleParams,
    initial_moments,
    log_ensemble_count,
    sample_profiles,
    sample_uniform,
)
from peelcore.experiments import (
    ExperimentConfig,
    emit_core_prob,
    get_constants,
    run_core_prob,
    run_core_size,
    run_onset,
    small_core_fraction,
)
from peelcore.kernels import (
    kernel_max_discrepancy,
    p_triple,
    sample_conditional_steps,
    w_exact,
    w_exact_states,
    w_hat,
)
from peelcore.ode import critical_point, solve_y, y_closed
from peelcore.peeling import brute_force_max_stopping_set, core_of, peel

RHO_REF = 1.2218


def _verdict(lines, tag, ok, detail):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}"
    lines.append(line)
    print(line)
    return ok


def test_c01_critical_density(acceptance_lines):
    critical_point.cache_clear()
    t0 = time.perf_counter()
    rho_c, theta_c, u2 = critical_point(3)
    dt = time.perf_counter() - t0
    err = abs(rho_c - RHO_REF)
    ok = err <= 5e-4 and dt < 1.0
    assert _verdict(acceptance_lines, "c01", ok,
                    f"rho_c={rho_c:.6f} |err|={err:.2e} (tol 5e-4), t={dt:.3f}s (<1s)")


def test_c02_ode_vs_closed_form(acceptance_lines):
    rho_c, theta_c, _ = critical_point(3)
    t0 = time.perf_counter()
    sol = solve_y(rho_c, 3, h=1e-4, theta_end=theta_c)
    sup = 0.0
    for th, y in zip(sol.thetas, sol.ys):
        sup = max(sup, np.max(np.abs(y - y_closed(float(th), rho_c, 3))))
    dt = time.perf_counter() - t0
    ok = sup <= 1e-8 and dt < 10.0
    assert _verdict(acceptance_lines, "c02", ok,
                    f"sup|y_num-y_closed|={sup:.2e} (tol 1e-8), t={dt:.2f}s (<10s)")


def test_c03_dual_route_constants(acceptance_lines):
    l = 3
    rho_c, theta_c, u2 = critical_point(l)
    gamma_c = l / rho_c

    curv_closed = ode._y1_second_derivative_closed(u2, gamma_c, l)
    yc = ode._y_formula(theta_c, rho_c, l)
    xc = np.array([max(yc[0], 0.0), yc[1]])
    pc = p_triple(xc, theta_c, l)
    dF1_dx2 = (l - 1) * ode._p1_partials(pc, xc[1], theta_c, l)[1]
    F2c = ode.rhs_F(pc, l)[1]
    curv_chain = ode._dF1_dtheta(xc, theta_c, l) + dF1_dx2 * F2c
    rel_curv = abs(curv_closed - curv_chain) / abs(curv_closed)

    sens_closed = (l ** 2 / rho_c ** 2) * u2 ** (2 * (l - 1)) * (1.0 - u2)
    dr = 1e-6
    sens_fd = (ode._y_formula(theta_c, rho_c + dr, l)[0]
               - ode._y_formula(theta_c, rho_c - dr, l)[0]) / (2.0 * dr)
    rel_sens = abs(sens_closed - sens_fd) / abs(sens_closed)

    ok = rel_curv <= 1e-6 and rel_sens <= 1e-6
    assert _verdict(acceptance_lines, "c03", ok,
                    f"curvature rel={rel_curv:.2e}, sensitivity rel={rel_sens:.2e} (tol 1e-6)")


def test_c04_kernel_normalization_sweep(acceptance_lines):
    n, m = 20, 24
    params = EnsembleParams(l=3, n=n, m=m)
    worst_exact = worst_approx = 0.0
    n_states = 0
    for tau in range(n):
        S = (n - tau) * 3
        zs = [(z1, z2) for z1 in range(0, min(m, S) + 1) for z2 in range(0, m - z1 + 1)
              if log_ensemble_count((z1, z2), tau, params) > -np.inf]
        n_states += len(zs)
        for (z1, z2), ke in zip(zs, w_exact_states(zs, tau, params)):
            worst_exact = max(worst_exact, abs(ke.total() - 1.0))
            kh = w_hat((z1 / n, z2 / n), tau / n, params)
            worst_approx = max(worst_approx, abs(kh.total() - 1.0))
    ok = n_states > 100 and worst_exact <= 1e-9 and worst_approx <= 1e-9
    assert _verdict(acceptance_lines, "c04", ok,
                    f"{n_states} feasible states, worst |sum-1|: exact={worst_exact:.2e}, "
                    f"approx={worst_approx:.2e} (tol 1e-9, no renormalization)")


def test_c05_exact_kernel_vs_conditioned_steps(acceptance_lines):
    n, m = 20, 24
    params = EnsembleParams(l=3, n=n, m=m)
    z, tau, reps = (7, 9), 3, 100_000
    rng = np.random.default_rng(52005)
    t0 = time.perf_counter()
    steps = sample_conditional_steps(z, tau, params, reps, rng)
    dt = time.perf_counter() - t0
    law = w_exact(z, tau, params)
    keys, probs = law.arrays()
    counts = np.zeros(len(keys))
    key_index = {tuple(k): i for i, k in enumerate(keys)}
    unseen = 0
    for dz in steps:
        i = key_index.get((int(dz[0]), int(dz[1])))
        if i is None:
            unseen += 1
        else:
            counts[i] += 1
    # merge cells with tiny expectation into a lump so chi-square is valid
    expected = probs * reps
    keep = expected >= 5.0
    f_obs = list(counts[keep])
    f_exp = list(expected[keep])
    if not keep.all() or unseen:
        f_obs.append(counts[~keep].sum() + unseen)
        f_exp.append(expected[~keep].sum())
    chi2, p = stats.chisquare(f_obs, f_exp)
    ok = p > 0.001 and unseen == 0
    assert _verdict(acceptance_lines, "c05", ok,
                    f"chi2={chi2:.2f} over {len(f_obs)} cells, p={p:.4f} (>0.001), "
                    f"{reps} conditioned steps, t={dt:.1f}s")


def test_c06_kernel_discrepancy_rate(acceptance_lines):
    t0 = time.perf_counter()
    d100 = kernel_max_discrepancy(100, RHO_REF)
    d200 = kernel_max_discrepancy(200, RHO_REF)
    dt = time.perf_counter() - t0
    ratio = d100 / d200
    ok = 1.6 <= ratio <= 2.5
    assert _verdict(acceptance_lines, "c06", ok,
                    f"D(100)={d100:.3e}, D(200)={d200:.3e}, ratio={ratio:.3f} "
                    f"(in [1.6, 2.5]), t={dt:.1f}s")


def test_c07_initial_moments(acceptance_lines):
    n = 10_000
    rho_c = critical_point(3)[0]
    m = int(round(n * rho_c))
    params = EnsembleParams(l=3, n=n, m=m)
    reps = 10_000
    rng = np.random.default_rng(1007)
    zs = sample_profiles(params, reps, rng).astype(float)
    y0, Q0 = initial_moments(3, params.rho)
    mean_target = n * np.asarray(y0)
    cov_target = n * np.asarray(Q0)
    mean_err = np.abs(zs.mean(axis=0) - mean_target)
    mean_tol = 4.0 * np.sqrt(np.diag(cov_target) / reps)
    cov_emp = np.cov(zs, rowvar=False)
    cov_rel = np.abs(cov_emp - cov_target) / np.abs(cov_target)
    ok = bool((mean_err <= mean_tol).all() and (cov_rel <= 0.10).all())
    assert _verdict(acceptance_lines, "c07", ok,
                    f"mean err/4SE=({mean_err[0]/mean_tol[0]:.2f},{mean_err[1]/mean_tol[1]:.2f}) (<=1), "
                    f"max cov rel err={cov_rel.max():.3f} (<=0.10)")


def test_c08_core_invariance_and_oracle(acceptance_lines):
    # (a) the peeled residual does not depend on the removal order
    params = EnsembleParams(l=3, n=25, m=30)
    rng = np.random.default_rng(88)
    order_a = np.random.default_rng(880)
    order_b = np.random.default_rng(881)
    same = 0
    trials = 1000
    for _ in range(trials):
        H = sample_uniform(params, rng)
        if peel(H, order_a).core_vnodes == peel(H, order_b).core_vnodes:
            same += 1
    # (b) small instances against the exhaustive maximal-stopping-set search
    rng2 = np.random.default_rng(89)
    match = 0
    small_trials = 500
    for _ in range(small_trials):
        n = int(rng2.integers(2, 13))
        m = int(rng2.integers(3, 15))
        H = sample_uniform(EnsembleParams(l=3, n=n, m=m), rng2)
        core = frozenset(core_of(H)[0].tolist())
        if core == brute_force_max_stopping_set(H):
            match += 1
    ok = same == trials and match == small_trials
    assert _verdict(acceptance_lines, "c08", ok,
                    f"order-invariant {same}/{trials}, brute-force match {match}/{small_trials}")


def test_c09_omega_dual_route(acceptance_lines):
    t0 = time.perf_counter()
    omega_a = omega_integral()
    reps = 100_000
    zs = mc_parabolic_min(reps, np.random.default_rng(20210))
    omega_mc = -float(zs.mean())
    se = float(zs.std(ddof=1)) / math.sqrt(reps)
    rel_se = se / omega_mc
    diff = abs(omega_a - omega_mc)
    ks = stats.kstest(zs, cdf_Z).statistic
    dt = time.perf_counter() - t0
    ok = rel_se <= 0.005 and diff <= 2.0 * se and ks <= 0.01
    assert _verdict(acceptance_lines, "c09", ok,
                    f"integral={omega_a:.6f}, mc={omega_mc:.6f}+-{se:.6f} "
                    f"(rel se={rel_se:.4f}<=0.005), |diff|={diff:.6f} (<=2se={2*se:.6f}), "
                    f"KS={ks:.4f} (<=0.01), t={dt:.0f}s")


def test_c10_survival_curve_reproduction(acceptance_lines):
    cc = get_constants(3)
    reps = 10_000
    t0 = time.perf_counter()
    by_m = {}
    for m in (200, 400, 600):
        cfg = ExperimentConfig(experiment="core-prob", l=3, m_list=(m,),
                               reps=reps, seed=1, workers=1, block=500)
        by_m[m] = run_core_prob(cfg)
    dt = time.perf_counter() - t0

    # pointwise agreement with the corrected prediction at the largest m
    # start below any margin, so a PASS still names its tightest point
    worst_margin = -math.inf
    worst_gap = worst_tol = 0.0
    worst_r = None
    n_fail = 0
    print("    m=600 survival table (r, n, p_hat, prediction, gap, tol):")
    for rec in by_m[600]:
        gap = abs(rec.p_hat - rec.prediction)
        tol = max(0.03, 3.0 * rec.se)
        print(f"      r={rec.r:+.2f} n={rec.n} p_hat={rec.p_hat:.4f} "
              f"pred={rec.prediction:.4f} gap={gap:.4f} tol={tol:.4f}"
              + ("" if gap <= tol else "  <-- exceeds"))
        if gap > tol:
            n_fail += 1
        if gap - tol > worst_margin:
            worst_margin, worst_gap, worst_tol, worst_r = gap - tol, gap, tol, rec.r
    clause1 = n_fail == 0

    # collapse: the shifted variable must beat the unshifted one at every m
    clause2 = True
    rms_note = []
    for m, recs in by_m.items():
        dev1 = [rec.p_hat - scaling.std_normal_cdf(-rec.r_tilde1) for rec in recs]
        dev2 = [rec.p_hat - scaling.std_normal_cdf(-rec.r_tilde2) for rec in recs]
        rms1 = math.sqrt(np.mean(np.square(dev1)))
        rms2 = math.sqrt(np.mean(np.square(dev2)))
        rms_note.append(f"m={m}: rms2={rms2:.4f}<rms1={rms1:.4f}")
        if not rms2 < rms1:
            clause2 = False
    ok = clause1 and clause2
    assert _verdict(acceptance_lines, "c10", ok,
                    f"pointwise m=600: {n_fail}/9 points exceed max(0.03, 3se), worst r={worst_r} "
                    f"gap={worst_gap:.4f} vs tol={worst_tol:.4f}; collapse: "
                    + "; ".join(rms_note) + f"; t={dt:.0f}s")


def test_c11_onset_normality(acceptance_lines):
    m, reps = 900, 2000
    cfg = ExperimentConfig(experiment="nc", m_list=(m,), reps=reps, seed=1,
                           workers=1, block=250)
    t0 = time.perf_counter()
    res = run_onset(cfg)[0]
    dt = time.perf_counter() - t0
    censored = int((res.counts > m).sum())
    # N_c is integer-valued, so the Kolmogorov distance is a max over the
    # lattice; a continuous KS on the standardized values would also count the
    # jump between the model CDF and the ECDF's left limit at each point.
    counts = np.sort(res.counts[res.counts <= m])
    ks_grid = np.arange(counts[0] - 1, counts[-1] + 1)
    ecdf = np.searchsorted(counts, ks_grid, side="right") / reps
    model = scaling.onset_cdf(ks_grid.astype(float), m, get_constants(3))
    ks = float(np.max(np.abs(ecdf - model)))
    ok = ks <= 0.05 and censored == 0
    assert _verdict(acceptance_lines, "c11", ok,
                    f"m={m}, R={reps}, lattice KS(onset count, onset_cdf)={ks:.4f} (<=0.05), "
                    f"{censored} censored, t={dt:.0f}s")


def test_c12_core_size_law(acceptance_lines):
    n, reps = 2000, 2000
    cfg = ExperimentConfig(experiment="core-size", n_list=(n,), reps=reps,
                           seed=3, workers=1, block=250)
    t0 = time.perf_counter()
    res = run_core_size(cfg)[0]
    dt = time.perf_counter() - t0
    cc = get_constants(3)
    r_actual = math.sqrt(n) * (res.m / n - cc.rho_c)
    ks = stats.kstest(res.standardized,
                      lambda z: scaling.core_size_cdf(z, r_actual, cc)).statistic
    ok = len(res.sizes) >= 1000 and ks <= 0.08
    # the law puts no mass below z = 0 and conditions on survival 1-Phi(r/alpha)
    below0 = float(np.mean(res.standardized < 0.0))
    surv = len(res.sizes) / reps
    surv_law = 1.0 - scaling.std_normal_cdf(r_actual / cc.alpha)
    assert _verdict(acceptance_lines, "c12", ok,
                    f"n={n}, {len(res.sizes)} conditioned samples (>=1000), "
                    f"KS vs scaled limit law={ks:.4f} (<=0.08), "
                    f"fraction z<0={below0:.3f} (law: 0), "
                    f"survival={surv:.3f} vs 1-Phi(r/alpha)={surv_law:.3f}, t={dt:.0f}s")


def test_c13_no_small_cores(acceptance_lines):
    m, reps = 500, 10_000
    rho_c = critical_point(3)[0]
    t0 = time.perf_counter()
    notes = []
    ok = True
    for rho in (1.0, rho_c):
        n = int(round(m / rho))
        small, nonempty = small_core_fraction(3, n, m, reps, seed=7)
        notes.append(f"rho={rho:.4f}: small={small:.4f}, nonempty={nonempty:.3f}")
        if small > 0.01:
            ok = False
    dt = time.perf_counter() - t0
    assert _verdict(acceptance_lines, "c13", ok,
                    f"fraction of cores below 0.02m: " + "; ".join(notes)
                    + f" (tol 0.01), t={dt:.0f}s")


def test_c14_worker_determinism(acceptance_lines, tmp_path):
    base = ExperimentConfig(experiment="core-prob", l=3, m_list=(120,),
                            r_list=(-1.0, 0.0, 1.0), reps=600, seed=11, block=100)
    blobs = {}
    for workers in (1, 8):
        cfg = replace(base, workers=workers, out_dir=str(tmp_path / f"w{workers}"))
        paths = emit_core_prob(cfg, run_core_prob(cfg))
        csv_path = next(p for p in paths if p.endswith(".csv"))
        blobs[workers] = open(csv_path, "rb").read()
    n_rows = blobs[1].count(b"\n") - 1
    ok = blobs[1] == blobs[8] and n_rows == 3
    assert _verdict(acceptance_lines, "c14", ok,
                    f"CSV bytes identical at workers 1 vs 8 ({len(blobs[1])} bytes, "
                    f"{n_rows} data rows): {blobs[1] == blobs[8]}")
