"""The three workloads: their rounds of calls into peelcore and the checks
on what those calls produced.

A run repeats whole rounds.  Round k of a workload seeded with `seed` gives
the program the seed `program_seed(seed, k)`, so the same workload seed
gives the same inputs.  Every call into the program is one operation; an
operation that raises counts as failed.  Outputs are read back from the files
the commands emit, and the checks are pure functions of those records so the
self-test can corrupt them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracle

L = 3
R_GRID = (-3.0, -2.25, -1.5, -0.75, 0.0, 0.75, 1.5, 2.25, 3.0)


def program_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    units: int = 0                      # replicates or kernel states completed
    errors: list = field(default_factory=list)   # failures not expected today


def _call(result: RoundResult, fn, *args, expected=()):
    """One operation: returns fn's value and captured stdout, or None when it
    raised.  Exceptions of the types in `expected` are known faults."""
    result.attempted += 1
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            value = fn(*args)
    except expected:
        result.failed += 1
        return None
    except (Exception, SystemExit) as exc:   # any other failure is reported;
        # SystemExit is how the command line rejects its arguments
        result.failed += 1
        result.errors.append(f"{fn.__name__}{args!r:.120}: {exc!r}")
        return None
    return value, out.getvalue()


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _read_csv(path: str) -> list:
    with open(path, newline="") as f:
        return [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(f)]


def n_for_r(r: float, m: int, rho_c: float) -> int:
    """Nearest integer n with sqrt(n)(m/n - rho_c) = r."""
    s = (-r + math.sqrt(r * r + 4.0 * rho_c * m)) / (2.0 * rho_c)
    return max(int(round(s * s)), 1)


def r_tilde2(n: int, m: int, cc) -> float:
    delta = cc.alpha * cc.beta * cc.omega
    return math.sqrt(n) * (m / n - cc.rho_c - delta * n ** (-2.0 / 3.0)) / cc.alpha


def onset_z(counts, m: int, cc):
    """Standardized onset counts of the paper's onset law, N(0, 1) in the limit."""
    scale = math.sqrt(m) * cc.rho_c ** -1.5 * cc.alpha
    shift = cc.beta * cc.omega * cc.rho_c ** (1.0 / 6.0) * m ** (-1.0 / 6.0)
    return (np.asarray(counts, dtype=float) - m / cc.rho_c) / scale + shift


def _edges(sockets: np.ndarray) -> list:
    return list(map(tuple, sockets.tolist()))


# --- set-up check -----------------------------------------------------------

K_NODES = (0.5, 1.5, 3.0, 4.5, 6.0)
K_TOL = 1e-8
RHO_C_TOL = 1e-9


def check_setup(rho_c: float, table_K: dict) -> list:
    """rho_c against the tangency root; each table's K at its nodes against
    the contour integral over scipy's Airy functions.  table_K maps a table
    label to {z: K(z)}."""
    errs = []
    ref = oracle.tangency_rho_c(L)
    if not abs(rho_c - ref) <= RHO_C_TOL * ref:
        errs.append(f"rho_c {rho_c!r} vs tangency root {ref!r}")
    for label, values in table_K.items():
        for z, k in values.items():
            kr = oracle.exit_kernel(z)
            if not abs(k - kr) <= K_TOL:
                errs.append(f"{label} K({z}) {k!r} vs contour {kr!r}")
    return errs


def setup_K_values(airy, cold_table: dict) -> dict:
    """K at the nodes in K_NODES of the default table and of the cold one."""
    out = {}
    for label, tab in (("default table", airy.min_law_tables()),
                       ("cold table", airy.min_law_tables(**cold_table))):
        zs = [z for z in K_NODES if np.any(np.isclose(tab.us, z, atol=1e-12))]
        out[label] = {z: float(tab.K_interp(z)) for z in zs}
    return out


# --- window-peel -------------------------------------------------------------


class WindowPeel:
    """`peelcore core-prob` on the nine-point r grid at m = 200, 400, 600,
    then `peelcore core-size` at the window centre with n = 2000."""

    name = "window-peel"
    analytic = True
    M_LIST = (200, 400, 600)
    REPS = 60
    BLOCK = 60
    SIZE_N = 2000
    SIZE_REPS = 60
    unit = "replicates"

    def __init__(self, prog, seed: int, work_dir: str):
        self.prog, self.seed, self.work_dir = prog, seed, work_dir
        self.done = []                  # (round, program seed, output dir)

    def round(self, k: int) -> RoundResult:
        res = RoundResult()
        s = program_seed(self.seed, k)
        d = os.path.join(self.work_dir, f"round{k}")
        common = ["--l", str(L), "--seed", str(s), "--workers", "1"]
        ok = _call(res, self.prog.cli.main, [
            "core-prob", *common, "--m-list", ",".join(map(str, self.M_LIST)),
            "--r-list=" + ",".join(map(repr, R_GRID)), "--reps", str(self.REPS),
            "--block", str(self.BLOCK), "--out-dir", os.path.join(d, "core-prob")])
        ok2 = _call(res, self.prog.cli.main, [
            "core-size", *common, "--n-list", str(self.SIZE_N),
            "--reps", str(self.SIZE_REPS), "--block", str(self.BLOCK),
            "--out-dir", os.path.join(d, "core-size")])
        if ok and ok2:
            res.units = len(self.M_LIST) * len(R_GRID) * self.REPS + self.SIZE_REPS
            self.done.append((k, s, d))
        return res

    def outputs(self) -> list:
        out = []
        for k, s, d in self.done:
            with open(os.path.join(d, "core-size", "manifest.json")) as f:
                empty = json.load(f)["empty"][str(self.SIZE_N)]
            out.append({"round": k, "seed": s,
                        "prob": _read_csv(os.path.join(d, "core-prob", "core_prob.csv")),
                        "sizes": _read_csv(os.path.join(d, "core-size", "core_size.csv")),
                        "empty": empty})
        return out

    def check(self, cc, outputs: list) -> list:
        errs = []
        for o in outputs:
            errs += self.check_core_prob(o["round"], o["seed"], o["prob"], cc)
            errs += self.check_core_size(o["seed"], o["sizes"], o["empty"], cc)
        errs += self.check_survival(outputs, cc)
        return errs or ([] if outputs else ["no round completed"])

    def points(self, rho_c: float) -> list:
        return [(m, r, n_for_r(r, m, rho_c))
                for m, r in itertools.product(self.M_LIST, R_GRID)]

    def check_core_prob(self, k: int, seed: int, rows: list, cc) -> list:
        """Grid, prediction column and, at one r of each m (rotating with the
        round), the survival count against the independent peel of every
        regenerated replicate."""
        pts = self.points(cc.rho_c)
        if len(rows) != len(pts):
            return [f"core_prob.csv has {len(rows)} rows, expected {len(pts)}"]
        errs = []
        for p, ((m, r, n), row) in enumerate(zip(pts, rows)):
            where = f"round {k} point {p} (m={m}, r={r})"
            if (row["l"], row["m"], row["n"], row["reps"], row["seed"]) != (L, m, n, self.REPS, seed):
                errs.append(f"{where}: row {row} does not match the grid")
                continue
            pred = float(oracle.normal_cdf(-r_tilde2(n, m, cc)))
            if not abs(row["prediction"] - pred) <= 1e-12:
                errs.append(f"{where}: prediction {row['prediction']!r} vs Phi(-r_tilde2) {pred!r}")
            if p % len(R_GRID) == k % len(R_GRID):
                hits = sum(oracle.core_size(_edges(x), m) > 0 for x in
                           oracle.replicate_sockets(seed, p, self.REPS, self.BLOCK, n, m, L))
                if row["p_hat"] != hits / self.REPS:
                    errs.append(f"{where}: p_hat {row['p_hat']!r} vs {hits}/{self.REPS} "
                                "nonempty cores under the independent peel")
        return errs

    def check_core_size(self, seed: int, rows: list, empty: int, cc) -> list:
        """Every replicate regenerated and peeled independently: the nonempty
        core sizes in order, and the count of empty cores."""
        n = self.SIZE_N
        m = max(int(round(n * cc.rho_c)), 1)
        sizes = [oracle.core_size(_edges(x), m) for x in
                 oracle.replicate_sockets(seed, 0, self.SIZE_REPS, self.BLOCK, n, m, L)]
        want = [s for s in sizes if s > 0]
        got = [row["core_size"] for row in rows]
        errs = []
        if any(row["n"] != n or row["m"] != m for row in rows):
            errs.append(f"core_size.csv (n, m) differs from ({n}, {m})")
        if got != want:
            bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                       min(len(got), len(want)))
            errs.append(f"core sizes differ from the independent peel at nonempty "
                        f"replicate {bad} ({len(got)} vs {len(want)} nonempty)")
        if empty != len(sizes) - len(want):
            errs.append(f"{empty} empty cores reported, {len(sizes) - len(want)} found")
        return errs

    def check_survival(self, outputs: list, cc) -> list:
        """Pooled over rounds, each m = 600 survival frequency against
        Phi(-r_tilde2) within oracle.survival_tolerance."""
        errs = []
        pts = self.points(cc.rho_c)
        outputs = [o for o in outputs if len(o["prob"]) == len(pts)]
        for p, (m, r, n) in enumerate(pts):
            if m != self.M_LIST[-1] or not outputs:
                continue
            reps = self.REPS * len(outputs)
            p_hat = sum(o["prob"][p]["p_hat"] for o in outputs) / len(outputs)
            pred = float(oracle.normal_cdf(-r_tilde2(n, m, cc)))
            tol = oracle.survival_tolerance(p_hat, pred, reps)
            if not abs(p_hat - pred) <= tol:
                errs.append(f"m={m} r={r}: survival {p_hat:.4f} vs {pred:.4f} "
                            f"over {reps} replicates, tolerance {tol:.4f}")
        return errs


# --- onset-stream ------------------------------------------------------------


class OnsetStream:
    """`peelcore nc` at m = 900."""

    name = "onset-stream"
    analytic = True
    M = 900
    REPS = 50
    BLOCK = 50
    unit = "replicates"

    def __init__(self, prog, seed: int, work_dir: str):
        self.prog, self.seed, self.work_dir = prog, seed, work_dir
        self.done = []

    def round(self, k: int) -> RoundResult:
        res = RoundResult()
        s = program_seed(self.seed, k)
        d = os.path.join(self.work_dir, f"round{k}")
        if _call(res, self.prog.cli.main, [
                "nc", "--l", str(L), "--m-list", str(self.M), "--reps", str(self.REPS),
                "--block", str(self.BLOCK), "--seed", str(s), "--workers", "1",
                "--out-dir", d]):
            res.units = self.REPS
            self.done.append((k, s, d))
        return res

    def outputs(self) -> list:
        return [{"round": k, "seed": s, "rows": _read_csv(os.path.join(d, "onset.csv"))}
                for k, s, d in self.done]

    def check(self, cc, outputs: list) -> list:
        errs = []
        for o in outputs:
            errs += self.check_streams(o["round"], o["seed"], o["rows"], cc)
        errs += self.check_law(outputs, cc)
        return errs or ([] if outputs else ["no round completed"])

    def check_streams(self, k: int, seed: int, rows: list, cc) -> list:
        """Every stream regenerated: N_c <= m, the prefix of length N_c has a
        nonempty core under the independent peel and that of N_c - 1 has none;
        the z column is the standardized count."""
        m = self.M
        if len(rows) != self.REPS:
            return [f"round {k}: onset.csv has {len(rows)} rows, expected {self.REPS}"]
        errs = []
        z_ref = onset_z([row["n_c"] for row in rows], m, cc)
        for i, (row, stream) in enumerate(zip(rows, oracle.replicate_sockets(
                seed, 0, self.REPS, self.BLOCK, m, m, L))):
            nc = row["n_c"]
            where = f"round {k} stream {i}"
            if row["m"] != m or row["replicate"] != i:
                errs.append(f"{where}: row {row} out of order")
            elif not 1 <= nc <= m:
                errs.append(f"{where}: censored or empty onset {nc}")
            else:
                edges = _edges(stream)
                if oracle.core_size(edges[:nc], m) == 0:
                    errs.append(f"{where}: prefix {nc} has no core")
                if oracle.core_size(edges[:nc - 1], m) > 0:
                    errs.append(f"{where}: prefix {nc - 1} already has a core")
            if not abs(row["z"] - z_ref[i]) <= 1e-9:
                errs.append(f"{where}: z {row['z']!r} vs {z_ref[i]!r}")
        return errs

    def check_law(self, outputs: list, cc) -> list:
        counts = np.array([row["n_c"] for o in outputs for row in o["rows"]])
        if counts.size == 0:
            return []
        ks = oracle.lattice_ks(counts, lambda g: oracle.normal_cdf(onset_z(g, self.M, cc)))
        tol = oracle.ks_tolerance(counts.size)
        if not ks <= tol:
            return [f"lattice KS {ks:.4f} over {counts.size} streams, tolerance {tol:.4f}"]
        return []


# --- exact-kernel ------------------------------------------------------------


class ExactKernel:
    """`peelcore kernel-check` at n = 100, 200; the conditioned-step
    sampler at c05's state; cold w_exact at the deep states of the n = 1000
    kernel grid."""

    name = "exact-kernel"
    analytic = False
    RHO = 1.2218
    N_LIST = (100, 200)
    STEP_STATE = ((7, 9), 3, 20, 24)         # (z1, z2), tau, n, m
    STEP_REPS = 100_000
    DEEP_N = 1000
    unit = "states"

    def __init__(self, prog, seed: int, work_dir: str):
        self.prog, self.seed = prog, seed
        k = prog.kernels
        self.grid = k.default_state_grid(L, self.RHO)
        m = int(round(self.DEEP_N * self.RHO))
        self.deep = [((int(round(self.DEEP_N * x1)), int(round(self.DEEP_N * x2))),
                      int(round(self.DEEP_N * th)), self.DEEP_N, m)
                     for x1, x2, th in self.grid if round(self.DEEP_N * x2) > 500]
        self.printed = []       # kernel-check stdout per round
        self.steps = []         # sampled increments per round
        self.deep_rows = []     # rows of deep calls that returned

    def params(self, n, m):
        return self.prog.ensemble.EnsembleParams(L, n, m)

    def round(self, k: int) -> RoundResult:
        kern = self.prog.kernels
        res = RoundResult()
        for z, tau, n, m in self.deep:
            self.prog.clear_caches()
            got = _call(res, kern.w_exact, z, tau, self.params(n, m),
                        expected=(RecursionError,))
            if got:
                res.units += 1
                self.deep_rows.append(got[0].arrays())
        self.prog.clear_caches()
        got = _call(res, self.prog.cli.main, [
            "kernel-check", "--l", str(L), "--rho", repr(self.RHO),
            "--n-list", ",".join(map(str, self.N_LIST))])
        if got:
            res.units += len(self.grid) * len(self.N_LIST)
            self.printed.append(got[1])
        z, tau, n, m = self.STEP_STATE
        got = _call(res, kern.sample_conditional_steps, z, tau, self.params(n, m),
                    self.STEP_REPS, np.random.default_rng(program_seed(self.seed, k)))
        if got:
            self.steps.append(got[0])
        return res

    def outputs(self) -> dict:
        """The printed D(n), each exact row of the grid (re-evaluated after the
        rounds), the approximate rows, and c05's exact law."""
        kern = self.prog.kernels
        rows, approx = {}, {}
        for n in self.N_LIST:
            params = self.params(n, int(round(n * self.RHO)))
            for x1, x2, th in self.grid:
                z, tau = (int(round(n * x1)), int(round(n * x2))), int(round(n * th))
                rows[(n, x1, x2, th)] = kern.w_exact(z, tau, params).arrays()
                approx[(n, x1, x2, th)] = kern.w_hat((z[0] / n, z[1] / n), tau / n,
                                                     params).arrays()
        z, tau, n, m = self.STEP_STATE
        return {"printed": self.printed, "rows": rows, "approx": approx,
                "law": kern.w_exact(z, tau, self.params(n, m)).arrays(),
                "steps": self.steps, "deep_rows": self.deep_rows}

    def check(self, cc, o: dict) -> list:
        errs = self.check_rows(o["rows"]) + self.check_rows(o["deep_rows"], "deep ")
        d_ref = {}
        for key, (keys, probs) in o["rows"].items():
            n = key[0]
            akeys, aprobs = o["approx"][key]
            a = dict(zip(map(tuple, akeys.tolist()), aprobs))
            e = dict(zip(map(tuple, keys.tolist()), probs))
            d = max(abs(e.get(q, 0.0) - a.get(q, 0.0)) for q in set(a) | set(e))
            d_ref[n] = max(d_ref.get(n, 0.0), d)
        for i, text in enumerate(o["printed"]):
            printed = {int(line[2:line.index(")")]): float(line.split("=")[1])
                       for line in text.splitlines() if line.startswith("D(")}
            for n in self.N_LIST:
                if n not in printed or not abs(printed[n] - d_ref[n]) <= 1e-12 * d_ref[n]:
                    errs.append(f"round {i}: printed D({n}) {printed.get(n)!r} "
                                f"vs {d_ref[n]!r} from the rows")
        for a, b in zip(self.N_LIST, self.N_LIST[1:]):
            ratio = d_ref[a] / d_ref[b]
            if not 1.6 <= ratio <= 2.5:
                errs.append(f"D({a})/D({b}) = {ratio:.3f} outside [1.6, 2.5]")
        if o["steps"]:
            # one test per run over all rounds' steps: a correct run fails it
            # with probability 0.001
            p, unseen = oracle.chi_square_p(np.concatenate(o["steps"]), *o["law"])
            if not (p > 0.001 and unseen == 0):
                errs.append(f"conditioned steps chi2 p = {p:.2e}, "
                            f"{unseen} outside the support")
        return errs if o["printed"] else errs + ["no round completed"]

    @staticmethod
    def check_rows(rows, label: str = "") -> list:
        """Each exact row is finite and sums to 1 within 1e-9, unrenormalized."""
        items = rows.items() if isinstance(rows, dict) else enumerate(rows)
        errs = []
        for key, (_, probs) in items:
            total = float(np.sum(probs))
            if not (np.all(np.isfinite(probs)) and abs(total - 1.0) <= 1e-9):
                errs.append(f"{label}row {key} sums to {total!r}")
        return errs


WORKLOADS = {w.name: w for w in (WindowPeel, OnsetStream, ExactKernel)}
