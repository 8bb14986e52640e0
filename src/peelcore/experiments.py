"""Experiment drivers: sample ensembles at grids of (m, density) points, peel,
and tabulate survival frequencies, onset counts, and core sizes against the
analytic predictions.

Replicates are split into fixed blocks of `block` replicates; block b of grid
point p draws from default_rng([seed, p, b]) regardless of how blocks are
distributed over workers, so output files are byte-identical for any worker
count.
"""

from __future__ import annotations

import functools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import scaling
from .ensemble import EnsembleParams
from .ode import CriticalConstants, critical_constants
from .peeling import batch_core_mask, batch_onset_edge_counts

__all__ = [
    "ExperimentConfig",
    "ExperimentRecord",
    "get_constants",
    "run_core_prob",
    "run_onset",
    "run_core_size",
    "small_core_fraction",
    "emit_core_prob",
    "emit_onset",
    "emit_core_size",
    "parse_csv",
    "load_config_file",
    "CSV_HEADER",
]

@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "core-prob"
    l: int = 3
    m_list: tuple = (200, 400, 600)
    r_list: tuple = (-3.0, -2.25, -1.5, -0.75, 0.0, 0.75, 1.5, 2.25, 3.0)
    rho_list: tuple = ()
    n_list: tuple = (500, 1000, 2000)
    reps: int = 2000
    seed: int = 1
    workers: int = 1
    out_dir: str = "peelcore_out"
    block: int = 500

    def __post_init__(self):
        for name in ("reps", "block", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.experiment in ("core-prob", "nc") and not self.m_list:
            raise ValueError(f"{self.experiment} needs a nonempty m_list")
        if self.experiment == "core-prob" and not (self.r_list or self.rho_list):
            raise ValueError("core-prob needs a nonempty r_list or rho_list")
        if self.experiment == "core-size" and not self.n_list:
            raise ValueError("core-size needs a nonempty n_list")


@dataclass(frozen=True)
class ExperimentRecord:
    l: int
    m: int
    n: int
    rho: float
    r: float
    r_tilde1: float
    r_tilde2: float
    p_hat: float
    se: float
    ci_lo: float
    ci_hi: float
    prediction: float       # Phi(-r_tilde2), ScalingPrediction.p_shifted
    reps: int
    seed: int

    def csv_row(self) -> str:
        return ",".join(_fmt(v) for v in astuple(self))


CSV_HEADER = ",".join(f.name for f in fields(ExperimentRecord))


@functools.lru_cache(maxsize=4)
def get_constants(l: int, with_omega: bool = True) -> CriticalConstants:
    """Critical constants for degree l, with the minimum-law mean attached."""
    params = EnsembleParams(l=l, n=100, m=100)
    cc = critical_constants(params)
    if with_omega:
        from .airy import omega_integral
        cc = cc.with_omega(omega_integral())
    return cc


def _n_for_r(r: float, m: int, rho_c: float) -> int:
    """Invert r = sqrt(n)(m/n - rho_c) for integer n (nearest)."""
    s = (-r + math.sqrt(r * r + 4.0 * rho_c * m)) / (2.0 * rho_c)
    return max(int(round(s * s)), 1)


def _wilson_or_normal(p_hat: float, reps: int):
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / reps)
    z = 1.959963984540054
    if p_hat * (1.0 - p_hat) * reps < 10.0:
        denom = 1.0 + z * z / reps
        center = (p_hat + z * z / (2.0 * reps)) / denom
        half = z * math.sqrt(p_hat * (1.0 - p_hat) / reps
                             + z * z / (4.0 * reps * reps)) / denom
        lo, hi = center - half, center + half
    else:
        lo, hi = p_hat - z * se, p_hat + z * se
    return se, max(lo, 0.0), min(hi, 1.0)


# --- block workers (module level so they pickle) ---


def _blocks(reps: int, block: int):
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    out = []
    done = 0
    b = 0
    while done < reps:
        take = min(block, reps - done)
        out.append((b, take))
        done += take
        b += 1
    return out


def _core_sizes(sockets, m):
    """Core sizes (v-nodes) of a batch of socket tables."""
    return batch_core_mask(sockets, m).sum(axis=1)


def _block(task):
    """stat(sockets, m) of one block of (breps, n, l) sampled socket tables."""
    stat, l, n, m, seed, p_idx, b_idx, breps = task
    rng = np.random.default_rng([seed, p_idx, b_idx])
    return stat(rng.integers(0, m, size=(breps, n, l)), m)


def _sample_points(stat, l: int, points, reps: int, seed: int, block: int,
                   workers: int) -> list:
    """stat over reps sampled graphs at each (n, m) point, one array per point.

    Every (point, block) task goes through one task map, so a run opens at
    most one process pool.
    """
    bl = _blocks(reps, block)
    tasks = [(stat, l, n, m, seed, p_idx, b_idx, breps)
             for p_idx, (n, m) in enumerate(points) for b_idx, breps in bl]
    if workers <= 1:
        chunks = [_block(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            chunks = list(ex.map(_block, tasks))
    k = len(bl)
    return [np.concatenate(chunks[i:i + k]) for i in range(0, len(chunks), k)]


# --- experiment drivers ---


def _core_prob_points(cfg: ExperimentConfig, rho_c: float):
    """Grid points as (n, m) pairs, from either the r grid or the rho grid."""
    pts = []
    for m in cfg.m_list:
        if cfg.rho_list:
            for rho in cfg.rho_list:
                pts.append((max(int(round(m / rho)), 1), m))
        else:
            for r in cfg.r_list:
                pts.append((_n_for_r(r, m, rho_c), m))
    return pts


def run_core_prob(cfg: ExperimentConfig) -> list:
    """Survival frequency at every grid point, with prediction and CI."""
    cc = get_constants(cfg.l)
    pts = _core_prob_points(cfg, cc.rho_c)
    sizes = _sample_points(_core_sizes, cfg.l, pts, cfg.reps, cfg.seed,
                           cfg.block, cfg.workers)
    records = []
    for (n, m), s in zip(pts, sizes):
        rho = m / n
        pred = scaling.predict_core_prob(n, rho, cc)
        p_hat = int((s > 0).sum()) / cfg.reps
        se, lo, hi = _wilson_or_normal(p_hat, cfg.reps)
        records.append(ExperimentRecord(
            cfg.l, m, n, rho, pred.r, pred.r_tilde1, pred.r_tilde2,
            p_hat, se, lo, hi, pred.p_shifted, cfg.reps, cfg.seed))
    return records


def small_core_fraction(l: int, n: int, m: int, reps: int, seed: int,
                        threshold: float = 0.02, workers: int = 1,
                        block: int = 500):
    """(fraction of replicates with a nonempty core below threshold*m v-nodes,
    fraction nonempty)."""
    sizes, = _sample_points(_core_sizes, l, [(n, m)], reps, seed, block, workers)
    nonempty = int((sizes > 0).sum())
    small = int(((sizes > 0) & (sizes < threshold * m)).sum())
    return small / reps, nonempty / reps


@dataclass(frozen=True)
class OnsetResult:
    m: int
    counts: np.ndarray       # onset v-node counts, m+1 when no core by n = m
    standardized: np.ndarray


def run_onset(cfg: ExperimentConfig) -> list:
    """Sampled onset counts for each m: the first v-node count at which the
    growing graph acquires a nonempty core."""
    cc = get_constants(cfg.l)
    counts = _sample_points(batch_onset_edge_counts, cfg.l,
                            [(m, m) for m in cfg.m_list],
                            cfg.reps, cfg.seed, cfg.block, cfg.workers)
    return [OnsetResult(m, c, scaling.standardize_onset(c.astype(float), m, cc))
            for m, c in zip(cfg.m_list, counts)]


@dataclass(frozen=True)
class CoreSizeResult:
    n: int
    m: int
    sizes: np.ndarray         # nonempty core sizes only
    n_empty: int
    standardized: np.ndarray  # standardized scale, same order as sizes


def run_core_size(cfg: ExperimentConfig) -> list:
    """Core sizes at the window center rho = rho_c for each n in n_list."""
    cc = get_constants(cfg.l)
    pts = [(n, max(int(round(n * cc.rho_c)), 1)) for n in cfg.n_list]
    all_sizes = _sample_points(_core_sizes, cfg.l, pts, cfg.reps, cfg.seed,
                               cfg.block, cfg.workers)
    results = []
    for (n, m), drawn in zip(pts, all_sizes):
        sizes = drawn[drawn > 0]
        std = scaling.standardize_core_size(sizes.astype(float), n, cc)
        results.append(CoreSizeResult(n, m, sizes, int((drawn == 0).sum()), std))
    return results


# --- output emission ---


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _require_results(results: list):
    if not results:
        raise ValueError("nothing to emit: the result list is empty")


def emit_core_prob(cfg: ExperimentConfig, records: list) -> list:
    _require_results(records)
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "core_prob.csv")
    with open(csv_path, "w", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for rec in records:
            f.write(rec.csv_row() + "\n")
    svg_path = os.path.join(cfg.out_dir, "core_prob.svg")
    _svg_core_prob(svg_path, records)
    man_path = _write_manifest(cfg, [csv_path, svg_path],
                               {"points": len(records)})
    return [csv_path, svg_path, man_path]


def emit_onset(cfg: ExperimentConfig, results: list) -> list:
    _require_results(results)
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "onset.csv")
    with open(csv_path, "w", newline="") as f:
        f.write("m,replicate,n_c,z\n")
        for res in results:
            for i, (c, z) in enumerate(zip(res.counts, res.standardized)):
                f.write(f"{res.m},{i},{c},{_fmt(float(z))}\n")
    svg_path = os.path.join(cfg.out_dir, "onset.svg")
    _svg_histogram(svg_path, results[-1].standardized,
                   scaling.std_normal_pdf, "standardized onset",
                   f"onset law, m={results[-1].m}")
    man_path = _write_manifest(cfg, [csv_path, svg_path],
                               {"m_list": list(int(r.m) for r in results)})
    return [csv_path, svg_path, man_path]


def emit_core_size(cfg: ExperimentConfig, results: list) -> list:
    _require_results(results)
    os.makedirs(cfg.out_dir, exist_ok=True)
    cc = get_constants(cfg.l)
    csv_path = os.path.join(cfg.out_dir, "core_size.csv")
    with open(csv_path, "w", newline="") as f:
        f.write("n,m,replicate,core_size,z\n")
        for res in results:
            for i, (s, z) in enumerate(zip(res.sizes, res.standardized)):
                f.write(f"{res.n},{res.m},{i},{s},{_fmt(float(z))}\n")
    svg_path = os.path.join(cfg.out_dir, "core_size.svg")
    last = results[-1]
    _svg_histogram(svg_path, last.standardized[last.standardized > 0],
                   lambda z: scaling.core_size_density(z, 0.0, cc),
                   "standardized core size", f"core size law, n={last.n}")
    man_path = _write_manifest(cfg, [csv_path, svg_path],
                               {"n_list": list(int(r.n) for r in results),
                                "empty": {str(r.n): r.n_empty for r in results}})
    return [csv_path, svg_path, man_path]


def _write_manifest(cfg: ExperimentConfig, files: list, extra: dict) -> str:
    man = {
        "experiment": cfg.experiment,
        "config": {
            "l": cfg.l, "m_list": list(cfg.m_list), "r_list": list(cfg.r_list),
            "rho_list": list(cfg.rho_list), "n_list": list(cfg.n_list),
            "reps": cfg.reps, "seed": cfg.seed, "block": cfg.block,
        },
        "files": [os.path.basename(p) for p in files],
        **extra,
    }
    path = os.path.join(cfg.out_dir, "manifest.json")
    with open(path, "w") as f:
        json.dump(man, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def parse_csv(path: str):
    """Read one of the emitted CSVs back as {column: ndarray}."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = [line.strip().split(",") for line in f if line.strip()]
    cols = {}
    for j, name in enumerate(header):
        vals = [r[j] for r in rows]
        try:
            cols[name] = np.array([int(v) for v in vals])
        except ValueError:
            cols[name] = np.array([float(v) for v in vals])
    return cols


def load_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment; lists are comma separated."""
    out = {}
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


# --- hand-built SVG plots ---


_W, _H = 640, 440
_ML, _MR, _MT, _MB = 64, 20, 36, 48
_COLORS = ("#1f6fb2", "#c23b22", "#3a7d44")


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-9 * step:
        out.append(round(t, 10))
        t += step
    return out


class _Frame:
    def __init__(self, xlo, xhi, ylo, yhi):
        self.xlo, self.xhi, self.ylo, self.yhi = xlo, xhi, ylo, yhi

    def px(self, x):
        return _ML + (x - self.xlo) / (self.xhi - self.xlo) * (_W - _ML - _MR)

    def py(self, y):
        return _H - _MB - (y - self.ylo) / (self.yhi - self.ylo) * (_H - _MT - _MB)


def _svg_open(title: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="22" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
    ]


def _svg_axes(parts: list, fr: _Frame, xlabel: str, ylabel: str):
    x0, x1 = fr.px(fr.xlo), fr.px(fr.xhi)
    y0, y1 = fr.py(fr.ylo), fr.py(fr.yhi)
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for t in _ticks(fr.xlo, fr.xhi):
        px = fr.px(t)
        parts.append(f'<line x1="{px}" y1="{y0}" x2="{px}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(f'<text x="{px}" y="{y0 + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{t:g}</text>')
    for t in _ticks(fr.ylo, fr.yhi):
        py = fr.py(t)
        parts.append(f'<line x1="{x0 - 5}" y1="{py}" x2="{x0}" y2="{py}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{py + 4}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{t:g}</text>')
    parts.append(f'<text x="{(x0 + x1) / 2}" y="{_H - 10}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(y0 + y1) / 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {(y0 + y1) / 2})">{ylabel}</text>')


def _polyline(fr: _Frame, xs, ys, color: str, dash: str = "") -> str:
    pts = " ".join(f"{fr.px(x):.2f},{fr.py(y):.2f}" for x, y in zip(xs, ys))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{extra}/>'


def _svg_core_prob(path: str, records: list):
    """Survival frequency vs the shifted window coordinate, one series per m,
    with the Gaussian limit curve underneath."""
    by_m = {}
    for r in records:
        by_m.setdefault(r.m, []).append(r)
    xs_all = [r.r_tilde2 for r in records]
    xlo, xhi = min(xs_all) - 0.3, max(xs_all) + 0.3
    fr = _Frame(xlo, xhi, 0.0, 1.0)
    parts = _svg_open("core survival vs shifted window coordinate")
    _svg_axes(parts, fr, "r2 = sqrt(n)(rho - rho_c - shift)/alpha", "P(core)")
    grid = np.linspace(xlo, xhi, 120)
    parts.append(_polyline(fr, grid, scaling.std_normal_cdf(-grid), "#888888", "4 3"))
    for i, (m, recs) in enumerate(sorted(by_m.items())):
        recs = sorted(recs, key=lambda r: r.r_tilde2)
        col = _COLORS[i % len(_COLORS)]
        for r in recs:
            px, py = fr.px(r.r_tilde2), fr.py(r.p_hat)
            parts.append(f'<line x1="{px}" y1="{fr.py(r.ci_lo)}" x2="{px}" '
                         f'y2="{fr.py(r.ci_hi)}" stroke="{col}"/>')
            parts.append(f'<circle cx="{px}" cy="{py}" r="3" fill="{col}"/>')
        parts.append(_polyline(fr, [r.r_tilde2 for r in recs],
                               [r.prediction for r in recs], col))
        parts.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 14 * i}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11" fill="{col}">m={m}</text>')
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


def _svg_histogram(path: str, samples: np.ndarray, density, xlabel: str, title: str):
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        samples = np.zeros(1)
    lo, hi = float(samples.min()), float(samples.max())
    pad = 0.05 * (hi - lo + 1e-9)
    lo, hi = lo - pad, hi + pad
    nb = max(int(round(math.sqrt(samples.size))), 8)
    nb = min(nb, 60)
    counts, edges = np.histogram(samples, bins=nb, range=(lo, hi), density=True)
    grid = np.linspace(lo, hi, 160)
    dens = np.asarray(density(grid), dtype=float)
    ymax = max(float(counts.max()), float(dens.max())) * 1.1
    fr = _Frame(lo, hi, 0.0, ymax)
    parts = _svg_open(title)
    _svg_axes(parts, fr, xlabel, "density")
    for c, e0, e1 in zip(counts, edges[:-1], edges[1:]):
        x, wdt = fr.px(e0), fr.px(e1) - fr.px(e0)
        y = fr.py(c)
        parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{wdt:.2f}" '
                     f'height="{fr.py(0.0) - y:.2f}" fill="#9ecbe8" stroke="#5b94bd" '
                     f'stroke-width="0.5"/>')
    parts.append(_polyline(fr, grid, dens, "#c23b22"))
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")
