"""Experiment drivers: determinism, output formats, config handling, CLI."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import peelcore
from peelcore import cli, experiments
from peelcore.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    _blocks,
    _n_for_r,
    _wilson_or_normal,
    emit_core_prob,
    emit_core_size,
    emit_onset,
    get_constants,
    load_config_file,
    parse_csv,
    run_core_prob,
    run_core_size,
    run_onset,
    small_core_fraction,
)
from peelcore.scaling import predict_core_prob


def _tiny_cfg(experiment, out_dir, **kw):
    base = dict(experiment=experiment, m_list=(60,), r_list=(0.0, 1.5),
                n_list=(60,), reps=40, seed=9, workers=1, out_dir=str(out_dir),
                block=16)
    base.update(kw)
    return ExperimentConfig(**base)


def test_n_for_r_inverts_the_window_coordinate():
    cc = get_constants(3)
    for m in (200, 600):
        for r in (-3.0, -0.75, 0.0, 2.25):
            n = _n_for_r(r, m, cc.rho_c)
            r_back = np.sqrt(n) * (m / n - cc.rho_c)
            # integer rounding moves r by about rho_c/sqrt(n) at most
            assert abs(r_back - r) < 2.0 * cc.rho_c / np.sqrt(n)


def test_wilson_fallback_at_extreme_frequencies():
    se, lo, hi = _wilson_or_normal(0.0, 50)
    assert se == 0.0 and lo < 1e-12 and hi > 0.01
    se2, lo2, hi2 = _wilson_or_normal(1.0, 50)
    assert hi2 == 1.0 and lo2 < 1.0
    # plain normal interval in the comfortable regime
    se3, lo3, hi3 = _wilson_or_normal(0.5, 1000)
    assert lo3 == pytest.approx(0.5 - 1.959963984540054 * se3)
    assert hi3 == pytest.approx(0.5 + 1.959963984540054 * se3)
    assert 0.0 <= lo3 < hi3 <= 1.0


@pytest.mark.parametrize("emit,experiment", [
    (emit_core_prob, "core-prob"), (emit_onset, "nc"), (emit_core_size, "core-size")])
def test_emitters_reject_empty_results(tmp_path, emit, experiment):
    with pytest.raises(ValueError):
        emit(_tiny_cfg(experiment, tmp_path / "out"), [])
    assert not (tmp_path / "out").exists()


def test_core_prob_records_and_emission(tmp_path):
    cfg = _tiny_cfg("core-prob", tmp_path / "out")
    records = run_core_prob(cfg)
    assert len(records) == 2
    cc = get_constants(3)
    for rec in records:
        assert rec.m == 60 and rec.reps == 40 and rec.seed == 9
        assert 0.0 <= rec.p_hat <= 1.0
        assert rec.ci_lo <= rec.p_hat <= rec.ci_hi
        assert 0.0 <= rec.prediction <= 1.0
        assert rec.prediction == predict_core_prob(rec.n, rec.rho, cc).p_shifted
        assert rec.rho == rec.m / rec.n
    paths = emit_core_prob(cfg, records)
    assert [os.path.basename(p) for p in paths] == [
        "core_prob.csv", "core_prob.svg", "manifest.json"]
    with open(paths[0]) as f:
        first = f.readline().strip()
    assert first == CSV_HEADER
    cols = parse_csv(paths[0])
    assert set(cols) == set(CSV_HEADER.split(","))
    assert cols["m"].tolist() == [60, 60]
    # float round trip through repr is exact
    assert cols["p_hat"].tolist() == [r.p_hat for r in records]
    assert cols["prediction"].tolist() == [r.prediction for r in records]


def test_manifest_content(tmp_path):
    cfg = _tiny_cfg("core-prob", tmp_path / "out")
    paths = emit_core_prob(cfg, run_core_prob(cfg))
    man = json.load(open(paths[2]))
    assert man["experiment"] == "core-prob"
    assert man["config"]["reps"] == 40
    assert man["config"]["seed"] == 9
    assert man["files"] == ["core_prob.csv", "core_prob.svg"]
    assert man["points"] == 2
    # every config field that changes the outputs, and no other
    kept = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(man["config"]) == kept - {"experiment", "workers", "out_dir"}
    # no clock anywhere: emitted content is a pure function of the config
    assert "time" not in json.dumps(man).lower()


def test_svg_well_formed(tmp_path):
    cfg = _tiny_cfg("core-prob", tmp_path / "out")
    paths = emit_core_prob(cfg, run_core_prob(cfg))
    root = ET.parse(paths[1]).getroot()
    assert root.tag.endswith("svg")
    body = open(paths[1]).read()
    assert "polyline" in body and "circle" in body


def test_worker_count_does_not_change_outputs(tmp_path):
    recs1 = run_core_prob(_tiny_cfg("core-prob", tmp_path / "a", reps=48))
    recs2 = run_core_prob(_tiny_cfg("core-prob", tmp_path / "b", reps=48, workers=2))
    assert recs1 == recs2
    p1 = emit_core_prob(_tiny_cfg("core-prob", tmp_path / "a", reps=48), recs1)
    p2 = emit_core_prob(_tiny_cfg("core-prob", tmp_path / "b", reps=48, workers=2), recs2)
    for a, b in zip(p1, p2):
        assert open(a, "rb").read() == open(b, "rb").read()


@pytest.mark.parametrize("experiment,run,emit", [
    ("nc", run_onset, emit_onset),
    ("core-size", run_core_size, emit_core_size),
], ids=["nc", "core-size"])
def test_onset_worker_count_does_not_change_csv(tmp_path, experiment, run, emit):
    # two grid points, and a block (16) that leaves a short last block of 13
    blobs = []
    for workers in (1, 2):
        cfg = _tiny_cfg(experiment, tmp_path / f"w{workers}", m_list=(40, 60),
                        n_list=(60, 90), reps=45, workers=workers)
        paths = emit(cfg, run(cfg))
        blobs.append(open(paths[0], "rb").read())
    assert blobs[0] == blobs[1]
    if experiment == "nc":
        assert blobs[0].count(b"\n") == 1 + 2 * 45


@pytest.mark.parametrize("experiment,run", [
    ("nc", run_onset), ("core-size", run_core_size)], ids=["nc", "core-size"])
def test_run_opens_one_process_pool(tmp_path, monkeypatch, experiment, run):
    opened = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    cfg = _tiny_cfg(experiment, tmp_path, m_list=(40, 50, 60),
                    n_list=(60, 70, 90), reps=20, block=8, workers=2)
    assert len(run(cfg)) == 3
    assert opened == [2]


def test_replay_same_seed_identical(tmp_path):
    cfg = _tiny_cfg("core-prob", tmp_path / "o")
    assert run_core_prob(cfg) == run_core_prob(cfg)
    other = _tiny_cfg("core-prob", tmp_path / "o", seed=10)
    assert run_core_prob(other) != run_core_prob(cfg)


# SHA-256 of the sample columns, as written, of the fixed-seed runs below.  The
# analytic columns (r_tilde1, r_tilde2, prediction, z) move with the constants'
# round-off, so they stay out of the digest.
SAMPLE_COLUMNS_SHA256 = "ce532e66002d609d72043a2211f7e2219ecdc9fe08e69e50888ba179a84b6aeb"


def test_fixed_seed_sample_columns_pinned(tmp_path):
    digest = hashlib.sha256()
    for experiment, run, emit, columns in (
        ("core-prob", run_core_prob, emit_core_prob, ("p_hat", "se", "ci_lo", "ci_hi")),
        ("nc", run_onset, emit_onset, ("n_c",)),
        ("core-size", run_core_size, emit_core_size, ("core_size",)),
    ):
        cfg = _tiny_cfg(experiment, tmp_path / experiment, m_list=(120,),
                        r_list=(-1.5, 0.0, 1.5), n_list=(100,), reps=500, seed=16,
                        block=100)
        with open(emit(cfg, run(cfg))[0]) as f:
            header = f.readline().rstrip("\n").split(",")
            idx = [header.index(c) for c in columns]
            for line in f:
                row = line.rstrip("\n").split(",")
                digest.update((",".join(row[i] for i in idx) + "\n").encode())
    assert digest.hexdigest() == SAMPLE_COLUMNS_SHA256


def test_block_size_does_not_change_outputs(tmp_path):
    a = run_core_prob(_tiny_cfg("core-prob", tmp_path / "a", reps=48, block=48))
    b = run_core_prob(_tiny_cfg("core-prob", tmp_path / "b", reps=48, block=7))
    # per-block seeding: different block split legitimately changes the draws,
    # but the record structure and determinism per split must hold
    assert [r.n for r in a] == [r.n for r in b]
    again = run_core_prob(_tiny_cfg("core-prob", tmp_path / "c", reps=48, block=7))
    assert b == again


def test_onset_run_and_emission(tmp_path):
    cfg = _tiny_cfg("nc", tmp_path / "out", m_list=(40,), reps=30)
    results = run_onset(cfg)
    assert len(results) == 1
    res = results[0]
    assert res.counts.shape == (30,)
    assert np.all((1 <= res.counts) & (res.counts <= 41))
    assert res.standardized.shape == (30,)
    paths = emit_onset(cfg, results)
    assert os.path.basename(paths[0]) == "onset.csv"
    cols = parse_csv(paths[0])
    assert set(cols) == {"m", "replicate", "n_c", "z"}
    assert len(cols["m"]) == 30
    ET.parse(paths[1])


def test_core_size_run_and_emission(tmp_path):
    cfg = _tiny_cfg("core-size", tmp_path / "out", n_list=(50,), reps=30)
    results = run_core_size(cfg)
    res = results[0]
    assert res.n == 50
    assert res.m == int(round(50 * get_constants(3).rho_c))
    assert res.sizes.min() > 0
    assert len(res.sizes) + res.n_empty == 30
    paths = emit_core_size(cfg, results)
    cols = parse_csv(paths[0])
    assert set(cols) == {"n", "m", "replicate", "core_size", "z"}
    man = json.load(open(paths[2]))
    assert man["empty"]["50"] == res.n_empty
    ET.parse(paths[1])


def test_small_core_fraction_run():
    small, nonempty = small_core_fraction(3, 80, 98, reps=200, seed=4, block=64)
    assert 0.0 <= small <= nonempty <= 1.0


@pytest.mark.parametrize("experiment, bad", [
    ("core-prob", {"reps": 0}),
    ("nc", {"block": 0}),
    ("core-size", {"workers": 0}),
    ("core-prob", {"block": -3}),
    ("core-prob", {"m_list": ()}),
    ("nc", {"m_list": ()}),
    ("core-prob", {"r_list": (), "rho_list": ()}),
    ("core-size", {"n_list": ()}),
    ("nc", {"m_list": (40, 0)}),
    ("core-size", {"n_list": (-60,)}),
    ("core-prob", {"rho_list": (1.2, -1.2)}),
    ("core-prob", {"l": 2}),
    ("core-prob", {"r_list": (0.0, math.nan)}),
    ("core-prob", {"r_list": (math.inf,)}),
    ("nc", {"m_list": (2.5,)}),
    ("core-prob", {"m_list": (60, 60.0)}),
    ("core-size", {"n_list": (60.5,)}),
    ("core-prob", {"reps": 2.5}),
    ("nc", {"block": 2.5}),
    ("core-size", {"l": 3.5}),
    ("core-prob", {"seed": 1.5}),
    ("core-prob", {"seed": -1}),
])
def test_config_rejects_bad_driver_inputs(tmp_path, experiment, bad):
    with pytest.raises(ValueError):
        _tiny_cfg(experiment, tmp_path, **bad)


def test_config_accepts_grids_its_experiment_ignores(tmp_path):
    _tiny_cfg("core-prob", tmp_path, r_list=(), rho_list=(1.2,), n_list=())
    _tiny_cfg("nc", tmp_path, r_list=(), n_list=())
    _tiny_cfg("core-size", tmp_path, m_list=(), r_list=())


@pytest.mark.parametrize("grid", [{"r_list": (-1e4,)}, {"rho_list": (1e-6,)}])
def test_core_prob_rejects_graphs_past_the_peel_id_range(tmp_path, monkeypatch, grid):
    # n = 6.7e7 (r = -1e4) and 6e7 (rho = 1e-6) edges at m = 60: the size check
    # must come before any block is drawn
    def no_draw(task):
        raise AssertionError("a block was sampled")

    monkeypatch.setattr(experiments, "_block", no_draw)
    with pytest.raises(ValueError, match=r"2\*\*31"):
        run_core_prob(_tiny_cfg("core-prob", tmp_path, **grid))


def test_core_prob_refuses_a_block_past_the_memory_bound(tmp_path, monkeypatch):
    # r = -1e4 at m = 60 is n = 6.7e7 edges: inside the id range for one
    # replicate, but a 1.6 GB int64 socket table
    def no_draw(task):
        raise AssertionError("a block was sampled")

    monkeypatch.setattr(experiments, "_block", no_draw)
    with pytest.raises(ValueError, match="bound"):
        cli.main(["core-prob", "--m-list", "60", "--r-list=-10000", "--reps", "1",
                  "--out-dir", str(tmp_path)])


def test_blocks_rejects_nonpositive_block():
    assert _blocks(5, 2) == [(0, 2), (1, 2), (2, 1)]
    for block in (0, -1):
        with pytest.raises(ValueError):
            _blocks(5, block)
    with pytest.raises(ValueError):
        small_core_fraction(3, 80, 98, reps=10, seed=4, block=0)


def test_small_core_fraction_rejects_zero_reps():
    with pytest.raises(ValueError, match="reps"):
        small_core_fraction(3, 80, 98, reps=0, seed=4)


# --- config file and CLI ---


def test_load_config_file(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("# comment\nreps = 17\nm_list = 30,40 # trailing\n\nseed=5\n")
    vals = load_config_file(str(p))
    assert vals == {"reps": "17", "m_list": "30,40", "seed": "5"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("novalue\n")
    with pytest.raises(ValueError):
        load_config_file(str(bad))


def test_cli_config_precedence(tmp_path, monkeypatch):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("reps = 17\nseed = 5\nblock = 3\n")
    import argparse
    ns = argparse.Namespace(
        l=None, m_list=None, rho_list=None, r_list=None, n_list=None,
        reps=99, seed=None, workers=None, out_dir=None, block=None,
        config=str(cfgfile))
    built = cli._build_config(ns, "core-prob")
    assert built.reps == 99          # flag beats file
    assert built.seed == 5           # file beats env/default
    assert built.block == 3
    monkeypatch.setenv("PEELCORE_SEED", "77")
    ns.config = None
    built2 = cli._build_config(ns, "core-prob")
    assert built2.seed == 77         # env fallback when nothing else given
    monkeypatch.delenv("PEELCORE_SEED")
    built3 = cli._build_config(ns, "core-prob")
    assert built3.seed == ExperimentConfig().seed


def test_cli_config_rejects_unknown_keys(tmp_path):
    cfgfile = tmp_path / "typo.cfg"
    cfgfile.write_text("rep = 7\nseeds = 3\nblock = 3\n")
    with pytest.raises(ValueError, match=r"\['rep', 'seeds'\]"):
        cli.main(["core-prob", "--config", str(cfgfile), "--out-dir", str(tmp_path)])


def test_cli_core_prob_in_process(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main([
        "core-prob", "--m-list", "50", "--r-list", "0.0", "--reps", "30",
        "--seed", "2", "--block", "10", "--out-dir", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert [os.path.basename(p) for p in printed] == [
        "core_prob.csv", "core_prob.svg", "manifest.json"]
    assert (out / "core_prob.csv").exists()


def _cli_outputs(argv, out) -> dict:
    assert cli.main([*argv, "--out-dir", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_cli_cached_parser_keeps_runs_independent(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process, so neither a run nor a usage
    # error may leave state behind that changes a later run
    monkeypatch.delenv("PEELCORE_SEED", raising=False)
    nc = ["nc", "--m-list", "30", "--reps", "6", "--seed", "3", "--block", "4"]
    cp = ["core-prob", "--m-list", "50", "--r-list", "0.0", "--reps", "8",
          "--seed", "2", "--block", "3"]
    fresh = {}
    for argv in (nc, cp):
        cli._parser.cache_clear()
        fresh[argv[0]] = _cli_outputs(argv, tmp_path / f"fresh-{argv[0]}")
    cli._parser.cache_clear()
    assert _cli_outputs(nc, tmp_path / "nc-1") == fresh["nc"]
    with pytest.raises(SystemExit):
        cli.main(["nc", "--reps", "six"])
    assert _cli_outputs(cp, tmp_path / "cp") == fresh["core-prob"]
    assert _cli_outputs(nc, tmp_path / "nc-2") == fresh["nc"]
    assert cli._parser.cache_info().misses == 1
    # the environment is read per call, not when the parser is built
    unseeded = ["nc", "--m-list", "30", "--reps", "6", "--block", "4"]
    by_env = {}
    for seed in ("11", "12"):
        monkeypatch.setenv("PEELCORE_SEED", seed)
        by_env[seed] = _cli_outputs(unseeded, tmp_path / f"env-{seed}")
        assert by_env[seed] == _cli_outputs(unseeded + ["--seed", seed],
                                            tmp_path / f"flag-{seed}")
    assert by_env["11"]["onset.csv"] != by_env["12"]["onset.csv"]


def test_cli_predict_in_process(capsys):
    rc = cli.main(["predict", "--n", "1000", "--rho", "1.2217931327672212"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    vals = dict(line.split(" = ") for line in lines)
    assert float(vals["p_gauss"]) == pytest.approx(0.5, abs=1e-6)
    assert 0.5 < float(vals["p_corrected"]) < 1.0
    assert 0.5 < float(vals["p_shifted"]) < 1.0


def _checkout_env():
    """The environment with the imported peelcore's directory first on
    PYTHONPATH, so a subprocess runs this checkout, installed or not."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(peelcore.__file__)))
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": root + (os.pathsep + rest if rest else "")}


def test_cli_constants_subprocess():
    # the module entry point, without the slow omega table
    res = subprocess.run(
        [sys.executable, "-m", "peelcore.cli", "constants", "--l", "3"],
        capture_output=True, text=True, timeout=300, env=_checkout_env())
    assert res.returncode == 0
    vals = dict(line.split(" = ") for line in res.stdout.splitlines())
    assert float(vals["rho_c"]) == pytest.approx(1.2217931327672212, rel=1e-12)
    assert float(vals["alpha"]) == pytest.approx(0.6723721429640561, rel=1e-8)
    assert "omega" not in vals


def test_cli_constants_with_omega_computes_constants_once(monkeypatch, capsys):
    calls = []
    real = experiments.critical_constants

    def counted(l):
        calls.append(l)
        return real(l)

    # count calls made by the CLI itself as well as through get_constants
    monkeypatch.setattr(experiments, "critical_constants", counted)
    monkeypatch.setattr(cli, "critical_constants", counted, raising=False)
    get_constants.cache_clear()
    assert cli.main(["constants", "--with-omega"]) == 0
    assert len(calls) == 1
    vals = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert float(vals["omega"]) == pytest.approx(0.99619, abs=1e-5)


def test_cli_kernel_check_subprocess():
    res = subprocess.run(
        [sys.executable, "-m", "peelcore.cli", "kernel-check",
         "--n-list", "20,40"],
        capture_output=True, text=True, timeout=300, env=_checkout_env())
    assert res.returncode == 0
    out = res.stdout
    assert "D(20)" in out and "D(40)" in out and "ratio" in out


def test_exact_layer_does_not_load_scipy():
    # scipy loads inside the analytic functions that call it, so the package,
    # the CLI and an exact kernel check run on numpy alone
    code = ("import sys, peelcore, peelcore.cli\n"
            "peelcore.cli.main(['kernel-check', '--l', '3', '--rho', '1.2218',"
            " '--n-list', '100'])\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300, env=_checkout_env())
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0].startswith("D(100) = ")
    assert lines[-1] == "[]"


# --- coarse-density and law-shape checks on the drivers themselves ---


def test_survival_frequency_saturates_away_from_the_window(tmp_path):
    # far beyond the window on each side the survival frequency is pinned
    cfg = ExperimentConfig(experiment="core-prob", m_list=(600,),
                           rho_list=(1.0, 1.5), reps=500, seed=31, workers=1,
                           out_dir=str(tmp_path), block=250)
    recs = {round(r.rho, 2): r for r in run_core_prob(cfg)}
    assert recs[1.0].p_hat >= 0.98     # dense side: core essentially certain
    assert recs[1.5].p_hat <= 0.02     # sparse side: core essentially absent


def test_core_size_nondecreasing_along_edge_stream():
    from peelcore.peeling import batch_core_mask

    rng = np.random.default_rng(35)
    m, length = 25, 40
    for _ in range(30):
        stream = rng.integers(0, m, size=(length, 3))
        sizes = [int(batch_core_mask(stream[None, :t], m).sum())
                 for t in range(1, length + 1)]
        assert (np.diff(sizes) >= 0).all()


def test_onset_median_sits_at_the_corrected_center():
    m, reps = 400, 600
    cfg = ExperimentConfig(experiment="nc", m_list=(m,), reps=reps, seed=17,
                           workers=1, block=200)
    res = run_onset(cfg)[0]
    assert (res.counts <= m).all()
    cc = get_constants(3)
    scale = np.sqrt(m) * cc.rho_c ** -1.5 * cc.alpha
    shift = cc.beta * cc.omega * cc.rho_c ** (1.0 / 6.0) * m ** (-1.0 / 6.0)
    center = m / cc.rho_c - shift * scale
    med = np.median(res.counts)
    # median standard error for a normal-ish sample: 1.2533 sd / sqrt(R)
    tol = 3.0 * 1.2533 * res.counts.std(ddof=1) / np.sqrt(reps)
    assert abs(med - center) <= tol


def test_core_size_support_leakage_and_conditioning_rate():
    # the limit law lives on z >= 0; finite-n samples leak slightly below
    # and the leak shrinks with n. Conditioning frequency tracks the
    # corrected survival prediction.
    from peelcore import scaling

    cfg = ExperimentConfig(experiment="core-size", n_list=(1000, 2000, 4000),
                           reps=400, seed=21, workers=1, block=200)
    results = run_core_size(cfg)
    cc = get_constants(3)
    leak = {}
    for res in results:
        assert len(res.sizes) + res.n_empty == cfg.reps
        leak[res.n] = (res.standardized < 0).mean()
        assert leak[res.n] <= 0.2
    k1, k4 = len(results[0].sizes), len(results[2].sizes)
    se = np.sqrt(leak[1000] * (1 - leak[1000]) / k1
                 + leak[4000] * (1 - leak[4000]) / k4)
    assert leak[4000] <= leak[1000] + 2.0 * se

    res = results[1]  # n = 2000
    freq = len(res.sizes) / cfg.reps
    pred = scaling.predict_core_prob(res.n, res.m / res.n, cc).p_corrected
    se_f = np.sqrt(pred * (1 - pred) / cfg.reps)
    assert abs(freq - pred) <= 3.0 * se_f
