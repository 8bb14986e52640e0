"""Benchmark for peelcore: window peel, onset search and exact kernel.

    python3 perfbench/run.py --workload window-peel --seed 1 --seconds 10 --trace 0

Runs one workload (see workloads.py and README.md) in this process with
workers = 1: the set-up, then whole rounds of calls into peelcore until their
times add up to --seconds, then the checks on every output.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1.  The run's record (versions, seed, counts,
metrics) goes to perfbench/out/, and with --trace 1 also its spans.  Exits
with code 2 and prints no result when peelcore's sources are not beside it.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from program import COLD_TABLE, ROOT, Program, ProgramMissing, source_hash  # noqa: E402

OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("window-peel", "onset-stream", "exact-kernel")
SETUP_PROBES = 2        # set-ups in fresh processes, besides this process's own


def timed_round(wl, k: int, totals: dict) -> tuple:
    """Round k of a workload: (units completed, seconds)."""
    ts = time.perf_counter()
    r = wl.round(k)
    secs = time.perf_counter() - ts
    for key in ("attempted", "failed"):
        totals[key] += getattr(r, key)
    totals["errors"] += r.errors
    return r.units, secs


def elapsed_rounds(wl, seconds: float, totals: dict, between=()) -> list:
    """Whole rounds until their times add up to `seconds`; (units, seconds)
    per round.  The untimed calls in `between` run one by one once the timed
    total passes each of the points that split `seconds` evenly."""
    rounds, timed, pending = [], 0.0, list(between)
    points = [seconds * (i + 1) / (len(pending) + 1) for i in range(len(pending))]
    while not rounds or timed < seconds:
        rounds.append(timed_round(wl, len(rounds), totals))
        timed += rounds[-1][1]
        while points and timed >= points[0]:
            points.pop(0)
            pending.pop(0)()
    for call in pending:
        call()
    return rounds


def rate(rounds: list) -> float:
    """Units completed per second of the timed rounds."""
    return sum(u for u, _ in rounds) / sum(t for _, t in rounds)


def setup_probe(workload) -> float:
    """Set-up time of a fresh process, from the first statement of this script
    to the constants being ready."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def check_outputs(prog, wl, cc) -> list:
    errs = []
    if cc is not None:
        from workloads import check_setup, setup_K_values
        errs += check_setup(cc.rho_c, setup_K_values(prog.airy, COLD_TABLE))
    return errs + wl.check(cc, wl.outputs())


def untraced(prog, W, seed, seconds, work_dir, totals, import_s) -> tuple:
    t = time.perf_counter()
    cc = prog.analytic_setup() if W.analytic else None
    setups = [import_s + time.perf_counter() - t]
    wl = W(prog, seed, work_dir)
    # The set-up probes run between the timed rounds, which spreads the rounds
    # over about twice their own length: the machine's speed moves between
    # levels for tens of seconds at a time, and a wider window averages more
    # of them.
    rounds = elapsed_rounds(wl, seconds, totals, between=[
        lambda: setups.append(setup_probe(W.name))] * SETUP_PROBES)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_per_s": (rate(rounds), "1/s"),
        "peak_rss_mb": (peak_mb, "MiB"),
    }
    t = time.perf_counter()
    errs = check_outputs(prog, wl, cc)
    info = {"throughput_unit": f"{W.unit}/s", "rounds": len(rounds),
            "round_units": [u for u, _ in rounds], "round_s": [s for _, s in rounds],
            "setup_samples_s": setups, "check_s": time.perf_counter() - t}
    return metrics, errs, info


def traced(prog, W, seed, seconds, work_dir, totals, spans_path) -> tuple:
    """A traced cold set-up, then pairs of rounds with the same inputs, the
    first untraced and the second traced, until `seconds` have passed.  The
    overhead compares the rates of the two kinds of round; the per-layer
    numbers are the traced set-up plus one mean traced round."""
    from tracing import Tracer, layer_metrics
    tracer = Tracer(prog.modules)
    tracer.install()
    try:
        cc = prog.analytic_setup() if W.analytic else None
    finally:
        tracer.uninstall()
    tracer.phase = "round"
    ref = W(prog, seed, os.path.join(work_dir, "reference"))
    wl = W(prog, seed, os.path.join(work_dir, "traced"))
    ref_rounds, rounds, t0 = [], [], time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        ref_rounds.append(timed_round(ref, len(ref_rounds), totals))
        tracer.install()
        try:
            rounds.append(timed_round(wl, len(rounds), totals))
        finally:
            tracer.uninstall()
    overhead = 100.0 * (rate(ref_rounds) / rate(rounds) - 1.0)
    tracer.write(spans_path)
    metrics = layer_metrics(tracer.spans, len(rounds), prog.coeff_rows_cached(), overhead)
    errs = check_outputs(prog, ref, cc) + check_outputs(prog, wl, cc)
    info = {"rounds": len(rounds), "round_s": [s for _, s in rounds],
            "reference_round_s": [s for _, s in ref_rounds],
            "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT)}
    width = max(len(k) for k in metrics)
    print("self time per layer (one set-up plus one round):", file=sys.stderr)
    for k, (v, unit) in metrics.items():
        if k.endswith(".self_s"):
            print(f"  {k:<{width}} {v:10.4f} s", file=sys.stderr)
    print(f"  tracing overhead {overhead:+.2f}%", file=sys.stderr)
    return metrics, errs, info


def versions() -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "source_sha256": source_hash(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    try:
        prog = Program()
    except (ProgramMissing, ImportError) as exc:
        print(f"cannot load peelcore: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0
    # the benchmark's own modules load after the program's import is timed
    from workloads import WORKLOADS
    W = WORKLOADS[args.workload]
    if args.setup_probe:
        t = time.perf_counter()
        if W.analytic:
            prog.analytic_setup()
        print(json.dumps({"setup_s": import_s + time.perf_counter() - t}))
        return 0

    built = prog.ensure_build()
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"work-{os.getpid()}"
    totals = {"attempted": 0, "failed": 0, "units": 0, "errors": []}
    try:
        if args.trace:
            metrics, errs, info = traced(prog, W, args.seed, args.seconds, str(work_dir),
                                         totals, OUT / f"{stem}-spans.json")
        else:
            metrics, errs, info = untraced(prog, W, args.seed, args.seconds,
                                           str(work_dir), totals, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    errs += totals["errors"]
    for e in errs:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    result = {"correct": not errs, "attempted": totals["attempted"],
              "failed": totals["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **versions(), **info,
              "table_build_s": prog.build_seconds() if W.analytic else None,
              "table_built_in_this_run": built is not None,
              "check_failures": errs, **result}
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
