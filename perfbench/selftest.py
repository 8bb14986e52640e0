"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one round of each workload, shows that every check passes on the real
outputs, then corrupts one output at a time and shows that the check meant
for it rejects the corrupted copy:

  - one core size changed by one (window-peel, independent peel of every
    replicate);
  - one onset count moved by one, its z column moved with it (onset-stream,
    prefix cores under the independent peel);
  - one exact-kernel row scaled by 1.001 (exact-kernel, row sums);
  - rho_c moved by 1e-3 (set-up, tangency root).

Exits with code 1 if any check misses its corruption or rejects a real output.
"""

import copy
import shutil
import sys

from program import COLD_TABLE, ROOT, Program
from workloads import (ExactKernel, OnsetStream, WindowPeel, check_setup,
                       onset_z, setup_K_values)


def expect(label: str, errs: list, needle: str | None) -> bool:
    """needle None: the check must pass; otherwise a failure must name it."""
    ok = not errs if needle is None else any(needle in e for e in errs)
    print(f"{'ok  ' if ok else 'FAIL'} {label}"
          + ("" if ok else f": {errs[:3] if errs else 'no failure reported'}"))
    return ok


def main() -> int:
    prog = Program()
    prog.ensure_build()
    cc = prog.analytic_setup()
    work = ROOT / "perfbench" / "out" / "selftest"
    results = []
    try:
        K = setup_K_values(prog.airy, COLD_TABLE)
        results.append(expect("set-up checks pass", check_setup(cc.rho_c, K), None))
        results.append(expect("rho_c + 1e-3 rejected",
                              check_setup(cc.rho_c + 1e-3, K), "tangency root"))

        wl = WindowPeel(prog, 1, str(work / "window-peel"))
        wl.round(0)
        outs = wl.outputs()
        results.append(expect("window-peel checks pass", wl.check(cc, outs), None))
        bad = copy.deepcopy(outs)
        bad[0]["sizes"][len(bad[0]["sizes"]) // 2]["core_size"] += 1
        results.append(expect("one core size changed rejected",
                              wl.check(cc, bad), "core sizes differ"))

        wl = OnsetStream(prog, 1, str(work / "onset-stream"))
        wl.round(0)
        outs = wl.outputs()
        results.append(expect("onset-stream checks pass", wl.check(cc, outs), None))
        for step in (1, -1):
            bad = copy.deepcopy(outs)
            row = bad[0]["rows"][7]
            row["n_c"] += step
            row["z"] = float(onset_z([row["n_c"]], wl.M, cc)[0])
            results.append(expect(f"one onset count moved by {step:+d} rejected",
                                  wl.check(cc, bad), "prefix"))

        wl = ExactKernel(prog, 1, str(work / "exact-kernel"))
        wl.round(0)
        outs = wl.outputs()
        results.append(expect("exact-kernel checks pass", wl.check(cc, outs), None))
        bad = copy.deepcopy(outs)
        key = next(iter(bad["rows"]))
        keys, probs = bad["rows"][key]
        bad["rows"][key] = (keys, probs * 1.001)
        results.append(expect("one exact-kernel row scaled by 1.001 rejected",
                              wl.check(cc, bad), "sums to"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} self-test cases hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
