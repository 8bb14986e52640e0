"""Spans around the calls into each peelcore layer, recorded from outside.

The tracer replaces chosen module-level functions of peelcore with wrappers
that append one span (id, parent, name, start, end, phase, amount) per call to
an in-memory list.  Every module attribute bound to the same function object
is replaced, so calls between modules (`from .peeling import batch_core_mask`)
and within one module go through the wrapper too.  `uninstall` restores the
originals.  Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time

# The calls each layer's spans are taken around.  The scaling layer is traced
# through every public function it exports.
TRACED = {
    "cli": ("main",),
    "experiments": ("get_constants", "run_core_prob", "run_onset",
                    "run_core_size", "emit_core_prob", "emit_onset",
                    "emit_core_size"),
    "peeling": ("batch_core_mask", "batch_onset_edge_counts"),
    "ode": ("critical_constants", "critical_point", "solve_Q"),
    "airy": ("min_law_tables", "kernel_K", "airy_pair", "omega_integral",
             "cdf_Z"),
    "ensemble": ("log_ensemble_count",),
    "kernels": ("w_exact", "w_hat", "sample_conditional_steps",
                "kernel_max_discrepancy"),
    "scaling": None,
}
LAYERS = tuple(TRACED)

_ID, _PARENT, _NAME, _START, _END, _PHASE, _AMOUNT = range(7)


def _peel_amounts(args, kwargs, out):
    sockets = args[0] if args else kwargs["sockets"]
    return (sockets.shape[0], sockets.size * sockets.itemsize)


def _file_bytes(args, kwargs, out):
    return (sum(os.path.getsize(p) for p in out),)


# Spans that record amounts besides their duration: graphs and socket bytes
# handed to the peel (from array shapes), bytes of the files emitted.
AMOUNTS = {
    "peeling.batch_core_mask": _peel_amounts,
    "experiments.emit_core_prob": _file_bytes,
    "experiments.emit_onset": _file_bytes,
    "experiments.emit_core_size": _file_bytes,
}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules          # layer name -> module
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._restore = []

    def install(self):
        everywhere = list(self.modules.values())
        for layer, names in TRACED.items():
            mod = self.modules[layer]
            if names is None:
                names = [n for n in mod.__all__
                         if inspect.isfunction(getattr(mod, n))]
            for fname in names:
                orig = getattr(mod, fname)
                wrapper = self._wrap(orig, f"{layer}.{fname}")
                for m in everywhere:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        amount = AMOUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0,
                   self.phase, ()]
            spans.append(rec)
            stack.append(rec[_ID])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
            if amount is not None:
                rec[_AMOUNT] = amount(args, kwargs, out)
            return out

        return traced

    def write(self, path: str):
        with open(path, "w") as f:
            json.dump({"fields": ["id", "parent", "name", "start", "end",
                                  "phase", "amount"],
                       "spans": self.spans}, f)
            f.write("\n")


class SpanStats:
    """Totals over the spans of one phase, keyed by span name.

    `time` sums a function's outermost spans only, so a function that recurses
    into itself (airy_pair through conjugation) is not counted twice.  A span's
    self time is its duration minus that of its direct children; `self_time`
    sums it by span name and `layer_self` by layer.  `layer_entry` sums, per
    layer, the spans entered from outside that layer."""

    def __init__(self, spans: list, phase: str):
        self.time, self.calls, self.self_time, self.amount = {}, {}, {}, {}
        self.child_calls = {}
        self.layer_entry = dict.fromkeys(LAYERS, 0.0)
        for s in spans:
            if s[_PHASE] != phase:
                continue
            name, dur = s[_NAME], s[_END] - s[_START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + dur
            if s[_AMOUNT]:
                prev = self.amount.get(name, (0,) * len(s[_AMOUNT]))
                self.amount[name] = tuple(a + b for a, b in zip(prev, s[_AMOUNT]))
            pname = spans[s[_PARENT]][_NAME] if s[_PARENT] >= 0 else ""
            if pname.split(".")[0] != name.split(".")[0]:
                self.layer_entry[name.split(".")[0]] += dur
            if pname:
                self.self_time[pname] = self.self_time.get(pname, 0.0) - dur
                key = (pname, name)
                self.child_calls[key] = self.child_calls.get(key, 0) + 1
            if not _inside_same(spans, s):
                self.time[name] = self.time.get(name, 0.0) + dur
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, v in self.self_time.items():
            self.layer_self[name.split(".")[0]] += v


def _inside_same(spans, s):
    p = s[_PARENT]
    while p >= 0:
        if spans[p][_NAME] == s[_NAME]:
            return True
        p = spans[p][_PARENT]
    return False


def layer_metrics(spans: list, rounds: int, coeff_rows_cached: int,
                  overhead_pct: float) -> dict:
    """Per-layer metrics for one set-up plus one average round: each total is
    the set-up phase's plus the round phase's divided by the rounds run.
    Returns {name: (value, unit)}."""
    setup, rnd = SpanStats(spans, "setup"), SpanStats(spans, "round")

    def per(attr, key, index=None):
        a, b = getattr(setup, attr).get(key, 0), getattr(rnd, attr).get(key, 0)
        if index is not None:
            a = a[index] if a else 0
            b = b[index] if b else 0
        return a + b / rounds

    def t(name):
        return per("time", name)

    def n(name):
        return per("calls", name)

    emits = [f"experiments.emit_{k}" for k in ("core_prob", "onset", "core_size")]
    runs = [f"experiments.run_{k}" for k in ("core_prob", "onset", "core_size")]
    onset_blocks = n("peeling.batch_onset_edge_counts")
    onset_passes = per("child_calls", ("peeling.batch_onset_edge_counts",
                                       "peeling.batch_core_mask"))
    out = {
        "airy.min_law_tables_s": (t("airy.min_law_tables"), "s"),
        "airy.kernel_K_calls": (n("airy.kernel_K"), "count"),
        "airy.airy_pair_calls": (n("airy.airy_pair"), "count"),
        "airy.airy_pair_s": (t("airy.airy_pair"), "s"),
        "airy.omega_integral_s": (t("airy.omega_integral"), "s"),
        "ode.critical_constants_s": (t("ode.critical_constants"), "s"),
        "ode.solve_Q_s": (t("ode.solve_Q"), "s"),
        "experiments.get_constants_s": (t("experiments.get_constants"), "s"),
        "experiments.run_self_s": (sum(per("self_time", k) for k in runs), "s"),
        "experiments.emit_s": (sum(t(k) for k in emits), "s"),
        "experiments.bytes_written": (sum(per("amount", k, 0) for k in emits), "B"),
        "peeling.batch_core_mask_s": (t("peeling.batch_core_mask"), "s"),
        "peeling.batch_core_mask_calls": (n("peeling.batch_core_mask"), "count"),
        "peeling.graphs_peeled": (per("amount", "peeling.batch_core_mask", 0), "count"),
        "peeling.bytes_in": (per("amount", "peeling.batch_core_mask", 1), "B"),
        "peeling.batch_onset_edge_counts_s": (t("peeling.batch_onset_edge_counts"), "s"),
        "peeling.onset_peel_passes": (onset_passes / onset_blocks if onset_blocks else 0.0,
                                      "count"),
        "scaling.calls_s": (per("layer_entry", "scaling"), "s"),
        "ensemble.log_ensemble_count_s": (t("ensemble.log_ensemble_count"), "s"),
        "ensemble.log_ensemble_count_calls": (n("ensemble.log_ensemble_count"), "count"),
        "ensemble.log_coeff_rows_cached": (coeff_rows_cached, "count"),
        "kernels.w_exact_s": (t("kernels.w_exact"), "s"),
        "kernels.w_exact_calls": (n("kernels.w_exact"), "count"),
        "kernels.w_hat_s": (t("kernels.w_hat"), "s"),
        "kernels.sample_conditional_steps_s": (t("kernels.sample_conditional_steps"), "s"),
        "cli.main_s": (t("cli.main"), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per("layer_self", layer), "s")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
