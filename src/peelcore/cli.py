"""Command line front end.

Value precedence for every option: explicit flag, then config file entry, then
the PEELCORE_SEED environment variable (seed only), then built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import experiments, scaling
from .experiments import ExperimentConfig
from .kernels import kernel_max_discrepancy

__all__ = ["main"]


def _parse_list(text: str, cast):
    return tuple(cast(tok) for tok in text.split(",") if tok.strip())


_LIST_TYPES = {"m_list": int, "rho_list": float, "r_list": float, "n_list": int}


def _config_fields():
    return [f for f in dataclasses.fields(ExperimentConfig) if f.name != "experiment"]


def _add_common(sp):
    for field in _config_fields():
        sp.add_argument("--" + field.name.replace("_", "-"), default=None,
                        type=str if field.name in _LIST_TYPES else type(field.default))
    sp.add_argument("--config", type=str, default=None)


def _build_config(args, experiment: str) -> ExperimentConfig:
    file_vals = experiments.load_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_vals) - {f.name for f in _config_fields()})
    if unknown:
        raise ValueError(f"config file {args.config}: unknown keys {unknown}")
    vals = {}
    for field in _config_fields():
        name = field.name
        raw = getattr(args, name)
        if raw is None:
            raw = file_vals.get(name)
        if raw is None and name == "seed":
            raw = os.environ.get("PEELCORE_SEED") or None
        if raw is None:
            continue
        cast = _LIST_TYPES.get(name)
        vals[name] = _parse_list(raw, cast) if cast else type(field.default)(raw)
    return ExperimentConfig(experiment=experiment, **vals)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="peelcore",
        description="Peeling experiments on random l-uniform hypergraphs "
                    "against their analytic scaling law.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="critical point and scaling constants")
    sp.add_argument("--l", type=int, default=3)
    sp.add_argument("--with-omega", action="store_true",
                    help="also compute the minimum-law mean (about 2 s)")

    sp = sub.add_parser("omega", help="mean depth of the limiting minimum law")

    sp = sub.add_parser("predict", help="survival probability prediction")
    sp.add_argument("--l", type=int, default=3)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rho", type=float, required=True)

    for name in ("core-prob", "nc", "core-size"):
        _add_common(sub.add_parser(name, help=f"run the {name} experiment"))

    sp = sub.add_parser("kernel-check",
                        help="exact vs multinomial transition law discrepancy")
    sp.add_argument("--l", type=int, default=3)
    sp.add_argument("--n-list", type=str, default="100,200")
    sp.add_argument("--rho", type=float, default=1.2218)

    args = ap.parse_args(argv)

    if args.command == "constants":
        cc = experiments.get_constants(args.l, with_omega=args.with_omega)
        for k, v in cc.as_dict().items():
            if v is not None:
                print(f"{k} = {v!r}")
        return 0

    if args.command == "omega":
        from .airy import omega_integral
        om = omega_integral()
        print(f"omega = {om!r}")
        print(f"mean_min = {-om!r}")
        return 0

    if args.command == "predict":
        cc = experiments.get_constants(args.l)
        pred = scaling.predict_core_prob(args.n, args.rho, cc)
        print(f"r = {pred.r!r}")
        print(f"r_tilde1 = {pred.r_tilde1!r}")
        print(f"r_tilde2 = {pred.r_tilde2!r}")
        print(f"p_gauss = {pred.p_gauss!r}")
        print(f"p_corrected = {pred.p_corrected!r}")
        print(f"p_shifted = {pred.p_shifted!r}")
        return 0

    if args.command == "kernel-check":
        ns = _parse_list(args.n_list, int)
        ds = []
        for n in ns:
            d = kernel_max_discrepancy(n, args.rho, l=args.l)
            ds.append(d)
            print(f"D({n}) = {d!r}")
        if len(ds) >= 2 and ds[-1] > 0:
            print(f"ratio D({ns[0]})/D({ns[-1]}) = {ds[0] / ds[-1]!r}")
        return 0

    cfg = _build_config(args, args.command)
    if args.command == "core-prob":
        records = experiments.run_core_prob(cfg)
        paths = experiments.emit_core_prob(cfg, records)
    elif args.command == "nc":
        results = experiments.run_onset(cfg)
        paths = experiments.emit_onset(cfg, results)
    else:
        results = experiments.run_core_size(cfg)
        paths = experiments.emit_core_size(cfg, results)
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
