"""Command line front end.

Value precedence for every option: explicit flag, then config file entry, then
the PEELCORE_SEED environment variable (seed only), then built-in defaults.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments, scaling
from .experiments import ExperimentConfig
from .kernels import kernel_max_discrepancy

__all__ = ["main"]


def _parse_list(text: str, cast):
    return tuple(cast(tok) for tok in text.split(",") if tok.strip())


def _add_common(sp):
    sp.add_argument("--l", type=int, default=None)
    sp.add_argument("--m-list", type=str, default=None)
    sp.add_argument("--rho-list", type=str, default=None)
    sp.add_argument("--r-list", type=str, default=None)
    sp.add_argument("--n-list", type=str, default=None)
    sp.add_argument("--reps", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--out-dir", type=str, default=None)
    sp.add_argument("--block", type=int, default=None)
    sp.add_argument("--config", type=str, default=None)


def _build_config(args, experiment: str) -> ExperimentConfig:
    file_vals = {}
    if args.config:
        file_vals = experiments.load_config_file(args.config)
    dflt = ExperimentConfig()

    def pick(flag_val, key, cast, default):
        if flag_val is not None:
            return flag_val
        if key in file_vals:
            return cast(file_vals[key])
        return default

    seed = args.seed
    if seed is None and "seed" in file_vals:
        seed = int(file_vals["seed"])
    if seed is None and os.environ.get("PEELCORE_SEED"):
        seed = int(os.environ["PEELCORE_SEED"])
    if seed is None:
        seed = dflt.seed

    return ExperimentConfig(
        experiment=experiment,
        l=pick(args.l, "l", int, dflt.l),
        m_list=(_parse_list(args.m_list, int) if args.m_list is not None
                else pick(None, "m_list", lambda s: _parse_list(s, int), dflt.m_list)),
        rho_list=(_parse_list(args.rho_list, float) if args.rho_list is not None
                  else pick(None, "rho_list", lambda s: _parse_list(s, float),
                            dflt.rho_list)),
        r_list=(_parse_list(args.r_list, float) if args.r_list is not None
                else pick(None, "r_list", lambda s: _parse_list(s, float),
                          dflt.r_list)),
        n_list=(_parse_list(args.n_list, int) if args.n_list is not None
                else pick(None, "n_list", lambda s: _parse_list(s, int), dflt.n_list)),
        reps=pick(args.reps, "reps", int, dflt.reps),
        seed=seed,
        workers=pick(args.workers, "workers", int, dflt.workers),
        out_dir=pick(args.out_dir, "out_dir", str, dflt.out_dir),
        block=pick(args.block, "block", int, dflt.block),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="peelcore",
        description="Peeling experiments on random l-regular hypergraphs "
                    "against their analytic scaling law.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="critical point and scaling constants")
    sp.add_argument("--l", type=int, default=3)
    sp.add_argument("--with-omega", action="store_true",
                    help="also compute the minimum-law mean (slow)")

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
