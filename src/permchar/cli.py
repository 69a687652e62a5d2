"""Command-line front end: JSON/CSV output for scripting and plotting.

Subcommands: sample, clt, discrepancy, constants, feller-check.
Exit codes: 0 success, 1 runtime failure, 2 config/usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import classfuncs, equidist, ewens, limits, mc

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


def _default_seed() -> int:
    raw = os.environ.get("PERMCHAR_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"PERMCHAR_SEED must be an integer, got {raw!r}") from None


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_sample(args) -> int:
    if args.n < 1 or args.theta <= 0 or args.count < 1:
        raise ConfigError("need n >= 1, theta > 0, count >= 1")
    p = ewens.chain_probabilities(args.n, ewens.EwensParameter(args.theta))
    rows = []
    for i in range(args.count):
        bits = ewens.sample_feller_chain(p, mc.derive_stream(args.seed, i))
        ct = ewens.cycle_counts_from_chain(bits)
        rows.append({"sample_index": i, "cycle_counts": list(ct.counts),
                     "total_cycles": ct.total_cycles})
    if args.format == "csv":
        fh = open(args.output, "w", newline="") if args.output else sys.stdout
        try:
            writer = csv.writer(fh)
            writer.writerow(["sample_index", "cycle_length", "count"])
            for row in rows:
                for m, c in enumerate(row["cycle_counts"], start=1):
                    if c:
                        writer.writerow([row["sample_index"], m, c])
        finally:
            if fh is not sys.stdout:
                fh.close()
    else:
        _emit({"version": CONFIG_VERSION, "n": args.n, "theta": args.theta,
               "seed": args.seed, "samples": rows}, args.output)
    return 0


def _load_experiment_config(args) -> mc.ExperimentConfig:
    with open(args.config) as fh:
        raw = json.load(fh)
    if raw.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}")
    fields = {"n", "theta", "points", "kind", "function_labels", "model_spec",
              "num_samples", "master_seed", "centering"}
    unknown = set(raw) - fields - {"version"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {k: raw[k] for k in fields if k in raw}
    for key in ("points", "function_labels"):
        if isinstance(kwargs.get(key), list):  # anything else is rejected by validate_config
            kwargs[key] = tuple(kwargs[key])
    kwargs.setdefault("master_seed", _default_seed())
    try:
        return mc.ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_clt(args) -> int:
    cfg = _load_experiment_config(args)
    result = mc.run_experiment(cfg)
    _emit({"version": CONFIG_VERSION, **result.to_dict()}, args.output)
    if args.dump_samples:
        d = max(1, len(cfg.points)) if cfg.kind != "total-cycles" else 1
        with open(args.dump_samples, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_index", "point_index", "re", "im"])
            for i, row in enumerate(result.samples):
                for j in range(d):
                    writer.writerow([i, j, repr(float(row[j])), repr(float(row[d + j]))])
    return 0


def cmd_discrepancy(args) -> int:
    phis = tuple(args.kronecker)
    if not 1 <= len(phis) <= 2:
        raise ConfigError("give one or two Kronecker angles")
    phi_arg = phis[0] if len(phis) == 1 else phis
    seq = equidist.kronecker(phi_arg, args.n)
    exact = equidist.star_discrepancy_exact(seq)
    etk = equidist.etk_bound(phi_arg, args.n, args.etk_H) if args.etk_H is not None else None
    report = equidist.DiscrepancyReport(n=args.n, d=len(phis), exact_value=exact,
                                        etk_bound=etk)
    _emit(report.to_dict(), args.output)
    return 0


def cmd_constants(args) -> int:
    ewens.EwensParameter(args.theta)  # rejects theta <= 0 and NaN
    fs = [classfuncs.spectral_function_by_label(lb) for lb in args.function]
    if len(fs) == 1:
        payload = limits.limit_constants(fs[0]).to_dict()
    else:
        payload = limits.covariance_matrix(fs, args.theta).to_dict()
    _emit(payload, args.output)
    return 0


def cmd_feller_check(args) -> int:
    theta = ewens.EwensParameter(args.theta)
    dist = ewens.exact_feller_distribution(args.n, theta)
    worst = 0.0
    for ct, p in dist.items():
        worst = max(worst, abs(p - ewens.esf_probability(ct, theta)))
    _emit({"n": args.n, "theta": args.theta, "num_cycle_types": len(dist),
           "max_abs_difference": worst, "total_probability": math.fsum(dist.values())},
          args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="permchar")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sample", help="sample Ewens cycle types")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("clt", help="run a Monte Carlo CLT experiment")
    p.add_argument("--config", required=True, help="ExperimentConfig JSON file")
    p.add_argument("--dump-samples", default=None, help="per-sample CSV path")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("discrepancy", help="star discrepancy of a Kronecker sequence")
    p.add_argument("--kronecker", type=float, nargs="+", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--etk-H", type=int, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_discrepancy)

    p = sub.add_parser("constants", help="limit constants / covariance by quadrature")
    p.add_argument("--function", nargs="+", required=True)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("feller-check", help="exact chain law vs sampling formula")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_feller_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # inside the try: the parser reads PERMCHAR_SEED for its defaults
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (ConfigError, mc.RegimeViolationError, ValueError, KeyError,
            FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
