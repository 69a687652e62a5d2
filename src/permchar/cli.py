"""Command-line front end: JSON/CSV output for scripting and plotting.

Subcommands: sample, clt, discrepancy, constants, feller-check.
Exit codes: 0 success, 1 runtime failure, 2 config/usage error.  A reader
that closes stdout early (`permchar sample ... | head`) is no failure: the
run ends quietly with exit 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
from collections.abc import Iterator

from . import classfuncs, equidist, ewens, limits, mc

CONFIG_VERSION = 1
# a JSON sample row holds all n counts: about 110 MB of text a row at n = 1e7
_JSON_SAMPLE_MAX_N = 10 ** 7


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _output(path: str | None, newline: str | None = None):
    """Yield `path` opened for writing (a config error if it cannot be), or
    stdout when no path is given.  A file is cut where the writing stops,
    and one that nothing was written to, as by a failed run, is left as it was."""
    if not path:
        yield sys.stdout
        return
    try:
        fh = open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline=newline)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc
    with fh:
        try:
            yield fh
        finally:
            with contextlib.suppress(OSError):  # a pipe or a device has no length to cut
                if fh.tell():
                    fh.truncate()


def _emit(payload: dict, fh) -> None:
    """Write `payload` as json.dumps(payload, indent=2, sort_keys=True) + "\\n".

    Keys are strings.  A list, tuple or iterator is written one item at a
    time, so a caller can hand over rows as it makes them.  A `_ZeroFilled`
    is written from its nonzero entries, at most CHUNK items a piece, and
    never held whole.
    """
    fh.writelines(_json_pieces(payload, "\n"))
    fh.write("\n")


@dataclasses.dataclass(frozen=True)
class _ZeroFilled:
    """The integers c_1..c_n, n >= 1: zero except c_m = nonzero[m], keys increasing."""
    n: int
    nonzero: dict


def _json_pieces(obj, nl: str):
    """The indented JSON text of `obj`, in pieces; `nl` is a newline and the current indent."""
    inner = nl + "  "
    if isinstance(obj, dict):
        sep = "{"
        for key, value in sorted(obj.items()):
            yield f"{sep}{inner}{json.dumps(key)}: "
            yield from _json_pieces(value, inner)
            sep = ","
        yield "{}" if sep == "{" else nl + "}"
    elif isinstance(obj, _ZeroFilled):
        # c_1, then "," + inner + c_m for m = 2..n: a zero run goes out CHUNK items a piece
        yield f"[{inner}{obj.nonzero.get(1, 0)}"
        zero, done = f",{inner}0", 1
        for m, value in [*obj.nonzero.items(), (obj.n + 1, None)]:
            for start in range(done + 1, m, ewens.CHUNK):
                yield zero * min(ewens.CHUNK, m - start)
            if 1 < m <= obj.n:
                yield f",{inner}{value}"
            done = m
        yield nl + "]"
    elif isinstance(obj, (list, tuple, Iterator)):
        sep = "["
        for item in obj:
            yield sep + inner
            yield from _json_pieces(item, inner)
            sep = ","
        yield "[]" if sep == "[" else nl + "]"
    else:
        yield json.dumps(obj)


def cmd_sample(args) -> int:
    if args.n < 1 or args.count < 1 or args.seed < 0:
        raise ConfigError("need n >= 1, count >= 1, seed >= 0")
    if args.n >= 2 ** 63:
        raise ConfigError(f"n must be < 2^63: the chain's positions are int64, got {args.n}")
    if args.format == "json" and args.n > _JSON_SAMPLE_MAX_N:
        raise ConfigError(f"--format json writes all n counts per sample and takes n <= "
                          f"{_JSON_SAMPLE_MAX_N}; --format csv writes only the nonzero (m, c) "
                          f"and works at any n")
    chain = ewens.FellerChain(args.n, ewens.EwensParameter(args.theta))
    # a block of one chain per row, written before the next chain is drawn:
    # a run holds one chain at a time
    groups = (ewens.cycle_groups([chain.ones(mc.derive_stream(args.seed, i))], args.n)
              for i in range(args.count))
    with _output(args.output, newline="" if args.format == "csv" else None) as fh:
        if args.format == "csv":
            writer = csv.writer(fh)
            writer.writerow(["sample_index", "cycle_length", "count"])
            for i, (lengths, mults, _) in enumerate(groups):
                writer.writerows(zip(itertools.repeat(i), lengths.tolist(), mults.tolist()))
        else:
            _emit({"version": CONFIG_VERSION, "n": args.n, "theta": args.theta,
                   "seed": args.seed, "samples": _sample_rows(args.n, groups)}, fh)
    return 0


def _sample_rows(n: int, groups):
    """One JSON row per sample's cycle groups: all n counts c_1..c_n, from the nonzero ones."""
    for i, (lengths, mults, _) in enumerate(groups):
        nonzero = dict(zip(lengths.tolist(), mults.tolist()))
        yield {"sample_index": i, "cycle_counts": _ZeroFilled(n, nonzero), "total_cycles": int(mults.sum())}


def _load_experiment_config(args) -> mc.ExperimentConfig:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:  # a missing file, a directory, no permission
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    version = raw.get("version")
    if type(version) is not int or version != CONFIG_VERSION:  # true and 1.0 are not 1
        raise ConfigError(f"config version must be the integer {CONFIG_VERSION}, got {version!r}")
    fields = {f.name for f in dataclasses.fields(mc.ExperimentConfig)}
    unknown = set(raw) - fields - {"version"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {k: raw[k] for k in fields if k in raw}
    try:
        return mc.ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_clt(args) -> int:
    cfg = _load_experiment_config(args)
    mc.validate_config(cfg)  # a bad config leaves existing outputs as they are
    if args.output and args.dump_samples and (
            os.path.realpath(args.output) == os.path.realpath(args.dump_samples)):
        raise ConfigError(f"--output and --dump-samples name the same file {args.output!r}")
    # both outputs open before the run, so a path that cannot be written
    # fails at once; the dump first, so its failure prints no result
    with contextlib.ExitStack() as outputs:
        dump = (outputs.enter_context(_output(args.dump_samples, newline=""))
                if args.dump_samples else None)
        fh = outputs.enter_context(_output(args.output))
        result = mc.run_experiment(cfg)
        if dump:
            d = result.samples.shape[1] // 2
            writer = csv.writer(dump)
            writer.writerow(["sample_index", "point_index", "re", "im"])
            for i, row in enumerate(result.samples):
                for j in range(d):
                    writer.writerow([i, j, repr(float(row[j])), repr(float(row[d + j]))])
        _emit({"version": CONFIG_VERSION, **result.to_dict()}, fh)
    return 0


def cmd_discrepancy(args) -> int:
    phis = tuple(args.kronecker)
    if not 1 <= len(phis) <= 2:
        raise ConfigError("give one or two Kronecker angles")
    if not all(map(math.isfinite, phis)):
        raise ConfigError(f"Kronecker angles must be finite, got {list(phis)}")
    equidist.require_exact_size(len(phis), args.n)
    seq = equidist.kronecker(phis, args.n)
    exact = equidist.star_discrepancy_exact(seq)
    etk = equidist.etk_bound(phis, args.n, args.etk_H) if args.etk_H is not None else None
    with _output(args.output) as fh:
        _emit({"n": args.n, "d": len(phis), "exact": exact, "etk": etk}, fh)
    return 0


def cmd_constants(args) -> int:
    ewens.EwensParameter(args.theta)  # rejects theta <= 0 and NaN
    fs = [classfuncs.spectral_function_by_label(lb) for lb in args.function]
    if len(fs) == 1:
        payload = limits.limit_constants(fs[0]).to_dict()
    else:
        payload = limits.covariance_matrix(fs, args.theta).to_dict()
    with _output(args.output) as fh:
        _emit(payload, fh)
    return 0


def cmd_feller_check(args) -> int:
    theta = ewens.EwensParameter(args.theta)
    dist = ewens.exact_feller_distribution(args.n, theta)
    worst = 0.0
    for ct, p in dist.items():
        worst = max(worst, abs(p - ewens.esf_probability(ct, theta)))
    with _output(args.output) as fh:
        _emit({"n": args.n, "theta": args.theta, "num_cycle_types": len(dist),
               "max_abs_difference": worst, "total_probability": math.fsum(dist.values())}, fh)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="permchar")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sample", help="sample Ewens cycle types")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--theta", type=float, default=1.0, help="scales only a covariance of two or more functions")
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
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except BrokenPipeError:
        # what stdout still holds would meet the closed pipe again at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ValueError as exc:  # ConfigError and JSONDecodeError are ValueErrors
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
