"""One permchar process of the benchmark.

    python3 perfbench/child.py RSS.txt [--trace SPANS.json] cli ARGS...
    python3 perfbench/child.py RSS.txt [--trace SPANS.json] setup CONFIG.json...
    python3 perfbench/child.py RSS.txt [--trace SPANS.json] symcheck --seed S --output OUT.json

`cli` runs `permchar.cli.main(ARGS)`.  `setup` is the work every Monte Carlo
run does before its first sample: import permchar, validate each config and
compute the limit constants of each function label.  `symcheck` compares
`classfuncs.sym_char_poly` with the dense-determinant oracle over all
permutations of n <= 7 at 20 points x drawn from the seed.  With --trace,
every permchar layer is wrapped and the span summary is written to
SPANS.json; the wrappers are removed before the file is written.

At exit the process writes its peak resident set (VmHWM, kB) to RSS.txt.
The rusage of a child spawned by the benchmark would not do: Linux carries
the parent's high-water mark across fork and exec into the child's
ru_maxrss, while VmHWM belongs to the memory map the exec created.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SYM_MAX_N = 7
SYM_POINTS = 20


def _import_permchar():
    sys.path.insert(0, str(ROOT / "src"))
    import permchar
    if Path(permchar.__file__).resolve().parent != ROOT / "src" / "permchar":
        sys.exit(f"permchar imported from {permchar.__file__}, not from this checkout")
    return permchar


def run_setup(config_paths: list[str]) -> int:
    from permchar import classfuncs, limits, mc
    for path in config_paths:
        raw = json.loads(Path(path).read_text())
        raw.pop("version")
        raw["points"] = tuple(raw["points"])
        labels = raw.get("function_labels")
        if labels is not None:
            raw["function_labels"] = tuple(labels)
        cfg = mc.ExperimentConfig(**raw)
        mc.validate_config(cfg)
        for label in cfg.function_labels or ("charpoly",) * len(cfg.points):
            limits.limit_constants(classfuncs.spectral_function_by_label(label))
    return 0


def run_symcheck(seed: int, output: str) -> int:
    import numpy as np
    from permchar import classfuncs, ewens
    xs = np.random.default_rng(seed).uniform(-2.0, 2.0, SYM_POINTS).tolist()
    worst, count = 0.0, 0
    for n in range(1, SYM_MAX_N + 1):
        for images in itertools.permutations(range(1, n + 1)):
            perm = ewens.Permutation(n, images)
            count += 1
            for x in xs:
                err = abs(classfuncs.sym_char_poly(perm, x) - classfuncs.sym_char_poly_matrix(perm, x))
                worst = max(worst, err)
    Path(output).write_text(json.dumps({"max_abs_error": worst, "permutations": count,
                                        "x_values": xs}) + "\n")
    return 0


def _write_peak_rss(path: str) -> None:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            Path(path).write_text(line.split()[1] + "\n")


def main(argv: list[str]) -> int:
    rss_path, argv = argv[0], argv[1:]
    try:
        return _run(argv)
    finally:
        _write_peak_rss(rss_path)


def _run(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]
    _import_permchar()
    if mode == "cli":
        from permchar import cli
        run = lambda: cli.main(args)
    elif mode == "setup":
        run = lambda: run_setup(args)
    elif mode == "symcheck":
        run = lambda: run_symcheck(int(args[args.index("--seed") + 1]),
                                   args[args.index("--output") + 1])
    else:
        sys.exit(f"unknown mode {mode!r}")
    if trace_path is None:
        return run()

    sys.path.insert(0, str(ROOT / "perfbench"))
    import tracer as tr
    tracer = tr.Tracer()
    undo = tr.install(tracer)
    try:
        code = run()
    finally:
        tr.uninstall(undo)
    Path(trace_path).write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
