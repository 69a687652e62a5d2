"""The four benchmark workloads and the inputs each one makes from its seed.

A workload is a fixed job: a list of permchar invocations, each a fresh
process.  Monte Carlo workloads run `permchar clt` on their configs; the
`exact` workload runs calls that use no Monte Carlo.  The seed only picks
master seeds (and the sample seed and symcheck points for `exact`); the
program sees nothing but the generated configs and arguments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from checks import DISCREPANCY_ARGS, FELLER_N

S2 = math.sqrt(2.0) % 1.0
S3 = math.sqrt(3.0) % 1.0
FOURIER = {"type": "fourier", "coeffs": {"1": 0.3, "-1": 0.3}}
SAMPLE_N, SAMPLE_COUNT = 100_000, 20

# Why each workload exists, and which layer it stresses.
WHY = {
    "desk": "n = 1e4, four small configs: per-cycle Python loop and multiplier calls dominate",
    "large-n": "n = 1e6 and 1e7 uniform: the O(n) Feller chain and T_m summation dominate, and peak RSS",
    "fourier": "Fourier-density multipliers at n = 1e4: the rejection loop in multipliers dominates",
    "exact": "no Monte Carlo: limits quadrature, equidist discrepancy, ewens enumeration, classfuncs oracles, cli output",
}

# Weight of the memory-bound part of the machine-speed probe (run.SpeedProbe):
# large-n's time is mostly numpy passes over O(n) arrays, the others' mostly
# the Python interpreter.
PROBE_MIX = {"desk": 0.0, "large-n": 0.5, "fourier": 0.0, "exact": 0.0}


def _clt(n, theta, points, num_samples, model=None, kind="logZ", labels=None) -> dict:
    cfg = {"version": 1, "n": n, "theta": theta, "points": list(points), "kind": kind,
           "model_spec": model or {"type": "uniform"}, "num_samples": num_samples,
           "centering": "theoretical"}
    if labels:
        cfg["function_labels"] = list(labels)
    return cfg


# Sample counts are chosen so one pass takes a few seconds and each config's
# pooled samples over a run give the moment checks their power.
CLT_CONFIGS = {
    "desk": {
        "uniform": _clt(10 ** 4, 1.0, (S2, S3), 1000),
        "trivial": _clt(10 ** 4, 1.0, (S2, S3), 1000, {"type": "trivial"}),
        "discrete": _clt(10 ** 4, 2.7, (S2,), 500,
                         {"type": "discrete", "rho": 3, "probs": [0.5, 0.25, 0.25]}),
        "w2": _clt(10 ** 4, 1.0, (S2, S3), 1000, kind="w2", labels=("sympart", "antisympart")),
    },
    "large-n": {
        "n1e6": _clt(10 ** 6, 2.7, (S2,), 60),
        "n1e7": _clt(10 ** 7, 1.0, (S2,), 4),
    },
    "fourier": {
        "fourier": _clt(10 ** 4, 1.0, (S2,), 4, FOURIER),
    },
    "exact": {},
}

NAMES = tuple(CLT_CONFIGS)


@dataclass
class Invocation:
    """One program process: `cli` args for `permchar`, or a perfbench child mode."""
    tag: str
    mode: str                 # "cli" or "symcheck"
    args: list[str]
    config: dict | None = None        # clt config (written to the config file)
    meta: dict = field(default_factory=dict)


class Workload:
    def __init__(self, name: str, seed: int):
        if name not in CLT_CONFIGS:
            raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
        self.name = name
        self.seed = seed
        self.configs = CLT_CONFIGS[name]

    def invocations(self, pass_index: int) -> list[Invocation]:
        """The job's invocations for one pass; seeds depend on (seed, pass_index)."""
        rng = random.Random(f"{self.name}:{self.seed}:{pass_index}")
        if self.name != "exact":
            return [Invocation(f"{self.name}.{tag}", "cli", ["clt"],
                               config=dict(cfg, master_seed=rng.randrange(2 ** 31)))
                    for tag, cfg in self.configs.items()]
        seed = rng.randrange(2 ** 31)
        phis = [repr(p) for p in DISCREPANCY_ARGS["kronecker"]]
        return [
            Invocation("exact.constants.charpoly", "cli", ["constants", "--function", "charpoly"],
                       meta={"labels": ["charpoly"]}),
            Invocation("exact.constants.sympart", "cli", ["constants", "--function", "sympart"],
                       meta={"labels": ["sympart"]}),
            Invocation("exact.constants.antisympart", "cli", ["constants", "--function", "antisympart"],
                       meta={"labels": ["antisympart"]}),
            Invocation("exact.constants.charpoly+antisympart", "cli",
                       ["constants", "--function", "charpoly", "antisympart"],
                       meta={"labels": ["charpoly", "antisympart"]}),
            Invocation("exact.discrepancy", "cli",
                       ["discrepancy", "--kronecker", *phis, "--n", str(DISCREPANCY_ARGS["n"]),
                        "--etk-H", str(DISCREPANCY_ARGS["H"])]),
            Invocation("exact.feller-check", "cli",
                       ["feller-check", "--n", str(FELLER_N), "--theta", "1"]),
            Invocation("exact.sample", "cli",
                       ["sample", "--n", str(SAMPLE_N), "--theta", "1", "--count", str(SAMPLE_COUNT),
                        "--seed", str(seed), "--format", "json"],
                       meta={"n": SAMPLE_N, "count": SAMPLE_COUNT}),
            Invocation("exact.symcheck", "symcheck", ["--seed", str(seed)]),
        ]
