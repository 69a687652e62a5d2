"""permchar benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; permchar is imported from ./src.  Closed
loop: one permchar process at a time, BLAS threads capped at 1.  Every
output is checked against finite-n theory (see checks.py).  The last line
of stdout is the result JSON; the lines before it are a readable report.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import NAMES, PROBE_MIX, SAMPLE_N, WHY, Workload  # noqa: E402

MIN_PASSES = 2          # job passes per untraced run, even past --seconds
MIN_SETUPS = 5          # timed set-ups per untraced run; setup_s is their median
RUN_DEADLINE_S = 170.0  # children are killed past this, so a run ends within 180 s
# Machine-speed probe.  The speed of a shared VM drifts by +-20% over tens of
# seconds, and permchar's time follows that of a plain Python loop or, for
# large-n, a mix of that and a large-array numpy pass (workloads.PROBE_MIX).
# A probe runs between consecutive processes; each process's wall time is
# divided by the mean slowness of the PROBE_WINDOW probes on either side of
# it (1.0 at the reference speed where the parts take PROBE_REF_S), which
# follows the drift and averages out a probe that the host happened to
# deschedule.  Raw wall times are printed in the report.
PROBE_WINDOW = 3
PROBE_LOOPS = 400_000
PROBE_ARRAY = 4_000_000
PROBE_REF_S = (0.030, 0.047)
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class SpeedProbe:
    """Slowness of the machine now, relative to the reference speed; `mix`
    is the weight of the memory-bound part."""

    def __init__(self, mix: float):
        self.mix = mix
        if mix:
            self.a = np.random.default_rng(0).random(PROBE_ARRAY)
            self.b = np.empty_like(self.a)

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        slowness = (time.perf_counter() - start) / PROBE_REF_S[0]
        if not self.mix:
            return slowness
        start = time.perf_counter()
        for _ in range(4):
            np.multiply(self.a, 1.0001, out=self.b)
            np.add(self.b, self.a, out=self.b)
        memory = (time.perf_counter() - start) / PROBE_REF_S[1]
        return (1.0 - self.mix) * slowness + self.mix * memory


class Timing(NamedTuple):
    wall: float  # seconds
    slot: int    # index of the speed probe taken just after the process


class Runner:
    """Runs permchar processes one at a time through child.py and records
    their wall time, the speed probes between them, and peak RSS."""

    def __init__(self, work: Path, deadline: float, probe_mix: float):
        self.work = work
        self.deadline = deadline
        self.peak_rss_kb = 0
        self.serial = 0
        self.probe = SpeedProbe(probe_mix)
        self.probes: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        **{var: BLAS_THREADS for var in THREAD_VARS})

    def path(self, stem: str) -> Path:
        self.serial += 1
        return self.work / f"{self.serial:05d}-{stem}"

    def spawn(self, child_args: list[str], log: Path) -> tuple[int, Timing]:
        """Run `child.py child_args` to completion; returns (exit code, timing)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return -1, Timing(0.0, len(self.probes))
        rss = log.with_suffix(".rss")
        argv = [sys.executable, str(HERE / "child.py"), str(rss), *child_args]
        if not self.probes:
            self.probes.append(self.probe())
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            try:
                code = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        if rss.is_file():
            self.peak_rss_kb = max(self.peak_rss_kb, int(rss.read_text()))
            rss.unlink()
        self.probes.append(self.probe())
        return code, Timing(wall, len(self.probes) - 1)

    def rescaled(self, timings) -> float:
        """Total wall time of `timings` at the reference machine speed."""
        total = 0.0
        for t in timings:
            window = self.probes[max(0, t.slot - PROBE_WINDOW):t.slot + PROBE_WINDOW]
            total += t.wall / statistics.fmean(window) if window else 0.0
        return total


class Ledger:
    """Operations attempted and failed; a failure whose checks are all known
    defects is counted apart so it does not mark the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.messages: list[str] = []

    def record(self, what: str, results: list[checks.Check]) -> None:
        self.attempted += 1
        bad = [c for c in results if not c.ok]
        if not bad:
            return
        if all(c.name in checks.KNOWN_DEFECTS for c in bad):
            self.known += 1
        else:
            self.failed += 1
        for c in bad:
            kind = "known defect" if c.name in checks.KNOWN_DEFECTS else "FAILED"
            self.messages.append(f"{kind}: {what}: {c.name}: {c.detail}")


def _load_samples(dump: Path, d: int) -> np.ndarray:
    with open(dump, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if not rows:
        return np.empty((0, 2 * d))
    table = np.array(rows, dtype=float)
    S = int(table[:, 0].max()) + 1
    out = np.full((S, 2 * d), np.nan)
    idx, j = table[:, 0].astype(int), table[:, 1].astype(int)
    out[idx, j] = table[:, 2]
    out[idx, d + j] = table[:, 3]
    return out


class Job:
    """Runs a workload's invocations, checks them, and keeps the pooled data."""

    def __init__(self, workload: Workload, runner: Runner, ledger: Ledger):
        self.workload = workload
        self.runner = runner
        self.ledger = ledger
        self.pooled: dict[str, list[np.ndarray]] = {}
        self.sample_totals: list[int] = []
        self.bytes_out = 0
        self.per_config: dict[str, dict] = {}

    def _argv(self, inv, spans: Path | None, outputs: dict[str, Path]) -> list[str]:
        args = list(inv.args)
        if inv.config is not None:
            cfg_path = self.runner.path(inv.tag + ".config.json")
            cfg_path.write_text(json.dumps(inv.config))
            args += ["--config", str(cfg_path), "--dump-samples", str(outputs["dump"])]
        args += ["--output", str(outputs["result"])]
        trace = ["--trace", str(spans)] if spans else []
        return [*trace, inv.mode, *args]

    def invoke(self, inv, spans: Path | None = None) -> tuple[Timing, dict[str, bytes] | None]:
        """Run one invocation and check it; returns (timing, output bytes or None).

        A traced invocation (spans given) repeats an untraced one, so its
        samples are not pooled again; its output bytes feed cli.bytes_out.
        """
        outputs = {"result": self.runner.path(inv.tag + ".out.json")}
        if inv.config is not None:
            outputs["dump"] = self.runner.path(inv.tag + ".samples.csv")
        log = self.runner.path(inv.tag + ".log")
        code, timing = self.runner.spawn(self._argv(inv, spans, outputs), log)
        results = [checks.Check(f"{inv.tag}.exit", code == 0,
                                f"exit {code}: {log.read_text(errors='replace')[-300:].strip()}")]
        data = None
        if code == 0:
            try:
                data = {k: p.read_bytes() for k, p in outputs.items()}
                if spans:
                    self.bytes_out += sum(len(v) for v in data.values()) + log.stat().st_size
                results += self._check(inv, data, outputs, pool=spans is None)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                results.append(checks.Check(f"{inv.tag}.parse", False, repr(exc)))
        self.ledger.record(inv.tag, results)
        for p in outputs.values():
            p.unlink(missing_ok=True)
        return timing, data

    def _check(self, inv, data: dict[str, bytes], outputs: dict[str, Path],
               pool: bool) -> list[checks.Check]:
        payload = json.loads(data["result"])
        if inv.config is not None:
            samples = _load_samples(outputs["dump"], len(inv.config["points"]))
            if pool:
                self.pooled.setdefault(inv.tag, []).append(samples)
            return checks.check_clt_output(inv.tag, inv.config, payload, samples)
        if inv.mode == "symcheck":
            return checks.check_symcheck(payload)
        sub = inv.args[0]
        if sub == "constants":
            return checks.check_constants(inv.meta["labels"], payload)
        if sub == "discrepancy":
            return checks.check_discrepancy(payload)
        if sub == "feller-check":
            return checks.check_feller(payload)
        if sub == "sample":
            if pool:
                self.sample_totals += [r["total_cycles"] for r in payload["samples"]]
            return checks.check_sample(payload, inv.meta["n"], inv.meta["count"])
        raise KeyError(sub)

    def run_pass(self, index: int, traced: bool = False) -> tuple[list[Timing], list]:
        """One pass over the job; returns (timings, [(invocation, outputs, spans file)])."""
        timings, produced = [], []
        for inv in self.workload.invocations(index):
            spans = self.runner.path(inv.tag + ".spans.json") if traced else None
            timing, data = self.invoke(inv, spans)
            timings.append(timing)
            if inv.config is not None and not traced:
                rec = self.per_config.setdefault(inv.tag, {"samples": 0, "wall": 0.0})
                rec["samples"] += inv.config["num_samples"]
                rec["wall"] += timing.wall
            produced.append((inv, data, spans))
        return timings, produced

    def pooled_checks(self) -> None:
        for tag, parts in self.pooled.items():
            cfg = self.workload.configs[tag.split(".", 1)[1]]
            samples = np.concatenate(parts)
            self.ledger.record(f"{tag} pooled", checks.check_clt_moments(tag, cfg, samples))
        if self.sample_totals:
            self.ledger.record("exact.sample pooled",
                               checks.check_sample_cycles(self.sample_totals, SAMPLE_N, 1.0))


def setup_once(workload: Workload, runner: Runner, ledger: Ledger,
               spans: Path | None = None) -> Timing:
    paths = []
    for tag, cfg in workload.configs.items():
        p = runner.path(f"setup-{tag}.json")
        p.write_text(json.dumps(dict(cfg, master_seed=0)))
        paths.append(str(p))
    trace = ["--trace", str(spans)] if spans else []
    log = runner.path("setup.log")
    code, timing = runner.spawn([*trace, "setup", *paths], log)
    ledger.record("setup", [checks.Check("setup.exit", code == 0, log.read_text(errors="replace")[-300:])])
    return timing


def machine_info(seed: int) -> dict:
    info = {"seed": seed, "git_sha": _git_sha(), "src_sha256": _tree_hash(ROOT / "src"),
            "nproc": os.cpu_count(), "cpu_model": None, "caches": {},
            "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": {var: BLAS_THREADS for var in THREAD_VARS}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                info["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_hash(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*.py")):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _empty_summary() -> dict:
    return {"spans": {}, "counters": {}, "sample_ns": []}


def _merge(summary: dict, part: dict) -> None:
    for name, (calls, self_ns, total_ns) in part["spans"].items():
        agg = summary["spans"].setdefault(name, [0, 0, 0])
        agg[0] += calls
        agg[1] += self_ns
        agg[2] += total_ns
    for key, value in part["counters"].items():
        summary["counters"][key] = summary["counters"].get(key, 0) + value
    summary["sample_ns"] += part["sample_ns"]


def layer_metrics(setup: dict, job: dict, passes: int, overhead: float, bytes_out: int) -> dict:
    """Per-layer metrics of one set-up plus one pass of the job.

    Totals over the traced passes are divided by their number, so the
    figures do not depend on how many passes fit in --seconds; per-sample
    figures come from all traced samples.
    """
    sample_ns, job_counters = job["sample_ns"], job["counters"]
    samples = len(sample_ns)
    per_sample = lambda key: job_counters.get(key, 0) / samples if samples else 0.0
    counters = {k: setup["counters"].get(k, 0) + job_counters.get(k, 0) / passes
                for k in set(setup["counters"]) | set(job_counters)}

    def span(name, field):
        return setup["spans"].get(name, [0, 0, 0])[field] + job["spans"].get(name, [0, 0, 0])[field] / passes

    def self_s(*names):
        return sum(span(n, 1) for n in names) / 1e9

    def calls(*names):
        return sum(span(n, 0) for n in names)

    angles = counters.get("multipliers.angles", 0)
    m = {
        "mc.stream.calls": (calls("mc.stream"), "count"),
        "mc.stream.self_s": (self_s("mc.stream"), "s"),
        "mc.eval.self_s": (self_s("mc.eval"), "s"),
        "mc.reduce.self_s": (self_s("mc.reduce"), "s"),
        "mc.samples": (samples / passes, "count"),
        "mc.sample_ms_p50": (tr.percentile(sample_ns, 50) / 1e6, "ms"),
        "mc.sample_ms_p99": (tr.percentile(sample_ns, 99) / 1e6, "ms"),
        "mc.retries": (per_sample("mc.retries"), "1/sample"),
        "ewens.self_s": (self_s("ewens", "ewens.enumerate"), "s"),
        "ewens.calls": (calls("ewens", "ewens.enumerate"), "count"),
        "ewens.variates_per_sample": (per_sample("ewens.variates"), "1/sample"),
        "ewens.cycles_per_sample": (per_sample("ewens.cycles"), "1/sample"),
        "ewens.enumerate_s": (span("ewens.enumerate", 2) / 1e9, "s"),
        "multipliers.self_s": (self_s("multipliers"), "s"),
        "multipliers.calls": (calls("multipliers"), "count"),
        "multipliers.variates_per_sample": (per_sample("multipliers.variates"), "1/sample"),
        "multipliers.variates_per_angle": (counters.get("multipliers.variates", 0) / angles if angles else 0.0,
                                           "ratio"),
        "classfuncs.self_s": (self_s("classfuncs"), "s"),
        "classfuncs.calls": (calls("classfuncs"), "count"),
        "classfuncs.points": (counters.get("classfuncs.points", 0), "count"),
        "limits.self_s": (self_s("limits"), "s"),
        "limits.calls": (calls("limits"), "count"),
        "limits.integrand_points": (counters.get("limits.integrand_points", 0), "count"),
        "equidist.self_s": (self_s("equidist"), "s"),
        "equidist.calls": (calls("equidist"), "count"),
        "equidist.points": (counters.get("equidist.points", 0), "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.bytes_out": (bytes_out / passes, "bytes"),
        "trace.overhead": (overhead, "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def run_untraced(job: Job, seconds: float) -> dict:
    """Job passes for about `seconds`, each preceded by a set-up, so both are
    sampled across the whole run rather than in one stretch of machine speed."""
    start = time.monotonic()
    passes, setups = [], []
    while True:
        setups.append([setup_once(job.workload, job.runner, job.ledger)])
        passes.append(job.run_pass(len(passes))[0])
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            break
        if time.monotonic() > job.runner.deadline:
            break
    while len(setups) < MIN_SETUPS:
        setups.append([setup_once(job.workload, job.runner, job.ledger)])
    result = {}
    for name, metric, rows in (("passes", "job_s", passes), ("set-ups", "setup_s", setups)):
        rescaled = [job.runner.rescaled(row) for row in rows]
        print(f"{name}: {len(rows)}, wall s: " + " ".join(f"{sum(t.wall for t in row):.3f}" for row in rows)
              + "; rescaled s: " + " ".join(f"{r:.3f}" for r in rescaled))
        result[metric] = statistics.median(rescaled)
    for tag, rec in job.per_config.items():
        print(f"  {tag}: {rec['samples']} samples, {1e3 * rec['wall'] / rec['samples']:.3f} ms/sample "
              "(process wall, start-up included)")
    return result


def run_traced(job: Job, seconds: float, summary: dict) -> tuple[float, int]:
    """Alternate untraced and traced passes on the same inputs, checking that
    the outputs are byte-identical.  Merges the traced spans into `summary`
    and returns (traced/untraced wall ratio, number of traced passes)."""
    start = time.monotonic()
    plain_timings, traced_timings = [], []
    pairs = 0
    while True:
        timings, plain = job.run_pass(pairs)
        plain_timings += timings
        timings, traced = job.run_pass(pairs, traced=True)
        traced_timings += timings
        pairs += 1
        for (inv, a, _), (_, b, spans) in zip(plain, traced):
            job.ledger.record(f"{inv.tag} traced", [checks.Check(
                f"{inv.tag}.trace-identical", a is not None and a == b,
                "outputs byte-identical with and without tracing")])
            if spans.is_file():
                part = json.loads(spans.read_text())
                _merge(summary, part)
                rec = job.per_config.get(inv.tag)
                if rec is not None:
                    _merge(rec.setdefault("trace", _empty_summary()), part)
                spans.unlink()
        elapsed = time.monotonic() - start
        if elapsed + elapsed / pairs > seconds or time.monotonic() > job.runner.deadline:
            break
    plain_total = job.runner.rescaled(plain_timings)
    traced_total = job.runner.rescaled(traced_timings)
    print(f"trace pairs: {pairs}, rescaled s untraced {plain_total:.3f}, traced {traced_total:.3f}")
    for tag, rec in job.per_config.items():
        t = rec.get("trace")
        if not t or not t["sample_ns"]:
            continue
        S = len(t["sample_ns"])
        parts = {name: t["spans"].get(name, [0, 0, 0])[1] / 1e6 / S
                 for name in ("mc.stream", "ewens", "multipliers", "classfuncs", "mc.eval")}
        print(f"  {tag}: {S} traced samples, sample ms p50 {tr.percentile(t['sample_ns'], 50) / 1e6:.3f}, "
              "self ms/sample " + ", ".join(f"{k} {v:.3f}" for k, v in parts.items()))
    return (traced_total / plain_total if plain_total > 0 else 0.0), pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the clean-up below
    if not (ROOT / "src" / "permchar" / "__init__.py").is_file():
        print(f"perfbench: no permchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        workload = Workload(args.workload, args.seed)
        runner = Runner(work, deadline, PROBE_MIX[args.workload])
        ledger = Ledger()
        print(f"perfbench: workload {args.workload} ({WHY[args.workload]}), seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}")
        print("machine: " + json.dumps(machine_info(args.seed), sort_keys=True))

        setup_once(workload, runner, ledger)  # warm-up: byte-compile, fill the file cache
        if args.trace:
            setup_summary, job_summary = _empty_summary(), _empty_summary()
            spans = runner.path("setup.spans.json")
            setup_once(workload, runner, ledger, spans)
            if spans.is_file():
                _merge(setup_summary, json.loads(spans.read_text()))
            job = Job(workload, runner, ledger)
            overhead, passes = run_traced(job, args.seconds, job_summary)
            job.pooled_checks()
            metrics = layer_metrics(setup_summary, job_summary, passes, overhead, job.bytes_out)
        else:
            job = Job(workload, runner, ledger)
            result = run_untraced(job, args.seconds)
            job.pooled_checks()
            metrics = {
                "job_s": {"value": result["job_s"], "unit": "s"},
                "setup_s": {"value": result["setup_s"], "unit": "s"},
                "peak_rss_mb": {"value": runner.peak_rss_kb / 1024.0, "unit": "MB"},
            }
            if job.per_config:
                samples = sum(rec["samples"] for rec in job.per_config.values())
                wall = sum(rec["wall"] for rec in job.per_config.values())
                print(f"  samples_per_s = {samples / wall:.6g} samples/s")

        for msg in ledger.messages[:20]:
            print(msg)
        print(f"operations: {ledger.attempted} attempted, {ledger.failed} failed, "
              f"{ledger.known} failed on known defects")
        print(f"  error_rate = {(ledger.failed + ledger.known) / ledger.attempted:.6g} ratio "
              "(known defects included)")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                          "failed": ledger.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
