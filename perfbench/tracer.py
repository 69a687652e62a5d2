"""Layer spans and counters for permchar, recorded from outside the package.

`install(tracer)` replaces every permchar function and public method at the
place where callers look it up (module attributes and class attributes) with
a wrapper that opens a span named after the layer.  `uninstall` puts the
originals back.  Nothing under src/ is modified.

A span that would open inside a span of the same layer is not recorded, so
`calls` counts entries into a layer from outside it.  A layer's self time is
its span durations minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
import types

import numpy as np

LAYERS = ("ewens", "multipliers", "classfuncs", "limits", "equidist", "mc", "cli")

# Functions whose span name differs from their module: the sub-layers of a
# Monte Carlo sample, and the Feller-chain draw that mc performs itself but
# which is the ewens layer's work (cycle-structure sampling).
SPAN_NAMES = {
    "mc.derive_stream": "mc.stream",
    "mc._eval_sample": "mc.eval",
    "mc._normalize": "mc.reduce",
    "mc.ks_statistic": "mc.reduce",
    "mc.empirical_cov": "mc.reduce",
    "mc._sample_cycle_groups": "ewens",
    "ewens.exact_feller_distribution": "ewens.enumerate",
}

# classfuncs entry points that evaluate at one point x each.
_SCALAR_POINT_FUNCS = {"sym_char_poly", "sym_char_poly_matrix", "antisym_char_poly_matrix",
                       "antisym_eigen_product", "det_oracle", "cycle_product"}


class Tracer:
    """Span stack with per-name aggregates; spans must nest (one thread)."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack: list[list] = []          # [name, start_ns, child_ns, layer]
        self.spans: dict[str, list[int]] = {}  # name -> [calls, self_ns, total_ns]
        self.counters: dict[str, int] = {}
        self.sample_ns: list[int] = []
        self._pending_ns = 0  # stream and failed-eval time of the sample in progress

    def inside(self, layer: str) -> bool:
        return any(frame[3] == layer for frame in self.stack)

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0, name.split(".", 1)[0]])

    def exit(self) -> int:
        """Close the innermost span and return its duration in ns."""
        name, start, child, _ = self.stack.pop()
        duration = self.clock() - start
        agg = self.spans.setdefault(name, [0, 0, 0])
        agg[0] += 1
        agg[1] += duration - child
        agg[2] += duration
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def charge_variates(self, amount: int) -> None:
        layer = self.stack[-1][3] if self.stack else "none"
        self.count(layer + ".variates", amount)

    def end_stream(self, duration: int) -> None:
        self._pending_ns += duration

    def end_eval(self, duration: int, ok: bool) -> None:
        if ok:
            self.sample_ns.append(self._pending_ns + duration)
            self._pending_ns = 0
        else:
            self._pending_ns += duration
            self.count("mc.retries", 1)

    def summary(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "sample_ns": self.sample_ns}


def _size(size) -> int:
    if size is None:
        return 1
    if isinstance(size, (int, np.integer)):
        return int(size)
    return math.prod(size)


class CountingStream:
    """Delegates to a numpy Generator and charges each variate it hands out
    to the layer whose span is open."""

    def __init__(self, rng: np.random.Generator, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, size=None, *args, **kwargs):
        self._tracer.charge_variates(_size(size))
        return self._rng.random(size, *args, **kwargs)

    def integers(self, low, high=None, size=None, *args, **kwargs):
        self._tracer.charge_variates(_size(size))
        return self._rng.integers(low, high, size, *args, **kwargs)

    def choice(self, a, size=None, *args, **kwargs):
        self._tracer.charge_variates(_size(size))
        return self._rng.choice(a, size, *args, **kwargs)


def _hook_for(qualname: str):
    """Counter update for calls to `qualname`, or None.

    A hook gets (tracer, opened, args, kwargs, result) after the call returns
    and gives back the result, which the stream hook wraps.
    """
    module, _, func = qualname.partition(".")
    short = func.rsplit(".", 1)[-1]

    def counting(key, amount):
        def hook(tracer, opened, args, kwargs, result):
            tracer.count(key, amount(args, kwargs, result))
            return result
        return hook

    if qualname == "mc.derive_stream":
        return lambda tracer, opened, args, kwargs, result: CountingStream(result, tracer)
    if qualname == "mc._sample_cycle_groups":
        return counting("ewens.cycles", lambda a, k, r: np.sum(r[1]))
    if module == "multipliers" and short in ("sample_T", "sample_z"):
        def angles(tracer, opened, args, kwargs, result):
            if opened:  # FourierDensity.sample_T draws through sample_z: count once
                tracer.count("multipliers.angles", np.size(result))
            return result
        return angles
    if qualname == "classfuncs.SpectralFunction.on_circle":
        def points(tracer, opened, args, kwargs, result):
            size = np.size(args[1] if len(args) > 1 else kwargs["phi"])
            tracer.count("classfuncs.points", size)
            if tracer.inside("limits"):
                tracer.count("limits.integrand_points", size)
            return result
        return points
    if module == "classfuncs" and short in _SCALAR_POINT_FUNCS:
        return counting("classfuncs.points", lambda a, k, r: 1)
    if qualname == "equidist.kronecker":
        return counting("equidist.points", lambda a, k, r: r.n)
    if qualname == "equidist._lattice_points":
        return counting("equidist.points", lambda a, k, r: len(r))
    return None


def _make_wrapper(fn, qualname: str, tracer: Tracer):
    span = SPAN_NAMES.get(qualname, qualname.split(".", 1)[0])
    sub_layer = "." in span
    hook = _hook_for(qualname)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = tracer.stack
        # Same layer already open: a call inside the layer, not a new entry.
        if stack and (stack[-1][0] == span or (not sub_layer and stack[-1][3] == span)):
            result = fn(*args, **kwargs)
            return hook(tracer, False, args, kwargs, result) if hook else result
        tracer.enter(span)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            duration = tracer.exit()
            if span == "mc.stream":
                tracer.end_stream(duration)
            elif span == "mc.eval":
                tracer.end_eval(duration, ok)
        return hook(tracer, True, args, kwargs, result) if hook else result

    return wrapper


def _targets():
    """(owner, attribute name, function, qualified name) for every wrap point."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"permchar.{layer}")
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj.__module__.startswith("permchar."):
                home = obj.__module__.split(".", 1)[1]
                out.append((mod, attr, obj, f"{home}.{obj.__name__}"))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in list(vars(obj).items()):
                    if isinstance(fn, types.FunctionType) and (meth == "__init__" or not meth.startswith("__")):
                        out.append((obj, meth, fn, f"{layer}.{obj.__name__}.{meth}"))
    return out


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every permchar function for `tracer`; returns the undo list."""
    undo = []
    wrappers: dict[int, object] = {}
    for owner, attr, fn, qualname in _targets():
        if id(fn) not in wrappers:
            wrappers[id(fn)] = _make_wrapper(fn, qualname, tracer)
        setattr(owner, attr, wrappers[id(fn)])
        undo.append((owner, attr, fn))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])
