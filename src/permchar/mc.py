"""Seeded Monte Carlo experiments testing the central limit behavior.

Each sample derives its own random stream from (master_seed, sample
index), so results are a pure function of the configuration and do not
depend on how samples are scheduled.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from . import classfuncs, limits
from .equidist import finite_type_estimate
from .ewens import EwensParameter, chain_probabilities, cycle_groups, sample_feller_chain
from .multipliers import (DiscreteRoots, FourierDensity, MultiplierModel, Trivial, Uniform)

_KINDS = ("logZ", "w1", "w2", "total-cycles")
_CENTERINGS = ("theoretical", "empirical", "none")
_SINGULAR_CAP = 0.001


class RegimeViolationError(ValueError):
    """Configuration violates the hypotheses of the targeted theorem."""


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    theta: float
    points: tuple[float, ...]
    kind: str = "logZ"
    function_labels: tuple[str, ...] | None = None
    model_spec: dict = field(default_factory=lambda: {"type": "uniform"})
    num_samples: int = 1000
    master_seed: int = 0
    centering: str = "none"


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    samples: np.ndarray          # (num_samples, 2d) normalized statistics
    raw_mean: np.ndarray         # (2d,) mean before centering/normalization
    mean: np.ndarray             # (2d,)
    var: np.ndarray              # (2d,)
    cov: np.ndarray              # (2d, 2d) empirical covariance
    ks: np.ndarray               # (2d,) KS distance to N(0,1) per coordinate
    singular_rejections: int
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "n": self.config.n,
            "theta": self.config.theta,
            "points": list(self.config.points),
            "kind": self.config.kind,
            "num_samples": self.config.num_samples,
            "master_seed": self.config.master_seed,
            "raw_mean": self.raw_mean.tolist(),
            "mean": self.mean.tolist(),
            "var": self.var.tolist(),
            "cov": self.cov.tolist(),
            "ks": self.ks.tolist(),
            # wall_time intentionally omitted: the JSON form must be a pure
            # function of the config so reruns are byte-identical
            "singular_rejections": self.singular_rejections,
        }


def model_from_spec(spec: dict) -> MultiplierModel:
    """Build a multiplier model from its JSON specification block."""
    kind = spec.get("type")
    if kind == "uniform":
        return Uniform()
    if kind == "trivial":
        return Trivial()
    if kind == "fourier":
        coeffs = spec.get("coeffs")
        if not isinstance(coeffs, dict):
            raise RegimeViolationError(f"fourier coeffs must be an object, got {coeffs!r}")
        return FourierDensity({int(j): _coefficient(c) for j, c in coeffs.items()})
    if kind == "discrete":
        rho = int(spec["rho"])
        if "probs" in spec:
            return DiscreteRoots(rho, probs=np.asarray(spec["probs"], dtype=float))
        return DiscreteRoots(rho, coeffs=np.asarray(spec["coeffs"], dtype=complex))
    raise RegimeViolationError(f"unknown model type {spec.get('type')!r}")


def _coefficient(c) -> complex:
    """A Fourier coefficient given as a real number or an [re, im] pair."""
    pair = c if isinstance(c, (list, tuple)) else (c, 0.0)
    if len(pair) != 2 or not all(map(_is_finite_real, pair)):
        raise RegimeViolationError(f"fourier coefficient must be a number or [re, im], got {c!r}")
    return complex(*pair)


def derive_stream(master_seed: int, sample_index: int, retry: int = 0) -> np.random.Generator:
    """Independent stream for one sample; stable across runs."""
    key = (sample_index,) if retry == 0 else (sample_index, retry)
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=key))


def ks_statistic(samples: np.ndarray) -> float:
    """Sup distance between the empirical CDF and the standard normal CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = len(s)
    if n < 2:
        raise ValueError("need at least 2 samples")
    cdf = ndtr(s)
    i = np.arange(1, n + 1)
    return float(max((i / n - cdf).max(), (cdf - (i - 1) / n).max()))


def empirical_cov(samples: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance of an (N, k) sample matrix."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    return np.cov(samples, rowvar=False).reshape(samples.shape[1], samples.shape[1])


def _require_finite_type(points: tuple[float, ...]) -> None:
    # finite_type_estimate returns a preset certificate before searching
    for phi in points:
        if finite_type_estimate(phi, 512).K <= 0.0:
            raise RegimeViolationError(
                f"point angle {phi} has no finite-type certificate (rational dependence found)")
    if len(points) == 2 and finite_type_estimate(tuple(points), 64).K <= 0.0:
        raise RegimeViolationError("point pair fails the pairwise finite-type search")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def validate_config(cfg: ExperimentConfig) -> None:
    # n >= 2 keeps log n > 0 in the normalization
    if not (_is_int(cfg.n) and cfg.n >= 2):
        raise RegimeViolationError(f"n must be an integer >= 2, got {cfg.n!r}")
    if not (_is_int(cfg.num_samples) and cfg.num_samples >= 1):
        raise RegimeViolationError(f"num_samples must be an integer >= 1, got {cfg.num_samples!r}")
    if not (_is_finite_real(cfg.theta) and cfg.theta > 0):
        raise RegimeViolationError(f"theta must be a finite real > 0, got {cfg.theta!r}")
    if not (isinstance(cfg.points, (list, tuple)) and all(map(_is_finite_real, cfg.points))):
        raise RegimeViolationError(f"points must be a list of finite reals, got {cfg.points!r}")
    if not (_is_int(cfg.master_seed) and cfg.master_seed >= 0):
        raise RegimeViolationError(f"master_seed must be an integer >= 0, got {cfg.master_seed!r}")
    labels = cfg.function_labels
    if not (labels is None or (isinstance(labels, (list, tuple))
                               and all(isinstance(lb, str) for lb in labels))):
        raise RegimeViolationError(f"function_labels must be a list of strings, got {labels!r}")
    if not isinstance(cfg.model_spec, dict):
        raise RegimeViolationError(f"model_spec must be an object, got {cfg.model_spec!r}")
    if cfg.kind not in _KINDS:
        raise RegimeViolationError(f"kind must be one of {_KINDS}")
    if cfg.centering not in _CENTERINGS:
        raise RegimeViolationError(f"centering must be one of {_CENTERINGS}")
    if cfg.kind != "total-cycles":
        if not cfg.points:
            raise RegimeViolationError("at least one evaluation point required")
        if len(set(cfg.points)) != len(cfg.points):
            raise RegimeViolationError("points must be pairwise distinct")
        mtype = cfg.model_spec.get("type")
        if mtype in ("trivial", "discrete"):
            _require_finite_type(cfg.points)


def _functions(cfg: ExperimentConfig) -> list[classfuncs.SpectralFunction]:
    labels = cfg.function_labels or tuple("charpoly" for _ in cfg.points)
    if len(labels) != len(cfg.points):
        raise RegimeViolationError("need one function label per point")
    return [classfuncs.spectral_function_by_label(lb) for lb in labels]


def _sample_cycle_groups(p: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Cycle lengths and multiplicities of one Feller-chain draw."""
    # kept as a function of its own: perfbench's tracer counts ewens.cycles
    # by the qualified name mc._sample_cycle_groups
    return cycle_groups(sample_feller_chain(p, rng))


def _eval_sample(cfg: ExperimentConfig, fs, model, p: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """One statistic draw: (re_1..re_d, im_1..im_d), or total cycles.

    All points read the same matrix: each cycle gets one multiplier draw
    (z = T_1 for w1, the product T_m otherwise), shared by every coordinate.
    """
    lengths, mults = _sample_cycle_groups(p, rng)
    if cfg.kind == "total-cycles":
        return np.array([float(mults.sum()), 0.0])
    ms = np.ones_like(lengths) if cfg.kind == "w1" else lengths
    angles = np.concatenate([model.sample_T(int(m), rng, int(c)) for m, c in zip(ms, mults)])
    if cfg.kind == "logZ":
        # characteristic polynomial terms 1 - x^{-m} T = f(x^m T^{-1}), f = char_poly
        angles = -angles
    return classfuncs.log_sums(fs, cfg.points, np.repeat(lengths, mults), angles)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the configured experiment; deterministic given the config."""
    t0 = time.monotonic()
    validate_config(cfg)
    theta = EwensParameter(cfg.theta)
    p = chain_probabilities(cfg.n, theta)
    d = max(1, len(cfg.points))
    if cfg.kind == "total-cycles":
        fs, model = [], None
        width = 2
    else:
        fs = _functions(cfg)
        model = model_from_spec(cfg.model_spec)
        width = 2 * d
    raw = np.empty((cfg.num_samples, width))
    rejections = 0
    max_rejections = max(1, int(_SINGULAR_CAP * cfg.num_samples))
    for i in range(cfg.num_samples):
        retry = 0
        while True:
            rng = derive_stream(cfg.master_seed, i, retry)
            try:
                raw[i] = _eval_sample(cfg, fs, model, p, rng)
                break
            except classfuncs.SingularSampleError:
                rejections += 1
                retry += 1
                if rejections > max_rejections:
                    raise RegimeViolationError(
                        "singular-sample rate exceeded 0.1%: regime violation suspected")
    raw_mean = raw.mean(axis=0)
    samples = _normalize(cfg, fs, raw)
    mean = samples.mean(axis=0)
    var = samples.var(axis=0, ddof=1) if cfg.num_samples > 1 else np.zeros(width)
    cov = empirical_cov(samples) if cfg.num_samples > 1 else np.zeros((width, width))
    ks = (np.array([ks_statistic(samples[:, j]) for j in range(width)])
          if cfg.num_samples > 1 else np.zeros(width))
    return ExperimentResult(config=cfg, samples=samples, raw_mean=raw_mean,
                            mean=mean, var=var, cov=cov, ks=ks,
                            singular_rejections=rejections,
                            wall_time=time.monotonic() - t0)


def _normalize(cfg: ExperimentConfig, fs, raw: np.ndarray) -> np.ndarray:
    if cfg.kind == "total-cycles":
        return raw.copy()
    d = len(cfg.points)
    out = raw.copy()
    for j, f in enumerate(fs):
        consts = limits.limit_constants(f)
        if cfg.centering == "theoretical":
            c = limits.centering(cfg.n, cfg.theta, f, consts)
            out[:, j] -= c.real
            out[:, d + j] -= c.imag
        elif cfg.centering == "empirical":
            out[:, j] -= raw[:, j].mean()
            out[:, d + j] -= raw[:, d + j].mean()
        # a coordinate with zero limit variance (const:c) is left unscaled, not 0/0
        for col, part, V in ((j, "re", consts.V_R), (d + j, "im", consts.V_I)):
            if V > 0:
                out[:, col] /= limits.normalization(cfg.n, cfg.theta, f, part, consts)
    return out
