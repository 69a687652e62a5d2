"""Seeded Monte Carlo experiments testing the central limit behavior.

Each sample derives its own random stream from (master_seed, sample
index), so results are a pure function of the configuration and do not
depend on how samples are scheduled or grouped into blocks: a block makes
one call each for its cycle groups, multipliers and log sums, and every
sample's draws read its own stream in the order a lone sample's would.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import classfuncs, limits
from .equidist import finite_type_estimate, star_discrepancy_1d
from .ewens import CHUNK, EwensParameter, FellerChain, cycle_groups
from .multipliers import (DiscreteRoots, FourierDensity, MultiplierModel, Trivial, Uniform)

_KINDS = ("logZ", "w1", "w2", "total-cycles")
_CENTERINGS = ("theoretical", "empirical", "none")
# Samples per block.  A block holds a stream and a chain draw for each of its
# samples, and at 64 a desk process peaks no higher than with one sample at a
# time; results do not depend on it
_BLOCK = 64
# A run holds its (num_samples, 2d) table of statistics about three times: the
# raw rows, the normalized rows and the centred copy np.cov makes.  2^25
# entries is 256 MB a copy; past it the table is refused, not allocated
_MAX_TABLE = 2 ** 25
_erfc = np.vectorize(math.erfc, otypes=[float])


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
    # var, cov and ks are None for a one-sample run: there is no spread to report
    var: np.ndarray | None       # (2d,)
    cov: np.ndarray | None       # (2d, 2d) empirical covariance
    ks: np.ndarray | None        # (2d,) KS distance to N(0,1), None where a coordinate is not normalized
    singular_rejections: int    # always 0: a sample on a zero of f stops the run

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
            "var": _tolist(self.var),
            "cov": _tolist(self.cov),
            "ks": _tolist(self.ks),
            "singular_rejections": self.singular_rejections,
        }


def _tolist(a: np.ndarray | None) -> list | None:
    return None if a is None else a.tolist()


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
        freqs = {}
        for j, c in coeffs.items():
            if int(j) in freqs:  # "1" and "+1", or "-1" and "-01", name one frequency
                raise RegimeViolationError(f"fourier coeffs name frequency {int(j)} twice")
            freqs[int(j)] = _coefficient(c)
        return FourierDensity(freqs)
    if kind == "discrete":
        rho = spec.get("rho")
        if not (_is_int(rho) and rho >= 1):
            raise RegimeViolationError(f"discrete rho must be an integer >= 1, got {rho!r}")
        probs, coeffs = spec.get("probs"), spec.get("coeffs")
        if probs is not None and not (isinstance(probs, (list, tuple)) and len(probs) == rho
                                      and all(map(_is_finite_real, probs))):
            raise RegimeViolationError(f"discrete probs must list {rho} finite reals, got {probs!r}")
        if coeffs is not None:
            if not (isinstance(coeffs, (list, tuple)) and len(coeffs) == rho):
                raise RegimeViolationError(f"discrete coeffs must list {rho} coefficients, got {coeffs!r}")
            coeffs = [_coefficient(c) for c in coeffs]
        return DiscreteRoots(rho, probs=probs, coeffs=coeffs)
    raise RegimeViolationError(f"unknown model type {spec.get('type')!r}")


def _coefficient(c) -> complex:
    """A coefficient given as a finite real number or an [re, im] pair of them."""
    pair = c if isinstance(c, (list, tuple)) else (c, 0.0)
    if len(pair) != 2 or not all(map(_is_finite_real, pair)):
        raise RegimeViolationError(f"a coefficient must be a finite number or [re, im], got {c!r}")
    return complex(*pair)


def derive_stream(master_seed: int, sample_index: int) -> np.random.Generator:
    """Independent stream for one sample; stable across runs."""
    # the Generator default_rng would build, without its dispatch
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(sample_index,))
    return np.random.Generator(np.random.PCG64(seq))


def ks_statistic(samples: np.ndarray) -> float:
    """Sup distance between the empirical CDF and the standard normal CDF Phi:
    the star discrepancy of Phi(samples)."""
    s = np.asarray(samples, dtype=float)
    if len(s) < 2:
        raise ValueError("need at least 2 samples")
    return star_discrepancy_1d(0.5 * _erfc(-s / math.sqrt(2)))


def empirical_cov(samples: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance of an (N, k) sample matrix."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    return np.cov(samples, rowvar=False).reshape(samples.shape[1], samples.shape[1])


def _require_finite_type(cfg: ExperimentConfig, labels, rho: int) -> None:
    for phi, label in zip(cfg.points, labels):
        # finite_type_estimate returns a preset certificate before searching
        if finite_type_estimate(phi, 512).K <= 0.0:
            raise RegimeViolationError(
                f"point angle {phi} has no finite-type certificate (rational dependence found)")
        # phi is p/q with q a power of two, and arg T_m is some k/rho: an m-cycle can
        # put m phi + arg T_m on 0 mod 1, the zero of charpoly and sympart, once q/gcd(q, rho) | m
        q = phi.as_integer_ratio()[1]
        length = q // math.gcd(q, rho)
        if label in ("charpoly", "sympart") and length <= cfg.n:
            raise RegimeViolationError(f"point {phi} is p/q with q = {q}: a cycle of length {length} "
                                       f"<= n = {cfg.n} can put it on the zero of {label}")
    # relations among three or more points stay unchecked: the lattice search supports d <= 2
    for pair in itertools.combinations(cfg.points, 2):
        if finite_type_estimate(pair, 64).K <= 0.0:
            raise RegimeViolationError(f"point pair {pair} fails the pairwise finite-type search")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def validate_config(cfg: ExperimentConfig) -> tuple[list[classfuncs.SpectralFunction],
                                                     MultiplierModel | None]:
    """Check every field; return the spectral functions and the multiplier
    model of the run, so that every config error is raised here."""
    # n >= 2 keeps log n > 0 in the normalization; log_sums forms cycle lengths as doubles
    if not (_is_int(cfg.n) and 2 <= cfg.n <= 2 ** 53):
        raise RegimeViolationError(f"n must be an integer in [2, 2^53] (lengths are doubles), got {cfg.n!r}")
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
    width = 2 * (1 if cfg.kind == "total-cycles" else max(1, len(cfg.points)))
    if cfg.num_samples * width > _MAX_TABLE:
        raise RegimeViolationError(f"num_samples * {width} (two columns a point) must be at most "
                                   f"2^25, got num_samples = {cfg.num_samples}")
    if cfg.kind == "total-cycles":
        return [], None
    if not cfg.points:
        raise RegimeViolationError("at least one evaluation point required")
    # x stands for e^{2 pi i x}; x = p/q in lowest terms is (p % q)/q mod 1, exactly
    if len({(p % q, q) for p, q in (x.as_integer_ratio() for x in cfg.points)}) != len(cfg.points):
        raise RegimeViolationError("points must be pairwise distinct modulo 1")
    labels = cfg.function_labels or tuple("charpoly" for _ in cfg.points)
    if len(labels) != len(cfg.points):
        raise RegimeViolationError("need one function label per point")
    fs, model = [classfuncs.spectral_function_by_label(lb) for lb in labels], model_from_spec(cfg.model_spec)
    if isinstance(model, (Trivial, DiscreteRoots)):
        _require_finite_type(cfg, labels, getattr(model, "rho", 1))
    return fs, model


def _eval_sample(chain: FellerChain, rng: np.random.Generator) -> np.ndarray:
    """One sample's chain draw: the positions of the ones of its chain."""
    # kept as a function of its own: perfbench's tracer times each sample by
    # the qualified name mc._eval_sample
    return chain.ones(rng)


def _sample_cycle_groups(ones: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cycle lengths, multiplicities and row bounds of a block of chain draws."""
    # kept as a function of its own: perfbench's tracer counts ewens.cycles
    # by the qualified name mc._sample_cycle_groups
    return cycle_groups(ones, n)


def _draw_blocks(chain: FellerChain, master_seed: int, count: int):
    """(indices, streams, cycle groups) of samples 0..count-1, a block at a
    time: each chain drawn from its sample's stream in index order, the
    block's cycle groups read in one call.  A block closes at _BLOCK samples
    or, at large theta, CHUNK cycles; the streams are left where the chains
    leave them."""
    block, streams, ones, cycles = [], [], [], 0
    for i in range(count):
        streams.append(derive_stream(master_seed, i))
        ones.append(_eval_sample(chain, streams[-1]))
        block.append(i)
        cycles += len(ones[-1])
        if len(block) == _BLOCK or cycles >= CHUNK or i == count - 1:
            groups, ones = _sample_cycle_groups(ones, chain.n), []
            yield block, streams, groups
            block, streams, cycles = [], [], 0


def _eval_block(cfg: ExperimentConfig, fs, model, streams, groups) -> tuple[np.ndarray, np.ndarray]:
    """Raw rows of a drawn block, (re_1..re_d, im_1..im_d) or (total cycles, 0),
    and which of them hit a zero of f.

    All points read the same matrix: each cycle gets one multiplier draw
    (z = T_1 for w1, the product T_m otherwise) from its sample's stream,
    shared by every coordinate; total-cycles reads no multipliers.
    """
    lengths, mults, bounds = groups
    # row r's cycles are cycles[r]:cycles[r + 1]
    cycles = np.append(0, np.cumsum(mults))[bounds]
    if cfg.kind == "total-cycles":
        return np.column_stack([np.diff(cycles), np.zeros(len(streams))]), np.zeros(len(streams), dtype=bool)
    angles = model.sample_T(np.ones_like(lengths) if cfg.kind == "w1" else lengths, mults, bounds, streams)
    if cfg.kind == "logZ":
        # characteristic polynomial terms 1 - x^{-m} T = f(x^m T^{-1}), f = char_poly
        angles = -angles
    return classfuncs.log_sums(fs, cfg.points, np.repeat(lengths, mults), angles, cycles[:-1])


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the configured experiment; deterministic given the config.

    Samples are drawn and evaluated a block at a time.  A sample on a zero of
    f stops the run; validate_config refuses the configs that resonate.
    """
    fs, model = validate_config(cfg)
    chain = FellerChain(cfg.n, EwensParameter(cfg.theta))
    width = 2 * max(1, len(fs))  # total-cycles: (count, 0)
    raw = np.empty((cfg.num_samples, width))
    for indices, streams, groups in _draw_blocks(chain, cfg.master_seed, cfg.num_samples):
        raw[indices], singular = _eval_block(cfg, fs, model, streams, groups)
        if singular.any():
            raise RegimeViolationError(f"sample {indices[singular.argmax()]} landed on a zero of f: "
                                       f"an angle sum rounded to an integer")
    raw_mean = raw.mean(axis=0)
    samples, scaled = _normalize(cfg, fs, raw)
    mean = samples.mean(axis=0)
    var = cov = ks = None
    if cfg.num_samples > 1:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
            var = samples.var(axis=0, ddof=1)
            cov = empirical_cov(samples)
        # the samples stay below about 1e181 here, and so does their mean; var and cov square them
        for name, value in (("var", var), ("cov", cov)):
            if not np.isfinite(value).all():
                raise RegimeViolationError(f"the {name} of the normalized samples overflowed "
                                           f"at theta = {cfg.theta}")
        ks = np.array([ks_statistic(samples[:, j]) if scaled[j] else None for j in range(width)])
    return ExperimentResult(config=cfg, samples=samples, raw_mean=raw_mean,
                            mean=mean, var=var, cov=cov, ks=ks,
                            singular_rejections=0)


def _normalize(cfg: ExperimentConfig, fs, raw: np.ndarray) -> tuple[np.ndarray, list[bool]]:
    """Centred and normalized samples, and which columns were scaled (total-cycles: none)."""
    d = len(fs)
    out, scaled = raw.copy(), [False] * raw.shape[1]
    for j, f in enumerate(fs):
        consts = limits.limit_constants(f)
        if cfg.centering == "theoretical":
            c = limits.centering(cfg.n, cfg.theta, consts)
            if not cmath.isfinite(c):
                raise RegimeViolationError(f"the centering theta m log n of {f.label} is {c} "
                                           f"at theta = {cfg.theta}")
            out[:, j] -= c.real
            out[:, d + j] -= c.imag
        elif cfg.centering == "empirical":
            out[:, j] -= raw[:, j].mean()
            out[:, d + j] -= raw[:, d + j].mean()
        # a coordinate with zero limit variance (const:c) is left unscaled, not 0/0
        for col, V in ((j, consts.V_R), (d + j, consts.V_I)):
            if V > 0:
                scale = limits.normalization(cfg.n, cfg.theta, V)
                if not 0.0 < scale < math.inf:
                    raise RegimeViolationError(f"the normalization sqrt(theta V log n) of {f.label} "
                                               f"is {scale} at theta = {cfg.theta}")
                out[:, col] /= scale
                scaled[col] = True
    return out, scaled
