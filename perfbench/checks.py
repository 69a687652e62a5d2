"""Correctness checks of permchar outputs against finite-n theory.

Every check holds for a correct program at any seed: exact identities are
compared with tight tolerances, and Monte Carlo means and variances with
6 standard errors of the sample at hand.  No check is tied to a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import digamma, gammaln, polygamma

Z_TOL = 6.0          # standard errors allowed for a Monte Carlo moment
CONST_TOL = 1e-9     # limit constants and covariance entries
ZERO_TOL = 1e-9      # coordinates whose reference is exactly 0
IDENTITY_TOL = 1e-8  # symmetric-part product identity
EXACT_TOL = 1e-12    # Feller chain law and discrepancy

# Exact star discrepancy of the (sqrt 2, sqrt 3) Kronecker sequence, n = 4000,
# as computed by permchar 0.1.0; the algorithm is exact, so it must not move.
DISCREPANCY_ARGS = {"kronecker": (math.sqrt(2.0) % 1.0, math.sqrt(3.0) % 1.0), "n": 4000, "H": 50}
DISCREPANCY_VALUE = 0.0023041260195433844
FELLER_N = 16
PARTITIONS_OF_16 = 231
SYMCHECK_PERMUTATIONS = sum(math.factorial(n) for n in range(1, 8))

# Known defects (ROADMAP open item 5).  They fail today at every seed; they
# are reported as failures in error_rate and listed, but do not mark the
# run incorrect, so the benchmark shows the day they are fixed.
KNOWN_DEFECTS = {
    "w2.sympart.im-zero": "sympart Im is divided by V_I ~ 1e-26 instead of being exactly 0",
    "constants.sympart.m_R": "cancellation in 2 - w - 1/w near phi = 0 gives m_R ~ 1.2e-7",
    "constants.sympart.V_R": "the same cancellation puts V_R 3.3e-6 below pi^2/3",
}


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _check(name: str, value: float, reference: float, tol: float) -> Check:
    ok = bool(abs(value - reference) <= tol)  # False for NaN
    return Check(name, ok, f"{value!r} vs {reference!r} (tol {tol:.3g})")


def all_finite(payload) -> bool:
    if isinstance(payload, dict):
        return all(all_finite(v) for v in payload.values())
    if isinstance(payload, list):
        return all(all_finite(v) for v in payload)
    if isinstance(payload, float):
        return math.isfinite(payload)
    return True


# ---------------------------------------------------------------- references

def expected_cycles(n: int, theta: float) -> float:
    """E[K_n] = sum_{i=1}^n theta / (theta + i - 1)."""
    return float(theta * (digamma(theta + n) - digamma(theta)))


def var_cycles(n: int, theta: float) -> float:
    """Var K_n = sum p_i (1 - p_i) for the independent Feller bits p_i."""
    return float(expected_cycles(n, theta) - theta ** 2 * (polygamma(1, theta) - polygamma(1, theta + n)))


def mean_cycle_counts(n: int, theta: float) -> np.ndarray:
    """E[C_m] = (theta / m) Psi_n(m), m = 1..n."""
    m = np.arange(1, n + 1, dtype=float)
    log_psi = gammaln(n - m + theta) - gammaln(n - m + 1) + gammaln(n + 1) - gammaln(n + theta)
    return theta / m * np.exp(log_psi)


@lru_cache(maxsize=None)
def uniform_term_moments(label: str) -> tuple[float, float, float, float]:
    """(mean, second moment) of Re and Im log f(U), U uniform on the circle."""
    if label == "charpoly":
        return 0.0, math.pi ** 2 / 12, 0.0, math.pi ** 2 / 12
    if label == "sympart":
        return 0.0, math.pi ** 2 / 3, 0.0, 0.0
    if label == "antisympart":
        # f = 2 - 2i sin(2 pi phi): log|f| = log(2 sqrt(1 + sin^2)), arg f = -atan(sin)
        v_r = quad(lambda p: math.log(2.0 * math.sqrt(1.0 + math.sin(2 * math.pi * p) ** 2)) ** 2,
                   0.0, 1.0, epsabs=1e-14, epsrel=1e-14, limit=200)[0]
        v_i = quad(lambda p: math.atan(math.sin(2 * math.pi * p)) ** 2,
                   0.0, 1.0, epsabs=1e-14, epsrel=1e-14, limit=200)[0]
        return math.asinh(1.0), v_r, 0.0, v_i
    raise KeyError(label)


def _logz_term_means(n: int, x: float, spec: dict) -> np.ndarray:
    """E[log(1 - x^{-m} T_m)], m = 1..n, principal branch, for one point angle x."""
    m = np.arange(1, n + 1)
    kind = spec["type"]
    if kind == "uniform":
        return np.zeros(n, dtype=complex)
    if kind == "trivial":
        return np.log(1.0 - np.exp(2j * np.pi * (0.0 - m * x)))
    if kind == "fourier":
        # log(1 - w) = -sum_k w^k / k and E[e^{2 pi i k T_m}] = c_{-k}^m
        out = np.zeros(n, dtype=complex)
        for j, c in spec["coeffs"].items():
            k = -int(j)
            if k >= 1:
                out -= np.exp(-2j * np.pi * k * m * x) * complex(c) ** m / k
        return out
    if kind == "discrete":
        rho = int(spec["rho"])
        k = np.arange(rho)
        probs = np.asarray(spec["probs"], dtype=float)
        coeffs = np.exp(-2j * np.pi * np.outer(k, k) / rho) @ probs
        probs_m = ((coeffs[None, :] ** m[:, None]) @ np.exp(2j * np.pi * np.outer(k, k) / rho)).real / rho
        terms = np.log(1.0 - np.exp(2j * np.pi * (k[None, :] / rho - m[:, None] * x)))
        return (probs_m * terms).sum(axis=1)
    raise KeyError(kind)


def coordinate_references(cfg: dict) -> list[dict]:
    """Per coordinate (Re_1..Re_d, Im_1..Im_d) of a theoretically centered
    clt config: {"mean": normalized mean or None, "var": normalized variance
    or None, "zero": True if the coordinate is identically 0}."""
    n, theta, points = cfg["n"], cfg["theta"], cfg["points"]
    d = len(points)
    logn = math.log(n)
    spec = cfg.get("model_spec", {"type": "uniform"})
    labels = cfg.get("function_labels") or ["charpoly"] * d
    refs = [dict(mean=None, var=None, zero=False) for _ in range(2 * d)]
    if spec["type"] == "uniform":
        ek, vk = expected_cycles(n, theta), var_cycles(n, theta)
        for j, label in enumerate(labels):
            mu_r, v_r, mu_i, v_i = uniform_term_moments(label)
            for coord, mu, v in ((j, mu_r, v_r), (d + j, mu_i, v_i)):
                if v == 0.0:
                    refs[coord]["zero"] = True
                    continue
                scale = theta * v * logn
                refs[coord]["mean"] = (ek - theta * logn) * mu / math.sqrt(scale)
                refs[coord]["var"] = (ek * (v - mu * mu) + vk * mu * mu) / scale
    elif cfg["kind"] == "logZ":
        counts = mean_cycle_counts(n, theta)
        v = math.pi ** 2 / 12  # charpoly V_R = V_I; m_R = m_I = 0
        for j, x in enumerate(points):
            raw = complex(np.sum(counts * _logz_term_means(n, x, spec)))
            refs[j]["mean"] = raw.real / math.sqrt(theta * v * logn)
            refs[d + j]["mean"] = raw.imag / math.sqrt(theta * v * logn)
    return refs


# --------------------------------------------------------------- clt checks

def check_clt_output(tag: str, cfg: dict, result: dict, samples: np.ndarray) -> list[Check]:
    """Checks on one clt invocation: its result JSON and its sample dump."""
    d = len(cfg["points"])
    out = [Check(f"{tag}.finite", all_finite(result) and bool(np.isfinite(samples).all()),
                 "result JSON and samples finite")]
    shape_ok = samples.shape == (cfg["num_samples"], 2 * d) and result.get("num_samples") == cfg["num_samples"]
    out.append(Check(f"{tag}.shape", shape_ok, f"samples {samples.shape}"))
    if not shape_ok:
        return out
    mean = np.asarray(result["mean"], dtype=float)
    out.append(Check(f"{tag}.dump-matches-json",
                     bool(np.allclose(mean, samples.mean(axis=0), rtol=1e-9, atol=1e-12)),
                     "result mean equals the mean of the dumped samples"))
    labels = cfg.get("function_labels") or ["charpoly"] * d
    for coord, ref in enumerate(coordinate_references(cfg)):
        if ref["zero"]:
            worst = float(np.max(np.abs(samples[:, coord])))
            label = labels[coord % d]
            out.append(Check(f"{cfg['kind']}.{label}.im-zero", worst <= ZERO_TOL,
                             f"max |x| = {worst:.3g} on a coordinate that is identically 0"))
    return out


def check_clt_moments(tag: str, cfg: dict, samples: np.ndarray) -> list[Check]:
    """Pooled sample mean and variance of each coordinate against theory."""
    out = []
    S = samples.shape[0]
    for coord, ref in enumerate(coordinate_references(cfg)):
        x = samples[:, coord]
        if ref["mean"] is not None:
            sd = float(np.std(x, ddof=1)) if S > 1 else math.inf
            if ref["var"] is not None:
                sd = max(sd, math.sqrt(ref["var"]))
            out.append(_check(f"{tag}.coord{coord}.mean", float(np.mean(x)), ref["mean"],
                              Z_TOL * sd / math.sqrt(S)))
        if ref["var"] is not None and S > 3:
            centred = x - x.mean()
            m2 = float(np.mean(centred ** 2))
            kurtosis = float(np.mean(centred ** 4)) / m2 ** 2 if m2 > 0 else math.inf
            log_ratio = math.log(float(np.var(x, ddof=1)) / ref["var"]) if m2 > 0 else math.inf
            out.append(_check(f"{tag}.coord{coord}.var", log_ratio, 0.0,
                              Z_TOL * math.sqrt(max(kurtosis - 1.0, 2.0) / S)))
    return out


# ------------------------------------------------------------ exact checks

def _constant_references(label: str) -> dict:
    mu_r, v_r, mu_i, v_i = uniform_term_moments(label)
    return {"m_R": mu_r, "m_I": mu_i, "V_R": v_r, "V_I": v_i}


def check_constants(labels: list[str], payload: dict, theta: float = 1.0) -> list[Check]:
    if not all_finite(payload):
        return [Check(f"constants.{'+'.join(labels)}.finite", False, "non-finite value")]
    if len(labels) == 1:
        refs = _constant_references(labels[0])
        return [_check(f"constants.{labels[0]}.{key}", payload[key], ref, CONST_TOL)
                for key, ref in refs.items()]
    refs = [_constant_references(lb) for lb in labels]
    tag = f"covariance.{'+'.join(labels)}"
    out = [Check(f"{tag}.d", payload["d"] == len(labels), f"d = {payload['d']}")]
    for j, ref in enumerate(refs):
        out.append(_check(f"{tag}.re_re.{j}{j}", payload["re_re"][j][j], theta * ref["V_R"], CONST_TOL))
        out.append(_check(f"{tag}.im_im.{j}{j}", payload["im_im"][j][j], theta * ref["V_I"], CONST_TOL))
        for k in range(j + 1, len(refs)):
            out.append(_check(f"{tag}.re_re.{j}{k}", payload["re_re"][j][k],
                              theta * ref["m_R"] * refs[k]["m_R"], CONST_TOL))
    return out


def check_discrepancy(payload: dict) -> list[Check]:
    return [
        _check("discrepancy.exact", payload["exact"], DISCREPANCY_VALUE, EXACT_TOL),
        Check("discrepancy.etk-bound", bool(payload["exact"] <= payload["etk"]),
              f"exact {payload['exact']!r} <= ETK {payload['etk']!r}"),
    ]


def check_feller(payload: dict) -> list[Check]:
    return [
        _check("feller.max-difference", payload["max_abs_difference"], 0.0, EXACT_TOL),
        _check("feller.total-probability", payload["total_probability"], 1.0, EXACT_TOL),
        Check("feller.cycle-types", payload["num_cycle_types"] == PARTITIONS_OF_16,
              f"{payload['num_cycle_types']} cycle types of 16"),
    ]


def check_sample(payload: dict, n: int, count: int) -> list[Check]:
    rows = payload["samples"]
    weights_ok = all(sum(m * c for m, c in enumerate(r["cycle_counts"], start=1)) == n for r in rows)
    totals_ok = all(sum(r["cycle_counts"]) == r["total_cycles"] for r in rows)
    return [
        Check("sample.count", len(rows) == count, f"{len(rows)} samples"),
        Check("sample.weights", weights_ok, "sum m c_m = n for every sample"),
        Check("sample.total-cycles", totals_ok, "total_cycles = sum c_m for every sample"),
    ]


def check_sample_cycles(totals: list[int], n: int, theta: float) -> list[Check]:
    """Pooled mean number of cycles against E[K_n]."""
    tol = Z_TOL * math.sqrt(var_cycles(n, theta) / len(totals))
    return [_check("sample.mean-cycles", float(np.mean(totals)), expected_cycles(n, theta), tol)]


def check_symcheck(payload: dict) -> list[Check]:
    return [
        Check("symcheck.permutations", payload["permutations"] == SYMCHECK_PERMUTATIONS,
              f"{payload['permutations']} permutations"),
        _check("symcheck.identity", payload["max_abs_error"], 0.0, IDENTITY_TOL),
    ]
