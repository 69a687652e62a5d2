"""Ewens-distributed cycle structures via the Feller coupling.

The Feller coupling builds the cycle counts of an Ewens(theta) permutation
and their Poisson limits from a single chain of independent Bernoulli bits
(drawn by `sample_feller_chain`, read by `cycle_groups`), which lets us
compare the two pathwise.  The Chinese restaurant process provides a second,
independent sampler producing the explicit permutation the oracles need.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


class InvalidCycleTypeError(ValueError):
    """Cycle counts do not satisfy sum(m * c_m) == n."""


class SizeLimitError(ValueError):
    """Exact enumeration requested beyond the supported size."""


class HorizonTooSmallError(ValueError):
    """Chain horizon too short for the requested spacing length."""


@dataclass(frozen=True)
class EwensParameter:
    """Weight theta of the Ewens measure; theta=1 is the uniform measure."""

    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise ValueError(f"theta must be positive and finite, got {self.theta}")


@dataclass(frozen=True)
class CycleType:
    """Counts (c_1, ..., c_n) of cycles of each length."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise InvalidCycleTypeError("negative cycle count")
        if sum((m + 1) * c for m, c in enumerate(self.counts)) != self.n:
            raise InvalidCycleTypeError("weights sum(m*c_m) != n")

    @property
    def total_cycles(self) -> int:
        return sum(self.counts)

    def nonzero(self) -> list[tuple[int, int]]:
        """Pairs (m, c_m) with c_m > 0."""
        return [(m + 1, c) for m, c in enumerate(self.counts) if c > 0]


@dataclass(frozen=True)
class Permutation:
    """One-line notation: images[j] = sigma(j+1), values in 1..n."""

    n: int
    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, self.n + 1)):
            raise ValueError("images must be a bijection of 1..n")

    def cycles(self) -> list[list[int]]:
        seen = [False] * (self.n + 1)
        out = []
        for start in range(1, self.n + 1):
            if seen[start]:
                continue
            cyc = []
            j = start
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self.images[j - 1]
            out.append(cyc)
        return out

    def cycle_type(self) -> CycleType:
        counts = [0] * self.n
        for cyc in self.cycles():
            counts[len(cyc) - 1] += 1
        return CycleType(self.n, tuple(counts))


def chain_probabilities(n: int, theta: EwensParameter) -> np.ndarray:
    """P(xi_i = 1) = theta / (theta + i - 1) for i = 1..n."""
    i = np.arange(1, n + 1, dtype=float)
    return theta.theta / (theta.theta + i - 1.0)


def sample_feller_chain(p: np.ndarray, stream: np.random.Generator) -> np.ndarray:
    """Draw the bits xi_1..xi_n of the Feller chain, with xi_1 = 1.

    `p` is chain_probabilities(n, theta), computed once per run.
    """
    bits = stream.random(len(p)) < p
    bits[0] = True
    return bits


def cycle_groups(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cycle lengths and multiplicities: the m-spacings of 1 xi_2 ... xi_n 1.

    A gap of length m between consecutive ones of the extended chain
    contributes one cycle of length m; the appended 1 supplies the
    boundary term, so the gap lengths sum to n exactly.
    """
    gaps = np.diff(np.append(np.flatnonzero(bits), len(bits)))
    return np.unique(gaps, return_counts=True)


def cycle_counts_from_chain(bits: np.ndarray) -> CycleType:
    """Counts (c_1, ..., c_n) of the cycle type that `cycle_groups` reads."""
    lengths, mults = cycle_groups(bits)
    counts = np.zeros(len(bits), dtype=int)
    counts[lengths - 1] = mults
    return CycleType(len(bits), tuple(counts.tolist()))


def poisson_counts_from_chain(bits: np.ndarray, m_max: int) -> tuple[int, ...]:
    """Estimated Y_1..Y_{m_max}: m-spacings within the chain, no appended 1.

    Only spacings that close with a 1 inside the horizon are counted, so
    each count is biased low by O(m / horizon).
    """
    if len(bits) < 2 * m_max:
        raise HorizonTooSmallError(f"horizon {len(bits)} < 2*m_max = {2 * m_max}")
    gaps = np.diff(np.flatnonzero(bits))
    return tuple(np.bincount(gaps, minlength=m_max + 1)[1:m_max + 1].tolist())


def sample_permutation_crp(n: int, theta: EwensParameter, stream: np.random.Generator) -> Permutation:
    """Chinese restaurant construction of an Ewens(theta) permutation.

    Element i starts a new cycle with probability theta/(theta+i-1) and is
    otherwise inserted after a uniformly chosen earlier element.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    images = [0] * (n + 1)
    images[1] = 1
    for i in range(2, n + 1):
        if stream.random() < theta.theta / (theta.theta + i - 1):
            images[i] = i
        else:
            j = int(stream.integers(1, i))
            images[i] = images[j]
            images[j] = i
    return Permutation(n, tuple(images[1:]))


def esf_probability(ct: CycleType, theta: EwensParameter) -> float:
    """Ewens sampling formula for the probability of a cycle type.

    P(ct) = n! / (theta (theta+1) ... (theta+n-1)) * prod_m (theta/m)^c_m / c_m!
    """
    t = theta.theta
    n = ct.n
    log_p = gammaln(n + 1) + gammaln(t) - gammaln(t + n)
    for m, c in ct.nonzero():
        log_p += c * math.log(t / m) - gammaln(c + 1)
    return float(math.exp(log_p))


def exact_feller_distribution(n: int, theta: EwensParameter) -> dict[CycleType, float]:
    """Exact law of cycle_counts_from_chain by enumerating all 2^(n-1) chains."""
    if not 1 <= n <= 16:
        raise SizeLimitError(f"exact enumeration needs 1 <= n <= 16, got n = {n}")
    p = chain_probabilities(n, theta)
    dist: dict[CycleType, float] = {}
    for tail in itertools.product((0, 1), repeat=n - 1):
        bits = np.array((1,) + tail, dtype=bool)
        prob = 1.0
        for i in range(1, n):
            prob *= p[i] if bits[i] else (1.0 - p[i])
        ct = cycle_counts_from_chain(bits)
        dist[ct] = dist.get(ct, 0.0) + prob
    return dist


def psi_n(n: int, m, theta: EwensParameter):
    """Coupling-distance factor Psi_n(m), via log-gamma for real theta.

    Psi_n(m) = binom(n-m+theta-1, n-m) / binom(n+theta-1, n).  `m` is an
    int (float result) or an integer array (array result), entries in 1..n.
    """
    m = np.asarray(m)
    if np.any((m < 1) | (m > n)):
        raise ValueError("need 1 <= m <= n")
    t = theta.theta
    psi = np.exp(gammaln(n - m + t) - gammaln(n - m + 1) + gammaln(n + 1) - gammaln(n + t))
    return float(psi) if psi.ndim == 0 else psi


def feller_coupling_gap(n: int, theta: EwensParameter, m: int, num_samples: int,
                        stream: np.random.Generator) -> float:
    """Monte Carlo estimate of E|C_m - Y_m| using one chain for both counts.

    C_m reads the first n bits of the chain, Y_m all max(10 n, 2 m) of them.
    """
    if not (1 <= m <= n) or num_samples < 1:
        raise ValueError("need 1 <= m <= n and num_samples >= 1")
    p = chain_probabilities(max(10 * n, 2 * m), theta)
    total = 0
    for _ in range(num_samples):
        bits = sample_feller_chain(p, stream)
        lengths, mults = cycle_groups(bits[:n])
        c_m = int(mults[lengths == m].sum())
        total += abs(c_m - poisson_counts_from_chain(bits, m)[m - 1])
    return total / num_samples
