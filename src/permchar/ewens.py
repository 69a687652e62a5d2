"""Ewens-distributed cycle structures via the Feller coupling.

The Feller coupling builds the cycle counts of an Ewens(theta) permutation
from a single chain of independent Bernoulli bits.  A chain is read as the
positions of its ones: `FellerChain.ones` draws the first CHUNK bits densely
and the rest by thinning, and every consumer reads them through one reader,
`cycle_groups` (the cycle lengths).  The dense chain, `sample_feller_chain`,
is FellerChain's first chunk and its test oracle.
The Chinese restaurant process provides a second, independent sampler
producing the explicit permutation the oracles need.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_lgamma = np.vectorize(math.lgamma, otypes=[float])

# Chains up to CHUNK, and samples reading up to CHUNK uniforms for their
# uniform T_m (multipliers), keep the stream the acceptance checks were
# pinned on; past it a draw reads O(cycles) variates.
CHUNK = 1 << 16


class InvalidCycleTypeError(ValueError):
    """Cycle counts do not satisfy sum(m * c_m) == n."""


class SizeLimitError(ValueError):
    """Exact enumeration requested beyond the supported size."""


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
        if min(self.counts, default=0) < 0:
            raise InvalidCycleTypeError("negative cycle count")
        if sum(map(operator.mul, range(1, len(self.counts) + 1), self.counts)) != self.n:
            raise InvalidCycleTypeError("weights sum(m*c_m) != n")

    @cached_property
    def total_cycles(self) -> int:
        return sum(self.counts)

    def nonzero(self) -> tuple[tuple[int, int], ...]:
        """Pairs (m, c_m) with c_m > 0."""
        return tuple((m + 1, c) for m, c in enumerate(self.counts) if c > 0)


@dataclass(frozen=True)
class Permutation:
    """One-line notation: images[j] = sigma(j+1), values in 1..n.

    Cycles, cycle type and the matrices P and S = P + P^T are computed once,
    on first use.
    """

    n: int
    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, self.n + 1)):
            raise ValueError("images must be a bijection of 1..n")

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
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
            out.append(tuple(cyc))
        return tuple(out)

    @cached_property
    def cycle_type(self) -> CycleType:
        counts = [0] * self.n
        for cyc in self.cycles:
            counts[len(cyc) - 1] += 1
        return CycleType(self.n, tuple(counts))

    @cached_property
    def matrix(self) -> np.ndarray:
        """P_ij = delta_{i, sigma(j)} as a read-only float array."""
        P = np.zeros((self.n, self.n))
        P[np.asarray(self.images, dtype=int) - 1, np.arange(self.n)] = 1.0
        P.flags.writeable = False
        return P

    @cached_property
    def sym_matrix(self) -> np.ndarray:
        """S = P + P^T, S_ij = delta_{i, sigma(j)} + delta_{i, sigma^{-1}(j)}, read-only."""
        S = self.matrix + self.matrix.T
        S.flags.writeable = False
        return S


def chain_probabilities(n: int, theta: EwensParameter) -> np.ndarray:
    """P(xi_i = 1) = theta / (theta + i - 1) for i = 1..n."""
    i = np.arange(1, n + 1, dtype=float)
    return theta.theta / (theta.theta + i - 1.0)


def sample_feller_chain(p: np.ndarray, stream: np.random.Generator) -> np.ndarray:
    """Draw the bits xi_1..xi_n of the Feller chain, with xi_1 = 1.

    `p` is chain_probabilities(n, theta).  This dense draw is FellerChain's
    first chunk and, up to n = CHUNK, its test oracle.
    """
    bits = stream.random(len(p)) < p
    bits[0] = True
    return bits


class FellerChain:
    """The Feller chain of length n, drawn in O(CHUNK + cycles) memory.

    The first CHUNK positions are compared with their probabilities as in
    sample_feller_chain(chain_probabilities(n, theta), stream): a chain of
    n <= CHUNK is the dense chain, bit for bit, and reads the same uniforms.
    Past CHUNK the chain is drawn by thinning over doubling chunks
    s+1..s+L, L = min(s, n - s).  p_i does not increase with i, so each
    chunk's ones are the Bernoulli(q) candidates, q = p_{s+1}, kept with
    probability p_i / q: a Binomial(L, q) count of candidates at distinct
    uniform offsets, each kept when its own uniform times q is below p_i.
    That is the chain's law, at O(log(n / CHUNK)) numpy calls a draw.  An
    instance holds no state that a draw changes, so threads may share it.
    """

    def __init__(self, n: int, theta: EwensParameter):
        self.n = n
        self._theta = theta.theta
        self._p_head = chain_probabilities(min(n, CHUNK), theta)

    def ones(self, stream: np.random.Generator) -> np.ndarray:
        """Positions (0-based, ascending) of the ones of one chain draw."""
        parts = [np.flatnonzero(sample_feller_chain(self._p_head, stream))]
        t, s = self._theta, CHUNK
        while s < self.n:
            L = min(s, self.n - s)
            q = t / (t + s)
            # the sort discards the order of the offsets, so they are not shuffled
            cand = np.sort(stream.choice(L, stream.binomial(L, q), replace=False, shuffle=False))
            parts.append(cand[stream.random(len(cand)) * q < t / (t + (cand + s).astype(float))] + s)
            s += L
        return np.concatenate(parts)


def cycle_groups(ones: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cycle lengths and multiplicities: the m-spacings of 1 xi_2 ... xi_n 1.

    `ones` holds the positions of the ones of xi_1..xi_n, as FellerChain.ones
    returns them.  A gap of length m between consecutive ones of the
    extended chain contributes one cycle of length m; the appended 1 at
    position n supplies the boundary term, so the gap lengths sum to n.
    """
    return np.unique(np.diff(np.append(ones, n)), return_counts=True)


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
    log_p = math.lgamma(n + 1) + math.lgamma(t) - math.lgamma(t + n)
    for m, c in ct.nonzero():
        log_p += c * math.log(t / m) - math.lgamma(c + 1)
    return math.exp(log_p)


def _cycle_count_rows(bits: np.ndarray) -> np.ndarray:
    """Row r of the result is the counts c_1..c_n that `cycle_groups` reads
    from the ones of the chain bits[r]; `bits` has shape (N, n) with bits[:, 0] set."""
    N, n = bits.shape
    rows, starts = np.nonzero(bits)
    # a cycle runs from each 1 to the next 1 of its row, or to the end n
    ends = np.append(starts[1:], n)
    ends[np.append(rows[1:] != rows[:-1], True)] = n
    return np.bincount(rows * n + (ends - starts - 1), minlength=N * n).reshape(N, n)


def exact_feller_distribution(n: int, theta: EwensParameter) -> dict[CycleType, float]:
    """Exact law of the chain's cycle type by enumerating all 2^(n-1) chains.

    The chains are the rows of one array in itertools.product order; each
    cycle type sums its rows' probabilities in that order and is keyed in
    order of first appearance.
    """
    if not 1 <= n <= 16:
        raise SizeLimitError(f"exact enumeration needs 1 <= n <= 16, got n = {n}")
    p = chain_probabilities(n, theta)
    tails = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 2, -1, -1)) & 1
    bits = np.concatenate([np.ones((len(tails), 1), dtype=bool), tails.astype(bool)], axis=1)
    prob = np.ones(len(bits))
    for i in range(1, n):
        prob *= np.where(bits[:, i], p[i], 1.0 - p[i])
    rows = _cycle_count_rows(bits)
    # c_m <= n // m, so the counts are the digits of one integer in the
    # mixed radix (n // m + 1)_m: below 1.3e8 at n = 16
    radix = np.cumprod([1] + [n // m + 1 for m in range(1, n)])
    _, first, which = np.unique(rows @ radix, return_index=True, return_inverse=True)
    total = np.zeros(len(first))
    np.add.at(total, which, prob)
    types = rows[first]
    return {CycleType(n, tuple(types[k].tolist())): total[k].item() for k in np.argsort(first)}


def psi_n(n: int, m, theta: EwensParameter):
    """Coupling-distance factor Psi_n(m), via log-gamma for real theta.

    Psi_n(m) = binom(n-m+theta-1, n-m) / binom(n+theta-1, n).  `m` is an
    int (float result) or an integer array (array result), entries in 1..n.
    """
    m = np.asarray(m)
    if np.any((m < 1) | (m > n)):
        raise ValueError("need 1 <= m <= n")
    t = theta.theta
    psi = np.exp(_lgamma(n - m + t) - _lgamma(n - m + 1) + math.lgamma(n + 1) - math.lgamma(n + t))
    return float(psi) if psi.ndim == 0 else psi

