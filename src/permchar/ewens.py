"""Ewens-distributed cycle structures via the Feller coupling.

The Feller coupling builds the cycle counts of an Ewens(theta) permutation
from a single chain of independent Bernoulli bits.  A chain is read as the
positions of its ones: `FellerChain.ones` draws the first CHUNK bits densely
and the rest by thinning, one chain per stream, and every consumer reads a
block of chains through one reader, `cycle_groups` (each chain's cycle
lengths and multiplicities, from one sort for the block).  The dense chain,
`sample_feller_chain`, is FellerChain's first chunk and its test oracle.
The Chinese restaurant process provides a second, independent sampler
producing the explicit permutation the oracles need.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

    Cycles, cycle type, the matrices P and S = P + P^T and the spectrum of S
    are computed once, on first use.
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

    @cached_property
    def sym_spectrum(self) -> tuple[float, ...]:
        """Eigenvalues of the dense S, ascending, by np.linalg.eigvalsh."""
        return tuple(np.linalg.eigvalsh(self.sym_matrix).tolist())


def chain_probabilities(n: int, theta: EwensParameter) -> np.ndarray:
    """P(xi_i = 1) = theta / (theta + i - 1) for i = 1..n.

    p_1 is 1 exactly: (theta + 1) - 1 rounds to 0 for theta < 2^-53.
    """
    p = np.ones(n)
    np.divide(theta.theta, theta.theta + np.arange(2, n + 1, dtype=float) - 1.0, out=p[1:])
    return p


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


def cycle_groups(ones: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cycle lengths, multiplicities and row bounds of a block of chain draws.

    ones[r] holds the positions of the ones of chain r's xi_1..xi_n, as
    FellerChain.ones returns them.  A gap of length m between consecutive
    ones of the extended chain 1 xi_2 ... xi_n 1 contributes one cycle of
    length m; the appended 1 at position n supplies the boundary term, so
    the gap lengths of a row sum to n.  One sort of the keys r n + gap
    groups them: row by row, each row's distinct lengths ascending, with
    their counts; row r's are bounds[r]:bounds[r + 1].  The keys are int64,
    so they need len(ones) * n < 2^63 (clt: n <= 2^53 and at most mc._BLOCK rows; sample: one row).
    """
    sizes = [len(o) for o in ones]
    pos = np.concatenate(ones)
    ends = np.append(pos[1:], n)
    ends[np.cumsum(sizes) - 1] = n  # the last one of each row closes at n
    # row r's gaps lie in 1..n, so its keys lie in r n + 1..(r + 1) n
    keys, mults = np.unique(ends - pos + np.repeat(np.arange(len(ones)) * n, sizes), return_counts=True)
    row = (keys - 1) // n
    return keys - row * n, mults, np.searchsorted(row, np.arange(len(ones) + 1))


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


# Stirling's series lgamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2) =
# sum_k B_2k / (2k (2k - 1) x^(2k - 1)): below 3e-17 from seven terms at x >= 10
_STIRLING = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)


def _stirling_tail(x):
    y, s = x ** -2.0, 0.0
    for c in _STIRLING:
        s = s * y + c
    return s / x


def _log_rising_excess(a, d):
    """lgamma(a + d) - lgamma(a) - d log a, for a > 0 and a + d > 0.

    Floats give a float, arrays that broadcast an array.  A difference of two
    lgamma values carries the rounding of both (lgamma(1e12) has an ulp of
    0.0039), so where a and a + d are both at least 10 it is Stirling's series
    in numpy, (a + d - 1/2) log1p(d / a) - d + w(a + d) - w(a), w its tail:
    within about ten ulps of d.  Other entries take math.lgamma one at a time.
    """
    a, d = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(d, dtype=float))
    out, small = np.empty(a.shape), np.minimum(a, a + d) < 10
    out[small] = [math.lgamma(x + z) - math.lgamma(x) - z * math.log(x)
                  for x, z in zip(a[small].tolist(), d[small].tolist())]
    a, d = a[~small], d[~small]
    out[~small] = (a + d - 0.5) * np.log1p(d / a) - d + _stirling_tail(a + d) - _stirling_tail(a)
    return float(out) if out.ndim == 0 else out


def esf_probability(ct: CycleType, theta: EwensParameter) -> float:
    """Ewens sampling formula for the probability of a cycle type.

    P(ct) = n! / (theta (theta+1) ... (theta+n-1)) * prod_m (theta/m)^c_m / c_m!

    With K cycles, n! theta^K / (theta)_n is taken as
    Gamma(theta+1) theta^(K-1) n! / Gamma(n+theta) for theta < n, and as
    n! theta^(K-n) / ((theta)_n / theta^n) otherwise: no large log-gamma or
    power of theta is cancelled, whether theta is 1e-300 or 1e300.
    """
    t = theta.theta
    n, k = ct.n, ct.total_cycles
    if t < n:
        log_p = (math.lgamma(t + 1) + (k - 1) * math.log(t)
                 - (t - 1) * math.log(n + 1) - _log_rising_excess(n + 1, t - 1))
    else:
        log_p = math.lgamma(n + 1) + (k - n) * math.log(t) - _log_rising_excess(t, n)
    for m, c in ct.nonzero():
        log_p -= c * math.log(m) + math.lgamma(c + 1)
    return math.exp(log_p)


def exact_feller_distribution(n: int, theta: EwensParameter) -> dict[CycleType, float]:
    """Exact law of the chain's cycle type by enumerating all 2^(n-1) chains.

    A depth-first walk over bits 2..n, 0 before 1 (itertools.product order),
    carries the running product of the factors p_i or 1 - p_i, left to right,
    and the length of the open cycle.  Each cycle type sums its chains'
    probabilities in that order from 0.0, keyed in order of first appearance.
    """
    if not 1 <= n <= 16:
        raise SizeLimitError(f"exact enumeration needs 1 <= n <= 16, got n = {n}")
    p = chain_probabilities(n, theta).tolist()
    counts, law = [0] * n, {}
    def walk(i: int, prob: float, run: int) -> None:  # nested: a tracer sees one call, not 2^n
        if i == n:
            counts[run - 1] += 1
            key = tuple(counts)
            law[key] = law.get(key, 0.0) + prob
        else:
            walk(i + 1, prob * (1.0 - p[i]), run + 1)
            counts[run - 1] += 1
            walk(i + 1, prob * p[i], 1)
        counts[run - 1] -= 1

    walk(1, 1.0, 1)
    return {CycleType(n, key): prob for key, prob in law.items()}


def psi_n(n: int, m, theta: EwensParameter):
    """Coupling-distance factor Psi_n(m), via log-gamma for real theta.

    Psi_n(m) = binom(n-m+theta-1, n-m) / binom(n+theta-1, n).  `m` is an
    int (float result) or an integer array (array result), entries in 1..n.
    With b = n - m + 1 it is Gamma(b + u) Gamma(b + m) / (Gamma(b) Gamma(b + u + m)),
    u = theta - 1: symmetric in m and u, and taken with the smaller of the two as
    the step of two array calls of _log_rising_excess (m = 1..10^6: 0.1-0.2 s, one Xeon core).
    """
    m = np.asarray(m)
    if np.any((m < 1) | (m > n)):
        raise ValueError("need 1 <= m <= n")
    b = n - m + 1
    lo, hi = np.minimum(theta.theta - 1.0, m), np.maximum(theta.theta - 1.0, m)
    psi = np.exp(lo * np.log(b / (b + hi))
                 + _log_rising_excess(b, lo) - _log_rising_excess(b + hi, lo))
    return float(psi) if psi.ndim == 0 else psi
