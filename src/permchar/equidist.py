"""Kronecker sequences, star discrepancy, and Koksma-Hlawka error bounds.

Exact star discrepancy is available in dimensions 1 and 2; the
Erdos-Turan-Koksma lemma gives an upper bound for Kronecker sequences and
finite-type Diophantine certificates control how fast it decays.  The
extended Koksma-Hlawka bound (d = 1) works on the shrunken interval
[delta, 1-delta] so that logarithmically singular integrands become
admissible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class DimensionUnsupportedError(ValueError):
    """Exact discrepancy implemented for d in {1, 2} only."""


class ResonantFrequencyError(ValueError):
    """Some ||q . phi|| vanished: rational dependence detected."""


class SingularPointHitError(ValueError):
    """A sequence point coincides with a declared singular angle."""


class PointOutsideBoxError(ValueError):
    """A sequence point lies outside [delta, 1-delta]."""


class NonConvergenceError(ArithmeticError):
    """Adaptive refinement failed to converge within the cap."""


_EXACT_LIMIT_1D = 100_000
_EXACT_LIMIT_2D = 4000
# etk_bound sums (2H+1)^d - 1 lattice points q, 2H + 1 at a time: a limit on time, not memory
_ETK_LIMIT = 10_000_000
# total_variation refines its grid until the estimate moves by less than
# _VARIATION_TOL, from 1024 up to _VARIATION_MAX_POINTS intervals
_VARIATION_TOL = 1e-6
_VARIATION_MAX_POINTS = 2 ** 22


@dataclass(frozen=True)
class PointSequence:
    d: int
    points: np.ndarray  # shape (n, d), coordinates in [0, 1)

    def __post_init__(self):
        pts = self.points
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise ValueError("points must have shape (n, d)")
        if pts.size and (pts.min() < 0.0 or pts.max() >= 1.0):
            raise ValueError("coordinates must lie in [0, 1)")

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class FiniteTypeCertificate:
    """Diophantine lower bound ||q . phi|| >= K / ||q||_inf^gamma, verified
    over the searched range 0 < ||q||_inf <= H_searched."""

    K: float
    gamma: float
    H_searched: int
    preset: bool


# Quadratic irrationals have exponent 1; the pair (sqrt2, sqrt3) shows
# record minima decaying like H^-2, so its certificate carries gamma = 2.
# K values frozen below the empirical minima over the searched ranges.
PRESETS: dict[tuple[float, ...], FiniteTypeCertificate] = {
    (math.sqrt(2.0) % 1.0,): FiniteTypeCertificate(K=0.30, gamma=1.0, H_searched=10**6, preset=True),
    (math.sqrt(3.0) % 1.0,): FiniteTypeCertificate(K=0.25, gamma=1.0, H_searched=10**6, preset=True),
    ((math.sqrt(5.0) - 1.0) / 2.0,): FiniteTypeCertificate(K=0.35, gamma=1.0, H_searched=10**6, preset=True),
    (math.sqrt(2.0) % 1.0, math.sqrt(3.0) % 1.0): FiniteTypeCertificate(
        K=0.005, gamma=2.0, H_searched=3000, preset=True),
}


def preset_certificate(phis: tuple[float, ...]) -> FiniteTypeCertificate | None:
    for key, cert in PRESETS.items():
        if len(key) == len(phis) and all(abs(a - b) < 1e-12 for a, b in zip(key, phis)):
            return cert
    return None


def fractional_products(points: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """{L x} in [0, 1) for points x (rows) and integer lengths L <= 2^53 (columns), to a few ulps of 1: Veltkamp
    halves of x mod 1 and of L (c = 134217729 a) give four exact products, each reduced mod 1 alone."""
    x, L = np.fmod(points, 1.0)[:, None], lengths.astype(float)
    cx, cL = 134217729.0 * x, 134217729.0 * L
    x_hi, L_hi = cx - (cx - x), cL - (cL - L)
    parts = (x_hi * L_hi, x_hi * (L - L_hi), (x - x_hi) * L_hi, (x - x_hi) * (L - L_hi))
    frac = sum(part - np.floor(part) for part in parts)
    return frac - np.floor(frac)


def kronecker(phis: float | tuple[float, ...], n: int) -> PointSequence:
    """Kronecker sequence: the m-th point has coordinates {m phi_j}, m = 1..n, from
    fractional_products, the routine classfuncs.log_sums reads: to a few ulps of 1 at every n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    phi = np.atleast_1d(np.asarray(phis, dtype=float))
    return PointSequence(d=phi.size, points=fractional_products(phi, np.arange(1, n + 1)).T)


def nearest_integer_distance(a):
    """||a|| = distance from a to the nearest integer, in [0, 1/2]."""
    frac = np.mod(np.asarray(a, dtype=float), 1.0)
    out = np.minimum(frac, 1.0 - frac)
    return float(out) if out.ndim == 0 else out


def star_discrepancy_1d(xs: np.ndarray) -> float:
    """Exact star discrepancy of the points xs in [0, 1], in any order: the
    sup distance between their empirical CDF and the uniform one."""
    n = len(xs)
    s = np.sort(xs)
    i = np.arange(1, n + 1)
    return float(max((i / n - s).max(), (s - (i - 1) / n).max()))


def _star_discrepancy_2d(points: np.ndarray) -> float:
    """Exact sup over anchored boxes via corner-candidate enumeration.

    The corner x-coordinate a sweeps the distinct point x-coordinates, then
    1; the y-coordinates of the points left of a stay one sorted array.
    """
    n = len(points)
    order = np.argsort(points[:, 0], kind="stable")
    xs = points[order, 0]
    ys = points[order, 1]
    x_candidates = np.append(np.unique(xs), 1.0)
    ends = np.searchsorted(xs, x_candidates, side="right")
    # With Y sorted, i stands in for the count of prefix points below Y[i]
    # and i + 1 for those at or below it.  Within a run of equal values both
    # err on the side that lowers the deviation, and both are exact at the
    # run's end that attains its maximum, so neither maximum moves.
    ranks = np.arange(n + 1) / n
    best = 0.0
    Y = ys[:0]
    for a, k in zip(x_candidates, ends.tolist()):
        # Under-deviation: boxes approached from below each candidate
        # corner, counting points strictly inside.
        ks = len(Y)
        if ks:
            best = max(best, float((a * Y - ranks[:ks]).max()))
        best = max(best, a - ks / n)
        # Over-deviation: closed boxes anchored at (a, b) with b a point
        # y-coordinate (or 1).
        new = np.sort(ys[ks:k])
        Y = np.insert(Y, np.searchsorted(Y, new), new)
        if k:
            best = max(best, float((ranks[1:k + 1] - a * Y).max()))
        best = max(best, k / n - a)
    return best


def require_exact_size(d: int, n: int) -> None:
    """Refuse an exact discrepancy of n points in dimension d that
    star_discrepancy_exact does not compute, before the points are made."""
    if d not in (1, 2):
        raise DimensionUnsupportedError("exact discrepancy supports d in {1, 2}")
    limit = _EXACT_LIMIT_1D if d == 1 else _EXACT_LIMIT_2D
    if n > limit:
        raise ValueError(f"{d}D exact discrepancy limited to n <= {limit}")


def star_discrepancy_exact(seq: PointSequence) -> float:
    """Exact star discrepancy D_n^* for d = 1 or 2."""
    require_exact_size(seq.d, seq.n)
    if seq.d == 1:
        return star_discrepancy_1d(seq.points[:, 0])
    return _star_discrepancy_2d(seq.points)


def star_discrepancy_grid_oracle(seq: PointSequence, grid_resolution: int) -> float:
    """Brute-force lower bound: sup over a grid of anchored boxes.

    Both closed and just-below-the-grid counts are scanned, so the value
    converges to D_n^* from below as the grid refines.
    """
    n = seq.n
    grid = np.arange(1, grid_resolution + 1) / grid_resolution
    best = 0.0
    if seq.d == 1:
        xs = np.sort(seq.points[:, 0])
        closed = np.searchsorted(xs, grid, side="right")
        open_ = np.searchsorted(xs, grid, side="left")
        best = float(np.maximum(np.abs(closed / n - grid), np.abs(open_ / n - grid)).max())
    elif seq.d == 2:
        for a in grid:
            inx_c = seq.points[:, 0] <= a
            inx_o = seq.points[:, 0] < a
            for b in grid:
                vol = a * b
                cc = np.count_nonzero(inx_c & (seq.points[:, 1] <= b))
                co = np.count_nonzero(inx_o & (seq.points[:, 1] < b))
                best = max(best, abs(cc / n - vol), abs(co / n - vol))
    else:
        raise DimensionUnsupportedError("grid oracle supports d in {1, 2}")
    return best


def _lattice_slabs(phi: np.ndarray, H: int):
    """(q, ||q.phi||) for the q in Z^d, d in {1, 2}, with 0 < ||q||_inf <= H:
    one slab q_1 = const at a time in d = 2, so the lattice is never held whole."""
    d = phi.size
    if d not in (1, 2):  # checked on the call, before any slab is made
        raise DimensionUnsupportedError("lattice search supports d in {1, 2}")

    def slabs():
        a = np.arange(-H, H + 1)
        for q1 in a.tolist() if d == 2 else [0]:
            q2 = a if q1 else a[a != 0]
            q = np.column_stack([np.full((q2.size, d - 1), q1), q2])
            yield q, nearest_integer_distance(q @ phi)
    return slabs()


def _shell_minima(phi: np.ndarray, H: int) -> np.ndarray:
    """min ||q.phi|| over each shell ||q||_inf = h, h = 1..H.  A bound K / h^gamma
    holds on a whole shell exactly when it holds at its minimum, and
    min(dist) * h^gamma is min(dist * h^gamma): rounding keeps the order."""
    shell_min = np.full(max(H, 0), np.inf)
    for q, dist in _lattice_slabs(phi, H):
        np.minimum.at(shell_min, np.abs(q).max(axis=1) - 1, dist)
    return shell_min


def etk_bound(phis: float | tuple[float, ...], n: int, H: int) -> float:
    """Erdos-Turan-Koksma upper bound for the Kronecker sequence of phi.

    3^d * (2/(H+1) + (1/n) * sum_{0 < ||q||_inf <= H} 1/(r(q) ||q.phi||))
    with r(q) = prod max(1, |q_i|).
    """
    if H < 1:
        raise ValueError("H must be >= 1")
    phi = np.atleast_1d(np.asarray(phis, dtype=float))
    d = phi.size
    slabs = _lattice_slabs(phi, H)  # refuses d not in {1, 2} before the size check
    if (2 * H + 1) ** d - 1 > _ETK_LIMIT:
        raise ValueError(f"ETK bound limited to {_ETK_LIMIT} lattice points; "
                         f"H = {H} in d = {d} gives {(2 * H + 1) ** d - 1}")

    def terms():
        for q, dist in slabs:
            if np.any(dist < 1e-13):
                raise ResonantFrequencyError("||q.phi|| = 0 for some q: rational dependence")
            r = np.prod(np.maximum(1, np.abs(q)), axis=1)
            yield (1.0 / (r * dist)).tolist()

    # fsum rounds the exact sum once, so the slabs' grouping cannot change it
    return float(3.0 ** d * (2.0 / (H + 1) + math.fsum(itertools.chain.from_iterable(terms())) / n))


def finite_type_estimate(phis: float | tuple[float, ...], H_max: int) -> FiniteTypeCertificate:
    """Empirical finite-type certificate from exhaustive search up to H_max.

    Record minima of ||q.phi|| against ||q||_inf are fitted by log-log
    regression to estimate gamma; K is the exhaustive minimum of
    ||q.phi|| * ||q||_inf^gamma.  Known quadratic-irrational angles come
    from the preset table instead.
    """
    if H_max < 2:
        raise ValueError("H_max must be >= 2")
    phi = np.atleast_1d(np.asarray(phis, dtype=float))
    cert = preset_certificate(tuple(phi.tolist()))
    if cert is not None:
        return cert
    shell_min = _shell_minima(phi, H_max)
    if shell_min.min() < 1e-13:
        return FiniteTypeCertificate(K=0.0, gamma=1.0, H_searched=H_max, preset=False)
    hs = np.arange(1, H_max + 1, dtype=float)
    records = shell_min <= np.minimum.accumulate(shell_min)
    gamma = 1.0
    if records.sum() >= 2:
        slope, _ = np.polyfit(np.log(hs[records]), np.log(shell_min[records]), 1)
        gamma = max(1.0, -float(slope))
    K = float((shell_min * hs ** gamma).min())
    return FiniteTypeCertificate(K=K, gamma=gamma, H_searched=H_max, preset=False)


def certificate_holds(cert: FiniteTypeCertificate, phis: float | tuple[float, ...],
                      H: int) -> bool:
    """Check the certificate inequality for every q with ||q||_inf <= H."""
    phi = np.atleast_1d(np.asarray(phis, dtype=float))
    shell_min = _shell_minima(phi, min(H, cert.H_searched))
    hs = np.arange(1, len(shell_min) + 1, dtype=float)
    return bool(np.all(shell_min >= cert.K / hs ** cert.gamma - 1e-14))


def weighted_sum(h: Callable[[np.ndarray], np.ndarray], seq: PointSequence,
                 singular_angles: tuple[float, ...] = ()) -> float:
    """(1/n) sum of h over the sequence points (d = 1).

    Raises if any point coincides with a declared singular angle of h.
    """
    if seq.d != 1:
        raise DimensionUnsupportedError("weighted_sum supports d = 1")
    pts = seq.points[:, 0]
    for s in singular_angles:
        if np.any(np.abs(pts - s) < 1e-15):
            raise SingularPointHitError(f"sequence point hits singular angle {s}")
    return float(math.fsum(np.asarray(h(pts), dtype=float).tolist()) / seq.n)


def total_variation(h: Callable[[np.ndarray], np.ndarray], interval: tuple[float, float]) -> float:
    """Total variation on [a, b] by refining grid sums of |h(t_{i+1}) - h(t_i)|.

    Exact on each monotone piece once the grid separates the pieces, so
    the estimates increase to the true variation for piecewise monotone h.
    """
    a, b = interval
    if not b > a:
        raise ValueError("empty interval")
    m = 1024
    prev = -math.inf
    while m <= _VARIATION_MAX_POINTS:
        t = np.linspace(a, b, m + 1)
        v = float(np.abs(np.diff(h(t))).sum())
        if v - prev < _VARIATION_TOL:
            return v
        prev = v
        m *= 2
    raise NonConvergenceError("total variation did not stabilize within the refinement cap")


def kh_error_bound(h: Callable[[np.ndarray], np.ndarray], seq: PointSequence,
                   delta: float) -> float:
    """Extended Koksma-Hlawka bound on [delta, 1-delta], d = 1:

    delta * (|h(delta)| + |h(1-delta)|) + D_n^* * V(h | [delta, 1-delta]).
    """
    if seq.d != 1:
        raise DimensionUnsupportedError("kh_error_bound supports d = 1")
    if not 0.0 <= delta < 0.5:
        raise ValueError("delta must lie in [0, 0.5)")
    lo, hi = delta, 1.0 - delta
    if seq.points.min() < lo or seq.points.max() > hi:
        raise PointOutsideBoxError("sequence points must lie inside [delta, 1-delta]")
    V = total_variation(h, (lo, hi))
    D = star_discrepancy_exact(seq)
    edge = abs(float(h(np.array([lo]))[0])) + abs(float(h(np.array([hi]))[0]))
    return delta * edge + D * V
