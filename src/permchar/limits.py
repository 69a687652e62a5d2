"""Limit constants of the CLTs via quadrature with singularity handling.

The variance and mean constants are integrals of log|f| and arg(f) over
the circle.  log|f| has integrable logarithmic singularities at the zeros
of f, so each subinterval between declared singular angles is integrated
with a double-exponential (tanh-sinh) rule, which keeps full accuracy at
singular endpoints.  The integrands are the closed forms f.log_abs and
f.arg; a segment that does not converge raises QuadratureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classfuncs import SpectralFunction


class QuadratureError(ArithmeticError):
    """Tanh-sinh refinement did not reach the target tolerance."""


_TARGET_TOL = 1e-10  # relative level-to-level change that ends a refinement
_MAX_LEVEL = 12      # finest tanh-sinh level: 2^13 + 1 nodes per segment


@dataclass(frozen=True)
class LimitConstants:
    m_R: float
    m_I: float
    V_R: float
    V_I: float

    def to_dict(self) -> dict:
        return {"m_R": self.m_R, "m_I": self.m_I, "V_R": self.V_R, "V_I": self.V_I}


@dataclass(frozen=True)
class CovarianceSpec:
    """Blocks of the 2d x 2d limiting covariance, scaled by theta.

    re_re[j][l] = cov(Re N_j, Re N_l), and similarly re_im and im_im.
    """

    d: int
    re_re: np.ndarray
    re_im: np.ndarray
    im_im: np.ndarray

    def full_matrix(self) -> np.ndarray:
        """Symmetric 2d x 2d matrix ordered (Re_1..Re_d, Im_1..Im_d)."""
        top = np.hstack([self.re_re, self.re_im])
        bot = np.hstack([self.re_im.T, self.im_im])
        return np.vstack([top, bot])

    def to_dict(self) -> dict:
        return {"d": self.d, "re_re": self.re_re.tolist(),
                "re_im": self.re_im.tolist(), "im_im": self.im_im.tolist()}


def _tanh_sinh_segment(u: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Integrate u over (a, b) with the double-exponential transformation.

    Nodes are kept strictly inside the interval by tracking their distance
    to the endpoints, so endpoint log singularities are never evaluated
    at the singular point itself.  Raises QuadratureError unless two
    consecutive levels agree to _TARGET_TOL, which a non-finite value never does.
    """
    half = 0.5 * (b - a)
    t_max = 4.0  # exp(pi/2*sinh(4)) ~ 1e18: node distance below double eps
    prev = None
    for level in range(3, _MAX_LEVEL + 1):
        h = t_max / 2 ** level
        t = np.arange(-2 ** level, 2 ** level + 1) * h
        s = np.sinh(t)
        x = np.tanh(0.5 * math.pi * s)
        w = 0.5 * math.pi * np.cosh(t) / np.cosh(0.5 * math.pi * s) ** 2
        # distance of node from the nearer endpoint, computed stably
        dist = half * 2.0 / (np.exp(math.pi * np.abs(s)) + 1.0)
        keep = dist > 0.0
        pts = np.where(x >= 0, b - dist, a + dist)
        pts = np.clip(pts, np.nextafter(a, b), np.nextafter(b, a))
        est = half * h * float(np.sum(u(pts[keep]) * w[keep]))
        if prev is not None and abs(est - prev) <= _TARGET_TOL * max(1.0, abs(est)):
            return est
        prev = est
    raise QuadratureError(f"tanh-sinh did not converge on ({a}, {b})")


def singular_quadrature(u: Callable[[np.ndarray], np.ndarray],
                        singular_angles: tuple[float, ...] = (),
                        interval: tuple[float, float] = (0.0, 1.0)) -> float:
    """Integral of u over the interval, split at its declared singular angles."""
    a, b = interval
    cuts = sorted({a, b} | {s for s in singular_angles if a < s < b})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += _tanh_sinh_segment(u, lo, hi)
    return total


def limit_constants(f: SpectralFunction) -> LimitConstants:
    """All four one-point constants by singular quadrature.

    m_R + i m_I = integral of log f over the circle (principal branch
    termwise); V_R integrates log^2|f|, V_I integrates arg^2(f).  Each is cut
    at the zeros of f only: away from them the log_abs and arg of every
    function of spectral_function_by_label are smooth.
    """
    zeros = f.zero_angles
    m_R = singular_quadrature(f.log_abs, zeros)
    m_I = singular_quadrature(f.arg, zeros)
    V_R = singular_quadrature(lambda p: f.log_abs(p) ** 2, zeros)
    V_I = singular_quadrature(lambda p: f.arg(p) ** 2, zeros)
    return LimitConstants(m_R=m_R, m_I=m_I, V_R=V_R, V_I=V_I)


def covariance_matrix(fs: list[SpectralFunction], theta: float) -> CovarianceSpec:
    """Limiting covariance blocks for d points, scaled by theta.

    Off-diagonal double integrals separate into products of one-point
    integrals; diagonal entries are the one-point variance constants.
    """
    d = len(fs)
    consts = [limit_constants(f) for f in fs]
    mr = np.array([c.m_R for c in consts])
    mi = np.array([c.m_I for c in consts])
    re_re = theta * np.outer(mr, mr)
    re_im = theta * np.outer(mr, mi)
    im_im = theta * np.outer(mi, mi)
    for j in range(d):
        re_re[j, j] = theta * consts[j].V_R
        im_im[j, j] = theta * consts[j].V_I
        cross = singular_quadrature(lambda p, f=fs[j]: f.log_abs(p) * f.arg(p), fs[j].zero_angles)
        re_im[j, j] = theta * cross
    return CovarianceSpec(d=d, re_re=re_re, re_im=re_im, im_im=im_im)


def normalization(n: int, theta: float, V: float) -> float:
    """Scale factor sqrt(theta * V * log n) for a variance constant V (V_R or V_I)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return math.sqrt(theta * V * math.log(n))


def centering(n: int, theta: float, constants: LimitConstants) -> complex:
    """theta * (m_R + i m_I) * log n, the pre-normalization centering."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return theta * complex(constants.m_R, constants.m_I) * math.log(n)
