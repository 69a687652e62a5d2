"""Limit constants of the CLTs via quadrature with singularity handling.

The mean, variance and covariance constants are integrals over the circle
of log|f|, arg f, their squares and their product.  Every f of the package
is zero, if at all, only at the angle 0, an endpoint of [0, 1], where log|f|
has an integrable log singularity.  So one double-exponential (tanh-sinh)
pass over [0, 1] integrates all five from one evaluation of the closed forms
f.log_abs and f.arg per level; a row that does not converge raises QuadratureError.
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
        return np.block([[self.re_re, self.re_im], [self.re_im.T, self.im_im]])

    def to_dict(self) -> dict:
        return {"d": self.d, "re_re": self.re_re.tolist(),
                "re_im": self.re_im.tolist(), "im_im": self.im_im.tolist()}


def _tanh_sinh_segment(u: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """Integrate u over (a, b) with the double-exponential transformation.

    u maps the N nodes to N values (a float result) or to k rows of them
    (k results).  Nodes stay strictly inside the interval, so an endpoint log
    singularity is never evaluated.  Raises QuadratureError unless two
    consecutive levels agree to _TARGET_TOL in every row, which a non-finite
    value never does.
    """
    half = 0.5 * (b - a)
    t_max = 4.0  # exp(pi/2*sinh(4)) ~ 1e18: node distance below double eps
    prev = None
    for level in range(3, _MAX_LEVEL + 1):
        h = t_max / 2 ** level
        t = np.arange(-2 ** level, 2 ** level + 1) * h
        s = np.sinh(t)
        w = 0.5 * math.pi * np.cosh(t) / np.cosh(0.5 * math.pi * s) ** 2
        # distance of node from the nearer endpoint, computed stably: at least 5.8e-38 (b - a)
        dist = half * 2.0 / (np.exp(math.pi * np.abs(s)) + 1.0)
        pts = np.clip(np.where(t >= 0, b - dist, a + dist), np.nextafter(a, b), np.nextafter(b, a))
        est = half * h * np.sum(u(pts) * w, axis=-1)
        if prev is not None and np.all(np.abs(est - prev) <= _TARGET_TOL * np.maximum(1.0, np.abs(est))):
            return float(est) if est.ndim == 0 else est
        prev = est
    raise QuadratureError(f"tanh-sinh did not converge on ({a}, {b})")


def singular_quadrature(u: Callable[[np.ndarray], np.ndarray],
                        singular_angles: tuple[float, ...] = (),
                        interval: tuple[float, float] = (0.0, 1.0)):
    """Integral of u over the interval, split at its declared singular angles (k values for k rows)."""
    a, b = interval
    cuts = sorted({a, b} | {s for s in singular_angles if a < s < b})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += _tanh_sinh_segment(u, lo, hi)
    return total


def _moments(f: SpectralFunction) -> np.ndarray:
    """Integrals over the circle of log|f|, arg f, log^2|f|, arg^2 f and
    log|f| arg f, in one pass that evaluates f once per level."""
    def rows(p):
        log_abs, arg = f.log_abs(p), f.arg(p)
        return np.array([log_abs, arg, log_abs ** 2, arg ** 2, log_abs * arg])
    return singular_quadrature(rows)


def limit_constants(f: SpectralFunction) -> LimitConstants:
    """All four one-point constants from one quadrature pass.

    m_R + i m_I = integral of log f over the circle (principal branch
    termwise); V_R integrates log^2|f|, V_I integrates arg^2(f).
    """
    m_R, m_I, V_R, V_I, _ = _moments(f).tolist()
    return LimitConstants(m_R=m_R, m_I=m_I, V_R=V_R, V_I=V_I)


def covariance_matrix(fs: list[SpectralFunction], theta: float) -> CovarianceSpec:
    """Limiting covariance blocks for d points, scaled by theta: off the
    diagonal, products of one-point means; on it, the one-point second
    moments, all from one quadrature pass per function."""
    m_R, m_I, V_R, V_I, cross = np.array([_moments(f) for f in fs]).T
    re_re = theta * np.outer(m_R, m_R)
    re_im = theta * np.outer(m_R, m_I)
    im_im = theta * np.outer(m_I, m_I)
    for block, diag in ((re_re, V_R), (re_im, cross), (im_im, V_I)):
        np.fill_diagonal(block, theta * diag)
    return CovarianceSpec(d=len(fs), re_re=re_re, re_im=re_im, im_im=im_im)


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
