"""Log characteristic polynomial and multiplicative class functions.

Values are branch-log sums: each term takes the principal branch
(imaginary part in (-pi, pi], negative reals mapped to +pi) and the
imaginary parts are accumulated termwise, never re-wrapped, so the total
can leave (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .equidist import fractional_products
from .ewens import Permutation

_DET_SIZE_LIMIT = 12


@dataclass(frozen=True)
class SpectralFunction:
    """f on the unit circle as log|f(e(phi))| and the principal arg f(e(phi)),
    phi in [0, 1), e(phi) = e^{2 pi i phi}, in closed forms accurate up to the
    zeros of f, where log_abs is -inf; every f here is zero only at phi = 0, if at all."""

    log_abs: Callable[[np.ndarray], np.ndarray]
    arg: Callable[[np.ndarray], np.ndarray]
    label: str


def _log_2sin(phi: np.ndarray) -> np.ndarray:
    """log(2 sin(pi phi)) = log|1 - e(phi)|, -inf at phi = 0."""
    with np.errstate(divide="ignore"):
        return np.log(2.0 * np.sin(np.pi * np.minimum(phi, 1.0 - phi)))


def char_poly() -> SpectralFunction:
    """f(w) = 1 - 1/w, the characteristic-polynomial factor, zero at angle 0:
    1 - e(-phi) = 2 sin(pi phi) e^{i pi (1/2 - phi)}."""
    return SpectralFunction(log_abs=_log_2sin, arg=lambda phi: np.pi * (0.5 - phi), label="charpoly")


def sym_part() -> SpectralFunction:
    """f(w) = 2 - w - 1/w, so f(e(phi)) = 2 - 2 cos(2 pi phi) = (2 sin(pi phi))^2.

    Per-cycle factor of the symmetric-part characteristic polynomial:
    at w = y^m this equals 2 - 2 cos(m * alpha).
    """
    return SpectralFunction(log_abs=lambda phi: 2.0 * _log_2sin(phi),
                            arg=lambda phi: np.zeros(np.shape(phi)), label="sympart")


def antisym_part() -> SpectralFunction:
    """f(w) = 2 - w + 1/w, so f(e(phi)) = 2 - 2i sin(2 pi phi); at w = y^m
    with y on the circle: 2 - 2i sin(m alpha)."""
    sin = lambda phi: np.sin(2.0 * np.pi * phi)
    return SpectralFunction(log_abs=lambda phi: math.log(2.0) + 0.5 * np.log1p(sin(phi) ** 2),
                            arg=lambda phi: -np.arctan(sin(phi)), label="antisympart")


def constant(c: float) -> SpectralFunction:
    """f = c; a negative c has arg +pi."""
    log_abs, arg = math.log(abs(c)), math.pi if c < 0 else 0.0
    return SpectralFunction(log_abs=lambda phi: np.full(np.shape(phi), log_abs),
                            arg=lambda phi: np.full(np.shape(phi), arg), label=f"const({c})")


def spectral_function_by_label(label: str) -> SpectralFunction:
    table = {"charpoly": char_poly, "sympart": sym_part, "antisympart": antisym_part}
    if label.startswith("const:"):
        c = float(label.split(":", 1)[1])
        # log 0 and log of inf/nan have no finite limit constants
        if not math.isfinite(c) or c == 0:
            raise ValueError(f"{label!r}: the constant must be finite and nonzero")
        return constant(c)
    if label not in table:
        raise ValueError(f"unknown spectral function {label!r}")
    return table[label]()


def log_sums(fs: list[SpectralFunction], points, lengths, angles,
             starts=(0,)) -> tuple[np.ndarray, np.ndarray]:
    """Branch-log sums of d class-function coordinates over the cycles of samples.

    The cycles of sample s are lengths[starts[s]:starts[s + 1]] (the last
    sample runs to the end); every sample has at least one cycle.  Its
    coordinate j is sum_k log f_j(e^{2 pi i (angles[k] + lengths[k] x_j)}),
    returned as row s = (re_1..re_d, im_1..im_d).  `angles` holds one
    multiplier angle per cycle, shape (K,) like `lengths`: every point reads
    the same draw (one matrix).  log Z is the case f = char_poly() with the
    product angles negated (T -> T^{-1}).  Also returns which samples hit a
    zero of some f_j, where log_abs is -inf (a probability-zero event); their
    rows are meaningless.
    """
    points = np.asarray(points, dtype=float)
    angles = np.asarray(angles, dtype=float)
    lengths = np.asarray(lengths)
    if len(fs) != len(points):
        raise ValueError("points and functions must agree on d")
    if angles.ndim != 1 or angles.shape != lengths.shape:
        raise ValueError(f"angles must have the shape {lengths.shape} of lengths, got {angles.shape}")
    phi = np.mod(angles + fractional_products(points, lengths), 1.0)
    d = len(fs)
    # rows (log|f_1|..log|f_d|, arg f_1..arg f_d) of every cycle
    terms = np.empty((2 * d, phi.shape[1]))
    for j, f in enumerate(fs):
        terms[j], terms[d + j] = f.log_abs(phi[j]), f.arg(phi[j])
    zero = np.isneginf(terms[:d]).any(axis=0)
    return np.add.reduceat(terms, starts, axis=1).T, np.logical_or.reduceat(zero, starts)


def permutation_matrix(perm: Permutation, z_values: np.ndarray) -> np.ndarray:
    """M_ij = z_i * delta_{i, sigma(j)} as a dense complex matrix."""
    return np.where(perm.matrix, np.asarray(z_values, dtype=complex)[:, None], 0.0)


def det_oracle(perm: Permutation, z_values: np.ndarray, x: float) -> complex:
    """det(I - x^{-1} M(sigma, z)) by dense LU; n <= 12.

    Must equal the cycle product prod_c (1 - x^{-|c|} prod_{j in c} z_j)
    exactly, for any fixed z assignment.
    """
    if perm.n > _DET_SIZE_LIMIT:
        raise ValueError(f"dense determinant limited to n <= {_DET_SIZE_LIMIT}")
    xc = np.exp(2j * np.pi * x)
    M = permutation_matrix(perm, np.asarray(z_values, dtype=complex))
    return complex(np.linalg.det(np.eye(perm.n, dtype=complex) - M / xc))


def cycle_product(perm: Permutation, z_values: np.ndarray, x: float) -> complex:
    """prod over cycles c of (1 - x^{-|c|} prod_{j in c} z_j)."""
    xc = np.exp(2j * np.pi * x)
    z = np.asarray(z_values, dtype=complex)
    out = 1.0 + 0.0j
    for cyc in perm.cycles:
        zprod = np.prod(z[[j - 1 for j in cyc]])
        out *= 1.0 - zprod / xc ** len(cyc)
    return complex(out)


def sym_char_poly(perm: Permutation, x_real: float) -> float:
    """det(S - x I) for x in [-2, 2] via the cycle-product formula.

    With x = 2 cos(alpha) each length-m cycle contributes 2 - 2 cos(m alpha);
    the overall sign is (-1)^(n - #cycles), fixing the leading coefficient
    (-1)^n of det(S - x I).
    """
    if not -2.0 <= x_real <= 2.0:
        raise ValueError("x_real must lie in [-2, 2]")
    alpha = math.acos(x_real / 2.0)
    ct = perm.cycle_type
    value = 1.0
    for m, c in enumerate(ct.counts, 1):
        if c:
            value *= (2.0 - 2.0 * math.cos(m * alpha)) ** c
    sign = -1.0 if (perm.n - ct.total_cycles) % 2 else 1.0
    return sign * value


def sym_char_poly_matrix(perm: Permutation, x_real: float) -> float:
    """Dense counterpart of sym_char_poly, n <= 12: det(S - x I) as the product of lambda - x
    over the spectrum of the 0/1 matrix S (Permutation.sym_spectrum), never its cycle lengths."""
    if perm.n > _DET_SIZE_LIMIT:
        raise ValueError(f"dense determinant limited to n <= {_DET_SIZE_LIMIT}")
    return math.prod(lam - x_real for lam in perm.sym_spectrum)
