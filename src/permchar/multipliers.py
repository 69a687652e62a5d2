"""Unit-circle multiplier models, each given by its m-fold product laws.

Angles live in [0, 1) and represent e^{2*pi*i*phi}.  Four regimes are
supported: trivial (z = 1), uniform, absolutely continuous with a finite
Fourier expansion, and discrete supported on the rho-th roots of unity.
An m-cycle enters det(I - x^{-1} M) only through the product T_m of its
m multipliers, so every model has one sampler for a block of samples,
sample_T(ms, counts, rows, streams): counts[k] draws of T_{ms[k]} for each
k, in that order, from streams[rows[k]]; `rows` is ascending, as
ewens.cycle_groups returns it.  Each row reads its own stream exactly as a
call for that row alone would.  A single z is T_1.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .ewens import CHUNK

_VALIDATION_GRID = 4096
_MAX_FREQUENCY = 2 ** 14  # a validation grid of at most 64 * 2^14 = 2^20 points
_TABLE_ENTRIES = 1 << 12  # entries of the discrete T_m tables made at a time


class InvalidCoefficientsError(ValueError):
    """Coefficients or probabilities do not define a valid probability law."""


@dataclass(frozen=True)
class Trivial:
    """z identically 1."""

    def sample_T(self, ms, counts, rows, streams) -> np.ndarray:
        return np.zeros(int(np.sum(counts)))


@dataclass(frozen=True)
class Uniform:
    """z uniform on the unit circle.

    T_m is again uniform.  A row whose sum of m * c is at most CHUNK (every
    sample of n <= CHUNK) reads that many uniforms in one call and sums m of
    them per T_m, as numpy sums an (m, c) block, which keeps its stream;
    past CHUNK it reads one uniform per cycle.
    """

    def sample_T(self, ms, counts, rows, streams) -> np.ndarray:
        out, j = np.empty(int(np.sum(counts))), 0
        for stream, blocks in _rows(ms, counts, rows, streams):
            if sum(m * c for m, c in blocks) > CHUNK:  # one uniform per cycle
                blocks = [(1, sum(c for _, c in blocks))]
            u, o = stream.random(sum(m * c for m, c in blocks)), 0
            for m, c in blocks:
                # c = 1 is summed as a 1-D array: the rounding of its (m, 1)
                # block's axis-0 sum, at less cost
                block = u[o:o + m * c]
                out[j:j + c] = np.add.reduce(block if c == 1 else block.reshape(m, c), axis=0)
                o, j = o + m * c, j + c
        return np.mod(out, 1.0, out=out)


class FourierDensity:
    """Absolutely continuous z with density g(phi) = sum_j c_j e^{2 pi i j phi}.

    `coeffs` maps j to c_j over a finite truncation window; c_0 = 1 and
    |c_j| < 1 for 0 < |j| <= 2^14.  The implied density is validated
    nonnegative on a grid of at least 64 points per period of the top
    frequency.  T_m has the convolved density with coefficients c_j^m,
    sampled by rejection against its uniform envelope sum_j |c_j|^m.
    """

    def __init__(self, coeffs: dict[int, complex]):
        coeffs = dict(coeffs)
        coeffs.setdefault(0, 1.0)
        if abs(coeffs[0] - 1.0) > 1e-12:
            raise InvalidCoefficientsError("c_0 must equal 1")
        for j, c in coeffs.items():
            if j != 0 and abs(c) >= 1.0:
                raise InvalidCoefficientsError(f"|c_{j}| must be < 1")
            if abs(j) > _MAX_FREQUENCY:
                raise InvalidCoefficientsError(f"frequency {j} is above the limit |j| <= {_MAX_FREQUENCY}")
        self.coeffs = coeffs
        grid = np.linspace(0.0, 1.0, max(_VALIDATION_GRID, 64 * max(map(abs, coeffs))), endpoint=False)
        dens = self.density(grid)
        if np.abs(dens.imag).max() > 1e-10:
            raise InvalidCoefficientsError("density is not real; coefficients must be Hermitian")
        if dens.real.min() < -1e-10:
            raise InvalidCoefficientsError("density negative on the validation grid")

    def density(self, phi: np.ndarray, m: int = 1) -> np.ndarray:
        """Density of T_m at angles phi; m = 1 is the density of z."""
        out = np.zeros_like(np.asarray(phi, dtype=float), dtype=complex)
        for j, c in convolved_density_coeffs(self, m).items():
            out += c * np.exp(2j * np.pi * j * np.asarray(phi))
        return out

    def sample_T(self, ms, counts, rows, streams) -> np.ndarray:
        out = []
        for stream, blocks in _rows(ms, counts, rows, streams):
            for m, size in blocks:
                envelope = sum(abs(c) for c in convolved_density_coeffs(self, m).values())
                while size > 0:
                    prop = stream.random(size)
                    accept = stream.random(size) * envelope < self.density(prop, m).real
                    out.append(prop[accept])
                    size -= len(out[-1])
        return np.concatenate(out)


def convolved_density_coeffs(model: FourierDensity, m: int) -> dict[int, complex]:
    """Fourier coefficients of the m-fold convolution: j -> c_j^m."""
    if m < 1:  # all c_j^0 = 1: not the coefficients of a density
        raise ValueError("m must be >= 1")
    return {j: c ** m for j, c in model.coeffs.items()}


class DiscreteRoots:
    """Discrete z on the rho-th roots of unity.

    Construct from probabilities p_k = P(z = e^{2 pi i k/rho}), k = 0..rho-1,
    or from their DFT c_j = sum_k p_k e^{-2 pi i j k/rho}, which needs c_0 = 1
    and Hermitian symmetry c_{rho-j} = conj(c_j) so that p is real.  The table
    is checked here, once.  T_m has coefficients coeffs**m, so its table is
    their inverse DFT, computed once for each distinct m of a block.
    """

    def __init__(self, rho: int, probs: np.ndarray | None = None,
                 coeffs: np.ndarray | None = None):
        if rho < 1:
            raise ValueError("rho must be >= 1")
        self.rho = rho
        # every check below is written so that NaN fails it
        if probs is None:
            if coeffs is None:
                raise ValueError("need probs or coeffs")
            coeffs = np.asarray(coeffs, dtype=complex)
            if coeffs.shape != (rho,) or not abs(coeffs[0] - 1.0) <= 1e-12:
                raise InvalidCoefficientsError(f"discrete coeffs must be {rho} values with c_0 = 1")
            inverse = np.fft.ifft(coeffs)
            if not np.abs(inverse.imag).max() <= 1e-12:
                raise InvalidCoefficientsError("discrete coeffs must be Hermitian: "
                                               "c_{rho-j} = conj(c_j), so the law is real")
            if not inverse.real.min() >= -1e-12:
                raise InvalidCoefficientsError(
                    f"discrete coeffs give the negative probability {inverse.real.min()}")
            probs = np.clip(inverse.real, 0.0, None)
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (rho,) or not (probs.min() >= 0 and abs(probs.sum() - 1.0) <= 1e-12):
            raise InvalidCoefficientsError(
                f"discrete probs must be {rho} nonnegative reals summing to 1")
        self.probs = probs
        self.coeffs = np.fft.fft(probs)

    def product_probs(self, ms) -> np.ndarray:
        """Laws of T_m, one row for each Python int m in ms, via c -> c^m.

        c^m of a checked law errs by O(m eps) only, so the inverse DFT is
        clipped at 0 rather than checked again.  ifft transforms row by row
        and c^m is taken one scalar m at a time (an array of exponents would
        round c**2 differently), so a row does not depend on the others.
        """
        probs = np.clip(np.fft.ifft([self.coeffs ** m for m in ms], axis=1).real, 0.0, None)
        probs[[m == 1 for m in ms]] = self.probs
        return probs

    def sample_T(self, ms, counts, rows, streams) -> np.ndarray:
        # one uniform per draw, one call per row; the draws of T_m are
        # stream.choice(rho, c, p=product_probs([m])[0]) by its own inversion
        # (same uniforms, same indices) without its per-call checks
        u = np.concatenate([stream.random(sum(c for _, c in blocks))
                            for stream, blocks in _rows(ms, counts, rows, streams)])
        m = np.repeat(ms, counts)
        order = np.argsort(m, kind="stable")
        bounds = np.flatnonzero(np.diff(m[order], prepend=-1)).tolist() + [len(m)]
        k = np.empty(len(u), dtype=np.intp)
        slab = max(1, _TABLE_ENTRIES // self.rho)
        for s in range(0, len(bounds) - 1, slab):
            edges = bounds[s:s + slab + 1]
            cdfs = self.product_probs(m[order[edges[:-1]]].tolist()).cumsum(axis=1)
            cdfs /= cdfs[:, -1:]
            for cdf, a, b in zip(cdfs, edges, edges[1:]):
                d = order[a:b]
                k[d] = cdf.searchsorted(u[d], side="right")
        return k / self.rho


def _rows(ms, counts, rows, streams):
    """(stream, [(m, c), ...]) for each row in order: the blocks of c draws
    of T_m of that row, as Python ints, and the stream it draws from."""
    blocks = zip(np.asarray(rows).tolist(), np.asarray(ms).tolist(), np.asarray(counts).tolist())
    for r, row in itertools.groupby(blocks, key=operator.itemgetter(0)):
        yield streams[r], [(m, c) for _, m, c in row]


MultiplierModel = Trivial | Uniform | FourierDensity | DiscreteRoots

