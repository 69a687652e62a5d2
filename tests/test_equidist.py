import math
import tracemalloc

import numpy as np
import pytest

from permchar import equidist as eq
from permchar.equidist import (DimensionUnsupportedError, NonConvergenceError, PointSequence,
                               ResonantFrequencyError, SingularPointHitError)

SQRT2 = math.sqrt(2.0) % 1.0
SQRT3 = math.sqrt(3.0) % 1.0


def test_nearest_integer_distance():
    assert eq.nearest_integer_distance(0.3) == pytest.approx(0.3)
    assert eq.nearest_integer_distance(0.7) == pytest.approx(0.3)
    assert eq.nearest_integer_distance(-1.25) == pytest.approx(0.25)
    assert eq.nearest_integer_distance(2.0) == 0.0


def test_kronecker_sequence_points():
    seq = eq.kronecker(SQRT2, 3)
    want = np.mod(np.arange(1, 4) * SQRT2, 1.0)
    assert np.allclose(seq.points[:, 0], want)
    assert seq.d == 1 and seq.n == 3
    # {m x} of a tiny negative x is 1 - |m x|: a point at 0, one full turn, never at 1
    tiny = eq.kronecker(-1e-20, 3).points
    assert tiny.min() >= 0.0 and tiny.max() < 1.0
    # the points are the fractions log sums read, bit for bit, at any n
    n = 10 ** 5
    assert np.array_equal(eq.kronecker(SQRT2, n).points[:, 0],
                          eq.fractional_products([SQRT2], np.arange(1, n + 1))[0])
    with pytest.raises(ValueError, match="n must be >= 1"):
        eq.kronecker(SQRT2, 0)
    with pytest.raises(ValueError, match="shape"):
        PointSequence(2, np.zeros((3, 1)))
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        PointSequence(1, np.array([[1.0]]))


def test_star_discrepancy_1d_closed_form():
    # single point at 0.5: D* = max(1 - 0.5, 0.5 - 0) = 0.5
    seq = PointSequence(1, np.array([[0.5]]))
    assert eq.star_discrepancy_exact(seq) == pytest.approx(0.5)
    # equally spaced (i - 0.5)/n has the minimal value 1/(2n)
    n = 10
    pts = ((np.arange(1, n + 1) - 0.5) / n)[:, None]
    assert eq.star_discrepancy_exact(PointSequence(1, pts)) == pytest.approx(1 / (2 * n))


def test_star_discrepancy_2d_single_point():
    seq = PointSequence(2, np.array([[0.5, 0.5]]))
    assert eq.star_discrepancy_exact(seq) == pytest.approx(0.75)


def test_star_discrepancy_2d_matches_grid_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        pts = rng.random((40, 2))
        seq = PointSequence(2, pts)
        exact = eq.star_discrepancy_exact(seq)
        oracle = eq.star_discrepancy_grid_oracle(seq, 60)
        assert oracle <= exact + 1e-12
        assert exact - oracle < 2 / 60 + 1e-9


def _corner_discrepancy(pts):
    """D_n^* by brute force: every corner (a, b) with a a point x-coordinate
    or 1 and b a point y-coordinate or 1, closed boxes for the excess and
    open ones for the deficit."""
    n = len(pts)
    a = np.append(pts[:, 0], 1.0)[:, None, None]
    b = np.append(pts[:, 1], 1.0)[None, :, None]
    x, y = pts[:, 0], pts[:, 1]
    closed = ((x <= a) & (y <= b)).sum(axis=-1)
    open_ = ((x < a) & (y < b)).sum(axis=-1)
    ab = a[..., 0] * b[..., 0]
    return max(float((closed / n - ab).max()), float((ab - open_ / n).max()))


def test_star_discrepancy_2d_equals_corner_enumeration():
    # points on a 1/8 lattice tie in both coordinates; uniform points do not
    rng = np.random.default_rng(5)
    for n in range(1, 41):
        for pts in (rng.integers(0, 8, size=(n, 2)) / 8, rng.random((n, 2)),
                    np.column_stack([rng.integers(0, 8, n) / 8, rng.random(n)])):
            assert eq.star_discrepancy_exact(PointSequence(2, pts)) == _corner_discrepancy(pts)


def test_discrepancy_dimension_guard():
    with pytest.raises(DimensionUnsupportedError):
        eq.star_discrepancy_exact(PointSequence(3, np.zeros((2, 3))))
    with pytest.raises(DimensionUnsupportedError):
        eq.star_discrepancy_grid_oracle(PointSequence(3, np.zeros((2, 3))), 4)
    # the lattice walk refuses d = 3 before any slab is made
    with pytest.raises(DimensionUnsupportedError):
        eq.etk_bound((0.1, 0.2, 0.3), 10, 2)
    square = PointSequence(2, np.full((2, 2), 0.5))
    with pytest.raises(DimensionUnsupportedError):
        eq.weighted_sum(lambda t: t, square)
    with pytest.raises(DimensionUnsupportedError):
        eq.kh_error_bound(lambda t: t, square, delta=0.1)


def test_etk_bound_dominates_exact():
    seq = eq.kronecker(SQRT2, 500)
    exact = eq.star_discrepancy_exact(seq)
    bound = eq.etk_bound(SQRT2, 500, 40)
    assert bound >= exact


def test_etk_bound_equals_whole_lattice_sum():
    # the d = 2 lattice is summed one q_1 slab at a time; fsum rounds the
    # exact sum once, so the result equals the sum over the whole lattice
    for phis in ((SQRT2,), (SQRT2, SQRT3)):
        phi = np.array(phis)
        for H in (1, 3, 50, 200):
            a = np.arange(-H, H + 1)
            q = np.stack([g.ravel() for g in np.meshgrid(*[a] * phi.size, indexing="ij")], axis=1)
            q = q[(q != 0).any(axis=1)]
            r = np.prod(np.maximum(1, np.abs(q)), axis=1)
            terms = 1.0 / (r * eq.nearest_integer_distance(q @ phi))
            want = 3.0 ** phi.size * (2.0 / (H + 1) + math.fsum(terms.tolist()) / 100)
            assert eq.etk_bound(phis, 100, H) == want, (phis, H)
    # the whole lattice at H = 1000 holds 4e6 points, 64 MB of q alone
    tracemalloc.start()
    try:
        eq.etk_bound((SQRT2, SQRT3), 100, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_etk_bound_rational_resonance():
    with pytest.raises(ResonantFrequencyError):
        eq.etk_bound(0.5, 100, 10)


def test_preset_certificates_hold():
    # the (sqrt2, sqrt3) check at H = 2000 covers 1.6e7 points, 855 MB held whole
    tracemalloc.start()
    try:
        for key, cert in eq.PRESETS.items():
            phis = key[0] if len(key) == 1 else key
            assert eq.certificate_holds(cert, phis, min(cert.H_searched, 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_finite_type_search_equals_whole_lattice():
    # the search reads only the minimum of each shell ||q||_inf = h; K and
    # the certificate check over the whole lattice at once must agree with it
    for phis in (math.pi % 1.0, math.e % 1.0, 2.0 / 7.0, 0.5 + 1e-9,
                 (math.pi % 1.0, math.e % 1.0), (1.0 / 3.0, 0.2), (0.5 + 1e-9, math.pi % 1.0)):
        phi = np.atleast_1d(phis)
        for H in (2, 17, 64):
            a = np.arange(-H, H + 1)
            q = np.stack([g.ravel() for g in np.meshgrid(*[a] * phi.size, indexing="ij")], axis=1)
            q = q[(q != 0).any(axis=1)]
            hinf = np.abs(q).max(axis=1).astype(float)
            dist = eq.nearest_integer_distance(q @ phi)
            if dist.min() < 1e-13:  # a rational relation
                want = (0.0, 1.0)
            else:
                shell_min = np.full(H + 1, np.inf)
                np.minimum.at(shell_min, hinf.astype(int), dist)
                running = np.minimum.accumulate(shell_min[1:])
                records = shell_min[1:] <= running
                gamma = 1.0
                if records.sum() >= 2:
                    hs = np.arange(1, H + 1)[records]
                    gamma = max(1.0, -float(np.polyfit(np.log(hs), np.log(running[records]), 1)[0]))
                want = (float((dist * hinf ** gamma).min()), gamma)
            cert = eq.finite_type_estimate(phis, H)
            assert (cert.K, cert.gamma) == want, (phis, H)
            for K, gamma in ((cert.K, cert.gamma), (cert.K * (1 + 1e-9), cert.gamma), (0.3, 1.0)):
                trial = eq.FiniteTypeCertificate(K=K, gamma=gamma, H_searched=H, preset=False)
                want = bool(np.all(dist >= K / hinf ** gamma - 1e-14))
                assert eq.certificate_holds(trial, phis, H) == want, (phis, H, K)


def test_finite_type_estimate_uses_presets():
    cert = eq.finite_type_estimate(SQRT2, 100)
    assert cert.preset and cert.gamma == 1.0


def test_finite_type_estimate_detects_rational():
    cert = eq.finite_type_estimate(0.25, 100)
    assert cert.K == 0.0
    with pytest.raises(ValueError, match="H_max"):
        eq.finite_type_estimate(0.3, 1)


def test_finite_type_estimate_generic_irrational():
    cert = eq.finite_type_estimate(math.pi % 1.0, 200)
    assert cert.K > 0.0
    assert eq.certificate_holds(cert, math.pi % 1.0, 200)


def test_golden_ratio_discrepancy_log_decay():
    # n * D_n for the golden-ratio sequence grows at most logarithmically
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    for n in (100, 400, 1600, 6400):
        d = eq.star_discrepancy_exact(eq.kronecker(phi, n))
        assert n * d <= 3.0 * math.log(n + 2)


def test_weighted_sum_and_singular_guard():
    seq = eq.kronecker(SQRT2, 100)
    val = eq.weighted_sum(lambda t: np.ones_like(t), seq)
    assert val == pytest.approx(1.0)
    bad = PointSequence(1, np.array([[0.25], [0.5]]))
    with pytest.raises(SingularPointHitError):
        eq.weighted_sum(lambda t: 1.0 / (t - 0.5), bad, singular_angles=(0.5,))


def test_total_variation_monotone_and_vshape():
    assert eq.total_variation(lambda t: 3.0 * t, (0.0, 1.0)) == pytest.approx(3.0, abs=1e-5)
    assert eq.total_variation(lambda t: np.abs(t - 0.5), (0.0, 1.0)) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError, match="empty interval"):
        eq.total_variation(lambda t: t, (0.5, 0.5))


def test_total_variation_past_its_refinement_cap_raises(monkeypatch):
    # sin(2e6 pi x) has 2e6 monotone pieces on [0, 1]: no grid of up to 2^14
    # intervals separates them, so the estimate keeps rising (a dyadic
    # frequency would alias to a constant on the dyadic grids and converge)
    monkeypatch.setattr(eq, "_VARIATION_MAX_POINTS", 2 ** 14)
    with pytest.raises(NonConvergenceError, match="refinement cap"):
        eq.total_variation(lambda x: np.sin(2e6 * np.pi * x + 0.3), (0, 1))


def test_kh_error_bound_controls_quadrature_error():
    # smooth integrand, no singularity: delta = 0 reduces to plain KH
    h = lambda t: np.sin(2 * np.pi * t)
    seq = eq.kronecker(SQRT2, 1000)
    mean = eq.weighted_sum(h, seq)
    bound = eq.kh_error_bound(h, seq, delta=0.0)
    assert abs(mean - 0.0) <= bound


def test_kh_error_bound_point_outside_box():
    seq = eq.kronecker(SQRT2, 50)
    with pytest.raises(eq.PointOutsideBoxError):
        eq.kh_error_bound(lambda t: t, seq, delta=0.4)
    # [0.5, 0.5] is no interval
    with pytest.raises(ValueError, match="delta"):
        eq.kh_error_bound(lambda t: t, seq, delta=0.5)
