import math

import numpy as np
import pytest

from permchar import ewens
from permchar.ewens import (CycleType, EwensParameter, HorizonTooSmallError,
                            InvalidCycleTypeError, Permutation, SizeLimitError)


def test_theta_must_be_positive():
    with pytest.raises(ValueError):
        EwensParameter(0.0)
    with pytest.raises(ValueError):
        EwensParameter(-1.0)
    with pytest.raises(ValueError):
        EwensParameter(math.inf)


def test_chain_probabilities_formula():
    p = ewens.chain_probabilities(5, EwensParameter(2.0))
    expected = [2 / 2, 2 / 3, 2 / 4, 2 / 5, 2 / 6]
    assert np.allclose(p, expected)
    assert p[0] == 1.0


def test_cycle_type_weight_invariant():
    CycleType(4, (2, 1, 0, 0))
    with pytest.raises(InvalidCycleTypeError):
        CycleType(4, (1, 1, 0, 0))
    with pytest.raises(InvalidCycleTypeError):
        CycleType(3, (-1, 2, 0))


def test_cycle_counts_from_chain_identity_chain():
    # all ones -> n fixed points
    ones = np.ones(5, dtype=bool)
    ct = ewens.cycle_counts_from_chain(ones)
    assert ct.counts == (5, 0, 0, 0, 0)
    lengths, mults = ewens.cycle_groups(ones)
    assert lengths.tolist() == [1] and mults.tolist() == [5]

    # single leading one -> one n-cycle
    bits = np.zeros(5, dtype=bool)
    bits[0] = True
    ct = ewens.cycle_counts_from_chain(bits)
    assert ct.counts == (0, 0, 0, 0, 1)
    lengths, mults = ewens.cycle_groups(bits)
    assert lengths.tolist() == [5] and mults.tolist() == [1]


def test_sampled_cycle_counts_sum_to_n():
    rng = np.random.default_rng(42)
    p = ewens.chain_probabilities(30, EwensParameter(0.7))
    for _ in range(50):
        bits = ewens.sample_feller_chain(p, rng)
        ct = ewens.cycle_counts_from_chain(bits)
        assert sum(m * c for m, c in ct.nonzero()) == 30
        # reference reader: a cycle closes before each later 1 and at the end
        ref, start = [0] * 30, 0
        for i in range(1, 31):
            if i == 30 or bits[i]:
                ref[i - start - 1] += 1
                start = i
        assert ct.counts == tuple(ref)


def test_sampling_is_deterministic_per_stream():
    p = ewens.chain_probabilities(100, EwensParameter(1.0))
    a = ewens.sample_feller_chain(p, np.random.default_rng(9))
    b = ewens.sample_feller_chain(p, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_esf_probability_uniform_theta_one():
    # theta = 1: P(ct) = prod 1/(m^c_m c_m!), e.g. the identity has P = 1/n!
    ct = CycleType(4, (4, 0, 0, 0))
    assert ewens.esf_probability(ct, EwensParameter(1.0)) == pytest.approx(1 / 24)
    # single 4-cycle: (4-1)!/4! = 1/4
    ct = CycleType(4, (0, 0, 0, 1))
    assert ewens.esf_probability(ct, EwensParameter(1.0)) == pytest.approx(1 / 4)


def test_exact_feller_distribution_sums_to_one():
    for theta in (0.5, 1.0, 2.0):
        dist = ewens.exact_feller_distribution(7, EwensParameter(theta))
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_exact_feller_distribution_size_limit():
    with pytest.raises(SizeLimitError):
        ewens.exact_feller_distribution(17, EwensParameter(1.0))
    with pytest.raises(ValueError, match="1 <= n <= 16"):
        ewens.exact_feller_distribution(0, EwensParameter(1.0))


def test_psi_n_known_values():
    theta = EwensParameter(2.0)
    assert ewens.psi_n(3, 1, theta) == pytest.approx(3 / 4)
    assert ewens.psi_n(3, 3, theta) == pytest.approx(1 / 4)
    # theta = 1 makes the coupling factor identically 1
    for m in range(1, 6):
        assert ewens.psi_n(5, m, EwensParameter(1.0)) == pytest.approx(1.0)


def test_psi_n_vector_matches_scalar():
    # an array m gives the scalar values entrywise; both match the product
    # form Psi_n(m) = prod_{i<m} (n - i) / (n - i - 1 + theta)
    theta = EwensParameter(0.3)
    vec = ewens.psi_n(50, np.arange(1, 51), theta)
    for m in range(1, 51):
        want = math.prod((50 - i) / (49 - i + 0.3) for i in range(m))
        assert vec[m - 1] == pytest.approx(ewens.psi_n(50, m, theta), rel=1e-12)
        assert vec[m - 1] == pytest.approx(want, rel=1e-10)
    with pytest.raises(ValueError):
        ewens.psi_n(50, np.array([0, 3]), theta)


def test_crp_permutation_is_valid_and_deterministic():
    theta = EwensParameter(1.5)
    p1 = ewens.sample_permutation_crp(20, theta, np.random.default_rng(3))
    p2 = ewens.sample_permutation_crp(20, theta, np.random.default_rng(3))
    assert p1 == p2
    assert sorted(p1.images) == list(range(1, 21))
    ct = p1.cycle_type()
    assert sum(m * c for m, c in ct.nonzero()) == 20


def test_crp_matches_esf_frequencies():
    # n = 4, theta = 1: compare empirical cycle-type frequencies with ESF
    theta = EwensParameter(1.0)
    rng = np.random.default_rng(12)
    counts: dict = {}
    N = 20000
    for _ in range(N):
        ct = ewens.sample_permutation_crp(4, theta, rng).cycle_type()
        counts[ct] = counts.get(ct, 0) + 1
    for ct, c in counts.items():
        p = ewens.esf_probability(ct, theta)
        se = math.sqrt(p * (1 - p) / N)
        assert abs(c / N - p) < 4 * se + 1e-9


def test_poisson_counts_horizon_guard():
    with pytest.raises(HorizonTooSmallError):
        ewens.poisson_counts_from_chain(np.ones(10, dtype=bool), m_max=6)


def test_poisson_counts_drops_boundary_spacing():
    # chain 1 0 0 1: one 3-spacing inside; no appended boundary 1
    bits = np.array([1, 0, 0, 1, 1, 0], dtype=bool)
    assert ewens.poisson_counts_from_chain(bits, m_max=3) == (1, 0, 1)


def test_feller_coupling_gap_shrinks_with_n():
    theta = EwensParameter(1.0)
    rng = np.random.default_rng(7)
    g_small = ewens.feller_coupling_gap(20, theta, 1, 4000, rng)
    g_large = ewens.feller_coupling_gap(500, theta, 1, 4000, rng)
    assert g_large < g_small


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation(3, (1, 1, 2))
