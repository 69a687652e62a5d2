import itertools
import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import chi2

from permchar import ewens
from permchar.ewens import (CycleType, EwensParameter, InvalidCycleTypeError, Permutation,
                            SizeLimitError)


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
    # p_1 is 1 exactly, with no warning, though (theta + 1) - 1 rounds to 0
    # below 2^-53; the other entries are theta / ((theta + i) - 1), bit for bit
    for t in (1e-300, 2.0 ** -60, 0.1, 0.5, 1.0, 2.7, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = ewens.chain_probabilities(12, EwensParameter(t))
        assert p[0] == 1.0
        assert [x.hex() for x in p[1:].tolist()] == [(t / (t + i - 1.0)).hex() for i in range(2, 13)]
    assert len(ewens.chain_probabilities(0, EwensParameter(1.0))) == 0


def test_cycle_type_weight_invariant():
    CycleType(4, (2, 1, 0, 0))
    with pytest.raises(InvalidCycleTypeError):
        CycleType(4, (1, 1, 0, 0))
    with pytest.raises(InvalidCycleTypeError):
        CycleType(3, (-1, 2, 0))


def _chain_cycle_type(bits):
    """The cycle type that cycle_groups reads from the ones of a dense chain."""
    n = len(bits)
    lengths, mults, _ = ewens.cycle_groups([np.flatnonzero(bits)], n)
    counts = np.zeros(n, dtype=int)
    counts[lengths - 1] = mults
    return CycleType(n, tuple(counts.tolist()))


def test_cycle_groups_identity_chain():
    # all ones -> n fixed points
    ones = np.ones(5, dtype=bool)
    ct = _chain_cycle_type(ones)
    assert ct.counts == (5, 0, 0, 0, 0)
    lengths, mults, _ = ewens.cycle_groups([np.flatnonzero(ones)], 5)
    assert lengths.tolist() == [1] and mults.tolist() == [5]

    # single leading one -> one n-cycle
    bits = np.zeros(5, dtype=bool)
    bits[0] = True
    ct = _chain_cycle_type(bits)
    assert ct.counts == (0, 0, 0, 0, 1)
    lengths, mults, _ = ewens.cycle_groups([np.flatnonzero(bits)], 5)
    assert lengths.tolist() == [5] and mults.tolist() == [1]


def test_sampled_cycle_counts_sum_to_n():
    rng = np.random.default_rng(42)
    p = ewens.chain_probabilities(30, EwensParameter(0.7))
    for _ in range(50):
        bits = ewens.sample_feller_chain(p, rng)
        ct = _chain_cycle_type(bits)
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


def _esf_fraction(ct: CycleType, theta: float) -> Fraction:
    t = Fraction(theta)
    p = Fraction(math.factorial(ct.n))
    for j in range(ct.n):
        p /= t + j
    for m, c in ct.nonzero():
        p *= (t / m) ** c / math.factorial(c)
    return p


def test_esf_probability_equals_exact_fractions_at_extreme_theta():
    # every cycle type of n <= 10, against the rational value of the
    # formula at the double theta: neither a tiny nor a huge theta is cancelled
    for theta in (1e-300, 2.0 ** -60, 0.5, 1.0, 2.7, 9.5, 10.0, 1e6, 1e12, 1e15, 1e300):
        t = EwensParameter(theta)
        for n in (1, 2, 5, 9, 10):
            for ct in ewens.exact_feller_distribution(n, EwensParameter(1.0)):
                want = _esf_fraction(ct, theta)
                got = ewens.esf_probability(ct, t)
                assert abs(Fraction(got) - want) <= Fraction(1, 10 ** 12) * want + Fraction(1, 10 ** 300), \
                    (theta, ct.counts, got, float(want))


def test_log_rising_excess_equals_a_sum_of_log1p():
    # for an integer step d, lgamma(a + d) - lgamma(a) - d log a is the sum
    # of log1p(j / a), j < d: within a few ulps of d or of the value
    for a in (1e-3, 0.3, 1.0, 9.5, 10.0, 37.25, 1e6, 1e12, 1e300):
        for d in (1, 2, 16, 100, 1000):
            want = math.fsum(math.log1p(j / a) for j in range(d))
            got = ewens._log_rising_excess(a, d)
            assert abs(got - want) <= 1e-15 * max(d, abs(want)), (a, d, got, want)
    got = ewens._log_rising_excess(np.array([3, 10 ** 12]), 16)
    assert got.shape == (2,) and got.tolist() == [ewens._log_rising_excess(3.0, 16),
                                                   ewens._log_rising_excess(1e12, 16)]


def test_log_rising_excess_takes_arrays():
    # one call holds entries on both sides of the cut at 10, each equal to its
    # scalar value and to the fsum of log1p(j / a), j < d
    a = np.array([1e-3, 0.3, 9.5, 10.0, 37.25, 1e6, 1e12])
    got = ewens._log_rising_excess(a, 16)
    assert isinstance(got, np.ndarray) and got.shape == a.shape
    for x, g in zip(a.tolist(), got.tolist()):
        want = math.fsum(math.log1p(j / x) for j in range(16))
        assert g == ewens._log_rising_excess(x, 16)
        assert abs(g - want) <= 1e-15 * max(16, abs(want)), (x, g, want)
    # a (3, 1) array a against a (4,) array d; a + d < 10 for some, not all, pairs
    d = np.array([-0.5, 0.25, 7.0, 100.0])
    grid = ewens._log_rising_excess(np.array([[0.75], [8.0], [1e3]]), d)
    assert grid.shape == (3, 4)
    assert grid.tolist() == [[ewens._log_rising_excess(x, y) for y in d.tolist()] for x in (0.75, 8.0, 1e3)]
    # 0-d arrays and floats give a float
    for args in ((np.array(3.0), np.array(16.0)), (np.array(1e12), 16), (3.0, 16)):
        got = ewens._log_rising_excess(*args)
        assert type(got) is float and got == ewens._log_rising_excess(float(args[0]), 16.0)
    # excess(a, d + 1) - excess(a, d) = log1p(d / a), for non-integer d and a up to 1e12
    a = np.array([0.5, 3.0, 9.75, 12.5, 1e3, 1e6, 1e9, 1e12])[:, None]
    d = np.array([0.3, 2.5, 8.7, 41.25, 1000.5])
    step = ewens._log_rising_excess(a, d + 1) - ewens._log_rising_excess(a, d)
    assert np.all(np.abs(step - np.log1p(d / a)) <= 1e-14 * np.maximum(d + 1, 1.0))


def test_esf_probability_uniform_theta_one():
    # theta = 1: P(ct) = prod 1/(m^c_m c_m!), e.g. the identity has P = 1/n!
    ct = CycleType(4, (4, 0, 0, 0))
    assert ewens.esf_probability(ct, EwensParameter(1.0)) == pytest.approx(1 / 24)
    # single 4-cycle: (4-1)!/4! = 1/4
    ct = CycleType(4, (0, 0, 0, 1))
    assert ewens.esf_probability(ct, EwensParameter(1.0)) == pytest.approx(1 / 4)


def test_esf_probability_matches_gammaln_reference():
    # every cycle type of n <= 8 (the enumerated chain law reaches them all)
    for theta in (0.5, 1.0, 2.7):
        t = EwensParameter(theta)
        for n in range(1, 9):
            for ct in ewens.exact_feller_distribution(n, t):
                log_p = gammaln(n + 1) + gammaln(theta) - gammaln(theta + n)
                for m, c in ct.nonzero():
                    log_p += c * math.log(theta / m) - gammaln(c + 1)
                assert ewens.esf_probability(ct, t) == pytest.approx(math.exp(log_p), rel=1e-12)


def test_exact_feller_distribution_sums_to_one():
    for theta in (0.5, 1.0, 2.0):
        dist = ewens.exact_feller_distribution(7, EwensParameter(theta))
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_exact_feller_distribution_equals_chain_loop():
    # the law summed chain by chain, in itertools.product order, each chain
    # read by cycle_groups, the reader the Monte Carlo runs: the same keys in
    # the same order and the same floats
    for theta in (1e-300, 0.5, 1.0, 2.7, 1e300):
        t = EwensParameter(theta)
        for n in range(1, 13):
            p = ewens.chain_probabilities(n, t)
            want: dict = {}
            for tail in itertools.product((0, 1), repeat=n - 1):
                bits = np.array((1,) + tail, dtype=bool)
                prob = 1.0
                for i in range(1, n):
                    prob *= p[i] if bits[i] else (1.0 - p[i])
                ct = _chain_cycle_type(bits)
                want[ct] = want.get(ct, 0.0) + prob
            got = ewens.exact_feller_distribution(n, t)
            assert list(got) == list(want)
            assert list(got.values()) == list(want.values())


def test_exact_feller_distribution_holds_one_block():
    # 2^15 chains of 16 bits walked depth first: one chain's counts are held at a time
    tracemalloc.start()
    try:
        ewens.exact_feller_distribution(16, EwensParameter(1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


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


def test_psi_n_matches_gammaln_reference():
    # the reference loses about 7e-11 to cancellation at n = 10^4
    for theta in (0.5, 2.7):
        for n in (10, 10 ** 3, 10 ** 4):
            m = np.arange(1, n + 1)
            want = np.exp(gammaln(n - m + theta) - gammaln(n - m + 1)
                          + gammaln(n + 1) - gammaln(n + theta))
            got = ewens.psi_n(n, m, EwensParameter(theta))
            assert np.allclose(got, want, rtol=1e-9, atol=0)


def test_psi_n_equals_exact_fractions_at_large_arguments():
    # Psi_n(m) = prod_{i<m} (n - i) / (n - i - 1 + theta) in rationals: no
    # difference of two large lgamma values, e.g. n / (n + theta - 1) at m = 1
    for theta in (0.5, 1.0, 2.7, 30.0, 1e6):
        t = Fraction(theta)
        for n in (1, 10, 100, 10 ** 4, 10 ** 12):
            for m in sorted({1, 2, 10, 99, 1000, n} & set(range(1, min(n, 1000) + 1))):
                want = math.prod(Fraction(n - i) / (n - i - 1 + t) for i in range(m))
                got = ewens.psi_n(n, m, EwensParameter(theta))
                assert abs(Fraction(got) - want) <= Fraction(1, 10 ** 12) * want + Fraction(1, 10 ** 300), (theta, n, m, got)
    assert ewens.psi_n(10 ** 12, 1, EwensParameter(2.7)) == pytest.approx(1 / (1 + 1.7e-12), rel=1e-15)


def test_crp_permutation_is_valid_and_deterministic():
    theta = EwensParameter(1.5)
    p1 = ewens.sample_permutation_crp(20, theta, np.random.default_rng(3))
    p2 = ewens.sample_permutation_crp(20, theta, np.random.default_rng(3))
    assert p1 == p2
    assert sorted(p1.images) == list(range(1, 21))
    ct = p1.cycle_type
    assert sum(m * c for m, c in ct.nonzero()) == 20


def test_crp_matches_esf_frequencies():
    # n = 4, theta = 1: compare empirical cycle-type frequencies with ESF
    theta = EwensParameter(1.0)
    rng = np.random.default_rng(12)
    counts: dict = {}
    N = 20000
    for _ in range(N):
        ct = ewens.sample_permutation_crp(4, theta, rng).cycle_type
        counts[ct] = counts.get(ct, 0) + 1
    for ct, c in counts.items():
        p = ewens.esf_probability(ct, theta)
        se = math.sqrt(p * (1 - p) / N)
        assert abs(c / N - p) < 4 * se + 1e-9


def test_feller_chain_reader_equals_dense_chain():
    # up to CHUNK the same uniforms in the same order: the same ones, the
    # stream left where the dense draw leaves it; past CHUNK the ones below
    # CHUNK are the dense chain's there
    C = ewens.CHUNK
    for n in (1, C - 1, C, C + 1, 3 * C + 7):
        for t in (0.3, 1.0, 2.7, 50.0):
            theta = EwensParameter(t)
            chain = ewens.FellerChain(n, theta)
            p = ewens.chain_probabilities(min(n, C), theta)
            for seed in range(3):
                dense, chunked = np.random.default_rng(seed), np.random.default_rng(seed)
                want = np.flatnonzero(ewens.sample_feller_chain(p, dense))
                got = chain.ones(chunked)
                assert got.dtype == want.dtype, (n, t, seed)
                assert np.array_equal(got[got < C], want), (n, t, seed)
                if n > C:
                    continue
                assert np.array_equal(got, want), (n, t, seed)
                assert chunked.random() == dense.random()
                lengths, mults, _ = ewens.cycle_groups([got], n)
                dense_lengths, dense_mults, _ = ewens.cycle_groups([want], n)
                assert np.array_equal(lengths, dense_lengths) and np.array_equal(mults, dense_mults)


def test_thinned_chain_has_the_exact_cycle_type_law(monkeypatch):
    # with CHUNK = 2 the chain at n = 10 is thinned over the chunks 3-4,
    # 5-8 and 9-10; its cycle types, pooled over seeds, pass a chi-square
    # test against the exact law at a Bonferroni level over the thetas
    monkeypatch.setattr(ewens, "CHUNK", 2)
    n, thetas, seeds, draws, alpha = 10, (0.5, 1.0, 2.7), range(4), 1500, 1e-4
    for t in thetas:
        theta = EwensParameter(t)
        exact = {ct.counts: p for ct, p in ewens.exact_feller_distribution(n, theta).items()}
        chain = ewens.FellerChain(n, theta)
        seen = dict.fromkeys(exact, 0)
        for seed in seeds:
            stream = np.random.default_rng(seed)
            for _ in range(draws):
                counts = [0] * n
                for m in np.diff(np.append(chain.ones(stream), n)).tolist():
                    counts[m - 1] += 1
                seen[tuple(counts)] += 1
        total = draws * len(seeds)
        expected = np.array([exact[ct] for ct in seen]) * total
        observed = np.array(list(seen.values()))
        # cells expected fewer than 5 times are pooled into one
        small = expected < 5
        expected = np.append(expected[~small], expected[small].sum())
        observed = np.append(observed[~small], observed[small].sum())
        stat = ((observed - expected) ** 2 / expected).sum()
        assert chi2.sf(stat, len(expected) - 1) > alpha / len(thetas), (t, stat, len(expected))


def test_tail_ones_have_the_chain_mean():
    # the ones past CHUNK, over two whole chunks and a part of one, number
    # sum p_i on average: within 6 standard errors over pooled seeds
    C = ewens.CHUNK
    n, draws = 5 * C + 3, 150
    for t in (0.5, 2.7, 1000.0):
        theta = EwensParameter(t)
        chain = ewens.FellerChain(n, theta)
        p = ewens.chain_probabilities(n, theta)[C:]
        got = [np.count_nonzero(chain.ones(stream) >= C)
               for stream in map(np.random.default_rng, range(4)) for _ in range(draws)]
        se = math.sqrt((p * (1 - p)).sum() / len(got))
        assert abs(np.mean(got) - p.sum()) < 6 * se, (t, np.mean(got), p.sum(), se)


def test_feller_chain_is_shared_by_threads():
    # a draw changes nothing in the instance, so concurrent draws from one
    # chain equal the serial ones
    n = 3 * ewens.CHUNK + 7
    for t in (0.3, 2.7):
        chain = ewens.FellerChain(n, EwensParameter(t))
        serial = [chain.ones(np.random.default_rng(seed)) for seed in range(8)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            shared = list(pool.map(lambda seed: chain.ones(np.random.default_rng(seed)), range(8)))
        for seed, (got, want) in enumerate(zip(shared, serial)):
            assert np.array_equal(got, want), (t, seed)


def test_feller_chain_draw_holds_one_chunk_of_uniforms():
    # a chunk of CHUNK uniforms is 512 KB: the previous chunk is freed before
    # the next is drawn, so a draw never holds two of them
    chain = ewens.FellerChain(4 * ewens.CHUNK + 1, EwensParameter(1.0))
    stream = np.random.default_rng(0)
    tracemalloc.start()
    try:
        chain.ones(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * 2 ** 20


def test_permutation_memoizes_without_changing_identity():
    perm = Permutation(5, (2, 3, 1, 5, 4))
    twin = Permutation(5, (2, 3, 1, 5, 4))
    perm.cycles, perm.cycle_type, perm.matrix, perm.sym_spectrum  # fill one instance's caches
    assert perm == twin and hash(perm) == hash(twin) and {twin: 1}[perm] == 1
    assert perm != Permutation(5, (1, 2, 3, 4, 5))
    assert perm.cycles == perm.cycles == twin.cycles == ((1, 2, 3), (4, 5))
    assert perm.cycles is perm.cycles and perm.cycle_type is perm.cycle_type
    assert perm.cycle_type == twin.cycle_type == CycleType(5, (0, 1, 1, 0, 0))
    assert perm.cycle_type.nonzero() == ((2, 1), (3, 1))
    # P_ij = 1 exactly when i = sigma(j)
    want = np.zeros((5, 5))
    for j, i in enumerate(perm.images):
        want[i - 1, j] = 1.0
    assert np.array_equal(perm.matrix, want) and perm.matrix is perm.matrix
    assert np.array_equal(perm.sym_matrix, want + want.T) and perm.sym_matrix is perm.sym_matrix
    for cached in (perm.matrix, perm.sym_matrix):
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
    assert np.array_equal(perm.matrix, want)
    # the spectrum of the dense S, computed once: a 3-cycle and a 2-cycle give
    # 2 cos(2 pi k / m) for k < m, that is 2, -1, -1 and 2, -2
    assert type(perm.sym_spectrum) is tuple and perm.sym_spectrum is perm.sym_spectrum
    assert perm.sym_spectrum == pytest.approx([-2.0, -1.0, -1.0, 2.0, 2.0], abs=1e-14)
    assert perm == twin and hash(perm) == hash(twin)


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation(3, (1, 1, 2))
