import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from permchar import classfuncs as cf
from permchar.ewens import CycleType, EwensParameter, Permutation, sample_permutation_crp
from permchar.multipliers import Uniform


def all_permutations(n):
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(n, images)


# The complex forms f(w) that the closed forms of log|f| and arg f replace,
# kept here as their oracle: np.log takes the principal branch.
COMPLEX_FORMS = {
    "charpoly": lambda w: 1.0 - 1.0 / w,
    "sympart": lambda w: 2.0 - w - 1.0 / w,
    "antisympart": lambda w: 2.0 - w + 1.0 / w,
    "const:2": lambda w: np.full_like(w, 2.0),
    "const:-3": lambda w: np.full_like(w, -3.0),
}


def _one_sample(fs, points, lengths, angles):
    """The (2d,) row of one sample's log_sums, which must not be singular."""
    sums, singular = cf.log_sums(fs, points, lengths, angles)
    assert sums.shape == (1, 2 * len(fs)) and singular.tolist() == [False]
    return sums[0]


def test_closed_forms_equal_the_log_of_the_complex_forms():
    # a dense grid away from the zeros, where the complex forms are accurate
    phi = np.linspace(0.01, 0.99, 100_001)
    for label, form in COMPLEX_FORMS.items():
        f = cf.spectral_function_by_label(label)
        want = np.log(form(np.exp(2j * np.pi * phi)))
        assert np.abs(f.log_abs(phi) - want.real).max() <= 1e-12, label
        assert np.abs(f.arg(phi) - want.imag).max() <= 1e-12, label


def test_branch_log_principal_branch():
    # negative reals map to +pi
    for f in (cf.constant(-1.0), cf.spectral_function_by_label("const:-3")):
        assert f.arg(np.array([0.3])).tolist() == [math.pi]
        assert _one_sample([f], [0.3], [1], [0.0])[1] == math.pi
    # charpoly at angle 1/4: 1 - e(-1/4) = 1 + i
    v = _one_sample([cf.char_poly()], [0.25], [1], [0.0])
    assert complex(v[0], v[1]) == pytest.approx(complex(0.5 * math.log(2.0), math.pi / 4))
    # an exact zero is reported, not raised nor warned of: 4 * 0.25 = 1 is the charpoly zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sums, singular = cf.log_sums([cf.char_poly(), cf.sym_part()], [0.25, 0.1], [4], [0.0])
    assert singular.tolist() == [True] and sums[0, 0] == -math.inf


def test_branch_log_sum_accumulates_without_wrapping():
    # three terms each with arg 2pi/5: total arg 6pi/5, outside (-pi, pi]
    total = _one_sample([cf.char_poly()], [0.05], [2, 2, 2], [0.0, 0.0, 0.0])
    assert total[0] == pytest.approx(3.0 * math.log(2.0 * math.sin(0.1 * math.pi)))
    assert total[1] == pytest.approx(1.2 * math.pi)


def test_char_poly_zero_at_angle_zero():
    f = cf.char_poly()
    assert f.log_abs(np.array([0.0])).tolist() == [-math.inf]
    phi = np.array([0.25])
    assert np.exp(f.log_abs(phi) + 1j * f.arg(phi))[0] == pytest.approx(1 - np.exp(-2j * np.pi * 0.25))


def test_sym_part_is_real_nonnegative():
    f = cf.sym_part()
    phi = np.linspace(0.01, 0.99, 50)
    assert f.arg(phi).tolist() == [0.0] * 50
    assert np.allclose(np.exp(f.log_abs(phi)), 2 - 2 * np.cos(2 * np.pi * phi))
    # 2 - 2 cos(2 pi phi) rounds to 0 here; (2 sin(pi phi))^2 does not
    tiny = np.array([1e-10, 1.0 - 2.0 ** -40])
    assert np.allclose(f.log_abs(tiny), 2.0 * np.log(2.0 * np.pi * np.array([1e-10, 2.0 ** -40])),
                       rtol=0.0, atol=1e-12)


def test_spectral_function_by_label():
    assert cf.spectral_function_by_label("charpoly").label == "charpoly"
    two = cf.spectral_function_by_label("const:2.0")
    assert two.log_abs(np.array([0.3]))[0] == math.log(2.0) and two.arg(np.array([0.3]))[0] == 0.0
    with pytest.raises(ValueError, match="unknown spectral function 'nope'"):
        cf.spectral_function_by_label("nope")
    # log 0 and non-finite constants have no finite limit constants
    for label in ("const:0", "const:nan", "const:inf"):
        with pytest.raises(ValueError, match=label):
            cf.spectral_function_by_label(label)


def test_log_Z_trivial_matches_deterministic_product():
    # z = 1: log Z is sum over cycles of log(1 - e^{-2 pi i m x})
    ct = CycleType(6, (2, 2, 0, 0, 0, 0))
    lengths = np.repeat([m for m, _ in ct.nonzero()], [c for _, c in ct.nonzero()])
    x = 0.37
    got = _one_sample([cf.char_poly()], [x], lengths, np.zeros(len(lengths)))
    want = 0.0 + 0.0j
    for m, c in ct.nonzero():
        want += c * np.log(1 - np.exp(-2j * np.pi * m * x))
    assert complex(got[0], got[1]) == pytest.approx(want)


def test_multipoint_logZ_trivial_matches_deterministic():
    # z = 1 at d = 2: log Z at each point is sum over cycles of
    # log(1 - e^{-2 pi i m x}), read from the (2d,) re/im layout
    ct = CycleType(5, (1, 2, 0, 0, 0))
    lengths = np.repeat([m for m, _ in ct.nonzero()], [c for _, c in ct.nonzero()])
    points = [0.21, 0.77]
    got = _one_sample([cf.char_poly()] * 2, points, lengths, np.zeros(len(lengths)))
    for j, x in enumerate(points):
        want = 0.0 + 0.0j
        for m, c in ct.nonzero():
            want += c * np.log(1 - np.exp(-2j * np.pi * m * x))
        assert complex(got[j], got[2 + j]) == pytest.approx(want)


def test_w2_charpoly_is_conjugate_collapse_of_log_Z():
    # Z uses terms 1 - x^{-m} T while the class function evaluates
    # f(x^m T) with f(w) = 1 - 1/w: the two coincide termwise once the
    # product angles are negated (T -> T^{-1}).
    lengths = np.array([1, 2, 2, 3])
    t = np.array([0.11, 0.35, 0.62, 0.87])
    x = 0.123
    want = np.log(1.0 - np.exp(2j * np.pi * (t - lengths * x))).sum()
    got = _one_sample([cf.char_poly()], [x], lengths, -t)
    assert complex(got[0], got[1]) == pytest.approx(want, abs=1e-12)


def test_log_sums_matches_det_oracle():
    # exp of the kernel is det(I - x^{-1} M(sigma, z)) at every point of one
    # call, for the same sampled (sigma, z): an identity, so any seed works
    rng = np.random.default_rng(3)
    theta = EwensParameter(1.0)
    points = [0.123, math.sqrt(2.0) % 1.0, 0.9]
    for n in range(1, 9):
        for _ in range(5):
            perm = sample_permutation_crp(n, theta, rng)
            z = rng.random(n)
            cycles = perm.cycles
            lengths = [len(c) for c in cycles]
            t = np.array([z[[j - 1 for j in c]].sum() for c in cycles])
            v = _one_sample([cf.char_poly()] * 3, points, lengths, -t)
            for j, x in enumerate(points):
                det = cf.det_oracle(perm, np.exp(2j * np.pi * z), x)
                assert abs(np.exp(complex(v[j], v[3 + j])) - det) < 1e-9


def test_det_oracle_equals_cycle_product():
    rng = np.random.default_rng(11)
    theta = EwensParameter(1.0)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        perm = sample_permutation_crp(n, theta, rng)
        z = np.exp(2j * np.pi * rng.random(n))
        x = rng.random()
        det = cf.det_oracle(perm, z, x)
        prod = cf.cycle_product(perm, z, x)
        assert abs(det - prod) < 1e-9


def test_det_oracle_size_limit():
    # both dense oracles refuse n > 12
    perm = Permutation(13, tuple(range(1, 14)))
    with pytest.raises(ValueError):
        cf.det_oracle(perm, np.ones(13), 0.3)
    with pytest.raises(ValueError):
        cf.sym_char_poly_matrix(perm, 0.3)


def test_sym_char_poly_matches_dense_det_exhaustive_n4():
    xs = np.linspace(-1.9, 1.9, 7)
    for perm in all_permutations(4):
        for x in xs:
            a = cf.sym_char_poly(perm, float(x))
            b = cf.sym_char_poly_matrix(perm, float(x))
            assert a == pytest.approx(b, abs=1e-9)


def test_sym_part_log_sums_match_dense_det_exhaustive():
    # the production path (log_sums of sym_part with every angle 0) against
    # the dense oracle: |det(S - x I)| at x = 2 cos(2 pi a), and a real log
    for n in range(1, 7):
        for perm in all_permutations(n):
            lengths = [len(c) for c in perm.cycles]
            for a in (0.0123, 0.1, 0.2718, 0.37, 0.49):
                real, imag = _one_sample([cf.sym_part()], [a], lengths, np.zeros(len(lengths)))
                want = abs(cf.sym_char_poly_matrix(perm, 2.0 * math.cos(2.0 * math.pi * a)))
                assert math.exp(real) == pytest.approx(want, rel=1e-9), (perm.images, a)
                assert imag == pytest.approx(0.0, abs=1e-12), (perm.images, a)


def test_multipoint_w_shapes_and_determinism():
    # one shared (K,) draw: coordinate j of a d = 2 call equals a d = 1 call at point j
    lengths = [1, 2, 2]
    fs = [cf.char_poly(), cf.sym_part()]
    points = [0.21, 0.77]

    def draw(seed):
        rng = np.random.default_rng(seed)
        return Uniform().sample_T(lengths, np.ones(len(lengths), dtype=int), np.zeros(len(lengths), dtype=int), [rng])

    angles = draw(1)
    assert angles.shape == (3,)
    assert np.array_equal(angles, draw(1))
    vals = _one_sample(fs, points, lengths, angles)
    assert vals.shape == (4,)
    for j in range(2):
        one = _one_sample([fs[j]], [points[j]], lengths, angles)
        assert vals[j] == pytest.approx(one[0]) and vals[2 + j] == pytest.approx(one[1])


def test_multipoint_dimension_mismatch():
    with pytest.raises(ValueError):
        cf.log_sums([cf.char_poly()], [0.1, 0.2], [1], [0.0])
    with pytest.raises(ValueError):
        cf.log_sums([cf.char_poly()] * 2, [0.1, 0.2], [1], np.zeros((3, 1)))
    # a (d, K) array is refused, never broadcast against the points
    with pytest.raises(ValueError):
        cf.log_sums([cf.char_poly()] * 2, [0.1, 0.2], [1, 2], np.zeros((2, 2)))


def test_block_log_sums_equal_per_sample_sums():
    # samples of 1..11 cycles in one call: each row is that sample's own sum,
    # and exactly the samples holding an exact zero are reported
    rng = np.random.default_rng(5)
    fs = [cf.char_poly(), cf.sym_part(), cf.antisym_part()]
    points = [0.25, 0.41, 0.73]
    sizes = rng.integers(1, 12, size=40)
    starts = np.cumsum(sizes) - sizes
    lengths = rng.integers(1, 50, size=sizes.sum())
    angles = rng.random(sizes.sum())
    hits = [0, 3, 17, 39]
    lengths[starts[hits]], angles[starts[hits]] = 4, 0.0  # 4 * 0.25 = 1: f(1) = 0 at point 0
    sums, singular = cf.log_sums(fs, points, lengths, angles, starts)
    assert sums.shape == (40, 6)
    assert np.flatnonzero(singular).tolist() == hits
    for s in sorted(set(range(40)) - set(hits)):
        one = slice(starts[s], starts[s] + sizes[s])
        phi = np.mod(angles[one] + np.outer(points, lengths[one]), 1.0)
        want = np.concatenate([[f.log_abs(p).sum() for f, p in zip(fs, phi)],
                               [f.arg(p).sum() for f, p in zip(fs, phi)]])
        assert np.abs(sums[s] - want).max() <= 1e-12, s


def test_fractional_products_equal_exact_fractions():
    # {L x} against exact rationals for lengths up to and including 2^53, at
    # points near 0, near 1 and subnormal, as a distance on the circle, where
    # 0 and 1 are one angle: np.mod(L x, 1) is off by 0.25-0.5 at 2^53
    rng = np.random.default_rng(7)
    points = [math.sqrt(2.0) - 1.0, math.sqrt(3.0) % 1.0, 1e-300, 5e-324, 1.0 - 2.0 ** -53,
              0.5 + 1e-9, -0.3]
    lengths = np.concatenate([np.arange(1, 100), rng.integers(1, 2 ** 53, 400, endpoint=True),
                              [10 ** 12, 4 * 10 ** 15, 2 ** 53 - 1, 2 ** 53]])
    got = cf._fractional_products(np.array(points), lengths)
    assert got.shape == (len(points), len(lengths))
    for x, row in zip(points, got):
        for L, frac in zip(lengths.tolist(), row.tolist()):
            err = abs(Fraction(frac) - Fraction(L) * Fraction(x) % 1)
            assert min(err, 1 - err) <= 1e-15, (x, L, frac)


def test_permutation_matrix_structure():
    perm = Permutation(3, (2, 3, 1))
    z = np.array([1.0, 2.0, 3.0], dtype=complex)
    M = cf.permutation_matrix(perm, z)
    # column j has one entry z_sigma(j) at row sigma(j)
    assert M[1, 0] == 2.0 and M[2, 1] == 3.0 and M[0, 2] == 1.0
    assert np.count_nonzero(M) == 3


# A stated bound, relative to max(1, |det|), for the dense oracle against the
# exact determinant at n <= 6: eigvalsh gives each eigenvalue of S = P + P^T
# to a few ulps of ||S|| = 2, and next to a root that error is multiplied by
# the other factors lambda - x.  With numpy 2.4 the worst case of the tests
# below reads 4.8e-14 for the spectrum product and 2.9e-14 for LU.
SYM_DET_TOL = 1e-13


def _exact_sym_det(images, x):
    """det(P + P^T - x I) as an exact Fraction, P_ij = 1 when i = sigma(j) built entry by entry:
    with x = p / q, Bareiss elimination on the integer matrix q (P + P^T) - p I, whose
    determinant is q^n times it."""
    p, q = float(x).as_integer_ratio()
    n = len(images)
    a = [[q * ((images[j] == i + 1) + (images[i] == j + 1)) - (p if i == j else 0) for j in range(n)]
         for i in range(n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        r = next((i for i in range(k, n) if a[i][k]), None)
        if r is None:
            return Fraction(0)
        if r != k:
            a[k], a[r], sign = a[r], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev  # an exact division
        prev = a[k][k]
    return Fraction(sign * a[-1][-1], q ** n)


def _assert_near_exact_sym_det(perm, x):
    got, want = cf.sym_char_poly_matrix(perm, x), _exact_sym_det(perm.images, x)
    assert abs(Fraction(got) - want) <= SYM_DET_TOL * max(1, abs(want)), (perm.images, x, got, float(want))


def test_matrices_equal_entrywise_construction():
    # every permutation of n <= 4, against the matrices built entry by entry
    z = np.exp(2j * np.pi * np.array([0.1, 0.35, 0.6, 0.85]))
    for n in range(1, 5):
        for perm in all_permutations(n):
            P = np.zeros((n, n))
            M = np.zeros((n, n), dtype=complex)
            for j, i in enumerate(perm.images):
                P[i - 1, j] = 1.0
                M[i - 1, j] = z[i - 1]
            assert np.array_equal(cf.permutation_matrix(perm, z[:n]), M)
            assert np.array_equal(perm.sym_matrix, P + P.T)
            for x in (-1.5, 0.0, 0.7):
                _assert_near_exact_sym_det(perm, x)


def test_sym_char_poly_matrix_equals_exact_det_next_to_every_root():
    # every permutation of n <= 6, on both sides of each root 2 cos(2 pi k / m),
    # m <= 6, of its cycle factors, where a factor lambda - x nearly cancels
    roots = sorted({round(2.0 * math.cos(2.0 * math.pi * k / m), 12) for m in range(1, 7) for k in range(m)})
    xs = [r + side for r in roots for side in (-1e-9, 1e-9)] + [-1.3, 0.45]
    for n in range(1, 7):
        for perm in all_permutations(n):
            for x in xs:
                _assert_near_exact_sym_det(perm, x)
