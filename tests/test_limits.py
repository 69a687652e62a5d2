import math

import numpy as np
import pytest

from permchar import classfuncs as cf
from permchar import limits

PI2_12 = math.pi ** 2 / 12.0


def test_tanh_sinh_polynomial():
    val = limits.singular_quadrature(lambda t: 3.0 * t ** 2, ())
    assert val == pytest.approx(1.0, abs=1e-12)


def test_tanh_sinh_log_singularity():
    # integral of log(t) on (0, 1) = -1, singular at the left endpoint
    val = limits.singular_quadrature(np.log, (0.0,))
    assert val == pytest.approx(-1.0, abs=1e-10)


def test_charpoly_constants():
    c = limits.limit_constants(cf.char_poly())
    assert abs(c.m_R) < 1e-8
    assert abs(c.m_I) < 1e-8
    assert c.V_R == pytest.approx(PI2_12, abs=1e-12)
    assert c.V_I == pytest.approx(PI2_12, abs=1e-12)


def test_sympart_constants():
    # 2 log(2 sin(pi phi)) integrates to 0 and its square to pi^2/3
    c = limits.limit_constants(cf.sym_part())
    assert abs(c.m_R) <= 1e-12
    assert c.V_R == pytest.approx(math.pi ** 2 / 3.0, abs=1e-12)
    assert c.m_I == 0.0 and c.V_I == 0.0  # f is nonnegative real: no argument at all


def test_antisympart_mean():
    # log|2 - 2i sin(2 pi phi)| = log 2 + log(1 + sin^2)/2 integrates to asinh 1
    c = limits.limit_constants(cf.antisym_part())
    assert c.m_R == pytest.approx(math.asinh(1.0), abs=1e-12)


def test_quadrature_raises_on_a_nan_integrand():
    with pytest.raises(limits.QuadratureError):
        limits.singular_quadrature(lambda t: np.full_like(t, np.nan))


def test_constant_function_constants():
    c = limits.limit_constants(cf.constant(2.0))
    assert c.m_R == pytest.approx(math.log(2.0), abs=1e-10)
    assert c.V_R == pytest.approx(math.log(2.0) ** 2, abs=1e-10)
    assert c.m_I == pytest.approx(0.0, abs=1e-12)


def test_quadrature_matches_riemann_oracle():
    # midpoint Riemann oracle on the singular charpoly integrand
    f = cf.char_poly()
    grid = (np.arange(10 ** 6) + 0.5) / 10 ** 6
    riemann = float((np.log(np.abs(1.0 - np.exp(-2j * np.pi * grid))) ** 2).mean())
    quad = limits.singular_quadrature(lambda t: f.log_abs(t) ** 2, (0.0,))
    assert quad == pytest.approx(riemann, abs=1e-4)


def test_covariance_matrix_charpoly_two_points():
    spec = limits.covariance_matrix([cf.char_poly(), cf.char_poly()], theta=1.0)
    full = spec.full_matrix()
    assert full.shape == (4, 4)
    assert np.allclose(np.diag(full), PI2_12, atol=1e-6)
    off = full - np.diag(np.diag(full))
    assert np.abs(off).max() < 1e-6


def test_normalization_and_centering():
    c = limits.limit_constants(cf.char_poly())
    norm = limits.normalization(10 ** 4, 1.0, c.V_R)
    assert norm == pytest.approx(math.sqrt(PI2_12 * math.log(10 ** 4)), rel=1e-6)
    cent = limits.centering(10 ** 4, 1.0, c)
    assert abs(cent) < 1e-6
    with pytest.raises(ValueError):
        limits.normalization(1, 1.0, c.V_R)
    with pytest.raises(ValueError):
        limits.centering(1, 1.0, c)


def test_a_vector_integrand_equals_its_scalar_rows():
    rows = [np.log, lambda t: np.cos(3.0 * t), lambda t: t ** 2 * np.log(1.0 - t)]
    for interval, cuts in (((0.0, 1.0), ()), ((0.0, 1.0), (0.3,)), ((0.2, 0.9), (0.5,))):
        vec = limits.singular_quadrature(lambda t: np.array([u(t) for u in rows]), cuts, interval)
        assert vec.shape == (3,)
        for u, v in zip(rows, vec):
            assert abs(v - limits.singular_quadrature(u, cuts, interval)) <= 1e-15


@pytest.mark.parametrize("label", ["charpoly", "sympart", "antisympart", "const:2", "const:-3"])
def test_limit_constants_evaluate_f_once_per_level(label):
    # one pass: each level calls log_abs and arg once, on its 2^(level+1) + 1 nodes
    f = cf.spectral_function_by_label(label)
    sizes = {"log_abs": [], "arg": []}

    def counted(name):
        def call(p):
            sizes[name].append(len(p))
            return getattr(f, name)(p)
        return call

    limits.limit_constants(cf.SpectralFunction(counted("log_abs"), counted("arg"), f.label))
    levels = range(3, 3 + len(sizes["log_abs"]))
    assert sizes["log_abs"] == sizes["arg"] == [2 ** (lv + 1) + 1 for lv in levels]


@pytest.mark.parametrize("label", ["charpoly", "sympart", "antisympart", "const:-3"])
def test_covariance_of_one_function_reads_its_constants(label):
    f, theta = cf.spectral_function_by_label(label), 2.7
    c = limits.limit_constants(f)
    spec = limits.covariance_matrix([f], theta)
    assert spec.re_re[0, 0] == theta * c.V_R and spec.im_im[0, 0] == theta * c.V_I
    cross = limits.singular_quadrature(lambda p: f.log_abs(p) * f.arg(p))
    assert abs(spec.re_im[0, 0] - theta * cross) <= 1e-14


def test_quadrature_raises_on_a_nan_row():
    with pytest.raises(limits.QuadratureError):
        limits.singular_quadrature(lambda t: np.array([t, np.where(t > 0.5, np.nan, t)]))


def test_quadrature_never_evaluates_the_endpoints():
    # NaN exactly at a and b: every node lies strictly inside
    for a, b in ((0.0, 1.0), (0.25, 0.75)):
        u = lambda t: np.where((t == a) | (t == b), np.nan, 2.0)
        assert limits.singular_quadrature(u, (), (a, b)) == pytest.approx(2.0 * (b - a), rel=1e-14)
