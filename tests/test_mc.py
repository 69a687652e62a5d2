import math

import numpy as np
import pytest

from permchar import mc

SQRT2 = math.sqrt(2.0) % 1.0
SQRT3 = math.sqrt(3.0) % 1.0


def test_derive_stream_reproducible_and_distinct():
    a = mc.derive_stream(5, 3).random(64)
    b = mc.derive_stream(5, 3).random(64)
    assert np.array_equal(a, b)
    c = mc.derive_stream(5, 4).random(64)
    assert not np.array_equal(a, c)


def test_derive_stream_collision_scan():
    firsts = {mc.derive_stream(1, i).random() for i in range(10 ** 4)}
    assert len(firsts) == 10 ** 4


def test_ks_statistic_known_values():
    assert mc.ks_statistic(np.zeros(10)) == pytest.approx(0.5)
    g = np.random.default_rng(0).standard_normal(10 ** 4)
    assert mc.ks_statistic(g) <= 1.63 / math.sqrt(10 ** 4)
    with pytest.raises(ValueError):
        mc.ks_statistic(np.array([1.0]))


def test_empirical_cov_identical_columns():
    x = np.random.default_rng(1).standard_normal(500)
    cov = mc.empirical_cov(np.stack([x, x], axis=1))
    corr = cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1])
    assert corr == pytest.approx(1.0)


def test_empirical_cov_independent_columns():
    x = np.random.default_rng(2).standard_normal((4000, 2))
    cov = mc.empirical_cov(x)
    assert abs(cov[0, 1]) <= 0.08


def test_empirical_cov_constant_column():
    x = np.stack([np.ones(100), np.arange(100.0)], axis=1)
    cov = mc.empirical_cov(x)
    assert cov[0, 0] == 0.0 and cov[0, 1] == 0.0


def test_run_experiment_deterministic_single_sample():
    cfg = mc.ExperimentConfig(n=50, theta=1.0, points=(SQRT2,), kind="logZ",
                              model_spec={"type": "trivial"}, num_samples=1,
                              master_seed=17)
    r1 = mc.run_experiment(cfg)
    r2 = mc.run_experiment(cfg)
    assert np.array_equal(r1.samples, r2.samples)
    assert r1.samples.shape == (1, 2)


def test_validate_config_rejects_bad_inputs():
    with pytest.raises(mc.RegimeViolationError):
        mc.validate_config(mc.ExperimentConfig(n=10, theta=1.0, points=(0.1, 0.1)))
    with pytest.raises(mc.RegimeViolationError):
        mc.validate_config(mc.ExperimentConfig(n=10, theta=-1.0, points=(0.1,)))
    with pytest.raises(mc.RegimeViolationError):
        mc.validate_config(mc.ExperimentConfig(n=10, theta=1.0, points=(0.1,),
                                               kind="bogus"))
    with pytest.raises(mc.RegimeViolationError):
        mc.validate_config(mc.ExperimentConfig(n=10, theta=1.0, points=()))
    for bad in (dict(n=1), dict(n="100"), dict(n=10.0), dict(theta=float("nan")),
                dict(theta="1"), dict(num_samples=0), dict(num_samples=2.5),
                dict(kind="multipoint"), dict(points=0.3), dict(points=(float("nan"),)),
                dict(points=("0.3",)), dict(master_seed=1.5), dict(master_seed=-1),
                dict(model_spec=["uniform"]), dict(function_labels=[1]),
                dict(function_labels="charpoly")):
        cfg = dict(n=10, theta=1.0, points=(0.1,), num_samples=5) | bad
        with pytest.raises(mc.RegimeViolationError):
            mc.validate_config(mc.ExperimentConfig(**cfg))


def test_trivial_model_requires_finite_type_point():
    cfg = mc.ExperimentConfig(n=10, theta=1.0, points=(0.5,), kind="logZ",
                              model_spec={"type": "trivial"})
    with pytest.raises(mc.RegimeViolationError):
        mc.validate_config(cfg)
    ok = mc.ExperimentConfig(n=10, theta=1.0, points=(SQRT2,), kind="logZ",
                             model_spec={"type": "trivial"})
    mc.validate_config(ok)


def test_nearby_points_read_the_same_matrix():
    # both coordinates share one multiplier draw per cycle, so points 1e-9
    # apart give almost the same log Z in every sample, whatever the seed
    cfg = mc.ExperimentConfig(n=1000, theta=1.0, points=(SQRT2, SQRT2 + 1e-9), kind="logZ",
                              model_spec={"type": "uniform"}, num_samples=200,
                              master_seed=1)
    r = mc.run_experiment(cfg)
    corr = r.cov[0, 1] / math.sqrt(r.cov[0, 0] * r.cov[1, 1])
    assert corr > 0.99


def test_model_from_spec_variants():
    assert mc.model_from_spec({"type": "uniform"}).__class__.__name__ == "Uniform"
    assert mc.model_from_spec({"type": "trivial"}).__class__.__name__ == "Trivial"
    m = mc.model_from_spec({"type": "discrete", "rho": 2, "probs": [0.5, 0.5]})
    assert m.rho == 2
    f = mc.model_from_spec({"type": "fourier", "coeffs": {"1": 0.3, "-1": 0.3}})
    assert f.coeffs[1] == 0.3
    with pytest.raises(mc.RegimeViolationError):
        mc.model_from_spec({"type": "nope"})
    g = mc.model_from_spec({"type": "fourier", "coeffs": {"1": [0.2, 0.1], "-1": [0.2, -0.1]}})
    assert g.coeffs[1] == complex(0.2, 0.1)
    for coeffs in ([0.3], {"1": [0.3]}, {"1": "0.3"}, {"1": [0.3, float("nan")]}, None):
        with pytest.raises(mc.RegimeViolationError):
            mc.model_from_spec({"type": "fourier", "coeffs": coeffs})


def test_singular_counter_zero_in_regular_regime():
    cfg = mc.ExperimentConfig(n=200, theta=1.0, points=(SQRT2,), kind="w2",
                              model_spec={"type": "uniform"}, num_samples=100,
                              master_seed=8)
    r = mc.run_experiment(cfg)
    assert r.singular_rejections == 0


def test_variance_trend_at_n_1000():
    # normalized Re-part variance within [0.7, 1.3] at n = 1000
    cfg = mc.ExperimentConfig(n=1000, theta=1.0, points=(SQRT2,), kind="logZ",
                              model_spec={"type": "uniform"}, num_samples=4000,
                              master_seed=30)
    r = mc.run_experiment(cfg)
    assert 0.7 <= r.var[0] <= 1.3


def test_total_cycles_statistic_mean():
    cfg = mc.ExperimentConfig(n=500, theta=2.0, points=(), kind="total-cycles",
                              num_samples=4000, master_seed=6)
    r = mc.run_experiment(cfg)
    exact = sum(2.0 / (2.0 + i) for i in range(500))
    assert r.raw_mean[0] == pytest.approx(exact, rel=0.02)


def test_result_json_roundtrip_is_deterministic():
    cfg = mc.ExperimentConfig(n=60, theta=1.0, points=(SQRT2,), kind="w1",
                              model_spec={"type": "uniform"}, num_samples=25,
                              master_seed=9)
    d1 = mc.run_experiment(cfg).to_dict()
    d2 = mc.run_experiment(cfg).to_dict()
    assert d1 == d2
    assert "wall_time" not in d1
