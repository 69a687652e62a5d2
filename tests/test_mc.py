import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from permchar import classfuncs, mc
from permchar.ewens import EwensParameter, FellerChain, cycle_groups

SQRT2 = math.sqrt(2.0) % 1.0
SQRT3 = math.sqrt(3.0) % 1.0


def test_derive_stream_reproducible_and_distinct():
    a = mc.derive_stream(5, 3).random(64)
    b = mc.derive_stream(5, 3).random(64)
    assert np.array_equal(a, b)
    c = mc.derive_stream(5, 4).random(64)
    assert not np.array_equal(a, c)


def test_derive_stream_is_the_default_rng_stream():
    # the Generator default_rng builds from the same SeedSequence: the same
    # bit generator state and the same variates
    for seed in (0, 2 ** 31 - 1, 2 ** 63 + 7, 10 ** 30):
        for i in (0, 255, 10 ** 6):
            for retry in (0, 1, 7):
                key = (i,) if retry == 0 else (i, retry)
                want = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
                got = mc.derive_stream(seed, i, retry)
                assert type(got) is type(want) and type(got.bit_generator) is type(want.bit_generator)
                assert got.bit_generator.state == want.bit_generator.state, (seed, i, retry)
                assert np.array_equal(got.random(16), want.random(16)), (seed, i, retry)


def test_derive_stream_collision_scan():
    firsts = {mc.derive_stream(1, i).random() for i in range(10 ** 4)}
    assert len(firsts) == 10 ** 4


def test_ks_statistic_known_values():
    assert mc.ks_statistic(np.zeros(10)) == pytest.approx(0.5)
    g = np.random.default_rng(0).standard_normal(10 ** 4)
    assert mc.ks_statistic(g) <= 1.63 / math.sqrt(10 ** 4)
    with pytest.raises(ValueError):
        mc.ks_statistic(np.array([1.0]))


def test_ks_statistic_matches_ndtr():
    rng = np.random.default_rng(3)
    normal = rng.standard_normal(2000)
    # entries beyond +-10, where the normal CDF saturates at 0 and 1
    wide = np.concatenate([normal[:500], [-40.0, -12.5, -10.0, 10.0, 12.5, 40.0]])
    for x in (normal, rng.random(1000), normal + 0.3, 2.0 * normal - 1.0, wide):
        s = np.sort(x)
        i = np.arange(1, len(s) + 1)
        want = max((i / len(s) - ndtr(s)).max(), (ndtr(s) - (i - 1) / len(s)).max())
        assert abs(mc.ks_statistic(x) - want) <= 1e-15


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
                # x stands for e^{2 pi i x}: these are one point twice
                dict(points=(0.25, 1.25)), dict(points=(0.75, -0.25)),
                dict(model_spec=["uniform"]), dict(function_labels=[1]),
                dict(function_labels="charpoly"),
                # the (num_samples, 2d) table holds at most 2^25 entries
                dict(num_samples=10 ** 12), dict(num_samples=2 ** 24 + 1),
                dict(num_samples=2 ** 23 + 1, points=(0.1, 0.3))):
        cfg = dict(n=10, theta=1.0, points=(0.1,), num_samples=5) | bad
        with pytest.raises(mc.RegimeViolationError):
            mc.validate_config(mc.ExperimentConfig(**cfg))
    # the limit itself is accepted; total-cycles has two columns whatever the points
    for points, kind, num_samples in (((0.1,), "logZ", 2 ** 24), ((0.1, 0.3), "logZ", 2 ** 23),
                                      ((0.1, 0.3), "total-cycles", 2 ** 24)):
        mc.validate_config(mc.ExperimentConfig(n=10, theta=1.0, points=points, kind=kind,
                                               num_samples=num_samples))


def test_trivial_model_requires_finite_type_point():
    cfg = mc.ExperimentConfig(n=10, theta=1.0, points=(0.5,), kind="logZ",
                              model_spec={"type": "trivial"})
    with pytest.raises(mc.RegimeViolationError):
        mc.validate_config(cfg)
    ok = mc.ExperimentConfig(n=10, theta=1.0, points=(SQRT2,), kind="logZ",
                             model_spec={"type": "trivial"})
    mc.validate_config(ok)
    # every pair is searched, at any d: q = (2, -1) gives 2 x_1 - x_2 = 0 mod 1
    # whatever the third point
    sqrt5 = math.sqrt(5.0) % 1.0
    for points in ((SQRT2, 2 * SQRT2 % 1.0), (SQRT2, 2 * SQRT2 % 1.0, SQRT3)):
        with pytest.raises(mc.RegimeViolationError, match="pairwise"):
            mc.validate_config(dataclasses.replace(ok, points=points))
    mc.validate_config(dataclasses.replace(ok, points=(SQRT2, SQRT3, sqrt5)))


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
    assert mc.model_from_spec({"type": "discrete", "rho": 2, "coeffs": [1.0, 0.5]}).rho == 2
    for rho in (2.5, 2.0, "2", True, 0, None):
        with pytest.raises(mc.RegimeViolationError, match="rho"):
            mc.model_from_spec({"type": "discrete", "rho": rho, "probs": [0.5, 0.5]})
    with pytest.raises(ValueError, match="probs or coeffs"):
        mc.model_from_spec({"type": "discrete", "rho": 2})


def test_discrete_coeffs_take_re_im_pairs():
    # an asymmetric law on the cube roots has a complex DFT
    c1 = np.fft.fft([0.5, 0.3, 0.2])[1]
    m = mc.model_from_spec({"type": "discrete", "rho": 3,
                            "coeffs": [1, [c1.real, c1.imag], [c1.real, -c1.imag]]})
    assert np.max(np.abs(m.probs - [0.5, 0.3, 0.2])) <= 1e-12
    for coeffs in ([1, [0.25]], [1, [0.25, math.nan], [0.25, 0.0]], [1, "0.5", 0.5]):
        with pytest.raises(mc.RegimeViolationError, match="coefficient"):
            mc.model_from_spec({"type": "discrete", "rho": len(coeffs), "coeffs": coeffs})
    # probabilities stay real
    with pytest.raises(mc.RegimeViolationError, match="probs"):
        mc.model_from_spec({"type": "discrete", "rho": 2, "probs": [[0.5, 0.0], 0.5]})


def test_singular_counter_zero_in_regular_regime():
    cfg = mc.ExperimentConfig(n=200, theta=1.0, points=(SQRT2,), kind="w2",
                              model_spec={"type": "uniform"}, num_samples=100,
                              master_seed=8)
    r = mc.run_experiment(cfg)
    assert r.singular_rejections == 0


def test_singular_sample_is_redrawn_from_the_retry_stream(monkeypatch):
    cfg = mc.ExperimentConfig(n=200, theta=1.0, points=(SQRT2, SQRT3), kind="w2",
                              model_spec={"type": "uniform"}, num_samples=20, master_seed=4)
    clean = mc.run_experiment(cfg)
    fs, model = mc.validate_config(cfg)
    chain = FellerChain(cfg.n, EwensParameter(cfg.theta))
    (_, streams, groups), = mc._draw_blocks(chain, cfg.master_seed, [0], 1)
    raw0 = mc._eval_block(cfg, fs, model, streams, groups)[0]
    log_sums = classfuncs.log_sums
    calls = []

    def singular_once(*args):
        calls.append(None)
        sums, singular = log_sums(*args)
        if len(calls) == 1:  # the first draw of sample 0
            singular[0] = True
        return sums, singular

    monkeypatch.setattr(classfuncs, "log_sums", singular_once)
    r = mc.run_experiment(cfg)
    assert r.singular_rejections == 1
    assert np.array_equal(r.samples[1:], clean.samples[1:])
    assert np.array_equal(r.samples[0], mc._normalize(cfg, fs, raw0)[0][0])
    assert not np.array_equal(r.samples[0], clean.samples[0])


def test_singular_rate_above_the_cap_is_a_regime_violation(monkeypatch):
    cfg = mc.ExperimentConfig(n=50, theta=1.0, points=(SQRT2,), num_samples=10, master_seed=2)
    log_sums = classfuncs.log_sums
    calls = []

    def always_singular(*args):  # the first sample of every call: sample 0, every draw
        calls.append(None)
        sums, singular = log_sums(*args)
        singular[0] = True
        return sums, singular

    monkeypatch.setattr(classfuncs, "log_sums", always_singular)
    with pytest.raises(mc.RegimeViolationError, match="singular-sample rate"):
        mc.run_experiment(cfg)
    assert len(calls) == 2  # the cap is max(1, 0.1% of 10 samples) = 1 rejection


def _per_sample_raw(cfg, fs, model, chain, i):
    """Sample i drawn and summed on its own: the reference for the blocks."""
    rng = mc.derive_stream(cfg.master_seed, i)
    lengths, mults, row = cycle_groups([chain.ones(rng)], cfg.n)
    cycle_lengths = np.repeat(lengths, mults)
    if cfg.kind == "total-cycles":
        return np.array([len(cycle_lengths), 0.0])
    angles = model.sample_T(np.ones_like(lengths) if cfg.kind == "w1" else lengths, mults, row, [rng])
    if cfg.kind == "logZ":
        angles = -angles
    phi = np.mod(angles + classfuncs._fractional_products(np.array(cfg.points), cycle_lengths), 1.0)
    return np.concatenate([[f.log_abs(p).sum() for f, p in zip(fs, phi)],
                           [f.arg(p).sum() for f, p in zip(fs, phi)]])


def test_blocks_equal_a_per_sample_loop():
    # two full blocks and a part of one, for every law and kind
    discrete = {"type": "discrete", "rho": 3, "probs": [0.5, 0.3, 0.2]}
    fourier = {"type": "fourier", "coeffs": {"1": 0.3, "-1": 0.3}}
    runs = [("logZ", spec, None) for spec in ({"type": "uniform"}, {"type": "trivial"}, discrete, fourier)]
    runs += [("w1", discrete, None), ("w2", {"type": "uniform"}, ("sympart", "antisympart")),
             ("total-cycles", {"type": "uniform"}, None)]
    for seed, (kind, spec, labels) in enumerate(runs):
        points = () if kind == "total-cycles" else (SQRT2, SQRT3)
        cfg = mc.ExperimentConfig(n=200, theta=1.3, points=points, kind=kind, function_labels=labels,
                                  model_spec=spec, num_samples=2 * mc._BLOCK + 3, master_seed=seed)
        fs, model = mc.validate_config(cfg)
        chain = FellerChain(cfg.n, EwensParameter(cfg.theta))
        raw = np.array([_per_sample_raw(cfg, fs, model, chain, i) for i in range(cfg.num_samples)])
        got = mc.run_experiment(cfg).samples
        assert np.abs(got - mc._normalize(cfg, fs, raw)[0]).max() <= 1e-13, (kind, spec)


def test_empirical_centering_subtracts_the_column_means():
    base = dict(n=300, theta=1.3, points=(SQRT2, SQRT3), kind="logZ",
                model_spec={"type": "uniform"}, num_samples=50, master_seed=11)
    none = mc.run_experiment(mc.ExperimentConfig(**base, centering="none")).samples
    emp = mc.run_experiment(mc.ExperimentConfig(**base, centering="empirical")).samples
    assert np.allclose(emp, none - none.mean(axis=0), rtol=0.0, atol=1e-12)
    assert np.abs(emp.mean(axis=0)).max() <= 1e-12


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


def test_ks_is_null_exactly_where_a_coordinate_is_not_normalized():
    # sympart has V_I = 0: its Im column is identically 0 and stays unscaled
    w2 = mc.ExperimentConfig(n=1000, theta=1.0, points=(SQRT2, SQRT3), kind="w2",
                             function_labels=("sympart", "antisympart"), num_samples=200,
                             master_seed=1, centering="theoretical")
    ks = mc.run_experiment(w2).to_dict()["ks"]
    assert ks[2] is None and all(isinstance(ks[j], float) for j in (0, 1, 3))
    # total-cycles passes its (K_n, 0) columns through as they are
    total = mc.ExperimentConfig(n=1000, theta=1.0, points=(), kind="total-cycles",
                                num_samples=50, master_seed=3)
    assert mc.run_experiment(total).to_dict()["ks"] == [None, None]
    # every coordinate normalized: a float array, as before
    logz = mc.ExperimentConfig(n=1000, theta=1.0, points=(SQRT2,), num_samples=50, master_seed=3)
    assert mc.run_experiment(logz).ks.dtype == float


def test_result_json_roundtrip_is_deterministic():
    cfg = mc.ExperimentConfig(n=60, theta=1.0, points=(SQRT2,), kind="w1",
                              model_spec={"type": "uniform"}, num_samples=25,
                              master_seed=9)
    d1 = mc.run_experiment(cfg).to_dict()
    d2 = mc.run_experiment(cfg).to_dict()
    assert d1 == d2
    assert "wall_time" not in d1


def test_large_n_run_holds_no_array_of_n():
    # chain and T_m are read in chunks: a run at n = 4e6 never holds O(n) floats
    # (one array of n floats would be 32 MB)
    cfg = mc.ExperimentConfig(n=4 * 10 ** 6, theta=1.0, points=(SQRT2,), num_samples=2, master_seed=3)
    tracemalloc.start()
    try:
        mc.run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_a_block_of_many_cycles_closes_early():
    # at theta = 1000 a sample has about 4,600 cycles: 100 samples in one
    # log_sums call would peak near 50 MB, a block closed at CHUNK cycles near 9 MB
    cfg = mc.ExperimentConfig(n=10 ** 5, theta=1000.0, points=(SQRT2,), num_samples=100, master_seed=1)
    tracemalloc.start()
    try:
        mc.run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
