import math

import numpy as np
import pytest

from permchar import classfuncs, mc
from permchar import multipliers as mult
from permchar.ewens import (EwensParameter, FellerChain, chain_probabilities, cycle_groups,
                            sample_feller_chain)
from permchar.multipliers import (DiscreteRoots, FourierDensity, InvalidCoefficientsError,
                                  Trivial, Uniform)


def _one(model, ms, counts, stream):
    """model.sample_T on a block of one sample, row 0, drawn from `stream`."""
    return model.sample_T(ms, counts, [0, len(ms)], [stream])


def test_discrete_probs_roundtrip():
    probs = np.array([0.5, 0.3, 0.2])
    coeffs = DiscreteRoots(3, probs=probs).coeffs
    assert coeffs[0] == pytest.approx(1.0)
    back = DiscreteRoots(3, coeffs=coeffs).probs
    assert np.allclose(back, probs, atol=1e-12)


def test_discrete_probs_validation():
    for rho, table in (
            (2, dict(coeffs=[0.9, 0.0])),  # c_0 != 1
            (2, dict(coeffs=[1.0, 1.5])),  # negative prob
            # not Hermitian: c_2 != conj(c_1), so the inverse DFT is complex
            (3, dict(coeffs=[1.0, 0.5, 0.0])),
            (2, dict(probs=[[0.3], [0.7]])),  # nested
            (2, dict(probs=[np.nan, 1.0])),
            (3, dict(probs=[0.5, 0.5])),  # wrong length
            (1, dict(probs=1.0))):  # a scalar, not a table
        with pytest.raises(InvalidCoefficientsError):
            DiscreteRoots(rho, **table)
    with pytest.raises(ValueError, match="rho must be >= 1"):
        DiscreteRoots(0, probs=[])


def test_discrete_point_mass_T_is_exact_at_large_m():
    # a point mass on the root k gives T_m = k m / rho (mod 1), with no draw
    # left to chance: c^m drifts by O(m eps) only, far below these uniforms
    class Uniforms:
        def random(self, size):
            return np.linspace(1e-6, 1.0 - 1e-6, size)

    for rho in (2, 3, 5, 7):
        for k in range(rho):
            model = DiscreteRoots(rho, probs=np.eye(rho)[k])
            for m in (1, 2, rho, 30_000, 300_001, 10 ** 8 + 7):
                got = _one(model, [m], [101], Uniforms())
                assert np.array_equal(got, np.full(101, k * m % rho / rho)), (rho, k, m)


def test_trivial_model():
    rng = np.random.default_rng(0)
    m = Trivial()
    assert np.all(_one(m, [1], [5], rng) == 0.0)
    assert np.array_equal(_one(m, [7, 2], [5, 3], rng), np.zeros(8))


def test_uniform_product_is_uniform():
    rng = np.random.default_rng(1)
    t = _one(Uniform(), [3], [20000], rng)
    assert 0.0 <= t.min() and t.max() < 1.0
    hist, _ = np.histogram(t, bins=10, range=(0, 1))
    assert np.abs(hist - 2000).max() < 5 * np.sqrt(2000)


def test_uniform_z_is_the_plain_uniform_stream():
    # z is T_1, and w1 relies on T_1 drawing exactly rng.random(k)
    z = _one(Uniform(), [1], [9], np.random.default_rng(11))
    assert np.array_equal(z, np.random.default_rng(11).random(9))


def test_fourier_density_rejects_bad_coeffs():
    with pytest.raises(InvalidCoefficientsError):
        FourierDensity({0: 1.0, 1: 1.2})
    with pytest.raises(InvalidCoefficientsError):
        FourierDensity({0: 0.5})


def test_fourier_validation_grid_resolves_the_top_frequency():
    # 1 + 1.8 cos(2 pi 4096 phi) is a constant on 4096 points, negative on 32 % of the circle
    with pytest.raises(InvalidCoefficientsError, match="negative"):
        FourierDensity({4096: 0.9, -4096: 0.9})
    with pytest.raises(InvalidCoefficientsError, match="limit"):
        FourierDensity({2 ** 14 + 1: 0.1, -(2 ** 14 + 1): 0.1})
    # 1 + cos(2 pi phi) touches 0 at phi = 1/2 and is a density
    FourierDensity({1: 0.5, -1: 0.5})
    FourierDensity({2 ** 14: 0.5, -(2 ** 14): 0.5})


def test_fourier_density_sampling_matches_density():
    # g(phi) = 1 + 0.8 cos(2 pi phi): c_1 = c_{-1} = 0.4
    model = FourierDensity({1: 0.4, -1: 0.4})
    rng = np.random.default_rng(5)
    z = _one(model, [1], [50000], rng)
    # E[cos(2 pi z)] = 0.4 for this density
    est = np.cos(2 * np.pi * z).mean()
    assert est == pytest.approx(0.4, abs=0.01)


def test_fourier_density_product_coefficients():
    model = FourierDensity({1: 0.4, -1: 0.4})
    rng = np.random.default_rng(6)
    t = _one(model, [3], [50000], rng)
    assert np.cos(2 * np.pi * t).mean() == pytest.approx(0.4 ** 3, abs=0.01)
    # E[e^{-2 pi i k T_m}] = c_k^m, with a complex c_1 so phases are checked too
    c1 = 0.3 + 0.2j
    model = FourierDensity({1: c1, -1: c1.conjugate(), 2: 0.1, -2: 0.1})
    n = 200_000
    for m in (1, 2, 3, 5):
        t = _one(model, [m], [n], rng)
        for k in (1, 2):
            est = np.exp(-2j * np.pi * k * t).mean()
            assert abs(est - model.coeffs[k] ** m) < 5 / np.sqrt(n)


def test_discrete_roots_product_law():
    model = DiscreteRoots(4, probs=np.array([0.4, 0.3, 0.2, 0.1]))
    p2 = model.product_probs([2])[0]
    # direct convolution oracle on Z/4
    direct = np.zeros(4)
    for a in range(4):
        for b in range(4):
            direct[(a + b) % 4] += model.probs[a] * model.probs[b]
    assert np.allclose(p2, direct, atol=1e-12)


def test_discrete_roots_samples_on_lattice():
    model = DiscreteRoots(3, probs=np.array([0.2, 0.5, 0.3]))
    rng = np.random.default_rng(2)
    z = _one(model, [1], [1000], rng)
    assert set(np.round(z * 3).astype(int)) <= {0, 1, 2}


def test_sample_joint_cycle_shares_cycle_length():
    rng = np.random.default_rng(4)
    # T_0 is the empty product, angle 0, for every law except the Fourier
    # one, whose c_j^0 = 1 are not the coefficients of a density
    for model in (Trivial(), Uniform(), DiscreteRoots(3, probs=np.array([0.2, 0.5, 0.3]))):
        assert np.all(_one(model, [0], [3], rng) == 0.0)
    with pytest.raises(ValueError):
        _one(FourierDensity({1: 0.4, -1: 0.4}), [0], [1], rng)


def test_uniform_T_reads_one_uniform_per_cycle_past_CHUNK():
    # up to CHUNK uniforms in all, the (m, size) block summed as numpy sums
    # it; past that stream.random(sum of counts), the stream left where that
    # call leaves it
    C = mult.CHUNK
    cases = [([m], [size]) for m in (0, 1, C - 1, C, C + 1, 2 * C + 3, 10 ** 6 + 3)
             for size in (1, 2, 3, 17)]
    cases += [([1, 2, C // 2], [4, 1, 2]), ([1, 2, C // 2], [4, 3, 2]), ([1, 6], [C + 9, 2])]
    for ms, counts in cases:
        for seed in range(2):
            block, ours = np.random.default_rng(seed), np.random.default_rng(seed)
            if np.dot(ms, counts) <= C:
                want = np.mod(np.concatenate([block.random((m, c)).sum(axis=0)
                                              for m, c in zip(ms, counts)]), 1.0)
            else:
                want = block.random(sum(counts))
            assert np.array_equal(_one(Uniform(), ms, counts, ours), want), (ms, counts, seed)
            assert ours.random() == block.random()


def test_discrete_T_equals_stream_choice():
    # one call for all blocks draws what stream.choice draws block by block
    ms = [1, 2, 3, 7, 30, 59] * 4
    sizes = [1, 2, 5, 17] * 6
    for rho, probs in ((1, [1.0]), (2, [0.3, 0.7]), (3, [0.5, 0.25, 0.25]),
                       (5, [0.1, 0.2, 0.3, 0.15, 0.25])):
        model = DiscreteRoots(rho, probs=np.array(probs))
        for seed in range(4):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            want = np.concatenate([ref.choice(rho, size=size, p=model.product_probs([m])[0]) / rho
                                   for m, size in zip(ms, sizes)])
            assert np.array_equal(_one(model, ms, sizes, ours), want), (rho, seed)
            assert ours.random() == ref.random()


def _per_length_T(model, m, c, stream, size):
    """c draws of T_m as the laws drew them, one call per cycle length;
    `size` is the sample's sum of m * c."""
    if isinstance(model, Trivial):
        return np.zeros(c)
    if isinstance(model, Uniform):
        return stream.random(c) if size > mult.CHUNK else np.mod(stream.random((m, c)).sum(axis=0), 1.0)
    if isinstance(model, DiscreteRoots):
        return stream.choice(model.rho, size=c, p=model.product_probs([m])[0]) / model.rho
    envelope = sum(abs(a ** m) for a in model.coeffs.values())
    out = np.empty(0)
    while len(out) < c:
        prop = stream.random(c - len(out))
        accept = stream.random(c - len(out)) * envelope < model.density(prop, m).real
        out = np.append(out, prop[accept])
    return out


def test_one_call_equals_per_length_calls():
    # a sample's draws in one call: bit for bit those of one call per length,
    # in the same order, and the stream left where those calls leave it
    C = mult.CHUNK
    models = (Trivial(), Uniform(), DiscreteRoots(3, probs=np.array([0.5, 0.3, 0.2])),
              FourierDensity({1: 0.3 + 0.1j, -1: 0.3 - 0.1j}))
    theta = EwensParameter(1.0)
    cases = []
    for n, seed in ((200, 0), (10 ** 4, 1), (10 ** 4, 2), (10 ** 5, 3)):
        lengths, mults, _ = cycle_groups([FellerChain(n, theta).ones(np.random.default_rng(seed))], n)
        cases += [(lengths, mults),  # logZ and w2 read T_m
                  (np.ones_like(lengths), mults)]  # w1 reads z = T_1
    # samples of more than CHUNK uniforms: one block with m > CHUNK, c > CHUNK, and neither
    cases += [([1, 2, C + 3, 5, 3], [4, 1, 1, 2, 7]), ([C // 3, 1, 4], [5, 2, 3]), ([1, 6], [C + 9, 2])]
    for ms, counts in cases:
        for model in models:
            ours, ref = np.random.default_rng(7), np.random.default_rng(7)
            got = _one(model, ms, counts, ours)
            size = int(np.dot(ms, counts))
            want = np.concatenate([_per_length_T(model, int(m), int(c), ref, size)
                                   for m, c in zip(ms, counts)])
            assert np.array_equal(got, want), (type(model).__name__, ms, counts)
            assert ours.random() == ref.random()


def _v1_sample(cfg, model, i):
    """Sample i's cycle lengths, angles and stream as a sample was drawn on
    its own: its chain (dense up to CHUNK), np.unique of its gaps, then one
    T_m call per cycle length from the same stream."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(i,)))
    theta = EwensParameter(cfg.theta)
    if cfg.n <= mult.CHUNK:
        ones = np.flatnonzero(sample_feller_chain(chain_probabilities(cfg.n, theta), rng))
    else:  # the thinned tail
        ones = FellerChain(cfg.n, theta).ones(rng)
    lengths, mults = np.unique(np.diff(np.append(ones, cfg.n)), return_counts=True)
    if cfg.kind == "total-cycles":
        return np.repeat(lengths, mults), None, rng
    ms = np.ones_like(lengths) if cfg.kind == "w1" else lengths
    size = int(np.dot(ms, mults))
    angles = np.concatenate([_per_length_T(model, m, c, rng, size)
                             for m, c in zip(ms.tolist(), mults.tolist())])
    return np.repeat(lengths, mults), -angles if cfg.kind == "logZ" else angles, rng


def test_block_draws_equal_per_sample_draws(monkeypatch):
    # the block pass hands log_sums each sample's cycle lengths and angles
    # bit for bit as a sample drawn on its own has them, and leaves each
    # stream where that sample's draws leave it
    sqrt2, sqrt3 = math.sqrt(2.0) % 1.0, math.sqrt(3.0) % 1.0
    laws = ({"type": "trivial"}, {"type": "uniform"},
            {"type": "discrete", "rho": 3, "probs": [0.5, 0.3, 0.2]},
            {"type": "fourier", "coeffs": {"1": [0.3, 0.1], "-1": [0.3, -0.1]}})
    rho = 4096  # tables made a slab of CHUNK // rho distinct lengths at a time
    wide = {"type": "discrete", "rho": rho, "probs": (np.arange(rho) % 7 / (3 * rho)).tolist()}
    wide["probs"][0] += 1.0 - math.fsum(wide["probs"])
    runs = [(kind, law, 200, 1.3, 2 * mc._BLOCK + 3) for kind in ("logZ", "w1", "w2") for law in laws]
    runs += [("total-cycles", {"type": "uniform"}, 200, 1.3, 2 * mc._BLOCK + 3)]
    runs += [("logZ", law, mult.CHUNK + 5000, 1.0, 5) for law in laws]  # one uniform per cycle
    runs += [("w1", law, 2 * 10 ** 4, 1000.0, 40) for law in laws[1:3]]  # blocks close at CHUNK cycles
    runs += [("logZ", wide, 2000, 2.0, 40)]
    calls = []

    def capture(fs, points, lengths, angles, starts):
        calls.append((lengths, angles, starts))
        return log_sums(fs, points, lengths, angles, starts)

    log_sums = classfuncs.log_sums
    monkeypatch.setattr(classfuncs, "log_sums", capture)
    for seed, (kind, law, n, theta, count) in enumerate(runs):
        points, labels = (sqrt2, sqrt3), None
        if kind == "w2":
            labels = ("sympart", "antisympart")
        elif kind == "total-cycles":
            points = ()
        cfg = mc.ExperimentConfig(n=n, theta=theta, points=points, kind=kind, function_labels=labels,
                                  model_spec=law, master_seed=seed)
        fs, model = mc.validate_config(cfg)
        chain = FellerChain(n, EwensParameter(theta))
        blocks = 0
        for block, streams, groups in mc._draw_blocks(chain, seed, count):
            calls.clear()
            raw, _ = mc._eval_block(cfg, fs, model, streams, groups)
            blocks += 1
            for j, i in enumerate(block):
                lengths, angles, stream = _v1_sample(cfg, model, i)
                if kind == "total-cycles":
                    assert raw[j].tolist() == [len(lengths), 0.0]
                else:
                    (got_lengths, got_angles, starts), = calls
                    part = slice(starts[j], starts[j + 1] if j + 1 < len(block) else None)
                    assert np.array_equal(got_lengths[part], lengths), (kind, law, n, i)
                    assert np.array_equal(got_angles[part], angles), (kind, law, n, i)
                assert streams[j].random() == stream.random()
        if theta == 1000.0:
            assert blocks > 1 and count < mc._BLOCK
