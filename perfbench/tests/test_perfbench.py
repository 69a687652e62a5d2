"""Tests of the benchmark itself: span arithmetic, checks, wrapper removal.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import CLT_CONFIGS, S2  # noqa: E402

from permchar import ewens, mc  # noqa: E402


# ------------------------------------------------------------------ spans

def test_self_time_on_synthetic_span_tree():
    # A[0,100] holds B[10,30] and C[40,70]; C holds D[45,50]; a second B[80,90].
    times = iter([0, 10, 30, 40, 45, 50, 70, 80, 90, 100])
    t = tr.Tracer(clock=lambda: next(times))
    t.enter("A")
    t.enter("B"); t.exit()
    t.enter("C"); t.enter("D"); t.exit(); t.exit()
    t.enter("B"); t.exit()
    assert t.exit() == 100
    assert t.spans == {"A": [1, 100 - 20 - 30 - 10, 100], "B": [2, 30, 30],
                       "C": [1, 25, 30], "D": [1, 5, 5]}
    assert t.stack == []


def test_sample_latency_includes_stream_and_failed_attempts():
    times = iter([0, 2, 2, 7, 7, 9, 9, 20])
    t = tr.Tracer(clock=lambda: next(times))
    t.enter("mc.stream"); t.end_stream(t.exit())          # 2 ns
    t.enter("mc.eval"); t.end_eval(t.exit(), ok=False)    # 5 ns, singular retry
    t.enter("mc.stream"); t.end_stream(t.exit())          # 2 ns
    t.enter("mc.eval"); t.end_eval(t.exit(), ok=True)     # 11 ns
    assert t.sample_ns == [20]
    assert t.counters == {"mc.retries": 1}


def test_counting_stream_counts_and_delegates():
    t = tr.Tracer()
    proxy = tr.CountingStream(np.random.default_rng(5), t)
    plain = np.random.default_rng(5)
    t.enter("multipliers")
    assert np.array_equal(proxy.random((3, 4)), plain.random((3, 4)))
    assert np.array_equal(proxy.choice(3, size=7, p=[0.2, 0.3, 0.5]), plain.choice(3, size=7, p=[0.2, 0.3, 0.5]))
    assert proxy.integers(1, 9) == plain.integers(1, 9)
    assert proxy.random() == plain.random()
    t.exit()
    assert t.counters == {"multipliers.variates": 12 + 7 + 1 + 1}


def test_wrappers_removed_after_traced_run():
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in tr._targets()]
    cfg = mc.ExperimentConfig(n=200, theta=1.0, points=(S2,), num_samples=20, master_seed=3,
                              centering="theoretical")
    plain = mc.run_experiment(cfg)
    t = tr.Tracer()
    undo = tr.install(t)
    try:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in before)
        traced = mc.run_experiment(cfg)
    finally:
        tr.uninstall(undo)
    assert all(getattr(owner, attr) is fn for owner, attr, fn in before)
    assert np.array_equal(plain.samples, traced.samples)
    assert t.spans["mc.eval"][0] == 20 and t.spans["mc.stream"][0] == 20
    assert len(t.sample_ns) == 20
    assert t.counters["ewens.variates"] == 20 * 200
    assert t.counters["ewens.cycles"] == t.counters["multipliers.angles"]


# ------------------------------------------------------------- references

def test_cycle_count_references():
    for n, theta in ((50, 1.0), (300, 2.7), (1000, 0.5)):
        p = theta / (theta + np.arange(n))
        assert checks.expected_cycles(n, theta) == pytest.approx(p.sum(), rel=1e-12)
        assert checks.var_cycles(n, theta) == pytest.approx((p * (1 - p)).sum(), rel=1e-12)
        m = np.arange(1, n + 1)
        assert float(np.sum(m * checks.mean_cycle_counts(n, theta))) == pytest.approx(n, rel=1e-10)


def test_trivial_logz_mean_reference_matches_exact_law():
    n, theta, x = 9, 2.7, S2
    law = ewens.exact_feller_distribution(n, ewens.EwensParameter(theta))
    exact = sum(p * sum(c * np.log(1 - np.exp(-2j * np.pi * m * x)) for m, c in ct.nonzero())
                for ct, p in law.items())
    terms = checks._logz_term_means(n, x, {"type": "trivial"})
    assert complex(np.sum(checks.mean_cycle_counts(n, theta) * terms)) == pytest.approx(exact, abs=1e-12)


def test_antisympart_moments_match_known_mean():
    mu_r, v_r, mu_i, v_i = checks.uniform_term_moments("antisympart")
    assert mu_r == math.asinh(1.0) and mu_i == 0.0
    assert 0.0 < mu_r ** 2 < v_r and v_i > 0.0


# ----------------------------------------------- checks reject corruption

def _synthetic(cfg: dict, S: int, seed: int = 0) -> np.ndarray:
    refs = checks.coordinate_references(cfg)
    rng = np.random.default_rng(seed)
    cols = [np.zeros(S) if r["zero"] else r["mean"] + math.sqrt(r["var"]) * rng.standard_normal(S)
            for r in refs]
    return np.stack(cols, axis=1)


def _result(cfg: dict, samples: np.ndarray) -> dict:
    return {"num_samples": samples.shape[0], "mean": samples.mean(axis=0).tolist(),
            "var": samples.var(axis=0, ddof=1).tolist()}


@pytest.mark.parametrize("tag", ["uniform", "w2"])
def test_moment_checks_reject_corruption(tag):
    cfg = dict(CLT_CONFIGS["desk"][tag], num_samples=4000)
    good = _synthetic(cfg, 4000)
    assert all(c.ok for c in checks.check_clt_moments(tag, cfg, good))
    assert all(c.ok for c in checks.check_clt_output(tag, cfg, _result(cfg, good), good))
    for corrupt in (lambda s: s * math.sqrt(2.0), lambda s: s / math.sqrt(2.0), lambda s: s + 0.5):
        bad = good.copy()
        bad[:, 0] = corrupt(bad[:, 0])
        assert not all(c.ok for c in checks.check_clt_moments(tag, cfg, bad))
    nan = good.copy()
    nan[7, 1] = np.nan
    assert not all(c.ok for c in checks.check_clt_moments(tag, cfg, nan))
    assert not all(c.ok for c in checks.check_clt_output(tag, cfg, _result(cfg, nan), nan))


def test_mean_check_rejects_wrong_finite_n_reference():
    cfg = dict(CLT_CONFIGS["desk"]["trivial"])
    refs = [r["mean"] for r in checks.coordinate_references(cfg)]
    good = np.array(refs) + np.random.default_rng(1).standard_normal((2000, 4))
    assert all(c.ok for c in checks.check_clt_moments("trivial", cfg, good))
    bad = good.copy()
    bad[:, 0] -= refs[0]  # centred at 0, as if the finite-n correction were missing
    assert not all(c.ok for c in checks.check_clt_moments("trivial", cfg, bad))


def test_zero_coordinate_check_rejects_noise():
    cfg = CLT_CONFIGS["desk"]["w2"]
    samples = _synthetic(dict(cfg, num_samples=100), 100)
    samples[3, 2] = 1e-3
    names = [c.name for c in checks.check_clt_output("w2", dict(cfg, num_samples=100),
                                                     _result(cfg, samples), samples) if not c.ok]
    assert names == ["w2.sympart.im-zero"]


def test_constant_checks():
    good = {"m_R": 0.0, "m_I": 0.0, "V_R": math.pi ** 2 / 12, "V_I": math.pi ** 2 / 12}
    assert all(c.ok for c in checks.check_constants(["charpoly"], good))
    for key, bad in (("V_R", math.pi ** 2 / 6), ("m_R", 1e-6), ("V_I", float("nan"))):
        assert not all(c.ok for c in checks.check_constants(["charpoly"], dict(good, **{key: bad})))
    sym = {"m_R": 1.19e-7, "m_I": 0.0, "V_R": math.pi ** 2 / 3 - 3.3e-6, "V_I": 1e-26}
    failed = {c.name for c in checks.check_constants(["sympart"], sym) if not c.ok}
    assert failed == {"constants.sympart.m_R", "constants.sympart.V_R"} == set(checks.KNOWN_DEFECTS) - {
        "w2.sympart.im-zero"}


def test_covariance_check():
    _, v_r, _, v_i = checks.uniform_term_moments("antisympart")
    c = math.pi ** 2 / 12
    good = {"d": 2, "re_re": [[c, 0.0], [0.0, v_r]], "im_im": [[c, 0.0], [0.0, v_i]]}
    assert all(x.ok for x in checks.check_constants(["charpoly", "antisympart"], good))
    bad = {**good, "re_re": [[c, 0.1], [0.1, v_r]]}
    assert not all(x.ok for x in checks.check_constants(["charpoly", "antisympart"], bad))


def test_exact_checks_reject_corruption():
    disc = {"exact": checks.DISCREPANCY_VALUE, "etk": 3.3}
    assert all(c.ok for c in checks.check_discrepancy(disc))
    assert not all(c.ok for c in checks.check_discrepancy(dict(disc, exact=disc["exact"] * (1 + 1e-9))))
    assert not all(c.ok for c in checks.check_discrepancy(dict(disc, etk=1e-3)))

    feller = {"max_abs_difference": 1e-17, "total_probability": 1.0, "num_cycle_types": 231}
    assert all(c.ok for c in checks.check_feller(feller))
    assert not all(c.ok for c in checks.check_feller(dict(feller, max_abs_difference=1e-6)))
    assert not all(c.ok for c in checks.check_feller(dict(feller, total_probability=float("nan"))))

    sample = {"samples": [{"cycle_counts": [1, 0, 1], "total_cycles": 2}]}
    assert all(c.ok for c in checks.check_sample(sample, 4, 1))
    assert not all(c.ok for c in checks.check_sample(sample, 5, 1))
    assert not all(c.ok for c in checks.check_sample(
        {"samples": [{"cycle_counts": [1, 0, 1], "total_cycles": 3}]}, 4, 1))
    ek = checks.expected_cycles(10 ** 5, 1.0)
    assert all(c.ok for c in checks.check_sample_cycles([round(ek)] * 20, 10 ** 5, 1.0))
    assert not all(c.ok for c in checks.check_sample_cycles([round(2 * ek)] * 20, 10 ** 5, 1.0))

    sym = {"max_abs_error": 1e-11, "permutations": checks.SYMCHECK_PERMUTATIONS}
    assert all(c.ok for c in checks.check_symcheck(sym))
    assert not all(c.ok for c in checks.check_symcheck(dict(sym, max_abs_error=1e-6)))
