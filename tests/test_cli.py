import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import permchar
from permchar import cli, ewens, mc


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sample_json_deterministic(capsys):
    code1, out1, _ = run(capsys, ["sample", "--n", "10", "--theta", "1",
                                  "--count", "3", "--seed", "7"])
    code2, out2, _ = run(capsys, ["sample", "--n", "10", "--theta", "1",
                                  "--count", "3", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    for row in payload["samples"]:
        counts = row["cycle_counts"]
        assert sum((m + 1) * c for m, c in enumerate(counts)) == 10


def test_sample_csv_is_the_pinned_v1_stream(capsys):
    # every output of the package reads these chains; they hold integers only,
    # so no SIMD rounding enters, and only a change to numpy's streams moves them
    for n, count, digest in (
            (1000, 20, "0c4f4394eb3e6ad7be3b86cef19a3c0151484a22c1b726c33072c6c107a2228b"),
            # past CHUNK = 2^16 the chain is thinned through binomial and choice
            (200000, 5, "05e3038239237a800f4bd8772cdb6c97c997a84a16c732bad360caed15191e2f")):
        code, out, _ = run(capsys, ["sample", "--n", str(n), "--theta", "1", "--count", str(count),
                                    "--seed", "7", "--format", "csv"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (
            f"the v1 stream moved at n = {n} with numpy {np.__version__}: a change to "
            f"Generator.random (every n) or to Generator.binomial or "
            f"Generator.choice(replace=False, shuffle=False) (n > 2^16) changes every output")


def test_sample_rejects_negative_theta(capsys):
    code, _, err = run(capsys, ["sample", "--n", "10", "--theta", "-1",
                                "--count", "1"])
    assert code == 2
    assert "error" in err


def test_mc_cycle_groups_match_cli_sample(capsys):
    # the Monte Carlo reads the same chain as `sample` at each (seed, index)
    for n, theta, seed in ((10, 1.0, 7), (200, 0.4, 3), (1000, 2.5, 11)):
        code, out, _ = run(capsys, ["sample", "--n", str(n), "--theta", str(theta),
                                    "--count", "4", "--seed", str(seed)])
        assert code == 0
        chain = ewens.FellerChain(n, ewens.EwensParameter(theta))
        for row in json.loads(out)["samples"]:
            ones = mc._eval_sample(chain, mc.derive_stream(seed, row["sample_index"]))
            lengths, mults, _ = mc._sample_cycle_groups([ones], n)
            counts = np.zeros(n, dtype=int)
            counts[lengths - 1] = mults
            assert counts.tolist() == row["cycle_counts"]


def test_sample_csv_format(capsys):
    code, out, _ = run(capsys, ["sample", "--n", "6", "--theta", "1",
                                "--count", "2", "--seed", "1", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sample_index,cycle_length,count"


def test_sample_csv_rows_are_the_nonzero_json_counts(capsys):
    # one chunk of the chain and more than one (n > 2^16)
    for n, theta, seed in ((6, 1.0, 1), (300, 0.7, 4), (70_000, 2.5, 9)):
        argv = ["sample", "--n", str(n), "--theta", str(theta), "--count", "3", "--seed", str(seed)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        want = [[str(row["sample_index"]), str(m), str(c)]
                for row in json.loads(out)["samples"]
                for m, c in enumerate(row["cycle_counts"], start=1) if c]
        code, out, _ = run(capsys, argv + ["--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sample_index,cycle_length,count"
        assert [line.split(",") for line in lines[1:]] == want


def test_clt_minimal_config(tmp_path, capsys):
    cfg = {"version": 1, "n": 50, "theta": 1.0, "points": [math.sqrt(2) % 1],
           "kind": "logZ", "model_spec": {"type": "uniform"},
           "num_samples": 10, "master_seed": 5}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    dump = tmp_path / "dump.csv"
    code, out, _ = run(capsys, ["clt", "--config", str(path),
                                "--dump-samples", str(dump)])
    assert code == 0
    payload = json.loads(out)
    assert payload["num_samples"] == 10
    assert len(payload["mean"]) == 2
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "sample_index,point_index,re,im"
    assert len(lines) == 11


def test_clt_regime_violation_exit_2(tmp_path, capsys):
    cfg = {"version": 1, "n": 50, "theta": 1.0, "points": [0.5],
           "kind": "logZ", "model_spec": {"type": "trivial"},
           "num_samples": 5, "master_seed": 5}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, ["clt", "--config", str(path)])
    assert code == 2
    assert "finite-type" in err


def test_clt_rejects_wrong_version(tmp_path, capsys):
    path = tmp_path / "v0.json"
    path.write_text(json.dumps({"version": 0, "n": 10, "theta": 1.0,
                                "points": [0.3]}))
    code, _, _ = run(capsys, ["clt", "--config", str(path)])
    assert code == 2


def test_discrepancy_bound_dominates(capsys):
    code, out, _ = run(capsys, ["discrepancy", "--kronecker", "1.41421356",
                                "--n", "1000", "--etk-H", "50"])
    assert code == 0
    payload = json.loads(out)
    assert payload["etk"] >= payload["exact"]


def test_constants_charpoly(capsys):
    code, out, _ = run(capsys, ["constants", "--function", "charpoly"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["m_R"]) < 1e-8
    assert payload["V_R"] == pytest.approx(0.8224670, abs=1e-6)


def test_constants_covariance_two_functions(capsys):
    code, out, _ = run(capsys, ["constants", "--function", "charpoly",
                                "charpoly", "--theta", "2.0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 2


def test_feller_check(capsys):
    code, out, _ = run(capsys, ["feller-check", "--n", "8", "--theta", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["max_abs_difference"] <= 1e-12
    assert payload["total_probability"] == pytest.approx(1.0, abs=1e-12)


def test_feller_check_at_extreme_theta(capsys):
    # no warning, no range error and no cancelled log-gamma at either end
    for theta in ("1e-300", "1e6", "1e12", "1e15", "1e300"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["feller-check", "--n", "16", "--theta", theta])
        assert (code, err) == (0, ""), theta
        payload = json.loads(out)
        assert payload["max_abs_difference"] <= 1e-12, theta
        assert payload["num_cycle_types"] == 231 and payload["total_probability"] == pytest.approx(1.0, abs=1e-12)


def test_every_subcommand_prints_indented_sorted_json(tmp_path, capsys):
    # the one emitter writes what json.dumps(payload, indent=2, sort_keys=True) would
    c1 = np.fft.fft([0.5, 0.3, 0.2])[1]
    complex_coeffs = {"type": "discrete", "rho": 3,
                      "coeffs": [1, [c1.real, c1.imag], [c1.real, -c1.imag]]}
    for argv in (["sample", "--n", "10", "--theta", "1", "--count", "3", "--seed", "7"],
                 ["sample", "--n", "10000", "--theta", "0.7", "--count", "2", "--seed", "3"],
                 # the thinned chain past CHUNK, and many cycles
                 ["sample", "--n", "70000", "--theta", "1", "--count", "2", "--seed", "5"],
                 ["sample", "--n", "5000", "--theta", "1000", "--count", "2", "--seed", "5"],
                 # a discrete law given by its complex DFT runs
                 ["clt", "--config", _clt_config(tmp_path, model_spec=complex_coeffs)],
                 ["constants", "--function", "charpoly"],
                 ["constants", "--function", "charpoly", "sympart", "antisympart"],
                 ["discrepancy", "--kronecker", "0.414", "--n", "100"],
                 ["discrepancy", "--kronecker", "0.414", "0.732", "--n", "100", "--etk-H", "5"],
                 ["feller-check", "--n", "8", "--theta", "2.7"]):
        code, out, _ = run(capsys, argv)
        assert code == 0, argv
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv


def test_emit_equals_indented_sorted_dumps():
    rows = [{"sample_index": i, "cycle_counts": tuple(range(i))} for i in range(3)]
    for payload in ({}, [], {"a": {}, "b": [], "c": ()}, rows,
                    {"nested": [[1, [2.5, []]], [[]], [{"x": None}]]},
                    {"special": [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300]},
                    {"flags": [True, False, None], "mixed": [1, 2.0, -3, 0.1], "one": [7]},
                    {"text": ["a, b", ", ", "x"], "key, with comma": "v, w", "s": "\u00e9\"\\"},
                    {"z": 1, "a": [1, "b, c", [2, 3], None, {}]}):
        fh = io.StringIO()
        cli._emit(payload, fh)
        assert fh.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n", payload
    # an iterator is written as the list it yields
    fh = io.StringIO()
    cli._emit({"rows": iter(rows), "none": iter(())}, fh)
    assert fh.getvalue() == json.dumps({"rows": rows, "none": []}, indent=2, sort_keys=True) + "\n"


def test_zero_filled_counts_equal_dumps_of_the_dense_row():
    # a sample row is written from its nonzero counts: zero runs go out CHUNK items a piece
    chunk = ewens.CHUNK
    cases = [(5, [1], [5]), (5, [5], [1]), (9, [1, 4, 9], [2, 1, 1]), (1, [1], [1])]
    for run_length in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        n = run_length + 2
        cases += [(n, [1, n], [run_length, 1]), (n - 1, [1], [n - 1]), (n - 1, [n - 1], [1])]
    for n, index, values in cases:
        counts = np.zeros(n, dtype=int)
        counts[np.array(index) - 1] = values
        dense = counts.tolist()
        for make in (lambda c: {"cycle_counts": c}, lambda c: {"samples": [{"c": c, "i": 0}]}):
            fh = io.StringIO()
            cli._emit(make(cli._ZeroFilled(n, dict(zip(index, values)))), fh)
            assert fh.getvalue() == json.dumps(make(dense), indent=2, sort_keys=True) + "\n", (n, index)


def test_json_sample_memory_does_not_grow_with_n(tmp_path, capsys):
    # a row of 2e6 counts is 22 MB of text: it goes out in pieces, with no n-length array or list
    target = tmp_path / "s.json"
    tracemalloc.start()
    try:
        code = cli.main(["sample", "--n", "2000000", "--theta", "1", "--count", "2", "--output", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 2 ** 20, peak
    for row in json.loads(target.read_text())["samples"]:
        counts = row["cycle_counts"]
        assert len(counts) == 2_000_000 and sum(counts) == row["total_cycles"]
        assert sum(m * c for m, c in enumerate(counts, start=1)) == 2_000_000


def test_unknown_subcommand_exit_2(capsys):
    assert cli.main(["bogus"]) == 2


def test_missing_config_file_exit_2(capsys):
    code, _, _ = run(capsys, ["clt", "--config", "/nonexistent/cfg.json"])
    assert code == 2


def _clt_config(tmp_path, **overrides):
    cfg = {"version": 1, "n": 50, "theta": 1.0, "points": [math.sqrt(2) % 1],
           "kind": "logZ", "model_spec": {"type": "uniform"},
           "num_samples": 5, "master_seed": 5} | overrides
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_clt_rejects_n_one(tmp_path, capsys):
    # log n = 0 would make the normalization divide by zero
    code, out, err = run(capsys, ["clt", "--config", _clt_config(tmp_path, n=1)])
    assert code == 2
    assert out == ""
    assert "config error" in err and "n must be" in err


def test_clt_rejects_string_n(tmp_path, capsys):
    code, _, err = run(capsys, ["clt", "--config", _clt_config(tmp_path, n="100")])
    assert code == 2
    assert "config error" in err and "n must be" in err


def test_clt_rejects_nan_point(tmp_path, capsys):
    # json reads NaN; it must not come back as NaN in every result field
    code, out, err = run(capsys, ["clt", "--config", _clt_config(tmp_path, points=[math.nan])])
    assert code == 2
    assert out == ""
    assert "config error" in err and "points must be" in err


def test_seed_environment_is_ignored(tmp_path, capsys, monkeypatch):
    # a run reads only its config and its flags: a missing seed is 0
    monkeypatch.setenv("PERMCHAR_SEED", "abc")
    assert run(capsys, ["feller-check", "--n", "4", "--theta", "1"])[0] == 0
    sample = ["sample", "--n", "10", "--theta", "1", "--count", "3"]
    unseeded = run(capsys, sample)
    assert unseeded[0] == 0
    assert unseeded == run(capsys, [*sample, "--seed", "0"])
    seeded = run(capsys, ["clt", "--config", _clt_config(tmp_path, master_seed=0)])
    path = tmp_path / "unseeded.json"
    path.write_text(json.dumps({"version": 1, "n": 50, "theta": 1.0, "points": [math.sqrt(2) % 1],
                                "num_samples": 5}))
    assert seeded[0] == 0
    assert run(capsys, ["clt", "--config", str(path)]) == seeded


def test_constants_rejects_bad_theta(capsys):
    for theta in ("-1", "nan"):
        code, out, err = run(capsys, ["constants", "--function", "charpoly", "charpoly",
                                      "--theta", theta])
        assert code == 2
        assert out == ""
        assert "config error:" in err and "theta" in err


def test_clt_constant_function_is_finite(tmp_path, capsys):
    # const:1 has V_R = V_I = 0 exactly: both coordinates stay unscaled, not 0/0,
    # and have no KS against N(0, 1)
    path = _clt_config(tmp_path, function_labels=["const:1"], centering="theoretical")
    code, out, _ = run(capsys, ["clt", "--config", path])
    assert code == 0
    payload = json.loads(out)
    assert all(math.isfinite(v) for key in ("raw_mean", "mean", "var") for v in payload[key])
    assert payload["mean"] == [0.0, 0.0]
    assert payload["ks"] == [None, None]


def test_bad_inputs_exit_2(tmp_path, capsys):
    def rejected(argv, message):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert "config error:" in err and message in err

    dyadic = dict(n=10 ** 4, points=[2.0 ** -13], model_spec={"type": "trivial"})
    for overrides, message in (
            (dict(function_labels=[1]), "function_labels"),
            (dict(function_labels="charpoly"), "function_labels"),
            (dict(model_spec={"type": "fourier", "coeffs": [0.3]}), "coeffs"),
            (dict(model_spec={"type": "fourier", "coeffs": {"1": [0.3]}}), "coefficient"),
            # "1" and "+1", or "-1" and "-01", are one frequency: not merged, the last value winning
            (dict(model_spec={"type": "fourier", "coeffs": {"1": 0.3, "-1": 0.3, "+1": 0.1, "-01": 0.1}}),
             "frequency 1 twice"),
            (dict(model_spec={"type": "fourier", "coeffs": {"1": 0.3, "-1": 0.3, "-01": 0.1}}),
             "frequency -1 twice"),
            (dict(model_spec={"type": "discrete", "rho": 2.5, "probs": [0.5, 0.5]}), "rho"),
            (dict(model_spec={"type": "discrete", "rho": 2}), "probs or coeffs"),
            # a nested, NaN or keyed table is not a law on the rho roots
            (dict(model_spec={"type": "discrete", "rho": 2, "probs": [[0.3], [0.7]]}), "probs"),
            (dict(model_spec={"type": "discrete", "rho": 2, "probs": [math.nan, 1.0]}), "probs"),
            (dict(model_spec={"type": "discrete", "rho": 1, "probs": {"a": 1}}), "probs"),
            (dict(model_spec={"type": "discrete", "rho": 1, "coeffs": {"a": 1}}), "coeffs"),
            # c_2 != conj(c_1): the inverse DFT is complex, not a law
            (dict(model_spec={"type": "discrete", "rho": 3, "coeffs": [1, 0.5, 0]}), "coeffs"),
            (dict(function_labels=["const:nan"]), "const:nan"),
            (dict(bogus=1), "unknown config keys"),
            (dict(centering="bogus"), "centering"),
            (dict(function_labels=["charpoly", "charpoly"]), "one function label per point"),
            (dict(model_spec={"type": "fourier", "coeffs": {"1": [0.3, 0.1], "-1": [0.3, 0.1]}}),
             "Hermitian"),
            # theta m log n or theta V log n out of the doubles' range, or samples whose squares
            # overflow: exit 2, never NaN, Infinity or all-zero samples with exit 0
            (dict(theta=1e-310), "var of the normalized samples"),
            (dict(theta=1e308, function_labels=["const:2"], centering="theoretical"), "centering"),
            (dict(theta=1e308), "normalization"),
            (dict(theta=5e-324, function_labels=["const:1.0000001"]), "normalization"),
            # x = 2^-13 = p/q, q = 8192: under z = 1 a cycle of length 8192 lands on the zero
            # of charpoly or sympart, and under 4th roots one of length 8192/4
            (dyadic, "point 0.0001220703125 is p/q with q = 8192: a cycle of length 8192 <= n = 10000"),
            (dyadic | dict(function_labels=["sympart"]), "can put it on the zero of sympart"),
            (dyadic | dict(model_spec={"type": "discrete", "rho": 4, "probs": [0.25] * 4}),
             "q = 8192: a cycle of length 2048 <= n = 10000"),
            (dyadic | dict(n=8192), "a cycle of length 8192 <= n = 8192"),
            (dyadic | dict(model_spec={"type": "discrete", "rho": 2.5, "probs": [0.5, 0.5]}), "rho")):
        rejected(["clt", "--config", _clt_config(tmp_path, **overrides)], message)
    # no cycle reaches 8192 at n = 8191, and antisympart and const:2 have no zero
    for overrides in (dict(n=8191), dict(function_labels=["antisympart"]), dict(function_labels=["const:2"])):
        code, _, err = run(capsys, ["clt", "--config", _clt_config(tmp_path, **dyadic | overrides)])
        assert code == 0 and err == "", overrides
    # a config with no points
    no_points = tmp_path / "no-points.json"
    no_points.write_text(json.dumps({"version": 1, "n": 50, "theta": 1.0}))
    rejected(["clt", "--config", str(no_points)], "points")
    # a config that is not a JSON object, or cannot be read at all
    for text in ("[1, 2]", '"x"'):
        path = tmp_path / "raw.json"
        path.write_text(text)
        rejected(["clt", "--config", str(path)], "JSON object")
    rejected(["clt", "--config", str(tmp_path)], "cannot read config")
    for label in ("const:0", "const:nan", "const:inf"):
        rejected(["constants", "--function", label], label)
    rejected(["constants", "--function", "foo"], "config error: unknown spectral function 'foo'")
    # H = 0 is a value, not "no H given"
    rejected(["discrepancy", "--kronecker", "0.414", "--n", "100", "--etk-H", "0"], "H must be")
    rejected(["discrepancy", "--kronecker", "nan", "--n", "10"], "finite")
    rejected(["discrepancy", "--kronecker", "0.1", "0.2", "0.3", "--n", "10"], "one or two")
    rejected(["discrepancy", "--kronecker", "0.3", "--n", "0"], "n must be >= 1")
    rejected(["discrepancy", "--kronecker", "inf", "--n", "10", "--etk-H", "3"], "finite")
    # refused before any of the 2e9 lattice points is allocated
    rejected(["discrepancy", "--kronecker", "0.414", "--n", "10", "--etk-H", "1000000000"],
             "lattice points")
    rejected(["feller-check", "--n", "0", "--theta", "1"], "1 <= n <= 16")
    # a negative seed is refused before any output is opened or written
    target = tmp_path / "s.json"
    for tail in (["--output", str(target)], ["--format", "csv", "--output", str(target)],
                 ["--format", "csv"]):
        rejected(["sample", "--n", "5", "--theta", "1", "--seed", "-1", *tail], "seed >= 0")
        assert not target.exists()
    # an output path that cannot be written: a missing directory or a directory
    for target in (str(tmp_path / "missing-dir" / "x.out"), str(tmp_path)):
        rejected(["constants", "--function", "charpoly", "--output", target], "cannot write output")
        rejected(["sample", "--n", "5", "--theta", "1", "--format", "csv", "--output", target],
                 "cannot write output")
        rejected(["clt", "--config", _clt_config(tmp_path), "--dump-samples", target],
                 "cannot write output")
    # the version is the integer 1: true and 1.0 only compare equal to it
    for version in (True, 1.0):
        rejected(["clt", "--config", _clt_config(tmp_path, version=version)], "config version")
    # one file for both outputs would hold the dump followed by the result
    same = tmp_path / "same.out"
    (tmp_path / "link").symlink_to(tmp_path)
    for other in (same, tmp_path / "link" / "same.out"):
        rejected(["clt", "--config", _clt_config(tmp_path), "--output", str(same),
                  "--dump-samples", str(other)], "same file")
        assert not same.exists()


def test_clt_opens_outputs_before_the_run(tmp_path, capsys, monkeypatch):
    # an output that cannot be written fails before any sample is drawn
    def no_run(cfg):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr(mc, "run_experiment", no_run)
    target = str(tmp_path / "missing-dir" / "x.out")
    for flag in ("--output", "--dump-samples"):
        code, out, err = run(capsys, ["clt", "--config", _clt_config(tmp_path), flag, target])
        assert code == 2 and out == "" and "cannot write output" in err
    # and a config error comes first: existing outputs are left as they are
    existing = tmp_path / "existing.out"
    for overrides in (dict(n=1), dict(model_spec={"type": "nope"}), dict(function_labels=["nope"])):
        existing.write_text("kept")
        code, _, _ = run(capsys, ["clt", "--config", _clt_config(tmp_path, **overrides),
                                  "--output", str(existing), "--dump-samples", str(existing)])
        assert code == 2 and existing.read_text() == "kept"
    # 10^12 samples would need a 14.6 TiB table of statistics: refused, not allocated
    code, out, err = run(capsys, ["clt", "--config", _clt_config(tmp_path, num_samples=10 ** 12),
                                  "--output", str(existing)])
    assert code == 2 and out == "" and "num_samples" in err and existing.read_text() == "kept"


def test_clt_failed_run_keeps_existing_outputs(tmp_path, capsys, monkeypatch):
    # both outputs are opened before the run but cut only when it has returned
    output, dump = tmp_path / "result.json", tmp_path / "samples.csv"

    def clt(config):
        output.write_text("kept" * 10 ** 4)
        dump.write_text("kept")
        return cli.main(["clt", "--config", config, "--output", str(output), "--dump-samples", str(dump)])

    # 1/1024 passes the finite-type search (1024 > 512), but with z = 1 a cycle of
    # a length divisible by 1024 is a zero of char_poly: refused before the run
    singular = _clt_config(tmp_path, n=10 ** 4, points=[2.0 ** -10], model_spec={"type": "trivial"},
                           num_samples=2000, master_seed=1)
    assert clt(singular) == 2 and "q = 1024: a cycle of length 1024" in capsys.readouterr().err
    assert output.read_text() == "kept" * 10 ** 4 and dump.read_text() == "kept"
    # so does a centering that overflows, found once the samples are drawn
    overflow = _clt_config(tmp_path, theta=1e308, function_labels=["const:2"], centering="theoretical")
    assert clt(overflow) == 2 and "centering" in capsys.readouterr().err
    assert output.read_text() == "kept" * 10 ** 4 and dump.read_text() == "kept"
    # a run that returns writes over the longer file it found
    assert clt(_clt_config(tmp_path)) == 0
    assert output.read_text() == json.dumps(json.loads(output.read_text()), indent=2, sort_keys=True) + "\n"
    assert dump.read_text().startswith("sample_index,point_index,re,im")

    def interrupted(cfg):
        raise KeyboardInterrupt

    monkeypatch.setattr(mc, "run_experiment", interrupted)
    with pytest.raises(KeyboardInterrupt):
        clt(_clt_config(tmp_path))
    assert output.read_text() == "kept" * 10 ** 4 and dump.read_text() == "kept"


def test_clt_single_sample_reports_no_spread(tmp_path, capsys):
    # one sample has no variance, covariance or KS distance: null, not 0
    code, out, _ = run(capsys, ["clt", "--config", _clt_config(tmp_path, n=100, num_samples=1)])
    assert code == 0
    payload = json.loads(out)
    assert payload["var"] is None and payload["cov"] is None and payload["ks"] is None
    assert len(payload["mean"]) == 2


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = os.environ | {"PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c",
                          "import sys, permchar.cli; print('scipy' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_closed_stdout_pipe_ends_quietly():
    # a reader that stops early (| head) is not a failed run: exit 0 and
    # nothing on stderr, not even the interpreter's flush at exit
    src = Path(__file__).resolve().parents[1] / "src"
    env = os.environ | {"PYTHONPATH": str(src)}
    for fmt in ("json", "csv"):
        proc = subprocess.Popen([sys.executable, "-m", "permchar.cli", "sample", "--n", "100000",
                                 "--theta", "1", "--count", "2", "--format", fmt],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # before the first byte is written
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b""), fmt


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert permchar.__version__ == tomllib.load(fh)["project"]["version"]


def test_oversized_discrepancy_is_refused_before_the_sequence_is_built(capsys):
    # 4e6 points in 1-D would take 32 MB per array: the limit is checked first
    for phis, n in ((["0.4142135623730951"], 4_000_000), (["0.4142135623730951", "0.7320508075688772"], 4001)):
        tracemalloc.start()
        try:
            code, _, err = run(capsys, ["discrepancy", "--kronecker", *phis, "--n", str(n)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and "exact discrepancy limited" in err
        assert peak < 8 * 2 ** 20, (phis, n, peak)


def test_json_sample_past_its_limit_is_refused_before_the_output_is_opened(tmp_path, capsys):
    # all n counts per row: n = 1e9 would need gigabytes, the CSV rows do not
    target = tmp_path / "s.json"
    argv = ["sample", "--n", "1000000000", "--theta", "1", "--count", "2", "--seed", "3"]
    for tail in (["--output", str(target)], []):
        code, out, err = run(capsys, argv + tail)
        assert code == 2 and out == "" and "--format csv" in err
        assert not target.exists()
    code, out, _ = run(capsys, argv + ["--format", "csv"])
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert code == 0 and {r[0] for r in rows} == {"0", "1"}
    for i in "01":
        assert sum(int(m) * int(c) for s, m, c in rows if s == i) == 10 ** 9


def test_n_past_the_arithmetic_limits_is_refused_before_any_output(tmp_path, capsys):
    # clt forms cycle lengths as doubles (n <= 2^53), sample keeps chain positions in int64 (n < 2^63)
    target = tmp_path / "out"
    for n in (2 ** 53 + 1, 10 ** 17, 10 ** 20):
        code, out, err = run(capsys, ["clt", "--config", _clt_config(tmp_path, n=n),
                                      "--output", str(target)])
        assert code == 2 and out == "" and "2^53" in err
        assert not target.exists()
    for n in (2 ** 63, 2 ** 64):
        for fmt in ("csv", "json"):
            code, out, err = run(capsys, ["sample", "--n", str(n), "--theta", "1", "--format", fmt,
                                          "--output", str(target)])
            assert code == 2 and out == "" and "2^63" in err
            assert not target.exists()
    # the largest n a sample takes is drawn exactly
    n = 2 ** 63 - 1
    code, out, _ = run(capsys, ["sample", "--n", str(n), "--theta", "1", "--count", "2", "--format", "csv"])
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert code == 0
    for i in "01":
        assert sum(int(m) * int(c) for s, m, c in rows if s == i) == n
