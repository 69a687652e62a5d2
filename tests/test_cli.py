import json
import math
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
        p = ewens.chain_probabilities(n, ewens.EwensParameter(theta))
        for row in json.loads(out)["samples"]:
            lengths, mults = mc._sample_cycle_groups(p, mc.derive_stream(seed, row["sample_index"]))
            counts = np.zeros(n, dtype=int)
            counts[lengths - 1] = mults
            assert counts.tolist() == row["cycle_counts"]


def test_sample_csv_format(capsys):
    code, out, _ = run(capsys, ["sample", "--n", "6", "--theta", "1",
                                "--count", "2", "--seed", "1", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sample_index,cycle_length,count"


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


def test_bad_seed_environment_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("PERMCHAR_SEED", "abc")
    code, out, err = run(capsys, ["feller-check", "--n", "4", "--theta", "1"])
    assert code == 2
    assert out == ""
    assert "config error:" in err and "PERMCHAR_SEED" in err


def test_constants_rejects_bad_theta(capsys):
    for theta in ("-1", "nan"):
        code, out, err = run(capsys, ["constants", "--function", "charpoly", "charpoly",
                                      "--theta", theta])
        assert code == 2
        assert out == ""
        assert "config error:" in err and "theta" in err


def test_clt_constant_function_is_finite(tmp_path, capsys):
    # const:1 has V_R = 0 exactly: that coordinate stays unscaled, not 0/0
    path = _clt_config(tmp_path, function_labels=["const:1"], centering="theoretical")
    code, out, _ = run(capsys, ["clt", "--config", path])
    assert code == 0
    payload = json.loads(out)
    assert all(math.isfinite(v) for key in ("raw_mean", "mean", "var", "ks") for v in payload[key])
    assert payload["mean"] == [0.0, 0.0]


def test_bad_inputs_exit_2(tmp_path, capsys):
    def rejected(argv, message):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert "config error:" in err and message in err

    for overrides, message in (
            (dict(function_labels=[1]), "function_labels"),
            (dict(function_labels="charpoly"), "function_labels"),
            (dict(model_spec={"type": "fourier", "coeffs": [0.3]}), "coeffs"),
            (dict(model_spec={"type": "fourier", "coeffs": {"1": [0.3]}}), "coefficient")):
        rejected(["clt", "--config", _clt_config(tmp_path, **overrides)], message)
    # H = 0 is a value, not "no H given"
    rejected(["discrepancy", "--kronecker", "0.414", "--n", "100", "--etk-H", "0"], "H must be")
    rejected(["feller-check", "--n", "0", "--theta", "1"], "1 <= n <= 16")


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert permchar.__version__ == tomllib.load(fh)["project"]["version"]
