"""End-to-end tests of the command-line interface: every subcommand, the
exit-code contract, and cross-run determinism of experiment artifacts."""

import json

import numpy as np
import pytest

from scorekit import bench
from scorekit.bench import SummaryRow, parse_experiment_config, write_summary_csv
from scorekit.cli import main
from scorekit.estimators import load_estimator
from scorekit.oracles import (
    load_samples_csv,
    sample,
    save_samples_csv,
    standard_gaussian,
)

from estimator_files import CORRUPT, pack


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def samples_csv(tmp_path):
    X = sample(standard_gaussian(2), 48, 0)
    path = tmp_path / "samples.csv"
    save_samples_csv(X, path)
    return path


def fit_config(tmp_path, **estimator):
    estimator.setdefault("id", "tikhonov")
    if estimator["id"] != "oracle":
        estimator.setdefault("kind", "curl_free")
        if estimator["id"] in ("tikhonov", "tikhonov_cg", "truncated_tikhonov",
                               "nystrom"):
            estimator.setdefault("lambdas", [0.01])
    return write_json(tmp_path / "fit.json", {
        "schema_version": 1,
        "samples": "samples.csv",
        "estimator": estimator,
    })


class TestFitPredict:

    def test_roundtrip(self, tmp_path, samples_csv):
        cfg = fit_config(tmp_path)
        out = tmp_path / "est.bin"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0

        est = load_estimator(out)
        Q = sample(standard_gaussian(2), 10, 5)
        q_csv = tmp_path / "q.csv"
        save_samples_csv(Q, q_csv)
        pcfg = write_json(tmp_path / "p.json", {
            "schema_version": 1, "estimator": "est.bin", "queries": "q.csv"})
        s_csv = tmp_path / "scores.csv"
        assert main(["predict", "--config", pcfg, "--out", str(s_csv)]) == 0
        assert np.array_equal(load_samples_csv(s_csv), est.predict(Q))

    def test_fit_each_scheme(self, tmp_path, samples_csv):
        schemes = [
            {"id": "tikhonov_cg", "kind": "curl_free", "lambdas": [0.01]},
            {"id": "truncated_tikhonov", "kind": "diagonal", "lambdas": [0.01]},
            {"id": "spectral_cutoff", "kind": "diagonal", "fractions": [0.5]},
            {"id": "landweber", "kind": "curl_free", "iterations": [10]},
            {"id": "nu_method", "kind": "curl_free", "iterations": [5]},
            {"id": "nystrom", "kind": "curl_free", "lambdas": [0.01],
             "subset_size": 12},
        ]
        for i, scheme in enumerate(schemes):
            cfg = write_json(tmp_path / f"f{i}.json", {
                "schema_version": 1, "samples": "samples.csv",
                "estimator": scheme})
            out = tmp_path / f"est{i}.bin"
            assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
            assert load_estimator(out).samples.shape == (48, 2)

    def test_fit_requires_single_grid_point(self, tmp_path, samples_csv, capsys):
        cfg = fit_config(tmp_path, lambdas=[0.1, 0.01])
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "e.bin")]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_fit_oracle_rejected(self, tmp_path, samples_csv, capsys):
        cfg = fit_config(tmp_path, id="oracle")
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "e.bin")]) == 1

    def test_nystrom_seed_changes_subset(self, tmp_path, samples_csv):
        cfg = fit_config(tmp_path, id="nystrom", subset_size=8)
        a, b, c = (tmp_path / n for n in ("a.bin", "b.bin", "c.bin"))
        assert main(["fit", "--config", cfg, "--out", str(a), "--seed", "1"]) == 0
        assert main(["fit", "--config", cfg, "--out", str(b), "--seed", "2"]) == 0
        assert main(["fit", "--config", cfg, "--out", str(c), "--seed", "1"]) == 0
        ia = load_estimator(a).subset_indices
        ib = load_estimator(b).subset_indices
        ic = load_estimator(c).subset_indices
        assert np.array_equal(ia, ic)
        assert not np.array_equal(ia, ib)


class TestExitCodes:

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["fit", "--config", "x.json"]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["grid-exp", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o.csv")]) == 1

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["grid-exp", "--config", str(bad),
                     "--out", str(tmp_path / "o.csv")]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, samples_csv, capsys):
        cfg = write_json(tmp_path / "f.json", {
            "schema_version": 1, "samples": "samples.csv",
            "estimator": {"id": "tikhonov", "kind": "curl_free",
                          "lambdas": [0.01]},
            "extra": 1})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "e.bin")]) == 1
        assert "extra" in capsys.readouterr().err

    def test_numeric_failure_is_exit_2(self, tmp_path, samples_csv, capsys):
        cfg = fit_config(tmp_path, id="landweber", iterations=[5], eta=1e9)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "e.bin")]) == 2
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("name, raw", CORRUPT, ids=[c[0] for c in CORRUPT])
    def test_predict_on_corrupt_estimator_is_exit_1(self, tmp_path, capsys, name, raw):
        (tmp_path / "est.bin").write_bytes(raw)
        save_samples_csv(np.zeros((2, 2)), tmp_path / "q.csv")
        pcfg = write_json(tmp_path / "p.json", {
            "schema_version": 1, "estimator": "est.bin", "queries": "q.csv"})
        assert main(["predict", "--config", pcfg, "--out", str(tmp_path / "s.csv")]) == 1
        assert "error" in capsys.readouterr().err

    def test_predict_on_valid_hand_built_estimator(self, tmp_path):
        # the corrupt cases above differ from this file in one field each
        (tmp_path / "est.bin").write_bytes(pack())
        save_samples_csv(np.zeros((2, 2)), tmp_path / "q.csv")
        pcfg = write_json(tmp_path / "p.json", {
            "schema_version": 1, "estimator": "est.bin", "queries": "q.csv"})
        assert main(["predict", "--config", pcfg, "--out", str(tmp_path / "s.csv")]) == 0

    def test_bad_threads(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {})
        assert main(["grid-exp", "--config", cfg, "--out", "o.csv",
                     "--threads", "0"]) == 1


class TestExperimentCommands:

    def exp_config(self, tmp_path, **overrides):
        data = {
            "schema_version": 1,
            "distribution": "grid",
            "dimensions": [2],
            "sample_sizes": [16],
            "seeds": [0, 1],
            "eval_size": 64,
            "estimators": [
                {"id": "oracle"},
                {"id": "tikhonov", "kind": "curl_free", "lambdas": [0.1, 0.01]},
            ],
        }
        data.update(overrides)
        return write_json(tmp_path / "exp.json", data)

    def test_grid_exp_writes_artifacts(self, tmp_path):
        cfg = self.exp_config(tmp_path)
        out = tmp_path / "rows.csv"
        assert main(["grid-exp", "--config", cfg, "--out", str(out)]) == 0
        assert out.exists()
        assert (tmp_path / "rows.summary.csv").exists()
        assert (tmp_path / "rows.timings.csv").exists()
        header = out.read_text().splitlines()[0]
        assert header == "estimator,kind,d,M,hyperparams,seed,error,reason"

    def test_grid_exp_rerun_byte_identical(self, tmp_path):
        cfg = self.exp_config(tmp_path)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["grid-exp", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["grid-exp", "--config", cfg, "--out", str(out2),
                     "--threads", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override(self, tmp_path):
        cfg = self.exp_config(tmp_path)
        out = tmp_path / "rows.csv"
        assert main(["grid-exp", "--config", cfg, "--out", str(out),
                     "--seed", "7"]) == 0
        seeds = {line.split(",")[5] for line
                 in out.read_text().splitlines()[1:]}
        assert seeds == {"7"}

    def test_conv_exp(self, tmp_path):
        cfg = self.exp_config(tmp_path, distribution="gaussian",
                              dimensions=[1], sample_sizes=[8, 32, 128],
                              estimators=[{"id": "oracle"}])
        out = tmp_path / "conv.csv"
        assert main(["conv-exp", "--config", cfg, "--out", str(out)]) == 0
        slopes = (tmp_path / "conv.slopes.csv").read_text()
        assert "exact-fit" in slopes

    def test_conv_exp_precondition(self, tmp_path, capsys):
        cfg = self.exp_config(tmp_path, sample_sizes=[8, 16, 32])
        assert main(["conv-exp", "--config", cfg,
                     "--out", str(tmp_path / "c.csv")]) == 1

    def test_plot_command(self, tmp_path):
        cfg = self.exp_config(tmp_path)
        rows = tmp_path / "rows.csv"
        assert main(["grid-exp", "--config", cfg, "--out", str(rows)]) == 0
        pcfg = write_json(tmp_path / "plot.json", {
            "schema_version": 1, "input": "rows.summary.csv",
            "x": "M", "log_y": True, "title": "demo"})
        svg_out = tmp_path / "plot.svg"
        assert main(["plot", "--config", pcfg, "--out", str(svg_out)]) == 0
        svg = svg_out.read_text()
        assert svg.startswith("<svg")
        assert "demo" in svg

    def test_plot_bad_x(self, tmp_path, capsys):
        pcfg = write_json(tmp_path / "plot.json", {
            "schema_version": 1, "input": "missing.csv", "x": "q"})
        assert main(["plot", "--config", pcfg,
                     "--out", str(tmp_path / "p.svg")]) == 1


class TestNonUtf8Input:
    """Every text file a subcommand reads is decoded as UTF-8; a file that
    is not is an input error naming it, not a UnicodeDecodeError."""

    @staticmethod
    def inputs(tmp_path):
        """Valid inputs of each subcommand: {command: (argv, {file: path})}."""
        save_samples_csv(sample(standard_gaussian(2), 12, 0), tmp_path / "samples.csv")
        save_samples_csv(np.zeros((2, 2)), tmp_path / "q.csv")
        (tmp_path / "est.bin").write_bytes(pack())
        (tmp_path / "mixture.json").write_text(json.dumps(
            {"means": [[0.0, 0.0], [1.0, 1.0]], "weights": [0.5, 0.5]}))
        write_summary_csv([SummaryRow("tikhonov", "curl_free", 2, 16, "lam=0.1", 0.5, 2)],
                          tmp_path / "rows.summary.csv")
        configs = {
            "fit": {"samples": "samples.csv",
                    "estimator": {"id": "tikhonov", "kind": "curl_free",
                                  "lambdas": [0.01]}},
            "predict": {"estimator": "est.bin", "queries": "q.csv"},
            "grid-exp": {"distribution": "mixture", "mixture_file": "mixture.json",
                         "dimensions": [2], "sample_sizes": [8], "seeds": [0],
                         "eval_size": 8, "estimators": [{"id": "oracle"}]},
            "plot": {"input": "rows.summary.csv"},
        }
        out = {}
        for cmd, data in configs.items():
            cfg = write_json(tmp_path / f"{cmd}.json", dict(schema_version=1, **data))
            argv = [cmd, "--config", cfg, "--out", str(tmp_path / f"{cmd}.out")]
            files = {"config": cfg}
            files.update((key, str(tmp_path / data[key])) for key in
                         ("samples", "queries", "mixture_file", "input") if key in data)
            out[cmd] = argv, files
        return out

    def test_valid_inputs_succeed(self, tmp_path):
        for argv, _ in self.inputs(tmp_path).values():
            assert main(argv) == 0, argv

    @pytest.mark.parametrize("command, file", [
        ("fit", "config"), ("fit", "samples"),
        ("predict", "config"), ("predict", "queries"),
        ("grid-exp", "config"), ("grid-exp", "mixture_file"),
        ("plot", "config"), ("plot", "input"),
    ])
    def test_a_non_utf8_byte_is_exit_1_naming_the_file(self, tmp_path, capsys,
                                                        command, file):
        argv, files = self.inputs(tmp_path)[command]
        path = files[file]
        with open(path, "rb") as f:
            raw = f.read()
        with open(path, "wb") as f:
            f.write(raw[:len(raw) // 2] + b"\xff" + raw[len(raw) // 2:])
        assert main(argv) == 1
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err


class TestCliMatchesSweep:
    """Where `scorekit fit` and the sweep take the same path, the CLI's saved
    fit equals the sweep's one-point fit bit for bit. Not covered, because
    the two take different paths on purpose:
    - curl-free tikhonov: the sweep starts each fit from a shared Lanczos or
      shifted-CG solve and runs matrix-free CG to 1e-8, not 1e-10;
    - curl-free nu_method: the sweep runs the recursion on a Lanczos basis;
    - diagonal landweber and nu_method: the CLI builds the Md x Md
      Kronecker Gram, the sweep the scalar M x M one.
    """

    CASES = [("diagonal", {"id": "tikhonov", "lambdas": [0.01]})] + [
        (kind, entry) for kind in ("diagonal", "curl_free") for entry in (
            {"id": "tikhonov_cg", "lambdas": [0.01]},
            {"id": "truncated_tikhonov", "lambdas": [0.01]},
            {"id": "spectral_cutoff", "fractions": [0.5]},
            {"id": "spectral_cutoff", "lambdas": [0.01]},
            {"id": "nystrom", "lambdas": [0.01], "subset_fraction": 0.5},
        )] + [("curl_free", {"id": "landweber", "iterations": [10]})]

    @pytest.mark.parametrize("kind, entry", CASES, ids=[
        f"{kind}-{entry['id']}-{next(k for k in entry if k != 'id')}" for kind, entry in CASES])
    def test_cli_fit_equals_the_sweep_fit(self, tmp_path, kind, entry):
        d, M, seed = 2, 24, 3
        entry = dict(entry, kind=kind)
        cfg = parse_experiment_config({
            "schema_version": 1, "distribution": "grid", "dimensions": [d],
            "sample_sizes": [M], "seeds": [seed], "eval_size": 8,
            "estimators": [entry]})
        problem = bench._Problem(cfg, d, M, seed)
        parsed = cfg.estimators[0]
        [(_, cell, swept)] = bench._fit_cells(parsed, problem, problem.spec(parsed))
        assert cell.reason == ""
        save_samples_csv(problem.X, tmp_path / "samples.csv")
        fcfg = write_json(tmp_path / "fit.json", {
            "schema_version": 1, "samples": "samples.csv", "estimator": entry})
        out = tmp_path / "est.bin"
        assert main(["fit", "--config", fcfg, "--out", str(out), "--seed", str(seed)]) == 0
        fitted = load_estimator(out)
        assert fitted.scheme == swept.scheme
        assert fitted.offset == swept.offset
        assert np.array_equal(fitted.coeffs, swept.coeffs)
        assert np.array_equal(fitted.basis, swept.basis)
