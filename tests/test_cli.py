"""End-to-end tests of the command-line interface: every subcommand, the
exit-code contract, and cross-run determinism of experiment artifacts."""

import contextlib
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scorekit import bench
from scorekit.bench import SummaryRow, write_summary_csv
from scorekit.cli import main
from scorekit.errors import InputError
from scorekit.estimators import (
    fit_nu_method,
    fit_tikhonov,
    fit_tikhonov_cg,
    load_estimator,
    predict,
)
from scorekit.kernels import MatrixKernelSpec, ScalarRadialKernel
from scorekit.oracles import (
    load_samples_csv,
    make_grid_distribution,
    median_bandwidth,
    sample,
    save_samples_csv,
    standard_gaussian,
)

from estimator_files import CORRUPT, pack
from helpers import forbid_big_cross_grams


def write_fit_config(tmp_path, X, entry):
    save_samples_csv(X, tmp_path / "samples.csv")
    return write_json(tmp_path / "fit.json", {
        "schema_version": 1, "samples": "samples.csv", "estimator": entry})


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
        assert capsys.readouterr().err.startswith(
            f"scorekit: error: {tmp_path / 'est.bin'}: ")

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

    @pytest.mark.parametrize("command", ["fit", "grid-exp", "conv-exp"])
    def test_negative_seed_is_exit_1(self, tmp_path, samples_csv, capsys, command):
        # a negative seed would reach numpy's SeedSequence and end in a traceback
        if command == "fit":
            cfg = fit_config(tmp_path, id="nystrom", subset_size=8)
        else:
            cfg = write_json(tmp_path / "c.json", {
                "schema_version": 1, "distribution": "gaussian", "dimensions": [2],
                "sample_sizes": [8, 16], "seeds": [0], "eval_size": 8,
                "estimators": [{"id": "oracle"}]})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "scorekit: error: --seed must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("eval_size", 10 ** 30), ("sample_sizes", [10 ** 30]), ("dimensions", [10 ** 30])])
    def test_a_size_past_the_bound_is_refused_at_parse_time(self, tmp_path, capsys,
                                                            monkeypatch, key, value):
        # numpy would end these in OverflowError or ValueError tracebacks
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(bench, "run_grid_rows", no_sweep)
        data = {"schema_version": 1, "distribution": "gaussian", "dimensions": [2],
                "sample_sizes": [8], "seeds": [0], "eval_size": 8,
                "estimators": [{"id": "oracle"}], key: value}
        out = tmp_path / "out.csv"
        assert main(["grid-exp", "--config", write_json(tmp_path / "c.json", data),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"scorekit: error: config.{key}: expected integer(s) in [1, {2 ** 28}], "
            f"got {10 ** 30}\n")
        assert not out.exists()

    @pytest.mark.parametrize("bandwidth", [1e60, 1e-60])
    def test_a_bandwidth_past_the_kernel_range_is_exit_1(self, tmp_path, samples_csv,
                                                         capsys, bandwidth):
        # the kernel's derivative scales would end in OverflowError or
        # ZeroDivisionError tracebacks
        cfg = fit_config(tmp_path, bandwidth=bandwidth)
        out = tmp_path / "e.bin"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"scorekit: error: bandwidth {bandwidth!r} is outside about [")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("fit", "--threads"), ("predict", "--threads"), ("predict", "--seed"),
        ("plot", "--seed"), ("plot", "--threads")])
    def test_a_flag_the_subcommand_does_not_read_is_exit_1(self, tmp_path, capsys,
                                                           command, flag):
        out = tmp_path / "out"
        assert main([command, "--config", "c.json", "--out", str(out), flag, "2"]) == 1
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert not out.exists()


FITTABLE = [i for i, how in bench.REGISTRY.items() if how.fit is not None]
POSITIVE_FLOATS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


# at these kinds and bandwidths h is small enough that h / lam stays finite
# at lam = 1e-320, where the offset -1/lam does not
TINY_LAM_FITS = [(eid, kind, bw) for eid in ("tikhonov", "tikhonov_cg")
                 for kind, bw in (("diagonal", 1e-50), ("curl_free", 1e-50),
                                  ("diagonal", 1e-20), ("curl_free", 1e-20),
                                  ("curl_free", 1e-5))]


def tiny_lam_examples(test):
    for eid, kind, bw in TINY_LAM_FITS:
        test = example(eid=eid, kind=kind, family="imq", bandwidth=bw, lam=1e-320, t=1)(test)
    return test


# Nystrom fits whose filter weight 1/lam = 1e308 on a clipped eigenvalue of L
# overflows the coefficients at bandwidth 100 on 12 x 2 normal samples
OVERFLOWING_NYSTROM_FITS = [("diagonal", "imq"), ("diagonal", "gaussian"),
                            ("curl_free", "gaussian")]


def overflowing_nystrom_examples(test):
    for kind, family in OVERFLOWING_NYSTROM_FITS:
        test = example(eid="nystrom", kind=kind, family=family, bandwidth=100.0,
                       lam=1e-308, t=1)(test)
    # finite coefficients (max|c| = 6.4e307) whose prediction at the samples
    # overflows
    return example(eid="nystrom", kind="curl_free", family="gaussian", bandwidth=1e5,
                   lam=1e-308, t=1)(test)


class TestFitExitContract:
    """`scorekit fit` of any fittable id, kind and family, at any positive
    bandwidth and grid value, exits 0, 1 or 2, a failure ends in one
    contract line, never a traceback, and a success writes a file that
    load_estimator reads. numpy's RuntimeWarnings (overflow, invalid
    values) are ignored, not raised: a command-line run prints them and
    goes on, and the exit code, the last line and the file are what this
    contract covers."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(eid=st.sampled_from(FITTABLE), kind=st.sampled_from(["diagonal", "curl_free"]),
           family=st.sampled_from(["imq", "gaussian"]),
           # half the bandwidths near the samples' scale, where most fits run
           bandwidth=st.one_of(POSITIVE_FLOATS, st.floats(0.01, 100.0)),
           lam=POSITIVE_FLOATS, t=st.integers(1, 64))
    @tiny_lam_examples
    @overflowing_nystrom_examples
    def test_every_fit_exits_by_the_contract(self, tmp_path_factory, eid, kind, family,
                                             bandwidth, lam, t):
        tmp = tmp_path_factory.mktemp("fit")
        save_samples_csv(np.random.default_rng(0).normal(size=(12, 2)), tmp / "samples.csv")
        grid = {"iterations": [t]} if eid in ("landweber", "nu_method") else {"lambdas": [lam]}
        cfg = write_json(tmp / "fit.json", {
            "schema_version": 1, "samples": "samples.csv",
            "estimator": {"id": eid, "kind": kind, "family": family,
                          "bandwidth": bandwidth, **grid}})
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["fit", "--config", cfg, "--out", str(tmp / "est.bin")])
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().splitlines()[-1].startswith(
                ("scorekit: error:", "scorekit: numeric failure:"))
        else:  # a file that loads, and finite predictions at the samples
            est = load_estimator(tmp / "est.bin")
            assert np.all(np.isfinite(predict(est, est.samples)))

    @pytest.mark.parametrize("eid", ["tikhonov", "tikhonov_cg"])
    @pytest.mark.parametrize("kind, bandwidth", sorted({(k, bw) for _, k, bw in TINY_LAM_FITS}
                                                       | {("diagonal", 1.0), ("curl_free", 1.0)}))
    def test_a_lam_without_a_finite_offset_is_one_input_error(self, tmp_path, capsys, eid,
                                                              kind, bandwidth):
        # both Tikhonov fits refuse it before any divide, also at bandwidth 1,
        # where h / lam would overflow
        cfg = write_fit_config(tmp_path, np.random.default_rng(0).normal(size=(12, 2)), {
            "id": eid, "kind": kind, "family": "imq", "bandwidth": bandwidth,
            "lambdas": [1e-320]})
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # printed to stderr, as a command-line run does
            code = main(["fit", "--config", cfg, "--out", str(tmp_path / "est.bin")])
        err = capsys.readouterr().err
        assert code == 1 and not (tmp_path / "est.bin").exists()
        assert err.splitlines() == [
            "scorekit: error: Tikhonov requires lam in [5.563e-309, 1.798e+308], "
            "where 1/lam is a finite double, got 1e-320"]


    @pytest.mark.parametrize("eid", ["tikhonov", "tikhonov_cg"])
    @pytest.mark.parametrize("kind, bandwidth", [("curl_free", 1.0), ("diagonal", 1.0),
                                                 ("diagonal", 1e-5)])
    @pytest.mark.parametrize("lam", [1e-300, 1e-308])
    def test_an_overflowing_solve_prints_no_runtime_warning(self, tmp_path, capsys, eid, kind,
                                                            bandwidth, lam):
        # inside the lam range h / lam is finite, but the norms and products
        # of the solve overflow: it fails with one contract line or writes
        # a file that loads, and numpy prints nothing
        cfg = write_fit_config(tmp_path, np.random.default_rng(0).normal(size=(12, 2)), {
            "id": eid, "kind": kind, "family": "imq", "bandwidth": bandwidth,
            "lambdas": [lam]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # each one a command-line run would print
            code = main(["fit", "--config", cfg, "--out", str(tmp_path / "est.bin")])
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        if code:
            assert code == 2 and len(err.splitlines()) == 1
            assert err.startswith("scorekit: numeric failure:")
        else:
            assert err == ""
            load_estimator(tmp_path / "est.bin")

    @pytest.mark.parametrize("kind", ["curl_free", "diagonal"])
    def test_cg_solves_a_right_hand_side_whose_squared_norm_overflows(self, tmp_path, capsys,
                                                                       kind):
        # h / lam is about 1e300: CG runs on it scaled by a power of two and
        # converges (26 iterations curl-free) where ||h / lam||^2 overflows
        cfg = write_fit_config(tmp_path, np.random.default_rng(0).normal(size=(12, 2)), {
            "id": "tikhonov_cg", "kind": kind, "family": "imq", "bandwidth": 1.0,
            "lambdas": [1e-300]})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "est.bin")]) == 0
        assert capsys.readouterr().err == ""
        assert load_estimator(tmp_path / "est.bin").scheme.lam == 1e-300

    @pytest.mark.parametrize("kind, family", OVERFLOWING_NYSTROM_FITS)
    def test_overflowing_coefficients_are_one_numeric_failure(self, tmp_path, capsys, kind,
                                                              family):
        # the constructor refuses the non-finite coefficients, so no file is
        # written that load_estimator would refuse, and numpy prints nothing
        cfg = write_fit_config(tmp_path, np.random.default_rng(0).normal(size=(12, 2)), {
            "id": "nystrom", "kind": kind, "family": family, "bandwidth": 100.0,
            "lambdas": [1e-308]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["fit", "--config", cfg, "--out", str(tmp_path / "est.bin")])
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert code == 2 and not (tmp_path / "est.bin").exists()
        assert len(err.splitlines()) == 1
        assert err.startswith("scorekit: numeric failure: fitted state is not finite")

    def test_a_prediction_at_the_samples_that_overflows_is_one_numeric_failure(self, tmp_path,
                                                                                capsys):
        # the coefficients are finite (max|c| = 6.4e307), but K(X, Z) c
        # overflows: no file is written whose predictions at the samples
        # predict would refuse, and numpy prints nothing
        cfg = write_fit_config(tmp_path, np.random.default_rng(0).normal(size=(12, 2)), {
            "id": "nystrom", "kind": "curl_free", "family": "gaussian", "bandwidth": 1e5,
            "lambdas": [1e-308]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["fit", "--config", cfg, "--out", str(tmp_path / "est.bin")])
        assert [str(w.message) for w in caught] == []
        assert code == 2 and not (tmp_path / "est.bin").exists()
        assert capsys.readouterr().err.splitlines() == [
            "scorekit: numeric failure: at the samples: prediction produced non-finite values"]


# estimator files for the predict property: a zeta term over the samples,
# and a subset basis
PREDICTED_FITS = [
    {"id": "tikhonov", "kind": "curl_free", "family": "imq", "bandwidth": 1.0,
     "lambdas": [0.01]},
    {"id": "nystrom", "kind": "diagonal", "family": "gaussian", "bandwidth": 0.5,
     "lambdas": [0.01]},
]


class TestCommandProperties:
    """`scorekit predict` and `grid-exp` keep the exit-code contract over
    drawn inputs, and neither records a RuntimeWarning."""

    @pytest.fixture(scope="class")
    def estimator_files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fits")
        out = []
        for i, entry in enumerate(PREDICTED_FITS):
            cfg = write_fit_config(tmp, np.random.default_rng(i).normal(size=(12, 2)), entry)
            out.append(tmp / f"est{i}.bin")
            assert main(["fit", "--config", cfg, "--out", str(out[-1])]) == 0
        return out

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(which=st.integers(0, len(PREDICTED_FITS) - 1),
           queries=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2),
                            min_size=1, max_size=4))
    def test_predict_on_queries_across_the_float_range(self, tmp_path_factory,
                                                      estimator_files, which, queries):
        tmp = tmp_path_factory.mktemp("predict")
        save_samples_csv(np.array(queries), tmp / "q.csv")
        cfg = write_json(tmp / "p.json", {"schema_version": 1,
                                          "estimator": str(estimator_files[which]),
                                          "queries": "q.csv"})
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["predict", "--config", cfg, "--out", str(tmp / "s.csv")])
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().splitlines()[-1].startswith(
                ("scorekit: error:", "scorekit: numeric failure:"))
            assert not (tmp / "s.csv").exists()
        else:
            S = load_samples_csv(tmp / "s.csv")
            assert S.shape == (len(queries), 2) and np.all(np.isfinite(S))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(eid=st.sampled_from(FITTABLE), kind=st.sampled_from(["diagonal", "curl_free"]),
           family=st.sampled_from(["imq", "gaussian"]),
           bandwidth=st.one_of(st.just("median"), POSITIVE_FLOATS, st.floats(0.01, 100.0)),
           lam=POSITIVE_FLOATS, t=st.integers(1, 64),
           distribution=st.sampled_from(["grid", "gaussian"]), d=st.integers(1, 2),
           M=st.integers(1, 8), eval_size=st.integers(1, 8), seed=st.integers(0, 3))
    # a finite prediction near a/lam = 1e300 whose squared error overflows
    @example(eid="tikhonov", kind="curl_free", family="imq", bandwidth=1.0, lam=1e-300, t=1,
             distribution="gaussian", d=2, M=8, eval_size=8, seed=0)
    def test_grid_exp_rows_hold_an_error_or_a_reason(self, tmp_path_factory, eid, kind,
                                                     family, bandwidth, lam, t, distribution,
                                                     d, M, eval_size, seed):
        tmp = tmp_path_factory.mktemp("sweep")
        grid = {"iterations": [t]} if eid in ("landweber", "nu_method") else {"lambdas": [lam]}
        cfg = write_json(tmp / "exp.json", {
            "schema_version": 1, "distribution": distribution, "dimensions": [d],
            "sample_sizes": [M], "seeds": [seed], "eval_size": eval_size,
            "estimators": [{"id": "oracle"},
                           {"id": eid, "kind": kind, "family": family,
                            "bandwidth": bandwidth, **grid}]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            assert main(["grid-exp", "--config", cfg, "--out", str(tmp / "rows.csv")]) == 0
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        rows = list(csv.DictReader(io.StringIO((tmp / "rows.csv").read_text())))
        assert len(rows) == 2
        for row in rows:
            error = float(row["error"])
            assert (math.isfinite(error) and row["reason"] == "") or (
                math.isnan(error) and row["reason"] != ""), row


class TestConfigRoot:
    """Every config file, a subcommand's or a sweep's, passes one root check
    and resolves its file paths one way."""

    CONFIGS = {
        "fit": {"samples": "samples.csv",
                "estimator": {"id": "tikhonov", "kind": "curl_free", "lambdas": [0.1]}},
        "predict": {"estimator": "est.bin", "queries": "q.csv"},
        "grid-exp": {"distribution": "gaussian", "dimensions": [2], "sample_sizes": [8],
                     "seeds": [0], "eval_size": 8, "estimators": [{"id": "oracle"}]},
        "plot": {"input": "rows.summary.csv"},
    }
    CONFIGS["conv-exp"] = CONFIGS["grid-exp"]
    MESSAGE = "config: 'schema_version' must be 1, got 2"

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_schema_version_2_is_refused_with_one_message(self, tmp_path, capsys, command):
        cfg = write_json(tmp_path / "c.json", dict(self.CONFIGS[command], schema_version=2))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"scorekit: error: {self.MESSAGE}\n"

    def test_the_sweep_parser_gives_the_same_message(self):
        with pytest.raises(InputError) as info:
            bench.parse_experiment_config(dict(self.CONFIGS["grid-exp"], schema_version=2))
        assert str(info.value) == self.MESSAGE

    @pytest.mark.parametrize("command, key", [
        ("fit", "samples"), ("predict", "queries"), ("plot", "input")])
    @pytest.mark.parametrize("value", [5, "", None, ["x.csv"]])
    def test_a_path_that_is_not_a_string_is_refused(self, tmp_path, capsys, command, key,
                                                     value):
        (tmp_path / "est.bin").write_bytes(pack())
        data = dict(self.CONFIGS[command], schema_version=1)
        data[key] = value
        cfg = write_json(tmp_path / "c.json", data)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert (f"scorekit: error: config.{key}: expected a file path string"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("title", [["a"], 3, None, {"t": 1}])
    def test_plot_refuses_a_title_that_is_not_a_string(self, tmp_path, capsys, title):
        write_summary_csv([SummaryRow("tikhonov", "curl_free", 2, 16, "lam=0.1", 0.5, 2)],
                          tmp_path / "rows.summary.csv")
        cfg = write_json(tmp_path / "c.json", dict(self.CONFIGS["plot"], schema_version=1,
                                                   title=title))
        assert main(["plot", "--config", cfg, "--out", str(tmp_path / "p.svg")]) == 1
        assert "config.title" in capsys.readouterr().err
        assert not (tmp_path / "p.svg").exists()


class TestOneReader:
    """bench.read_config reads every JSON file kind: a non-object root, an
    unknown key and a missing required key are each one error that names
    the file once."""

    MIXTURE = {"means": [[0.0, 0.0]], "weights": [1.0]}
    FAULTS = {
        "root": lambda data, required: [data],
        "unknown key": lambda data, required: dict(data, extra=1),
        "missing key": lambda data, required: {k: v for k, v in data.items() if k != required},
    }
    REQUIRED = {"fit": "samples", "predict": "queries", "grid-exp": "seeds",
                "conv-exp": "sample_sizes", "plot": "input"}

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("command", sorted(TestConfigRoot.CONFIGS))
    def test_a_config_file_fault_names_it_once(self, tmp_path, capsys, command, fault):
        data = dict(TestConfigRoot.CONFIGS[command], schema_version=1)
        cfg = write_json(tmp_path / "c.json", self.FAULTS[fault](data, self.REQUIRED[command]))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"scorekit: error: {cfg}: ") and err.count(cfg) == 1
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_a_mixture_file_fault_names_it_once(self, tmp_path, fault):
        path = write_json(tmp_path / "mix.json", self.FAULTS[fault](self.MIXTURE, "weights"))
        with pytest.raises(InputError) as info:
            bench.load_mixture_file(path)
        message = str(info.value)
        assert message.startswith(f"{path}: mixture file") and message.count(path) == 1

    def test_missing_keys_of_a_cli_config_share_the_sweep_wording(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"schema_version": 1})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"scorekit: error: {cfg}: config: missing required key(s) 'samples', 'estimator'\n")


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

    @pytest.mark.parametrize("mixture", [
        {"means": "ab", "weights": [1.0]},
        {"means": [[0.0, 0.0], [1.0]], "weights": [0.5, 0.5]},
        {"means": [[0.0, 0.0]], "weights": "w"},
        {"means": [[0.0, 0.0]], "weights": [1.0], "scale": "x"},
        {"means": [[0.0, 0.0]], "weights": [1.0], "scale": 0},
        {"means": [[0.0, 0.0]], "weights": [0.5, 0.5]},
        {"means": [["0", "1"]], "weights": [1.0]},
        {"means": [[0.0, 1.0]], "weights": ["1"]},
        {"means": [[True, False]], "weights": [1.0]},
        {"means": [[0.0, 1.0]], "weights": [True]},
    ], ids=["string means", "ragged means", "string weights", "string scale",
            "zero scale", "weight count", "string mean entries", "string weight entry",
            "boolean mean entries", "boolean weight entry"])
    def test_malformed_mixture_file_is_exit_1_naming_it(self, tmp_path, capsys, mixture):
        path = tmp_path / "mix.json"
        write_json(path, mixture)
        cfg = self.exp_config(tmp_path, distribution="mixture", mixture_file="mix.json")
        assert main(["grid-exp", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"scorekit: error: {path}: ")

    @pytest.mark.parametrize("name", [5, "", None, ["mix.json"]])
    def test_mixture_file_must_be_a_path_string(self, tmp_path, capsys, name):
        cfg = self.exp_config(tmp_path, distribution="mixture", mixture_file=name)
        assert main(["grid-exp", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 1
        assert "config.mixture_file: expected a file path string" in capsys.readouterr().err

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
    """The CLI's saved fit equals the sweep's one-point fit bit for bit, for
    every id and kind: a one-point problem builds no Lanczos basis, and the
    sweep passes its fits nothing that `scorekit fit` does not. A curl-free
    Tikhonov, Tikhonov-CG or nu-method fit from the CLI is therefore also
    the public fit itself (last test)."""

    CASES = [(kind, entry) for kind in ("diagonal", "curl_free") for entry in (
        {"id": "tikhonov", "lambdas": [0.01]},
        {"id": "tikhonov_cg", "lambdas": [0.01]},
        {"id": "truncated_tikhonov", "lambdas": [0.01]},
        {"id": "spectral_cutoff", "fractions": [0.5]},
        {"id": "spectral_cutoff", "lambdas": [0.01]},
        {"id": "nystrom", "lambdas": [0.01], "subset_fraction": 0.5},
        {"id": "landweber", "iterations": [10]},
        {"id": "nu_method", "iterations": [10]},
    )]

    @staticmethod
    def fit_by_cli(tmp_path, X, entry, seed=0):
        fcfg = write_fit_config(tmp_path, X, entry)
        out = tmp_path / "est.bin"
        assert main(["fit", "--config", fcfg, "--out", str(out), "--seed", str(seed)]) == 0
        return load_estimator(out)

    @staticmethod
    def assert_same_fit(fitted, ref):
        assert fitted.scheme == ref.scheme
        assert fitted.offset == ref.offset
        assert np.array_equal(fitted.coeffs, ref.coeffs)
        assert np.array_equal(fitted.basis, ref.basis)

    @classmethod
    def assert_cli_fit_is_the_sweep_fit(cls, tmp_path, entry, d, M, seed=3):
        X = sample(make_grid_distribution(d, 0), M,
                   np.random.SeedSequence(seed, spawn_key=(1, d, M)))
        parsed = bench._parse_estimator(entry, "estimator")
        problem = bench._Problem(X, (parsed,), seed)
        [(_, cell, swept)] = bench._fit_cells(parsed, problem, problem.spec(parsed))
        assert cell.reason == ""
        cls.assert_same_fit(cls.fit_by_cli(tmp_path, X, entry, seed), swept)

    @pytest.mark.parametrize("kind, entry", CASES, ids=[
        f"{kind}-{entry['id']}-{next(k for k in entry if k != 'id')}" for kind, entry in CASES])
    def test_cli_fit_equals_the_sweep_fit(self, tmp_path, kind, entry):
        self.assert_cli_fit_is_the_sweep_fit(tmp_path, dict(entry, kind=kind), d=2, M=24)

    # Md = 4160 is over the dense limit: the matrix-free Gram
    @pytest.mark.parametrize("entry", [{"id": "tikhonov", "lambdas": [0.01]},
                                       {"id": "tikhonov_cg", "lambdas": [0.01]},
                                       {"id": "nu_method", "iterations": [10]}],
                             ids=["tikhonov", "tikhonov_cg", "nu_method"])
    def test_matrix_free_cli_fit_equals_the_sweep_fit(self, tmp_path, entry):
        self.assert_cli_fit_is_the_sweep_fit(tmp_path, dict(entry, kind="curl_free"),
                                             d=32, M=130)

    # Md = 4160 is over the dense limit: the matrix-free CG fit
    @pytest.mark.parametrize("entry, M, d, fit, mode", [
        ({"id": "tikhonov", "lambdas": [0.01]}, 24, 2,
         lambda X, spec: fit_tikhonov(X, spec, 0.01), "dense"),
        ({"id": "tikhonov", "lambdas": [0.01]}, 130, 32,
         lambda X, spec: fit_tikhonov(X, spec, 0.01), "implicit"),
        ({"id": "tikhonov_cg", "lambdas": [0.01]}, 24, 2,
         lambda X, spec: fit_tikhonov_cg(X, spec, 0.01), "dense"),
        ({"id": "tikhonov_cg", "lambdas": [0.01]}, 130, 32,
         lambda X, spec: fit_tikhonov_cg(X, spec, 0.01), "implicit"),
        ({"id": "nu_method", "iterations": [10]}, 24, 2,
         lambda X, spec: fit_nu_method(X, spec, 1.0, 10), None),
    ], ids=["tikhonov-dense", "tikhonov-matrix-free", "tikhonov_cg-dense",
            "tikhonov_cg-matrix-free", "nu_method"])
    def test_curl_free_cli_fit_equals_the_public_fit(self, tmp_path, entry, M, d, fit, mode):
        X = np.random.default_rng(M + d).normal(size=(M, d))
        fitted = self.fit_by_cli(tmp_path, X, dict(entry, kind="curl_free"))
        spec = MatrixKernelSpec("curl_free", ScalarRadialKernel("imq", median_bandwidth(X)))
        ref = fit(X, spec)
        assert ref.meta.get("mode") == mode
        self.assert_same_fit(fitted, ref)


class TestSizeRefusal:
    """`scorekit fit` of a curl-free system over the dense limit (Md = 4160)
    that needs it dense exits 1 and names the bytes, allocating nothing."""

    @pytest.mark.parametrize("entry, n", [
        ({"id": "truncated_tikhonov", "lambdas": [0.1]}, 260),
        ({"id": "spectral_cutoff", "fractions": [0.5]}, 260),
        ({"id": "nystrom", "lambdas": [0.1], "subset_size": 257}, 257),
    ], ids=["truncated_tikhonov", "spectral_cutoff", "nystrom"])
    def test_fit_exits_1_with_the_bytes(self, tmp_path, capsys, monkeypatch, entry, n):
        forbid_big_cross_grams(monkeypatch)
        X = np.random.default_rng(7).normal(size=(260, 16))
        fcfg = write_fit_config(tmp_path, X, dict(entry, kind="curl_free"))
        assert main(["fit", "--config", fcfg, "--out", str(tmp_path / "est.bin")]) == 1
        assert f"{(n * 16) ** 2 * 8} bytes" in capsys.readouterr().err
        assert not (tmp_path / "est.bin").exists()
