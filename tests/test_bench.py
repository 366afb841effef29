"""Tests for the benchmark harness: config validation, sweep semantics,
determinism, aggregation, slope fits, and SVG plotting."""

import json
import math
import os

import numpy as np
import pytest

from scorekit import bench, estimators, kernels, spectral_linalg
from scorekit.bench import (
    FRACTION_GRID,
    ITERATION_GRID,
    LAMBDA_GRID,
    SummaryRow,
    build_distribution,
    emit_plot,
    fit_convergence_slopes,
    load_experiment_config,
    load_mixture_file,
    parse_experiment_config,
    read_summary_csv,
    run_convergence_experiment,
    run_grid_experiment,
    run_grid_rows,
    summarize,
    write_rows_csv,
)
from scorekit.errors import InputError, NumericError
from scorekit.oracles import make_grid_distribution
from scorekit.svgplot import render_line_chart

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def base_config(**overrides):
    data = {
        "schema_version": 1,
        "distribution": "grid",
        "dimensions": [2],
        "sample_sizes": [16],
        "seeds": [0, 1],
        "eval_size": 64,
        "estimators": [{"id": "oracle"}],
    }
    data.update(overrides)
    return data


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ======================================================================
# config validation
# ======================================================================

class TestConfigValidation:

    def test_minimal_config_parses(self):
        cfg = parse_experiment_config(base_config())
        assert cfg.dimensions == (2,)
        assert cfg.sample_sizes == (16,)
        assert cfg.seeds == (0, 1)
        assert cfg.eval_size == 64

    def test_unknown_top_level_key(self):
        with pytest.raises(InputError, match="lambda_grid"):
            parse_experiment_config(base_config(lambda_grid=[0.1]))

    def test_schema_version_required(self):
        data = base_config()
        del data["schema_version"]
        with pytest.raises(InputError, match="schema_version"):
            parse_experiment_config(data)
        with pytest.raises(InputError, match="schema_version"):
            parse_experiment_config(base_config(schema_version=2))

    def test_missing_required_keys(self):
        for key in ("dimensions", "sample_sizes", "seeds", "estimators"):
            data = base_config()
            del data[key]
            with pytest.raises(InputError, match=key):
                parse_experiment_config(data)

    def test_bad_distribution(self):
        with pytest.raises(InputError, match="distribution"):
            parse_experiment_config(base_config(distribution="cauchy"))

    def test_mixture_requires_file(self):
        with pytest.raises(InputError, match="mixture_file"):
            parse_experiment_config(base_config(distribution="mixture"))

    def test_mixture_file_only_with_mixture(self):
        with pytest.raises(InputError, match="mixture_file"):
            parse_experiment_config(base_config(mixture_file="m.json"))

    def test_mixture_roundtrip(self, tmp_path):
        mix = {"means": [[0.0, 1.0], [2.0, -1.0]], "weights": [0.5, 0.5],
               "scale": 1.5}
        (tmp_path / "mix.json").write_text(json.dumps(mix))
        path = write_config(tmp_path, base_config(
            distribution="mixture", mixture_file="mix.json", dimensions=[2]))
        cfg = load_experiment_config(path)
        assert cfg.mixture.dim == 2
        assert cfg.mixture.scale == 1.5
        assert np.array_equal(build_distribution(cfg, 2).means, mix["means"])

    def test_mixture_dimension_mismatch(self, tmp_path):
        mix = {"means": [[0.0, 1.0]], "weights": [1.0]}
        (tmp_path / "mix.json").write_text(json.dumps(mix))
        path = write_config(tmp_path, base_config(
            distribution="mixture", mixture_file="mix.json", dimensions=[3]))
        with pytest.raises(InputError, match="d=2"):
            load_experiment_config(path)

    def test_mixture_file_unknown_key(self, tmp_path):
        (tmp_path / "mix.json").write_text(
            json.dumps({"means": [[0.0]], "weights": [1.0], "cov": 2}))
        with pytest.raises(InputError, match="cov"):
            load_mixture_file(tmp_path / "mix.json")

    def test_invalid_json_reports_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(InputError, match="invalid JSON"):
            load_experiment_config(path)

    def test_empty_lists_rejected(self):
        for key in ("dimensions", "sample_sizes", "seeds"):
            with pytest.raises(InputError):
                parse_experiment_config(base_config(**{key: []}))
        with pytest.raises(InputError):
            parse_experiment_config(base_config(estimators=[]))

    def test_scalar_promoted_to_list(self):
        cfg = parse_experiment_config(base_config(dimensions=3, sample_sizes=8))
        assert cfg.dimensions == (3,)
        assert cfg.sample_sizes == (8,)

    def test_bool_is_not_an_int(self):
        with pytest.raises(InputError):
            parse_experiment_config(base_config(dimensions=[True]))


class TestEstimatorEntryValidation:

    def entry(self, **kw):
        kw.setdefault("kind", "curl_free")
        return parse_experiment_config(base_config(estimators=[kw])).estimators[0]

    def test_unknown_id(self):
        with pytest.raises(InputError, match="'id'"):
            self.entry(id="ssge")

    def test_unknown_key_for_scheme(self):
        with pytest.raises(InputError, match="lambdas"):
            self.entry(id="landweber", lambdas=[0.1])

    def test_kind_required(self):
        with pytest.raises(InputError, match="kind"):
            parse_experiment_config(base_config(estimators=[{"id": "tikhonov"}]))

    def test_default_grids(self):
        tik = self.entry(id="tikhonov")
        assert tuple(p["lam"] for _, p in tik.grid) == LAMBDA_GRID
        nu = self.entry(id="nu_method")
        assert tuple(p["t"] for _, p in nu.grid) == ITERATION_GRID
        cut = self.entry(id="spectral_cutoff", kind="diagonal")
        assert tuple(p["fraction"] for _, p in cut.grid) == FRACTION_GRID

    def test_cutoff_fraction_lambda_exclusive(self):
        with pytest.raises(InputError, match="not both"):
            self.entry(id="spectral_cutoff", fractions=[0.5], lambdas=[0.1])

    def test_cutoff_fraction_range(self):
        with pytest.raises(InputError):
            self.entry(id="spectral_cutoff", fractions=[1.5])

    def test_nystrom_subset_exclusive(self):
        with pytest.raises(InputError, match="not both"):
            self.entry(id="nystrom", subset_size=4, subset_fraction=0.5)

    def test_nu_below_one(self):
        with pytest.raises(InputError):
            self.entry(id="nu_method", nu=0.5)

    def test_negative_lambda(self):
        with pytest.raises(InputError):
            self.entry(id="tikhonov", lambdas=[0.1, -0.1])

    def test_duplicate_ids_rejected(self):
        ests = [{"id": "tikhonov", "kind": "diagonal"},
                {"id": "tikhonov", "kind": "curl_free"}]
        with pytest.raises(InputError, match="unique"):
            parse_experiment_config(base_config(estimators=ests))

    def test_oracle_takes_no_kernel_keys(self):
        with pytest.raises(InputError):
            parse_experiment_config(base_config(
                estimators=[{"id": "oracle", "kind": "diagonal"}]))

    def test_bad_family_and_bandwidth(self):
        with pytest.raises(InputError, match="family"):
            self.entry(id="tikhonov", family="matern")
        with pytest.raises(InputError):
            self.entry(id="tikhonov", bandwidth=-2.0)

    def test_explicit_bandwidth(self):
        e = self.entry(id="tikhonov", bandwidth=2.5)
        assert e.bandwidth == 2.5


# ======================================================================
# distribution construction
# ======================================================================

class TestBuildDistribution:

    def test_gaussian(self):
        cfg = parse_experiment_config(base_config(distribution="gaussian"))
        dist = build_distribution(cfg, 5)
        assert dist.n_components == 1
        assert np.all(dist.means == 0.0)

    def test_grid_uses_distribution_seed(self):
        cfg = parse_experiment_config(base_config(distribution_seed=9))
        dist = build_distribution(cfg, 4)
        assert np.array_equal(dist.means, make_grid_distribution(4, 9).means)


# ======================================================================
# sweep semantics
# ======================================================================

def small_config(**overrides):
    data = base_config(
        dimensions=[2], sample_sizes=[16], seeds=[0, 1], eval_size=64,
        estimators=[
            {"id": "oracle"},
            {"id": "tikhonov", "kind": "curl_free", "lambdas": [0.1, 0.01]},
            {"id": "spectral_cutoff", "kind": "diagonal", "fractions": [0.5, 0.9]},
        ])
    data.update(overrides)
    return parse_experiment_config(data)


class TestGridExperiment:

    def test_oracle_rows_exactly_zero(self):
        rows = run_grid_rows(small_config())
        oracle = [r for r in rows if r.estimator == "oracle"]
        assert len(oracle) == 2
        assert all(r.error == 0.0 for r in oracle)
        assert all(r.reason == "" for r in oracle)

    def test_canonical_row_order(self):
        cfg = small_config(dimensions=[1, 2], sample_sizes=[8, 16])
        rows = run_grid_rows(cfg)
        expect = [(e.id, d, M, label, seed)
                  for e in cfg.estimators
                  for d in cfg.dimensions
                  for M in cfg.sample_sizes
                  for label, _ in e.grid
                  for seed in cfg.seeds]
        got = [(r.estimator, r.d, r.M, r.hyperparams, r.seed) for r in rows]
        assert got == expect

    @staticmethod
    def stable_fields(rows):
        # timings are wall-clock and excluded from determinism guarantees
        return [(r.estimator, r.kind, r.d, r.M, r.hyperparams, r.seed,
                 repr(r.error), r.reason) for r in rows]

    def test_rerun_identical(self):
        cfg = small_config()
        assert self.stable_fields(run_grid_rows(cfg)) == \
            self.stable_fields(run_grid_rows(cfg))

    def test_threads_do_not_change_rows(self):
        cfg = small_config()
        assert self.stable_fields(run_grid_rows(cfg, threads=1)) == \
            self.stable_fields(run_grid_rows(cfg, threads=3))

    def test_csv_byte_identical_across_runs(self, tmp_path):
        path = write_config(tmp_path, base_config(estimators=[
            {"id": "oracle"},
            {"id": "nu_method", "kind": "curl_free", "iterations": [5, 10]},
        ]))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_grid_experiment(path, out1, threads=1)
        run_grid_experiment(path, out2, threads=2)
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.summary.csv").read_bytes() == \
            (tmp_path / "b.summary.csv").read_bytes()
        assert (tmp_path / "a.timings.csv").exists()

    def test_failing_entry_is_isolated(self):
        cfg = small_config(estimators=[
            {"id": "oracle"},
            {"id": "landweber", "kind": "curl_free", "iterations": [5],
             "eta": 1e9},
            {"id": "tikhonov", "kind": "curl_free", "lambdas": [0.1]},
        ])
        rows = run_grid_rows(cfg)
        lw = [r for r in rows if r.estimator == "landweber"]
        assert all(math.isnan(r.error) for r in lw)
        assert all("eta" in r.reason for r in lw)
        others = [r for r in rows if r.estimator != "landweber"]
        assert all(math.isfinite(r.error) for r in others)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_bug_in_a_fit_aborts_the_sweep(self, monkeypatch, threads):
        # only contract errors become nan rows; anything else is a bug
        def broken(*args, **kwargs):
            raise TypeError("injected bug")
        monkeypatch.setattr(bench, "fit_tikhonov", broken)
        with pytest.raises(TypeError, match="injected bug"):
            run_grid_rows(small_config(), threads=threads)

    def test_curlfree_eig_scheme_refuses_large_system(self):
        # truncated Tikhonov needs the dense eigendecomposition; over the
        # dense limit the cells report failure instead of thrashing memory
        cfg = small_config(
            dimensions=[9], sample_sizes=[512], seeds=[0],
            estimators=[{"id": "truncated_tikhonov", "kind": "curl_free",
                         "lambdas": [0.1]}])
        rows = run_grid_rows(cfg)
        assert len(rows) == 1
        assert math.isnan(rows[0].error)
        assert "InputError" in rows[0].reason

    def test_timings_nonnegative(self):
        rows = run_grid_rows(small_config())
        assert all(r.fit_ms >= 0.0 and r.predict_ms >= 0.0 for r in rows)


class TestProblemSharing:
    """Work shared across the cells of one (d, M, seed) problem."""

    MIXED = [
        {"id": "oracle"},
        {"id": "tikhonov", "kind": "curl_free", "lambdas": [0.1, 0.01]},
        {"id": "tikhonov_cg", "kind": "curl_free", "lambdas": [0.1, 0.01]},
        {"id": "nu_method", "kind": "diagonal", "iterations": [3, 10]},
        {"id": "truncated_tikhonov", "kind": "curl_free", "lambdas": [0.1, 0.01]},
        {"id": "spectral_cutoff", "kind": "diagonal", "fractions": [0.5, 0.9]},
        {"id": "landweber", "kind": "curl_free", "iterations": [5, 15]},
        {"id": "nystrom", "kind": "curl_free", "lambdas": [0.1, 0.01],
         "subset_fraction": 0.5},
    ]

    @staticmethod
    def config(entries):
        return parse_experiment_config(base_config(
            dimensions=[2], sample_sizes=[12, 20], seeds=[0, 1], eval_size=32,
            estimators=entries))

    def test_sharing_leaves_every_row_unchanged(self, monkeypatch):
        stable_fields = TestGridExperiment.stable_fields
        mixed = self.config(self.MIXED)
        shared = stable_fields(run_grid_rows(mixed, threads=1))
        assert stable_fields(run_grid_rows(mixed, threads=2)) == shared
        alone = []
        for entry in self.MIXED:
            alone += stable_fields(run_grid_rows(self.config([entry])))
        assert alone == shared
        # nothing shared at all: every cell builds its own Gram, h, zeta(Q)
        # and Nystrom blocks
        monkeypatch.setattr(bench._Problem, "_once", lambda self, key, build: build())
        assert stable_fields(run_grid_rows(mixed)) == shared
        assert all(reason == "" for *_, reason in shared)

    def test_shared_work_runs_once_per_problem(self, monkeypatch):
        calls = {}

        def count(module, name):
            orig = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return orig(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        count(spectral_linalg, "sym_eig")
        count(estimators, "sym_eig")
        count(kernels, "h_vector")
        count(estimators, "h_vector")
        count(bench, "score_batch")
        count(bench, "_subset_building_blocks")
        cfg = self.config([
            {"id": "truncated_tikhonov", "kind": "curl_free", "lambdas": [0.1, 0.01]},
            {"id": "spectral_cutoff", "kind": "curl_free", "fractions": [0.5, 0.9]},
            {"id": "tikhonov", "kind": "curl_free", "lambdas": [0.1, 0.01]},
            {"id": "landweber", "kind": "curl_free", "iterations": [5, 15]},
            {"id": "tikhonov_cg", "kind": "curl_free", "lambdas": [0.1, 0.01]},
            {"id": "nystrom", "kind": "curl_free", "lambdas": [0.1, 0.01, 0.001],
             "subset_fraction": 0.5},
        ])
        rows = run_grid_rows(cfg)
        assert all(r.reason == "" for r in rows)
        problems = 4
        # one dense eigensystem per problem across both eigen-filter fits
        assert calls["sym_eig"] == problems
        # one h per Gram: the dense one and the implicit one of tikhonov_cg
        assert calls["h_vector"] == 2 * problems
        assert calls["score_batch"] == problems
        assert calls["_subset_building_blocks"] == problems


    def test_diagonal_tikhonov_shares_the_scalar_gram_and_h(self, monkeypatch):
        calls = {}
        for module, name in ((kernels, "h_vector"), (estimators, "h_vector"),
                             (kernels, "scalar_gram"), (estimators, "scalar_gram"),
                             (kernels, "cross_gram"), (bench, "assemble_gram")):
            def counted(*args, _orig=getattr(module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _orig(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        cfg = self.config([
            {"id": "tikhonov", "kind": "diagonal"},
            {"id": "spectral_cutoff", "kind": "diagonal", "fractions": [0.5, 0.9]},
        ])
        rows = run_grid_rows(cfg)
        assert all(r.reason == "" for r in rows)
        problems = 4
        # one matrix-free Gram and one h per problem; no Md x Md matrix
        assert calls == {"assemble_gram": problems, "h_vector": problems}
        monkeypatch.undo()
        assert TestGridExperiment.stable_fields(run_grid_rows(cfg)) == \
            TestGridExperiment.stable_fields(rows)

    def test_query_tables_built_once_per_spec(self, monkeypatch):
        eval_size, sizes = 24, (12, 20)
        cross, radial = {}, {}

        def cross_shape(shape):
            return len(shape) == 2 and shape[0] == eval_size and shape[1] in sizes

        orig_sq = kernels.sq_dists

        def sq_dists(A, B):
            out = orig_sq(A, B)
            if cross_shape(out.shape):
                cross[out.shape[1]] = cross.get(out.shape[1], 0) + 1
            return out
        monkeypatch.setattr(kernels, "sq_dists", sq_dists)
        for meth in ("phi", "dphi", "d2phi", "d3phi"):
            def counted(self, u, _orig=getattr(kernels.ScalarRadialKernel, meth)):
                if cross_shape(np.shape(u)):
                    radial[np.shape(u)[1]] = radial.get(np.shape(u)[1], 0) + 1
                return _orig(self, u)
            monkeypatch.setattr(kernels.ScalarRadialKernel, meth, counted)
        cfg = parse_experiment_config(base_config(
            dimensions=[2], sample_sizes=list(sizes), seeds=[0], eval_size=eval_size,
            estimators=[
                {"id": "tikhonov", "kind": "curl_free", "lambdas": [0.1, 0.01]},
                {"id": "nu_method", "kind": "curl_free", "iterations": [3, 10]},
                {"id": "spectral_cutoff", "kind": "diagonal", "fractions": [0.5, 0.9]},
                {"id": "truncated_tikhonov", "kind": "diagonal", "lambdas": [0.1]},
                {"id": "nystrom", "kind": "curl_free", "lambdas": [0.1],
                 "subset_fraction": 0.5},
            ]))
        rows = run_grid_rows(cfg)
        assert all(r.reason == "" for r in rows)
        # per problem and spec one U feeds zeta(Q) and the tables; the
        # Nystrom fit predicts from its subset basis
        assert cross == {M: 2 for M in sizes}
        # curl-free phi', phi'' (read by both terms) and phi'''; diagonal
        # phi and phi'
        assert radial == {M: 5 for M in sizes}


class TestMatrixFreeTikhonov:
    """The sweep's curl-free Tikhonov grid over the dense limit (M*d > 4096)."""

    @staticmethod
    def run(monkeypatch, **entry):
        cfg = parse_experiment_config(base_config(
            dimensions=[17], sample_sizes=[256], seeds=[0], eval_size=32,
            estimators=[dict({"id": "tikhonov", "kind": "curl_free"}, **entry)]))
        fits = []
        orig = bench.fit_tikhonov

        def recorded(*args, **kwargs):
            est = orig(*args, **kwargs)
            fits.append(est)
            return est
        monkeypatch.setattr(bench, "fit_tikhonov", recorded)
        return run_grid_rows(cfg), fits

    @staticmethod
    def true_residual(est):
        gram = kernels.assemble_gram(est.kernel, est.samples, mode="implicit")
        M = est.samples.shape[0]
        lam = est.scheme.lam
        c = est.coeffs.ravel()
        b = kernels.h_vector(est.kernel, est.samples) / lam
        return np.linalg.norm(gram.matvec(c) + M * lam * c - b) / np.linalg.norm(b)

    def test_every_cell_meets_the_residual_contract(self, monkeypatch):
        rows, fits = self.run(monkeypatch)
        assert len(fits) == len(LAMBDA_GRID)
        assert all(r.reason == "" for r in rows)
        for est in fits:
            assert est.meta["mode"] == "implicit"
            assert self.true_residual(est) <= 1e-8

    def test_one_shifted_run_serves_the_grid(self, monkeypatch):
        calls = []
        orig = bench.shifted_cg

        def counted(*args, **kwargs):
            calls.append(args[2])
            return orig(*args, **kwargs)
        monkeypatch.setattr(bench, "shifted_cg", counted)
        _, fits = self.run(monkeypatch)
        assert len(calls) == 1
        assert np.array_equal(calls[0], 256 * np.asarray(LAMBDA_GRID))
        # the shifted solutions meet the tolerance; no fit iterates further
        assert all(est.meta["cg_iterations"] == 0 for est in fits)

    def test_drifted_starts_are_iterated_to_the_contract(self, monkeypatch):
        orig = bench.shifted_cg

        def drifted(*args, **kwargs):
            Y, reps = orig(*args, **kwargs)
            return Y * (1.0 + 1e-4), reps
        monkeypatch.setattr(bench, "shifted_cg", drifted)
        rows, fits = self.run(monkeypatch, lambdas=[1.0, 1e-3])
        assert all(r.reason == "" for r in rows)
        assert all(est.meta["cg_iterations"] > 0 for est in fits)
        assert all(self.true_residual(est) <= 1e-8 for est in fits)

    def test_failed_shifted_run_falls_back_to_cold_starts(self, monkeypatch):
        def broken(*args, **kwargs):
            raise NumericError("injected")
        monkeypatch.setattr(bench, "shifted_cg", broken)
        rows, fits = self.run(monkeypatch, lambdas=[1.0, 1e-3])
        assert all(r.reason == "" for r in rows)
        assert all(self.true_residual(est) <= 1e-8 for est in fits)


def never(*args, **kwargs):
    raise AssertionError("unexpected call")


def no_basis(*args, **kwargs):
    # a failed basis: Tikhonov cells factor, the nu-method recursion runs on K
    raise NumericError("injected")


class TestDenseTikhonov:
    """The sweep's curl-free Tikhonov grid up to the dense limit: one Lanczos
    basis gives every cell a start that solve_spd checks before factoring."""

    SIZES, SEEDS = (64, 128), (0, 1)

    @classmethod
    def run(cls, monkeypatch):
        cfg = parse_experiment_config(base_config(
            dimensions=[2], sample_sizes=list(cls.SIZES), seeds=list(cls.SEEDS),
            eval_size=32, estimators=[{"id": "tikhonov", "kind": "curl_free"}]))
        calls = {"fit": [], "solve_spd": 0, "cho_factor": 0}
        orig_fit, orig_solve = bench.fit_tikhonov, estimators.solve_spd
        orig_factor = spectral_linalg.scipy.linalg.cho_factor

        def fit(*args, **kwargs):
            est = orig_fit(*args, **kwargs)
            calls["fit"].append(est)
            return est

        def solve(*args, **kwargs):
            calls["solve_spd"] += 1
            return orig_solve(*args, **kwargs)

        def factor(*args, **kwargs):
            calls["cho_factor"] += 1
            return orig_factor(*args, **kwargs)
        monkeypatch.setattr(bench, "fit_tikhonov", fit)
        monkeypatch.setattr(estimators, "solve_spd", solve)
        monkeypatch.setattr(spectral_linalg.scipy.linalg, "cho_factor", factor)
        return [(r.error, r.reason) for r in run_grid_rows(cfg)], calls

    @property
    def n_cells(self):
        return len(self.SIZES) * len(self.SEEDS) * len(LAMBDA_GRID)

    @staticmethod
    def true_residual(est):
        gram = kernels.assemble_gram(est.kernel, est.samples, mode="dense")
        M = est.samples.shape[0]
        lam = est.scheme.lam
        c = est.coeffs.ravel()
        b = kernels.h_vector(est.kernel, est.samples) / lam
        return np.linalg.norm(gram.matrix @ c + M * lam * c - b) / np.linalg.norm(b)

    def test_every_cell_meets_the_dense_residual_contract(self, monkeypatch):
        rows, calls = self.run(monkeypatch)
        assert all(reason == "" for _, reason in rows)
        assert len(calls["fit"]) == self.n_cells
        for est in calls["fit"]:
            assert est.meta["mode"] == "dense"
            assert self.true_residual(est) <= 1e-10

    def test_one_basis_per_problem_and_no_factorization(self, monkeypatch):
        runs = []
        orig = bench.lanczos

        def counted(op, b, max_dim, tol, stop=None):
            runs.append((op.dim, max_dim, tol / np.linalg.norm(op.matrix, 1), stop))
            return orig(op, b, max_dim, tol, stop=stop)
        monkeypatch.setattr(bench, "lanczos", counted)
        monkeypatch.setattr(bench, "shifted_cg", never)  # a dense Gram never calls it
        _, calls = self.run(monkeypatch)
        assert sorted(dim for dim, *_ in runs) == sorted(
            2 * M for M in self.SIZES for _ in self.SEEDS)
        for _, max_dim, rel_tol, stop in runs:
            assert max_dim == bench._TIK_IMPLICIT_MAX_ITER
            assert rel_tol == pytest.approx(1e-14) and stop is not None
        assert bench._TIK_DENSE_START_TOL < spectral_linalg.SPD_RESIDUAL_TOL
        assert calls["solve_spd"] == self.n_cells
        assert calls["cho_factor"] == 0

    @pytest.mark.parametrize("how", ["perturbed", "failed"])
    def test_rejected_starts_factor_to_the_rows_without_starts(self, monkeypatch, how):
        monkeypatch.setattr(bench, "_shifted_starts",
                            lambda problem, spec, gram, grid: [None] * len(grid))
        cold, cold_calls = self.run(monkeypatch)
        monkeypatch.undo()
        orig = bench.lanczos

        def perturbed(*args, **kwargs):
            V, T, beta = orig(*args, **kwargs)
            return V * (1.0 + 1e-4), T, beta

        def failed(*args, **kwargs):
            raise NumericError("injected")
        monkeypatch.setattr(bench, "lanczos", perturbed if how == "perturbed" else failed)
        rows, calls = self.run(monkeypatch)
        assert cold_calls["cho_factor"] == calls["cho_factor"] == self.n_cells
        assert all(reason == "" for _, reason in rows)
        assert repr(rows) == repr(cold)


class TestKrylovBasis:
    """One Lanczos basis per dense curl-free Gram serves the Tikhonov starts
    and every nu-method snapshot."""

    TIK = {"id": "tikhonov", "kind": "curl_free"}
    # t_max - 1 = 199 vectors: more than the Tikhonov starts need (under 170
    # at d=2, M <= 128), so the nu-method entry lengthens the basis
    NU = {"id": "nu_method", "kind": "curl_free", "iterations": [1, 3, 10, 31, 100, 200]}

    @staticmethod
    def config(entries, d=2, sizes=(64, 128)):
        return parse_experiment_config(base_config(
            dimensions=[d], sample_sizes=list(sizes), seeds=[0, 1], eval_size=32,
            estimators=entries))

    @staticmethod
    def recorded(monkeypatch):
        runs, products = [], [0]
        orig, orig_matvec = bench.lanczos, kernels.DenseGram.matvec

        def counted(*args, **kwargs):
            out = orig(*args, **kwargs)
            runs.append((args[0].dim, args[3]) + out)
            return out

        def matvec(self, b):
            products[0] += 1
            return orig_matvec(self, b)
        monkeypatch.setattr(bench, "lanczos", counted)
        monkeypatch.setattr(kernels.DenseGram, "matvec", matvec)
        return runs, products

    def test_one_basis_serves_both_entries_and_each_reads_its_own_part(self, monkeypatch):
        stable_fields = TestGridExperiment.stable_fields
        alone = []
        for entry in (self.TIK, self.NU):
            alone += stable_fields(run_grid_rows(self.config([entry])))
        runs, _ = self.recorded(monkeypatch)
        both = stable_fields(run_grid_rows(self.config([self.TIK, self.NU])))
        assert len(runs) == 4  # (M, seed) problems
        assert all(reason == "" for *_, reason in both)
        assert both == alone

    def test_nu_method_rows_match_the_direct_recursion(self, monkeypatch):
        # a d=1 Gram is numerically low rank: its Krylov space becomes
        # invariant well before t_max - 1 vectors
        cfg = self.config([self.NU], d=1)
        runs, _ = self.recorded(monkeypatch)
        rows = run_grid_rows(cfg)
        assert len(runs) == 4
        for _, tol, V, _, beta in runs:
            assert beta <= tol and len(V) < max(self.NU["iterations"]) - 1
        monkeypatch.setattr(bench, "lanczos", no_basis)  # the direct recursion
        direct = run_grid_rows(cfg)
        for r, ref in zip(rows, direct):
            assert r.reason == ref.reason == ""
            assert abs(r.error - ref.error) <= 1e-9 * abs(ref.error)

    def test_a_basis_cut_short_leaves_the_nu_method_on_k(self, monkeypatch):
        # capped below t_max - 1 vectors and not invariant, the basis cannot
        # span the late iterates: the recursion runs on K, row for row
        cfg = self.config([self.NU], d=8, sizes=(64,))
        monkeypatch.setattr(bench, "_TIK_IMPLICIT_MAX_ITER", 20)
        runs, _ = self.recorded(monkeypatch)
        rows = TestGridExperiment.stable_fields(run_grid_rows(cfg))
        assert [len(V) for _, _, V, _, _ in runs] == [20, 20]
        assert all(beta > tol for _, tol, _, _, beta in runs)
        monkeypatch.setattr(bench, "lanczos", no_basis)
        assert rows == TestGridExperiment.stable_fields(run_grid_rows(cfg))

    def test_non_invariant_basis(self, monkeypatch):
        # a full-rank d=8 Gram: the basis stops at the Tikhonov targets or
        # at t_max - 1 vectors, never at invariance
        cfg = self.config([self.TIK, self.NU], d=8, sizes=(64,))
        tik_only = self.config([self.TIK], d=8, sizes=(64,))
        t_max = max(self.NU["iterations"])
        runs, products = self.recorded(monkeypatch)
        rows = run_grid_rows(cfg)
        assert len(runs) == 2
        for dim, tol, V, _, beta in runs:
            assert t_max - 1 <= len(V) < dim and beta > tol
        basis_products = products[0]
        run_grid_rows(tik_only)
        # no more Gram products than a Tikhonov-only basis plus a direct
        # recursion to t_max on each problem
        assert basis_products <= products[0] - basis_products + 2 * (t_max - 1)
        monkeypatch.setattr(bench, "lanczos", no_basis)
        direct = run_grid_rows(cfg)
        for r, ref in zip(rows, direct):
            assert r.reason == ref.reason == ""
            tol = 1e-9 if r.estimator == "nu_method" else 1e-4
            assert abs(r.error - ref.error) <= tol * abs(ref.error)


class TestSummarize:

    def test_best_is_grid_minimum(self):
        cfg = small_config()
        rows = run_grid_rows(cfg)
        summary = summarize(rows)
        for s in summary:
            meds = {}
            for r in rows:
                if (r.estimator, r.d, r.M) == (s.estimator, s.d, s.M):
                    meds.setdefault(r.hyperparams, []).append(r.error)
            best = min(float(np.median(v)) for v in meds.values())
            assert s.median_error == best

    def test_nan_cells_excluded_from_median(self):
        from scorekit.bench import ResultRow
        rows = [
            ResultRow("e", "diagonal", 1, 8, "lam=1", 0, 0.5, "", 0, 0),
            ResultRow("e", "diagonal", 1, 8, "lam=1", 1, math.nan, "boom", 0, 0),
            ResultRow("e", "diagonal", 1, 8, "lam=2", 0, math.nan, "boom", 0, 0),
            ResultRow("e", "diagonal", 1, 8, "lam=2", 1, math.nan, "boom", 0, 0),
        ]
        (s,) = summarize(rows)
        assert s.hyperparams == "lam=1"
        assert s.median_error == 0.5
        assert s.n_ok == 1

    def test_all_failed_block(self):
        from scorekit.bench import ResultRow
        rows = [ResultRow("e", "diagonal", 1, 8, "lam=1", 0, math.nan, "x", 0, 0)]
        (s,) = summarize(rows)
        assert s.hyperparams == "-"
        assert math.isnan(s.median_error)
        assert s.n_ok == 0


class TestConvergenceSlopes:

    def test_pure_power_law(self):
        summary = [SummaryRow("e", "diagonal", 1, M, "lam=1", 4.0 * M ** -0.5, 8)
                   for M in (16, 64, 256, 1024)]
        (s,) = fit_convergence_slopes(summary)
        assert s.status == "ok"
        assert abs(s.slope + 0.5) < 1e-12

    def test_oracle_exact_fit(self):
        summary = [SummaryRow("oracle", "-", 1, M, "-", 0.0, 8)
                   for M in (16, 64, 256)]
        (s,) = fit_convergence_slopes(summary)
        assert s.status == "exact-fit"
        assert math.isnan(s.slope)

    def test_insufficient_data(self):
        summary = [SummaryRow("e", "diagonal", 1, 16, "-", math.nan, 0),
                   SummaryRow("e", "diagonal", 1, 64, "lam=1", 0.5, 8),
                   SummaryRow("e", "diagonal", 1, 256, "lam=1", 0.3, 8)]
        (s,) = fit_convergence_slopes(summary)
        assert s.status == "insufficient-data"

    def test_precondition_three_sizes_one_decade(self, tmp_path):
        path = write_config(tmp_path, base_config(sample_sizes=[8, 16, 32]))
        with pytest.raises(InputError, match="decade"):
            run_convergence_experiment(path, tmp_path / "out.csv")
        path2 = write_config(tmp_path, base_config(sample_sizes=[8, 128]),
                             name="two.json")
        with pytest.raises(InputError, match="3 distinct"):
            run_convergence_experiment(path2, tmp_path / "out.csv")

    def test_end_to_end_writes_slopes(self, tmp_path):
        path = write_config(tmp_path, base_config(
            distribution="gaussian", dimensions=[1],
            sample_sizes=[8, 32, 128], seeds=[0, 1],
            estimators=[{"id": "oracle"}]))
        slopes = run_convergence_experiment(path, tmp_path / "conv.csv")
        assert slopes[0].status == "exact-fit"
        text = (tmp_path / "conv.slopes.csv").read_text()
        assert text.splitlines()[0] == "estimator,kind,d,slope,status"
        assert "exact-fit" in text


# ======================================================================
# plotting
# ======================================================================

class TestPlot:

    def test_golden_file(self):
        svg = emit_plot(os.path.join(DATA_DIR, "plot_input.csv"),
                        x_field="M", log_x=True, log_y=True, title="error vs M")
        with open(os.path.join(DATA_DIR, "golden_plot.svg"), newline="") as f:
            assert svg == f.read()

    def test_two_point_series_single_polyline(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "estimator,kind,d,M,hyperparams,median_error,n_ok\n"
            "e,diagonal,2,16,lam=1,0.5,4\n"
            "e,diagonal,2,64,lam=1,0.25,4\n")
        svg = emit_plot(path)
        assert svg.count("<polyline") == 1
        pts = svg.split('points="')[1].split('"')[0]
        assert len(pts.split()) == 2

    def test_empty_series_axes_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("estimator,kind,d,M,hyperparams,median_error,n_ok\n")
        svg = emit_plot(path)
        assert svg.startswith("<svg")
        assert "<polyline" not in svg
        assert "<rect" in svg

    def test_nan_rows_dropped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "estimator,kind,d,M,hyperparams,median_error,n_ok\n"
            "e,diagonal,2,16,-,nan,0\n"
            "e,diagonal,2,64,lam=1,0.25,4\n")
        svg = emit_plot(path)
        assert "<polyline" not in svg
        assert svg.count("<circle") == 1

    def test_bad_header_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InputError, match="line 1"):
            emit_plot(path)

    def test_bad_field_count_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("estimator,kind,d,M,hyperparams,median_error,n_ok\n"
                        "e,diagonal,2,16,lam=1,0.5\n")
        with pytest.raises(InputError, match="line 2"):
            emit_plot(path)

    def test_non_numeric_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("estimator,kind,d,M,hyperparams,median_error,n_ok\n"
                        "e,diagonal,2,sixteen,lam=1,0.5,4\n")
        with pytest.raises(InputError, match="line 2"):
            emit_plot(path)

    def test_bad_x_field(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("estimator,kind,d,M,hyperparams,median_error,n_ok\n")
        with pytest.raises(InputError, match="x_field"):
            emit_plot(path, x_field="q")

    def test_renderer_deterministic(self):
        series = [("a", [(1.0, 2.0), (2.0, 1.0)]), ("b", [(1.0, 3.0)])]
        assert render_line_chart(series) == render_line_chart(series)

    def test_renderer_escapes_markup(self):
        svg = render_line_chart([("a<b&c", [(0.0, 1.0)])], title="t<&>")
        assert "a&lt;b&amp;c" in svg
        assert "t&lt;&amp;&gt;" in svg

    def test_summary_roundtrip(self, tmp_path):
        cfg = small_config()
        rows = run_grid_rows(cfg)
        summary = summarize(rows)
        from scorekit.bench import write_summary_csv
        path = tmp_path / "sum.csv"
        write_summary_csv(summary, path)
        back = read_summary_csv(path)
        assert [(s.estimator, s.d, s.M, s.hyperparams) for s in back] == \
            [(s.estimator, s.d, s.M, s.hyperparams) for s in summary]
        for a, b in zip(back, summary):
            assert a.median_error == b.median_error or (
                math.isnan(a.median_error) and math.isnan(b.median_error))


# ======================================================================
# row CSV format
# ======================================================================

class TestRowCsv:

    def test_float_precision_roundtrip(self, tmp_path):
        rows = run_grid_rows(small_config())
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "estimator,kind,d,M,hyperparams,seed,error,reason"
        import csv as _csv
        with open(path, newline="") as f:
            reader = _csv.reader(f)
            next(reader)
            for row, expected in zip(reader, rows):
                assert float(row[6]) == expected.error or (
                    math.isnan(float(row[6])) and math.isnan(expected.error))
