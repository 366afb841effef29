"""Tests for the benchmark harness: config validation, sweep semantics,
determinism, aggregation, slope fits, and SVG plotting."""

import dataclasses
import json
import math
import os
import warnings

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
from scorekit.oracles import make_grid_distribution, sample
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

    @pytest.mark.parametrize("key, value", [("eval_size", 16), ("distribution_seed", 3)])
    def test_scalar_keys_refuse_lists(self, key, value):
        assert getattr(parse_experiment_config(base_config(**{key: value})), key) == value
        for bad in ([value, 999], [value]):
            with pytest.raises(InputError, match=f"config.{key}: expected a single number"):
                parse_experiment_config(base_config(**{key: bad}))

    def test_in_memory_root_must_be_an_object(self):
        for data in ([], "config.json", None):
            with pytest.raises(InputError) as info:
                parse_experiment_config(data)
            assert str(info.value) == "config root must be an object"

    def test_missing_keys_share_one_wording(self):
        data = base_config()
        del data["seeds"], data["estimators"]
        with pytest.raises(InputError) as info:
            parse_experiment_config(data)
        assert str(info.value) == "config: missing required key(s) 'seeds', 'estimators'"

    @pytest.mark.parametrize("key", ["dimensions", "sample_sizes", "seeds"])
    def test_repeated_values_are_refused(self, key):
        with pytest.raises(InputError, match=f"config.{key}: values must be distinct"):
            parse_experiment_config(base_config(**{key: [2, 3, 2]}))

    def test_mixture_file_keeps_repeated_values(self, tmp_path):
        (tmp_path / "mix.json").write_text(json.dumps(
            {"means": [[0.5, 0.5], [0.5, 0.5]], "weights": [0.5, 0.5]}))
        mix = load_mixture_file(tmp_path / "mix.json")
        assert np.array_equal(mix.means, [[0.5, 0.5], [0.5, 0.5]])
        assert np.array_equal(mix.weights, [0.5, 0.5])

    def test_n_ok_counts_distinct_seeds(self):
        est = [{"id": "tikhonov", "kind": "diagonal", "lambdas": [0.1]}]
        with pytest.raises(InputError, match="config.seeds: values must be distinct"):
            parse_experiment_config(base_config(seeds=[0, 0], estimators=est))
        rows = run_grid_rows(parse_experiment_config(base_config(seeds=[0, 1], estimators=est)))
        assert [(r.hyperparams, r.seed) for r in rows] == [("lam=0.1", 0), ("lam=0.1", 1)]
        assert [s.n_ok for s in summarize(rows)] == [2]


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

    @pytest.mark.parametrize("id_, key, values", [
        ("tikhonov", "lambdas", [0.1, 0.01, 0.1]),
        ("spectral_cutoff", "fractions", [0.5, 0.5]),
        ("nu_method", "iterations", [5, 10, 5]),
    ])
    def test_repeated_grid_values_are_refused(self, id_, key, values):
        with pytest.raises(InputError, match=fr"estimators\[0\]\.{key}: values must be distinct"):
            self.entry(id=id_, **{key: values})

    def test_an_integer_past_the_float_range_is_an_input_error(self):
        with pytest.raises(InputError, match="lambdas: expected finite number"):
            self.entry(id="tikhonov", lambdas=[10 ** 400])

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

    @pytest.mark.parametrize("id_, key, value, field", [
        ("tikhonov_cg", "max_iter", 10, "max_iter"),
        ("nystrom", "subset_size", 5, "subset"),
        ("nystrom", "subset_fraction", 0.5, "subset"),
    ])
    def test_scalar_keys_refuse_lists(self, id_, key, value, field):
        assert getattr(self.entry(id=id_, **{key: value}), field) == value
        for bad in ([value, 2 * value], [value]):
            with pytest.raises(InputError, match=f"{key}: expected a single number"):
                self.entry(id=id_, **{key: bad})


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

    # a median-bandwidth entry, two with their own bandwidth and the oracle;
    # the curl-free nu_method reads the Krylov basis built for its kernel,
    # which must pass over an entry whose kernel cannot be built
    FAULT_ENTRIES = [
        {"id": "oracle"},
        {"id": "tikhonov", "kind": "curl_free", "lambdas": [0.1, 0.01]},
        {"id": "truncated_tikhonov", "kind": "diagonal", "bandwidth": 1.0, "lambdas": [0.1]},
        {"id": "nu_method", "kind": "curl_free", "bandwidth": 1.0, "iterations": [3]},
    ]

    def assert_fault_isolated(self, rows, hit, reason, clean):
        """The rows where hit holds failed with reason; the others have no
        reason and are the rows of clean, runs without the fault."""
        failed = [r for r in rows if hit(r)]
        assert failed and all(math.isnan(r.error) and r.reason == reason for r in failed)
        kept = [r for r in rows if not hit(r)]
        assert all(r.reason == "" and math.isfinite(r.error) for r in kept)
        assert sorted(self.stable_fields(kept)) == sorted(self.stable_fields(clean))

    def test_a_failed_bandwidth_fails_its_entry_on_that_problem(self):
        # one sample has no pairwise distance to take the median of
        rows = run_grid_rows(small_config(sample_sizes=[1, 16], estimators=self.FAULT_ENTRIES))
        clean = run_grid_rows(small_config(sample_sizes=[16], estimators=self.FAULT_ENTRIES))
        clean += run_grid_rows(small_config(sample_sizes=[1], estimators=[
            e for e in self.FAULT_ENTRIES if e["id"] != "tikhonov"]))
        self.assert_fault_isolated(
            rows, lambda r: r.estimator == "tikhonov" and r.M == 1,
            "InputError: median_bandwidth needs at least 2 samples", clean)

    def test_a_bandwidth_past_the_kernel_range_fails_its_entry(self):
        # past the range the kernel's derivative scales overflow or divide by
        # zero; the entry's rows fail with the kernel's reason, the rest run
        wide = {"id": "nystrom", "kind": "curl_free", "bandwidth": 1e60, "lambdas": [0.1]}
        rows = run_grid_rows(small_config(estimators=self.FAULT_ENTRIES + [wide]))
        clean = run_grid_rows(small_config(estimators=self.FAULT_ENTRIES))
        assert any(r.estimator == "oracle" for r in rows)
        self.assert_fault_isolated(
            rows, lambda r: r.estimator == "nystrom",
            "InputError: bandwidth 1e+60 is outside about [4.674e-52, 2.376e+51], where "
            "the imq derivative scales are finite and nonzero", clean)

    def test_a_failed_prediction_fails_its_cell(self, monkeypatch):
        cfg = small_config(estimators=self.FAULT_ENTRIES)
        clean = run_grid_rows(cfg)
        orig = bench.predict

        def predict(est, queries, _shared=None):
            if est.scheme == estimators.Tikhonov(0.01):
                raise NumericError("injected")
            return orig(est, queries, _shared=_shared)

        monkeypatch.setattr(bench, "predict", predict)
        rows = run_grid_rows(cfg)
        hit = lambda r: r.estimator == "tikhonov" and r.hyperparams == "lam=0.01"  # noqa: E731
        self.assert_fault_isolated(rows, hit, "NumericError: injected",
                                   [r for r in clean if not hit(r)])

    def test_a_failed_draw_fails_its_problem(self, monkeypatch):
        cfg = small_config(sample_sizes=[8, 16], estimators=self.FAULT_ENTRIES)
        clean = run_grid_rows(small_config(sample_sizes=[8], estimators=self.FAULT_ENTRIES))
        orig = bench.sample

        def sample(dist, n, seed):
            if n == 16:
                raise MemoryError("injected")
            return orig(dist, n, seed)

        monkeypatch.setattr(bench, "sample", sample)
        self.assert_fault_isolated(run_grid_rows(cfg), lambda r: r.M == 16,
                                   "MemoryError: injected", clean)

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
        # one dense eigensystem per problem across both eigen-filter fits, and
        # two per Nystrom subset (K_ZZ and L) across its three lams
        assert calls["sym_eig"] == problems + 2 * problems
        # one Gram and one h per problem: tikhonov_cg reads the same Gram
        assert calls["h_vector"] == problems
        assert calls["score_batch"] == problems
        assert calls["_subset_building_blocks"] == problems


    def test_diagonal_tikhonov_shares_the_scalar_gram_and_h(self, monkeypatch):
        calls, shapes = {}, []
        for module, name in ((kernels, "h_vector"), (estimators, "h_vector"),
                             (bench, "assemble_gram")):
            def counted(*args, _orig=getattr(module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _orig(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        orig_cross = kernels.cross_gram

        def cross_gram(spec, rows, cols):
            out = orig_cross(spec, rows, cols)
            shapes.append(((len(rows), len(cols)), out.shape))
            return out
        monkeypatch.setattr(kernels, "cross_gram", cross_gram)
        cfg = self.config([
            {"id": "tikhonov", "kind": "diagonal"},
            {"id": "spectral_cutoff", "kind": "diagonal", "fractions": [0.5, 0.9]},
        ])
        rows = run_grid_rows(cfg)
        assert all(r.reason == "" for r in rows)
        problems = 4
        # one Gram and one h per problem, and the Gram is the scalar M x M
        # factor: no Md x Md matrix
        assert calls == {"assemble_gram": problems, "h_vector": problems}
        assert len(shapes) == problems and all(pts == shape for pts, shape in shapes)
        monkeypatch.undo()
        assert TestGridExperiment.stable_fields(run_grid_rows(cfg)) == \
            TestGridExperiment.stable_fields(rows)

    def test_query_tables_built_once_per_spec(self, monkeypatch):
        # the samples (12 and 20) and the Nystrom subsets (6 and 10)
        eval_size, sizes = 24, (12, 20, 6, 10)
        cross, radial = {}, {}

        def cross_shape(shape):
            return len(shape) == 2 and shape[0] == eval_size and shape[1] in sizes

        orig_sq = kernels.sq_dists

        def sq_dists(A, B, out=None, work=None):
            out = orig_sq(A, B, out, work)
            if cross_shape(out.shape):
                cross[out.shape[1]] = cross.get(out.shape[1], 0) + 1
            return out
        monkeypatch.setattr(kernels, "sq_dists", sq_dists)
        for meth in ("phi", "dphi", "d2phi", "d3phi"):
            def counted(self, u, out=None, _orig=getattr(kernels.ScalarRadialKernel, meth)):
                if cross_shape(np.shape(u)):
                    radial[np.shape(u)[1]] = radial.get(np.shape(u)[1], 0) + 1
                return _orig(self, u, out)
            monkeypatch.setattr(kernels.ScalarRadialKernel, meth, counted)
        cfg = parse_experiment_config(base_config(
            dimensions=[2], sample_sizes=[12, 20], seeds=[0], eval_size=eval_size,
            estimators=[
                {"id": "tikhonov", "kind": "curl_free", "lambdas": [0.1, 0.01]},
                {"id": "nu_method", "kind": "curl_free", "iterations": [3, 10]},
                {"id": "spectral_cutoff", "kind": "diagonal", "fractions": [0.5, 0.9]},
                {"id": "truncated_tikhonov", "kind": "diagonal", "lambdas": [0.1]},
                {"id": "nystrom", "kind": "curl_free", "lambdas": [0.1, 0.01],
                 "subset_fraction": 0.5},
            ]))
        rows = run_grid_rows(cfg)
        assert all(r.reason == "" for r in rows)
        # per problem and spec one U of the samples feeds zeta(Q) and the
        # tables, and one U of the subset the tables of the Nystrom grid
        assert cross == {12: 2, 20: 2, 6: 1, 10: 1}
        # curl-free phi', phi'' (read by both terms) and phi'''; diagonal
        # phi and phi'; the subset's phi' and phi''
        assert radial == {12: 5, 20: 5, 6: 2, 10: 2}


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
        gram = kernels.ImplicitGram(est.kernel, est.samples)
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
            assert self.true_residual(est) <= 1e-10

    def test_one_shifted_run_serves_the_grid(self, monkeypatch):
        # one Lanczos run per matrix-free problem gives every lam its start
        runs, targets = [], []
        orig, orig_targets = bench.lanczos, bench._shift_targets

        def counted(op, *args, **kwargs):
            runs.append(op)
            return orig(op, *args, **kwargs)

        def recorded(shifts, shift_targets, min_dim, caps):
            targets.append((shifts, set(shift_targets)))
            return orig_targets(shifts, shift_targets, min_dim, caps)
        monkeypatch.setattr(bench, "lanczos", counted)
        monkeypatch.setattr(bench, "_shift_targets", recorded)
        _, fits = self.run(monkeypatch)
        assert len(runs) == 1 and isinstance(runs[0], kernels.ImplicitGram)
        [(shifts, (target,))] = targets
        assert np.array_equal(shifts, 256 * np.asarray(LAMBDA_GRID))
        assert target == spectral_linalg.SPD_RESIDUAL_TOL
        # the starts meet the CG tolerance; no fit iterates further
        assert all(est.meta["cg_iterations"] == 0 for est in fits)

    def test_drifted_starts_are_iterated_to_the_contract(self, monkeypatch):
        orig = bench.lanczos

        def drifted(*args, **kwargs):
            basis = orig(*args, **kwargs)
            return dataclasses.replace(basis, V=basis.V * (1.0 + 1e-4))
        monkeypatch.setattr(bench, "lanczos", drifted)
        rows, fits = self.run(monkeypatch, lambdas=[1.0, 1e-3])
        assert all(r.reason == "" for r in rows)
        assert all(est.meta["cg_iterations"] > 0 for est in fits)
        assert all(self.true_residual(est) <= 1e-10 for est in fits)

    def test_failed_shifted_run_falls_back_to_cold_starts(self, monkeypatch):
        def broken(*args, **kwargs):
            raise NumericError("injected")
        monkeypatch.setattr(bench, "lanczos", broken)
        rows, fits = self.run(monkeypatch, lambdas=[1.0, 1e-3])
        assert all(r.reason == "" for r in rows)
        assert all(est.meta["cg_iterations"] > 0 for est in fits)
        assert all(self.true_residual(est) <= 1e-10 for est in fits)


def set_dense_limit(monkeypatch, limit):
    """Move the dense limit of kernels' one rule, which assemble_gram's
    form and the Krylov cap both read."""
    monkeypatch.setattr(kernels, "DENSE_SYSTEM_LIMIT", limit)


def no_basis(*args, **kwargs):
    # a failed basis: Tikhonov cells factor, the nu-method recursion runs on K
    raise NumericError("injected")


def tikhonov_starts(problem, entry, spec):
    """The start fit_tikhonov makes for each cell of a curl-free tikhonov
    entry in the sweep, as it hands it to solve_spd (dense) or to
    fit_tikhonov_cg (matrix-free)."""
    starts = []

    def spy(fn):
        def recorded(*args, x0=None, **kwargs):
            starts.append(None if x0 is None else np.ravel(x0))
            return fn(*args, x0=x0, **kwargs)
        return recorded
    with pytest.MonkeyPatch.context() as m:
        m.setattr(estimators, "solve_spd", spy(estimators.solve_spd))
        m.setattr(estimators, "fit_tikhonov_cg", spy(estimators.fit_tikhonov_cg))
        list(bench._fit_cells(entry, problem, spec))
    assert len(starts) == len(entry.grid)
    return starts


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
        gram = kernels.assemble_gram(est.kernel, est.samples)
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
        runs, targets = [], []
        orig, orig_targets = bench.lanczos, bench._shift_targets

        def counted(op, b, max_dim, tol, stop=None):
            runs.append((op.dim, max_dim, tol / np.linalg.norm(op.matrix, 1), stop))
            return orig(op, b, max_dim, tol, stop=stop)

        def recorded(shifts, shift_targets, min_dim, caps):
            targets.extend(set(shift_targets))
            return orig_targets(shifts, shift_targets, min_dim, caps)
        monkeypatch.setattr(bench, "lanczos", counted)
        monkeypatch.setattr(bench, "_shift_targets", recorded)
        _, calls = self.run(monkeypatch)
        assert sorted(dim for dim, *_ in runs) == sorted(
            2 * M for M in self.SIZES for _ in self.SEEDS)
        for _, max_dim, rel_tol, stop in runs:
            assert max_dim == bench._KRYLOV_MAX_DIM
            assert rel_tol == pytest.approx(1e-14) and stop is not None
        # each start aims 100x below the residual solve_spd checks
        assert targets == [spectral_linalg.SPD_RESIDUAL_TOL / 100] * len(runs)
        assert calls["solve_spd"] == self.n_cells
        assert calls["cho_factor"] == 0

    @pytest.mark.parametrize("how", ["perturbed", "failed"])
    def test_rejected_starts_factor_to_the_rows_without_starts(self, monkeypatch, how):
        monkeypatch.setattr(bench._Problem, "krylov", lambda problem, spec: None)
        cold, cold_calls = self.run(monkeypatch)
        monkeypatch.undo()
        orig = bench.lanczos

        def perturbed(*args, **kwargs):
            basis = orig(*args, **kwargs)
            return dataclasses.replace(basis, V=basis.V * (1.0 + 1e-4))

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
    CG = {"id": "tikhonov_cg", "kind": "curl_free"}
    # the second solve that makes a nu-method entry read a basis
    TIK1 = {"id": "tikhonov", "kind": "curl_free", "lambdas": [1.0]}

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
            runs.append((args[0].dim, args[3], out.V, out.T, out.beta))
            return out

        def matvec(self, b):
            products[0] += 1
            return orig_matvec(self, b)
        monkeypatch.setattr(bench, "lanczos", counted)
        monkeypatch.setattr(kernels.DenseGram, "matvec", matvec)
        return runs, products

    def test_one_basis_serves_both_entries_and_each_reads_its_own_part(self, monkeypatch):
        # the three readers in either config order, over the d=2 bases and
        # the non-invariant d=8 one: each entry's rows are those it gives
        # as the only other reader of a basis, bit for bit (alone, a
        # nu-method entry is one solve, which reads none)
        stable_fields = TestGridExperiment.stable_fields
        runs, _ = self.recorded(monkeypatch)

        def alone_rows(e, d, sizes):
            entries = [e, self.TIK1] if e is self.NU else [e]
            return [row for row in stable_fields(run_grid_rows(self.config(entries, d, sizes)))
                    if row[0] == e["id"]]
        for d, sizes in ((2, (64, 128)), (8, (64,))):
            alone = {e["id"]: alone_rows(e, d, sizes) for e in (self.TIK, self.CG, self.NU)}
            for order in ((self.TIK, self.CG, self.NU), (self.NU, self.CG, self.TIK)):
                del runs[:]
                both = stable_fields(run_grid_rows(self.config(list(order), d, sizes)))
                assert len(runs) == 2 * len(sizes)  # (M, seed) problems
                assert all(reason == "" for *_, reason in both)
                assert both == [row for e in order for row in alone[e["id"]]]
            if d == 8:
                assert all(beta > tol for _, tol, _, _, beta in runs)

    def test_nu_method_rows_match_the_direct_recursion(self, monkeypatch):
        # a d=1 Gram is numerically low rank: its Krylov space becomes
        # invariant well before t_max - 1 vectors
        cfg = self.config([self.NU, self.TIK1], d=1)
        runs, _ = self.recorded(monkeypatch)
        rows = [r for r in run_grid_rows(cfg) if r.estimator == "nu_method"]
        assert len(runs) == 4
        for _, tol, V, _, beta in runs:
            assert beta <= tol and len(V) < max(self.NU["iterations"]) - 1
        monkeypatch.setattr(bench, "lanczos", no_basis)  # the direct recursion
        direct = [r for r in run_grid_rows(cfg) if r.estimator == "nu_method"]
        assert len(rows) == len(direct) == 4 * len(self.NU["iterations"])
        for r, ref in zip(rows, direct):
            assert r.reason == ref.reason == ""
            assert abs(r.error - ref.error) <= 1e-9 * abs(ref.error)

    def test_a_basis_cut_short_leaves_the_nu_method_on_k(self, monkeypatch):
        # capped below t_max - 1 vectors and not invariant, the basis cannot
        # span the late iterates: the recursion runs on K, row for row
        cfg = self.config([self.NU, self.TIK1], d=8, sizes=(64,))
        monkeypatch.setattr(bench, "_KRYLOV_MAX_DIM", 20)
        runs, _ = self.recorded(monkeypatch)

        def nu_rows():
            return [row for row in TestGridExperiment.stable_fields(run_grid_rows(cfg))
                    if row[0] == "nu_method"]
        rows = nu_rows()
        assert [len(V) for _, _, V, _, _ in runs] == [20, 20]
        assert all(beta > tol for _, tol, _, _, beta in runs)
        monkeypatch.setattr(bench, "lanczos", no_basis)
        assert rows == nu_rows()

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


class TestSharedKrylovEngine:
    """The dense and the matrix-free Gram run the same Krylov engine: one
    Lanczos basis per problem, capped at the bytes of the largest dense Gram
    the sweep accepts."""

    TIK = {"id": "tikhonov", "kind": "curl_free"}
    NU = {"id": "nu_method", "kind": "curl_free", "iterations": [1, 3, 10, 31, 100]}
    CG = {"id": "tikhonov_cg", "kind": "curl_free"}

    @staticmethod
    def problem(entries, d=2, M=64):
        cfg = parse_experiment_config(base_config(
            dimensions=[d], sample_sizes=[M], seeds=[0], eval_size=16, estimators=entries))
        X = sample(build_distribution(cfg, d), M, np.random.SeedSequence(0, spawn_key=(1, d, M)))
        return bench._Problem(X, cfg.estimators, 0), cfg.estimators

    @pytest.mark.parametrize("d, M", [(1, 256), (2, 128), (8, 64)])
    def test_both_forms_give_the_same_starts_and_snapshots(self, monkeypatch, d, M):
        # the forms' start targets differ (a dense start aims 100x below
        # 1e-10, a matrix-free one at it); at one target the two bases agree
        def dense_target(gram):
            return spectral_linalg.SPD_RESIDUAL_TOL / estimators._KRYLOV_START_MARGIN
        monkeypatch.setattr(bench, "_start_tol", dense_target)
        monkeypatch.setattr(estimators, "_start_tol", dense_target)
        starts, paths = [], []
        for limit, form in ((M * d, kernels.DenseGram), (M * d - 1, kernels.ImplicitGram)):
            set_dense_limit(monkeypatch, limit)
            problem, (tik, nu) = self.problem([self.TIK, self.NU], d=d, M=M)
            spec = problem.spec(tik)
            if d == 1 and form is kernels.ImplicitGram:
                # assemble_gram keeps a d = 1 Gram dense at every M: built by hand
                problem._once(("gram", spec), lambda: form(spec, problem.X))
            assert isinstance(problem.gram(spec), form)
            starts.append(tikhonov_starts(problem, tik, spec))
            # spans every snapshot
            assert problem.krylov(spec).spans(max(self.NU["iterations"]) - 1)
            paths.append([est for *_, est in bench._fit_cells(nu, problem, spec)])
        for a, b in zip(*starts):
            assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(a)
        for a, b in zip(*paths):
            assert a.offset == b.offset
            assert np.linalg.norm(a.coeffs - b.coeffs) <= 1e-9 * np.linalg.norm(a.coeffs)

    # a solve reads the basis per tikhonov or tikhonov_cg grid point, and
    # per nu_method entry with t_max > 1, over the one spec
    @pytest.mark.parametrize("entries, n_runs", [
        ([dict(TIK, lambdas=[0.01])], 0),
        ([dict(CG, lambdas=[0.01])], 0),
        ([dict(NU, iterations=[10])], 0),
        ([dict(NU, iterations=[1]), dict(TIK, lambdas=[0.01])], 0),
        ([dict(TIK, lambdas=[0.01]), dict(CG, lambdas=[0.01], bandwidth=2.0)], 0),
        ([dict(TIK, lambdas=[1.0, 0.01])], 1),
        ([dict(CG, lambdas=[1.0, 0.01])], 1),
        ([dict(TIK, lambdas=[0.01]), dict(CG, lambdas=[0.01])], 1),
        ([dict(NU, iterations=[2]), dict(TIK, lambdas=[0.01])], 1),
    ], ids=["tikhonov", "tikhonov_cg", "nu_method", "nu_method-t1-and-tikhonov",
            "two-specs", "tikhonov-2", "tikhonov_cg-2", "tikhonov-and-tikhonov_cg",
            "nu_method-and-tikhonov"])
    def test_a_basis_is_built_for_two_solves_or_more(self, monkeypatch, entries, n_runs):
        runs, orig = [], bench.lanczos

        def counted(*args, **kwargs):
            runs.append(orig(*args, **kwargs))
            return runs[-1]
        monkeypatch.setattr(bench, "lanczos", counted)
        problem, parsed = self.problem(entries)
        for entry in parsed:
            spec = problem.spec(entry)
            assert (problem.krylov(spec) is None) == (n_runs == 0)
            assert all(cell.reason == "" for _, cell, _ in bench._fit_cells(entry, problem, spec))
        assert len(runs) == n_runs

    @pytest.mark.parametrize("family", ["imq", "gaussian"])
    def test_both_forms_get_the_same_invariance_tolerance(self, monkeypatch, family):
        # beta_k <= 1e-14 tr K, and tr K = Md / sigma^2 in either form
        d, M, tols = 2, 32, []
        orig = bench.lanczos

        def recorded(gram, b, max_dim, tol, **kwargs):
            tols.append(tol)
            return orig(gram, b, max_dim, tol, **kwargs)

        monkeypatch.setattr(bench, "lanczos", recorded)
        for limit, form in ((M * d, kernels.DenseGram), (M * d - 1, kernels.ImplicitGram)):
            set_dense_limit(monkeypatch, limit)
            problem, (tik,) = self.problem([dict(self.TIK, family=family)], d=d, M=M)
            spec = problem.spec(tik)
            assert isinstance(problem.gram(spec), form)
            assert problem.krylov(spec) is not None
        assert tols[0] == tols[1]
        assert tols[0] == pytest.approx(1e-14 * M * d / spec.scalar.bandwidth ** 2, rel=1e-15)

    def test_the_basis_is_capped_at_the_dense_gram_bytes(self, monkeypatch):
        # Md = 128 over a limit of 64: matrix-free, and a basis of at most
        # 64^2 // 128 = 32 vectors, too few for the small lams' targets
        set_dense_limit(monkeypatch, 64)
        runs, fits = [], []
        orig_lanczos, orig_fit = bench.lanczos, bench.fit_tikhonov

        def counted(*args, **kwargs):
            out = orig_lanczos(*args, **kwargs)
            runs.append(out)
            return out

        def recorded(*args, **kwargs):
            fits.append(orig_fit(*args, **kwargs))
            return fits[-1]
        monkeypatch.setattr(bench, "lanczos", counted)
        monkeypatch.setattr(bench, "fit_tikhonov", recorded)
        cfg = parse_experiment_config(base_config(
            dimensions=[2], sample_sizes=[64], seeds=[0, 1], eval_size=16,
            estimators=[dict(self.TIK, lambdas=[1.0, 1e-2, 1e-4])]))
        rows = run_grid_rows(cfg)
        assert all(r.reason == "" for r in rows)
        assert len(runs) == 2 and all(len(basis.V) == 64 ** 2 // 128 for basis in runs)
        assert any(est.meta["cg_iterations"] > 0 for est in fits)
        for est in fits:
            assert est.meta["mode"] == "implicit"
            assert TestMatrixFreeTikhonov.true_residual(est) <= 1e-10

    def test_diagonal_nu_method_reads_no_basis(self, monkeypatch):
        set_dense_limit(monkeypatch, 64)  # curl-free: matrix-free
        diag = {"id": "nu_method", "kind": "diagonal", "iterations": [3, 10]}
        bases, orig = [], bench.nu_method_path

        def recorded(*args, **kwargs):
            bases.append(kwargs["_krylov"])
            return orig(*args, **kwargs)
        monkeypatch.setattr(bench, "nu_method_path", recorded)
        stable_fields = TestGridExperiment.stable_fields
        tik = dict(self.TIK, lambdas=[1.0, 1e-2])
        alone = stable_fields(run_grid_rows(TestKrylovBasis.config([diag])))
        both = stable_fields(run_grid_rows(TestKrylovBasis.config([tik, diag])))
        assert both[-len(alone):] == alone
        assert all(reason == "" for *_, reason in both)
        assert bases == [None] * 8  # 4 problems, run alone and with tikhonov

    @pytest.mark.parametrize("limit", [4096, 127], ids=["dense", "matrix-free"])
    def test_extreme_shifts_give_finite_starts(self, monkeypatch, limit):
        set_dense_limit(monkeypatch, limit)
        lams = [1e4, 1e2, 1.0, 1e-2, 1e-4, 1e-6, 1e-8]
        problem, (tik,) = self.problem([dict(self.TIK, lambdas=lams)])
        spec = problem.spec(tik)
        starts = tikhonov_starts(problem, tik, spec)
        assert len(starts) == len(lams)
        assert all(y is not None and np.all(np.isfinite(y)) for y in starts)
        cells = list(bench._fit_cells(tik, problem, spec))
        assert all(cell.reason == "" and est is not None for _, cell, est in cells)


class TestGalerkinCells:
    """The sweep's curl-free tikhonov_cg cells read the problem's Lanczos
    basis: each returns the Galerkin iterate where its residual estimate and
    then its true residual meet tol, and the public CG fit where they do
    not."""

    # (d, M): Md = 4608 is over the dense limit, as in the small
    # highdim-sweep shape; Md = 128 is dense
    SHAPES = {"matrix-free": (64, 72), "dense": (2, 64)}
    GRAM = {"matrix-free": kernels.ImplicitGram, "dense": kernels.DenseGram}
    TOL = 1e-4  # the entry's default, as the public fit's

    @classmethod
    def run(cls, monkeypatch, form, **entry):
        d, M = cls.SHAPES[form]
        cfg = parse_experiment_config(base_config(
            dimensions=[d], sample_sizes=[M], seeds=[0], eval_size=16,
            estimators=[dict({"id": "tikhonov_cg", "kind": "curl_free"}, **entry)]))
        fits, orig = [], bench.fit_tikhonov_cg

        def recorded(*args, **kwargs):
            fits.append(orig(*args, **kwargs))
            return fits[-1]
        monkeypatch.setattr(bench, "fit_tikhonov_cg", recorded)
        rows = run_grid_rows(cfg)
        assert all(r.reason == "" for r in rows)
        assert len(fits) == len(rows)
        return fits

    @staticmethod
    def public(est):
        return estimators.fit_tikhonov_cg(est.samples, est.kernel, est.scheme.lam)

    @staticmethod
    def true_residual(est):
        gram = kernels.assemble_gram(est.kernel, est.samples)
        shift = est.samples.shape[0] * est.scheme.lam
        c, b = est.coeffs.ravel(), gram.divergence() / est.scheme.lam
        return np.linalg.norm(gram.matvec(c) + shift * c - b) / np.linalg.norm(b)

    @pytest.mark.parametrize("form", sorted(SHAPES))
    def test_converged_exactly_where_the_true_residual_meets_tol(self, monkeypatch, form):
        fits = self.run(monkeypatch, form)
        assert [est.scheme.lam for est in fits] == list(LAMBDA_GRID)
        for est in fits:
            rel, public = self.true_residual(est), self.public(est)
            assert isinstance(kernels.assemble_gram(est.kernel, est.samples), self.GRAM[form])
            assert est.meta["cg_residual"] == pytest.approx(rel, rel=1e-6)
            assert est.meta["cg_converged"] == (rel <= self.TOL)
            assert est.meta["cg_converged"] or not public.meta["cg_converged"]
            assert public.meta["solver"] == "cg"
            if est.scheme.lam >= 1e-2:
                assert np.linalg.norm(est.coeffs - public.coeffs) \
                    <= 1e-8 * np.linalg.norm(public.coeffs)

    def test_an_overflowing_residual_records_no_warning(self):
        # h / lam is about 1e300, so the squares of its norm overflow a double
        cfg = parse_experiment_config(base_config(
            distribution="gaussian", dimensions=[2], sample_sizes=[12], seeds=[0],
            eval_size=8, estimators=[{"id": "tikhonov_cg", "kind": "curl_free",
                                      "bandwidth": 1.0, "lambdas": [1e-300]}]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (row,) = run_grid_rows(cfg)
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert (math.isfinite(row.error) and row.reason == "") or (
            math.isnan(row.error) and row.reason != ""), row

    @pytest.mark.parametrize("form", sorted(SHAPES))
    def test_a_cell_costs_one_gram_product_beyond_the_basis(self, monkeypatch, form):
        bases, products, cg_runs = [], [0], [0]
        orig_lanczos, orig_cg = bench.lanczos, estimators.conjugate_gradient
        orig_matvec = self.GRAM[form].matvec

        def counted_lanczos(*args, **kwargs):
            bases.append(orig_lanczos(*args, **kwargs))
            return bases[-1]

        def matvec(gram, b):
            products[0] += 1
            return orig_matvec(gram, b)

        def cg(*args, **kwargs):
            cg_runs[0] += 1
            return orig_cg(*args, **kwargs)
        monkeypatch.setattr(bench, "lanczos", counted_lanczos)
        monkeypatch.setattr(self.GRAM[form], "matvec", matvec)
        monkeypatch.setattr(estimators, "conjugate_gradient", cg)
        fits = self.run(monkeypatch, form)
        [V] = [basis.V for basis in bases]
        assert cg_runs[0] == 0
        assert products[0] <= len(V) + len(fits)
        assert max(est.meta["cg_iterations"] for est in fits) <= len(V)
        assert all(est.meta["solver"] == "galerkin" for est in fits)

    @pytest.mark.parametrize("how", ["short", "failed", "drifted"])
    @pytest.mark.parametrize("form", sorted(SHAPES))
    def test_cells_without_a_usable_basis_are_the_public_fit(self, monkeypatch, form, how):
        orig = bench.lanczos

        def failed(*args, **kwargs):
            raise NumericError("injected")

        def drifted(*args, **kwargs):
            # T and beta still vouch for each iterate; the true residual,
            # about 1e-3, does not
            basis = orig(*args, **kwargs)
            return dataclasses.replace(basis, V=basis.V * (1.0 + 1e-3))
        if how == "short":
            # two vectors: no cell's estimate meets tol, and max_iter is 40
            monkeypatch.setattr(bench, "_KRYLOV_MAX_DIM", 2)
        else:
            monkeypatch.setattr(bench, "lanczos", failed if how == "failed" else drifted)
        # CG converges at both lams in 3 to 22 iterations
        fits = self.run(monkeypatch, form, lambdas=[1e-2, 1e-3])
        for est in fits:
            public = self.public(est)
            assert est.meta == public.meta and est.meta["cg_iterations"] > 2
            assert est.meta["solver"] == "cg"
            assert np.array_equal(est.coeffs, public.coeffs)


class TestTikhonovStarts:
    """A sweep tikhonov cell is fit_tikhonov handed the problem's basis,
    which makes its own start: the public fit with that basis, bit for bit,
    whose start meets its target inside the basis at every lam."""

    @pytest.mark.parametrize("form", sorted(TestGalerkinCells.SHAPES))
    def test_each_cell_is_the_public_fit_given_the_basis(self, form):
        d, M = TestGalerkinCells.SHAPES[form]
        problem, (tik,) = TestSharedKrylovEngine.problem([TestSharedKrylovEngine.TIK], d=d, M=M)
        spec = problem.spec(tik)
        gram, basis = problem.gram(spec), problem.krylov(spec)
        assert isinstance(gram, TestGalerkinCells.GRAM[form]) and basis is not None
        target = estimators._start_tol(gram)
        cells = list(bench._fit_cells(tik, problem, spec))
        assert [tik.grid[i][1]["lam"] for i, _, _ in cells] == list(LAMBDA_GRID)
        for i, cell, est in cells:
            lam = tik.grid[i][1]["lam"]
            assert cell.reason == ""
            assert basis.galerkin(M * lam, target, basis.norm_b / lam)[0] > 0
            ref = estimators.fit_tikhonov(problem.X, spec, lam, gram=gram, _krylov=basis)
            assert est.offset == ref.offset
            assert est.coeffs.tobytes() == ref.coeffs.tobytes()
            assert est.meta == ref.meta


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

    def test_a_summary_over_several_d_names_each_series_by_d(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "estimator,kind,d,M,hyperparams,median_error,n_ok\n"
            "e,diagonal,2,16,lam=1,0.5,4\n"
            "e,diagonal,4,16,lam=1,0.25,4\n")
        svg = emit_plot(path)
        assert ">e d=2</text>" in svg and ">e d=4</text>" in svg

    def test_log_axes_drop_the_points_they_cannot_show(self):
        # x = 0 has no log on the x axis, y = -1 none on the y axis
        series = [("a", [(0.0, 1.0), (1.0, -1.0), (10.0, 1.0), (100.0, 0.1)])]
        svg = render_line_chart(series, log_x=True, log_y=True)
        assert svg.count("<circle") == 2
        assert render_line_chart(series).count("<circle") == 4

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

    def test_error_names_the_physical_line(self, tmp_path):
        # the quoted hyperparams field spans lines 2-3, so the third record
        # is on line 4
        path = tmp_path / "bad.csv"
        path.write_text("estimator,kind,d,M,hyperparams,median_error,n_ok\n"
                        'e,diagonal,2,16,"lam=1\n",0.5,4\n'
                        "e,diagonal,2,sixteen,lam=1,0.5,4\n")
        with pytest.raises(InputError, match="line 4: invalid literal for int"):
            read_summary_csv(path)

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
