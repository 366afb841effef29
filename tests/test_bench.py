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
from scorekit.errors import InputError
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
