"""Tests for the synthetic ground-truth module: mixtures, analytic scores,
seeded sampling, bandwidth heuristic, error metric, CSV exchange."""

import csv
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist
from scipy.special import logsumexp, softmax

from scorekit import oracles
from scorekit.errors import DegenerateDataError, InputError
from scorekit.kernels import MatrixKernelSpec, ScalarRadialKernel
from scorekit.estimators import fit_truncated_tikhonov
from scorekit.oracles import (
    ErrorReport,
    MixtureDistribution,
    OracleScore,
    load_samples_csv,
    log_density,
    make_grid_distribution,
    median_bandwidth,
    normalized_error,
    sample,
    save_samples_csv,
    score_batch,
    standard_gaussian,
    true_score,
)

from helpers import (
    component_logliks_broadcast,
    load_samples_csv_lines,
    peak_bytes,
    stein_heuristic_scores,
)


# ======================================================================
# mixture construction
# ======================================================================

class TestMixtureDistribution:

    def test_basic_properties(self):
        dist = MixtureDistribution([[0.0, 1.0], [2.0, 3.0]], [0.25, 0.75], scale=2.0)
        assert dist.dim == 2
        assert dist.n_components == 2
        assert dist.scale == 2.0

    def test_weight_sum_enforced(self):
        with pytest.raises(InputError):
            MixtureDistribution([[0.0], [1.0]], [0.5, 0.6])

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            MixtureDistribution([[0.0], [1.0]], [1.5, -0.5])

    def test_zero_weight_component_allowed(self):
        dist = MixtureDistribution([[0.0], [9.0]], [1.0, 0.0])
        assert dist.n_components == 2

    def test_weight_count_mismatch(self):
        with pytest.raises(InputError):
            MixtureDistribution([[0.0], [1.0]], [1.0])

    def test_nonfinite_means_rejected(self):
        with pytest.raises(InputError):
            MixtureDistribution([[np.inf]], [1.0])

    def test_bad_scale_rejected(self):
        for s in (0.0, -1.0, np.nan):
            with pytest.raises(InputError):
                MixtureDistribution([[0.0]], [1.0], scale=s)

    def test_standard_gaussian_helper(self):
        g = standard_gaussian(5)
        assert g.dim == 5
        assert g.n_components == 1
        assert np.all(g.means == 0.0)


# ======================================================================
# grid distribution
# ======================================================================

class TestGridDistribution:

    def test_d1_single_binary_vertex(self):
        dist = make_grid_distribution(1, 0)
        assert dist.n_components == 1
        assert dist.means.shape == (1, 1)
        assert dist.means[0, 0] in (0.0, 1.0)
        assert dist.scale == 1.0

    def test_same_seed_identical(self):
        a = make_grid_distribution(6, 123)
        b = make_grid_distribution(6, 123)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.weights, b.weights)

    def test_d4_seed7_distinct_binary_vertices(self):
        dist = make_grid_distribution(4, 7)
        assert dist.means.shape == (4, 4)
        assert np.all((dist.means == 0.0) | (dist.means == 1.0))
        assert len(np.unique(dist.means, axis=0)) == 4

    def test_equal_weights(self):
        dist = make_grid_distribution(8, 2)
        assert np.allclose(dist.weights, 1.0 / 8.0)

    def test_large_d_distinct_and_deterministic(self):
        # d > 20 takes the rejection-sampling branch
        a = make_grid_distribution(25, 42)
        b = make_grid_distribution(25, 42)
        assert np.array_equal(a.means, b.means)
        assert np.all((a.means == 0.0) | (a.means == 1.0))
        assert len(np.unique(a.means, axis=0)) == 25

    def test_invalid_dim(self):
        with pytest.raises(InputError):
            make_grid_distribution(0, 0)


# ======================================================================
# analytic score and log density
# ======================================================================

class TestTrueScore:

    def test_single_gaussian_is_minus_x(self):
        g = standard_gaussian(3)
        x = np.array([0.4, -2.0, 1.1])
        assert np.array_equal(true_score(g, x), -x)

    def test_scaled_gaussian(self):
        dist = MixtureDistribution([[0.0, 0.0]], [1.0], scale=3.0)
        x = np.array([1.0, -2.0])
        assert np.allclose(true_score(dist, x), -x / 9.0, rtol=0, atol=1e-15)

    def test_symmetric_midpoint(self):
        # two equal components: at the midpoint the score component along
        # the mean-connecting axis vanishes
        dist = MixtureDistribution([[-2.0, 0.0], [2.0, 0.0]], [0.5, 0.5])
        s = true_score(dist, np.array([0.0, 0.7]))
        assert s[0] == 0.0
        assert np.isclose(s[1], -0.7)

    def test_matches_finite_difference_log_density(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            K, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            w = rng.uniform(0.2, 1.0, K)
            dist = MixtureDistribution(rng.normal(0, 1.5, (K, d)), w / w.sum(),
                                       scale=float(rng.uniform(0.7, 1.6)))
            x = rng.normal(0, 1.5, d)
            h = 1e-6
            fd = np.zeros(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd[i] = (log_density(dist, x + e) - log_density(dist, x - e)) / (2 * h)
            s = true_score(dist, x)
            assert np.max(np.abs(fd - s)) <= 1e-6 * max(1.0, np.max(np.abs(s)))

    def test_far_tail_never_nan(self):
        dist = MixtureDistribution([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        s = true_score(dist, np.array([1e4, -1e4]))
        assert np.all(np.isfinite(s))

    def test_score_batch_matches_loop(self):
        dist = make_grid_distribution(3, 1)
        Q = np.random.default_rng(8).normal(0, 1, (10, 3))
        batch = score_batch(dist, Q)
        for i in range(10):
            assert np.allclose(batch[i], true_score(dist, Q[i]), atol=1e-14)

    def test_input_validation(self):
        g = standard_gaussian(2)
        with pytest.raises(InputError):
            true_score(g, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(InputError):
            true_score(g, np.array([np.nan, 0.0]))
        with pytest.raises(InputError):
            log_density(g, np.array([1.0]))

    @pytest.mark.parametrize("d", [1, 3, 64, 128])
    def test_logliks_match_the_broadcast_form(self, d):
        # the distances come from |x|^2 + |mu|^2 - 2 x . mu, clipped at zero;
        # a query on a mean has distance zero to it
        dist = make_grid_distribution(d, 5)
        Q = np.random.default_rng(d).normal(0.5, 1.0, (40, d))
        Q[0] = dist.means[min(1, d - 1)]
        out = oracles._component_logliks(dist, Q)
        ref = component_logliks_broadcast(dist, Q)
        assert np.all(np.abs(out - ref) <= 1e-13 * np.abs(ref))

    def test_score_batch_allocates_no_query_by_component_by_dim_array(self):
        # the (Q, K, d) difference array was 134 MB at Q = 1024, K = d = 128
        dist = make_grid_distribution(128, 0)
        Q = np.random.default_rng(0).normal(0.5, 1.0, (1024, 128))
        assert peak_bytes(lambda: score_batch(dist, Q)) < 16 * 2 ** 20

    # the grid mixtures of every sweep workload, and the 16-d one of the CLI
    # workload (16 distinct 0/1 vertices drawn from its own seed stream)
    @pytest.mark.parametrize("d", [1, 8, 64, 128, "cli-16"])
    def test_score_batch_and_log_density_are_scipy_bit_for_bit(self, d):
        if d == "cli-16":
            rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(11,)))
            codes = rng.choice(2 ** 16, size=16, replace=False)
            means = ((codes[:, None] >> np.arange(16)[None, :]) & 1).astype(float)
            dist = MixtureDistribution(means, np.full(16, 1.0 / 16))
        else:
            dist = make_grid_distribution(d, 0)
        Q = sample(dist, 1024, 1)
        Q[-1] = 40.0    # far tail: every component but one underflows
        L = oracles._component_logliks(dist, Q)
        ref = (softmax(L, axis=1) @ dist.means - Q) / dist.scale ** 2
        assert np.array_equal(score_batch(dist, Q), ref)
        for q in Q[::97]:
            row = oracles._component_logliks(dist, q[None, :])[0]
            assert log_density(dist, q) == float(logsumexp(row))

    def test_oracle_wrapper_predict(self):
        dist = make_grid_distribution(2, 3)
        Q = np.random.default_rng(1).normal(0, 1, (5, 2))
        assert np.array_equal(OracleScore(dist).predict(Q), score_batch(dist, Q))


# ======================================================================
# sampling
# ======================================================================

class TestSample:

    def test_fixed_seed_byte_identical(self):
        dist = make_grid_distribution(3, 0)
        a = sample(dist, 100, 17)
        b = sample(dist, 100, 17)
        assert a.tobytes() == b.tobytes()

    def test_clt_mean_bound(self):
        M = 10_000
        X = sample(standard_gaussian(2), M, 3)
        assert X.shape == (M, 2)
        assert np.all(np.abs(X.mean(axis=0)) < 4.0 / math.sqrt(M))

    def test_degenerate_weights_single_component(self):
        # weight (1, 0): every sample comes from the first component
        dist = MixtureDistribution([[0.0], [100.0]], [1.0, 0.0])
        X = sample(dist, 500, 9)
        assert np.all(np.abs(X) < 50.0)

    def test_scale_applied(self):
        X = sample(MixtureDistribution([[0.0]], [1.0], scale=10.0), 4000, 0)
        assert 8.0 < X.std() < 12.0

    def test_invalid_count(self):
        with pytest.raises(InputError):
            sample(standard_gaussian(1), 0, 0)


# ======================================================================
# median bandwidth
# ======================================================================

class TestMedianBandwidth:

    def test_two_points(self):
        assert median_bandwidth(np.array([[0.0], [2.0]])) == 2.0

    def test_three_points(self):
        # pairwise distances {1, 3, 2} -> median 2
        assert median_bandwidth(np.array([[0.0], [1.0], [3.0]])) == 2.0

    def test_matches_bruteforce(self):
        X = sample(standard_gaussian(16), 512, 11)
        dists = []
        for i in range(512):
            for j in range(i + 1, 512):
                dists.append(math.sqrt(sum((X[i, k] - X[j, k]) ** 2
                                           for k in range(16))))
        assert median_bandwidth(X) == float(np.median(np.asarray(dists)))

    @pytest.mark.parametrize("M", [2, 3, 64, 301])
    def test_equals_the_median_of_a_copy_bit_for_bit(self, M):
        # pdist stays the reference for the numpy distances
        X = sample(standard_gaussian(5), M, M)
        assert median_bandwidth(X) == float(np.median(pdist(X)))

    # every workload's shape (each has an even pair count M(M-1)/2) and one
    # with an odd count
    @pytest.mark.parametrize("M, d", [(256, 1), (1024, 1), (4096, 1), (512, 8), (512, 64),
                                      (512, 128), (768, 16), (258, 3)])
    def test_is_pdists_median_bit_for_bit_at_the_workload_shapes(self, M, d):
        X = sample(make_grid_distribution(d, 0), M, M + d)
        assert median_bandwidth(X) == float(np.median(pdist(X)))
        assert np.array_equal(oracles._pair_sq_dists(X), pdist(X, "sqeuclidean"))

    def test_rows_longer_than_a_block(self, monkeypatch):
        # with 8-pair blocks most rows of the triangle are blocks of their own
        monkeypatch.setattr(oracles, "_PAIR_BLOCK", 8)
        X = sample(standard_gaussian(3), 50, 4)
        assert np.array_equal(oracles._pair_sq_dists(X), pdist(X, "sqeuclidean"))
        assert median_bandwidth(X) == float(np.median(pdist(X)))

    @pytest.mark.parametrize("M", [12, 14])     # 66 and 91 pairs
    def test_duplicate_rows_and_tied_distances(self, M):
        # points k (1, 2) on a line, each twice: most distances tie
        X = np.repeat(np.arange(M // 2 + 1, dtype=float)[:, None] * [1.0, 2.0], 2, axis=0)[:M]
        dists = pdist(X)
        assert len(np.unique(dists)) < dists.size // 4
        assert median_bandwidth(X) == float(np.median(dists))
        assert np.array_equal(oracles._pair_sq_dists(X), pdist(X, "sqeuclidean"))

    def test_identical_samples_degenerate(self):
        with pytest.raises(DegenerateDataError):
            median_bandwidth(np.ones((5, 2)))

    def test_needs_two_samples(self):
        with pytest.raises(InputError):
            median_bandwidth(np.zeros((1, 3)))


# ======================================================================
# normalized error
# ======================================================================

class _ZeroEstimator:
    def predict(self, Q):
        return np.zeros_like(np.atleast_2d(np.asarray(Q, dtype=np.float64)))


class TestNormalizedError:

    def test_oracle_is_exactly_zero(self):
        dist = make_grid_distribution(4, 5)
        rep = normalized_error(OracleScore(dist), dist, n_eval=256, seed=[0, 1, 2])
        assert rep.median == 0.0
        assert rep.std == 0.0
        assert np.all(rep.per_seed == 0.0)

    def test_zero_estimator_on_standard_gaussian(self):
        # E||x||^2 / d = 1 for N(0, I_d)
        rep = normalized_error(_ZeroEstimator(), standard_gaussian(6),
                               n_eval=1024, seed=0)
        assert abs(rep.value - 1.0) < 0.15

    def test_permutation_invariance(self):
        dist = make_grid_distribution(2, 1)
        rep = normalized_error(_ZeroEstimator(), dist, n_eval=128, seed=7)
        Q = sample(dist, 128, 7)
        perm = np.random.default_rng(0).permutation(128)
        manual = float(np.mean(np.square(score_batch(dist, Q[perm])).sum(axis=1))
                       / dist.dim)
        assert abs(manual - rep.value) <= 1e-12 * max(1.0, abs(manual))

    def test_multi_seed_aggregation(self):
        dist = standard_gaussian(3)
        rep = normalized_error(_ZeroEstimator(), dist, n_eval=64,
                               seed=[0, 1, 2, 3, 4])
        assert rep.per_seed.shape == (5,)
        assert np.all(rep.per_seed >= 0.0)
        assert rep.median == float(np.median(rep.per_seed))
        assert rep.std == float(np.std(rep.per_seed))

    def test_report_on_fitted_estimator(self):
        dist = standard_gaussian(2)
        X = sample(dist, 64, 0)
        spec = MatrixKernelSpec("curl_free",
                                ScalarRadialKernel("imq", median_bandwidth(X)))
        est = fit_truncated_tikhonov(X, spec, 1e-2)
        rep = normalized_error(est, dist, n_eval=256, seed=1)
        assert isinstance(rep, ErrorReport)
        assert rep.value >= 0.0
        assert rep.value < 1.0  # better than predicting zero

    def test_empty_seed_list(self):
        with pytest.raises(InputError):
            normalized_error(_ZeroEstimator(), standard_gaussian(1), seed=[])


# ======================================================================
# CSV exchange
# ======================================================================

class TestCsv:

    def test_roundtrip_exact(self, tmp_path):
        X = sample(make_grid_distribution(3, 2), 23, 6)
        path = tmp_path / "samples.csv"
        save_samples_csv(X, path)
        assert np.array_equal(load_samples_csv(path), X)

    def test_header_format(self, tmp_path):
        path = tmp_path / "s.csv"
        save_samples_csv(np.zeros((2, 4)), path)
        with open(path) as f:
            assert f.readline().strip() == "x1,x2,x3,x4"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.0,1.0\n")
        with pytest.raises(InputError, match="line 1"):
            load_samples_csv(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x1,x2\n0.0,1.0\n2.0\n")
        with pytest.raises(InputError, match="line 3"):
            load_samples_csv(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "nn.csv"
        path.write_text("x1\n0.5\noops\n")
        with pytest.raises(InputError, match="line 3"):
            load_samples_csv(path)

    def test_error_names_the_physical_line(self, tmp_path):
        # the quoted field spans lines 2-3, so the third record is on line 4
        path = tmp_path / "multiline.csv"
        path.write_text('x1,x2\n"1\n",2\n3,abc\n')
        with pytest.raises(InputError, match="line 4: could not convert string to float: 'abc'"):
            load_samples_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError):
            load_samples_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x1,x2\n")
        with pytest.raises(InputError):
            load_samples_csv(path)


# the writer before it formatted one string: csv.writer, row by row
def csv_writer_reference(X, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([f"x{i + 1}" for i in range(X.shape[1])])
        for row in X:
            w.writerow([f"{v:.17g}" for v in row])


EDGE_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0 ** 53, 1.0, -7.0)
csv_values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.integers(-10 ** 6, 10 ** 6).map(float),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def csv_matrices(draw):
    M, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    return np.array(draw(st.lists(csv_values, min_size=M * d, max_size=M * d)),
                    dtype=np.float64).reshape(M, d)


# (name, edit of the row field lists); the header is rows[0]
CSV_DEFECTS = {
    "none": lambda rows, i: rows,
    "header only": lambda rows, i: rows[:1],
    "extra field": lambda rows, i: rows[:i] + [rows[i] + ["1.5"]] + rows[i + 1:],
    "missing field": lambda rows, i: rows[:i] + [rows[i][1:]] + rows[i + 1:],
    "blank line": lambda rows, i: rows[:i] + [[]] + rows[i:],
    "whitespace line": lambda rows, i: rows[:i] + [[" \t"]] + rows[i:],
    "hash": lambda rows, i: rows[:i] + [["#" + rows[i][0]] + rows[i][1:]] + rows[i + 1:],
    "comment line": lambda rows, i: rows[:i] + [["# note"]] + rows[i:],
    "quoted field": lambda rows, i: rows[:i] + [['"' + rows[i][0] + '"'] + rows[i][1:]]
    + rows[i + 1:],
    "quoted header": lambda rows, i: [['"' + f + '"' for f in rows[0]]] + rows[1:],
}


def read_outcome(read, path):
    try:
        X = read(path)
    except InputError as exc:
        return "error", str(exc)
    return "array", X.shape, X.tobytes()


class TestCsvProperties:

    @settings(max_examples=200, deadline=None)
    @given(X=csv_matrices())
    def test_writer_bytes_match_csv_writer(self, X):
        with tempfile.TemporaryDirectory() as tmp:
            ours, ref = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
            save_samples_csv(X, ours)
            csv_writer_reference(X, ref)
            with open(ours, "rb") as a, open(ref, "rb") as b:
                assert a.read() == b.read()
            assert np.array_equal(load_samples_csv(ours), X)

    @settings(max_examples=400, deadline=None)
    @given(X=csv_matrices(), defect=st.sampled_from(sorted(CSV_DEFECTS)),
           at=st.integers(1, 6), newline=st.sampled_from(["\n", "\r\n"]),
           final_newline=st.booleans())
    def test_reader_agrees_with_line_reader(self, X, defect, at, newline, final_newline):
        rows = [[f"x{i + 1}" for i in range(X.shape[1])]]
        rows += [[f"{v:.17g}" for v in row] for row in X]
        rows = CSV_DEFECTS[defect](rows, min(at, len(rows) - 1))
        text = newline.join(",".join(r) for r in rows) + (newline if final_newline else "")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.csv")
            with open(path, "w", newline="") as f:
                f.write(text)
            expected = read_outcome(load_samples_csv_lines, path)
            assert read_outcome(load_samples_csv, path) == expected
            if defect in ("none", "blank line", "quoted field", "quoted header"):
                assert expected[0] == "array"


# ======================================================================
# append-and-refit heuristic
# ======================================================================

class TestSteinHeuristic:

    def test_approaches_principled_prediction(self):
        # appending one query perturbs the empirical operator by O(1/M),
        # so the heuristic converges to the basis-expansion prediction
        dist = standard_gaussian(1)
        Q = np.linspace(-1.5, 1.5, 7)[:, None]
        gaps = []
        for M in (64, 256):
            X = sample(dist, M, 4)
            spec = MatrixKernelSpec("curl_free",
                                    ScalarRadialKernel("imq", median_bandwidth(X)))
            heur = stein_heuristic_scores(X, spec, 1e-2, Q)
            pred = fit_truncated_tikhonov(X, spec, 1e-2).predict(Q)
            gaps.append(np.max(np.abs(heur - pred)))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 0.2
