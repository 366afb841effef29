"""Peak memory of the dense path, measured with tracemalloc.

Each bound sits between the whole-array code these functions replaced and
what they allocate now, so a return to full-size temporaries fails here.
"""

import json

import numpy as np
import pytest

from scorekit import (
    ImplicitGram,
    MatrixKernelSpec,
    ScalarRadialKernel,
    assemble_gram,
    cross_apply,
    fit_landweber,
    fit_nu_method,
    fit_truncated_tikhonov,
    h_vector,
    median_bandwidth,
    save_samples_csv,
)
from scorekit.bench import parse_experiment_config, run_grid_rows
from scorekit.cli import main
from scorekit.errors import InputError
from scorekit.kernels import query_tables
from scorekit.spectral_linalg import SPD_RESIDUAL_TOL, TridiagonalEigen, solve_spd

from helpers import peak_bytes, retained_bytes

MB = 2 ** 20


def curl_free(family):
    return MatrixKernelSpec("curl_free", ScalarRadialKernel(family, 1.0))


def samples(M, d):
    return np.random.default_rng(M + d).normal(size=(M, d))


@pytest.mark.parametrize("family", ["gaussian", "imq"])
def test_dense_gram_peaks_near_its_output(family):
    """The whole-array assembly peaked at its 32 MB output plus 160 MB, and
    cross_gram's row blocks at 48 MB over it; the one pass of h_vector's
    chunks, which also yields h, holds about 5 MB."""
    X = samples(2048, 1)
    out = (2048 * 8) * 2048
    assert peak_bytes(lambda: assemble_gram(curl_free(family), X)) <= out + 8 * MB


def test_curlfree_cross_apply_holds_one_query_by_basis_array():
    """Out of place it held three Q x N arrays at once (9 MB here)."""
    Q, N, d = 1024, 512, 64
    rng = np.random.default_rng(0)
    queries, basis, coeffs = (rng.normal(size=(n, d)) for n in (Q, N, N))
    spec = MatrixKernelSpec("curl_free", ScalarRadialKernel("imq", 8.0))
    tables = query_tables(spec, queries, basis, zeta=False)[1]
    peak = peak_bytes(lambda: cross_apply(spec, queries, basis, coeffs, _tables=tables))
    assert peak <= 1.5 * (Q * 8) * N


@pytest.mark.parametrize("Q, M, d", [(1024, 4096, 1), (1024, 512, 64)])
def test_query_tables_hold_their_outputs_and_one_block(Q, M, d):
    """One whole-array pass peaked at 160 MB for 32 MB of outputs at d = 1
    and at 20 MB for 8.5 MB at d = 64; the blocks add 4 MB to each."""
    rng = np.random.default_rng(Q + M + d)
    queries, X = rng.normal(size=(Q, d)), rng.normal(size=(M, d))
    spec = MatrixKernelSpec("curl_free", ScalarRadialKernel("imq", np.sqrt(d)))
    outputs = (Q * 8) * (d + M * (1 if d == 1 else 2))
    assert peak_bytes(lambda: query_tables(spec, queries, X)) <= outputs + 8 * MB


def test_d1_sweep_holds_no_whole_query_temporaries():
    """conv-exp's estimators at d = 1, M = 2048, eval_size 1024: with the
    shared tables built from whole Q x M temporaries the sweep peaked at
    125 MB; in blocks it peaks at 65 MB, about the Gram and one copy."""
    cfg = parse_experiment_config({
        "schema_version": 1, "distribution": "gaussian", "dimensions": [1],
        "sample_sizes": [2048], "seeds": [0], "eval_size": 1024,
        "estimators": [
            {"id": "tikhonov", "kind": "curl_free"},
            {"id": "nu_method", "kind": "curl_free", "iterations": [1, 3, 10, 31, 100, 316]}]})
    rows = []
    assert peak_bytes(lambda: rows.extend(run_grid_rows(cfg))) <= 96 * MB
    assert rows and not any(r.reason for r in rows)


def test_median_bandwidth_holds_no_copy_of_the_distances():
    """np.median without overwrite_input copied pdist's output: 2x it."""
    M = 2048
    assert peak_bytes(lambda: median_bandwidth(samples(M, 3))) <= 1.25 * (M * (M - 1) // 2) * 8


@pytest.mark.parametrize("kind", ["curl_free", "diagonal"])
def test_h_vector_peaks_far_below_an_m_by_m_table(kind):
    """One whole zeta_batch(X, X) peaked at 160 MB for this 16 KB vector."""
    X = samples(2048, 1)
    spec = MatrixKernelSpec(kind, ScalarRadialKernel("gaussian", 1.0))
    assert peak_bytes(lambda: h_vector(spec, X)) < 16 * MB


@pytest.mark.parametrize("M, d", [(2048, 1), (256, 8)])
def test_eigensystem_peak_is_the_decomposition_and_one_copy(M, d):
    """Symmetrizing a copy first took 3.0x the matrix, and so did dstevd
    on a reduced copy (3.01x): the copy, T's eigenvectors Z and dstevd's
    n^2 workspace. The reduction runs in the Gram's own buffer, so it
    holds Z and that workspace, 2x."""
    gram = assemble_gram(curl_free("imq"), samples(M, d))
    assert peak_bytes(gram.eigensystem) <= 2.25 * gram.matrix.nbytes
    assert isinstance(gram.eigensystem(), TridiagonalEigen)


@pytest.mark.parametrize("M, d", [(2048, 1), (256, 8)])
def test_cached_spectrum_keeps_z_and_a_view_of_the_gram(M, d):
    """The reflectors stay in the Gram's own upper triangle, so the cached
    value adds only Z and O(n); reduced on a copy, it kept that copy too
    (2x the matrix)."""
    gram = assemble_gram(curl_free("imq"), samples(M, d))
    assert retained_bytes(gram.eigensystem) <= 1.05 * gram.matrix.nbytes


@pytest.mark.parametrize("M, d", [(2048, 1), (256, 8)])
def test_first_eigen_filter_fit_never_forms_the_eigenvectors(M, d):
    """The first fit over a fresh Gram decomposes it and lifts one column.
    Forming U = Q Z on top of the reflectors and Z would take 3x."""
    X = samples(M, d)
    spec = curl_free("imq")
    gram = assemble_gram(spec, X)
    peak = peak_bytes(lambda: fit_truncated_tikhonov(X, spec, 0.1, gram=gram))
    assert peak <= 2.25 * gram.matrix.nbytes


@pytest.mark.parametrize("fit", ["landweber", "nu_method"])
@pytest.mark.parametrize("via", ["function", "cli"])
def test_diagonal_iterative_fits_stay_m_by_m(tmp_path, fit, via):
    """A diagonal fit reads the scalar M x M Gram (72 KB here); its Md x Md
    Kronecker form would take 302 MB at M = 96, d = 64."""
    M, d = 96, 64
    X = samples(M, d)
    spec = MatrixKernelSpec("diagonal", ScalarRadialKernel("imq", 8.0))
    if via == "function":
        run = {"landweber": lambda: fit_landweber(X, spec, t=20),
               "nu_method": lambda: fit_nu_method(X, spec, t=20)}[fit]
    else:
        save_samples_csv(X, tmp_path / "samples.csv")
        (tmp_path / "fit.json").write_text(json.dumps({
            "schema_version": 1, "samples": "samples.csv",
            "estimator": {"id": fit, "kind": "diagonal", "iterations": [20]}}))
        argv = ["fit", "--config", str(tmp_path / "fit.json"), "--out", str(tmp_path / "e.bin")]
        run = lambda: main(argv)  # noqa: E731
    assert peak_bytes(run) <= 32 * M * M * 8  # 5 to 12 M x M tables measured


@pytest.mark.parametrize("via", ["function", "cli"])
def test_an_eigen_filter_refuses_the_matrix_free_gram_before_it_allocates(tmp_path, via):
    """Md = 4200 is over the dense limit; building the matrix-free Gram's
    M x M tables before the refusal took 134.6 MB here."""
    M, d = 2100, 2
    X = samples(M, d)
    spec = MatrixKernelSpec("curl_free", ScalarRadialKernel("imq", 1.0))
    if via == "function":
        def run():
            with pytest.raises(InputError, match=f"{(M * d) ** 2 * 8} bytes"):
                fit_truncated_tikhonov(X, spec, 0.1)
    else:
        save_samples_csv(X, tmp_path / "samples.csv")
        (tmp_path / "fit.json").write_text(json.dumps({
            "schema_version": 1, "samples": "samples.csv",
            "estimator": {"id": "truncated_tikhonov", "kind": "curl_free",
                          "bandwidth": 1.0, "lambdas": [0.1]}}))
        argv = ["fit", "--config", str(tmp_path / "fit.json"), "--out", str(tmp_path / "e.bin")]

        def run():
            assert main(argv) == 1
    assert peak_bytes(run) < MB


@pytest.mark.parametrize("family", ["gaussian", "imq"])
def test_d1_implicit_gram_holds_one_table(family):
    """At d = 1 the matrix-free Gram keeps the scalar kernel, one M x M
    table, where phi'(U) and phi''(U) took two. One build peaks at four
    tables (U, phi'' and phi'(U)'s two temporaries), so two Grams built
    in turn peak at 1 + 4 tables, 2 + 4 with two tables each."""
    M = 2048
    X = samples(M, 1)
    spec = curl_free(family)
    b = np.random.default_rng(5).normal(size=M)
    grams = []

    def build_two():
        for _ in range(2):
            grams.append(ImplicitGram(spec, X))
            grams[-1].matvec(b)
    assert peak_bytes(build_two) < 5.5 * (M * 8) * M
    ref = assemble_gram(spec, X).matvec(b)
    assert np.abs(grams[0].matvec(b) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_solve_spd_holds_one_shifted_copy():
    """A shifted solve without a start held A + shift I in C order and
    cho_factor's Fortran copy of it, two matrices of A's size; it shifts and
    factors one Fortran-ordered copy and refines against A itself."""
    n = 1024
    rng = np.random.default_rng(0)
    B = rng.normal(size=(n, n))
    A = B @ B.T / n
    A_before, b, shift = A.copy(), rng.normal(size=n), 1.0
    out = []
    assert peak_bytes(lambda: out.append(solve_spd(A, b, shift=shift))) <= 1.25 * (n * 8) * n
    r = b - (A @ out[0] + shift * out[0])
    assert np.linalg.norm(r) <= SPD_RESIDUAL_TOL * np.linalg.norm(b)
    assert np.array_equal(A, A_before)
