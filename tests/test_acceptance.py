# ======================================================================
# End-to-end acceptance checks.
#
# Each test below is one release gate for the package, run at fixed
# tolerances and wall-clock budgets:
#   1. matrix-free curl-free matvec: exactness vs the dense product and
#      a >= 5x peak-memory advantage
#   2. conjugate-gradient Tikhonov agrees with the direct solver
#   3. cross-scheme equivalences on 50 random small instances
#   4. curl-free fits are gradient fields; recovered log-density
#      integrates the predicted score
#   5. error decreases with sample size at a sane power-law rate
#   6. curl-free estimators beat diagonal ones in high dimension
#   7. experiment reruns produce byte-identical CSV output
# ======================================================================

import json
import time
import tracemalloc

import numpy as np
import pytest

from fd_oracles import fd_gradient, fd_jacobian, fd_mixed_partial
from test_estimators import ssge_reference_coeffs

from scorekit.bench import (
    fit_convergence_slopes,
    parse_experiment_config,
    run_grid_experiment,
    run_grid_rows,
    summarize,
)
from scorekit.estimators import (
    TruncatedTikhonov,
    fit_landweber,
    fit_nu_method,
    fit_nystrom,
    fit_spectral_cutoff,
    fit_tikhonov,
    fit_tikhonov_cg,
    fit_truncated_tikhonov,
    recover_log_density,
)
from scorekit.kernels import (
    MatrixKernelSpec,
    ScalarRadialKernel,
    assemble_gram,
    eval_matrix_kernel,
    h_vector,
    zeta_batch,
)
from scorekit.oracles import make_grid_distribution, median_bandwidth, sample


def cf(family, bw):
    return MatrixKernelSpec("curl_free", ScalarRadialKernel(family, bw))


def test_criterion_1_implicit_matvec_accuracy_and_memory():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    M, d, n_vec = 200, 20, 100
    X = rng.standard_normal((M, d))
    spec = cf("imq", 1.5)
    V = rng.standard_normal((M * d, n_vec))

    tracemalloc.start()
    K = assemble_gram(spec, X, mode="dense").matrix
    dense_out = K @ V
    peak_dense = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del K

    tracemalloc.start()
    gram = assemble_gram(spec, X, mode="implicit")
    impl_out = np.empty((M * d, n_vec))
    for j in range(n_vec):
        impl_out[:, j] = gram.matvec(V[:, j])
    peak_impl = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    rel = (np.linalg.norm(impl_out - dense_out, axis=0)
           / np.linalg.norm(dense_out, axis=0)).max()
    assert rel <= 1e-10
    assert peak_dense >= 5 * peak_impl
    assert time.perf_counter() - t0 < 10.0


def test_criterion_2_cg_agrees_with_direct_solver():
    t0 = time.perf_counter()
    for dd, MM, seed in [(4, 64, 0), (8, 128, 1), (16, 256, 2)]:
        dist = make_grid_distribution(dd, seed)
        X = sample(dist, MM, seed)
        spec = cf("imq", median_bandwidth(X))
        Q = sample(dist, 64, seed + 100)

        # tight tolerance: predictions agree with the dense solve
        for lam in (1e-2, 1e-3):
            direct = fit_tikhonov(X, spec, lam)
            cg = fit_tikhonov_cg(X, spec, lam, tol=1e-6, max_iter=2000)
            assert np.abs(direct.predict(Q) - cg.predict(Q)).max() <= 1e-3

        # loose defaults (tol 1e-4, 40 iterations) converge cleanly on
        # well-conditioned instances
        for lam in (1e-1, 1e-2):
            est = fit_tikhonov_cg(X, spec, lam)
            assert est.meta["cg_converged"]
            assert "warnings" not in est.meta
    assert time.perf_counter() - t0 < 30.0


def _draw_instance(rng):
    # The identities below hold in exact arithmetic for any instance, but
    # verifying them at 1e-8 needs a numerically full-rank Gram: near-null
    # eigenmodes give the eigenfilter schemes coefficient weights of order
    # 1/(lam*sigma) that amplify eigensolver roundoff past the tolerance.
    # Draws whose Gram has a smaller-than-1e-8 relative tail are redrawn.
    while True:
        M = int(rng.integers(4, 17))
        d = int(rng.integers(1, 4))
        bw = float(np.exp(rng.uniform(np.log(0.8), np.log(2.5))))
        lam = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e-1))))
        kind = str(rng.choice(["diagonal", "curl_free"]))
        X = rng.standard_normal((M, d))
        spec = MatrixKernelSpec(kind, ScalarRadialKernel("imq", bw))
        sig = np.linalg.eigvalsh(assemble_gram(spec, X).matrix)
        if max(float(sig.min()), 0.0) >= 1e-8 * float(sig.max()):
            return M, d, bw, lam, kind, X, spec


def test_criterion_3_scheme_equivalences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(50):
        M, d, bw, lam, kind, X, spec = _draw_instance(rng)
        dspec = MatrixKernelSpec("diagonal", ScalarRadialKernel("imq", bw))
        cspec = cf("imq", bw)
        Q = rng.standard_normal((5, d))
        K = assemble_gram(spec, X).matrix
        h = h_vector(spec, X)

        # (a) Tikhonov == truncated Tikhonov at the samples, and the
        # in-sample field solves (K/M + lam I) S = -h
        S = fit_tikhonov(X, spec, lam).predict(X)
        S_tt = fit_truncated_tikhonov(X, spec, lam).predict(X)
        assert np.abs(S - S_tt).max() <= 1e-8
        s_vec = S.ravel()
        assert np.abs(K @ s_vec / M + lam * s_vec + h).max() <= 1e-8

        # (b) diagonal spectral cut-off == coordinatewise SSGE build
        est_sc = fit_spectral_cutoff(X, dspec, lam=lam)
        C_ref = ssge_reference_coeffs(X, "imq", bw, lam)
        assert np.abs(est_sc.coeffs - C_ref).max() <= 1e-8

        # (c) Landweber recursion == its spectral polynomial form,
        # compared as in-sample fields: S_t = -g_t(K/M) h with
        # g_t(s) = (1 - (1 - eta s)^t) / s
        t = int(rng.integers(2, 30))
        lw = fit_landweber(X, spec, t=t)
        eta = lw.scheme.eta
        eig = assemble_gram(spec, X).eigensystem()
        sig = np.maximum(eig.values / M, 0.0)
        g = np.full_like(sig, t * eta)
        pos = sig > 1e-13 * max(float(sig.max()), 1.0)
        g[pos] = -np.expm1(t * np.log1p(-eta * sig[pos])) / sig[pos]
        S_ref = -(eig.vectors @ (g * (eig.vectors.T @ h)))
        assert np.abs(lw.predict(X).ravel() - S_ref).max() <= 1e-8

        # (d) nu-method after one step is -omega_1 zeta with
        # omega_1 = 6/5 at nu = 1
        nu1 = fit_nu_method(X, spec, t=1)
        assert np.abs(nu1.predict(Q) + 1.2 * zeta_batch(spec, X, Q)).max() <= 1e-12

        # (e) curl-free blocks == finite-difference mixed partials of
        # the scalar kernel
        k = cspec.scalar
        def scalar_k(a, b):
            r = a - b
            return float(k.phi(r @ r))
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        B = eval_matrix_kernel(cspec, x, y)
        step = 1e-4 * bw
        fd = np.array([[fd_mixed_partial(scalar_k, x, y, i, j, step)
                        for j in range(d)] for i in range(d)])
        assert np.linalg.norm(fd - B) <= 1e-5 * np.linalg.norm(B)

        # (f) reduced-basis fit with the full subset == the full fit
        ny = fit_nystrom(X, np.arange(M), spec, TruncatedTikhonov(lam))
        full = fit_truncated_tikhonov(X, spec, lam)
        assert np.abs(ny.predict(Q) - full.predict(Q)).max() <= 1e-6
    assert time.perf_counter() - t0 < 60.0


def test_criterion_4_gradient_field_and_recovered_potential():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    d = 3
    X = rng.standard_normal((48, d))
    est = fit_tikhonov(X, cf("gaussian", median_bandwidth(X)), 1e-2)
    for _ in range(20):
        x = rng.standard_normal(d)
        J = fd_jacobian(lambda q: est.predict(q[None, :]).ravel(), x, 1e-5)
        assert np.abs(J - J.T).max() <= 1e-4 * max(1.0, np.abs(J).max())
        g = fd_gradient(lambda q: recover_log_density(est, q), x, 1e-5)
        p = est.predict(x[None, :]).ravel()
        assert np.abs(g - p).max() <= 1e-4 * max(1.0, np.abs(p).max())
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.slow
def test_criterion_5_error_decreases_with_sample_size():
    t0 = time.perf_counter()
    # for the iterative scheme the hyperparameter grid is the canonical
    # lambda grid mapped through t = max(1, floor(lam**-0.5))
    cfg = parse_experiment_config({
        "schema_version": 1,
        "distribution": "gaussian",
        "dimensions": [1],
        "sample_sizes": [64, 256, 1024, 4096],
        "seeds": [0, 1, 2, 3, 4, 5, 6, 7],
        "eval_size": 1024,
        "estimators": [
            {"id": "tikhonov", "kind": "curl_free"},
            {"id": "nu_method", "kind": "curl_free",
             "iterations": [1, 3, 10, 31, 100, 316]},
        ],
    })
    rows = run_grid_rows(cfg)
    assert not [r for r in rows if r.reason]
    summary = summarize(rows)
    for name in ("tikhonov", "nu_method"):
        blocks = sorted((s for s in summary if s.estimator == name),
                        key=lambda s: s.M)
        meds = [s.median_error for s in blocks]
        assert len(meds) == 4 and np.all(np.isfinite(meds))
        assert all(a > b for a, b in zip(meds, meds[1:]))
    slopes = fit_convergence_slopes(summary)
    assert len(slopes) == 2
    for s in slopes:
        assert s.status == "ok"
        assert -0.7 <= s.slope <= -0.1
    assert time.perf_counter() - t0 < 300.0


@pytest.mark.slow
def test_criterion_6_curl_free_beats_diagonal_in_high_dimension():
    t0 = time.perf_counter()
    cfg = parse_experiment_config({
        "schema_version": 1,
        "distribution": "grid",
        "dimensions": [64, 128],
        "sample_sizes": [512],
        "seeds": [0, 1, 2, 3, 4, 5, 6, 7],
        "eval_size": 1024,
        "estimators": [
            {"id": "tikhonov", "kind": "curl_free"},
            {"id": "tikhonov_cg", "kind": "curl_free"},
            {"id": "nu_method", "kind": "curl_free"},
            {"id": "spectral_cutoff", "kind": "diagonal"},
            {"id": "truncated_tikhonov", "kind": "diagonal"},
        ],
    })
    rows = run_grid_rows(cfg)
    summary = summarize(rows)
    for d in (64, 128):
        curl = {s.estimator: s.median_error
                for s in summary if s.d == d and s.kind == "curl_free"}
        diag = {s.estimator: s.median_error
                for s in summary if s.d == d and s.kind == "diagonal"}
        assert set(curl) == {"tikhonov", "tikhonov_cg", "nu_method"}
        assert set(diag) == {"spectral_cutoff", "truncated_tikhonov"}
        assert np.all(np.isfinite(list(curl.values()) + list(diag.values())))
        assert max(curl.values()) < min(diag.values())
    assert time.perf_counter() - t0 < 1200.0


def test_criterion_7_experiment_reruns_are_byte_identical(tmp_path):
    config = {
        "schema_version": 1,
        "distribution": "grid",
        "dimensions": [3],
        "sample_sizes": [16, 32],
        "seeds": [0, 1],
        "eval_size": 128,
        "estimators": [
            {"id": "tikhonov", "kind": "curl_free", "lambdas": [0.1, 0.01]},
            {"id": "spectral_cutoff", "kind": "diagonal",
             "fractions": [0.5, 0.9]},
            {"id": "landweber", "kind": "diagonal", "iterations": [5, 15]},
            {"id": "nystrom", "kind": "curl_free", "lambdas": [0.01],
             "subset_fraction": 0.6},
        ],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_grid_experiment(cfg_path, a, threads=2)
    run_grid_experiment(cfg_path, b, threads=1)
    assert a.read_bytes() == b.read_bytes()
    assert ((tmp_path / "a.summary.csv").read_bytes()
            == (tmp_path / "b.summary.csv").read_bytes())
