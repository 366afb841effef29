import numpy as np
import pytest

from scorekit import InputError, NumericError, MatrixKernelSpec, ScalarRadialKernel, assemble_gram
from scorekit.spectral_linalg import (
    CGReport,
    EigenSystem,
    LinearOperator,
    apply_spectral_filter,
    conjugate_gradient,
    numeric_rank_mask,
    power_iteration,
    solve_spd,
    sym_eig,
)


def random_gram(m, d, seed, kind="curl_free"):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, d))
    spec = MatrixKernelSpec(kind, ScalarRadialKernel("imq", 1.0))
    return assemble_gram(spec, X).matrix


# ======================================================================
# sym_eig
# ======================================================================

def test_sym_eig_wraps_solver_failure(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericError, match="did not converge"):
        sym_eig(np.eye(3))


def test_sym_eig_identity():
    eig = sym_eig(np.eye(3))
    assert np.allclose(eig.values, [1.0, 1.0, 1.0])


def test_sym_eig_diag():
    eig = sym_eig(np.diag([3.0, 1.0]))
    assert np.allclose(eig.values, [3.0, 1.0])
    assert np.allclose(np.abs(eig.vectors[:, 0]), [1.0, 0.0])


def test_sym_eig_descending_orthonormal_reconstruction():
    K = random_gram(8, 2, 5)
    eig = sym_eig(K)
    assert np.all(np.diff(eig.values) <= 0)
    G = eig.vectors.T @ eig.vectors
    assert np.abs(G - np.eye(K.shape[0])).max() <= 1e-10
    rec = (eig.vectors * eig.values) @ eig.vectors.T
    assert np.linalg.norm(rec - K) <= 1e-8 * np.linalg.norm(K)


def test_sym_eig_rejects_asymmetric():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(InputError):
        sym_eig(A)


def test_numeric_rank_mask():
    vals = np.array([2.0, 1.0, 2e-12 * 2.0, 1e-13 * 2.0, 0.0, -1e-14])
    mask = numeric_rank_mask(vals)
    assert mask.tolist() == [True, True, True, False, False, False]
    assert not numeric_rank_mask(np.zeros(3)).any()


# ======================================================================
# solve_spd
# ======================================================================

def test_solve_spd_identity():
    b = np.array([1.0, -2.0, 3.0])
    assert np.allclose(solve_spd(np.eye(3), b), b)


def test_solve_spd_scaled_identity():
    x = solve_spd(2.0 * np.eye(2), np.array([4.0, 6.0]))
    assert np.allclose(x, [2.0, 3.0])


def test_solve_spd_residual_on_random_spd():
    rng = np.random.default_rng(2)
    G = rng.standard_normal((32, 32))
    A = G @ G.T + 32 * np.eye(32)
    b = rng.standard_normal(32)
    x = solve_spd(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_spd_singular_raises():
    A = np.ones((3, 3))
    with pytest.raises(NumericError):
        solve_spd(A, np.array([1.0, 0.0, 0.0]))


def test_solve_spd_zero_rhs():
    assert np.array_equal(solve_spd(np.eye(2), np.zeros(2)), np.zeros(2))


# ======================================================================
# conjugate gradient
# ======================================================================

def test_cg_identity_one_iteration():
    op = LinearOperator.from_matrix(np.eye(4))
    b = np.arange(1.0, 5.0)
    x, rep = conjugate_gradient(op, b, tol=1e-12, max_iter=10)
    assert np.allclose(x, b)
    assert rep.converged and rep.iterations == 1


def test_cg_zero_rhs():
    op = LinearOperator.from_matrix(np.eye(4))
    x, rep = conjugate_gradient(op, np.zeros(4), tol=1e-10, max_iter=10)
    assert np.array_equal(x, np.zeros(4))
    assert rep.iterations == 0 and rep.converged


def test_cg_matches_direct_solve_on_shifted_gram():
    rng = np.random.default_rng(9)
    M, d, lam = 64, 1, 0.05
    K = random_gram(M, d, 10)
    A = K + M * lam * np.eye(M * d)
    b = rng.standard_normal(M * d)
    ref = solve_spd(A, b)
    x, rep = conjugate_gradient(LinearOperator.from_matrix(A), b, tol=1e-8, max_iter=2000)
    assert rep.converged
    assert np.linalg.norm(x - ref) <= 1e-6 * np.linalg.norm(ref)


def test_cg_large_spd_agrees_with_direct():
    rng = np.random.default_rng(12)
    n = 512
    G = rng.standard_normal((n, n // 4))
    A = G @ G.T + n * np.eye(n)
    b = rng.standard_normal(n)
    ref = solve_spd(A, b)
    x, rep = conjugate_gradient(LinearOperator.from_matrix(A), b, tol=1e-8, max_iter=5000)
    assert rep.converged
    assert np.linalg.norm(x - ref) <= 1e-6 * np.linalg.norm(ref)


def test_cg_nan_matvec_aborts():
    op = LinearOperator(2, lambda v: np.array([np.nan, 0.0]))
    with pytest.raises(NumericError):
        conjugate_gradient(op, np.ones(2), tol=1e-8, max_iter=5)


def test_cg_non_convergence_reported():
    rng = np.random.default_rng(15)
    G = rng.standard_normal((30, 30))
    A = G @ G.T + 1e-8 * np.eye(30)
    b = rng.standard_normal(30)
    x, rep = conjugate_gradient(LinearOperator.from_matrix(A), b, tol=1e-14, max_iter=2)
    assert not rep.converged
    assert rep.iterations == 2


def test_cg_warm_start():
    rng = np.random.default_rng(17)
    G = rng.standard_normal((20, 20))
    A = G @ G.T + 20 * np.eye(20)
    b = rng.standard_normal(20)
    ref = solve_spd(A, b)
    x, rep = conjugate_gradient(LinearOperator.from_matrix(A), b, tol=1e-10,
                                max_iter=200, x0=ref)
    assert rep.iterations <= 1
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


# ======================================================================
# spectral filter
# ======================================================================

def test_filter_identity_function_reproduces_matvec():
    K = random_gram(6, 2, 21)
    eig = sym_eig(K)
    v = np.random.default_rng(23).standard_normal(K.shape[0])
    out = apply_spectral_filter(eig, lambda s: s, v)
    assert np.linalg.norm(out - K @ v) <= 1e-8 * max(np.linalg.norm(K @ v), 1e-12)


def test_filter_constant_one_is_identity():
    K = random_gram(5, 1, 25)
    eig = sym_eig(K)
    v = np.random.default_rng(27).standard_normal(K.shape[0])
    assert np.allclose(apply_spectral_filter(eig, lambda s: np.ones_like(s), v), v)


def test_filter_inverse_on_diag():
    eig = sym_eig(np.diag([2.0, 4.0]))
    out = apply_spectral_filter(eig, lambda s: 1.0 / s, np.array([2.0, 4.0]))
    # eigenvalues are descending (4, 2); result is elementwise v / diag
    assert np.allclose(np.sort(out), [1.0, 1.0])


def test_filter_tikhonov_equals_shifted_solve():
    K = random_gram(10, 2, 29)
    lam = 0.3
    eig = sym_eig(K)
    v = np.random.default_rng(31).standard_normal(K.shape[0])
    filtered = apply_spectral_filter(eig, lambda s: 1.0 / (s + lam), v)
    direct = solve_spd(K + lam * np.eye(K.shape[0]), v)
    assert np.linalg.norm(filtered - direct) <= 1e-8 * np.linalg.norm(direct)


def test_filter_nonfinite_rejected():
    eig = sym_eig(np.diag([1.0, 0.0]))
    with np.errstate(divide="ignore"), pytest.raises(NumericError):
        apply_spectral_filter(eig, lambda s: 1.0 / s, np.ones(2))


def test_filter_scalar_function_fallback():
    eig = sym_eig(np.diag([4.0, 2.0]))
    out = apply_spectral_filter(eig, lambda s: 1.0 if s > 3 else 0.0, np.array([1.0, 1.0]))
    assert np.allclose(out, [1.0, 0.0])


# ======================================================================
# eigenfunction extension (sampling-operator eigenpair identity)
# ======================================================================

def test_gram_eigenpairs_extend_to_operator_eigenfunctions():
    # For (1/M) K u = sigma u with sigma > 0, the function
    # v = (M sigma)^(-1/2) sum_m K(., x^m) u^(m) satisfies the pointwise
    # identity (Lhat v)(x^k) = sigma v(x^k). In Gram-block arithmetic the
    # stacked values of v at the samples are K u / sqrt(M sigma), and Lhat
    # acts as K/M, so the check is pure matrix algebra on the Gram.
    rng = np.random.default_rng(33)
    for kind in ("diagonal", "curl_free"):
        m, d = 16, 3
        X = rng.standard_normal((m, d))
        spec = MatrixKernelSpec(kind, ScalarRadialKernel("gaussian", 1.2))
        K = assemble_gram(spec, X).matrix
        eig = sym_eig(K)
        sig = eig.values / m
        mask = numeric_rank_mask(sig)
        for j in np.flatnonzero(mask)[:8]:
            u = eig.vectors[:, j]
            v_at_samples = (K @ u) / np.sqrt(m * sig[j])
            lhs = (K @ v_at_samples) / m
            rhs = sig[j] * v_at_samples
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(np.linalg.norm(rhs), 1e-12)
            # unit RKHS norm: w^T K w with w = u / sqrt(M sigma)
            w = u / np.sqrt(m * sig[j])
            assert abs(w @ (K @ w) - 1.0) <= 1e-8


# ======================================================================
# power iteration
# ======================================================================

def test_power_iteration_matches_eigh():
    K = random_gram(12, 2, 41)
    est = power_iteration(LinearOperator.from_matrix(K), iters=200, rel_tol=1e-10)
    true = np.linalg.eigvalsh(K).max()
    assert abs(est - true) <= 1e-3 * true


def test_power_iteration_zero_operator():
    op = LinearOperator(3, lambda v: np.zeros(3))
    assert power_iteration(op) == 0.0
