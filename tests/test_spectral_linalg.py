import numpy as np
import pytest
import scipy.linalg

from scorekit import InputError, NumericError, MatrixKernelSpec, ScalarRadialKernel, assemble_gram
from scorekit import spectral_linalg
from scorekit.spectral_linalg import (
    SPD_RESIDUAL_TOL,
    CGReport,
    EigenSystem,
    LinearOperator,
    apply_spectral_filter,
    conjugate_gradient,
    numeric_rank_mask,
    power_iteration,
    shifted_cg,
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


@pytest.fixture
def factor_calls(monkeypatch):
    """Counts Cholesky factorizations made by solve_spd."""
    calls = []
    orig = scipy.linalg.cho_factor

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)
    monkeypatch.setattr(spectral_linalg.scipy.linalg, "cho_factor", counted)
    return calls


@pytest.mark.parametrize("shape", [(40,), (40, 3)])
def test_solve_spd_shift_equals_factoring_the_shifted_matrix(shape):
    A = random_gram(20, 2, seed=5)
    b = np.random.default_rng(6).standard_normal(shape)
    before = A.copy()
    x = solve_spd(A, b, shift=0.37)
    assert np.array_equal(A, before)  # the caller's matrix is not shifted
    assert np.array_equal(x, solve_spd(A + 0.37 * np.eye(40), b))
    assert np.linalg.norm(A @ x + 0.37 * x - b) <= SPD_RESIDUAL_TOL * np.linalg.norm(b)


def test_solve_spd_accepts_a_start_that_meets_the_contract(factor_calls):
    A = random_gram(20, 2, seed=7)
    b = np.random.default_rng(8).standard_normal(40)
    x = solve_spd(A, b, shift=0.5)
    assert len(factor_calls) == 1
    assert np.array_equal(solve_spd(A, b, shift=0.5, x0=x), x)
    assert len(factor_calls) == 1


@pytest.mark.parametrize("start", ["nan", "inf", "short"])
def test_solve_spd_factors_when_the_start_falls_short(factor_calls, start):
    A = random_gram(20, 2, seed=9)
    b = np.random.default_rng(10).standard_normal(40)
    ref = solve_spd(A, b, shift=0.5)
    x0 = ref * (1.0 + 1e-6)
    if start != "short":
        x0[3] = np.nan if start == "nan" else np.inf
    x = solve_spd(A, b, shift=0.5, x0=x0)
    assert len(factor_calls) == 2
    assert np.array_equal(x, ref)


def test_solve_spd_bad_start_or_shift():
    with pytest.raises(InputError):
        solve_spd(np.eye(3), np.ones(3), x0=np.ones(4))
    with pytest.raises(InputError):
        solve_spd(np.eye(3), np.ones(3), shift=np.nan)


def test_solve_spd_shortfall_reports_a_condition_estimate_without_svd(monkeypatch):
    # Cholesky succeeds on cond ~1e13, but b along the smallest eigenvector
    # leaves a residual far above 1e-10 that refinement cannot remove
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    A = (Q * np.geomspace(1.0, 1e-13, 60)) @ Q.T
    A = 0.5 * (A + A.T)

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_spd must not run an SVD for its message")
    for owner in (np.linalg, scipy.linalg):
        monkeypatch.setattr(owner, "svd", forbidden)
    monkeypatch.setattr(np.linalg, "cond", forbidden)
    with pytest.raises(NumericError, match=r"condition estimate \d\.\d+e\+\d+"):
        solve_spd(A, Q[:, -1] + 1e-3 * Q[:, 0])


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
# shifted (multi-shift) conjugate gradient
# ======================================================================

def random_spd(n, seed, floor=1e-3):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G @ G.T / n + floor * np.eye(n), rng.standard_normal(n)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shifted_cg_matches_per_shift_cg(seed):
    A, b = random_spd(80, seed)
    op = LinearOperator.from_matrix(A)
    shifts = [0.5, 0.0, 1e-2, 3.0, 1e-2, 40.0]
    X, reps = shifted_cg(op, b, shifts, tol=1e-10, max_iter=2000)
    assert X.shape == (len(shifts), 80)
    for s, x, rep in zip(shifts, X, reps):
        shifted = LinearOperator.from_matrix(A + s * np.eye(80))
        ref, ref_rep = conjugate_gradient(shifted, b, tol=1e-10, max_iter=2000)
        assert rep.converged and ref_rep.converged
        # larger shifts are better conditioned and freeze no later
        assert rep.iterations <= reps[1].iterations
        true_rel = np.linalg.norm((A + s * np.eye(80)) @ x - b) / np.linalg.norm(b)
        assert true_rel <= 1e-9
        assert np.linalg.norm(x - ref) <= 1e-7 * np.linalg.norm(ref)


def test_shifted_cg_unconverged_shift_is_reported():
    # the seed shift is hopeless in 5 iterations; the large shift is not
    rng = np.random.default_rng(3)
    A = np.diag(np.geomspace(1e-6, 1.0, 60))
    b = rng.standard_normal(60)
    X, reps = shifted_cg(LinearOperator.from_matrix(A), b, [1e-8, 1e4],
                         tol=1e-12, max_iter=5)
    assert not reps[0].converged and reps[0].iterations == 5
    assert reps[0].residual > 1e-12
    ref, ref_rep = conjugate_gradient(LinearOperator.from_matrix(A + 1e-8 * np.eye(60)),
                                      b, tol=1e-12, max_iter=5)
    assert not ref_rep.converged
    assert np.linalg.norm(X[0] - ref) <= 1e-8 * np.linalg.norm(ref)
    assert reps[1].converged and reps[1].iterations < 5
    assert np.linalg.norm((A + 1e4 * np.eye(60)) @ X[1] - b) <= 1e-11 * np.linalg.norm(b)


def test_shifted_cg_freezes_far_shifts_without_nan():
    # a shift of 1e12 converges at once; left running, its zeta underflows
    A, b = random_spd(50, 4)
    shifts = [1e-4, 1e12]
    X, reps = shifted_cg(LinearOperator.from_matrix(A), b, shifts, tol=1e-12,
                         max_iter=1000)
    assert np.all(np.isfinite(X))
    assert all(rep.converged for rep in reps)
    for s, x in zip(shifts, X):
        ref = np.linalg.solve(A + s * np.eye(50), b)
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


def test_shifted_cg_zero_rhs():
    X, reps = shifted_cg(LinearOperator.from_matrix(np.eye(3)), np.zeros(3), [0.0, 1.0])
    assert np.array_equal(X, np.zeros((2, 3)))
    assert reps == (CGReport(0, 0.0, True), CGReport(0, 0.0, True))


def test_shifted_cg_non_psd_operator_raises():
    op = LinearOperator.from_matrix(np.diag([1.0, -5.0]))
    with pytest.raises(NumericError, match="curvature"):
        shifted_cg(op, np.ones(2), [0.0, 1.0])
    nan_op = LinearOperator(2, lambda v: np.array([np.nan, 0.0]))
    with pytest.raises(NumericError):
        shifted_cg(nan_op, np.ones(2), [1.0])


@pytest.mark.parametrize("shifts, tol", [
    ([], 1e-8), ([[0.1, 1.0]], 1e-8), ([-1.0, 1.0], 1e-8), ([np.nan], 1e-8),
    ([np.inf], 1e-8), ([1.0], 0.0), ([1.0], -1e-3), ([1.0], np.nan),
])
def test_shifted_cg_bad_shifts_or_tol(shifts, tol):
    with pytest.raises(InputError):
        shifted_cg(LinearOperator.from_matrix(np.eye(2)), np.ones(2), shifts, tol=tol)


def test_shifted_cg_reorthogonalized_run_on_a_low_rank_gram():
    # a d=1 curl-free Gram is numerically low rank: plain CG in floating
    # point revisits its large eigendirections, the reorthogonalized run
    # needs about as many iterations as there are eigenvalues above the shift
    A = random_gram(400, 1, seed=12)
    op = LinearOperator.from_matrix(A)
    b = np.random.default_rng(13).standard_normal(400)
    shifts = 400 * np.geomspace(1.0, 1e-6, 4)
    plain, plain_reps = shifted_cg(op, b, shifts, tol=1e-10, max_iter=800)
    X, reps = shifted_cg(op, b, shifts, tol=1e-10, max_iter=800, reorthogonalize=True)
    assert all(rep.converged for rep in reps + plain_reps)
    assert reps[-1].iterations < plain_reps[-1].iterations / 2
    for s, x, y in zip(shifts, X, plain):
        true_rel = np.linalg.norm(A @ x + s * x - b) / np.linalg.norm(b)
        assert true_rel <= 2e-10
        assert np.linalg.norm(x - y) <= 1e-6 * np.linalg.norm(y)


def test_shifted_cg_reorthogonalized_run_exhausts_the_krylov_space():
    # n iterations span the whole space: the residual vanishes, no nan
    A, b = random_spd(12, 14)
    X, reps = shifted_cg(LinearOperator.from_matrix(A), b, [0.0, 1.0], tol=1e-300,
                         max_iter=40, reorthogonalize=True)
    assert np.all(np.isfinite(X))
    for s, x in zip([0.0, 1.0], X):
        assert np.allclose((A + s * np.eye(12)) @ x, b, rtol=0, atol=1e-10)


def test_shifted_cg_bad_rhs():
    op = LinearOperator.from_matrix(np.eye(2))
    with pytest.raises(InputError):
        shifted_cg(op, np.ones(3), [1.0])
    with pytest.raises(InputError):
        shifted_cg(op, np.array([1.0, np.nan]), [1.0])


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
