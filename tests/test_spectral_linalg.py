import numpy as np
import pytest
import scipy.linalg

from scorekit import InputError, NumericError, MatrixKernelSpec, ScalarRadialKernel, assemble_gram
from scorekit.kernels import DenseGram, ImplicitGram
from scorekit import estimators, spectral_linalg
from scorekit.spectral_linalg import (
    SPD_RESIDUAL_TOL,
    EigenSystem,
    KrylovBasis,
    TridiagonalEigen,
    check_symmetric,
    conjugate_gradient,
    lanczos,
    numeric_rank_mask,
    power_iteration,
    solve_spd,
    sym_eig,
    _shift_targets,
)

from helpers import (
    LinearOperator,
    all_rules,
    apply_spectral_filter,
    galerkin_replay,
    shift_targets_per_entry,
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


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sym_eig_refuses_non_finite_input(reduced, bad):
    with pytest.raises(InputError, match="non-finite"):
        sym_eig(np.array([[bad, 0.0], [0.0, 1.0]]), _reduced=reduced)
    # past the first 512 x 512 tile, off the diagonal
    K = random_gram(1100, 1, 3)
    K[1050, 3] = bad
    with pytest.raises(InputError, match="non-finite"):
        sym_eig(K, _reduced=reduced)


def test_symmetry_check_reads_every_tile_against_its_mirror():
    K = random_gram(1100, 1, 4)
    check_symmetric(K, 0.0, "K")
    for i, j in ((700, 10), (10, 700), (1099, 1098), (600, 520)):
        A = K.copy()
        A[i, j] += 1e-9 * np.abs(K).max()
        check_symmetric(A, 1e-8, "A")
        with pytest.raises(InputError, match="symmetric to 1e-10"):
            sym_eig(A)
        with pytest.raises(InputError, match="exactly symmetric"):
            check_symmetric(A, 0.0, "A")


def _sym_matrix(n):
    return np.zeros((0, 0)) if n == 0 else random_gram(n, 1, n)


def _amax(A):
    return float(np.abs(A).max(initial=0.0))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 300])
def test_reduced_eigensystem_matches_eigh(n):
    K = _sym_matrix(n)
    red, ref = sym_eig(K, _reduced=True), sym_eig(K)
    assert isinstance(red, TridiagonalEigen) and len(red.values) == n
    top = max(1.0, _amax(ref.values))
    assert np.all(np.diff(red.values) <= 0)
    assert _amax(red.values - ref.values) <= 1e-14 * top
    rng = np.random.default_rng(n)
    H, Y = rng.standard_normal((n, 3)), rng.standard_normal((n, 2))
    # lift undoes coords
    assert _amax(red.lift(red.coords(H)) - H) <= 1e-12 * _amax(H)
    # against the explicit form: the eigenvectors lift(I) are an orthonormal
    # eigenbasis of K, and coords / lift are its products
    U = red.lift(np.eye(n))
    assert _amax(U.T @ U - np.eye(n)) <= 1e-12
    assert _amax(K @ U - U * red.values) <= 1e-12 * top
    explicit = EigenSystem(red.values, U)
    assert _amax(red.coords(H) - explicit.coords(H)) <= 1e-12 * _amax(H)
    assert _amax(red.lift(Y) - explicit.lift(Y)) <= 1e-12 * _amax(Y)
    # a smooth filter has no sign or rotation freedom: it equals eigh's
    w = (red.values / (red.values + 0.1))[:, None]
    assert _amax(red.lift(w * red.coords(H)) - ref.lift(w * ref.coords(H))) <= 1e-12 * _amax(H)


def test_reduced_eigensystem_leaves_its_input_alone():
    K = random_gram(40, 2, 9)
    before = K.copy()
    sym_eig(K, _reduced=True)
    assert np.array_equal(K, before)


@pytest.mark.parametrize("routine", ["dsytrd", "dstevd"])
def test_reduced_sym_eig_wraps_lapack_failure(monkeypatch, routine):
    real = getattr(spectral_linalg.lapack, routine)

    def fail(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        return (*out, 3)
    monkeypatch.setattr(spectral_linalg.lapack, routine, fail)
    with pytest.raises(NumericError, match=f"{routine} failed \\(info=3\\)"):
        sym_eig(random_gram(10, 1, 2), _reduced=True)


@pytest.mark.parametrize("routine", ["dsytrd", "dstevd"])
def test_a_failed_reduction_leaves_the_gram_whole(monkeypatch, routine):
    # the in-place reduction reads the upper triangle it overwrites, so a
    # failure puts it back and a later eigensystem() reads the Gram again
    gram = assemble_gram(MatrixKernelSpec("curl_free", ScalarRadialKernel("imq", 1.0)),
                         np.random.default_rng(2).standard_normal((300, 2)))
    before = gram.matrix.copy()
    real = getattr(spectral_linalg.lapack, routine)
    monkeypatch.setattr(spectral_linalg.lapack, routine,
                        lambda *a, **kw: (*real(*a, **kw)[:-1], 3))
    with pytest.raises(NumericError, match=f"{routine} failed"):
        gram.eigensystem()
    assert np.array_equal(gram.matrix, before)
    monkeypatch.undo()
    assert np.array_equal(gram.eigensystem().values, sym_eig(before, _reduced=True).values)


def _gram_of_size(n):
    """An assemble_gram curl-free Gram with n rows: M = n samples at d = 1."""
    X = np.random.default_rng(n).standard_normal((n, 1))
    return assemble_gram(MatrixKernelSpec("curl_free", ScalarRadialKernel("imq", 1.0)), X)


# no Gram has zero rows, so n = 0 is sym_eig's alone
@pytest.mark.parametrize("via, n", [("sym_eig", 0), ("sym_eig", 1), ("sym_eig", 2),
                                    ("eigensystem", 1), ("eigensystem", 2)])
def test_reduced_eigensystem_of_the_smallest_sizes(monkeypatch, via, n):
    # n <= 1 calls no LAPACK: scipy's dstevd refuses an empty e
    gram = _gram_of_size(n) if via == "eigensystem" else None
    K = gram.matrix.copy() if gram is not None else _sym_matrix(n)
    if n <= 1:
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called for n <= 1")
        for routine in ("dsytrd", "dstevd", "dormqr"):
            monkeypatch.setattr(spectral_linalg.lapack, routine, refuse)
    eig = gram.eigensystem() if gram is not None else sym_eig(K, _reduced=True)
    assert isinstance(eig, TridiagonalEigen) and len(eig.values) == n
    assert _amax(eig.values - np.linalg.eigvalsh(K)[::-1]) <= 1e-15 * max(1.0, _amax(K))
    H = np.arange(1.0, 2 * n + 1).reshape(n, 2)
    assert _amax(eig.lift(eig.coords(H)) - H) <= 1e-15 * max(1.0, _amax(H))
    U = eig.lift(np.eye(n))
    assert _amax(K @ U - U * eig.values) <= 1e-14 * max(1.0, _amax(K))
    if gram is not None:
        lower = np.tril_indices(n)
        assert np.array_equal(gram.matrix[lower], K[lower])


def test_eigensystem_reduces_the_gram_in_its_own_buffer():
    gram = _gram_of_size(300)
    before = gram.matrix.copy()
    eig = gram.eigensystem()
    # bit for bit the reduction of a private copy, which sym_eig makes
    ref = sym_eig(before, _reduced=True)
    assert np.array_equal(eig.values, ref.values)
    # the Gram stays whole in its lower triangle and diagonal; the
    # reflectors the value reads lie above, in the same buffer
    lower = np.tril_indices(300)
    assert np.array_equal(gram.matrix[lower], before[lower])
    assert not np.array_equal(gram.matrix, before)
    assert np.shares_memory(eig._reflectors, gram.matrix)
    H = np.random.default_rng(3).standard_normal((300, 2))
    assert np.array_equal(eig.coords(H), ref.coords(H))
    assert np.array_equal(eig.lift(H), ref.lift(H))


@pytest.mark.parametrize("order", ["C", "F", "strided"])
def test_sym_eig_never_writes_a_callers_array(order):
    K = random_gram(30, 2, 11)
    A = {"C": K.copy(), "F": np.asfortranarray(K),
         "strided": np.repeat(K, 2, axis=1)[:, ::2]}[order]
    before = A.copy()
    for reduced in (False, True):
        eig = sym_eig(A, _reduced=reduced)
        assert np.array_equal(A, before)
        assert np.array_equal(eig.values, sym_eig(K, _reduced=reduced).values)
    # nor a hand-built Gram's: DenseGram keeps a copy of it
    X = np.random.default_rng(11).standard_normal((30, 2))
    DenseGram(MatrixKernelSpec("curl_free", ScalarRadialKernel("imq", 1.0)), X, A).eigensystem()
    assert np.array_equal(A, before)


def test_reduced_lift_wraps_lapack_failure(monkeypatch):
    eig = sym_eig(random_gram(10, 1, 2), _reduced=True)
    real = spectral_linalg.lapack.dormqr
    monkeypatch.setattr(spectral_linalg.lapack, "dormqr",
                        lambda *a, **kw: (*real(*a, **kw)[:2], -5))
    with pytest.raises(NumericError, match="dormqr failed"):
        eig.lift(np.ones((10, 1)))


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


@pytest.mark.parametrize("shape", [(40,), (40, 1), (40, 3)])
@pytest.mark.parametrize("start", [False, True])
def test_solve_spd_reads_only_the_lower_triangle(shape, start):
    # a Gram that eigensystem() reduced holds its reflectors above the diagonal
    A = random_gram(20, 2, seed=12)
    b = np.random.default_rng(13).standard_normal(shape)
    x0 = solve_spd(A, b, shift=0.3) if start else None
    ref = solve_spd(A, b, shift=0.3, x0=x0)
    junk = A.copy()
    junk[np.triu_indices(40, 1)] = np.nan
    assert np.array_equal(solve_spd(junk, b, shift=0.3, x0=x0), ref)


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


def test_cg_restarts_where_the_recurrence_drifted():
    # the first n products are of A + E, so the recurrence meets tol for
    # that matrix at step n; the true residual, a product of A, misses it
    rng = np.random.default_rng(18)
    G = rng.standard_normal((20, 20))
    A = G @ G.T + 20 * np.eye(20)
    E = 1e-3 * np.linalg.norm(A) * np.diag(rng.uniform(size=20))
    b, tol = rng.standard_normal(20), 1e-10
    _, drifted = conjugate_gradient(LinearOperator.from_matrix(A + E), b, tol=tol)
    n, calls = drifted.iterations, []

    def matvec(v):
        calls.append(len(calls))
        return (A + E) @ v if len(calls) <= n else A @ v

    x, rep = conjugate_gradient(LinearOperator(20, matvec), b, tol=tol, max_iter=200)
    assert rep.iterations > n and len(calls) > n + 2  # restarted after step n
    true = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert rep.residual == pytest.approx(true, rel=1e-6)
    assert rep.converged and true <= tol


@pytest.mark.parametrize("start", [False, True], ids=["cold", "x0"])
@pytest.mark.parametrize("k", [-600, -1, 1, 600])
@pytest.mark.parametrize("form", ["matrix", "implicit"])
def test_cg_of_b_times_a_power_of_two_keeps_its_bits(form, k, start):
    # CG runs on b scaled to a norm in [0.5, 1), so b 2^k gives x 2^k and the
    # same report bit for bit, also where ||b 2^k||^2 leaves the double range
    rng = np.random.default_rng(19)
    if form == "matrix":
        G = rng.standard_normal((20, 20))
        op = LinearOperator.from_matrix(G @ G.T + 20 * np.eye(20))
    else:
        spec = MatrixKernelSpec("curl_free", ScalarRadialKernel("imq", 1.0))
        gram = ImplicitGram(spec, rng.standard_normal((10, 2)))
        op = LinearOperator(20, lambda v: gram.matvec(v) + 0.1 * v)
    b, x0 = rng.standard_normal(20), rng.standard_normal(20) if start else None
    for tol in (1e-4, 1e-10):
        x, rep = conjugate_gradient(op, b, tol=tol, max_iter=200, x0=x0)
        xk, repk = conjugate_gradient(op, np.ldexp(b, k), tol=tol, max_iter=200,
                                      x0=None if x0 is None else np.ldexp(x0, k))
        assert repk == rep and np.ldexp(xk, -k).tobytes() == x.tobytes()


# ======================================================================
# Lanczos
# ======================================================================

def random_spd(n, seed, floor=1e-3):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G @ G.T / n + floor * np.eye(n), rng.standard_normal(n)


def lanczos_solve(V, T, b_norm, shift):
    """||b|| V^T (T + shift I)^{-1} e_1: the Lanczos solution of (A + shift I) x = b."""
    k = T.shape[0]
    return b_norm * (np.linalg.solve(T + shift * np.eye(k), np.eye(1, k)[0]) @ V)


def tridiagonal(alpha, beta):
    return np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)


def nu_filter(sig, t, nu, M):
    """The nu-method iterate c_t = g(K) h as a function g of the eigenvalue."""
    _, w1 = estimators.nu_coefficients(1, nu)
    a_prev, a_cur = 0.0, -w1
    g_prev, g_cur = np.zeros_like(sig), np.zeros_like(sig)
    for tau in range(2, t + 1):
        u, w = estimators.nu_coefficients(tau, nu)
        g_next = (1.0 + u) * g_cur - (w / M) * (a_cur + sig * g_cur) - u * g_prev
        a_prev, a_cur = a_cur, (1.0 + u) * a_cur - u * a_prev - w
        g_prev, g_cur = g_cur, g_next
    return g_cur


def test_lanczos_solves_shifted_systems_on_a_low_rank_gram():
    # a d=1 curl-free Gram is numerically low rank: plain CG in floating
    # point revisits its large eigendirections, while the reorthogonalized
    # basis needs about as many vectors as there are eigenvalues above the
    # shift
    A = random_gram(400, 1, seed=12)
    op = LinearOperator.from_matrix(A)
    b = np.random.default_rng(13).standard_normal(400)
    shifts = 400 * np.geomspace(1.0, 1e-6, 4)
    plain, plain_reps = zip(*(
        conjugate_gradient(LinearOperator.from_matrix(A + s * np.eye(400)), b, tol=1e-10,
                           max_iter=800) for s in shifts))

    def solved(alpha, beta):
        T, k = tridiagonal(alpha, beta[:-1]), len(alpha)
        return all(beta[-1] * abs(np.linalg.solve(T + s * np.eye(k), np.eye(1, k)[0])[-1])
                   <= 1e-10 for s in shifts)
    basis = lanczos(op, b, 800, 1e-14 * np.linalg.norm(A, 1), stop=solved)
    V, T = basis.V, basis.T
    assert all(rep.converged for rep in plain_reps)
    assert len(V) <= plain_reps[-1].iterations / 2
    assert np.abs(V @ V.T - np.eye(len(V))).max() <= 1e-12
    for s, y in zip(shifts, plain):
        x = lanczos_solve(V, T, np.linalg.norm(b), s)
        true_rel = np.linalg.norm(A @ x + s * x - b) / np.linalg.norm(b)
        assert true_rel <= 2e-10
        assert np.linalg.norm(x - y) <= 1e-6 * np.linalg.norm(y)


def test_lanczos_exhausts_the_krylov_space():
    # n steps span the whole space: the decomposition is exact, no nan
    A, b = random_spd(12, 14)
    basis = lanczos(LinearOperator.from_matrix(A), b, 40, 1e-300)
    V, T, beta = basis.V, basis.T, basis.beta
    assert V.shape == (12, 12) and T.shape == (12, 12)
    assert np.all(np.isfinite(V)) and np.isfinite(beta)
    assert np.abs(V @ V.T - np.eye(12)).max() <= 1e-12
    for s in (0.0, 1.0):
        x = lanczos_solve(V, T, np.linalg.norm(b), s)
        assert np.allclose((A + s * np.eye(12)) @ x, b, rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lanczos_matrix_functions_match_the_eigensystem(seed):
    A, b = random_spd(40, seed)
    eig = sym_eig(A)
    nb = np.linalg.norm(b)
    op = LinearOperator.from_matrix(A)
    # the resolvent needs the whole (invariant) space
    basis = lanczos(op, b, 40, 1e-300)
    V, T = basis.V, basis.T
    for s in (1e-3, 0.5, 10.0):
        ref = apply_spectral_filter(eig, lambda sig: 1.0 / (sig + s), b)
        out = nb * (apply_spectral_filter(sym_eig(T), lambda sig: 1.0 / (sig + s),
                                          np.eye(1, len(T))[0]) @ V)
        assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)
    # the nu-method iterate c_t is a polynomial of degree t - 2 in A: t - 1
    # vectors suffice although the space is far from invariant
    t, nu, M = 12, 1.5, 40
    basis = lanczos(op, b, t - 1, 1e-300)
    V, T, beta = basis.V, basis.T, basis.beta
    assert len(V) == t - 1 and beta > 1e-3
    ref = apply_spectral_filter(eig, lambda sig: nu_filter(sig, t, nu, M), b)
    out = nb * (apply_spectral_filter(sym_eig(T), lambda sig: nu_filter(sig, t, nu, M),
                                      np.eye(1, len(T))[0]) @ V)
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("rank", [1, 3, 7])
def test_lanczos_stops_on_a_low_rank_matrix(rank):
    # well separated eigenvalues: a near-breakdown (a tiny beta before the
    # last step) would leave rounding above the tolerance
    rng = np.random.default_rng(rank)
    Q, _ = np.linalg.qr(rng.standard_normal((60, rank)))
    A = (Q * np.geomspace(1.0, 100.0, rank)) @ Q.T
    b = rng.standard_normal(60)
    basis = lanczos(LinearOperator.from_matrix(A), b, 60, 1e-12 * np.linalg.norm(A, 1))
    V, T, beta = basis.V, basis.T, basis.beta
    # K_k(A, b) = span(b) + range(A) once k = rank + 1
    assert len(V) <= rank + 1
    assert beta <= 1e-12 * np.linalg.norm(A, 1)
    assert np.abs(V @ V.T - np.eye(len(V))).max() <= 1e-12
    assert np.allclose(V @ A @ V.T, T, rtol=0, atol=1e-10 * np.linalg.norm(A, 1))


def test_lanczos_zero_rhs():
    calls = []
    op = LinearOperator(3, lambda v: calls.append(v) or v)
    basis = lanczos(op, np.zeros(3), 3, 1e-12)
    V, T, beta = basis.V, basis.T, basis.beta
    assert V.shape == (0, 3) and T.shape == (0, 0) and beta == 0.0
    assert not calls


def test_lanczos_non_finite_operator_output_raises():
    nan_op = LinearOperator(2, lambda v: np.array([np.nan, 0.0]))
    with pytest.raises(NumericError, match="Lanczos"):
        lanczos(nan_op, np.ones(2), 2, 1e-12)


@pytest.mark.parametrize("max_dim, tol", [
    (0, 1e-12), (-1, 1e-12), (1.5, 1e-12), (True, 1e-12), (None, 1e-12),
    (2, 0.0), (2, -1e-3), (2, np.nan), (2, np.inf),
])
def test_lanczos_bad_max_dim_or_tol(max_dim, tol):
    with pytest.raises(InputError):
        lanczos(LinearOperator.from_matrix(np.eye(2)), np.ones(2), max_dim, tol)


def test_lanczos_bad_rhs():
    op = LinearOperator.from_matrix(np.eye(2))
    with pytest.raises(InputError):
        lanczos(op, np.ones(3), 2, 1e-12)
    with pytest.raises(InputError):
        lanczos(op, np.array([1.0, np.nan]), 2, 1e-12)


def count_passes(monkeypatch):
    """The sizes of the kept sets each Gram-Schmidt pass of lanczos reads."""
    passes, orig = [], spectral_linalg._project_out

    def counted(V, w):
        passes.append(len(V))
        return orig(V, w)
    monkeypatch.setattr(spectral_linalg, "_project_out", counted)
    return passes


@pytest.mark.parametrize("cut", ["max_dim", "stop"])
@pytest.mark.parametrize("k", [1, 7, 30])
def test_a_short_lanczos_run_is_the_prefix_of_a_longer_one(k, cut):
    # the sweep's readers each take the leading part of one shared basis
    A = random_gram(40, 2, seed=3)
    b = np.random.default_rng(5).standard_normal(80)
    op = LinearOperator.from_matrix(A)
    full = lanczos(op, b, 60, 1e-300)
    V, T = full.V, full.T
    if cut == "max_dim":
        short = lanczos(op, b, k, 1e-300)
    else:
        short = lanczos(op, b, 60, 1e-300, stop=lambda alpha, _: len(alpha) == k)
    Vk, Tk, beta = short.V, short.T, short.beta
    assert len(V) == 60 and len(Vk) == k
    assert np.array_equal(Vk, V[:k]) and np.array_equal(Tk, T[:k, :k])
    assert beta == T[k - 1, k]


def test_lanczos_stays_orthogonal_over_a_geometric_spectrum(monkeypatch):
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.standard_normal((300, 300)))
    A = (Q * np.geomspace(1.0, 1e-12, 300)) @ Q.T
    passes = count_passes(monkeypatch)
    V = lanczos(LinearOperator.from_matrix(A), rng.standard_normal(300), 200, 1e-300).V
    assert len(V) == 200
    assert np.abs(V @ V.T - np.eye(200)).max() <= 1e-13
    # one pass per step: the recurrence left most of each new vector
    assert passes == list(range(1, 201))


@pytest.mark.parametrize("rank", [1, 5])
def test_lanczos_makes_a_second_pass_where_the_first_cancels(monkeypatch, rank):
    # past the invariant space K_{rank+1}(A, b) each new vector is rounding
    # that lies mostly in the kept span; one pass leaves under 1/sqrt(2) of
    # its norm, so the DGKS test asks for a second
    rng = np.random.default_rng(rank)
    Q, _ = np.linalg.qr(rng.standard_normal((60, rank)))
    A = (Q * np.geomspace(1.0, 100.0, rank)) @ Q.T
    passes = count_passes(monkeypatch)
    basis = lanczos(LinearOperator.from_matrix(A), rng.standard_normal(60), 20, 1e-300)
    V, T = basis.V, basis.T
    assert len(V) == 20
    steps = [n for i, n in enumerate(passes) if i == 0 or passes[i - 1] != n]
    assert steps == list(range(1, 21)) and len(passes) > len(steps)
    assert np.abs(V @ V.T - np.eye(20)).max() <= 1e-13
    assert np.allclose(V[:rank + 1] @ A @ V[:rank + 1].T, T[:rank + 1, :rank + 1],
                       rtol=0, atol=1e-12 * np.linalg.norm(A, 1))


def low_rank_gram_and_rhs(seed=3):
    A = random_gram(40, 2, seed=seed)
    return LinearOperator.from_matrix(A), np.random.default_rng(5).standard_normal(80)


TIK_SHIFTS = 80 * np.geomspace(1.0, 1e-3, 4)
CG_SHIFTS = 80 * np.geomspace(1.0, 1e-4, 5)


@pytest.mark.parametrize("t_max, cg_tol, max_iter, stop_at", [
    (1, 1e-2, 40, 61), (71, 1e-2, 40, 70), (1, 1e-14, 66, 66), (1, 1e-8, 200, 75)],
    ids=["tikhonov-targets", "nu-method-t_max", "cg-max_iter", "cg-tol"])
def test_one_stop_rule_stops_where_every_entry_rule_holds(t_max, cg_tol, max_iter, stop_at):
    # a tikhonov grid (start target 1e-12, no cap), a tikhonov_cg grid (its
    # tol and max_iter) and a nu-method t_max: the one rule with a target
    # and a cap per shift holds where the AND of the entry rules does; each
    # case is stopped by the rule it is named after
    op, b = low_rank_gram_and_rhs()
    basis = lanczos(op, b, 80, 1e-300)
    alpha, beta = np.diag(basis.T), np.append(np.diag(basis.T, 1), basis.beta)
    tik, _ = shift_targets_per_entry(TIK_SHIFTS, t_max - 1, 1e-12)
    cg, _ = shift_targets_per_entry(CG_SHIFTS, 1, cg_tol, max_iter)
    reference = all_rules([cg, tik])
    one = _shift_targets(np.r_[TIK_SHIFTS, CG_SHIFTS], [1e-12] * 4 + [cg_tol] * 5,
                         t_max - 1, [np.inf] * 4 + [max_iter] * 5)
    steps = range(1, len(basis.V) + 1)
    expected = [reference(alpha[:k], beta[:k]) for k in steps]
    assert [one(alpha[:k], beta[:k]) for k in steps] == expected
    assert expected.index(True) + 1 == stop_at


@pytest.mark.parametrize("max_dim", [None, 6, 200])
def test_galerkin_replays_the_build_rule_and_solves_at_its_step(max_dim):
    op, b = low_rank_gram_and_rhs()
    basis = lanczos(op, b, 60, 1e-300)
    V, T = basis.V, basis.T
    alpha, beta = np.diag(T), np.append(np.diag(T, 1), basis.beta)
    n = len(V) if max_dim is None else min(max_dim, len(V))
    for shift in np.r_[TIK_SHIFTS, CG_SHIFTS]:
        for target in (1e-4, 1e-12):
            met, y = basis.galerkin(shift, target, 2.5, max_dim)
            rule, dims = shift_targets_per_entry(np.array([shift]), 1, target)
            for k in range(1, n + 1):
                if rule(alpha[:k], beta[:k]):
                    break
            assert met == dims[0]
            k = met or n
            z = np.linalg.solve(T[:k, :k] + shift * np.eye(k), np.eye(1, k)[0])
            assert np.array_equal(y, 2.5 * (z @ V[:k]))
            if met:  # a basis built with that rule ends at that step
                stop = _shift_targets([shift], [target], 1, [np.inf])
                assert len(lanczos(op, b, 60, 1e-300, stop=stop).V) == met


@pytest.mark.parametrize("source", ["low-rank", "d1-curl-free-gram"])
def test_galerkin_scalar_steps_equal_the_replayed_stop_rule(source):
    # met and y bit for bit as a per-step replay of the build's vectorized
    # stop rule gives them, over shifts and targets that meet early, late
    # and never, on a small Gram and on a sweep-like d = 1 Gram from h
    if source == "low-rank":
        op, b = low_rank_gram_and_rhs()
        basis = lanczos(op, b, 60, 1e-300)
    else:
        X = np.random.default_rng(11).standard_normal((300, 1))
        gram = assemble_gram(MatrixKernelSpec("curl_free", ScalarRadialKernel("gaussian", 0.5)), X)
        basis = lanczos(gram, gram.divergence(), 120, 1e-300)
    shifts = np.r_[TIK_SHIFTS, CG_SHIFTS, 300 * np.geomspace(1.0, 1e-8, 9), 0.0]
    for shift in shifts:
        for target in (1e-2, 1e-6, 1e-10, 1e-12, 1e-16):
            for max_dim in (None, 1, 7):
                met, y = basis.galerkin(shift, target, 1.5, max_dim)
                ref_met, ref_y = galerkin_replay(basis, shift, target, 1.5, max_dim)
                assert met == ref_met
                assert np.array_equal(y, ref_y)


def test_galerkin_reports_a_singular_system():
    op, b = low_rank_gram_and_rhs()
    basis = lanczos(op, b, 1, 1e-300)
    with np.errstate(divide="ignore"):  # the zero pivot of T_1 - alpha_1 I
        met, y = basis.galerkin(-basis.T[0, 0], 1e-4, 1.0)
        assert (met, y) == galerkin_replay(basis, -basis.T[0, 0], 1e-4, 1.0)
    assert met == 0 and y is None


def test_a_basis_spans_what_it_holds_or_everything_once_invariant():
    A, b = random_spd(12, 14)
    op = LinearOperator.from_matrix(A)
    short = lanczos(op, b, 5, 1e-300)
    assert isinstance(short, KrylovBasis) and not short.invariant
    assert short.spans(5) and not short.spans(6)
    assert short.norm_b == float(np.linalg.norm(b))
    full = lanczos(op, b, 40, 1e-300)
    assert len(full.V) == 12 and full.spans(12) and full.spans(100)
    rank = 3
    rng = np.random.default_rng(rank)
    Q, _ = np.linalg.qr(rng.standard_normal((60, rank)))
    low = lanczos(LinearOperator.from_matrix((Q * np.geomspace(1.0, 100.0, rank)) @ Q.T),
                  rng.standard_normal(60), 60, 1e-12 * 100)
    assert low.invariant and len(low.V) <= rank + 1 and low.spans(59)


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
