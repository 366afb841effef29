"""Numeric backbone: symmetric eigendecompositions, SPD solves, matrix-free
conjugate gradient, power iteration, and spectral-filter application.

All routines are deterministic: the only randomness (the power-iteration
start vector) uses a fixed internal seed.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InputError, NumericError

# Eigenvalues below EPS_RANK_REL * sigma_max count as zero wherever a scheme
# filters on "nonzero" spectrum. The exact cutoff is a pinned policy choice;
# the underlying math only distinguishes zero from nonzero. It sits well
# above eigh's ~1e-15 * sigma_max noise floor but low enough that dropped
# directions (whose data components shrink linearly with the eigenvalue)
# stay irrelevant even after 1/lam amplification.
EPS_RANK_REL = 1e-12


class EigenSystem:
    """Full spectrum of a symmetric matrix, eigenvalues descending."""

    __slots__ = ("values", "vectors")

    def __init__(self, values: np.ndarray, vectors: np.ndarray):
        self.values = values
        self.vectors = vectors

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def numeric_rank_mask(values: np.ndarray, rel: float = EPS_RANK_REL) -> np.ndarray:
    """Boolean mask of eigenvalues treated as numerically nonzero."""
    vmax = float(np.max(values, initial=0.0))
    if vmax <= 0.0:
        return np.zeros(values.shape, dtype=bool)
    return values > rel * vmax


def sym_eig(K: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a symmetric matrix, descending order.

    Symmetry is checked to 1e-10 (relative to the largest entry); ties in
    the ordering keep the deterministic order produced by the solver. A
    failed decomposition raises NumericError.
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise InputError(f"sym_eig expects a square matrix, got shape {K.shape}")
    scale = max(1.0, float(np.abs(K).max(initial=0.0)))
    if float(np.abs(K - K.T).max(initial=0.0)) > 1e-10 * scale:
        raise InputError("sym_eig input is not symmetric to 1e-10")
    try:
        w, V = np.linalg.eigh(K)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    return EigenSystem(w[::-1].copy(), V[:, ::-1].copy())


def solve_spd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A via Cholesky.

    b may be a vector or an (n, k) block of right-hand sides. The result is
    refined to a relative residual of 1e-10; failure to reach that (or a
    failed factorization) raises NumericError with a condition estimate.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"solve_spd expects a square matrix, got shape {A.shape}")
    if b.ndim not in (1, 2) or b.shape[0] != A.shape[0]:
        raise InputError("right-hand side length does not match matrix")
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return np.zeros_like(b)
    try:
        cf = scipy.linalg.cho_factor(A, check_finite=True)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericError(f"Cholesky factorization failed: {exc}") from exc
    x = scipy.linalg.cho_solve(cf, b, check_finite=False)
    for _ in range(2):
        r = b - A @ x
        rel = float(np.linalg.norm(r)) / nb
        if rel <= 1e-10:
            return x
        x = x + scipy.linalg.cho_solve(cf, r, check_finite=False)
    r = b - A @ x
    rel = float(np.linalg.norm(r)) / nb
    if rel <= 1e-10:
        return x
    cond = float(np.linalg.cond(A))
    raise NumericError(
        f"solve_spd could not reach residual 1e-10 (got {rel:.3e}); "
        f"condition estimate {cond:.3e}")


class LinearOperator:
    """Abstract symmetric PSD operator exposing dim and matvec."""

    __slots__ = ("dim", "_fn")

    def __init__(self, dim: int, matvec):
        self.dim = int(dim)
        self._fn = matvec

    def matvec(self, b: np.ndarray) -> np.ndarray:
        out = np.asarray(self._fn(b), dtype=np.float64)
        if out.shape != (self.dim,):
            raise NumericError(f"operator returned shape {out.shape}, expected ({self.dim},)")
        return out

    @staticmethod
    def from_matrix(A: np.ndarray) -> "LinearOperator":
        A = np.asarray(A, dtype=np.float64)
        return LinearOperator(A.shape[0], lambda v: A @ v)


@dataclass(frozen=True)
class CGReport:
    iterations: int
    residual: float  # final relative residual ||Ax - b|| / ||b||
    converged: bool


def conjugate_gradient(op, b: np.ndarray, tol: float = 1e-8,
                       max_iter: int = None, x0: np.ndarray = None):
    """Conjugate gradient for symmetric PSD op, stopping at ||r|| <= tol ||b||.

    Accepts any object with .dim and .matvec (LinearOperator, Gram objects).
    On hitting the recurrence tolerance the true residual is recomputed; the
    iteration continues if the recurrence had drifted. Returns (x, CGReport).
    """
    if tol <= 0.0:
        raise InputError("tol must be positive")
    b = np.asarray(b, dtype=np.float64).ravel()
    if b.shape[0] != op.dim:
        raise InputError(f"vector length {b.shape[0]} != operator dimension {op.dim}")
    if not np.all(np.isfinite(b)):
        raise InputError("right-hand side contains non-finite entries")
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return np.zeros_like(b), CGReport(0, 0.0, True)
    if max_iter is None:
        max_iter = 10 * op.dim

    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.asarray(x0, dtype=np.float64).ravel().copy()
        r = b - op.matvec(x)
    p = r.copy()
    rs = float(r @ r)
    rel = np.sqrt(rs) / nb
    if rel <= tol:
        return x, CGReport(0, rel, True)

    it = 0
    while it < max_iter:
        it += 1
        Ap = op.matvec(p)
        if not np.all(np.isfinite(Ap)):
            raise NumericError(f"non-finite operator output at CG iteration {it}")
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise NumericError("non-positive curvature encountered; operator is not PSD")
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        rel = np.sqrt(rs_new) / nb
        if rel <= tol:
            # guard against recurrence drift before declaring victory
            r = b - op.matvec(x)
            rs_new = float(r @ r)
            rel = np.sqrt(rs_new) / nb
            if rel <= tol:
                return x, CGReport(it, rel, True)
            p = r.copy()
            rs = rs_new
            continue
        beta = rs_new / rs
        p = r + beta * p
        rs = rs_new
    return x, CGReport(max_iter, rel, False)


def apply_spectral_filter(eig: EigenSystem, g, v: np.ndarray) -> np.ndarray:
    """Spectral calculus: sum_j g(sigma_j) (u_j . v) u_j.

    g is applied to the full eigenvalue array handed in; callers that want
    to skip (numerically) zero eigenvalues restrict the EigenSystem or make
    g vanish there.
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.shape[0] != eig.dim:
        raise InputError(f"vector length {v.shape[0]} != eigensystem dimension {eig.dim}")
    try:
        gv = np.asarray(g(eig.values), dtype=np.float64)
        if gv.shape != eig.values.shape:
            raise TypeError
    except (TypeError, ValueError):
        gv = np.array([float(g(float(s))) for s in eig.values])
    if not np.all(np.isfinite(gv)):
        raise NumericError("spectral filter returned non-finite values")
    return eig.vectors @ (gv * (eig.vectors.T @ v))


def power_iteration(op, iters: int = 50, rel_tol: float = 1e-4) -> float:
    """Largest-eigenvalue estimate for a symmetric PSD operator.

    Deterministic: the start vector comes from a fixed internal seed.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(op.dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = op.matvec(v)
        if not np.all(np.isfinite(w)):
            raise NumericError("non-finite operator output in power iteration")
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        new_est = float(v @ w)
        v = w / nw
        if est != 0.0 and abs(new_est - est) <= rel_tol * abs(new_est):
            est = new_est
            break
        est = new_est
    return max(est, 0.0)
