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

# Relative residual ||b - (A + shift I) x|| / ||b|| that every solve_spd
# result meets, whether it came from a start vector or a factorization.
SPD_RESIDUAL_TOL = 1e-10


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


def solve_spd(A: np.ndarray, b: np.ndarray, shift: float = 0.0,
              x0: np.ndarray = None) -> np.ndarray:
    """Solve (A + shift I) x = b for symmetric positive definite A + shift I.

    b may be a vector or an (n, k) block of right-hand sides. Every result
    meets the relative residual SPD_RESIDUAL_TOL. A start x0 (shaped like b)
    that is finite and already meets it is returned after one product with
    A, without a factorization. Otherwise a private copy of A is shifted,
    factored by Cholesky and the solution refined; failure to reach the
    residual (or a failed factorization) raises NumericError with a
    condition estimate from the Cholesky diagonal. A is never modified.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    shift = float(shift)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"solve_spd expects a square matrix, got shape {A.shape}")
    if b.ndim not in (1, 2) or b.shape[0] != A.shape[0]:
        raise InputError("right-hand side length does not match matrix")
    if not np.isfinite(shift):
        raise InputError(f"shift must be finite, got {shift!r}")
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return np.zeros_like(b)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != b.shape:
            raise InputError(f"start shape {x0.shape} does not match right-hand "
                             f"side shape {b.shape}")
        if np.all(np.isfinite(x0)):
            r = b - (A @ x0 + shift * x0)
            if float(np.linalg.norm(r)) / nb <= SPD_RESIDUAL_TOL:
                return x0
    if shift != 0.0:
        A = A + 0.0  # private copy: the caller's A is often a shared Gram
        A[np.diag_indices_from(A)] += shift
    try:
        cf = scipy.linalg.cho_factor(A, check_finite=True)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericError(f"Cholesky factorization failed: {exc}") from exc
    x = scipy.linalg.cho_solve(cf, b, check_finite=False)
    for _ in range(2):
        r = b - A @ x
        rel = float(np.linalg.norm(r)) / nb
        if rel <= SPD_RESIDUAL_TOL:
            return x
        x = x + scipy.linalg.cho_solve(cf, r, check_finite=False)
    r = b - A @ x
    rel = float(np.linalg.norm(r)) / nb
    if rel <= SPD_RESIDUAL_TOL:
        return x
    # cond(A) = cond(L)^2, and the spread of L's diagonal bounds cond(L)
    # from below; a full SVD here would cost many times the factorization
    ldiag = np.abs(np.diag(cf[0]))
    cond = float((ldiag.max() / ldiag.min()) ** 2)
    raise NumericError(
        f"solve_spd could not reach residual {SPD_RESIDUAL_TOL:.0e} (got {rel:.3e}); "
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


def shifted_cg(op, b: np.ndarray, shifts, tol: float = 1e-8, max_iter: int = None,
               reorthogonalize: bool = False):
    """Solve (op + s I) x_s = b for every shift s from one Krylov sequence.

    Multi-shift CG (CG-M): the shifted systems share the Krylov space of op
    and b, so a single CG run on the seed system (the smallest shift) yields
    every x_s through scalar recurrences, for one matvec per iteration in
    all. The residual of shift s is zeta_s times the seed residual; a shift
    is frozen once |zeta_s| ||r|| <= tol ||b|| (its zeta would otherwise
    underflow). The residuals are recurrence values: callers needing a
    guarantee recheck them. Returns (X, reports), X[k] solving shift k,
    reports a tuple of CGReport in the order of the shifts.

    reorthogonalize=True keeps every normalized seed residual and projects
    each new one off them (Gram-Schmidt, twice). In floating point, plain
    CG loses that orthogonality and revisits converged eigendirections, so
    a spectrum with a few large eigenvalues far above the smallest shift
    costs many times the exact-arithmetic count of iterations (548 against
    52 on a d=1 curl-free Gram at M=4096). The kept basis takes one vector
    per iteration, so it suits operators small enough to hold as matrices.
    """
    if not tol > 0.0:
        raise InputError("tol must be positive")
    shifts = np.asarray(shifts, dtype=np.float64)
    if shifts.ndim != 1 or shifts.size == 0:
        raise InputError("shifts must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(shifts)) or np.any(shifts < 0.0):
        raise InputError("shifts must be finite and nonnegative")
    b = np.asarray(b, dtype=np.float64).ravel()
    if b.shape[0] != op.dim:
        raise InputError(f"vector length {b.shape[0]} != operator dimension {op.dim}")
    if not np.all(np.isfinite(b)):
        raise InputError("right-hand side contains non-finite entries")
    S = shifts.size
    X = np.zeros((S, b.shape[0]))
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return X, tuple(CGReport(0, 0.0, True) for _ in range(S))
    if max_iter is None:
        max_iter = 10 * op.dim

    seed = float(shifts.min())
    delta = shifts - seed
    # seed system: plain CG on op + seed I; shifted directions P follow it
    r = b.copy()
    p = b.copy()
    rs = float(r @ r)
    P = np.repeat(b[None, :], S, axis=0)
    if reorthogonalize:
        # rows are written one per iteration; untouched rows of np.empty
        # take no memory
        V = np.empty((min(max_iter, b.shape[0]) + 1, b.shape[0]))
        V[0] = b / nb
        k = 1
    zeta = np.ones(S)           # zeta_k
    zeta_prev = np.ones(S)      # zeta_{k-1}
    alpha_prev, beta_prev = 1.0, 0.0
    iters = np.zeros(S, dtype=np.int64)
    rel = np.ones(S)
    active = rel > tol
    it = 0
    while it < max_iter and active.any():
        it += 1
        Ap = op.matvec(p)
        if not np.all(np.isfinite(Ap)):
            raise NumericError(f"non-finite operator output at shifted CG iteration {it}")
        if seed != 0.0:
            Ap = Ap + seed * p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise NumericError("non-positive curvature encountered; operator is not PSD")
        alpha = rs / pAp
        r -= alpha * Ap
        if reorthogonalize:
            for _ in range(2):
                r -= V[:k].T @ (V[:k] @ r)
        rs_new = float(r @ r)
        if reorthogonalize and rs_new > 0.0 and k < V.shape[0]:
            V[k] = r / np.sqrt(rs_new)
            k += 1
        beta = rs_new / rs
        act = np.flatnonzero(active)
        z, zp = zeta[act], zeta_prev[act]
        z_next = (z * zp * alpha_prev) / (
            alpha_prev * zp * (1.0 + alpha * delta[act]) + alpha * beta_prev * (zp - z))
        X[act] += (alpha * z_next / z)[:, None] * P[act]
        P[act] = z_next[:, None] * r + (beta * np.square(z_next / z))[:, None] * P[act]
        zeta_prev[act], zeta[act] = z, z_next
        rel[act] = np.abs(z_next) * np.sqrt(rs_new) / nb
        iters[act] = it
        active[act] = rel[act] > tol
        p = r + beta * p
        alpha_prev, beta_prev, rs = alpha, beta, rs_new
    if not np.all(np.isfinite(X)):
        raise NumericError("shifted CG produced non-finite solutions")
    return X, tuple(CGReport(int(iters[k]), float(rel[k]), bool(rel[k] <= tol))
                    for k in range(S))


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
