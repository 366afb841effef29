"""Numeric backbone: symmetric eigendecompositions, SPD solves, matrix-free
conjugate gradient, Lanczos decompositions and power iteration.

All routines are deterministic: the only randomness (the power-iteration
start vector) uses a fixed internal seed.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.linalg.blas import dsymm, dsymv

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


class EigenSystem(NamedTuple):
    """Full spectrum of a symmetric matrix, eigenvalues descending.

    coords(H) = U^T H and lift(Y) = U Y are the two products an eigen
    filter C = -U w(s) U^T H needs; TridiagonalEigen offers the same pair
    without U.
    """

    values: np.ndarray
    vectors: np.ndarray

    def coords(self, H: np.ndarray) -> np.ndarray:
        return self.vectors.T @ H

    def lift(self, Y: np.ndarray) -> np.ndarray:
        return self.vectors @ Y


@dataclass(frozen=True, eq=False)
class TridiagonalEigen:
    """The spectrum of a symmetric A = Q T Q^T, T = Z diag(s) Z^T, held as
    the Householder reflectors of Q (LAPACK dsytrd, lower), T's eigenvectors
    Z (dstevd, ascending) and the eigenvalues s (descending), without the
    n x n eigenvector matrix U = Q Z.

    It offers the values and the two products of EigenSystem: coords(H) =
    U^T H and lift(Y) = U Y, in the descending order of values. Q is
    applied by dormqr, the body of dormtr for uplo = 'L'. The reflectors
    stay where dsytrd wrote them, in the strict upper triangle of the
    reduced matrix's own buffer; they are a Fortran-contiguous view of it,
    so no call copies them and the value holds Z and O(n) besides.
    """

    values: np.ndarray
    _reflectors: np.ndarray  # (n, n - 1) view, leading dimension n: A.T[1:, :-1]
    _tau: np.ndarray
    _Z: np.ndarray           # T's eigenvectors, ascending

    def _apply_q(self, B: np.ndarray, trans: str) -> np.ndarray:
        """Q B (trans 'N') or Q^T B ('T') in place on the rows 1: of B."""
        if len(B) > 1:
            # dormqr's optimal workspace: 64 (its largest block) per column,
            # plus the 65 x 64 block reflector it keeps there; less runs unblocked
            lwork = 64 * max(1, B.shape[1]) + 65 * 64
            out, _, info = lapack.dormqr("L", trans, self._reflectors, self._tau, B[1:],
                                         lwork, overwrite_c=1)
            if info != 0:
                raise NumericError(f"LAPACK dormqr failed (info={info})")
            B[1:] = out
        return B

    def coords(self, H: np.ndarray) -> np.ndarray:
        B = self._apply_q(np.array(H, dtype=np.float64, order="F"), "T")
        # flip the (n, k) result, not Z: matmul on a reversed view skips BLAS
        return (self._Z.T @ B)[::-1].copy()

    def lift(self, Y: np.ndarray) -> np.ndarray:
        Y = np.ascontiguousarray(np.asarray(Y, dtype=np.float64)[::-1])
        return self._apply_q(np.asfortranarray(self._Z @ Y), "N")


def numeric_rank_mask(values: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues above EPS_RANK_REL times the largest."""
    vmax = float(np.max(values, initial=0.0))
    if vmax <= 0.0:
        return np.zeros(values.shape, dtype=bool)
    return values > EPS_RANK_REL * vmax


def check_count(value, what: str) -> int:
    """value, a count or budget, as an int >= 1: an int or a numpy integer,
    not a bool or a float that would be truncated, or InputError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InputError(f"{what} must be an integer >= 1, got {value!r}")
    return int(value)


_SYMMETRY_TILE = 512


def check_symmetric(K: np.ndarray, tol: float, what: str) -> None:
    """Refuse (InputError) a square K with a non-finite entry or with
    max|K - K^T| > tol * max(1, max|K|); tol = 0 asks for exact symmetry.

    K is read in 512 x 512 tiles over one triangle, each tile against its
    mirror, so no temporary is larger than a tile.
    """
    n, t = len(K), _SYMMETRY_TILE
    diff = scale = 0.0
    for i in range(0, n, t):
        for j in range(i, n, t):
            A, B = K[i:i + t, j:j + t], K[j:j + t, i:i + t].T
            top, bottom = float(np.abs(A).max()), float(np.abs(B).max())
            if not np.isfinite(top + bottom):
                raise InputError(f"{what} contains non-finite entries")
            scale = max(scale, top, bottom)
            diff = max(diff, float(np.abs(A - B).max()))
    if diff > tol * max(1.0, scale):
        raise InputError(f"{what} is not " + (f"symmetric to {tol:g}" if tol
                                               else "exactly symmetric"))


def _restore(A: np.ndarray, diag: np.ndarray) -> None:
    """Write diag on A's diagonal and copy A's strict lower triangle onto
    its upper one, in tiles."""
    np.fill_diagonal(A, diag)
    t = _SYMMETRY_TILE
    for i in range(0, len(A), t):
        D = A[i:i + t, i:i + t]
        upper = np.triu_indices(len(D), 1)
        D[upper] = D.T[upper]
        A[i:i + t, i + t:] = A[i + t:, i:i + t].T


def _tridiagonal_eig(A: np.ndarray) -> TridiagonalEigen:
    """TridiagonalEigen of an exactly symmetric, C-contiguous A, reduced in
    A's own buffer.

    dsytrd (lower) runs on A.T, A's Fortran-ordered view: it reads A's
    upper triangle and writes T and the reflectors there, and A's diagonal
    is saved and written back. A then holds itself in its lower triangle
    and diagonal, which is all its other readers read, and the reflectors
    in its strict upper triangle, which the result keeps as a view. T is
    solved by divide and conquer (dstevd). A failure restores A's diagonal
    and, from its lower triangle, its upper one, so that a later reduction
    reads A again, and raises. Traced peak: Z and dstevd's n^2 workspace,
    two matrices of A's size.
    """
    n = len(A)
    if n <= 1:  # scipy's dstevd refuses an empty e
        return TridiagonalEigen(np.diag(A).copy(), np.zeros((n, 0)), np.zeros(0), np.eye(n))
    diag = np.diag(A).copy()
    try:
        lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
        c, d, e, tau, info = lapack.dsytrd(A.T, lower=1, lwork=lwork, overwrite_a=1)
        np.fill_diagonal(A, diag)
        if info != 0:
            raise NumericError(f"LAPACK dsytrd failed (info={info})")
        s, Z, info = lapack.dstevd(d, e, overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise NumericError(f"LAPACK dstevd failed (info={info})")
    except (NumericError, MemoryError):  # MemoryError: dstevd's n^2 workspace
        _restore(A, diag)
        raise
    # reflector j lies in c[j + 2:, j]: starting one entry into c's buffer,
    # the columns of c[1:, :-1] keep c's leading dimension n
    reflectors = c.ravel(order="F")[1:1 + n * (n - 1)].reshape((n, n - 1), order="F")
    return TridiagonalEigen(s[::-1].copy(), reflectors, tau, Z)


def sym_eig(K: np.ndarray, _reduced: bool = False, _in_place: bool = False):
    """Eigendecomposition of a symmetric matrix, descending order.

    K must be finite and symmetric to 1e-10 (relative to its largest
    entry), or InputError is raised; the check reads K in tiles
    (check_symmetric). The result is an EigenSystem from np.linalg.eigh,
    which reads K's lower triangle; ties in the ordering keep the solver's
    deterministic order. _reduced (DenseGram.eigensystem's, for a Gram
    whose filters lift one column) returns a TridiagonalEigen instead:
    the same values within ~1e-15 of the largest, without the n x n
    eigenvector matrix, read from K's upper triangle in a private copy, so
    K is never written. _in_place (DenseGram.eigensystem's, on the
    C-contiguous matrix it owns, exactly symmetric already) skips the check
    and reduces K itself (_tridiagonal_eig), leaving its lower triangle and
    diagonal as they were. A failed decomposition raises NumericError.
    """
    K = np.asarray(K, dtype=np.float64)
    if not _in_place:
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise InputError(f"sym_eig expects a square matrix, got shape {K.shape}")
        check_symmetric(K, 1e-10, "sym_eig input")
    if _reduced:
        return _tridiagonal_eig(K if _in_place else np.array(K, order="C"))
    try:
        w, V = np.linalg.eigh(K)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    return EigenSystem(w[::-1].copy(), V[:, ::-1].copy())


@np.errstate(over="ignore")
def _norm(v: np.ndarray) -> float:
    """||v||_2, rescaled by max|v| where the plain sum of squares overflows
    or underflows: below 1e-150 the squares that matter may be subnormal."""
    out = float(np.linalg.norm(v))
    if (out == np.inf or out < 1e-150) and np.all(np.isfinite(v)):
        scale = float(np.abs(v).max(initial=0.0))
        if scale > 0.0:
            out = scale * float(np.linalg.norm(v / scale))
    return out


def _lower_product(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x read from A's lower triangle and diagonal, by BLAS on A.T, the
    Fortran-ordered view of a C-ordered A: dsymm for a block of columns,
    dsymv for a vector or one column (at n = 4096 with 2 threads, dsymm
    of one column took 62 ms, dsymv 1.3 ms)."""
    if x.ndim == 2 and x.shape[1] > 1:
        return dsymm(1.0, A.T, x)
    return dsymv(1.0, A.T, x.ravel()).reshape(x.shape)


@np.errstate(over="ignore", invalid="ignore")
def solve_spd(A: np.ndarray, b: np.ndarray, shift: float = 0.0,
              x0: np.ndarray = None) -> np.ndarray:
    """Solve (A + shift I) x = b for symmetric positive definite A + shift I.

    Only A's lower triangle and diagonal are read, so A may be a Gram
    reduced by DenseGram.eigensystem. b may be a vector or an (n, k) block
    of right-hand sides. Every result meets the relative residual
    SPD_RESIDUAL_TOL. A start x0 (shaped like b) that is finite and already
    meets it is returned after one product with A, without a factorization.
    Otherwise one private copy of A is shifted, factored by Cholesky in
    place and the solution refined against A; a failure to reach the
    residual (or to factor) raises NumericError with a condition estimate
    from the Cholesky diagonal, and so does a non-finite residual. A is
    never modified.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    shift = float(shift)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"solve_spd expects a square matrix, got shape {A.shape}")
    if b.ndim not in (1, 2) or b.shape[0] != A.shape[0]:
        raise InputError("right-hand side length does not match matrix")
    if not np.isfinite(shift):
        raise InputError(f"shift must be finite, got {shift!r}")
    nb = _norm(b)
    if nb == 0.0:
        return np.zeros_like(b)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != b.shape:
            raise InputError(f"start shape {x0.shape} does not match right-hand "
                             f"side shape {b.shape}")
        if np.all(np.isfinite(x0)):
            r = b - (_lower_product(A, x0) + shift * x0)
            if _norm(r) / nb <= SPD_RESIDUAL_TOL:
                return x0
    # one private copy, in the order LAPACK reads: the caller's A is often a
    # shared Gram. A.T's Fortran copy holds A's lower triangle in its upper
    # one, the part cho_factor reads; a non-finite entry there makes some
    # pivot NaN or -inf, which dpotrf refuses, so the other part is not checked.
    F = np.array(A.T, order="F")
    F[np.diag_indices_from(F)] += shift
    try:
        cf = scipy.linalg.cho_factor(F, overwrite_a=True, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericError(f"Cholesky factorization failed: {exc}") from exc
    x = scipy.linalg.cho_solve(cf, b, check_finite=False)
    for step in range(3):  # the solve, then at most two refinements
        r = b - (_lower_product(A, x) + shift * x)
        rel = _norm(r) / nb
        if rel <= SPD_RESIDUAL_TOL:
            return x
        if not np.isfinite(rel):
            raise NumericError("solve_spd: the residual is not finite: A holds a "
                               "non-finite entry or the solution overflows")
        if step < 2:
            x = x + scipy.linalg.cho_solve(cf, r, check_finite=False)
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


@dataclass(frozen=True)
class CGReport:
    iterations: int
    residual: float  # final relative residual ||Ax - b|| / ||b||
    converged: bool


def _rhs(op, b):
    """b as a finite float vector of op's dimension, and its norm."""
    b = np.asarray(b, dtype=np.float64).ravel()
    if b.shape[0] != op.dim:
        raise InputError(f"vector length {b.shape[0]} != operator dimension {op.dim}")
    if not np.all(np.isfinite(b)):
        raise InputError("right-hand side contains non-finite entries")
    return b, _norm(b)


def _cg_dot(u, v, it: int) -> float:
    """u @ v for conjugate_gradient, or NumericError where it is not
    finite: an overflowed product can meet no tolerance."""
    out = float(u @ v)
    if not np.isfinite(out):
        raise NumericError(f"CG inner product overflows at iteration {it}")
    return out


@np.errstate(over="ignore", invalid="ignore")
def conjugate_gradient(op, b: np.ndarray, tol: float = 1e-8,
                       max_iter: int = None, x0: np.ndarray = None):
    """Conjugate gradient for symmetric PSD op, stopping at ||r|| <= tol ||b||.

    Accepts any object with .dim and .matvec (LinearOperator, Gram objects).
    On hitting the recurrence tolerance the true residual is recomputed; the
    iteration continues if the recurrence had drifted. Returns (x, CGReport).
    A non-finite operator output or inner product raises NumericError.

    CG runs on b and x0 scaled by 2^-e, ||b|| = f 2^e with f in [0.5, 1)
    (math.frexp), and scales x back, so its squared norms stay finite for
    any ||b|| below DBL_MAX. A power of two scales every product and sum of
    a linear op exactly, so x and the report keep the bits of an unscaled
    run wherever neither run leaves the normal double range.
    """
    if tol <= 0.0:
        raise InputError("tol must be positive")
    max_iter = 10 * op.dim if max_iter is None else check_count(max_iter, "max_iter")
    b, nb = _rhs(op, b)
    if nb == 0.0:
        return np.zeros_like(b), CGReport(0, 0.0, True)
    e = math.frexp(nb)[1]
    b, nb = np.ldexp(b, -e), math.ldexp(nb, -e)

    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.ldexp(np.asarray(x0, dtype=np.float64).ravel(), -e)
        r = b - op.matvec(x)
    p = r.copy()
    rs = _cg_dot(r, r, 0)
    rel = np.sqrt(rs) / nb
    if rel <= tol:
        return np.ldexp(x, e), CGReport(0, rel, True)

    it = 0
    while it < max_iter:
        it += 1
        Ap = op.matvec(p)
        if not np.all(np.isfinite(Ap)):
            raise NumericError(f"non-finite operator output at CG iteration {it}")
        pAp = _cg_dot(p, Ap, it)
        if pAp <= 0.0:
            raise NumericError("non-positive curvature encountered; operator is not PSD")
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        rs_new = _cg_dot(r, r, it)
        rel = np.sqrt(rs_new) / nb
        if rel <= tol:
            # guard against recurrence drift before declaring victory
            r = b - op.matvec(x)
            rs_new = _cg_dot(r, r, it)
            rel = np.sqrt(rs_new) / nb
            if rel <= tol:
                return np.ldexp(x, e), CGReport(it, rel, True)
            p = r.copy()
            rs = rs_new
            continue
        beta = rs_new / rs
        p = r + beta * p
        rs = rs_new
    return np.ldexp(x, e), CGReport(max_iter, rel, False)


def _project_out(V, w):
    """One classical Gram-Schmidt pass: w minus its projection on the rows
    of V, and the norm of what is left."""
    w = w - V.T @ (V @ w)
    return w, float(np.linalg.norm(w))


def _next_pivot(piv, last, alpha_k, beta_prev, shifts):
    """Step k of the pivot recurrence of T_k + s I for each shift s: p_k =
    alpha_k + s - beta_{k-1}^2 / p_{k-1} and last_k = beta_1..beta_{k-1} /
    |p_1..p_k|, from step k - 1's (piv, last); beta_prev is beta_{k-1},
    None at k = 1, where piv and last are not read. Scalars or arrays."""
    if beta_prev is None:
        piv = alpha_k + shifts
        return piv, 1.0 / abs(piv)
    piv = alpha_k + shifts - beta_prev * beta_prev / piv
    return piv, last * beta_prev / abs(piv)


def _shift_targets(shifts, targets, min_dim, caps):
    """A lanczos stop rule for the systems (K + s_i I) y = b: stop once the
    basis holds min_dim vectors and each system i has met its relative
    residual target i by its Lanczos residual estimate beta_k |e_k^T (T_k +
    s_i I)^-1 e_1| = beta_k beta_1..beta_{k-1} / |p_1..p_k| (_next_pivot),
    or the basis holds its cap i vectors (inf: none).
    """
    shifts, targets, caps = (np.asarray(v, dtype=np.float64) for v in (shifts, targets, caps))
    piv, last = np.ones(len(shifts)), np.ones(len(shifts))
    met = np.zeros(len(shifts), dtype=bool)

    def stop(alpha, beta):
        k = len(beta)
        piv[:], last[:] = _next_pivot(piv, last, alpha[-1], beta[-2] if k > 1 else None, shifts)
        met[beta[-1] * last <= targets] = True
        return k >= min_dim and bool((met | (k >= caps)).all())
    return stop


@dataclass(frozen=True, eq=False)
class KrylovBasis:
    """What lanczos built from a symmetric K and b: the rows V, T = V K V^T,
    the last beta, norm_b = ||b|| and whether beta met the run's tol. A
    k-step run is the first k rows of a longer one, bit for bit, so each
    reader reads the leading part it needs, however far others grew it.
    """

    V: np.ndarray
    T: np.ndarray
    beta: float
    norm_b: float
    invariant: bool

    def spans(self, k: int) -> bool:
        """Whether span(V) holds K_k(K, b), so p(K) b for every polynomial p
        of degree below k: V is invariant or holds min(k, n) vectors."""
        return self.invariant or len(self.V) >= min(k, self.V.shape[1])

    def galerkin(self, shift: float, target: float, scale: float, max_dim: int = None):
        """(met, y) of (K + shift I) y = scale b / ||b|| over the first
        max_dim vectors (default all). met is the first step whose Lanczos
        residual estimate meets target, by the float operations of a build's
        stop rule (_shift_targets), one scalar _next_pivot per step (0:
        none); y = scale V_k^T (T_k + shift I)^-1 e_1 at k = met, or at the
        last vector read; None if singular.
        """
        n = len(self.V) if max_dim is None else min(max_dim, len(self.V))
        alpha, beta = np.diag(self.T), np.append(np.diag(self.T, 1), self.beta)
        met, piv, last = 0, None, None
        for j in range(n):
            piv, last = _next_pivot(piv, last, alpha[j], beta[j - 1] if j else None, shift)
            if beta[j] * last <= target:
                met = j + 1
                break
        k = met or n
        try:
            z = np.linalg.solve(self.T[:k, :k] + shift * np.eye(k), np.eye(1, k)[0])
        except np.linalg.LinAlgError:
            return met, None
        return met, scale * (z @ self.V[:k])


def lanczos(op, b: np.ndarray, max_dim: int, tol: float, stop=None) -> KrylovBasis:
    """Lanczos decomposition of a symmetric op started at b.

    Builds orthonormal rows V, v_1 = b / ||b||, and the tridiagonal T with
    op V^T = V^T T + beta v_{k+1} e_k^T, so that f(op) b is ||b|| V^T f(T) e_1
    once the space is invariant (beta = 0) or, for a polynomial f, once k
    exceeds its degree. Each step subtracts the three-term recurrence
    alpha_k v_k + beta_{k-1} v_{k-1} and then projects the new vector off all
    kept ones in one classical Gram-Schmidt pass; without that, floating
    point revisits converged directions. A second pass runs only when the
    first left less than 1/sqrt(2) of the norm it found (the DGKS test:
    twice is enough). The run ends at the first step k with beta_k <= tol
    (scale tol by a norm of op), k = max_dim or stop(alpha, beta) true
    (_shift_targets), called once per step with T's diagonal and
    off-diagonal so far (beta_k last). Returns a KrylovBasis, V of shape
    (k, n); a zero b gives k = 0.
    """
    check_count(max_dim, "max_dim")
    if not (np.isfinite(tol) and tol > 0.0):
        raise InputError(f"tol must be positive and finite, got {tol!r}")
    b, nb = _rhs(op, b)
    n = b.shape[0]
    if nb == 0.0:
        return KrylovBasis(np.zeros((0, n)), np.zeros((0, 0)), 0.0, 0.0, True)
    # rows are written one per step; untouched rows of np.empty take no memory
    V = np.empty((min(int(max_dim), n), n))
    alpha, beta = np.zeros(V.shape[0]), np.zeros(V.shape[0])
    V[0] = b / nb
    k = 0
    while True:
        w = op.matvec(V[k])
        if not np.all(np.isfinite(w)):
            raise NumericError(f"non-finite operator output at Lanczos step {k + 1}")
        alpha[k] = V[k] @ w
        w = w - alpha[k] * V[k]
        if k:
            w -= beta[k - 1] * V[k - 1]
        before = float(np.linalg.norm(w))
        w, beta[k] = _project_out(V[:k + 1], w)
        if beta[k] < before / np.sqrt(2.0):
            w, beta[k] = _project_out(V[:k + 1], w)
        k += 1
        if beta[k - 1] <= tol or k == V.shape[0] \
                or (stop is not None and stop(alpha[:k], beta[:k])):
            break
        V[k] = w / beta[k - 1]
    T = np.diag(alpha[:k]) + np.diag(beta[:k - 1], 1) + np.diag(beta[:k - 1], -1)
    return KrylovBasis(V[:k], T, float(beta[k - 1]), nb, bool(beta[k - 1] <= tol))


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
