"""Reference helpers that only the tests use.

The four radial derivative bodies as written one per order, phi and its
derivatives at one u as a tuple, pointwise kernel blocks, the whole-array curl-free cross Gram, the
curl-free cross product from the two tables phi'(U) and phi''(U), a
matrix-backed operator, spectral calculus through a full eigensystem, the
append-and-refit score heuristic, the line-by-line CSV reader, a
diagonal kernel's Md x Md Kronecker Gram and Nystrom blocks, eigen-filter
coefficients through np.linalg.eigh of the Md x Md Gram and the mixture
log-likelihoods from a (Q, K, d) difference array, the Lanczos stop rule
as the AND of one rule per sweep entry, the query tables as one
whole-array pass, the Galerkin step replayed by a build's stop rule and
the Landweber and nu-method recursions as two loops, each with its own a_t:
slow or naive forms that the package's fast paths are checked against.
peak_bytes measures what a call allocates.
"""

import csv
import tracemalloc

import numpy as np

from scorekit import estimators, kernels, spectral_linalg
from scorekit.errors import InputError, NumericError
from scorekit.estimators import fit_truncated_tikhonov
from scorekit.kernels import (
    MatrixKernelSpec,
    ScalarRadialKernel,
    _as_vector,
    as_samples,
    assemble_gram,
    scalar_gram,
    sq_dists,
    zeta_batch,
)


class RadialReference:
    """ScalarRadialKernel's phi, dphi, d2phi and d3phi as one body per
    order, each with its constant written out."""

    def __init__(self, kernel: ScalarRadialKernel):
        self.family = kernel.family
        self.bandwidth = kernel.bandwidth

    def phi(self, u):
        u = np.asarray(u, dtype=np.float64)
        s2 = self.bandwidth ** 2
        if self.family == "imq":
            return (1.0 + u / s2) ** -0.5
        return np.exp(-u / (2.0 * s2))

    def dphi(self, u):
        u = np.asarray(u, dtype=np.float64)
        s2 = self.bandwidth ** 2
        if self.family == "imq":
            return (-0.5 / s2) * (1.0 + u / s2) ** -1.5
        return (-0.5 / s2) * np.exp(-u / (2.0 * s2))

    def d2phi(self, u):
        u = np.asarray(u, dtype=np.float64)
        s2 = self.bandwidth ** 2
        if self.family == "imq":
            return (0.75 / s2 ** 2) * (1.0 + u / s2) ** -2.5
        return (0.25 / s2 ** 2) * np.exp(-u / (2.0 * s2))

    def d3phi(self, u):
        u = np.asarray(u, dtype=np.float64)
        s2 = self.bandwidth ** 2
        if self.family == "imq":
            return (-1.875 / s2 ** 3) * (1.0 + u / s2) ** -3.5
        return (-0.125 / s2 ** 3) * np.exp(-u / (2.0 * s2))


def scalar_derivs(kernel: ScalarRadialKernel, u):
    """Return (phi, phi', phi'', phi''') at squared distance u >= 0."""
    arr = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise InputError("u must be finite and nonnegative")
    out = (kernel.phi(arr), kernel.dphi(arr), kernel.d2phi(arr), kernel.d3phi(arr))
    if np.isscalar(u) or getattr(u, "ndim", 0) == 0:
        return tuple(float(v) for v in out)
    return out


def eval_matrix_kernel(spec: MatrixKernelSpec, x, y) -> np.ndarray:
    """Evaluate the d x d kernel block K(x, y)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64)
    d = x.shape[0]
    y = _as_vector(y, d, "y")
    x = _as_vector(x, d, "x")
    r = x - y
    u = float(r @ r)
    if spec.kind == "diagonal":
        return float(spec.scalar.phi(u)) * np.eye(d)
    p1 = float(spec.scalar.dphi(u))
    p2 = float(spec.scalar.d2phi(u))
    return -4.0 * p2 * np.outer(r, r) - 2.0 * p1 * np.eye(d)


def curlfree_matvec(spec: MatrixKernelSpec, x, y, a) -> np.ndarray:
    """K_cf(x, y) @ a in O(d), without forming the d x d block.

    K_cf(x,y) a = -4 phi''(u) (r . a) r - 2 phi'(u) a, with r = x - y.
    """
    if spec.kind != "curl_free":
        raise InputError("curlfree_matvec requires a curl_free kernel spec")
    x = np.asarray(x, dtype=np.float64).ravel()
    d = x.shape[0]
    x = _as_vector(x, d, "x")
    y = _as_vector(y, d, "y")
    a = _as_vector(a, d, "a")
    r = x - y
    u = float(r @ r)
    p1 = float(spec.scalar.dphi(u))
    p2 = float(spec.scalar.d2phi(u))
    return -4.0 * p2 * float(r @ a) * r - 2.0 * p1 * a


def cross_gram_full(spec: MatrixKernelSpec, rows, cols) -> np.ndarray:
    """kernels.cross_gram of a curl-free kernel as one whole-array pass."""
    A = as_samples(rows)
    B = as_samples(cols)
    (P, d), Q = A.shape, B.shape[0]
    R = A[:, None, :] - B[None, :, :]              # (P, Q, d)
    U = np.einsum("pqk,pqk->pq", R, R)
    P1 = spec.scalar.dphi(U)
    P2 = spec.scalar.d2phi(U)
    K4 = np.einsum("pq,pqi,pqj->piqj", -4.0 * P2, R, R)
    for i in range(d):
        K4[:, i, :, i] -= 2.0 * P1
    return np.ascontiguousarray(K4.reshape(P * d, Q * d))


def cross_apply_two_tables(spec: MatrixKernelSpec, queries, basis, coeffs) -> np.ndarray:
    """kernels.cross_apply of a curl-free kernel from phi'(U) and phi''(U),
    the two tables it reads at d > 1, at any d (d = 1 included)."""
    B = as_samples(basis)
    Q = np.asarray(queries, dtype=np.float64)
    C = np.asarray(coeffs, dtype=np.float64)
    U = sq_dists(Q, B)
    p1, p2 = spec.scalar.dphi(U), spec.scalar.d2phi(U)
    S = Q @ C.T                               # S[q, l] = x_q . c^l
    t = np.einsum("ij,ij->i", B, C)           # t[l] = b^l . c^l
    alpha = p2 * (S - t[None, :])             # phi''(u_ql) * (r_ql . c^l)
    return -4.0 * (alpha.sum(axis=1)[:, None] * Q - alpha @ B) - 2.0 * (p1 @ C)


def full_gram(spec: MatrixKernelSpec, X) -> np.ndarray:
    """The Md x Md Gram matrix of either kind. A diagonal kernel's dense
    Gram holds only its scalar factor k; this is its Kronecker form
    np.kron(k, I_d)."""
    K = assemble_gram(spec, X).matrix
    return np.kron(K, np.eye(np.shape(X)[1])) if spec.kind == "diagonal" else K


def eigh_filter_coeffs(spec: MatrixKernelSpec, X, weight, rank: int = None) -> np.ndarray:
    """-U w(s) U^T h over np.linalg.eigh of the Md x Md Gram (U from eigh
    itself), s its eigenvalues / M, w = weight(s) on the numerically
    nonzero ones (above 1e-12 times the largest) and 0 elsewhere. weight
    may take rank: then it is called as weight(s, s_J), s_J the rank-th
    largest eigenvalue."""
    X = np.asarray(X, dtype=np.float64)
    s, U = np.linalg.eigh(full_gram(spec, X))
    s = s / X.shape[0]
    keep = s > 1e-12 * s.max()
    w = np.zeros_like(s)
    w[keep] = weight(s[keep]) if rank is None else weight(s[keep], np.sort(s)[::-1][rank - 1])
    h = kernels.h_vector(spec, X)
    return -(U @ (w * (U.T @ h))).reshape(X.shape)


def nystrom_blocks_kron(samples, subset_indices, spec: MatrixKernelSpec):
    """estimators._subset_building_blocks of a diagonal kernel from Nd x Nd
    Kronecker blocks, through estimators._subset_spectrum: K_ZZ =
    np.kron(k(Z, Z), I_d), the whole Md x Nd K_XZ = np.kron(k(X, Z), I_d)
    as one row block, and h_Z as one Nd column."""
    X = as_samples(samples)
    idx = np.asarray(subset_indices, dtype=np.int64)
    Z = X[idx]
    eye = np.eye(X.shape[1])
    return (X, idx) + estimators._subset_spectrum(
        np.kron(scalar_gram(spec.scalar, Z), eye), [np.kron(scalar_gram(spec.scalar, X, Z), eye)],
        zeta_batch(spec, X, Z).reshape(-1, 1), X.shape[0])


def forbid_big_cross_grams(monkeypatch):
    """Make cross_gram fail on any Md x Md or Nd x Nd Gram over the dense
    limit, before it allocates one."""
    orig = kernels.cross_gram

    def guarded(spec, rows, cols):
        d = np.shape(rows)[1]
        if min(len(rows), len(cols)) * d > kernels.DENSE_SYSTEM_LIMIT:
            raise AssertionError(f"cross_gram of {len(rows)} x {len(cols)} points at d={d}")
        return orig(spec, rows, cols)
    monkeypatch.setattr(kernels, "cross_gram", guarded)
    monkeypatch.setattr(estimators, "cross_gram", guarded)


def peak_bytes(fn) -> int:
    """Peak bytes traced while fn() runs, above what was live before it.

    numpy reports its array buffers to tracemalloc; BLAS and LAPACK
    workspaces are not seen.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def retained_bytes(fn) -> int:
    """Bytes traced as live once fn() has returned, above what was live
    before it; fn's result is held until they are read."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()  # noqa: F841 -- held while the bytes are read
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def gram_matvec(gram, b: np.ndarray) -> np.ndarray:
    """K @ b for either Gram form."""
    return gram.matvec(b)


class LinearOperator(spectral_linalg.LinearOperator):
    """The package's operator, with a constructor from a dense matrix."""

    __slots__ = ()

    @staticmethod
    def from_matrix(A: np.ndarray) -> "LinearOperator":
        A = np.asarray(A, dtype=np.float64)
        return LinearOperator(A.shape[0], lambda v: A @ v)


def apply_spectral_filter(eig, g, v: np.ndarray) -> np.ndarray:
    """Spectral calculus: sum_j g(sigma_j) (u_j . v) u_j.

    g is applied to the full eigenvalue array handed in; callers that want
    to skip (numerically) zero eigenvalues restrict the EigenSystem or make
    g vanish there.
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    n = len(eig.values)
    if v.shape[0] != n:
        raise InputError(f"vector length {v.shape[0]} != eigensystem dimension {n}")
    try:
        gv = np.asarray(g(eig.values), dtype=np.float64)
        if gv.shape != eig.values.shape:
            raise TypeError
    except (TypeError, ValueError):
        gv = np.array([float(g(float(s))) for s in eig.values])
    if not np.all(np.isfinite(gv)):
        raise NumericError("spectral filter returned non-finite values")
    return eig.vectors @ (gv * (eig.vectors.T @ v))


def stein_heuristic_scores(samples, spec, lam: float, queries) -> np.ndarray:
    """Score each query by refitting with the query appended to the samples.

    This is the append-and-refit heuristic some gradient estimators use
    for out-of-sample points, a reference to compare against the
    principled basis-expansion prediction; it is O(M^3) per query.
    """
    X = as_samples(samples)
    Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    out = np.zeros_like(Q)
    for qi, q in enumerate(Q):
        aug = np.vstack([X, q[None, :]])
        est = fit_truncated_tikhonov(aug, spec, lam)
        out[qi] = est.predict(q[None, :])[0]
    return out


def load_samples_csv_lines(path) -> np.ndarray:
    """oracles.load_samples_csv as it read every file before np.loadtxt."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        expected = [f"x{i + 1}" for i in range(len(header))]
        if header != expected:
            raise InputError(f"{path}: line 1: expected header "
                             f"{','.join(expected)!r}, got {','.join(header)!r}")
        d = len(header)
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != d:
                raise InputError(f"{path}: line {reader.line_num}: expected {d} fields, "
                                 f"got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no sample rows")
    return as_samples(np.asarray(rows))


def component_logliks_broadcast(dist, X) -> np.ndarray:
    """(Q, K) log w_k + log N(x_q; mu_k, s^2 I), the squared distances
    summed over a (Q, K, d) array of differences."""
    s2 = dist.scale ** 2
    sq = np.square(X[:, None, :] - dist.means[None, :, :]).sum(-1)
    with np.errstate(divide="ignore"):
        logw = np.log(dist.weights)
    return logw[None, :] - sq / (2.0 * s2) - 0.5 * dist.dim * np.log(2.0 * np.pi * s2)


def shift_targets_per_entry(shifts, min_dim, target, max_dim=None):
    """spectral_linalg._shift_targets for one sweep entry: every shift
    shares one target and one cap. A stop rule that holds once the basis
    holds min_dim vectors and every (K + s I) y = b has met target by its
    Lanczos residual estimate, or the basis holds max_dim vectors; and
    dims, each shift's step of meeting it (0: not yet)."""
    piv, last = np.ones(len(shifts)), np.ones(len(shifts))
    dims = np.zeros(len(shifts), dtype=np.int64)

    def stop(alpha, beta):
        b = beta[-2] if len(beta) > 1 else 0.0
        piv[:] = alpha[-1] + shifts - b * b / piv
        last[:] = last * (b if len(beta) > 1 else 1.0) / np.abs(piv)
        dims[(dims == 0) & (beta[-1] * last <= target)] = len(beta)
        return len(beta) >= min_dim and (bool(dims.all())
                                         or (max_dim is not None and len(beta) >= max_dim))
    return stop, dims


def all_rules(rules):
    """The stop rule that holds where every rule holds; each sees every step,
    so each keeps its own pivots."""
    return lambda alpha, beta: all([rule(alpha, beta) for rule in rules])


def query_tables_whole(spec: MatrixKernelSpec, queries, samples, zeta: bool = True,
                       cross: bool = True) -> tuple:
    """kernels.query_tables as one whole-array pass: U = sq_dists(queries,
    samples) and every radial table Q x M at once, out of place."""
    M, d = samples.shape
    k = spec.scalar
    aa = np.einsum("ij,ij->i", queries, queries)
    bb = np.einsum("ij,ij->i", samples, samples)
    U = np.maximum(aa[:, None] + bb[None, :] - 2.0 * (queries @ samples.T), 0.0)
    p2 = k.d2phi(U) if spec.kind == "curl_free" else None
    z = None
    if zeta:
        if p2 is None:
            W = (2.0 / M) * k.dphi(U)
        else:
            W = (2.0 * U * k.d3phi(U) + (d + 2) * p2) * (-4.0 / M)
        z = W @ samples - W.sum(axis=1)[:, None] * queries
    if not cross:
        return z, None
    if p2 is None:
        return z, (k.phi(U),)
    if d > 1:
        return z, (k.dphi(U), p2)
    return z, (p2 * U * -4.0 - 2.0 * k.dphi(U),)


def galerkin_replay(basis, shift: float, target: float, scale: float, max_dim: int = None):
    """KrylovBasis.galerkin with met replayed by a stop rule over the
    one-element shift array (shift_targets_per_entry), called at every
    step as a build calls it."""
    n = len(basis.V) if max_dim is None else min(max_dim, len(basis.V))
    stop, dims = shift_targets_per_entry(np.array([shift], dtype=np.float64), 1, target)
    alpha, beta = np.diag(basis.T), np.append(np.diag(basis.T, 1), basis.beta)
    for k in range(1, n + 1):
        if stop(alpha[:k], beta[:k]):
            break
    met = int(dims[0])
    k = met or n
    try:
        z = np.linalg.solve(basis.T[:k, :k] + shift * np.eye(k), np.eye(1, k)[0])
    except np.linalg.LinAlgError:
        return met, None
    return met, scale * (z @ basis.V[:k])


def landweber_recursion(gram, ts, eta: float):
    """[(c_t, a_t) for t in sorted ts] of the Landweber loop over gram:
    c_t = c_{t-1} - (eta/M) K c_{t-1} - (eta a_{t-1}/M) h, a_t = -t eta."""
    M = gram.samples.shape[0]
    h, c, out = gram.divergence(), np.zeros(gram.dim), []
    for tau in range(1, max(ts) + 1):
        a_prev = -(tau - 1) * eta
        c = c - (eta / M) * gram.matvec(c) - (eta * a_prev / M) * h
        if tau in ts:
            out.append((c.copy(), -tau * eta))
    return out


def nu_method_recursion(gram, ts, nu: float):
    """[(c_t, a_t) for t in sorted ts] of the nu-method loop over gram, a_t
    by its own recursion: a_0 = 0, a_1 = -omega_1, c_0 = c_1 = 0, then
    c_t = (1+u_t) c_{t-1} - (omega_t/M)(a_{t-1} h + K c_{t-1}) - u_t c_{t-2}
    and a_t = (1+u_t) a_{t-1} - u_t a_{t-2} - omega_t."""
    M = gram.samples.shape[0]
    h = gram.divergence()
    a_prev, a_cur = 0.0, -estimators.nu_coefficients(1, nu)[1]
    c_prev, c_cur = np.zeros(gram.dim), np.zeros(gram.dim)
    out = [(c_cur.copy(), a_cur)] if 1 in ts else []
    for tau in range(2, max(ts) + 1):
        u, w = estimators.nu_coefficients(tau, nu)
        c_next = (1.0 + u) * c_cur - (w / M) * (a_cur * h + gram.matvec(c_cur)) - u * c_prev
        a_next = (1.0 + u) * a_cur - u * a_prev - w
        c_prev, c_cur = c_cur, c_next
        a_prev, a_cur = a_cur, a_next
        if tau in ts:
            out.append((c_cur.copy(), a_cur))
    return out
