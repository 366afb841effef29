"""Radial scalar kernels and the matrix-valued kernels built from them.

Everything is parameterized by the squared distance u = ||x - y||^2, which
keeps all derivative formulas polynomial in u and avoids the 1/r singularity
of the distance parameterization at r = 0.

Two scalar families, both normalized so phi(0) = 1:

    imq:      phi(u) = (1 + u/sigma^2)^(-1/2)
    gaussian: phi(u) = exp(-u / (2 sigma^2))

Two matrix-valued kernels on top of a scalar phi:

    diagonal:  K(x, y) = phi(u) * I_d
    curl_free: K(x, y) = -4 phi''(u) r r^T - 2 phi'(u) I_d,   r = x - y

The curl-free kernel equals the mixed second derivatives d/dx_i d/dy_j of
the scalar kernel, so every field in its span is a gradient field.
"""

import numpy as np

from .errors import InputError

FAMILIES = ("imq", "gaussian")
KINDS = ("diagonal", "curl_free")


# ======================================================================
# scalar radial kernels
# ======================================================================

class ScalarRadialKernel:
    """A radial kernel family phi(u) with derivatives up to third order."""

    __slots__ = ("family", "bandwidth")

    def __init__(self, family: str, bandwidth: float):
        if family not in FAMILIES:
            raise InputError(f"unknown kernel family {family!r}; expected one of {FAMILIES}")
        bandwidth = float(bandwidth)
        if not np.isfinite(bandwidth) or bandwidth <= 0.0:
            raise InputError(f"bandwidth must be a positive finite real, got {bandwidth!r}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "bandwidth", bandwidth)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarRadialKernel is immutable")

    def __repr__(self):
        return f"ScalarRadialKernel({self.family!r}, bandwidth={self.bandwidth!r})"

    def __eq__(self, other):
        return (isinstance(other, ScalarRadialKernel)
                and self.family == other.family and self.bandwidth == other.bandwidth)

    def __hash__(self):
        return hash((self.family, self.bandwidth))

    # phi and its u-derivatives, vectorized over u arrays.

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


class MatrixKernelSpec:
    """Diagonal or curl-free matrix-valued kernel over a scalar radial kernel."""

    __slots__ = ("kind", "scalar")

    def __init__(self, kind: str, scalar: ScalarRadialKernel):
        if kind not in KINDS:
            raise InputError(f"unknown matrix kernel kind {kind!r}; expected one of {KINDS}")
        if not isinstance(scalar, ScalarRadialKernel):
            raise InputError("scalar must be a ScalarRadialKernel")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "scalar", scalar)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixKernelSpec is immutable")

    def __repr__(self):
        return f"MatrixKernelSpec({self.kind!r}, {self.scalar!r})"

    def __eq__(self, other):
        return (isinstance(other, MatrixKernelSpec)
                and self.kind == other.kind and self.scalar == other.scalar)

    def __hash__(self):
        return hash((self.kind, self.scalar))


# ======================================================================
# sample validation and pairwise geometry
# ======================================================================

def as_samples(X) -> np.ndarray:
    """Validate an M x d sample matrix: 2-D, finite, M >= 1, d >= 1."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2:
        raise InputError(f"samples must be a 2-D (M, d) array, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError(f"samples need M >= 1 and d >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("samples contain non-finite entries")
    return np.ascontiguousarray(arr)


def _as_vector(x, d: int, name: str = "query") -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (d,):
        raise InputError(f"{name} must have shape ({d},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InputError(f"{name} contains non-finite entries")
    return v


def _as_queries(Xq, d: int) -> np.ndarray:
    q = np.asarray(Xq, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != d:
        raise InputError(f"queries must have shape (Q, {d}), got {q.shape}")
    if not np.all(np.isfinite(q)):
        raise InputError("queries contain non-finite entries")
    return np.ascontiguousarray(q)


def sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """All pairwise squared Euclidean distances, clipped at zero."""
    aa = np.einsum("ij,ij->i", A, A)
    bb = np.einsum("ij,ij->i", B, B)
    out = aa[:, None] + bb[None, :] - 2.0 * (A @ B.T)
    np.maximum(out, 0.0, out=out)
    return out


def scalar_gram(kernel: ScalarRadialKernel, X: np.ndarray, Y: np.ndarray = None) -> np.ndarray:
    """k(X, Y) with k(x, y) = phi(||x - y||^2); Y defaults to X."""
    X = as_samples(X)
    Y = X if Y is None else as_samples(Y)
    return kernel.phi(sq_dists(X, Y))


# ======================================================================
# query tables and the divergence field zeta
# ======================================================================

def query_tables(spec: MatrixKernelSpec, queries, samples, subset=None,
                 zeta: bool = True, cross: bool = True) -> tuple:
    """(z, tables) from one U = sq_dists(queries, samples), phi'' shared.

    z is zeta_batch(spec, samples, queries) if zeta; tables, if cross, are
    what cross_apply reads over the basis samples[subset] (all samples if
    subset is None): (phi(U),) diagonal, (phi'(U), phi''(U)) curl-free.
    The arrays are not validated; callers pass checked ones.
    """
    M, d = samples.shape
    k = spec.scalar
    U = sq_dists(queries, samples)
    p2 = k.d2phi(U) if spec.kind == "curl_free" else None
    z = None
    if zeta:
        if p2 is None:
            W = (2.0 / M) * k.dphi(U)
        else:
            # in place, freed before the cross tables: at most 4 Q x M arrays live
            W = 2.0 * U
            W *= k.d3phi(U)
            W += (d + 2) * p2
            W *= -4.0 / M
        z = W @ samples - W.sum(axis=1)[:, None] * queries
        del W
    if not cross:
        return z, None
    B = U if subset is None else U[:, subset]
    if p2 is None:
        return z, (k.phi(B),)
    return z, (k.dphi(B), p2 if subset is None else p2[:, subset])


def zeta_batch(spec: MatrixKernelSpec, samples, queries) -> np.ndarray:
    """Empirical kernel-divergence field at each query row.

    diagonal:   zeta(x) = (1/M) sum_m 2 phi'(u_m) (x^m - x)
    curl_free:  zeta(x) = -(4/M) sum_m [(d+2) phi''(u_m) + 2 u_m phi'''(u_m)] (x^m - x)

    Both are the divergence of the kernel with respect to its sample
    argument, averaged over the samples; u_m = ||x^m - x||^2.
    """
    X = as_samples(samples)
    return query_tables(spec, _as_queries(queries, X.shape[1]), X, cross=False)[0]


def zeta(spec: MatrixKernelSpec, samples, query) -> np.ndarray:
    """zeta at a single d-vector query."""
    X = as_samples(samples)
    q = _as_vector(query, X.shape[1])
    return zeta_batch(spec, X, q[None, :])[0]


def h_vector(spec: MatrixKernelSpec, samples) -> np.ndarray:
    """zeta stacked at the samples themselves: (zeta(x^1), ..., zeta(x^M))."""
    X = as_samples(samples)
    return zeta_batch(spec, X, X).ravel()


# ======================================================================
# Gram matrices: dense and implicit (matrix-free) forms
# ======================================================================

class _Gram:
    """What both Gram forms share: spec, samples and the cached h."""

    __slots__ = ("spec", "samples", "_h")

    def __init__(self, spec, samples):
        self.spec = spec
        self.samples = samples
        self._h = None

    @property
    def dim(self) -> int:
        return self.samples.size  # M * d

    def divergence(self) -> np.ndarray:
        """Cached h_vector(spec, samples), read-only; it depends on neither
        lam nor the fit scheme, so every fit over this Gram shares it."""
        if self._h is None:
            h = h_vector(self.spec, self.samples)
            h.setflags(write=False)
            self._h = h
        return self._h


class DenseGram(_Gram):
    """Materialized Md x Md Gram matrix over a sample set."""

    __slots__ = ("matrix", "_eig")

    def __init__(self, spec, samples, matrix):
        super().__init__(spec, samples)
        self.matrix = matrix
        self._eig = None

    def matvec(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64).ravel()
        if b.shape[0] != self.dim:
            raise InputError(f"vector length {b.shape[0]} != Gram dimension {self.dim}")
        return self.matrix @ b

    def eigensystem(self):
        """Cached full eigendecomposition (values descending)."""
        if self._eig is None:
            from .spectral_linalg import sym_eig
            self._eig = sym_eig(0.5 * (self.matrix + self.matrix.T))
        return self._eig


class ImplicitGram(_Gram):
    """Matrix-free Gram operator.

    Stores only O(M^2) scalar-derivative tables; a matvec is cross_apply
    evaluated at the samples over those tables, O(M^2 d) time instead of
    touching an Md x Md matrix (O(M^2 d^2) storage dense).
    """

    __slots__ = ("_tables", "_keig")

    def __init__(self, spec: MatrixKernelSpec, samples):
        X = as_samples(samples)
        super().__init__(spec, X)
        self._keig = None
        self._tables = query_tables(spec, X, X, zeta=False)[1]

    def scalar_eigensystem(self):
        """Cached eigendecomposition of the scalar M x M Gram (diagonal kind).

        For a diagonal kernel the Md x Md spectrum is exactly the scalar
        spectrum with multiplicity d, so this is the full eigen content.
        """
        if self.spec.kind != "diagonal":
            raise InputError("scalar_eigensystem is only defined for diagonal kernels")
        if self._keig is None:
            from .spectral_linalg import sym_eig
            self._keig = sym_eig(0.5 * (self._tables[0] + self._tables[0].T))
        return self._keig

    def scalar_matrix(self) -> np.ndarray:
        """The scalar M x M Gram k(X, X) of a diagonal kernel."""
        if self.spec.kind != "diagonal":
            raise InputError("scalar_matrix is only defined for diagonal kernels")
        return self._tables[0]

    def matvec(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64).ravel()
        if b.shape[0] != self.dim:
            raise InputError(f"vector length {b.shape[0]} != Gram dimension {self.dim}")
        X = self.samples
        return cross_apply(self.spec, X, X, b.reshape(X.shape), _tables=self._tables).ravel()


def cross_gram(spec: MatrixKernelSpec, rows, cols) -> np.ndarray:
    """Dense block matrix of K(r_p, c_q); shape (P*d, Q*d), d x d blocks."""
    A = as_samples(rows)
    P, d = A.shape
    B = _as_queries(cols, d)
    Q = B.shape[0]
    if spec.kind == "diagonal":
        return np.kron(scalar_gram(spec.scalar, A, B), np.eye(d))
    R = A[:, None, :] - B[None, :, :]              # (P, Q, d)
    U = np.einsum("pqk,pqk->pq", R, R)
    P1 = spec.scalar.dphi(U)
    P2 = spec.scalar.d2phi(U)
    K4 = np.einsum("pq,pqi,pqj->piqj", -4.0 * P2, R, R)
    for i in range(d):
        K4[:, i, :, i] -= 2.0 * P1
    return np.ascontiguousarray(K4.reshape(P * d, Q * d))


def assemble_gram(spec: MatrixKernelSpec, samples, mode: str = "dense"):
    """Build the Md x Md Gram over the samples, dense or implicit.

    Mode is an explicit caller choice; there is no size-based auto switch.
    """
    if mode == "implicit":
        return ImplicitGram(spec, samples)
    if mode != "dense":
        raise InputError(f"unknown gram mode {mode!r}; expected 'dense' or 'implicit'")
    X = as_samples(samples)
    M, d = X.shape
    try:
        K = cross_gram(spec, X, X)
    except MemoryError as exc:
        need = (M * d) ** 2 * 8
        raise MemoryError(f"dense Gram for M={M}, d={d} needs ~{need} bytes") from exc
    return DenseGram(spec, X, K)


def cross_apply(spec: MatrixKernelSpec, queries, basis, coeffs: np.ndarray,
                _tables=None) -> np.ndarray:
    """sum_j K(x_q, b_j) c_j for each query row; coeffs is N x d.

    This is the K_{xX} c part of every prediction, evaluated without
    materializing the Q*d x N*d cross Gram. _tables, when given, is
    query_tables(spec, queries, basis)[1] for arrays the caller has
    validated, and only its shape is checked.
    """
    Q, B, C = queries, basis, coeffs
    if _tables is None:
        B = as_samples(basis)
        N, d = B.shape
        Q = _as_queries(queries, d)
        C = np.asarray(coeffs, dtype=np.float64)
        if C.shape != (N, d):
            raise InputError(f"coeffs must have shape ({N}, {d}), got {C.shape}")
        _tables = query_tables(spec, Q, B, zeta=False)[1]
    elif any(T.shape != (Q.shape[0], B.shape[0]) for T in _tables):
        raise InputError(f"query tables must have shape ({Q.shape[0]}, {B.shape[0]})")
    if spec.kind == "diagonal":
        (k,) = _tables
        return k @ C
    p1, p2 = _tables
    S = Q @ C.T                               # S[q, l] = x_q . c^l
    t = np.einsum("ij,ij->i", B, C)           # t[l] = b^l . c^l
    alpha = p2 * (S - t[None, :])             # phi''(u_ql) * (r_ql . c^l)
    return -4.0 * (alpha.sum(axis=1)[:, None] * Q - alpha @ B) - 2.0 * (p1 @ C)
