"""Radial scalar kernels and the matrix-valued kernels built from them.

Everything is parameterized by the squared distance u = ||x - y||^2, which
keeps all derivative formulas polynomial in u and avoids the 1/r singularity
of the distance parameterization at r = 0.

Two scalar families, both normalized so phi(0) = 1:

    imq:      phi(u) = (1 + u/sigma^2)^(-1/2)
    gaussian: phi(u) = exp(-u / (2 sigma^2))

One formula per family gives the n-th u-derivative:

    imq:      phi^(n)(u) = c_n sigma^(-2n) (1 + u/sigma^2)^(-1/2 - n),
              c_n = (-1/2)(-3/2)...(1/2 - n), c_0 = 1
    gaussian: phi^(n)(u) = (-1/2)^n sigma^(-2n) exp(-u / (2 sigma^2))

Two matrix-valued kernels on top of a scalar phi:

    diagonal:  K(x, y) = phi(u) * I_d
    curl_free: K(x, y) = -4 phi''(u) r r^T - 2 phi'(u) I_d,   r = x - y

The curl-free kernel equals the mixed second derivatives d/dx_i d/dy_j of
the scalar kernel, so every field in its span is a gradient field.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymv

from .errors import InputError
from .spectral_linalg import check_symmetric

FAMILIES = ("imq", "gaussian")
KINDS = ("diagonal", "curl_free")

# a curl-free Gram at d > 1 of more than this many rows (Md) is matrix-free
# (_matrix_free): dense it would take (Md)^2 * 8 bytes, 128 MB at the limit
DENSE_SYSTEM_LIMIT = 4096

# entries (8 bytes each) of one block of a Q x M table pass: query_tables
# fills its tables and predict takes its query chunks this many at a time
BLOCK_ENTRIES = 2 ** 17


# ======================================================================
# scalar radial kernels
# ======================================================================

@dataclass(frozen=True)
class ScalarRadialKernel:
    """A radial kernel family phi(u) with derivatives up to third order."""

    family: str
    bandwidth: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        bandwidth = float(self.bandwidth)
        if not np.isfinite(bandwidth) or bandwidth <= 0.0:
            raise InputError(f"bandwidth must be a positive finite real, got {bandwidth!r}")
        object.__setattr__(self, "bandwidth", bandwidth)

    # phi and its u-derivatives, vectorized over u arrays; out, an array
    # shaped as u (u itself allowed), receives the table instead of a new one.

    def phi(self, u, out=None):
        return self._derivative(0, u, out)

    def dphi(self, u, out=None):
        return self._derivative(1, u, out)

    def d2phi(self, u, out=None):
        return self._derivative(2, u, out)

    def d3phi(self, u, out=None):
        return self._derivative(3, u, out)

    def _derivative(self, n: int, u, out=None):
        """phi^(n)(u) by the module docstring's formula."""
        u = np.asarray(u, dtype=np.float64)
        s2 = self.bandwidth ** 2
        if self.family == "imq":
            base = np.add(np.divide(u, s2, out=out), 1.0, out=out)
            # ** keeps a 0-d u on scalar pow, which can round apart from np.power's loop
            table = base ** (-0.5 - n) if out is None else np.power(base, -0.5 - n, out=out)
            c = math.prod(-0.5 - k for k in range(n))
        else:
            table = np.exp(np.divide(np.negative(u, out=out), 2.0 * s2, out=out), out=out)
            c = (-0.5) ** n
        if n:
            # in place: a product into a new array would allocate a second table
            table *= c / s2 ** n
        return table


@dataclass(frozen=True)
class MatrixKernelSpec:
    """Diagonal or curl-free matrix-valued kernel over a scalar radial kernel."""

    kind: str
    scalar: ScalarRadialKernel

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown matrix kernel kind {self.kind!r}; expected one of {KINDS}")
        if not isinstance(self.scalar, ScalarRadialKernel):
            raise InputError("scalar must be a ScalarRadialKernel")


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


def sq_dists(A: np.ndarray, B: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """All pairwise squared Euclidean distances, clipped at zero; out, a
    len(A) x len(B) array, receives them instead of a new one."""
    aa = np.einsum("ij,ij->i", A, A)
    bb = np.einsum("ij,ij->i", B, B)
    out = np.add(aa[:, None], bb[None, :], out=out)
    ab = A @ B.T
    ab *= 2.0
    out -= ab
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

def query_tables(spec: MatrixKernelSpec, queries, samples, zeta: bool = True,
                 cross: bool = True, _out=None) -> tuple:
    """(z, tables) from one U = sq_dists(queries, samples), phi'' shared.

    z is zeta_batch(spec, samples, queries) if zeta; tables, if cross, are
    what cross_apply reads over the basis samples: (phi(U),) diagonal,
    (phi'(U), phi''(U)) curl-free at d > 1 and, at d = 1, where the
    curl-free kernel is the scalar -2 phi'(u) - 4 phi''(u) u, the one table
    (-2 phi'(U) - 4 phi''(U) U,). _out, a tuple of arrays shaped as the
    tables, receives them.

    Only z and the tables are allocated whole. They are filled in blocks of
    query rows through work arrays of one block, allocated once and reused
    by every block, so the temporaries stay O(BLOCK_ENTRIES) whatever Q: one
    block of all Q rows when Q x M <= BLOCK_ENTRIES (every predict chunk),
    else of max(8, BLOCK_ENTRIES // M) rows rounded down to a multiple of
    the 8 rows BLAS groups, so that a block's products round as one whole
    pass's would. The arrays are not validated; callers pass checked ones.
    """
    Q = queries.shape[0]
    M, d = samples.shape
    k = spec.scalar
    curl = spec.kind == "curl_free"
    z = np.empty((Q, d)) if zeta else None
    tables = None
    if cross:
        tables = _out or tuple(np.empty((Q, M)) for _ in range(2 if curl and d > 1 else 1))
    step = max(1, Q) if Q * M <= BLOCK_ENTRIES else max(8, BLOCK_ENTRIES // M // 8 * 8)

    def work(needed):
        return np.empty((min(step, Q), M)) if needed else None
    U_w, W_w = work(True), work(zeta)
    T_w = work(curl and (zeta or d == 1))
    # phi'' is written straight into its output table when there is one
    P2_w = work(curl and not cross)
    for lo in range(0, Q, step):
        hi = min(lo + step, Q)
        n = hi - lo
        U = sq_dists(queries[lo:hi], samples, out=U_w[:n])
        p2 = None
        if curl:
            p2 = k.d2phi(U, out=tables[-1][lo:hi] if P2_w is None else P2_w[:n])
        if zeta:
            W = W_w[:n]
            if p2 is None:
                k.dphi(U, out=W)
                W *= 2.0 / M
            else:
                T = T_w[:n]
                np.multiply(U, 2.0, out=W)
                W *= k.d3phi(U, out=T)
                W += np.multiply(p2, d + 2, out=T)
                W *= -4.0 / M
            zq = np.matmul(W, samples, out=z[lo:hi])
            zq -= W.sum(axis=1)[:, None] * queries[lo:hi]
        if not cross:
            continue
        if p2 is None:
            k.phi(U, out=tables[0][lo:hi])
        elif d > 1:
            k.dphi(U, out=tables[0][lo:hi])
        else:
            # in place over phi'', which zeta has read
            p2 *= U
            p2 *= -4.0
            P1 = k.dphi(U, out=T_w[:n])
            P1 *= 2.0
            p2 -= P1
    return z, tables


def zeta_batch(spec: MatrixKernelSpec, samples, queries, _table=None) -> np.ndarray:
    """Empirical kernel-divergence field at each query row.

    diagonal:   zeta(x) = (1/M) sum_m 2 phi'(u_m) (x^m - x)
    curl_free:  zeta(x) = -(4/M) sum_m [(d+2) phi''(u_m) + 2 u_m phi'''(u_m)] (x^m - x)

    Both are the divergence of the kernel with respect to its sample
    argument, averaged over the samples; u_m = ||x^m - x||^2. _table, a
    Q x M array for a curl-free kernel at d = 1, receives the scalar kernel
    K(queries, samples), built from the same U and phi'' as zeta.
    """
    X = as_samples(samples)
    Q = _as_queries(queries, X.shape[1])
    return query_tables(spec, Q, X, cross=_table is not None, _out=(_table,))[0]


def zeta(spec: MatrixKernelSpec, samples, query) -> np.ndarray:
    """zeta at a single d-vector query."""
    X = as_samples(samples)
    q = _as_vector(query, X.shape[1])
    return zeta_batch(spec, X, q[None, :])[0]


def h_vector(spec: MatrixKernelSpec, samples, _gram=None) -> np.ndarray:
    """zeta stacked at the samples: (zeta(x^1), ..., zeta(x^M)).

    _gram, an M x M array for a curl-free kernel at d = 1, receives the
    dense Gram in the same pass, as zeta_batch's _table.
    """
    X = as_samples(samples)
    return zeta_batch(spec, X, X, _table=_gram).ravel()


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
    """A Gram held as a matrix G with K = G (x) I_m: the scalar M x M
    factor k of a diagonal kernel (m = d), the whole Md x Md matrix of a
    curl-free one (m = 1).

    A hand-built one is checked: G must have that shape and be exactly
    symmetric (check_symmetric, which also refuses a non-finite entry), or
    InputError is raised. assemble_gram's Grams are exactly symmetric by
    construction and skip the check (_symmetric=True).
    """

    __slots__ = ("matrix", "_eig", "_coords")

    def __init__(self, spec, samples, matrix, _symmetric: bool = False):
        X = as_samples(samples)
        n = X.size if spec.kind == "curl_free" else X.shape[0]
        if not _symmetric:
            matrix = np.asarray(matrix, dtype=np.float64)
            if matrix.shape != (n, n):
                raise InputError(f"a {spec.kind} Gram over {X.shape[0]} samples in "
                                 f"{X.shape[1]} dimensions is {n} x {n}, got shape "
                                 f"{matrix.shape}")
            check_symmetric(matrix, 0.0, "Gram matrix")
        super().__init__(spec, X)
        self.matrix = matrix
        self._eig = None
        self._coords = None

    def matvec(self, b: np.ndarray) -> np.ndarray:
        """K b. A one-column product (m = 1) is BLAS dsymv, which reads one
        triangle of G; G is exactly symmetric, and G.T is the
        Fortran-ordered view dsymv takes without a copy. The m columns of a
        diagonal kernel's B are one G @ B."""
        b = np.asarray(b, dtype=np.float64).ravel()
        if b.shape[0] != self.dim:
            raise InputError(f"vector length {b.shape[0]} != Gram dimension {self.dim}")
        G = self.matrix
        if b.size == len(G):
            return dsymv(1.0, G.T, b)
        return (G @ b.reshape(len(G), -1)).ravel()

    def eigensystem(self):
        """Cached spectrum of G, values descending, from sym_eig on G itself
        (no copy of the caller's). Where each filter lifts one column (m =
        1: every curl-free Gram, a diagonal one at d = 1) it is sym_eig's
        TridiagonalEigen, which never forms the n x n eigenvector matrix;
        a diagonal kernel's m = d columns per lift keep eigh's EigenSystem,
        whose explicit vectors lift a block faster. Both offer values,
        coords and lift."""
        if self._eig is None:
            from .spectral_linalg import sym_eig
            self._eig = sym_eig(self.matrix, _reduced=self.dim == len(self.matrix))
        return self._eig

    def divergence_coords(self) -> np.ndarray:
        """Cached eigensystem().coords(H), H = h reshaped to G's rows, read
        only: the one product with h every eigen filter over this Gram
        shares."""
        if self._coords is None:
            eig = self.eigensystem()
            Y = eig.coords(self.divergence().reshape(len(self.matrix), -1))
            Y.setflags(write=False)
            self._coords = Y
        return self._coords


class ImplicitGram(_Gram):
    """Matrix-free Gram operator.

    Stores only M x M tables, query_tables(spec, X, X)'s: phi'(U) and
    phi''(U) (a hand-built one at d = 1 keeps the scalar kernel). A matvec is
    cross_apply evaluated at the samples over them, O(M^2 d) time instead of
    touching an Md x Md matrix (O(M^2 d^2) storage dense). The tables are
    built by the first matvec, so a fit that refuses this form allocates
    nothing.
    """

    __slots__ = ("_tables",)

    def __init__(self, spec: MatrixKernelSpec, samples):
        super().__init__(spec, as_samples(samples))
        self._tables = None

    def matvec(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64).ravel()
        if b.shape[0] != self.dim:
            raise InputError(f"vector length {b.shape[0]} != Gram dimension {self.dim}")
        X = self.samples
        if self._tables is None:
            self._tables = query_tables(self.spec, X, X, zeta=False)[1]
        return cross_apply(self.spec, X, X, b.reshape(X.shape), _tables=self._tables).ravel()


def cross_gram(spec: MatrixKernelSpec, rows, cols) -> np.ndarray:
    """Dense matrix of the kernel between two point sets.

    A diagonal kernel K = k I_d gives its scalar factor k(r_p, c_q), P x Q.
    A curl-free one gives the (P*d, Q*d) matrix of d x d blocks K(r_p, c_q),
    filled in row blocks of ~2**20 entries.
    """
    A = as_samples(rows)
    P, d = A.shape
    B = _as_queries(cols, d)
    Q = B.shape[0]
    if spec.kind == "diagonal":
        return scalar_gram(spec.scalar, A, B)
    out = np.empty((P, d, Q, d))
    step = max(1, 2 ** 20 // max(1, Q * d * d))
    for lo in range(0, P, step):
        R = A[lo:lo + step, None, :] - B[None, :, :]    # (rows, Q, d)
        U = np.einsum("pqk,pqk->pq", R, R)
        P1 = spec.scalar.dphi(U)
        P2 = spec.scalar.d2phi(U)
        K4 = np.einsum("pq,pqi,pqj->piqj", -4.0 * P2, R, R, out=out[lo:lo + step])
        for i in range(d):
            K4[:, i, :, i] -= 2.0 * P1
    return out.reshape(P * d, Q * d)


def _matrix_free(spec: MatrixKernelSpec, M: int, d: int) -> bool:
    """Whether spec's Gram over M samples in d dimensions is matrix-free:
    curl-free at d > 1 with Md > DENSE_SYSTEM_LIMIT. Every other Gram, a
    scalar M x M kernel among them, is dense."""
    return spec.kind == "curl_free" and d > 1 and M * d > DENSE_SYSTEM_LIMIT


def assemble_gram(spec: MatrixKernelSpec, samples):
    """The Gram of spec over the samples, in the one form _matrix_free
    picks: an ImplicitGram where it holds, else a DenseGram, of the scalar
    M x M factor k of a diagonal kernel K = k I_d or of the whole curl-free
    Gram. A caller who wants the matrix-free form at any size builds
    ImplicitGram(spec, X).

    At d = 1 a curl-free Gram is the scalar kernel -2 phi'(u) - 4 phi''(u) u
    of query_tables(spec, X, X), built in h_vector's pass, which reads the
    same U and phi'': the Gram comes back with h cached. Elsewhere it is
    cross_gram's, and a curl-free one at d > 1 is made exactly symmetric in
    place, in row blocks, bit for bit 0.5 * (K + K.T). Every dense Gram is
    exactly symmetric, which DenseGram.matvec relies on, so it skips
    DenseGram's own check.
    """
    X = as_samples(samples)
    M, d = X.shape
    if _matrix_free(spec, M, d):
        return ImplicitGram(spec, X)
    n = M * d if spec.kind == "curl_free" else M
    h = None
    try:
        if spec.kind == "curl_free" and d == 1:
            K = np.empty((M, M))
            h = h_vector(spec, X, _gram=K)
        else:
            K = cross_gram(spec, X, X)
    except MemoryError as exc:
        raise MemoryError(f"dense Gram for M={M}, d={d} needs ~{n * n * 8} bytes") from exc
    if spec.kind == "curl_free" and d > 1:
        step = max(1, 2 ** 20 // (M * d))
        for lo in range(0, M * d, step):
            S = 0.5 * (K[lo:lo + step, lo:] + K[lo:, lo:lo + step].T)
            K[lo:lo + step, lo:], K[lo:, lo:lo + step] = S, S.T
    gram = DenseGram(spec, X, K, _symmetric=True)
    if h is not None:
        h.setflags(write=False)
        gram._h = h
    return gram


def cross_apply(spec: MatrixKernelSpec, queries, basis, coeffs: np.ndarray,
                _tables=None) -> np.ndarray:
    """sum_j K(x_q, b_j) c_j for each query row; coeffs is N x d.

    This is the K_{xX} c part of every prediction, evaluated without
    materializing the Q*d x N*d cross Gram. _tables, when given, is
    query_tables(spec, queries, basis)[1] for arrays the caller has
    validated, and only its shape is checked. One table (a diagonal
    kernel's phi, a curl-free one's whole scalar kernel at d = 1) is the
    scalar cross Gram k, applied as k @ coeffs.
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
    if len(_tables) == 1:
        (k,) = _tables
        return k @ C
    p1, p2 = _tables
    # in place: one Q x N array, alpha[q, l] = phi''(u_ql) * (r_ql . c^l)
    A = Q @ C.T                               # x_q . c^l
    A -= np.einsum("ij,ij->i", B, C)          # minus b^l . c^l
    A *= p2
    out = A @ B
    out -= A.sum(axis=1)[:, None] * Q
    out *= 4.0
    out -= 2.0 * (p1 @ C)
    return out
