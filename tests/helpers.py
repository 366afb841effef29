"""Reference helpers that only the tests use.

Pointwise kernel blocks, a matrix-backed operator, spectral calculus
through a full eigensystem, the append-and-refit score heuristic and the
line-by-line CSV reader: slow or naive forms that the package's fast paths
are checked against.
"""

import csv

import numpy as np

from scorekit import spectral_linalg
from scorekit.errors import InputError, NumericError
from scorekit.estimators import fit_truncated_tikhonov
from scorekit.kernels import MatrixKernelSpec, _as_vector, as_samples


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
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d:
                raise InputError(f"{path}: line {lineno}: expected {d} fields, "
                                 f"got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise InputError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no sample rows")
    return as_samples(np.asarray(rows))
