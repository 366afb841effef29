"""Score-estimator fits.

Every scheme below produces an estimate of grad log p with the shared
prediction form

    s_hat(x) = a * zeta(x) + sum_j K(x, b_j) c_j

differing only in how the coefficients c and the zeta multiplier a are
computed from the Gram matrix K and the stacked divergence vector h:

    tikhonov            (K + M lam I) c = h / lam,            a = -1/lam
    truncated_tikhonov  c = -sum_j u_j u_j^T h / ((s_j+lam) M s_j),  a = 0
    spectral_cutoff     c = -sum_{s_j >= lam} u_j u_j^T h / (M s_j^2), a = 0
    landweber           c_t = (I - eta K/M) c_{t-1} - (t-1) eta^2 h / M, a = -t eta
    nu_method           two-term accelerated recursion in (c_t, a_t)
    nystrom             reduced basis Z: c_Z = -(K_ZX K_XZ/M + lam K_ZZ)^{-1} h_Z

where s_j are eigenvalues of K/M with eigenvectors u_j, and h stacks zeta
at the samples. Eigenvalues below EPS_RANK_REL * s_max are treated as zero
wherever a scheme filters on the nonzero spectrum.
"""

import io
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .errors import FitError, InputError, NumericError
from .kernels import (
    DenseGram,
    ImplicitGram,
    MatrixKernelSpec,
    ScalarRadialKernel,
    _as_queries,
    as_samples,
    assemble_gram,
    cross_apply,
    cross_gram,
    h_vector,
    query_tables,
    scalar_gram,
    sq_dists,
    zeta_batch,
)
from .spectral_linalg import (
    EPS_RANK_REL,
    LinearOperator,
    conjugate_gradient,
    numeric_rank_mask,
    power_iteration,
    solve_spd,
    sym_eig,
)


# ======================================================================
# regularization scheme descriptors
# ======================================================================

@dataclass(frozen=True)
class Tikhonov:
    lam: float

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam <= 0:
            raise InputError(f"Tikhonov requires lam > 0, got {self.lam!r}")


@dataclass(frozen=True)
class TruncatedTikhonov:
    lam: float

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam <= 0:
            raise InputError(f"TruncatedTikhonov requires lam > 0, got {self.lam!r}")


@dataclass(frozen=True)
class SpectralCutoff:
    lam: float = None
    rank: int = None

    def __post_init__(self):
        if self.lam is not None and (not np.isfinite(self.lam) or self.lam <= 0):
            raise InputError(f"SpectralCutoff requires lam > 0, got {self.lam!r}")
        if self.rank is not None and self.rank < 1:
            raise InputError(f"SpectralCutoff rank must be >= 1, got {self.rank!r}")


@dataclass(frozen=True)
class Landweber:
    eta: float
    t: int

    def __post_init__(self):
        if not np.isfinite(self.eta) or self.eta <= 0:
            raise InputError(f"Landweber requires eta > 0, got {self.eta!r}")
        if self.t < 1:
            raise InputError(f"Landweber requires t >= 1, got {self.t!r}")


@dataclass(frozen=True)
class NuMethod:
    nu: float
    t: int

    def __post_init__(self):
        if not np.isfinite(self.nu) or self.nu < 1:
            raise InputError(f"NuMethod requires nu >= 1, got {self.nu!r}")
        if self.t < 1:
            raise InputError(f"NuMethod requires t >= 1, got {self.t!r}")


def landweber_iterations(lam: float) -> int:
    """Iteration count standing in for a penalty weight: t = floor(1/lam)."""
    if lam <= 0:
        raise InputError("lam must be positive")
    return max(1, int(np.floor(1.0 / lam)))


def nu_method_iterations(lam: float) -> int:
    """Accelerated schemes need ~lam^(-1/2) steps: t = floor(lam^(-1/2))."""
    if lam <= 0:
        raise InputError("lam must be positive")
    return max(1, int(np.floor(lam ** -0.5)))


def nu_coefficients(t: int, nu: float):
    """Recursion weights (u_t, omega_t) of the accelerated iteration."""
    u = ((t - 1) * (2 * t - 3) * (2 * t + 2 * nu - 1)
         / ((t + 2 * nu - 1) * (2 * t + 4 * nu - 1) * (2 * t + 2 * nu - 3)))
    w = (4 * (2 * t + 2 * nu - 1) * (t + nu - 1)
         / ((t + 2 * nu - 1) * (2 * t + 4 * nu - 1)))
    return u, w


# ======================================================================
# fitted state
# ======================================================================

class FittedScoreEstimator:
    """Immutable fitted state; predictions are a * zeta(x) + K_{x,basis} c."""

    __slots__ = ("kernel", "samples", "basis", "subset_indices", "coeffs",
                 "offset", "scheme", "meta")

    def __init__(self, kernel, samples, coeffs, offset, scheme,
                 subset_indices=None, meta=None):
        X = as_samples(samples).copy()
        X.setflags(write=False)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "samples", X)
        if subset_indices is None:
            basis = X
            idx = None
        else:
            idx = np.asarray(subset_indices, dtype=np.int64)
            basis = np.ascontiguousarray(X[idx])
            basis.setflags(write=False)
        object.__setattr__(self, "subset_indices", idx)
        object.__setattr__(self, "basis", basis)
        C = np.asarray(coeffs, dtype=np.float64).reshape(basis.shape)
        C = C.copy()
        C.setflags(write=False)
        object.__setattr__(self, "coeffs", C)
        object.__setattr__(self, "offset", float(offset))
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "meta", dict(meta or {}))

    def __setattr__(self, name, value):
        raise AttributeError("FittedScoreEstimator is immutable")

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def predict(self, queries) -> np.ndarray:
        return predict(self, queries)

    def log_density(self, query) -> float:
        return recover_log_density(self, query)


_PREDICT_CHUNK_ENTRIES = 2 ** 17


def predict(est: FittedScoreEstimator, queries, _shared=None) -> np.ndarray:
    """Evaluate the fitted score field at each query row.

    Rows go in chunks of max(1, 2**17 // N), N the columns of U (samples if
    the offset is nonzero, else the basis), each read from one query_tables
    call. _shared, when given, is query_tables(est.kernel, queries,
    est.samples), built once by a caller predicting several fits on one
    problem; it stands in for the chunks."""
    Q = _as_queries(np.atleast_2d(np.asarray(queries, dtype=np.float64)), est.dim)
    with_zeta = est.offset != 0.0
    X = est.samples if with_zeta else est.basis
    subset = est.subset_indices if with_zeta else None
    step = max(1, Q.shape[0] if _shared else _PREDICT_CHUNK_ENTRIES // X.shape[0])
    out = np.empty_like(Q)
    for lo in range(0, Q.shape[0], step):
        q = Q[lo:lo + step]
        z, tables = _shared or query_tables(est.kernel, q, X, subset, zeta=with_zeta)
        part = cross_apply(est.kernel, q, est.basis, est.coeffs, _tables=tables)
        out[lo:lo + step] = est.offset * z + part if with_zeta else part
    if not np.all(np.isfinite(out)):
        raise NumericError("prediction produced non-finite values")
    return out


# ======================================================================
# shared fit plumbing
# ======================================================================

def _resolve_gram(spec, X, mode, gram):
    if gram is not None:
        if gram.spec != spec:
            raise InputError("provided Gram was built for a different kernel spec")
        if gram.samples.shape != X.shape or not np.array_equal(gram.samples, X):
            raise InputError("provided Gram was built for different samples")
        return gram
    return assemble_gram(spec, X, mode)


def _eigen_gram(spec, X, gram, what):
    """The Gram whose cached spectrum the eigen-filter fits read.

    Diagonal kernels only need the scalar M x M spectrum, which a
    matrix-free Gram carries; curl-free ones need the dense Md x Md Gram,
    and a matrix-free one is refused.
    """
    if gram is not None:
        _resolve_gram(spec, X, None, gram)  # validates a given Gram
    if spec.kind == "diagonal":
        return gram if isinstance(gram, ImplicitGram) else ImplicitGram(spec, X)
    if isinstance(gram, ImplicitGram):
        raise InputError(
            f"{what} needs a dense eigendecomposition; the implicit Gram mode "
            "is only supported by the iterative and CG-based fits")
    return _resolve_gram(spec, X, "dense", gram)


def _spectrum(gram):
    """(s, U, H, m): the eigenvalues s of K/M (descending), their
    eigenvectors U, h reshaped to U's rows as H, and the multiplicity m of
    each s_j in the Md spectrum; an eigen filter w gives C = -U w(s) U^T H.

    A diagonal kernel's Md spectrum is its scalar M x M one with
    multiplicity d (H = h.reshape(M, d), m = d); a curl-free kernel has the
    dense Md x Md spectrum (H = h.reshape(Md, 1), m = 1).
    """
    M, d = gram.samples.shape
    if gram.spec.kind == "diagonal":
        eig, m = gram.scalar_eigensystem(), d
    else:
        eig, m = gram.eigensystem(), 1
    # eigendecompose before building h: the other order left the heap more
    # fragmented and raised the sweep's peak RSS (854 -> 860 MB at Md=4096)
    return eig.values / M, eig.vectors, gram.divergence().reshape(-1, m), m


# ======================================================================
# Tikhonov
# ======================================================================

def fit_tikhonov(samples, spec: MatrixKernelSpec, lam: float, mode: str = "dense",
                 gram=None, cg_tol: float = 1e-10, cg_max_iter: int = None,
                 _x0=None) -> FittedScoreEstimator:
    """Solve (K + M lam I) c = h / lam; predictions carry a = -1/lam.

    mode 'dense' solves the shifted Gram directly with solve_spd (diagonal
    kernels reduce to an M x M system with d right-hand sides); mode
    'implicit' is fit_tikhonov_cg run to the same 1e-10 residual contract
    (cg_tol), raising FitError if that cannot be reached. A given curl-free
    Gram decides the mode by its form; a diagonal one of either form serves
    both modes, the direct solve reading the scalar M x M Gram.
    _x0, when given, is a start for c: the direct solve returns it if it
    already meets the solve_spd residual and factors otherwise, CG iterates
    from it.
    """
    scheme = Tikhonov(lam)
    if mode not in ("dense", "implicit"):
        raise InputError(f"unknown mode {mode!r}; expected 'dense' or 'implicit'")
    X = as_samples(samples)
    M, d = X.shape
    if gram is not None and spec.kind == "curl_free":
        mode = "implicit" if isinstance(gram, ImplicitGram) else "dense"
    if mode == "implicit":
        if cg_max_iter is None:
            cg_max_iter = max(1000, 4 * M)
        est = fit_tikhonov_cg(X, spec, lam, tol=cg_tol, max_iter=cg_max_iter, gram=gram,
                              x0=_x0)
        if not est.meta["cg_converged"]:
            raise FitError(
                f"tikhonov CG stopped at relative residual {est.meta['cg_residual']:.3e} "
                f"after {est.meta['cg_iterations']} iterations (target {cg_tol:.1e}); "
                f"the shifted system K + {M * lam:.3e} I is too ill-conditioned")
        return est

    # h does not depend on lam or the scheme: a given Gram (validated here)
    # computes it once
    h = h_vector(spec, X) if gram is None else _resolve_gram(spec, X, None, gram).divergence()
    if spec.kind == "diagonal":
        # K = k(X,X) (x) I_d, so the Md system splits into d copies of
        # (k + M lam I) C = H / lam over the scalar Gram, which a matrix-free
        # Gram holds and is built from X otherwise
        A = gram.scalar_matrix() if isinstance(gram, ImplicitGram) \
            else scalar_gram(spec.scalar, X)
        b = h.reshape(M, d) / lam
    else:
        A = _resolve_gram(spec, X, "dense", gram).matrix
        b = h / lam
    x0 = None if _x0 is None else np.reshape(_x0, b.shape)
    try:
        C = solve_spd(A, b, shift=M * lam, x0=x0).reshape(M, d)
    except NumericError as exc:
        raise FitError(f"tikhonov solve failed: {exc}") from exc
    return FittedScoreEstimator(spec, X, C, -1.0 / lam, scheme, meta={"mode": "dense"})


def fit_tikhonov_cg(samples, spec: MatrixKernelSpec, lam: float, tol: float = 1e-4,
                    max_iter: int = 40, gram=None, x0=None) -> FittedScoreEstimator:
    """Tikhonov fit by matrix-free conjugate gradient with loose defaults.

    Unlike fit_tikhonov(mode='implicit') a non-converged run is not an
    error; the CG report lands in estimator.meta so callers can inspect it.
    """
    scheme = Tikhonov(lam)
    X = as_samples(samples)
    M, d = X.shape
    gram = _resolve_gram(spec, X, "implicit", gram)
    shift = M * lam
    op = LinearOperator(gram.dim, lambda v: gram.matvec(v) + shift * v)
    c, rep = conjugate_gradient(op, gram.divergence() / lam, tol=tol, max_iter=max_iter,
                                x0=x0)
    meta = {"mode": "implicit", "cg_iterations": rep.iterations,
            "cg_residual": rep.residual, "cg_converged": rep.converged}
    if not rep.converged:
        meta["warnings"] = [
            f"CG stopped at relative residual {rep.residual:.3e} after "
            f"{rep.iterations} iterations (target {tol:.1e})"]
    return FittedScoreEstimator(spec, X, c.reshape(M, d), -1.0 / lam, scheme, meta=meta)


# ======================================================================
# eigenfilter-based fits (truncated Tikhonov, spectral cut-off)
# ======================================================================

def _fit_by_eigen_filter(samples, spec, weight_of_sig, scheme, gram,
                         require_nonzero, meta=None):
    """Coefficients c = -sum_j w(s_j) u_j u_j^T h over the Gram spectrum."""
    X = as_samples(samples)
    M, d = X.shape
    s, U, H, _ = _spectrum(_eigen_gram(spec, X, gram, type(scheme).__name__))
    mask = numeric_rank_mask(s)
    if require_nonzero and not mask.any():
        raise FitError("kernel Gram is numerically rank zero; cannot filter "
                       "on its nonzero spectrum")
    w = np.zeros_like(s)
    w[mask] = weight_of_sig(s[mask])
    C = -(U @ (w[:, None] * (U.T @ H)))
    return FittedScoreEstimator(spec, X, C.reshape(M, d), 0.0, scheme, meta=dict(meta or {}))


def fit_truncated_tikhonov(samples, spec: MatrixKernelSpec, lam: float,
                           gram=None) -> FittedScoreEstimator:
    """Tikhonov filter restricted to the nonzero spectrum; a = 0.

    At the training samples the stacked predictions coincide with the plain
    Tikhonov fit and solve (K/M + lam I) S = -h; away from the samples the
    zeta offset is replaced by its projection onto the span of the basis
    functions, which is the principled out-of-sample form of the classic
    in-sample-only estimator.
    """
    scheme = TruncatedTikhonov(lam)
    M = as_samples(samples).shape[0]
    return _fit_by_eigen_filter(
        samples, spec, lambda s: 1.0 / ((s + lam) * M * s), scheme, gram,
        require_nonzero=True)


def fit_spectral_cutoff(samples, spec: MatrixKernelSpec, lam: float = None,
                        rank: int = None, gram=None) -> FittedScoreEstimator:
    """Keep spectral components with s_j >= lam, weighting by 1/(M s_j^2).

    Exactly one of lam / rank must be given. rank J (counted in the full
    Md-dimensional spectrum) resolves to the threshold lam := s_J, so ties
    at the threshold are all kept (the threshold test is inclusive). J
    beyond the numeric rank is clamped with a warning.
    """
    if (lam is None) == (rank is None):
        raise InputError("give exactly one of lam or rank")
    X = as_samples(samples)
    M, d = X.shape
    meta = {}
    if rank is not None:
        rank = int(rank)
        if not 1 <= rank <= M * d:
            raise InputError(f"rank must be in [1, {M * d}], got {rank}")
        # the filter below reads the same cached spectrum
        gram = _eigen_gram(spec, X, gram, "SpectralCutoff")
        sig, _, _, m = _spectrum(gram)
        n_nonzero = int(numeric_rank_mask(sig).sum()) * m
        if n_nonzero == 0:
            raise FitError("kernel Gram is numerically rank zero")
        eff = min(rank, n_nonzero)
        if eff < rank:
            warnings.warn(f"requested rank {rank} exceeds numeric rank "
                          f"{n_nonzero}; clamped", stacklevel=2)
            meta["rank_clamped_to"] = eff
        lam = float(sig[(eff - 1) // m])  # s_J in the Md spectrum
    scheme = SpectralCutoff(lam=lam, rank=rank)
    return _fit_by_eigen_filter(
        samples, spec,
        lambda s: np.where(s >= lam, 1.0 / (M * np.square(s)), 0.0),
        scheme, gram, require_nonzero=False, meta=meta)


# ======================================================================
# Landweber iteration
# ======================================================================

def _estimate_sigma_max(gram) -> float:
    M = gram.samples.shape[0]
    op = LinearOperator(gram.dim, lambda v: gram.matvec(v) / M)
    return power_iteration(op, iters=50)


def landweber_path(samples, spec: MatrixKernelSpec, ts, eta: float = None,
                   mode: str = "dense", gram=None):
    """Snapshots of the Landweber recursion at each iteration count in ts.

    Assembling s_t = s_{t-1} - eta (zeta + L s_{t-1}) in coefficient form
    gives a_t = -t eta and

        c_t = (I - eta K/M) c_{t-1} - eta a_{t-1} h / M,    c_0 = 0,

    which matches the spectral filter g(sigma) = (1-(1-eta sigma)^t)/sigma
    with g(0) = t eta. Default eta is 0.9 / sigma_max(K/M) with sigma_max
    from power iteration; eta * sigma_max >= 1 is rejected.
    """
    X = as_samples(samples)
    M, d = X.shape
    ts = sorted({int(t) for t in ts})
    if not ts or ts[0] < 1:
        raise InputError("iteration counts must be integers >= 1")
    gram = _resolve_gram(spec, X, mode, gram)
    sig_max = _estimate_sigma_max(gram)
    if sig_max <= 0.0:
        raise FitError("sigma_max estimate is zero; Gram appears degenerate")
    if eta is None:
        eta = 0.9 / sig_max
    eta = float(eta)
    if eta <= 0 or eta * sig_max >= 1.0:
        raise FitError(
            f"Landweber step size violates eta * sigma_max(K/M) < 1: "
            f"eta={eta:.6g}, sigma_max~{sig_max:.6g}, product={eta * sig_max:.6g}")
    h = gram.divergence()
    out = []
    c = np.zeros(M * d)
    for tau in range(1, ts[-1] + 1):
        a_prev = -(tau - 1) * eta
        c = c - (eta / M) * gram.matvec(c) - (eta * a_prev / M) * h
        if not np.all(np.isfinite(c)):
            raise NumericError(f"Landweber recursion diverged at iteration {tau}")
        if tau in ts:
            out.append(FittedScoreEstimator(
                spec, X, c.reshape(M, d).copy(), -tau * eta,
                Landweber(eta, tau), meta={"sigma_max_estimate": sig_max}))
    return out


def fit_landweber(samples, spec: MatrixKernelSpec, eta: float = None, t: int = None,
                  lam: float = None, mode: str = "dense", gram=None) -> FittedScoreEstimator:
    """Landweber fit at one iteration count (or lam, via t = floor(1/lam))."""
    if (t is None) == (lam is None):
        raise InputError("give exactly one of t or lam")
    if t is None:
        t = landweber_iterations(lam)
    return landweber_path(samples, spec, [t], eta=eta, mode=mode, gram=gram)[0]


# ======================================================================
# nu-method (accelerated semi-iterative regularization)
# ======================================================================

def nu_method_path(samples, spec: MatrixKernelSpec, ts, nu: float = 1.0,
                   mode: str = "dense", gram=None, _krylov=None):
    """Snapshots of the nu-method recursion at each iteration count in ts.

    a_0 = 0, a_1 = -omega_1, c_0 = c_1 = 0, then for t >= 2:
        c_t = (1+u_t) c_{t-1} - (omega_t/M)(a_{t-1} h + K c_{t-1}) - u_t c_{t-2}
        a_t = (1+u_t) a_{t-1} - u_t a_{t-2} - omega_t
    Only Gram matvecs are needed, so the implicit mode works at any size.
    _krylov, when given, is (V, T) of spectral_linalg.lanczos(gram, h, ...)
    and spans every snapshot: c_t lies in the Krylov space K_{t-1}(K, h),
    so the basis must be invariant or hold at least max(ts) - 1 vectors.
    The recursion then runs on (T, ||h|| e_1) over its first max(ts) - 1
    vectors, and V lifts each snapshot.
    """
    if not np.isfinite(nu) or nu < 1:
        raise InputError(f"nu must be >= 1, got {nu!r}")
    X = as_samples(samples)
    M, d = X.shape
    ts = sorted({int(t) for t in ts})
    if not ts or ts[0] < 1:
        raise InputError("iteration counts must be integers >= 1")
    gram = _resolve_gram(spec, X, mode, gram)
    h, matvec, lift = gram.divergence(), gram.matvec, lambda c: c
    if _krylov is not None:
        k = min(len(_krylov[0]), ts[-1] - 1)
        V, T = _krylov[0][:k], _krylov[1][:k, :k]
        h = np.linalg.norm(h) * np.eye(1, k)[0]
        matvec, lift = (lambda y: T @ y), (lambda y: y @ V)

    _, w1 = nu_coefficients(1, nu)
    a_prev, a_cur = 0.0, -w1          # a_0, a_1
    c_prev = np.zeros(h.size)         # c_0
    c_cur = np.zeros(h.size)          # c_1
    out = []

    def snapshot(tau, a, c):
        out.append(FittedScoreEstimator(
            spec, X, lift(c).reshape(M, d).copy(), a, NuMethod(nu, tau)))

    if 1 in ts:
        snapshot(1, a_cur, c_cur)
    for tau in range(2, ts[-1] + 1):
        u, w = nu_coefficients(tau, nu)
        c_next = (1.0 + u) * c_cur - (w / M) * (a_cur * h + matvec(c_cur)) - u * c_prev
        a_next = (1.0 + u) * a_cur - u * a_prev - w
        if not (np.isfinite(a_next) and np.all(np.isfinite(c_next))):
            raise NumericError(f"nu-method recursion diverged at iteration {tau}")
        c_prev, c_cur = c_cur, c_next
        a_prev, a_cur = a_cur, a_next
        if tau in ts:
            snapshot(tau, a_cur, c_cur)
    return out


def fit_nu_method(samples, spec: MatrixKernelSpec, nu: float = 1.0, t: int = None,
                  lam: float = None, mode: str = "dense", gram=None) -> FittedScoreEstimator:
    """nu-method fit at one iteration count (or lam, via t = floor(lam^-1/2))."""
    if (t is None) == (lam is None):
        raise InputError("give exactly one of t or lam")
    if t is None:
        t = nu_method_iterations(lam)
    return nu_method_path(samples, spec, [t], nu=nu, mode=mode, gram=gram)[0]


# ======================================================================
# reduced-basis (subset) estimator
# ======================================================================

_NYSTROM_JITTERS = (1e-12, 1e-10, 1e-8)


def _subset_building_blocks(samples, subset_indices, spec):
    X = as_samples(samples)
    M, d = X.shape
    idx = np.asarray(subset_indices, dtype=np.int64).ravel()
    if idx.size == 0:
        raise InputError("subset must be non-empty")
    if idx.min() < 0 or idx.max() >= M:
        raise InputError(f"subset indices out of range [0, {M})")
    if np.unique(idx).size != idx.size:
        raise InputError("subset indices contain duplicates")
    Z = np.ascontiguousarray(X[idx])
    N = idx.size
    Kzz = cross_gram(spec, Z, Z)
    Kzz = 0.5 * (Kzz + Kzz.T)
    # G = K_ZX K_XZ accumulated in row chunks of X so the Md x Nd cross
    # Gram is never materialized at once.
    nd = N * d
    G = np.zeros((nd, nd))
    chunk = max(1, int(8e6 // max(1, nd * d)))
    for lo in range(0, M, chunk):
        B = cross_gram(spec, X[lo:lo + chunk], Z)
        G += B.T @ B
    G = 0.5 * (G + G.T)
    h_Z = zeta_batch(spec, X, Z).ravel()
    return X, Z, idx, Kzz, G, h_Z


def fit_nystrom(samples, subset_indices, spec: MatrixKernelSpec,
                scheme, _blocks=None) -> FittedScoreEstimator:
    """Restrict the estimator to basis functions at a sample subset Z.

    scheme TruncatedTikhonov(lam): closed form (no matrix square roots)
        c_Z = -(K_ZX K_XZ / M + lam K_ZZ)^{-1} h_Z
    where a system too singular to solve gets K_ZZ's diagonal raised by up
    to 1e-8 times its mean; meta["jitter"] records it (0.0 if none)
    scheme SpectralCutoff(lam) or a callable g: general spectral form
        c_Z = -K_ZZ^{-1/2} g(L) K_ZZ^{-1/2} h_Z,
        L = K_ZZ^{-1/2} (K_ZX K_XZ / M) K_ZZ^{-1/2}
    with h_Z the divergence field (averaged over all M samples) at the
    subset points. Predictions use a = 0 and the subset basis only. With
    the full subset this reproduces the corresponding full estimator at
    the same lam.

    _blocks, when given, is _subset_building_blocks(samples,
    subset_indices, spec): those blocks do not depend on the scheme, so a
    caller fitting several schemes on one subset builds them once.
    """
    if _blocks is None:
        _blocks = _subset_building_blocks(samples, subset_indices, spec)
    X, Z, idx, Kzz, G, h_Z = _blocks
    M, d = X.shape

    if isinstance(scheme, TruncatedTikhonov):
        lam = scheme.lam
        A = G / M + lam * Kzz
        c = None
        last_err = None
        for jit in (0.0,) + _NYSTROM_JITTERS:
            try:
                shift = jit * float(np.trace(Kzz)) / Kzz.shape[0]
                c = -solve_spd(A, h_Z, shift=lam * shift)
                break
            except NumericError as exc:
                last_err = exc
        if c is None:
            raise FitError(f"subset Gram is numerically singular: {last_err}")
        meta = {"subset_size": idx.size, "jitter": shift}
        return FittedScoreEstimator(spec, X, c, 0.0, scheme,
                                    subset_indices=idx, meta=meta)

    if isinstance(scheme, SpectralCutoff):
        if scheme.lam is None:
            raise InputError("subset fits need SpectralCutoff with an explicit lam")
        lam = scheme.lam
        g = lambda s: np.where(s >= lam, 1.0 / np.maximum(s, lam), 0.0)  # noqa: E731
    elif callable(scheme):
        g = scheme
    else:
        raise InputError(
            "scheme must be TruncatedTikhonov, SpectralCutoff, or a spectral "
            "filter callable")

    zeig = sym_eig(Kzz)
    zmask = numeric_rank_mask(zeig.values)
    if not zmask.any():
        raise FitError("subset Gram is numerically rank zero")
    P = zeig.vectors[:, zmask] / np.sqrt(zeig.values[zmask])  # K_ZZ^(-1/2) factor
    L = P.T @ (G / M) @ P
    L = 0.5 * (L + L.T)
    leig = sym_eig(L)
    tau = np.maximum(leig.values, 0.0)
    gv = np.asarray(g(tau), dtype=np.float64)
    if not np.all(np.isfinite(gv)):
        raise NumericError("spectral filter returned non-finite values")
    y = leig.vectors @ (gv * (leig.vectors.T @ (P.T @ h_Z)))
    c = -(P @ y)
    meta = {"subset_size": idx.size,
            "subset_rank": int(zmask.sum())}
    return FittedScoreEstimator(spec, X, c, 0.0, scheme,
                                subset_indices=idx, meta=meta)


# ======================================================================
# log-density recovery for curl-free fits
# ======================================================================

def recover_log_density(est: FittedScoreEstimator, query) -> float:
    """Potential whose gradient is the fitted field; zero at the first sample.

    Both prediction terms of a curl-free fit are analytic gradients:
        K_cf(x, b) c = grad_x [ -2 phi'(u) (x - b) . c ],   u = ||x - b||^2
        zeta(x)      = grad_x [ (1/M) sum_m Gfun(||x - x^m||^2) ],
                       Gfun(u) = 2 d phi'(u) + 4 u phi''(u)
    so the potential is a * Psi_zeta + psi_c, gauge-fixed at sample 1.
    """
    if est.kernel.kind != "curl_free":
        raise InputError("log-density recovery requires a curl_free kernel")
    d = est.dim
    x = np.asarray(query, dtype=np.float64).ravel()
    if x.shape != (d,):
        raise InputError(f"query must have shape ({d},), got {x.shape}")
    pts = np.vstack([x, est.samples[0]])
    vals = _potential_at(est, pts)
    return float(vals[0] - vals[1])


def _potential_at(est, pts: np.ndarray) -> np.ndarray:
    k = est.kernel.scalar
    B, C = est.basis, est.coeffs
    Ub = sq_dists(pts, B)
    S = pts @ C.T
    t = np.einsum("ij,ij->i", B, C)
    psi_c = -2.0 * np.sum(k.dphi(Ub) * (S - t[None, :]), axis=1)
    if est.offset == 0.0:
        return psi_c
    d = est.dim
    Us = sq_dists(pts, est.samples)
    Gfun = 2.0 * d * k.dphi(Us) + 4.0 * Us * k.d2phi(Us)
    return est.offset * Gfun.mean(axis=1) + psi_c


# ======================================================================
# serialization (versioned binary, little-endian)
# ======================================================================

_MAGIC = b"SKESTv1\n"
_FAMILY_CODE = {"imq": 0, "gaussian": 1}
_KIND_CODE = {"diagonal": 0, "curl_free": 1}
_FAMILY_NAME = {v: k for k, v in _FAMILY_CODE.items()}
_KIND_NAME = {v: k for k, v in _KIND_CODE.items()}


def _scheme_code(scheme):
    if isinstance(scheme, Tikhonov):
        return 1, [scheme.lam]
    if isinstance(scheme, TruncatedTikhonov):
        return 2, [scheme.lam]
    if isinstance(scheme, SpectralCutoff):
        return 3, [scheme.lam, -1.0 if scheme.rank is None else float(scheme.rank)]
    if isinstance(scheme, Landweber):
        return 4, [scheme.eta, float(scheme.t)]
    if isinstance(scheme, NuMethod):
        return 5, [scheme.nu, float(scheme.t)]
    raise InputError(f"scheme {scheme!r} is not serializable")


_N_PARAMS = {1: 1, 2: 1, 3: 2, 4: 2, 5: 2}


def _count(v, what) -> int:
    if not float(v).is_integer():
        raise InputError(f"serialized {what} {v!r} is not an integer")
    return int(v)


def _scheme_from_code(code, params):
    if code not in _N_PARAMS:
        raise InputError(f"unknown scheme code {code} in serialized estimator")
    if len(params) != _N_PARAMS[code]:
        raise InputError(f"scheme code {code} takes {_N_PARAMS[code]} parameter(s), "
                         f"got {len(params)}")
    if code == 1:
        return Tikhonov(params[0])
    if code == 2:
        return TruncatedTikhonov(params[0])
    if code == 3:
        rank = None if params[1] < 0 else _count(params[1], "rank")
        return SpectralCutoff(lam=params[0], rank=rank)
    if code == 4:
        return Landweber(params[0], _count(params[1], "iteration count"))
    return NuMethod(params[0], _count(params[1], "iteration count"))


def _scheme_offset(scheme) -> float:
    """The zeta multiplier a that a fit of this scheme carries."""
    if isinstance(scheme, Tikhonov):
        return -1.0 / scheme.lam
    if isinstance(scheme, Landweber):
        return -scheme.t * scheme.eta
    if isinstance(scheme, NuMethod):
        # closed form of nu_method_path's a_t recursion (its filter is a
        # normalized Jacobi polynomial), so a corrupt t cannot stall a load
        t, nu = scheme.t, scheme.nu
        return -2.0 * t * (t + 2.0 * nu) / (4.0 * nu + 1.0)
    return 0.0  # truncated Tikhonov, spectral cut-off and every subset fit


def save_estimator(est: FittedScoreEstimator, path) -> None:
    """Write the versioned binary form.

    Layout (all little-endian): magic 'SKESTv1\\n'; u8 family (0 imq,
    1 gaussian); u8 kind (0 diagonal, 1 curl_free); f8 bandwidth; u8 scheme
    code; u8 n_params; f8 params; f8 offset a; u4 M; u4 d; u4 N; u8 flags
    (bit 0: subset indices present); f8 samples (M*d, row-major); u4 subset
    indices (N, if flagged); f8 coefficients (N*d, row-major).
    """
    code, params = _scheme_code(est.scheme)
    M, d = est.samples.shape
    N = est.basis.shape[0]
    flags = 0 if est.subset_indices is None else 1
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<BBd", _FAMILY_CODE[est.kernel.scalar.family],
                          _KIND_CODE[est.kernel.kind], est.kernel.scalar.bandwidth))
    buf.write(struct.pack("<BB", code, len(params)))
    buf.write(np.asarray(params, dtype="<f8").tobytes())
    buf.write(struct.pack("<dIIIQ", est.offset, M, d, N, flags))
    buf.write(np.ascontiguousarray(est.samples, dtype="<f8").tobytes())
    if flags & 1:
        buf.write(np.ascontiguousarray(est.subset_indices, dtype="<u4").tobytes())
    buf.write(np.ascontiguousarray(est.coeffs, dtype="<f8").tobytes())
    with atomic_open(path, "wb") as f:
        f.write(buf.getvalue())


def load_estimator(path) -> FittedScoreEstimator:
    """Read back an estimator written by save_estimator."""
    with open(path, "rb") as f:
        raw = f.read()
    view = memoryview(raw)

    def take(n):
        nonlocal view
        if len(view) < n:
            raise InputError("truncated estimator file")
        out, view = view[:n], view[n:]
        return out

    if bytes(take(len(_MAGIC))) != _MAGIC:
        raise InputError("not a serialized estimator (bad magic/version)")
    fam, kind, bw = struct.unpack("<BBd", take(10))
    if fam not in _FAMILY_NAME or kind not in _KIND_NAME:
        raise InputError("unknown kernel family/kind code")
    code, n_params = struct.unpack("<BB", take(2))
    params = np.frombuffer(take(8 * n_params), dtype="<f8").tolist()
    offset, M, d, N, flags = struct.unpack("<dIIIQ", take(28))
    if flags & ~1:
        raise InputError(f"unknown flag bits {flags & ~1:#x} in estimator file")
    subset = bool(flags & 1)
    if N > M or N < 1 or (N != M and not subset):
        raise InputError(f"basis size N={N} does not fit M={M} samples"
                         + ("" if subset else " without a subset"))
    samples = np.frombuffer(take(8 * M * d), dtype="<f8").reshape(M, d).copy()
    idx = None
    if subset:
        idx = np.frombuffer(take(4 * N), dtype="<u4").astype(np.int64)
        if idx.max() >= M or np.unique(idx).size != N:
            raise InputError(f"subset indices out of range [0, {M}) or duplicated")
    coeffs = np.frombuffer(take(8 * N * d), dtype="<f8").reshape(N, d).copy()
    if len(view) != 0:
        raise InputError("trailing bytes in estimator file")
    if not (np.all(np.isfinite(params)) and np.isfinite(offset)
            and np.all(np.isfinite(samples)) and np.all(np.isfinite(coeffs))):
        raise InputError("estimator file holds non-finite parameters, offset, "
                         "samples or coefficients")
    spec = MatrixKernelSpec(_KIND_NAME[kind], ScalarRadialKernel(_FAMILY_NAME[fam], bw))
    scheme = _scheme_from_code(code, params)
    # the recursion that produced a saved nu-method a_t drifts from the closed
    # form by up to 1e-9 relative at t = 2e5
    expected = _scheme_offset(scheme)
    if not (np.isfinite(expected) and abs(offset - expected) <= 1e-6 * abs(expected)):
        raise InputError(f"offset {offset!r} contradicts the {type(scheme).__name__} "
                         f"scheme, which defines {expected!r}")
    return FittedScoreEstimator(spec, samples, coeffs, offset, scheme,
                                subset_indices=idx)
