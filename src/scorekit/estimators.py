"""Score-estimator fits.

Every scheme below produces an estimate of grad log p with the shared
prediction form

    s_hat(x) = a * zeta(x) + sum_j K(x, b_j) c_j

differing only in how the coefficients c and the zeta multiplier a are
computed from the Gram matrix K and the stacked divergence vector h:

    tikhonov            (K + M lam I) c = h / lam,            a = -1/lam
    truncated_tikhonov  c = -sum_j u_j u_j^T h / ((s_j+lam) M s_j),  a = 0
    spectral_cutoff     c = -sum_{s_j >= lam} u_j u_j^T h / (M s_j^2), a = 0
    landweber           c_t = (I - eta K/M) c_{t-1} + (t-1) eta^2 h / M, a = -t eta
    nu_method           accelerated two-term recursion, a = -2t(t+2nu)/(4nu+1)
    nystrom             reduced basis Z: c_Z = -(K_ZX K_XZ/M + lam K_ZZ)^{-1} h_Z

where s_j are eigenvalues of K/M with eigenvectors u_j, and h stacks zeta
at the samples. Eigenvalues below EPS_RANK_REL * s_max are treated as zero
wherever a scheme filters on the nonzero spectrum.
"""

import io
import struct
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .atomic import atomic_open
from .errors import FitError, InputError, NumericError
from .kernels import (
    BLOCK_ENTRIES,
    FAMILIES,
    KINDS,
    ImplicitGram,
    MatrixKernelSpec,
    ScalarRadialKernel,
    _as_queries,
    _as_vector,
    _matrix_free,
    as_samples,
    assemble_gram,
    cross_apply,
    cross_gram,
    h_vector,  # noqa: F401  (the benchmark's self-test traces it through this name)
    query_tables,
    sq_dists,
    zeta_batch,
)
from .spectral_linalg import (
    EPS_RANK_REL,
    SPD_RESIDUAL_TOL,
    CGReport,
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
        if self.lam is None and self.rank is None:
            raise InputError("SpectralCutoff needs lam or rank")


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


def _scheme_offset(scheme) -> float:
    """The zeta multiplier a = -g(0) of the scheme's filter g, which its fits carry."""
    if isinstance(scheme, Tikhonov):
        return -1.0 / scheme.lam
    if isinstance(scheme, Landweber):
        return -scheme.t * scheme.eta
    if isinstance(scheme, NuMethod):
        # the filter is a normalized Jacobi polynomial; a closed form, so a
        # corrupt t cannot stall a load
        t, nu = scheme.t, scheme.nu
        return -2.0 * t * (t + 2.0 * nu) / (4.0 * nu + 1.0)
    return 0.0  # truncated Tikhonov, spectral cut-off and every subset fit


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
    """Immutable fitted state; predictions are a * zeta(x) + K_{x,basis} c with
    a = _scheme_offset(scheme), which must be 0 over a subset basis."""

    __slots__ = ("kernel", "samples", "basis", "subset_indices", "coeffs",
                 "offset", "scheme", "meta")

    def __init__(self, kernel, samples, coeffs, scheme, subset_indices=None, meta=None):
        X = as_samples(samples).copy()
        X.setflags(write=False)
        offset = _scheme_offset(scheme)
        basis, idx = X, None
        if subset_indices is not None:
            if offset != 0.0:
                raise InputError(f"a subset basis carries no zeta term, but the "
                                 f"{type(scheme).__name__} scheme defines a = {offset!r}")
            idx = _subset_index(subset_indices, X.shape[0])
            basis = np.ascontiguousarray(X[idx])
            basis.setflags(write=False)
        C = np.array(coeffs, dtype=np.float64)
        if C.size != basis.size:
            raise InputError(f"{C.size} coefficients for {basis.shape[0]} basis points "
                             f"in {basis.shape[1]} dimensions, which take {basis.size}")
        C = C.reshape(basis.shape)
        C.setflags(write=False)
        for name, value in (("kernel", kernel), ("samples", X), ("basis", basis),
                            ("subset_indices", idx), ("coeffs", C), ("offset", offset),
                            ("scheme", scheme), ("meta", dict(meta or {}))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FittedScoreEstimator is immutable")

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def predict(self, queries) -> np.ndarray:
        return predict(self, queries)

    def log_density(self, query) -> float:
        return recover_log_density(self, query)


def predict(est: FittedScoreEstimator, queries, _shared=None) -> np.ndarray:
    """Evaluate the fitted score field at each query row.

    Rows go in chunks of max(1, BLOCK_ENTRIES // N), N the basis points,
    each read from one query_tables call over the basis, which fills it as
    one block; zeta is computed only where a != 0, and then the basis is the
    sample set. _shared, when given, is query_tables(est.kernel, queries,
    est.basis), built once by a caller predicting several fits on one
    basis; it stands in for the chunks."""
    Q = _as_queries(np.atleast_2d(np.asarray(queries, dtype=np.float64)), est.dim)
    with_zeta = est.offset != 0.0
    step = max(1, Q.shape[0] if _shared else BLOCK_ENTRIES // est.basis.shape[0])
    out = np.empty_like(Q)
    for lo in range(0, Q.shape[0], step):
        q = Q[lo:lo + step]
        z, tables = _shared or query_tables(est.kernel, q, est.basis, zeta=with_zeta)
        part = cross_apply(est.kernel, q, est.basis, est.coeffs, _tables=tables)
        out[lo:lo + step] = est.offset * z + part if with_zeta else part
    if not np.all(np.isfinite(out)):
        raise NumericError("prediction produced non-finite values")
    return out


# ======================================================================
# shared fit plumbing
# ======================================================================

def _resolve_gram(spec, X, gram):
    """A given Gram, checked against spec and X, or assemble_gram's."""
    if gram is None:
        return assemble_gram(spec, X)
    if gram.spec != spec:
        raise InputError("provided Gram was built for a different kernel spec")
    if gram.samples.shape != X.shape or not np.array_equal(gram.samples, X):
        raise InputError("provided Gram was built for different samples")
    return gram


def _eigen_gram(spec, X, gram, what):
    """The dense Gram whose cached spectrum the eigen-filter fits read; a
    matrix-free one is refused with the bytes the dense one would need."""
    gram = _resolve_gram(spec, X, gram)
    if isinstance(gram, ImplicitGram):
        raise InputError(
            f"{what} needs the dense Md x Md Gram, {gram.dim ** 2 * 8} bytes at "
            f"Md = {gram.dim}; only the iterative and CG-based fits run matrix-free")
    return gram


def _spectrum(gram):
    """(s, eig, Y, m) of a dense Gram G, K = G (x) I_m: the eigenvalues s of
    G/M (descending), G's cached eigensystem (DenseGram.eigensystem), the
    coordinates Y = U^T H of h reshaped to G's rows (cached on the Gram, so
    computed once per Gram, not once per fit), and m = dim // len(G), the
    multiplicity of each s_j in the Md spectrum (d for a diagonal kernel's
    scalar factor, 1 for a curl-free Gram). An eigen filter w gives C =
    -eig.lift(w(s)[:, None] * Y).
    """
    eig, m = gram.eigensystem(), gram.dim // len(gram.matrix)
    return eig.values / gram.samples.shape[0], eig, gram.divergence_coords(), m


# ======================================================================
# Tikhonov
# ======================================================================

# fit_tikhonov's Krylov start aims this factor below the residual the fit
# checks. At lam = 1e-8 the shifted Gram's condition number is ~3e7, so
# starts that only just met 1e-10 moved conv-1d benchmark rows by up to
# 3.7e-4 relative from factored solves; at 1e-12 they move by under 1e-5.
_KRYLOV_START_MARGIN = 100


def _start_tol(gram, cg_tol: float) -> float:
    """The Lanczos residual estimate fit_tikhonov's start aims at over gram:
    _KRYLOV_START_MARGIN below solve_spd's residual dense, cg_tol matrix-free."""
    return (cg_tol if isinstance(gram, ImplicitGram) else SPD_RESIDUAL_TOL) / _KRYLOV_START_MARGIN


def fit_tikhonov(samples, spec: MatrixKernelSpec, lam: float, gram=None,
                 cg_tol: float = 1e-10, cg_max_iter: int = None,
                 _krylov=None) -> FittedScoreEstimator:
    """Solve (K + M lam I) c = h / lam; predictions carry a = -1/lam.

    The Gram's form (assemble_gram's unless gram is given) picks the solver.
    Over a dense Gram G, K = G (x) I_m, solve_spd solves (G + M lam I) C =
    H / lam with H = h.reshape(len(G), -1), so a diagonal kernel solves its
    M x M system with d right-hand sides. Over a matrix-free Gram the fit is
    fit_tikhonov_cg run to the same 1e-10 residual contract (cg_tol),
    raising FitError if that cannot be reached.
    _krylov, a KrylovBasis of lanczos(gram, h, ...), gives the start c =
    (||h|| / lam) V_k^T (T_k + M lam I)^-1 e_1, k the first step whose
    residual estimate meets _start_tol (else the last): solve_spd returns it
    if it meets its residual and factors otherwise, CG iterates from it.
    """
    scheme = Tikhonov(lam)
    X = as_samples(samples)
    M = X.shape[0]
    gram = _resolve_gram(spec, X, gram)
    x0 = None if _krylov is None else _krylov.galerkin(
        M * lam, _start_tol(gram, cg_tol), _krylov.norm_b / lam)[1]
    if isinstance(gram, ImplicitGram):
        if cg_max_iter is None:
            cg_max_iter = max(1000, 4 * M)
        est = fit_tikhonov_cg(X, spec, lam, tol=cg_tol, max_iter=cg_max_iter, gram=gram,
                              x0=x0)
        if not est.meta["cg_converged"]:
            raise FitError(
                f"tikhonov CG stopped at relative residual {est.meta['cg_residual']:.3e} "
                f"after {est.meta['cg_iterations']} iterations (target {cg_tol:.1e}); "
                f"the shifted system K + {M * lam:.3e} I is too ill-conditioned")
        return est
    G = gram.matrix
    b = gram.divergence().reshape(len(G), -1) / lam
    try:
        C = solve_spd(G, b, shift=M * lam, x0=None if x0 is None else x0.reshape(b.shape))
    except NumericError as exc:
        raise FitError(f"tikhonov solve failed: {exc}") from exc
    return FittedScoreEstimator(spec, X, C, scheme, meta={"mode": "dense"})


def fit_tikhonov_cg(samples, spec: MatrixKernelSpec, lam: float, tol: float = 1e-4,
                    max_iter: int = 40, gram=None, x0=None,
                    _krylov=None) -> FittedScoreEstimator:
    """Tikhonov fit by conjugate gradient on Gram matvecs, loose defaults.

    It reads the Gram in whichever form it has (assemble_gram's unless gram
    is given) and meta["mode"] names it. Unlike fit_tikhonov over a
    matrix-free Gram a non-converged run is not an error; the CG report
    lands in estimator.meta so callers can inspect it.
    _krylov, when given, is the KrylovBasis of spectral_linalg.lanczos(gram,
    h, ...), read as far as it goes. The fit then returns its Galerkin
    iterate c_k = (||h|| / lam) V_k^T (T_k + M lam I)^-1 e_1, in exact
    arithmetic CG's k-th iterate from x0 = 0, at the first k <= max_iter
    whose Lanczos residual estimate meets tol (k = max_iter if none does),
    and one Gram product gives the residual meta reports. CG runs instead
    when the basis ends short of both, or when the true residual misses tol
    although the estimate met it. meta["solver"] names the body that ran,
    "galerkin" or "cg"; cg_iterations is k for the first.
    """
    scheme = Tikhonov(lam)
    X = as_samples(samples)
    M = X.shape[0]
    gram = _resolve_gram(spec, X, gram)
    shift = M * lam
    h = gram.divergence()
    found = None if _krylov is None else _galerkin_iterate(gram, h, lam, tol, max_iter, _krylov)
    if found is None:
        op = LinearOperator(gram.dim, lambda v: gram.matvec(v) + shift * v)
        c, rep = conjugate_gradient(op, h / lam, tol=tol, max_iter=max_iter, x0=x0)
    else:
        c, rep = found
    meta = {"mode": "implicit" if isinstance(gram, ImplicitGram) else "dense",
            "solver": "cg" if found is None else "galerkin",
            "cg_iterations": rep.iterations,
            "cg_residual": rep.residual, "cg_converged": rep.converged}
    if not rep.converged:
        meta["warnings"] = [
            f"CG stopped at relative residual {rep.residual:.3e} after "
            f"{rep.iterations} iterations (target {tol:.1e})"]
    return FittedScoreEstimator(spec, X, c, scheme, meta=meta)


def _galerkin_iterate(gram, h, lam, tol, max_iter, krylov):
    """(c_k, CGReport) of fit_tikhonov_cg's Galerkin iterate from krylov, or
    None where CG must run: the basis ends before its estimate meets tol or
    max_iter is reached, T_k + M lam I is singular, or c_k's true residual
    misses tol although the estimate met it."""
    shift = gram.samples.shape[0] * lam
    met, c = krylov.galerkin(shift, tol, krylov.norm_b / lam, max_iter)
    if c is None or (not met and max_iter > len(krylov.V)):
        return None
    b = h / lam
    rel = float(np.linalg.norm(b - (gram.matvec(c) + shift * c)) / np.linalg.norm(b))
    if met and rel > tol:
        return None
    return c, CGReport(met or max_iter, rel, rel <= tol)


# ======================================================================
# eigenfilter-based fits (truncated Tikhonov, spectral cut-off)
# ======================================================================

def _fit_by_eigen_filter(samples, spec, weight_of_sig, scheme, gram,
                         require_nonzero, meta=None):
    """Coefficients c = -sum_j w(s_j) u_j u_j^T h over the Gram spectrum."""
    X = as_samples(samples)
    s, eig, Y, _ = _spectrum(_eigen_gram(spec, X, gram, type(scheme).__name__))
    mask = numeric_rank_mask(s)
    if require_nonzero and not mask.any():
        raise FitError("kernel Gram is numerically rank zero; cannot filter "
                       "on its nonzero spectrum")
    w = np.zeros_like(s)
    w[mask] = weight_of_sig(s[mask])
    C = -eig.lift(w[:, None] * Y)
    return FittedScoreEstimator(spec, X, C, scheme, meta=meta)


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
# semi-iterative regularization (Landweber, nu-method)
# ======================================================================

def _semi_iterative(X, spec, ts, gram, weights, scheme, what, meta=None, _krylov=None):
    """Snapshots at each count in ts, as _iteration_counts returns them, of
    the two-term recursion over the resolved gram from c_0 = c_1 = 0, t >= 2:

        c_t = (1+u_t) c_{t-1} - (omega_t/M)(a_{t-1} h + K c_{t-1}) - u_t c_{t-2}

    with (u_t, omega_t) = weights(t) and a_t = -g_t(0) the offset of
    scheme(t), which the snapshot at t carries with meta. Only Gram matvecs
    are needed, so a matrix-free Gram serves at any size. _krylov, when
    given, is the KrylovBasis of spectral_linalg.lanczos(gram, h, ...). c_t
    lies in the Krylov space K_{t-1}(K, h), so where the basis spans
    K_{max(ts)-1} the recursion runs on (T, ||h|| e_1) over its first
    max(ts) - 1 vectors and V lifts each snapshot; a basis too short for
    that is not read. what names the recursion where it diverges.
    """
    M = X.shape[0]
    h, matvec, lift = gram.divergence(), gram.matvec, lambda c: c
    if _krylov is not None and _krylov.spans(ts[-1] - 1):
        k = min(len(_krylov.V), ts[-1] - 1)
        V, T = _krylov.V[:k], _krylov.T[:k, :k]
        h = _krylov.norm_b * np.eye(1, k)[0]
        matvec, lift = (lambda y: T @ y), (lambda y: y @ V)
    c_prev = c_cur = np.zeros(h.size)
    out = []
    for tau in range(1, ts[-1] + 1):
        if tau > 1:  # a holds a_{tau-1}
            u, w = weights(tau)
            c_prev, c_cur = c_cur, ((1.0 + u) * c_cur - (w / M) * (a * h + matvec(c_cur))
                                    - u * c_prev)
        s = scheme(tau)
        a = _scheme_offset(s)
        if not (np.isfinite(a) and np.all(np.isfinite(c_cur))):
            raise NumericError(f"{what} recursion diverged at iteration {tau}")
        if tau in ts:
            out.append(FittedScoreEstimator(spec, X, lift(c_cur), s, meta=meta))
    return out


def _iteration_counts(ts) -> list:
    """ts as sorted distinct ints, each >= 1."""
    ts = sorted({int(t) for t in ts})
    if not ts or ts[0] < 1:
        raise InputError("iteration counts must be integers >= 1")
    return ts


def _one_count(t, lam, iterations) -> int:
    """t, or iterations(lam) when t is not given; exactly one is."""
    if (t is None) == (lam is None):
        raise InputError("give exactly one of t or lam")
    return iterations(lam) if t is None else t


def landweber_path(samples, spec: MatrixKernelSpec, ts, eta: float = None, gram=None):
    """Snapshots of the Landweber recursion at each iteration count in ts.

    Assembling s_t = s_{t-1} - eta (zeta + L s_{t-1}) in coefficient form
    gives the semi-iterative recursion with (u_t, omega_t) = (0, eta):
    c_t = (I - eta K/M) c_{t-1} - eta a_{t-1} h / M and a_t = -t eta, the
    spectral filter g(sigma) = (1-(1-eta sigma)^t)/sigma with g(0) = t eta.
    Default eta is 0.9 / sigma_max(K/M) with sigma_max from power
    iteration; eta * sigma_max >= 1 is rejected.
    """
    X = as_samples(samples)
    ts = _iteration_counts(ts)
    gram = _resolve_gram(spec, X, gram)
    sig_max = power_iteration(
        LinearOperator(gram.dim, lambda v: gram.matvec(v) / X.shape[0]), iters=50)
    if sig_max <= 0.0:
        raise FitError("sigma_max estimate is zero; Gram appears degenerate")
    if eta is None:
        eta = 0.9 / sig_max
    eta = float(eta)
    if eta <= 0 or eta * sig_max >= 1.0:
        raise FitError(
            f"Landweber step size violates eta * sigma_max(K/M) < 1: "
            f"eta={eta:.6g}, sigma_max~{sig_max:.6g}, product={eta * sig_max:.6g}")
    return _semi_iterative(X, spec, ts, gram, lambda t: (0.0, eta),
                           lambda t: Landweber(eta, t), "Landweber",
                           meta={"sigma_max_estimate": sig_max})


def fit_landweber(samples, spec: MatrixKernelSpec, eta: float = None, t: int = None,
                  lam: float = None, gram=None) -> FittedScoreEstimator:
    """Landweber fit at one iteration count (or lam, via t = floor(1/lam))."""
    t = _one_count(t, lam, landweber_iterations)
    return landweber_path(samples, spec, [t], eta=eta, gram=gram)[0]


def nu_method_path(samples, spec: MatrixKernelSpec, ts, nu: float = 1.0, gram=None,
                   _krylov=None):
    """Snapshots of the nu-method at each iteration count in ts: the
    semi-iterative recursion with (u_t, omega_t) = nu_coefficients(t, nu),
    whose filter is a normalized Jacobi polynomial with a_t = -g_t(0) =
    -2 t (t + 2 nu) / (4 nu + 1). _krylov is _semi_iterative's.
    """
    if not np.isfinite(nu) or nu < 1:
        raise InputError(f"nu must be >= 1, got {nu!r}")
    X = as_samples(samples)
    ts = _iteration_counts(ts)
    return _semi_iterative(X, spec, ts, _resolve_gram(spec, X, gram),
                           lambda t: nu_coefficients(t, nu), lambda t: NuMethod(nu, t),
                           "nu-method", _krylov=_krylov)


def fit_nu_method(samples, spec: MatrixKernelSpec, nu: float = 1.0, t: int = None,
                  lam: float = None, gram=None) -> FittedScoreEstimator:
    """nu-method fit at one iteration count (or lam, via t = floor(lam^-1/2))."""
    t = _one_count(t, lam, nu_method_iterations)
    return nu_method_path(samples, spec, [t], nu=nu, gram=gram)[0]


# ======================================================================
# reduced-basis (subset) estimator
# ======================================================================

_NYSTROM_JITTERS = (1e-12, 1e-10, 1e-8)


def _subset_index(subset_indices, M: int) -> np.ndarray:
    """subset_indices as at least one distinct int64 index into M samples."""
    idx = np.asarray(subset_indices, dtype=np.int64).ravel()
    if idx.size == 0:
        raise InputError("subset must be non-empty")
    if idx.min() < 0 or idx.max() >= M:
        raise InputError(f"subset indices out of range [0, {M})")
    if np.unique(idx).size != idx.size:
        raise InputError("subset indices contain duplicates")
    return idx


def _subset_building_blocks(samples, subset_indices, spec):
    X = as_samples(samples)
    M, d = X.shape
    idx = _subset_index(subset_indices, M)
    Z = np.ascontiguousarray(X[idx])
    N = idx.size
    if _matrix_free(spec, N, d):
        raise InputError(
            f"a curl-free subset of N={N} at d={d} needs two dense Nd x Nd blocks of "
            f"{(N * d) ** 2 * 8} bytes each, over the dense system limit")
    # cross_gram blocks: N x N for a diagonal kernel (its scalar factor), Nd x Nd
    # for a curl-free one; h_Z is reshaped to their rows
    Kzz = cross_gram(spec, Z, Z)
    Kzz = 0.5 * (Kzz + Kzz.T)
    # G = K_ZX K_XZ accumulated in row chunks of X so the cross Gram of all
    # M samples is never materialized at once
    n, rows = len(Kzz), len(Kzz) // N
    G = np.zeros((n, n))
    chunk = max(1, int(8e6 // (n * rows)))
    for lo in range(0, M, chunk):
        B = cross_gram(spec, X[lo:lo + chunk], Z)
        G += B.T @ B
    G = 0.5 * (G + G.T)
    h_Z = zeta_batch(spec, X, Z).reshape(n, -1)
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
        return FittedScoreEstimator(spec, X, c, scheme, subset_indices=idx, meta=meta)

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
    y = leig.vectors @ (gv[:, None] * (leig.vectors.T @ (P.T @ h_Z)))
    c = -(P @ y)
    meta = {"subset_size": idx.size,
            "subset_rank": int(zmask.sum()) * h_Z.shape[1]}
    return FittedScoreEstimator(spec, X, c, scheme, subset_indices=idx, meta=meta)


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
    x = _as_vector(np.ravel(query), est.dim)
    pts = np.vstack([x, est.samples[0]])
    vals = _potential_at(est, pts)
    return float(vals[0] - vals[1])


def _potential_at(est, pts: np.ndarray) -> np.ndarray:
    # one distance table: the basis is the sample set wherever a != 0
    k = est.kernel.scalar
    B, C = est.basis, est.coeffs
    U = sq_dists(pts, B)
    P1 = k.dphi(U)
    t = np.einsum("ij,ij->i", B, C)
    psi_c = -2.0 * np.sum(P1 * (pts @ C.T - t[None, :]), axis=1)
    if est.offset == 0.0:
        return psi_c
    Gfun = 2.0 * est.dim * P1 + 4.0 * U * k.d2phi(U)
    return est.offset * Gfun.mean(axis=1) + psi_c


# ======================================================================
# serialization (versioned binary, little-endian)
# ======================================================================

_MAGIC = b"SKESTv1\n"

# a kernel's family and kind codes are their indices in FAMILIES and KINDS;
# scheme code k is _SCHEMES[k - 1], its parameters the scheme's fields in
# order, a SpectralCutoff's missing lam or rank as -1
_SCHEMES = (Tikhonov, TruncatedTikhonov, SpectralCutoff, Landweber, NuMethod)


def _scheme_code(scheme):
    if type(scheme) not in _SCHEMES:
        raise InputError(f"scheme {scheme!r} is not serializable")
    values = (getattr(scheme, f.name) for f in fields(scheme))
    params = [-1.0 if v is None else v for v in values]
    return _SCHEMES.index(type(scheme)) + 1, params


def _count(v, what) -> int:
    if not float(v).is_integer():
        raise InputError(f"serialized {what} {v!r} is not an integer")
    return int(v)


def _scheme_from_code(code, params):
    if not 1 <= code <= len(_SCHEMES):
        raise InputError(f"unknown scheme code {code} in serialized estimator")
    cls = _SCHEMES[code - 1]
    names = [f.name for f in fields(cls)]
    if len(params) != len(names):
        raise InputError(f"scheme code {code} takes {len(names)} parameter(s), "
                         f"got {len(params)}")
    kw = dict(zip(names, params))
    if cls is SpectralCutoff:
        kw["lam"] = None if kw["lam"] < 0 else kw["lam"]
        kw["rank"] = None if kw["rank"] < 0 else _count(kw["rank"], "rank")
    if "t" in kw:
        kw["t"] = _count(kw["t"], "iteration count")
    return cls(**kw)


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
    buf.write(struct.pack("<BBd", FAMILIES.index(est.kernel.scalar.family),
                          KINDS.index(est.kernel.kind), est.kernel.scalar.bandwidth))
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
    """Read back an estimator written by save_estimator; every InputError
    names the file."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return _decode_estimator(raw)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _decode_estimator(raw: bytes) -> FittedScoreEstimator:
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
    if fam >= len(FAMILIES) or kind >= len(KINDS):
        raise InputError("unknown kernel family/kind code")
    code, n_params = struct.unpack("<BB", take(2))
    params = np.frombuffer(take(8 * n_params), dtype="<f8").tolist()
    offset, M, d, N, flags = struct.unpack("<dIIIQ", take(28))
    if flags & ~1:
        raise InputError(f"unknown flag bits {flags & ~1:#x} in estimator file")
    # the sizes, the subset indices and the basis are the constructor's to check
    samples = np.frombuffer(take(8 * M * d), dtype="<f8").reshape(M, d)
    idx = None
    if flags & 1:
        idx = np.frombuffer(take(4 * N), dtype="<u4").astype(np.int64)
    coeffs = np.frombuffer(take(8 * N * d), dtype="<f8").reshape(N, d)
    if len(view) != 0:
        raise InputError("trailing bytes in estimator file")
    if not (np.all(np.isfinite(params)) and np.isfinite(offset)
            and np.all(np.isfinite(samples)) and np.all(np.isfinite(coeffs))):
        raise InputError("estimator file holds non-finite parameters, offset, "
                         "samples or coefficients")
    spec = MatrixKernelSpec(KINDS[kind], ScalarRadialKernel(FAMILIES[fam], bw))
    scheme = _scheme_from_code(code, params)
    # the stored a is checked, not used; files saved before the closed form hold
    # a nu-method a_t from the old recursion, up to 1e-9 relative off at t = 2e5
    expected = _scheme_offset(scheme)
    if not (np.isfinite(expected) and abs(offset - expected) <= 1e-6 * abs(expected)):
        raise InputError(f"offset {offset!r} contradicts the {type(scheme).__name__} "
                         f"scheme, which defines {expected!r}")
    return FittedScoreEstimator(spec, samples, coeffs, scheme, subset_indices=idx)
