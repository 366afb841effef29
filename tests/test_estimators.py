import inspect
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorekit import estimators, kernels, spectral_linalg
from scorekit.errors import FitError, InputError, NumericError
from scorekit.estimators import (
    FittedScoreEstimator,
    Landweber,
    NuMethod,
    SpectralCutoff,
    Tikhonov,
    TruncatedTikhonov,
    fit_landweber,
    fit_nu_method,
    fit_nystrom,
    fit_spectral_cutoff,
    fit_tikhonov,
    fit_tikhonov_cg,
    fit_truncated_tikhonov,
    landweber_iterations,
    landweber_path,
    load_estimator,
    nu_coefficients,
    nu_method_iterations,
    nu_method_path,
    predict,
    recover_log_density,
    save_estimator,
)
from scorekit.kernels import (
    DenseGram,
    ImplicitGram,
    MatrixKernelSpec,
    ScalarRadialKernel,
    assemble_gram,
    h_vector,
    query_tables,
    zeta_batch,
)
from scorekit.spectral_linalg import LinearOperator, conjugate_gradient

from estimator_files import CORRUPT, pack
from fd_oracles import fd_gradient, fd_jacobian
from helpers import (
    cross_apply_two_tables,
    eigh_filter_coeffs,
    eval_matrix_kernel,
    forbid_big_cross_grams,
    full_gram,
    landweber_recursion,
    nu_method_recursion,
    nystrom_blocks_kron,
    peak_bytes,
)


def cf(family="imq", bw=1.0):
    return MatrixKernelSpec("curl_free", ScalarRadialKernel(family, bw))


def diag(family="gaussian", bw=1.0):
    return MatrixKernelSpec("diagonal", ScalarRadialKernel(family, bw))


def random_instance(rng, M=None, d=None, kind=None, family=None, bw=None):
    M = M or int(rng.integers(3, 13))
    d = d or int(rng.integers(1, 4))
    kind = kind or rng.choice(["diagonal", "curl_free"])
    family = family or rng.choice(["imq", "gaussian"])
    bw = bw or float(rng.uniform(0.9, 2.0))
    X = rng.normal(size=(M, d))
    return X, MatrixKernelSpec(str(kind), ScalarRadialKernel(str(family), bw))


# ======================================================================
# scheme and count arguments
# ======================================================================

SMALL = np.random.default_rng(3).normal(size=(6, 2))


# the one lam range, [LAM_MIN, DBL_MAX], as every lam refusal names it
LAM_RANGE = re.escape("requires lam in [5.563e-309, 1.798e+308]")


class TestArguments:
    @pytest.mark.parametrize("make, match", [
        (lambda: TruncatedTikhonov(0.0), "TruncatedTikhonov " + LAM_RANGE),
        (lambda: TruncatedTikhonov(np.nan), "TruncatedTikhonov " + LAM_RANGE),
        (lambda: SpectralCutoff(lam=-1.0), "SpectralCutoff " + LAM_RANGE),
        (lambda: SpectralCutoff(rank=0), "SpectralCutoff rank must be an integer >= 1"),
        (lambda: Landweber(0.0, 3), "Landweber requires eta > 0"),
        (lambda: Landweber(np.inf, 3), "Landweber requires eta > 0"),
        (lambda: Landweber(0.1, 0), "Landweber t must be an integer >= 1"),
        (lambda: NuMethod(1.0, 0), "NuMethod t must be an integer >= 1"),
        # offsets of -inf and nan, and counts t that no double holds
        (lambda: NuMethod(1.0, 10 ** 200), "NuMethod offset .* is not a finite double"),
        (lambda: NuMethod(1.0, 10 ** 400), "NuMethod offset .* is not a finite double"),
        (lambda: NuMethod(1e308, 1), "NuMethod offset .* is not a finite double"),
        (lambda: Landweber(1e300, 10 ** 10), "Landweber offset .* is not a finite double"),
        (lambda: Landweber(0.5, 10 ** 400), "Landweber offset .* is not a finite double"),
    ], ids=["truncated-zero", "truncated-nan", "cutoff-lam", "cutoff-rank",
            "landweber-eta-zero", "landweber-eta-inf", "landweber-t", "nu-t",
            "nu-offset-t-1e200", "nu-offset-t-1e400", "nu-offset-nu-1e308",
            "landweber-offset-1e310", "landweber-offset-t-1e400"])
    def test_a_scheme_refuses_a_parameter_out_of_range(self, make, match):
        with pytest.raises(InputError, match=match):
            make()

    @pytest.mark.parametrize("call", [
        lambda: Landweber(0.1, 2.5),
        lambda: Landweber(0.1, True),
        lambda: NuMethod(1.0, 2.5),
        lambda: SpectralCutoff(rank=2.5),
        lambda: SpectralCutoff(rank=True),
        lambda: landweber_path(SMALL, cf(), [1.9, 3]),
        lambda: nu_method_path(SMALL, cf(), [True]),
        lambda: fit_landweber(SMALL, cf(), t=2.5),
        lambda: fit_nu_method(SMALL, cf(), t=2.5),
        lambda: fit_spectral_cutoff(SMALL, cf(), rank=2.5),
        lambda: fit_spectral_cutoff(SMALL, cf(), rank=True),
        lambda: fit_tikhonov_cg(SMALL, cf(), 0.1, max_iter=2.5),
        lambda: fit_tikhonov_cg(SMALL, cf(), 0.1, max_iter=True),
        lambda: conjugate_gradient(LinearOperator(3, lambda v: v), np.ones(3), max_iter=2.5),
        lambda: conjugate_gradient(LinearOperator(3, lambda v: v), np.ones(3), max_iter=0),
    ], ids=["Landweber-float", "Landweber-bool", "NuMethod-float", "SpectralCutoff-float",
            "SpectralCutoff-bool", "landweber_path", "nu_method_path-bool",
            "fit_landweber", "fit_nu_method", "fit_spectral_cutoff-float",
            "fit_spectral_cutoff-bool", "fit_tikhonov_cg-float", "fit_tikhonov_cg-bool",
            "conjugate_gradient-float", "conjugate_gradient-zero"])
    def test_a_count_that_is_not_an_integer_is_refused(self, call):
        # a float or a bool would be truncated, or saved in a file that
        # load_estimator refuses
        with pytest.raises(InputError, match="must be an integer >= 1, got "):
            call()

    def test_a_numpy_integer_count_is_an_integer(self, tmp_path):
        three = np.int64(3)
        for est in (fit_landweber(SMALL, cf(), t=three), fit_nu_method(SMALL, cf(), t=three),
                    fit_spectral_cutoff(SMALL, cf(), rank=three)):
            save_estimator(est, tmp_path / "est.bin")
            assert load_estimator(tmp_path / "est.bin").scheme == est.scheme
        assert fit_tikhonov_cg(SMALL, cf(), 0.1, max_iter=three).meta["cg_iterations"] <= 3

    @pytest.mark.parametrize("call", [
        lambda: Tikhonov(1e-320),
        lambda: Tikhonov(np.nextafter(estimators.LAM_MIN, 0.0)),
        lambda: Tikhonov(np.inf),
        lambda: TruncatedTikhonov(-0.5),
        lambda: SpectralCutoff(lam=np.nan),
        lambda: fit_tikhonov(SMALL, cf(), 1e-320),
        lambda: fit_tikhonov_cg(SMALL, cf(), 1e-320),
        lambda: fit_landweber(SMALL, cf(), lam=np.nan),
        lambda: fit_landweber(SMALL, cf(), lam=1e-320),
        lambda: fit_landweber(SMALL, cf(), lam=np.inf),
        lambda: fit_nu_method(SMALL, cf(), lam=np.inf),
        lambda: fit_nu_method(SMALL, cf(), lam=0.0),
        lambda: landweber_iterations(-1.0),
        lambda: nu_method_iterations(np.nan),
    ], ids=["Tikhonov-1e-320", "Tikhonov-below-LAM_MIN", "Tikhonov-inf", "TruncatedTikhonov",
            "SpectralCutoff-nan", "fit_tikhonov", "fit_tikhonov_cg", "fit_landweber-nan",
            "fit_landweber-1e-320", "fit_landweber-inf", "fit_nu_method-inf",
            "fit_nu_method-zero", "landweber_iterations", "nu_method_iterations"])
    def test_every_lam_takes_one_range(self, call):
        with pytest.raises(InputError, match=LAM_RANGE):
            call()

    def test_lam_range_ends_where_one_over_lam_is_finite(self):
        lo, hi = estimators.LAM_MIN, np.finfo(np.float64).max
        assert lo == np.nextafter(1.0 / hi, 1.0)
        with np.errstate(over="ignore"):
            assert np.isinf(np.float64(1.0) / np.nextafter(lo, 0.0))
        for lam in (lo, hi):
            assert np.isfinite(Tikhonov(lam).offset) and Tikhonov(lam).offset == -1.0 / lam
            assert TruncatedTikhonov(lam).lam == SpectralCutoff(lam=lam).lam == lam
        assert landweber_iterations(hi) == nu_method_iterations(hi) == 1
        assert nu_method_iterations(lo) == int(np.floor(lo ** -0.5))



# one spectrum, with a zero and values on both sides of the cut-off 0.05
SPECTRUM = np.array([0.0, 0.01, 0.05, 0.25, 2.0])


class TestSchemeFacts:
    """Each scheme class holds its offset a = -g(0) (0 where the fit's basis
    has no zeta term), and the two eigen schemes their filter g, each as
    the closed form the fits used before the classes held them."""

    @pytest.mark.parametrize("scheme, offset", [
        (Tikhonov(0.1), -1.0 / 0.1),
        (Tikhonov(3e-7), -1.0 / 3e-7),
        (TruncatedTikhonov(0.1), 0.0),
        (SpectralCutoff(lam=0.05), 0.0),
        (SpectralCutoff(rank=4), 0.0),
        (Landweber(0.37, 11), -11 * 0.37),
        (Landweber(0.9, np.int64(7)), -7 * 0.9),
        (NuMethod(1.0, 3), -2.0 * 3 * (3 + 2.0 * 1.0) / (4.0 * 1.0 + 1.0)),
        (NuMethod(2.5, 40), -2.0 * 40 * (40 + 2.0 * 2.5) / (4.0 * 2.5 + 1.0)),
    ], ids=["tikhonov", "tikhonov-small", "truncated_tikhonov", "spectral_cutoff-lam",
            "spectral_cutoff-rank", "landweber", "landweber-numpy-t", "nu_method",
            "nu_method-nu-2.5"])
    def test_offset_is_the_closed_form(self, scheme, offset):
        assert scheme.offset == offset

    @pytest.mark.parametrize("scheme, g", [
        # bit for bit the callable TestNystrom's square-root form test passes
        (TruncatedTikhonov(0.03), 1 / (SPECTRUM + 0.03)),
        (SpectralCutoff(lam=0.05), [0.0, 0.0, 1 / 0.05, 1 / 0.25, 1 / 2.0]),
        (SpectralCutoff(lam=0.05, rank=3), [0.0, 0.0, 1 / 0.05, 1 / 0.25, 1 / 2.0]),
    ], ids=["truncated_tikhonov", "spectral_cutoff", "spectral_cutoff-rank-resolved"])
    def test_filter_is_the_closed_form(self, scheme, g):
        assert np.array_equal(scheme.filter(SPECTRUM), g)

    def test_a_cutoff_by_rank_alone_has_no_filter(self):
        with pytest.raises(InputError, match="explicit lam"):
            SpectralCutoff(rank=2).filter(SPECTRUM)


# ======================================================================
# Tikhonov
# ======================================================================

class TestTikhonov:
    def test_single_sample_at_origin_predicts_zero(self):
        est = fit_tikhonov(np.zeros((1, 1)), diag(), 0.5)
        assert est.predict([[0.0]]) == pytest.approx(0.0, abs=1e-15)

    def test_two_sample_antisymmetry_reference_values(self):
        X = np.array([[-1.0], [1.0]])
        est = fit_tikhonov(X, diag(), 0.1)
        assert abs(est.predict([[0.0]])[0, 0]) < 1e-12
        v_minus = est.predict([[-1.0]])[0, 0]
        v_plus = est.predict([[1.0]])[0, 0]
        assert v_minus == pytest.approx(0.254, abs=1e-3)
        assert v_plus == pytest.approx(-v_minus, abs=1e-12)

    def test_in_sample_predictions_solve_shifted_system(self):
        # stacked S over the samples must satisfy (K/M + lam I) S = -h
        rng = np.random.default_rng(3)
        for trial in range(6):
            X, spec = random_instance(rng)
            lam = float(rng.uniform(0.01, 0.3))
            M = X.shape[0]
            est = fit_tikhonov(X, spec, lam)
            S = est.predict(X).ravel()
            K = full_gram(spec, X)
            h = h_vector(spec, X)
            resid = (K / M + lam * np.eye(K.shape[0])) @ S + h
            assert np.abs(resid).max() < 1e-10 * max(1.0, np.abs(h).max())

    def test_coefficients_meet_residual_contract(self):
        rng = np.random.default_rng(4)
        X, spec = random_instance(rng, M=10, d=2, kind="curl_free")
        lam = 0.05
        est = fit_tikhonov(X, spec, lam)
        K = assemble_gram(spec, X).matrix
        h = h_vector(spec, X)
        b = h / lam
        r = (K + X.shape[0] * lam * np.eye(K.shape[0])) @ est.coeffs.ravel() - b
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)
        assert est.offset == -1.0 / lam

    def test_implicit_mode_matches_dense(self):
        rng = np.random.default_rng(5)
        X, spec = random_instance(rng, M=12, d=3, kind="curl_free")
        lam = 0.08
        a = fit_tikhonov(X, spec, lam)
        b = fit_tikhonov(X, spec, lam, gram=ImplicitGram(spec, X))
        assert (a.meta["mode"], b.meta["mode"]) == ("dense", "implicit")
        Q = rng.normal(size=(7, 3))
        assert np.abs(a.predict(Q) - b.predict(Q)).max() < 1e-8

    def test_reusing_prebuilt_gram_matches(self):
        rng = np.random.default_rng(6)
        X, spec = random_instance(rng, M=9, d=2, kind="curl_free")
        gram = assemble_gram(spec, X)
        a = fit_tikhonov(X, spec, 0.1)
        b = fit_tikhonov(X, spec, 0.1, gram=gram)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_diagonal_direct_solve_reads_the_scalar_gram(self, monkeypatch):
        # the scalar M x M Gram, never an Md x Md one; the coefficients solve
        # the Kronecker system (kron(k, I_d) + M lam I) c = h / lam
        rng = np.random.default_rng(9)
        X, spec = random_instance(rng, M=10, d=4, kind="diagonal")
        shapes, orig = [], kernels.cross_gram

        def cross_gram(*args):
            out = orig(*args)
            shapes.append(out.shape)
            return out
        monkeypatch.setattr(kernels, "cross_gram", cross_gram)
        est = fit_tikhonov(X, spec, 0.05)
        assert shapes == [(10, 10)] and est.meta["mode"] == "dense"
        b = h_vector(spec, X) / 0.05
        K = full_gram(spec, X)
        r = (K + 10 * 0.05 * np.eye(40)) @ est.coeffs.ravel() - b
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)

    def test_gram_for_other_samples_rejected(self):
        rng = np.random.default_rng(7)
        X, spec = random_instance(rng, M=6, d=2, kind="curl_free")
        gram = assemble_gram(spec, rng.normal(size=(6, 2)))
        with pytest.raises(InputError):
            fit_tikhonov(X, spec, 0.1, gram=gram)
        # and one for the same samples under another kernel spec
        with pytest.raises(InputError, match="different kernel spec"):
            fit_tikhonov(X, spec, 0.1, gram=assemble_gram(cf("gaussian", 3.0), X))

    def test_a_failed_dense_solve_is_a_fit_error(self):
        # a hand-built indefinite Gram: G + M lam I = -0.4 I has no Cholesky factor
        X, spec = SMALL, cf()
        with pytest.raises(FitError, match="^tikhonov solve failed: "):
            fit_tikhonov(X, spec, 0.1, gram=DenseGram(spec, X, -np.eye(12)))

    def test_bad_lam_rejected(self):
        X = np.zeros((2, 1))
        with pytest.raises(InputError):
            fit_tikhonov(X, diag(), 0.0)
        with pytest.raises(InputError):
            fit_tikhonov(X, diag(), -1.0)

    def test_prediction_norm_non_increasing_in_lam(self):
        # at the training samples S(lam) = -(K/M + lam I)^{-1} h, whose
        # norm is non-increasing in lam
        rng = np.random.default_rng(8)
        X, spec = random_instance(rng, M=10, d=2)
        lams = np.geomspace(1e-4, 10.0, 12)
        norms = [np.linalg.norm(fit_tikhonov(X, spec, lam).predict(X))
                 for lam in lams]
        diffs = np.diff(norms)
        assert np.all(diffs <= 1e-12 + 1e-12 * np.abs(norms[:-1]))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 3),
           st.floats(0.02, 2.0), st.floats(0.9, 1.8),
           st.sampled_from(["diagonal", "curl_free"]),
           st.sampled_from(["imq", "gaussian"]),
           st.integers(0, 2**31 - 1))
    def test_in_sample_identity_property(self, M, d, lam, bw, kind, family, seed):
        X = np.random.default_rng(seed).normal(size=(M, d))
        spec = MatrixKernelSpec(kind, ScalarRadialKernel(family, bw))
        est = fit_tikhonov(X, spec, lam)
        S = est.predict(X).ravel()
        K = full_gram(spec, X)
        h = h_vector(spec, X)
        resid = (K / M + lam * np.eye(K.shape[0])) @ S + h
        assert np.abs(resid).max() < 1e-8 * max(1.0, np.abs(h).max())


# ======================================================================
# conjugate-gradient Tikhonov
# ======================================================================

class TestTikhonovCG:
    def test_matches_direct_solve_at_tight_tol(self):
        rng = np.random.default_rng(10)
        X, spec = random_instance(rng, M=40, d=2, kind="curl_free")
        direct = fit_tikhonov(X, spec, 0.05)
        cg = fit_tikhonov_cg(X, spec, 0.05, tol=1e-6, max_iter=2000)
        Q = rng.normal(size=(20, 2))
        assert np.abs(direct.predict(Q) - cg.predict(Q)).max() < 1e-3

    def test_huge_lam_shrinks_to_zero(self):
        rng = np.random.default_rng(11)
        X, spec = random_instance(rng, M=12, d=2, kind="curl_free")
        est = fit_tikhonov_cg(X, spec, 1e6)
        Q = rng.normal(size=(8, 2))
        assert np.abs(est.predict(Q)).max() < 1e-4

    def test_single_sample_is_pure_zeta_term(self):
        X = np.array([[0.3, -0.7]])
        spec = cf()
        lam = 0.2
        est = fit_tikhonov_cg(X, spec, lam)
        Q = np.random.default_rng(12).normal(size=(5, 2))
        assert np.abs(est.predict(Q) + zeta_batch(spec, X, Q) / lam).max() < 1e-12

    def test_nonconvergence_is_reported_not_raised(self):
        rng = np.random.default_rng(13)
        X, spec = random_instance(rng, M=30, d=2, kind="curl_free")
        est = fit_tikhonov_cg(X, spec, 1e-6, tol=1e-14, max_iter=1)
        assert est.meta["cg_converged"] is False
        assert "warnings" in est.meta

    def test_default_budget_converges_on_easy_instance(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(32, 2))
        est = fit_tikhonov_cg(X, cf(bw=1.5), 0.1)
        assert est.meta["cg_converged"] is True
        assert "warnings" not in est.meta

    def test_strict_implicit_fit_raises_on_budget_exhaustion(self, monkeypatch):
        # the budget is max(_CG_MIN_ITER, 4M) = 120 steps; 1e-10 takes 238
        monkeypatch.setattr(estimators, "_CG_MIN_ITER", 1)
        rng = np.random.default_rng(15)
        X, spec = random_instance(rng, M=30, d=2, kind="curl_free")
        with pytest.raises(FitError, match=r"after 120 iterations \(target 1e-10\)"):
            fit_tikhonov(X, spec, 1e-7, gram=ImplicitGram(spec, X))


# ======================================================================
# truncated Tikhonov
# ======================================================================

class TestTruncatedTikhonov:
    def test_in_sample_equals_shifted_inverse(self):
        rng = np.random.default_rng(20)
        for trial in range(6):
            X, spec = random_instance(rng)
            lam = float(rng.uniform(0.01, 0.3))
            M = X.shape[0]
            est = fit_truncated_tikhonov(X, spec, lam)
            K = full_gram(spec, X)
            h = h_vector(spec, X)
            S_ref = -np.linalg.solve(K / M + lam * np.eye(K.shape[0]), h)
            assert np.abs(est.predict(X).ravel() - S_ref).max() < 1e-8
            assert est.offset == 0.0

    def test_matches_tikhonov_at_training_samples(self):
        rng = np.random.default_rng(21)
        X, spec = random_instance(rng, M=11, d=2, kind="curl_free")
        lam = 0.07
        a = fit_tikhonov(X, spec, lam).predict(X)
        b = fit_truncated_tikhonov(X, spec, lam).predict(X)
        assert np.abs(a - b).max() < 1e-8

    def test_single_sample_at_origin(self):
        est = fit_truncated_tikhonov(np.zeros((1, 1)), diag(), 0.3)
        assert est.predict([[0.0]]) == pytest.approx(0.0, abs=1e-15)

    def test_curl_free_refuses_implicit_gram(self):
        X = np.random.default_rng(22).normal(size=(6, 2))
        spec = cf()
        gram = ImplicitGram(spec, X)
        with pytest.raises(InputError):
            fit_truncated_tikhonov(X, spec, 0.1, gram=gram)

    def test_diagonal_reads_the_scalar_spectrum(self):
        # the dense form of a diagonal Gram is its scalar M x M factor; a
        # matrix-free one is refused like a curl-free one
        X = np.random.default_rng(23).normal(size=(7, 2))
        spec = diag("imq")
        gram = assemble_gram(spec, X)
        assert gram.matrix.shape == (7, 7)
        a = fit_truncated_tikhonov(X, spec, 0.1, gram=gram)
        b = fit_truncated_tikhonov(X, spec, 0.1)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert len(gram.eigensystem().values) == 7
        with pytest.raises(InputError):
            fit_truncated_tikhonov(X, spec, 0.1, gram=ImplicitGram(spec, X))

    def test_diagonal_rejects_gram_for_other_samples(self):
        # the fit reads h from the Gram, so the Gram must match the samples
        rng = np.random.default_rng(24)
        X, spec = rng.normal(size=(7, 2)), diag("imq")
        gram = assemble_gram(spec, rng.normal(size=(7, 2)))
        with pytest.raises(InputError):
            fit_truncated_tikhonov(X, spec, 0.1, gram=gram)


# ======================================================================
# spectral cut-off
# ======================================================================

def ssge_reference_coeffs(X, family, bw, lam_cut):
    """Independent coordinatewise build from the scalar Gram spectrum.

    Uses numpy.linalg.eigh directly on an independently computed scalar
    Gram; keeps eigenpairs with eigenvalue/M >= lam_cut and forms
    C[:, i] = -sum_j (M / mu_j^2) w_j (w_j . H[:, i]).
    """
    M, d = X.shape
    u = np.square(X[:, None, :] - X[None, :, :]).sum(-1)
    if family == "gaussian":
        k = np.exp(-u / (2 * bw * bw))
        dphi = -k / (2 * bw * bw)
    else:
        k = (1 + u / bw**2) ** -0.5
        dphi = -0.5 / bw**2 * (1 + u / bw**2) ** -1.5
    H = np.zeros((M, d))
    for i in range(d):
        H[:, i] = (2 * dphi * (X[:, i][:, None] - X[:, i][None, :])).sum(axis=0) / M
    mu, W = np.linalg.eigh(k)
    C = np.zeros((M, d))
    for j in range(M):
        if mu[j] / M >= lam_cut:
            C -= (M / mu[j] ** 2) * np.outer(W[:, j], W[:, j] @ H)
    return C


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("family", ["imq", "gaussian"])
def test_curl_free_eigen_filters_match_an_eigh_reference(d, family):
    """The curl-free filters read the tridiagonal reduction, not eigh's
    eigenvectors; their coefficients agree with eigh's within 1e-9.

    The Grams here have condition numbers from 10 to 4e3. On a nearly
    singular one (60 normal samples at d = 1) the directions near the
    1e-12 rank cutoff are fixed only to rounding over the gap, and two eigh
    drivers (evd, evr) already disagree by 3e-5 in these coefficients.
    """
    rng = np.random.default_rng(10 + d)
    M = 24 if d == 1 else 20
    X = (np.arange(M) + 0.3 * rng.normal(size=M))[:, None] if d == 1 else rng.normal(size=(M, d))
    spec = cf(family, 1.0)
    gram = assemble_gram(spec, X)
    assert isinstance(gram.eigensystem(), spectral_linalg.TridiagonalEigen)
    s = gram.eigensystem().values / M

    def cutoff(s, lam):
        return np.where(s >= lam, 1.0 / (M * s * s), 0.0)
    cases = [(fit_truncated_tikhonov(X, spec, lam, gram=gram),
              eigh_filter_coeffs(spec, X, lambda s, lam=lam: 1.0 / ((s + lam) * M * s)))
             for lam in (1.0, 1e-2, 1e-4)]
    # thresholds between eigenvalues, so rounding cannot flip one across
    cases += [(fit_spectral_cutoff(X, spec, lam=lam, gram=gram),
               eigh_filter_coeffs(spec, X, lambda s, lam=lam: cutoff(s, lam)))
              for lam in (np.sqrt(s[2] * s[3]), np.sqrt(s[M // 2] * s[M // 2 + 1]))]
    cases += [(fit_spectral_cutoff(X, spec, rank=rank, gram=gram),
               eigh_filter_coeffs(spec, X, cutoff, rank=rank))
              for rank in (3, len(s) - 1)]
    for est, ref in cases:
        assert np.abs(est.coeffs - ref).max() <= 1e-9 * np.abs(ref).max()


class TestSpectralCutoff:
    def test_threshold_above_top_eigenvalue_gives_zero_estimator(self):
        rng = np.random.default_rng(30)
        X, spec = random_instance(rng, M=8, d=2)
        est = fit_spectral_cutoff(X, spec, lam=1e9)
        Q = rng.normal(size=(5, 2))
        assert np.all(est.predict(Q) == 0.0)
        assert np.all(est.coeffs == 0.0)

    def test_matches_independent_scalar_spectrum_build(self):
        rng = np.random.default_rng(31)
        for family in ("imq", "gaussian"):
            X = rng.normal(size=(9, 3))
            bw = 1.4
            spec = MatrixKernelSpec("diagonal", ScalarRadialKernel(family, bw))
            sig = np.sort(np.linalg.eigvalsh(
                assemble_gram(spec, X).matrix))[::-1] / 9
            lam_cut = np.sqrt(sig[6] * sig[7])  # strictly between two eigenvalues
            est = fit_spectral_cutoff(X, spec, lam=lam_cut)
            C_ref = ssge_reference_coeffs(X, family, bw, lam_cut)
            assert np.abs(est.coeffs - C_ref).max() < 1e-8

    def test_full_rank_cutoff_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(32)
        X = rng.uniform(-2, 2, size=(7, 2))
        spec = cf("imq", 1.5)
        est = fit_spectral_cutoff(X, spec, rank=14)
        K = assemble_gram(spec, X).matrix
        h = h_vector(spec, X)
        c_ref = -7 * (np.linalg.pinv(K) @ np.linalg.pinv(K) @ h)
        assert np.abs(est.coeffs.ravel() - c_ref).max() < 1e-6

    def test_rank_resolves_to_inclusive_threshold(self):
        # diagonal kernels carry each scalar eigenvalue with multiplicity
        # d; an odd rank request lands mid-tie and keeps the whole tie
        rng = np.random.default_rng(33)
        X = rng.normal(size=(6, 2))
        spec = diag("imq")
        a = fit_spectral_cutoff(X, spec, rank=3)
        b = fit_spectral_cutoff(X, spec, rank=4)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert a.scheme.lam == b.scheme.lam

    def test_rank_beyond_numeric_rank_clamps_with_warning(self):
        X = np.array([[0.0, 0.0], [1.0, 0.5], [1.0, 0.5], [0.2, -1.0]])
        spec = diag("gaussian")
        with pytest.warns(UserWarning, match="numeric rank"):
            est = fit_spectral_cutoff(X, spec, rank=8)
        ref = fit_spectral_cutoff(X, spec, rank=6)  # numeric rank is 3*d
        assert np.abs(est.coeffs - ref.coeffs).max() < 1e-12

    @pytest.mark.parametrize("kind", ["curl_free", "diagonal"])
    def test_rank_fit_builds_and_decomposes_the_gram_once(self, monkeypatch, kind):
        rng = np.random.default_rng(34)
        X = rng.normal(size=(40, 3))
        spec = MatrixKernelSpec(kind, ScalarRadialKernel("imq", 1.5))
        calls = {"cross_gram": 0, "sym_eig": 0}
        shapes = []
        for module, name in ((kernels, "cross_gram"), (spectral_linalg, "sym_eig"),
                             (estimators, "sym_eig")):
            def counted(*args, _orig=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                out = _orig(*args, **kwargs)
                shapes.append(np.shape(out if _name == "cross_gram" else args[0]))
                return out
            monkeypatch.setattr(module, name, counted)
        est = fit_spectral_cutoff(X, spec, rank=30)
        assert calls == {"cross_gram": 1, "sym_eig": 1}
        # the Gram built and decomposed: a diagonal kernel's is the scalar M x M one
        n = 40 if kind == "diagonal" else 120
        assert shapes == [(n, n), (n, n)]
        monkeypatch.undo()
        # the rank's threshold, refitted from scratch, as a second pass would
        two_pass = fit_spectral_cutoff(X, spec, lam=est.scheme.lam)
        assert np.array_equal(est.coeffs, two_pass.coeffs)

    def test_lam_and_rank_are_mutually_exclusive(self):
        X = np.zeros((2, 1))
        with pytest.raises(InputError):
            fit_spectral_cutoff(X, diag())
        with pytest.raises(InputError):
            fit_spectral_cutoff(X, diag(), lam=0.1, rank=1)
        with pytest.raises(InputError):
            fit_spectral_cutoff(X, diag(), rank=0)
        with pytest.raises(InputError):
            fit_spectral_cutoff(X, diag(), rank=3)


# ======================================================================
# sizes refused up front
# ======================================================================

class TestReducedGramReaders:
    """eigensystem() reduces a dense Gram in its own buffer and leaves the
    reflectors in its upper triangle; every other reader of that Gram reads
    the lower triangle and gives the bits it gives on a fresh Gram."""

    X = np.random.default_rng(22).normal(size=(40, 2))
    SPEC = cf("imq", 1.3)

    def readers(self, gram, factor_calls):
        X, spec, h = self.X, self.SPEC, gram.divergence()
        krylov = spectral_linalg.lanczos(gram, h, gram.dim, 1e-300)
        out = {"lanczos": (krylov.V, krylov.T),
               "power_iteration": spectral_linalg.power_iteration(gram)}
        out["tikhonov_start"] = fit_tikhonov(X, spec, 0.1, gram=gram, _krylov=krylov).coeffs
        assert not factor_calls  # the Krylov start met the residual
        out["tikhonov_cholesky"] = fit_tikhonov(X, spec, 0.1, gram=gram).coeffs
        assert len(factor_calls) == 1
        out["landweber_path"] = [e.coeffs for e in landweber_path(X, spec, [3, 10], gram=gram)]
        factor_calls.clear()
        return out

    def test_each_reader_keeps_its_bits(self, monkeypatch):
        calls, orig = [], spectral_linalg.scipy.linalg.cho_factor
        monkeypatch.setattr(spectral_linalg.scipy.linalg, "cho_factor",
                            lambda *a, **kw: calls.append(1) or orig(*a, **kw))
        fresh = assemble_gram(self.SPEC, self.X)
        reduced = assemble_gram(self.SPEC, self.X)
        reduced.eigensystem()
        # the reduction wrote its reflectors over the upper triangle
        assert not np.array_equal(reduced.matrix, fresh.matrix)
        ref, got = self.readers(fresh, calls), self.readers(reduced, calls)
        assert ref.keys() == got.keys()
        for name, value in ref.items():
            parts = value if isinstance(value, (tuple, list)) else [value]
            others = got[name] if isinstance(value, (tuple, list)) else [got[name]]
            assert len(parts) == len(others)
            assert all(np.array_equal(a, b) for a, b in zip(parts, others)), name


class TestSizeRefusal:
    """A curl-free system over the dense limit (Md = 4160 here) is refused
    by the fits that need it dense, with the bytes, before any allocation."""

    M, D = 260, 16
    NEED = f"{(260 * 16) ** 2 * 8} bytes"

    @pytest.mark.parametrize("fit", [
        lambda X, spec: fit_truncated_tikhonov(X, spec, 0.1),
        lambda X, spec: fit_spectral_cutoff(X, spec, lam=0.1),
        lambda X, spec: fit_spectral_cutoff(X, spec, rank=100),
    ], ids=["truncated_tikhonov", "spectral_cutoff-lam", "spectral_cutoff-rank"])
    def test_eigen_filters_refuse_with_the_bytes(self, monkeypatch, fit):
        forbid_big_cross_grams(monkeypatch)
        X = np.random.default_rng(90).normal(size=(self.M, self.D))
        with pytest.raises(InputError, match=self.NEED):
            fit(X, cf("imq", 4.0))

    def test_nystrom_refuses_a_subset_over_the_limit(self, monkeypatch):
        forbid_big_cross_grams(monkeypatch)
        X = np.random.default_rng(91).normal(size=(self.M, self.D))
        with pytest.raises(InputError, match=f"{(257 * 16) ** 2 * 8} bytes"):
            fit_nystrom(X, np.arange(257), cf("imq", 4.0), TruncatedTikhonov(0.1))


class TestScalarGramsStayDense:
    """At d = 1 a curl-free Gram is a scalar M x M kernel, dense at every M
    like a diagonal one: over a dense limit lowered to 64 the fits that need
    it dense run there and give the bits they give at the default limit.
    test_one_rule_gives_the_form_rows_multiplicity_and_bytes checks the form."""

    LIMIT, M = 64, 80

    @pytest.mark.parametrize("fit", [
        lambda X, spec: fit_truncated_tikhonov(X, spec, 0.1),
        lambda X, spec: fit_spectral_cutoff(X, spec, rank=10),
        lambda X, spec: fit_nystrom(X, np.arange(72), spec, TruncatedTikhonov(0.1)),
    ], ids=["truncated_tikhonov", "spectral_cutoff-rank", "nystrom"])
    def test_fits_that_need_it_dense_run_over_the_limit(self, monkeypatch, fit):
        X = np.random.default_rng(93).normal(size=(self.M, 1))
        ref = fit(X, cf("imq", 0.8))
        monkeypatch.setattr(kernels, "DENSE_SYSTEM_LIMIT", self.LIMIT)
        est = fit(X, cf("imq", 0.8))
        assert est.coeffs.tobytes() == ref.coeffs.tobytes()


@pytest.mark.parametrize("M", [3, 9], ids=["M<limit", "M>limit"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["diagonal", "curl_free"])
def test_one_rule_gives_the_form_rows_multiplicity_and_bytes(monkeypatch, kind, d, M):
    """K = G (x) I_m over a dense limit lowered to 8 rows: a diagonal kernel
    has its scalar M x M factor and m = d, a curl-free one its Md x Md Gram
    and m = 1; a scalar M x M Gram is dense at every M, a curl-free one at
    d > 1 only up to the limit. Every refusal names G's 8 n^2 bytes."""
    monkeypatch.setattr(kernels, "DENSE_SYSTEM_LIMIT", 8)
    m = d if kind == "diagonal" else 1
    n = M * d // m
    dense = n == M or n <= 8
    need = f"{8 * n * n} bytes"
    spec = MatrixKernelSpec(kind, ScalarRadialKernel("imq", 1.0))
    X = np.random.default_rng(M * d).normal(size=(M, d))
    gram = assemble_gram(spec, X)
    with pytest.raises(InputError, match=f"dense {n} x {n} Gram, {need}"):
        fit_truncated_tikhonov(X, spec, 0.1, gram=ImplicitGram(spec, X))
    if not dense:
        assert isinstance(gram, ImplicitGram)
        with pytest.raises(InputError, match=need):
            fit_spectral_cutoff(X, spec, lam=0.1)
        with pytest.raises(InputError, match=need):
            fit_nystrom(X, np.arange(M), spec, TruncatedTikhonov(0.1))
        return
    assert isinstance(gram, DenseGram) and gram.matrix.shape == (n, n) and gram.m == m

    def no_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(kernels, "cross_gram", no_memory)
    monkeypatch.setattr(kernels, "h_vector", no_memory)
    with pytest.raises(MemoryError, match=f"~{need}"):
        assemble_gram(spec, X)


# ======================================================================
# Landweber
# ======================================================================

class TestLandweber:
    def test_a_zero_gram_has_no_step_size(self):
        X, spec = SMALL, cf()
        with pytest.raises(FitError, match="sigma_max estimate is zero"):
            landweber_path(X, spec, [3], gram=DenseGram(spec, X, np.zeros((12, 12))))

    def test_one_step_is_scaled_zeta(self):
        rng = np.random.default_rng(40)
        X, spec = random_instance(rng, M=6, d=2, kind="curl_free")
        est = fit_landweber(X, spec, eta=0.03, t=1)
        Q = rng.normal(size=(5, 2))
        assert np.all(est.predict(Q) == -0.03 * zeta_batch(spec, X, Q))
        assert np.all(est.coeffs == 0.0)

    def test_two_step_coefficients_closed_form(self):
        # c_2 = c_1 - (eta/M) K c_1 - (eta a_1 / M) h with c_1 = 0 and
        # a_1 = -eta, so c_2 = +eta^2 h / M and a_2 = -2 eta
        rng = np.random.default_rng(41)
        X, spec = random_instance(rng, M=7, d=2)
        eta = 0.05
        est = fit_landweber(X, spec, eta=eta, t=2)
        h = h_vector(spec, X)
        assert np.abs(est.coeffs.ravel() - eta * eta * h / 7).max() < 1e-16
        assert est.offset == -2 * eta

    def test_recursion_equals_spectral_polynomial_form(self):
        # reference weights (g(s) - g(0)) / (M s) with
        # g(s) = eta sum_{i<t} (1 - eta s)^i, computed through
        # expm1/log1p so tiny eigenvalues do not cancel catastrophically
        def spectral_coeffs(eig, h, M, eta, t):
            sig = eig.values / M
            w = np.full_like(sig, -eta * eta * t * (t - 1) / (2 * M))  # s -> 0 limit
            pos = sig > 1e-13 * max(sig.max(), 1.0)
            sp = sig[pos]
            acc = np.zeros_like(sp)
            for i in range(1, t):
                acc += np.expm1(i * np.log1p(-eta * sp))
            w[pos] = (eta / M) * acc / sp
            return -(eig.vectors @ (w * (eig.vectors.T @ h)))

        rng = np.random.default_rng(42)
        for trial in range(5):
            X, spec = random_instance(rng, M=int(rng.integers(4, 12)))
            M = X.shape[0]
            eta, t = float(rng.uniform(0.01, 0.05)), int(rng.integers(2, 12))
            est = fit_landweber(X, spec, eta=eta, t=t)
            eig = spectral_linalg.sym_eig(full_gram(spec, X))
            h = h_vector(spec, X)
            c_ref = spectral_coeffs(eig, h, M, eta, t)
            assert np.abs(est.coeffs.ravel() - c_ref).max() < 1e-8
            assert est.offset == -t * eta
            # and the full field at the samples matches -g(K/M) h
            sig = np.maximum(eig.values / M, 0.0)
            g = np.where(sig > 0, (1 - (1 - eta * sig) ** t)
                         / np.maximum(sig, 1e-300), t * eta)
            S_ref = -(eig.vectors @ (g * (eig.vectors.T @ h)))
            assert np.abs(est.predict(X).ravel() - S_ref).max() < 1e-8

    def test_default_step_size_respects_bound(self):
        rng = np.random.default_rng(43)
        X, spec = random_instance(rng, M=10, d=2)
        est = fit_landweber(X, spec, t=5)
        sig_max = np.max(np.linalg.eigvalsh(assemble_gram(spec, X).matrix)) / 10
        assert est.scheme.eta * sig_max < 1.0
        assert est.scheme.eta == pytest.approx(0.9 / sig_max, rel=1e-2)

    def test_step_size_violation_names_the_bound(self):
        rng = np.random.default_rng(44)
        X, spec = random_instance(rng, M=8, d=2)
        with pytest.raises(FitError, match="eta \\* sigma_max"):
            fit_landweber(X, spec, eta=1e3, t=3)

    def test_path_snapshots_match_individual_fits(self):
        rng = np.random.default_rng(45)
        X, spec = random_instance(rng, M=9, d=2, kind="curl_free")
        path = landweber_path(X, spec, ts=[2, 5, 9], eta=0.02)
        for est in path:
            solo = fit_landweber(X, spec, eta=0.02, t=est.scheme.t)
            assert np.array_equal(est.coeffs, solo.coeffs)
            assert est.offset == solo.offset

    def test_implicit_mode_matches_dense(self):
        rng = np.random.default_rng(46)
        X, spec = random_instance(rng, M=8, d=3, kind="curl_free")
        a = fit_landweber(X, spec, eta=0.03, t=6)
        b = fit_landweber(X, spec, eta=0.03, t=6, gram=ImplicitGram(spec, X))
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-12

    def test_lam_maps_to_iteration_count(self):
        assert landweber_iterations(0.25) == 4
        assert landweber_iterations(2.0) == 1
        rng = np.random.default_rng(47)
        X, spec = random_instance(rng, M=6, d=1)
        a = fit_landweber(X, spec, eta=0.05, lam=0.25)
        b = fit_landweber(X, spec, eta=0.05, t=4)
        assert np.array_equal(a.coeffs, b.coeffs)


# ======================================================================
# nu-method
# ======================================================================

def direct_nu_field_iteration(X, spec, t, nu):
    """Independent reference: iterate the score field in sample space.

    S_1 = -omega_1 h; S_{t+1} = S_t + u_t (S_t - S_{t-1})
                                  - omega_t (h + (K/M) S_t).
    Returns the stacked in-sample field after t steps.
    """
    M = X.shape[0]
    K = full_gram(spec, X)
    h = h_vector(spec, X)
    _, w1 = nu_coefficients(1, nu)
    S_prev = np.zeros_like(h)
    S_cur = -w1 * h
    for tt in range(2, t + 1):
        u, w = nu_coefficients(tt, nu)
        S_next = S_cur + u * (S_cur - S_prev) - w * (h + K @ S_cur / M)
        S_prev, S_cur = S_cur, S_next
    return S_cur


class TestNuMethod:
    def test_one_step_is_minus_six_fifths_zeta(self):
        rng = np.random.default_rng(50)
        X, spec = random_instance(rng, M=7, d=3, kind="curl_free")
        est = fit_nu_method(X, spec, nu=1.0, t=1)
        Q = rng.normal(size=(6, 3))
        assert np.abs(est.predict(Q) + 1.2 * zeta_batch(spec, X, Q)).max() < 1e-12
        assert est.offset == -1.2
        assert np.all(est.coeffs == 0.0)

    def test_recursion_weights_reference_values(self):
        for nu in (1.0, 1.5, 2.0, 3.7):
            u1, _ = nu_coefficients(1, nu)
            assert u1 == 0.0
        u2, w2 = nu_coefficients(2, 1.0)
        assert u2 == pytest.approx(5 / 63, abs=1e-15)
        assert w2 == pytest.approx(40 / 21, abs=1e-14)
        _, w1 = nu_coefficients(1, 1.0)
        assert w1 == pytest.approx(6 / 5, abs=1e-15)

    def test_matches_direct_field_iteration(self):
        rng = np.random.default_rng(51)
        for trial in range(4):
            X, spec = random_instance(rng, M=int(rng.integers(4, 10)))
            t = int(rng.integers(2, 9))
            est = fit_nu_method(X, spec, nu=1.0, t=t)
            S_ref = direct_nu_field_iteration(X, spec, t, 1.0)
            assert np.abs(est.predict(X).ravel() - S_ref).max() < 1e-10

    def test_five_steps_various_nu(self):
        rng = np.random.default_rng(52)
        X, spec = random_instance(rng, M=8, d=2, kind="curl_free")
        for nu in (1.0, 2.0):
            est = fit_nu_method(X, spec, nu=nu, t=5)
            S_ref = direct_nu_field_iteration(X, spec, 5, nu)
            assert np.abs(est.predict(X).ravel() - S_ref).max() < 1e-10

    def test_implicit_mode_matches_dense(self):
        rng = np.random.default_rng(53)
        X, spec = random_instance(rng, M=9, d=3, kind="curl_free")
        a = fit_nu_method(X, spec, t=7)
        b = fit_nu_method(X, spec, t=7, gram=ImplicitGram(spec, X))
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-12
        assert a.offset == b.offset

    def test_path_snapshots_match_individual_fits(self):
        rng = np.random.default_rng(54)
        X, spec = random_instance(rng, M=7, d=2, kind="curl_free")
        for est in nu_method_path(X, spec, ts=[1, 3, 8]):
            solo = fit_nu_method(X, spec, t=est.scheme.t)
            assert np.array_equal(est.coeffs, solo.coeffs)
            assert est.offset == solo.offset

    @pytest.mark.parametrize("dim", ["t_max - 1", "full", "one short"])
    def test_krylov_basis_reproduces_the_path(self, dim):
        # c_t lies in K_{t-1}(K, h): t_max - 1 Lanczos vectors suffice for
        # every snapshot up to t_max, and so does the invariant full space
        # a narrow bandwidth flattens the spectrum, so every Krylov direction
        # carries weight and a basis one vector short is visibly wrong: the
        # path does not read it and runs the recursion on K
        rng = np.random.default_rng(55)
        X, spec = random_instance(rng, M=20, d=3, kind="curl_free", bw=0.3)
        gram = assemble_gram(spec, X)
        ts = [1, 2, 5, 17]
        k = {"t_max - 1": 16, "full": 60, "one short": 15}[dim]
        basis = spectral_linalg.lanczos(gram, gram.divergence(), k, 1e-300)
        assert len(basis.V) == k
        direct = nu_method_path(X, spec, ts, nu=1.5, gram=gram)
        lifted = nu_method_path(X, spec, ts, nu=1.5, gram=gram, _krylov=basis)
        for a, b in zip(direct, lifted):
            assert a.scheme == b.scheme and a.offset == b.offset
            if dim == "one short":
                assert np.array_equal(a.coeffs, b.coeffs)
            assert np.linalg.norm(a.coeffs - b.coeffs) <= 1e-10 * max(
                np.linalg.norm(a.coeffs), 1e-300)

    def test_lam_maps_to_iteration_count(self):
        assert nu_method_iterations(0.01) == 10
        assert nu_method_iterations(0.25) == 2
        assert nu_method_iterations(4.0) == 1

    def test_invalid_nu_rejected(self):
        X = np.zeros((2, 1))
        with pytest.raises(InputError):
            fit_nu_method(X, diag(), nu=0.5, t=3)


class TestSemiIterative:
    """landweber_path and nu_method_path run one recursion; the two loops it
    replaced (tests/helpers), each with its own a_t, are the references."""

    @pytest.mark.parametrize("kind", ["diagonal", "curl_free"])
    @pytest.mark.parametrize("form", ["dense", "implicit", "krylov"])
    def test_paths_match_their_own_loops(self, kind, form):
        rng = np.random.default_rng(96)
        X, spec = random_instance(rng, M=12, d=3, kind=kind)
        ts, nu = [1, 2, 5, 12, 30], 1.5
        gram = ImplicitGram(spec, X) if form == "implicit" else assemble_gram(spec, X)
        assert isinstance(gram, kernels.DenseGram) == (form != "implicit")
        eta = 0.5 / fit_landweber(X, spec, t=1, gram=gram).meta["sigma_max_estimate"]
        if form == "krylov":
            # landweber_path reads no basis, so the engine runs its weights on one
            basis = spectral_linalg.lanczos(gram, gram.divergence(), max(ts) - 1, 1e-300)
            assert basis.spans(max(ts) - 1) and len(basis.V) == max(ts) - 1
            lw = estimators._semi_iterative(X, spec, ts, gram, lambda t: (0.0, eta),
                                            lambda t: Landweber(eta, t), "Landweber",
                                            _krylov=basis)
            nus = nu_method_path(X, spec, ts, nu=nu, gram=gram, _krylov=basis)
        else:
            lw = landweber_path(X, spec, ts, eta=eta, gram=gram)
            nus = nu_method_path(X, spec, ts, nu=nu, gram=gram)
        for got, ref in ((lw, landweber_recursion(gram, ts, eta)),
                         (nus, nu_method_recursion(gram, ts, nu))):
            assert [est.scheme.t for est in got] == ts
            for est, (c, a) in zip(got, ref):
                assert np.linalg.norm(est.coeffs.ravel() - c) <= 1e-12 * np.linalg.norm(c)
                assert est.offset == pytest.approx(a, rel=1e-12)
                assert est.offset == est.scheme.offset

    def test_divergence_names_the_recursion(self, monkeypatch):
        rng = np.random.default_rng(97)
        X, spec = random_instance(rng, M=6, d=2, kind="curl_free")
        monkeypatch.setattr(estimators, "nu_coefficients", lambda t, nu: (0.0, np.inf))
        # a tiny sigma_max admits a step that overflows c_2
        monkeypatch.setattr(estimators, "power_iteration", lambda op, iters: 1e-300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="^nu-method recursion diverged at iteration 2$"):
                nu_method_path(X, spec, [1, 3])
            with pytest.raises(NumericError, match="^Landweber recursion diverged at iteration 2$"):
                landweber_path(X, spec, [1, 3])

    def test_bad_counts_and_nu_raise_before_any_gram_product(self, monkeypatch):
        rng = np.random.default_rng(98)
        X, spec = random_instance(rng, M=6, d=2, kind="curl_free")
        gram = ImplicitGram(spec, X)

        def no_product(*args, **kwargs):
            raise AssertionError("Gram product before the argument checks")

        monkeypatch.setattr(ImplicitGram, "matvec", no_product)
        monkeypatch.setattr(estimators, "assemble_gram", no_product)
        for call in (lambda: landweber_path(X, spec, [0, 3], gram=gram),
                     lambda: landweber_path(X, spec, [], eta=0.1),
                     lambda: fit_landweber(X, spec, t=0),
                     lambda: nu_method_path(X, spec, [0], gram=gram),
                     lambda: nu_method_path(X, spec, [3], nu=0.5),
                     lambda: nu_method_path(X, spec, [1, 10 ** 200], gram=gram),
                     lambda: fit_nu_method(X, spec, t=2, lam=0.1)):
            with pytest.raises(InputError):
                call()


# ======================================================================
# reduced-basis (subset) fits
# ======================================================================

class TestNystrom:
    def test_near_singular_subset_gram_matches_truncated_tikhonov(self):
        # a near-duplicate pair makes K_ZZ numerically singular; the filter
        # form drops its null directions, as the full eigen filter does
        rng = np.random.default_rng(62)
        X = rng.normal(size=(10, 2))
        X[1] = X[0] + 1e-10
        spec = cf("imq", 1.0)
        est = fit_nystrom(X, np.arange(10), spec, TruncatedTikhonov(0.01))
        ref = fit_truncated_tikhonov(X, spec, 0.01)
        assert est.meta["subset_size"] == 10 and est.meta["subset_rank"] < 20
        assert np.linalg.norm(est.coeffs - ref.coeffs) <= 1e-9 * np.linalg.norm(ref.coeffs)

    def test_full_subset_reproduces_truncated_tikhonov(self):
        rng = np.random.default_rng(60)
        for kind in ("diagonal", "curl_free"):
            X, spec = random_instance(rng, M=9, d=2, kind=kind, family="imq")
            lam = 0.05
            full = fit_nystrom(X, np.arange(9), spec, TruncatedTikhonov(lam))
            ref = fit_truncated_tikhonov(X, spec, lam)
            Q = rng.normal(size=(6, 2))
            assert np.abs(full.predict(Q) - ref.predict(Q)).max() < 1e-6

    def test_full_subset_cutoff_reproduces_spectral_cutoff(self):
        rng = np.random.default_rng(61)
        X, spec = random_instance(rng, M=8, d=2, kind="curl_free", family="imq")
        sig = np.sort(np.linalg.eigvalsh(assemble_gram(spec, X).matrix))[::-1] / 8
        lam = np.sqrt(sig[9] * sig[10])
        sub = fit_nystrom(X, np.arange(8), spec, SpectralCutoff(lam=lam))
        ref = fit_spectral_cutoff(X, spec, lam=lam)
        Q = rng.normal(size=(6, 2))
        assert np.abs(sub.predict(Q) - ref.predict(Q)).max() < 1e-6

    @pytest.mark.parametrize("scheme", [TruncatedTikhonov(0.01), SpectralCutoff(lam=0.01)],
                             ids=["truncated_tikhonov", "spectral_cutoff"])
    def test_diagonal_compact_blocks_match_the_kronecker_blocks(self, scheme):
        # a diagonal kernel's blocks are its N x N scalar factors; the fit
        # over them equals the one over the Nd x Nd Kronecker blocks
        rng = np.random.default_rng(64)
        X, spec = rng.normal(size=(40, 3)), diag("imq", 1.3)
        idx = np.sort(rng.choice(40, size=12, replace=False))
        P, tau, V, _ = estimators._subset_building_blocks(X, idx, spec)[2:]
        assert P.shape == V.shape == (12, 12) and tau.shape == (12,)
        est = fit_nystrom(X, idx, spec, scheme)
        ref = fit_nystrom(X, idx, spec, scheme, _blocks=nystrom_blocks_kron(X, idx, spec))
        assert np.linalg.norm(est.coeffs - ref.coeffs) <= 1e-10 * np.linalg.norm(ref.coeffs)
        assert est.meta == ref.meta

    def test_diagonal_blocks_stay_n_by_n_in_memory(self):
        # Kronecker blocks at N = 128, d = 32 would take 134 MB each
        rng = np.random.default_rng(65)
        X, spec = rng.normal(size=(256, 32)), diag("imq", 6.0)
        idx = np.arange(0, 256, 2)
        assert peak_bytes(lambda: fit_nystrom(X, idx, spec, TruncatedTikhonov(0.01))) \
            < 8 * 2 ** 20

    def test_closed_form_equals_square_root_form(self):
        # the truncated Tikhonov scheme is the shifted-inverse filter of the
        # K_ZZ^{-1/2} form, bit for bit
        rng = np.random.default_rng(62)
        X = rng.normal(size=(32, 2))
        spec = cf("imq", 1.2)
        idx = rng.choice(32, size=8, replace=False)
        lam = 0.03
        a = fit_nystrom(X, idx, spec, TruncatedTikhonov(lam))
        b = fit_nystrom(X, idx, spec, lambda s: 1 / (s + lam))
        assert np.array_equal(a.coeffs, b.coeffs)
        assert a.meta == b.meta

    def test_single_point_subset_is_rank_d_representer(self):
        rng = np.random.default_rng(63)
        X, spec = random_instance(rng, M=10, d=2, kind="curl_free")
        est = fit_nystrom(X, [4], spec, TruncatedTikhonov(0.1))
        assert est.coeffs.shape == (1, 2)
        z = X[4]
        q = rng.normal(size=2)
        expected = eval_matrix_kernel(spec, q, z) @ est.coeffs[0]
        assert np.abs(est.predict(q[None, :])[0] - expected).max() < 1e-12

    def test_basis_is_subset_rows(self):
        rng = np.random.default_rng(64)
        X, spec = random_instance(rng, M=8, d=2)
        idx = np.array([1, 5, 6])
        est = fit_nystrom(X, idx, spec, TruncatedTikhonov(0.1))
        assert np.array_equal(est.basis, X[idx])
        assert np.array_equal(est.subset_indices, idx)

    def test_a_non_finite_filter_is_a_numeric_error(self):
        with pytest.raises(NumericError, match="spectral filter returned non-finite values"):
            fit_nystrom(SMALL, [0, 2, 4], cf(), lambda s: np.full_like(s, np.inf))

    def test_coefficients_that_overflow_are_a_numeric_error(self):
        # at bandwidth 100, L's clipped eigenvalue 0 gets the finite weight
        # 1/lam = 1e308, and c overflows; the constructor refuses it, and
        # numpy warns of nothing (pytest turns a RuntimeWarning into an error)
        with pytest.raises(NumericError, match="^fitted state is not finite: offset 0.0, "):
            fit_nystrom(SMALL, np.arange(6), cf("imq", 100.0), TruncatedTikhonov(1e-308))

    def test_bad_subsets_rejected(self):
        rng = np.random.default_rng(65)
        X, spec = random_instance(rng, M=6, d=2)
        with pytest.raises(InputError):
            fit_nystrom(X, [], spec, TruncatedTikhonov(0.1))
        with pytest.raises(InputError):
            fit_nystrom(X, [0, 0, 1], spec, TruncatedTikhonov(0.1))
        with pytest.raises(InputError):
            fit_nystrom(X, [0, 6], spec, TruncatedTikhonov(0.1))
        with pytest.raises(InputError):
            fit_nystrom(X, [0, 1], spec, Tikhonov(0.1))
        with pytest.raises(InputError):
            fit_nystrom(X, [0, 1], spec, SpectralCutoff(rank=2))

    def test_duplicate_sample_rows_still_fit_via_filter_path(self):
        # duplicated rows make K_ZZ exactly singular; the spectral path
        # masks the null directions instead of failing
        rng = np.random.default_rng(66)
        X = rng.normal(size=(8, 2))
        X[5] = X[2]
        spec = cf("gaussian", 1.0)
        est = fit_nystrom(X, np.arange(8), spec, lambda s: 1.0 / (s + 0.1))
        assert np.all(np.isfinite(est.predict(rng.normal(size=(4, 2)))))


# ======================================================================
# predict
# ======================================================================

class TestPredict:
    def test_non_finite_output_is_a_numeric_error(self):
        X, spec = SMALL, cf()
        est = FittedScoreEstimator(spec, X, np.full((6, 2), 1e308), TruncatedTikhonov(0.1))
        # the error is the only report: a RuntimeWarning would fail the test
        with pytest.raises(NumericError, match="prediction produced non-finite values"):
            est.predict(np.zeros((3, 2)))

    def test_a_query_whose_squared_distances_overflow_is_a_numeric_error(self):
        # zeta multiplies d3phi(inf) = 0 by inf; the score there is 0 to
        # double precision, but predict refuses it without a warning
        est = fit_tikhonov(SMALL, cf(bw=1.0), 0.01)
        with pytest.raises(NumericError, match="prediction produced non-finite values"):
            est.predict(np.array([[3.9e217, 0.05]]))

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(70)
        X, spec = random_instance(rng, M=5, d=3)
        est = fit_tikhonov(X, spec, 0.1)
        with pytest.raises(InputError):
            est.predict(np.zeros((2, 2)))

    def test_module_function_and_method_agree(self):
        rng = np.random.default_rng(71)
        X, spec = random_instance(rng, M=6, d=2)
        est = fit_tikhonov(X, spec, 0.1)
        Q = rng.normal(size=(4, 2))
        assert np.array_equal(est.predict(Q), predict(est, Q))

    def test_standard_gaussian_score_recovery(self):
        # 1-D N(0,1) has score -x; a mid-size fit should see slope ~ -1
        rng = np.random.default_rng(72)
        X = rng.normal(size=(2048, 1))
        u = np.square(X[:, None, 0] - X[None, :, 0])
        bw = float(np.median(np.sqrt(u[np.triu_indices(2048, 1)])))
        est = fit_tikhonov(X, cf("gaussian", bw), 0.01)
        assert abs(est.predict([[0.0]])[0, 0]) < 0.1
        xs = np.linspace(-1, 1, 21)[:, None]
        preds = est.predict(xs).ravel()
        slope = np.polyfit(xs.ravel(), preds, 1)[0]
        assert abs(slope - (-1.0)) < 0.25

    @pytest.mark.parametrize("kind", ["diagonal", "curl_free"])
    def test_shared_query_tables_change_no_prediction(self, kind):
        rng = np.random.default_rng(74)
        X, spec = random_instance(rng, M=20, d=3, kind=kind)
        Q = rng.normal(size=(15, 3))
        z, tables = query_tables(spec, Q, X)
        assert np.array_equal(z, zeta_batch(spec, X, Q))
        assert len(tables) == (1 if kind == "diagonal" else 2)
        # tikhonov carries the offset a = -1/lam, truncated tikhonov a = 0
        for est in (fit_tikhonov(X, spec, 0.1), fit_truncated_tikhonov(X, spec, 0.1)):
            assert np.array_equal(predict(est, Q, _shared=(z, tables)), predict(est, Q))

    def test_query_tables_of_other_queries_rejected(self):
        rng = np.random.default_rng(75)
        X, spec = random_instance(rng, M=6, d=2, kind="curl_free")
        est = fit_tikhonov(X, spec, 0.1)
        shared = query_tables(spec, rng.normal(size=(4, 2)), X)
        with pytest.raises(InputError):
            predict(est, rng.normal(size=(5, 2)), _shared=shared)

    @staticmethod
    def chunk_sizes(columns):
        chunk = max(1, kernels.BLOCK_ENTRIES // columns)
        return (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5)

    @staticmethod
    def assert_close(pred, ref):
        assert pred.shape == ref.shape
        assert np.abs(pred - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("kind", ["diagonal", "curl_free"])
    @pytest.mark.parametrize("family", ["imq", "gaussian"])
    def test_chunks_match_unchunked_reference(self, kind, family):
        rng = np.random.default_rng(76)
        M, d = 1000, 3
        X = rng.normal(size=(M, d))
        spec = MatrixKernelSpec(kind, ScalarRadialKernel(family, 1.3))
        est = FittedScoreEstimator(spec, X, rng.normal(size=(M, d)), Tikhonov(0.4))
        for n in self.chunk_sizes(M):
            Q = rng.normal(size=(n, d))
            ref = est.offset * zeta_batch(spec, X, Q) + kernels.cross_apply(
                spec, Q, X, est.coeffs)
            self.assert_close(predict(est, Q), ref)

    def test_chunks_over_a_subset_basis(self):
        # a subset basis has a = 0: the tables are over the basis alone
        rng = np.random.default_rng(77)
        M, N, d = 900, 300, 2
        X = rng.normal(size=(M, d))
        idx = rng.choice(M, size=N, replace=False)
        spec = cf("gaussian", 0.9)
        est = FittedScoreEstimator(spec, X, rng.normal(size=(N, d)), TruncatedTikhonov(0.1),
                                   subset_indices=idx)
        for n in self.chunk_sizes(N):
            Q = rng.normal(size=(n, d))
            self.assert_close(predict(est, Q), kernels.cross_apply(spec, Q, X[idx], est.coeffs))

    @pytest.mark.parametrize("kind", ["diagonal", "curl_free"])
    def test_chunks_with_zero_coefficients(self, kind):
        rng = np.random.default_rng(78)
        M, d = 700, 2
        X = rng.normal(size=(M, d))
        spec = MatrixKernelSpec(kind, ScalarRadialKernel("imq", 1.1))
        est = FittedScoreEstimator(spec, X, np.zeros((M, d)), Landweber(0.03, 1))
        for n in self.chunk_sizes(M):
            Q = rng.normal(size=(n, d))
            self.assert_close(predict(est, Q), -0.03 * zeta_batch(spec, X, Q))

    @pytest.mark.parametrize("offset", [0.0, -2.5])
    @pytest.mark.parametrize("family", ["imq", "gaussian"])
    def test_d1_scalar_table_matches_two_table_path(self, family, offset):
        # at d = 1 one table -2 phi'(U) - 4 phi''(U) U stands for the two
        rng = np.random.default_rng(80)
        M = 1000
        X = rng.normal(size=(M, 1))
        spec = MatrixKernelSpec("curl_free", ScalarRadialKernel(family, 0.6))
        scheme = Tikhonov(0.4) if offset else TruncatedTikhonov(0.4)
        est = FittedScoreEstimator(spec, X, rng.normal(size=(M, 1)), scheme)
        assert est.offset == offset
        for n in self.chunk_sizes(M):
            Q = rng.normal(size=(n, 1))
            ref = offset * zeta_batch(spec, X, Q) + cross_apply_two_tables(
                spec, Q, X, est.coeffs)
            self.assert_close(predict(est, Q), ref)
            # the sweep's one whole-Q table per problem and spec
            self.assert_close(predict(est, Q, _shared=query_tables(spec, Q, X)), ref)

    def test_d1_scalar_table_over_a_subset_basis(self):
        rng = np.random.default_rng(81)
        M, N = 900, 300
        X = rng.normal(size=(M, 1))
        idx = rng.choice(M, size=N, replace=False)
        spec = cf("gaussian", 0.5)
        est = FittedScoreEstimator(spec, X, rng.normal(size=(N, 1)), TruncatedTikhonov(0.1),
                                   subset_indices=idx)
        for n in self.chunk_sizes(N):
            Q = rng.normal(size=(n, 1))
            self.assert_close(predict(est, Q),
                              cross_apply_two_tables(spec, Q, X[idx], est.coeffs))

    @pytest.mark.parametrize("kind, d", [("diagonal", 16), ("curl_free", 16), ("curl_free", 1)],
                             ids=["diagonal", "curl_free", "curl_free-d1"])
    def test_memory_is_chunk_sized(self, kind, d):
        # a whole-query pass held Q x M tables: about 617 MB traced here
        rng = np.random.default_rng(79)
        M = 768
        X = rng.normal(size=(M, d))
        Q = rng.normal(size=(20000, d))
        spec = MatrixKernelSpec(kind, ScalarRadialKernel("imq", 4.0))
        est = FittedScoreEstimator(spec, X, rng.normal(size=(M, d)), Tikhonov(1e-3))
        assert peak_bytes(lambda: predict(est, Q)) < 40e6

    def test_immutable_fitted_state(self):
        rng = np.random.default_rng(73)
        X, spec = random_instance(rng, M=5, d=2)
        est = fit_tikhonov(X, spec, 0.1)
        with pytest.raises(AttributeError):
            est.offset = 0.0
        with pytest.raises(ValueError):
            est.coeffs[0, 0] = 1.0
        with pytest.raises(ValueError):
            est.samples[0, 0] = 1.0

    @pytest.mark.parametrize("idx, size, match", [
        ([0, 5], 4, "out of range"), ([-1, 0], 4, "out of range"),
        ([1, 1], 4, "duplicates"), ([], 0, "non-empty"),
        (None, 5, "5 coefficients for 3 basis points"),
        ([0, 2], 6, "6 coefficients for 2 basis points")],
        ids=["index past M", "negative index", "duplicate index", "empty subset",
             "coefficients of another size", "coefficients of the samples over a subset"])
    def test_constructor_refuses_a_basis_it_cannot_hold(self, idx, size, match):
        X = np.arange(6.0).reshape(3, 2)
        with pytest.raises(InputError, match=match):
            FittedScoreEstimator(cf(), X, np.ones(size), TruncatedTikhonov(0.1),
                                 subset_indices=idx)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("idx", [None, [2, 0]], ids=["samples", "subset"])
    def test_constructor_refuses_a_non_finite_coefficient(self, bad, idx):
        X = np.arange(6.0).reshape(3, 2)
        C = np.ones((3 if idx is None else 2, 2))
        C[1, 0] = bad
        with pytest.raises(NumericError, match="^fitted state is not finite: offset 0.0, "
                                               f"1 of {C.size} coefficients non-finite$"):
            FittedScoreEstimator(cf(), X, C, TruncatedTikhonov(0.1), subset_indices=idx)


# ======================================================================
# gradient-field structure and log-density recovery
# ======================================================================

class TestGradientField:
    def test_jacobian_symmetry_curl_free(self):
        rng = np.random.default_rng(80)
        X, spec = random_instance(rng, M=12, d=3, kind="curl_free")
        est = fit_tikhonov(X, spec, 0.05)
        for _ in range(5):
            x = rng.normal(size=3)
            J = fd_jacobian(lambda q: est.predict(q[None, :]).ravel(), x, 1e-5)
            assert np.abs(J - J.T).max() <= 1e-4 * max(1.0, np.abs(J).max())

    def test_potential_gradient_matches_predict(self):
        rng = np.random.default_rng(81)
        X, spec = random_instance(rng, M=15, d=2, kind="curl_free")
        est = fit_tikhonov(X, spec, 0.05)
        for _ in range(5):
            x = rng.normal(size=2)
            g = fd_gradient(lambda q: recover_log_density(est, q), x, 1e-5)
            p = est.predict(x[None, :]).ravel()
            assert np.abs(g - p).max() <= 1e-4 * max(1.0, np.abs(p).max())

    def test_potential_gradient_for_zero_offset_scheme(self):
        rng = np.random.default_rng(82)
        X, spec = random_instance(rng, M=10, d=2, kind="curl_free")
        est = fit_spectral_cutoff(X, spec, rank=12)
        x = rng.normal(size=2)
        g = fd_gradient(lambda q: recover_log_density(est, q), x, 1e-5)
        p = est.predict(x[None, :]).ravel()
        assert np.abs(g - p).max() <= 1e-4 * max(1.0, np.abs(p).max())

    def test_gauge_zero_at_first_sample(self):
        rng = np.random.default_rng(83)
        X, spec = random_instance(rng, M=8, d=2, kind="curl_free")
        est = fit_tikhonov(X, spec, 0.1)
        assert recover_log_density(est, X[0]) == 0.0

    def test_symmetric_two_sample_potential_is_even(self):
        X = np.array([[-0.8], [0.8]])
        est = fit_tikhonov(X, cf("gaussian", 1.0), 0.1)
        for x in (0.3, 1.1, 2.5):
            left = recover_log_density(est, np.array([-x]))
            right = recover_log_density(est, np.array([x]))
            assert left == pytest.approx(right, abs=1e-12)

    @pytest.mark.parametrize("family", ["imq", "gaussian"])
    @pytest.mark.parametrize("bw", [1.0, 0.3])
    def test_a_far_query_takes_the_potentials_limit(self, family, bw):
        """At (1e200, 0) every squared distance U is inf, where 4 U phi''(U)
        has the limit 0 (inf * 0 gave nan and a RuntimeWarning): the value
        is the one at (1e10, 0), with no warning. At (3, 1) U is finite and
        the value keeps the bits of the unguarded product."""
        rng = np.random.default_rng(86)
        X = rng.normal(size=(12, 2))
        est = fit_tikhonov(X, cf(family, bw), 0.01)
        assert est.offset != 0.0
        far = recover_log_density(est, np.array([1e200, 0.0]))
        assert far == recover_log_density(est, np.array([1e10, 0.0]))
        k, B, C = est.kernel.scalar, est.basis, est.coeffs
        pts = np.array([[3.0, 1.0], X[0]])
        U = kernels.sq_dists(pts, B)
        P1 = k.dphi(U)
        vals = -2.0 * np.sum(P1 * (pts @ C.T - np.einsum("ij,ij->i", B, C)[None, :]), axis=1)
        vals = est.offset * (2.0 * 2 * P1 + 4.0 * U * k.d2phi(U)).mean(axis=1) + vals
        assert recover_log_density(est, np.array([3.0, 1.0])) == vals[0] - vals[1]

    def test_diagonal_kernel_rejected(self):
        rng = np.random.default_rng(84)
        X, spec = random_instance(rng, M=5, d=2, kind="diagonal")
        est = fit_tikhonov(X, spec, 0.1)
        with pytest.raises(InputError):
            recover_log_density(est, np.zeros(2))

    def test_subset_fit_potential_gradient(self):
        rng = np.random.default_rng(85)
        X = rng.normal(size=(14, 2))
        spec = cf("imq", 1.3)
        est = fit_nystrom(X, np.arange(0, 14, 2), spec, TruncatedTikhonov(0.05))
        x = rng.normal(size=2)
        g = fd_gradient(lambda q: recover_log_density(est, q), x, 1e-5)
        p = est.predict(x[None, :]).ravel()
        assert np.abs(g - p).max() <= 1e-4 * max(1.0, np.abs(p).max())


# ======================================================================
# serialization
# ======================================================================

# (id, scheme, code, params, offset a) of one scheme in the file layout
LAYOUTS = [
    ("tikhonov", Tikhonov(0.1), 1, (0.1,), -10.0),
    ("truncated_tikhonov", TruncatedTikhonov(0.1), 2, (0.1,), 0.0),
    ("spectral_cutoff-lam", SpectralCutoff(lam=0.05), 3, (0.05, -1.0), 0.0),
    ("spectral_cutoff-rank", SpectralCutoff(lam=0.05, rank=4), 3, (0.05, 4.0), 0.0),
    ("landweber", Landweber(0.5, 3), 4, (0.5, 3.0), -1.5),
    ("nu_method", NuMethod(1.0, 3), 5, (1.0, 3.0), -6.0),
]


class TestSerialization:
    def roundtrip(self, est, tmp_path):
        path = tmp_path / "est.bin"
        save_estimator(est, path)
        return load_estimator(path)

    def test_roundtrip_preserves_predictions_bytewise(self, tmp_path):
        rng = np.random.default_rng(90)
        X, spec = random_instance(rng, M=7, d=2, kind="curl_free")
        Q = rng.normal(size=(5, 2))
        fits = [
            fit_tikhonov(X, spec, 0.1),
            fit_truncated_tikhonov(X, spec, 0.1),
            fit_spectral_cutoff(X, spec, lam=0.05),
            fit_spectral_cutoff(X, spec, rank=6),
            fit_landweber(X, spec, eta=0.03, t=4),
            fit_nu_method(X, spec, nu=1.0, t=5),
            fit_nystrom(X, [0, 2, 5], spec, TruncatedTikhonov(0.1)),
        ]
        for est in fits:
            back = self.roundtrip(est, tmp_path)
            assert np.array_equal(est.predict(Q), back.predict(Q))
            assert type(back.scheme) is type(est.scheme)
            assert back.offset == est.offset

    @pytest.mark.parametrize("scheme", [SpectralCutoff(rank=2), SpectralCutoff(lam=0.1)],
                             ids=["rank", "lam"])
    def test_roundtrip_of_a_spectral_cutoff_missing_a_field(self, tmp_path, scheme):
        # a missing lam or rank is stored as -1, not as NaN
        rng = np.random.default_rng(94)
        X = rng.normal(size=(5, 2))
        est = FittedScoreEstimator(cf(), X, rng.normal(size=(5, 2)), scheme)
        back = self.roundtrip(est, tmp_path)
        assert back.scheme == scheme
        assert np.array_equal(back.coeffs, est.coeffs) and back.offset == 0.0

    def test_roundtrip_preserves_subset_indices(self, tmp_path):
        rng = np.random.default_rng(91)
        X, spec = random_instance(rng, M=8, d=2, kind="curl_free")
        est = fit_nystrom(X, [1, 3, 4], spec, TruncatedTikhonov(0.2))
        back = self.roundtrip(est, tmp_path)
        assert np.array_equal(back.subset_indices, [1, 3, 4])
        assert np.array_equal(back.basis, est.basis)

    @pytest.mark.parametrize(
        "idx, scheme, code, params, offset",
        [(None, *layout[1:]) for layout in LAYOUTS]
        + [([2, 0], *layout[1:]) for layout in LAYOUTS if layout[4] == 0.0],
        ids=[f"samples-{layout[0]}" for layout in LAYOUTS]
        + [f"subset-{layout[0]}" for layout in LAYOUTS if layout[4] == 0.0])
    def test_save_writes_the_documented_layout(self, tmp_path, idx, scheme, code, params,
                                               offset):
        M, d = 3, 2
        N = M if idx is None else len(idx)
        X = np.arange(M * d, dtype=float).reshape(M, d) / 7
        C = np.linspace(-1.0, 1.0, N * d)
        spec = MatrixKernelSpec("curl_free", ScalarRadialKernel("gaussian", 2.5))
        save_estimator(FittedScoreEstimator(spec, X, C, scheme, subset_indices=idx),
                       tmp_path / "est.bin")
        assert (tmp_path / "est.bin").read_bytes() == pack(
            fam=1, kind=1, bw=2.5, code=code, params=params, offset=offset, M=M, d=d,
            N=N, flags=int(idx is not None), samples=X, idx=idx, coeffs=C)

    @pytest.mark.parametrize("idx", [None, [3, 0, 4]], ids=["samples", "subset"])
    @pytest.mark.parametrize("scheme, offset", [(layout[1], layout[4]) for layout in LAYOUTS],
                             ids=[layout[0] for layout in LAYOUTS])
    def test_the_scheme_sets_the_offset(self, tmp_path, scheme, offset, idx):
        assert "offset" not in inspect.signature(FittedScoreEstimator).parameters
        rng = np.random.default_rng(99)
        X = rng.normal(size=(6, 2))
        C = rng.normal(size=(6 if idx is None else 3, 2))
        if idx is not None and offset != 0.0:
            with pytest.raises(InputError, match="subset basis carries no zeta term"):
                FittedScoreEstimator(cf(), X, C, scheme, subset_indices=idx)
            return
        est = FittedScoreEstimator(cf(), X, C, scheme, subset_indices=idx)
        assert est.offset == offset == est.scheme.offset
        back = self.roundtrip(est, tmp_path)
        Q = rng.normal(size=(5, 2))
        assert back.offset == offset and np.array_equal(back.predict(Q), est.predict(Q))

    def test_callable_filter_fit_is_not_serializable(self, tmp_path):
        rng = np.random.default_rng(92)
        X, spec = random_instance(rng, M=6, d=2, kind="curl_free")
        est = fit_nystrom(X, [0, 1], spec, lambda s: 1.0 / (s + 0.1))
        assert est.offset == 0.0
        with pytest.raises(InputError, match="is not serializable"):
            save_estimator(est, tmp_path / "bad.bin")

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(InputError):
            load_estimator(p)

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(93)
        X, spec = random_instance(rng, M=5, d=2)
        est = fit_tikhonov(X, spec, 0.1)
        p = tmp_path / "est.bin"
        save_estimator(est, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(InputError):
            load_estimator(p)
        p.write_bytes(raw + b"\x00")
        with pytest.raises(InputError):
            load_estimator(p)

    @pytest.mark.parametrize("name, raw", CORRUPT, ids=[c[0] for c in CORRUPT])
    def test_corrupt_file_rejected(self, tmp_path, name, raw):
        p = tmp_path / "est.bin"
        p.write_bytes(raw)
        with pytest.raises(InputError, match=f"^{re.escape(str(p))}: "):
            load_estimator(p)

    def test_hand_built_file_loads(self, tmp_path):
        # the corrupt cases differ from this file in one field each
        p = tmp_path / "est.bin"
        p.write_bytes(pack())
        est = load_estimator(p)
        assert isinstance(est.scheme, Tikhonov) and est.offset == -10.0
        p.write_bytes(pack(code=2, offset=0.0, M=3, N=2, flags=1, idx=[2, 0]))
        assert np.array_equal(load_estimator(p).subset_indices, [2, 0])

    @staticmethod
    def every_scheme():
        rng = np.random.default_rng(95)
        X, spec = random_instance(rng, M=6, d=2, kind="curl_free")
        diag = MatrixKernelSpec("diagonal", spec.scalar)
        return {
            "tikhonov": [fit_tikhonov(X, spec, 0.1), fit_tikhonov(X, diag, 1e-3),
                         fit_tikhonov_cg(X, spec, 0.5)],
            "truncated_tikhonov": [fit_truncated_tikhonov(X, spec, 0.1)],
            "spectral_cutoff": [fit_spectral_cutoff(X, spec, lam=0.05),
                                fit_spectral_cutoff(X, diag, rank=4)],
            "subset": [fit_nystrom(X, [0, 2, 5], spec, TruncatedTikhonov(0.1)),
                       fit_nystrom(X, [1, 4], spec, SpectralCutoff(lam=0.05))],
            "landweber": landweber_path(X, spec, [1, 7, 40]),
            # a_t comes from the recursion, which the loader checks against
            # its closed form
            "nu_method": (nu_method_path(X, spec, [1, 2, 3, 50, 300])
                          + nu_method_path(X, diag, [7, 1000], nu=2.5)),
        }

    @pytest.mark.parametrize("scheme", ["tikhonov", "truncated_tikhonov",
                                        "spectral_cutoff", "subset", "landweber",
                                        "nu_method"])
    def test_offset_must_be_the_schemes_own(self, tmp_path, scheme):
        for est in self.every_scheme()[scheme]:
            p = tmp_path / "est.bin"
            save_estimator(est, p)
            assert load_estimator(p).offset == est.offset
            raw = p.read_bytes()
            # the offset follows magic, family, kind, bandwidth, code,
            # n_params and the params
            at = len(estimators._MAGIC) + 12 + 8 * raw[len(estimators._MAGIC) + 11]
            assert struct.unpack("<d", raw[at:at + 8])[0] == est.offset
            p.write_bytes(raw[:at] + struct.pack("<d", 12345.0) + raw[at + 8:])
            with pytest.raises(InputError, match="offset"):
                load_estimator(p)

    @pytest.mark.parametrize("scheme", ["tikhonov", "truncated_tikhonov",
                                        "spectral_cutoff", "subset", "landweber",
                                        "nu_method"])
    def test_every_fit_carries_its_schemes_offset(self, scheme):
        for est in self.every_scheme()[scheme]:
            assert est.offset == est.scheme.offset

    @staticmethod
    def valid_files():
        rng = np.random.default_rng(94)
        X, spec = random_instance(rng, M=4, d=2, kind="curl_free")
        return [fit_tikhonov(X, spec, 0.1),
                fit_spectral_cutoff(X, spec, rank=3),
                fit_nu_method(X, spec, t=3),
                fit_nystrom(X, [0, 2], spec, TruncatedTikhonov(0.1))]

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_truncated_or_flipped_file_loads_or_raises_input_error(
            self, tmp_path_factory, data):
        est = data.draw(st.sampled_from(self.valid_files()))
        p = tmp_path_factory.mktemp("fuzz") / "est.bin"
        save_estimator(est, p)
        raw = bytearray(p.read_bytes())
        if data.draw(st.booleans()):
            raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
        else:
            raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        p.write_bytes(bytes(raw))
        try:
            back = load_estimator(p)
        except InputError:
            return
        assert isinstance(back, FittedScoreEstimator)
        assert np.all(np.isfinite(back.coeffs)) and np.isfinite(back.offset)


# ======================================================================
# the public fits' signatures
# ======================================================================

def test_every_public_fit_and_path_takes_at_most_one_private_argument():
    # a private argument is what a caller sharing work across fits hands in
    # (a start, a Krylov basis, Nystrom blocks); at most one per fit
    public = [f for name, f in vars(estimators).items()
              if inspect.isfunction(f) and f.__module__ == estimators.__name__
              and (name.startswith("fit_") or name.endswith("_path"))]
    assert len(public) == 9
    for f in public:
        private = [p for p in inspect.signature(f).parameters if p.startswith("_")]
        assert len(private) <= 1, f"{f.__name__} takes {private}"
