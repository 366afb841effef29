import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scorekit import (
    DenseGram,
    ImplicitGram,
    InputError,
    MatrixKernelSpec,
    ScalarRadialKernel,
    assemble_gram,
    cross_apply,
    cross_gram,
    fit_tikhonov,
    h_vector,
    log_density,
    make_grid_distribution,
    recover_log_density,
    scalar_gram,
    spectral_linalg,
    true_score,
    zeta,
    zeta_batch,
)
from scorekit import kernels
from scorekit.kernels import query_tables

from fd_oracles import fd_first_arg_divergence, fd_mixed_partial, fd_scalar
from helpers import (
    RadialReference,
    cross_apply_two_tables,
    cross_gram_full,
    curlfree_matvec,
    eval_matrix_kernel,
    gram_matvec,
    query_tables_whole,
    scalar_derivs,
)


def imq(bw=1.0):
    return ScalarRadialKernel("imq", bw)


def gauss(bw=1.0):
    return ScalarRadialKernel("gaussian", bw)


def spec(kind, kernel):
    return MatrixKernelSpec(kind, kernel)


# ======================================================================
# scalar kernels
# ======================================================================

def test_scalar_derivs_imq_at_zero():
    assert scalar_derivs(imq(1.0), 0.0) == (1.0, -0.5, 0.75, -1.875)


def test_scalar_derivs_gaussian_at_zero():
    assert scalar_derivs(gauss(1.0), 0.0) == (1.0, -0.5, 0.25, -0.125)


def test_phi_normalized_at_zero():
    for bw in (0.3, 1.0, 5.7):
        for k in (imq(bw), gauss(bw)):
            assert scalar_derivs(k, 0.0)[0] == 1.0


def test_scalar_derivs_rejects_bad_u():
    for bad in (-1e-9, np.nan, np.inf):
        with pytest.raises(InputError):
            scalar_derivs(imq(), bad)


def test_kernel_constructor_validation():
    with pytest.raises(InputError):
        ScalarRadialKernel("laplace", 1.0)
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(InputError):
            ScalarRadialKernel("imq", bad)
    with pytest.raises(InputError):
        MatrixKernelSpec("upper", imq())


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["imq", "gaussian"]),
    bw=st.floats(0.5, 3.0),
    u=st.floats(0.0, 40.0),
)
def test_derivative_chain_matches_finite_differences(family, bw, u):
    k = ScalarRadialKernel(family, bw)
    for f, df in ((k.phi, k.dphi), (k.dphi, k.d2phi), (k.d2phi, k.d3phi)):
        approx = fd_scalar(lambda v: float(f(v)), u)
        exact = float(df(u))
        assert abs(approx - exact) <= 1e-5 * max(1e-8, abs(exact))


def test_scalar_derivs_vectorized():
    u = np.array([0.0, 1.0, 4.0])
    p, p1, p2, p3 = scalar_derivs(imq(2.0), u)
    for i, ui in enumerate(u):
        vals = scalar_derivs(imq(2.0), float(ui))
        assert (p[i], p1[i], p2[i], p3[i]) == vals


@pytest.mark.parametrize("family", ["imq", "gaussian"])
@pytest.mark.parametrize("bw", [1e-3, 0.37, 1.0, 2.0, 1e3])
def test_radial_body_matches_the_four_written_bodies_bit_for_bit(family, bw):
    k = ScalarRadialKernel(family, bw)
    ref = RadialReference(k)
    rng = np.random.default_rng(11)
    u = np.concatenate([[0.0, 1e-300, 1e-8, 1.0, 1e4],
                        rng.exponential(bw * bw, 40), rng.exponential(1.0, 40)])
    for name in ("phi", "dphi", "d2phi", "d3phi"):
        got, want = getattr(k, name), getattr(ref, name)
        assert np.array_equal(got(u), want(u))
        assert np.array_equal(got(u.reshape(5, 17)), want(u.reshape(5, 17)))
        for x in (0.0, 0, 0.25, np.float64(3.0), np.array(7.5), u[7]):
            a, b = got(x), want(x)
            assert type(a) is type(b) and np.array_equal(a, b)


def test_kernel_values_are_frozen_and_compare_by_value():
    k = ScalarRadialKernel("imq", 2)
    assert k == ScalarRadialKernel("imq", 2.0)
    assert hash(k) == hash(ScalarRadialKernel("imq", 2.0))
    assert type(k.bandwidth) is float
    assert k != ScalarRadialKernel("gaussian", 2.0) and k != ScalarRadialKernel("imq", 2.5)
    assert repr(k) == "ScalarRadialKernel(family='imq', bandwidth=2.0)"
    sp = MatrixKernelSpec("curl_free", k)
    assert len({sp: 1, MatrixKernelSpec("curl_free", ScalarRadialKernel("imq", 2.0)): 2}) == 1
    assert sp != MatrixKernelSpec("diagonal", k)
    for obj, attr, value in ((k, "family", "gaussian"), (k, "bandwidth", 3.0),
                             (k, "other", 1), (sp, "kind", "diagonal"),
                             (sp, "scalar", imq())):
        with pytest.raises(AttributeError):
            setattr(obj, attr, value)
    assert (k.family, k.bandwidth, sp.kind, sp.scalar) == ("imq", 2.0, "curl_free", k)


@pytest.mark.parametrize("make, message", [
    (lambda: ScalarRadialKernel("laplace", 1.0),
     "unknown kernel family 'laplace'; expected one of ('imq', 'gaussian')"),
    (lambda: ScalarRadialKernel("imq", 0), "bandwidth must be a positive finite real, got 0.0"),
    (lambda: ScalarRadialKernel("gaussian", -1.5),
     "bandwidth must be a positive finite real, got -1.5"),
    (lambda: ScalarRadialKernel("imq", np.nan), "bandwidth must be a positive finite real, got nan"),
    (lambda: ScalarRadialKernel("imq", np.inf), "bandwidth must be a positive finite real, got inf"),
    (lambda: MatrixKernelSpec("upper", imq()),
     "unknown matrix kernel kind 'upper'; expected one of ('diagonal', 'curl_free')"),
    (lambda: MatrixKernelSpec("diagonal", "imq"), "scalar must be a ScalarRadialKernel"),
])
def test_kernel_value_checks_keep_their_messages(make, message):
    with pytest.raises(InputError) as exc:
        make()
    assert str(exc.value) == message


# ======================================================================
# matrix kernel evaluation
# ======================================================================

def test_eval_diagonal_at_coincident_points():
    x = np.array([0.3, -1.2, 4.0])
    assert np.array_equal(eval_matrix_kernel(spec("diagonal", gauss()), x, x), np.eye(3))


def test_eval_curlfree_at_coincident_points_is_identity():
    # -2 phi'(0) = 1 for imq with sigma = 1
    x = np.zeros(4)
    K = eval_matrix_kernel(spec("curl_free", imq(1.0)), x, x)
    assert np.allclose(K, np.eye(4), atol=1e-15)


def test_eval_symmetry_exact():
    rng = np.random.default_rng(7)
    for kind in ("diagonal", "curl_free"):
        sp = spec(kind, imq(1.3))
        for _ in range(1000):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert np.array_equal(eval_matrix_kernel(sp, x, y),
                                  eval_matrix_kernel(sp, y, x).T)


def test_eval_dimension_mismatch():
    with pytest.raises(InputError):
        eval_matrix_kernel(spec("diagonal", imq()), np.zeros(3), np.zeros(4))


def test_curlfree_block_is_mixed_partial_of_scalar_kernel():
    rng = np.random.default_rng(3)
    for family in ("imq", "gaussian"):
        k = ScalarRadialKernel(family, 1.4)
        sp = spec("curl_free", k)

        def scalar_k(x, y):
            r = x - y
            return float(k.phi(r @ r))

        x, y = rng.standard_normal(3), rng.standard_normal(3)
        K = eval_matrix_kernel(sp, x, y)
        h = 1e-4 * k.bandwidth
        fd = np.array([[fd_mixed_partial(scalar_k, x, y, i, j, h) for j in range(3)]
                       for i in range(3)])
        assert np.linalg.norm(fd - K) <= 1e-5 * np.linalg.norm(K)


# ======================================================================
# curl-free fast block matvec
# ======================================================================

def test_curlfree_matvec_at_coincident_points():
    sp = spec("curl_free", gauss(0.8))
    x = np.ones(5)
    a = np.arange(5.0)
    expect = -2.0 * float(sp.scalar.dphi(0.0)) * a
    assert np.allclose(curlfree_matvec(sp, x, x, a), expect, atol=1e-15)


def test_curlfree_matvec_matches_dense_block():
    rng = np.random.default_rng(11)
    sp = spec("curl_free", imq(1.7))
    for _ in range(20):
        x, y, a = (rng.standard_normal(20) for _ in range(3))
        dense = eval_matrix_kernel(sp, x, y) @ a
        fast = curlfree_matvec(sp, x, y, a)
        assert np.linalg.norm(fast - dense) <= 1e-12 * np.linalg.norm(dense)


def test_curlfree_matvec_orthogonal_direction():
    rng = np.random.default_rng(13)
    sp = spec("curl_free", gauss(1.1))
    x, y = rng.standard_normal(6), rng.standard_normal(6)
    r = x - y
    a = rng.standard_normal(6)
    a -= (a @ r) / (r @ r) * r
    u = float(r @ r)
    expect = -2.0 * float(sp.scalar.dphi(u)) * a
    assert np.allclose(curlfree_matvec(sp, x, y, a), expect, atol=1e-12)


def test_curlfree_matvec_rejects_diagonal_spec():
    with pytest.raises(InputError):
        curlfree_matvec(spec("diagonal", imq()), np.zeros(2), np.zeros(2), np.zeros(2))


# ======================================================================
# zeta (divergence field)
# ======================================================================

def test_zeta_single_sample_at_itself_curlfree():
    sp = spec("curl_free", imq(1.2))
    x = np.array([[0.5, -2.0]])
    assert np.array_equal(zeta(sp, x, x[0]), np.zeros(2))


def test_zeta_diagonal_gaussian_reference_value():
    sp = spec("diagonal", gauss(1.0))
    val = zeta(sp, np.array([[0.0]]), np.array([1.0]))
    assert np.allclose(val, [np.exp(-0.5)], rtol=1e-15)
    assert abs(val[0] - 0.60653) < 1e-5


def test_zeta_curlfree_parallel_to_offset():
    rng = np.random.default_rng(19)
    sp = spec("curl_free", imq(0.9))
    x = rng.standard_normal((1, 4))
    q = rng.standard_normal(4)
    z = zeta(sp, x, q)
    r = x[0] - q
    cos = abs(z @ r) / (np.linalg.norm(z) * np.linalg.norm(r))
    assert cos > 1.0 - 1e-12


def test_zeta_matches_fd_divergence():
    rng = np.random.default_rng(23)
    for kind in ("diagonal", "curl_free"):
        for family in ("imq", "gaussian"):
            k = ScalarRadialKernel(family, 1.5)
            sp = spec(kind, k)
            X = rng.standard_normal((4, 3))
            q = rng.standard_normal(3)
            step = 1e-4 * k.bandwidth
            fd = np.mean(
                [fd_first_arg_divergence(lambda a, b: eval_matrix_kernel(sp, a, b),
                                         X[m], q, step) for m in range(4)],
                axis=0,
            )
            z = zeta(sp, X, q)
            assert np.linalg.norm(fd - z) <= 1e-5 * max(np.linalg.norm(z), 1e-10)


def test_zeta_dimension_mismatch():
    with pytest.raises(InputError):
        zeta(spec("diagonal", imq()), np.zeros((3, 2)), np.zeros(3))


# ======================================================================
# Gram assembly and matvec
# ======================================================================

def test_gram_diagonal_is_kron():
    # the dense form holds only the scalar factor k, M x M, and acts as
    # kron(k, I_d)
    rng = np.random.default_rng(29)
    X = rng.standard_normal((5, 3))
    sp = spec("diagonal", imq(1.1))
    gram = assemble_gram(sp, X)
    k = scalar_gram(sp.scalar, X)
    assert gram.matrix.shape == (5, 5) and np.array_equal(gram.matrix, k)
    for _ in range(3):
        b = rng.standard_normal(15)
        assert np.allclose(gram.matvec(b), np.kron(k, np.eye(3)) @ b, rtol=0, atol=1e-14)


def test_gram_curlfree_blocks_match_eval():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((2, 2))
    sp = spec("curl_free", gauss(1.4))
    K = assemble_gram(sp, X).matrix
    for m in range(2):
        for l in range(2):
            block = eval_matrix_kernel(sp, X[m], X[l])
            assert np.allclose(K[2 * m:2 * m + 2, 2 * l:2 * l + 2], block, atol=1e-13)


@settings(max_examples=15, deadline=None)
@given(
    m=st.integers(2, 12),
    d=st.integers(1, 5),
    kind=st.sampled_from(["diagonal", "curl_free"]),
    seed=st.integers(0, 2 ** 31),
)
def test_gram_symmetric_and_psd(m, d, kind, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, d))
    K = assemble_gram(spec(kind, imq(1.0)), X).matrix
    scale = np.abs(K).max()
    assert np.abs(K - K.T).max() <= 1e-12 * scale
    w = np.linalg.eigvalsh(0.5 * (K + K.T))
    assert w.min() >= -1e-10 * max(w.max(), 1e-300)


def test_gram_psd_larger_instance():
    rng = np.random.default_rng(37)
    X = rng.standard_normal((64, 8))
    for kind in ("diagonal", "curl_free"):
        K = assemble_gram(spec(kind, gauss(2.0)), X).matrix
        w = np.linalg.eigvalsh(0.5 * (K + K.T))
        assert w.min() >= -1e-10 * w.max()


def test_gram_matvec_zero_and_basis_column():
    rng = np.random.default_rng(41)
    X = rng.standard_normal((6, 2))
    sp = spec("curl_free", imq(1.2))
    dense = assemble_gram(sp, X)
    imp = ImplicitGram(sp, X)
    n = 12
    assert np.array_equal(gram_matvec(imp, np.zeros(n)), np.zeros(n))
    e1 = np.zeros(n)
    e1[0] = 1.0
    assert np.allclose(gram_matvec(imp, e1), dense.matrix[:, 0], atol=1e-13)


def test_gram_matvec_implicit_matches_dense():
    rng = np.random.default_rng(43)
    for kind in ("diagonal", "curl_free"):
        X = rng.standard_normal((40, 7))
        sp = spec(kind, imq(1.6))
        dense = assemble_gram(sp, X)
        imp = ImplicitGram(sp, X)
        for _ in range(5):
            b = rng.standard_normal(40 * 7)
            ref = gram_matvec(dense, b)
            got = gram_matvec(imp, b)
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_gram_matvec_length_mismatch():
    X = np.zeros((3, 2)) + np.arange(6).reshape(3, 2)
    sp = spec("diagonal", imq())
    for gram in (ImplicitGram(sp, X), assemble_gram(sp, X)):
        with pytest.raises(InputError):
            gram_matvec(gram, np.zeros(5))


# ======================================================================
# h vector
# ======================================================================

def test_h_vector_single_sample_curlfree_is_zero():
    sp = spec("curl_free", imq(1.0))
    assert np.array_equal(h_vector(sp, np.array([[1.0, 2.0]])), np.zeros(2))


def test_h_vector_two_sample_reference():
    sp = spec("diagonal", gauss(1.0))
    h = h_vector(sp, np.array([[-1.0], [1.0]]))
    assert np.allclose(h, [-np.exp(-2.0), np.exp(-2.0)], rtol=1e-14)
    assert np.allclose(h, [-0.13534, 0.13534], atol=1e-5)


def test_h_vector_diagonal_matches_scalar_gradient_sum():
    rng = np.random.default_rng(47)
    k = imq(1.3)
    sp = spec("diagonal", k)
    X = rng.standard_normal((5, 3))
    h = h_vector(sp, X)
    M, d = X.shape
    for m in range(M):
        for i in range(d):
            # d/dx_i k(x, y) at (x^l, x^m) summed over l, divided by M
            total = 0.0
            for l in range(M):
                r = X[l] - X[m]
                total += 2.0 * float(k.dphi(r @ r)) * r[i]
            assert abs(h[m * d + i] - total / M) <= 1e-12 * max(1.0, abs(total))


# ======================================================================
# the dense path: row blocks, chunked h, one symmetric matrix
# ======================================================================

@pytest.mark.parametrize("family", ["gaussian", "imq"])
@pytest.mark.parametrize("P, Q, d", [
    (2048, 2048, 1),   # 4 row blocks of 512
    (64, 64, 8),
    (37, 37, 3),
    (1500, 1000, 1),   # 2 blocks, the last one partial
    (300, 129, 8),     # 3 blocks of 127, the last one partial
])
def test_cross_gram_row_blocks_equal_whole_array_bits(family, P, Q, d):
    rng = np.random.default_rng(P + Q + d)
    A, B = rng.standard_normal((P, d)), rng.standard_normal((Q, d))
    sp = spec("curl_free", ScalarRadialKernel(family, 1.3))
    got = cross_gram(sp, A, B)
    assert got.shape == (P * d, Q * d)
    assert np.array_equal(got, cross_gram_full(sp, A, B))


def test_cross_gram_curlfree_with_no_columns():
    X = np.random.default_rng(3).standard_normal((5, 3))
    assert cross_gram(spec("curl_free", imq()), X, np.empty((0, 3))).shape == (15, 0)


@pytest.mark.parametrize("kind", ["curl_free", "diagonal"])
@pytest.mark.parametrize("M", [2048, 3000, 2040])   # 2040: the last block has 56 of 64 rows
def test_h_vector_chunks_equal_one_zeta_batch_bits(kind, M):
    X = np.random.default_rng(M).standard_normal((M, 1))
    sp = spec(kind, gauss(0.9))
    whole = query_tables_whole(sp, X, X, cross=False)[0].ravel()
    assert np.array_equal(h_vector(sp, X), whole)
    assert np.array_equal(zeta_batch(sp, X, X).ravel(), whole)


@pytest.mark.parametrize("kind", ["curl_free", "diagonal"])
def test_h_vector_chunks_where_blas_regroups_rows(kind):
    """At d > 1 or M % 8 != 0 a block's products may round differently."""
    for M, d in ((1001, 1), (1000, 3)):
        X = np.random.default_rng(M).standard_normal((M, d))
        sp = spec(kind, imq(1.1))
        whole = query_tables_whole(sp, X, X, cross=False)[0].ravel()
        h = h_vector(sp, X)
        assert np.abs(h - whole).max() <= 1e-13 * np.abs(whole).max()


def blocked_and_whole_tables(kind, Q, M, d, subset):
    """query_tables blocked and as one whole pass over M samples, or, if
    subset, over a Nystrom basis of M // 4 of them without zeta, as the
    sweep's entry for each basis reads them."""
    rng = np.random.default_rng(Q + M + d)
    X, Xq = rng.standard_normal((M, d)), rng.standard_normal((Q, d))
    assert Q * M > kernels.BLOCK_ENTRIES
    if subset:
        X = X[np.sort(rng.choice(M, M // 4, replace=False))]
    sp = spec(kind, gauss(0.4 * np.sqrt(d)))
    z, tables = query_tables(sp, Xq, X, zeta=not subset)
    if not subset:
        assert np.array_equal(query_tables(sp, Xq, X, cross=False)[0], z)
    only = query_tables(sp, Xq, X, zeta=False)[1]
    assert all(np.array_equal(t, r) for t, r in zip(only, tables))
    return (z, tables), query_tables_whole(sp, Xq, X, zeta=not subset)


# the sweep's shared tables (eval_size 1024 against conv-1d's M at d = 1 and
# the d > 1 sweeps' M = 512), a Q that is not a multiple of the block rows
# (1000 = 31 x 32 + 8 at M = 4096) and subset bases (dense-eigen's Nystrom
# basis of 128 points at d = 8 is one block, 256 at d = 1 four)
@pytest.mark.parametrize("kind", ["curl_free", "diagonal"])
@pytest.mark.parametrize("Q, M, d, subset", [
    (1024, 256, 1, False), (1024, 1024, 1, False), (1024, 4096, 1, False),
    (1024, 512, 8, False), (1024, 512, 64, False), (1024, 512, 128, False),
    (1000, 4096, 1, False), (1024, 512, 8, True), (1000, 1024, 1, True)])
def test_blocked_query_tables_equal_one_whole_pass(kind, Q, M, d, subset):
    (z, tables), (ref_z, ref_tables) = blocked_and_whole_tables(kind, Q, M, d, subset)
    assert (z is None) == (ref_z is None) == subset
    assert subset or np.array_equal(z, ref_z)
    assert len(tables) == len(ref_tables)
    assert all(np.array_equal(t, r) for t, r in zip(tables, ref_tables))


@pytest.mark.parametrize("kind", ["curl_free", "diagonal"])
def test_short_last_block_at_d_above_one(kind):
    """The last block of 232 rows computes its zeta product (232 x 512 by
    512 x 8) with a BLAS partition of its own: z moved by 1.1e-15 relative."""
    (z, tables), (ref_z, ref_tables) = blocked_and_whole_tables(kind, 1000, 512, 8, False)
    assert np.abs(z - ref_z).max() <= 1e-13 * np.abs(ref_z).max()
    assert all(np.array_equal(t, r) for t, r in zip(tables, ref_tables))


def test_query_tables_of_no_queries():
    X = np.random.default_rng(0).standard_normal((5, 2))
    z, (t1, t2) = query_tables(spec("curl_free", imq()), X[:0], X)
    assert z.shape == (0, 2) and t1.shape == t2.shape == (0, 5)


@pytest.mark.parametrize("family", ["gaussian", "imq"])
@pytest.mark.parametrize("M, d", [(512, 8), (700, 3), (37, 3)])
def test_dense_curlfree_gram_is_symmetrized_in_place(family, M, d):
    X = np.random.default_rng(M * d).standard_normal((M, d))
    sp = spec("curl_free", ScalarRadialKernel(family, 1.7))
    K = assemble_gram(sp, X).matrix
    K0 = cross_gram(sp, X, X)
    assert np.array_equal(K, K.T)
    assert np.array_equal(K, 0.5 * (K0 + K0.T))
    assert not np.array_equal(K0, K0.T)


@pytest.mark.parametrize("kind, d", [("diagonal", 3), ("diagonal", 1), ("curl_free", 1)])
def test_kron_and_scalar_curlfree_grams_are_symmetric_as_built(kind, d):
    # the d = 1 curl-free Gram is query_tables' scalar kernel table, not
    # cross_gram's einsum (test_d1_curlfree_gram_is_the_query_table)
    X = np.random.default_rng(d).standard_normal((300, d))
    sp = spec(kind, gauss(1.2))
    K0 = query_tables(sp, X, X)[1][0] if kind == "curl_free" else cross_gram(sp, X, X)
    assert np.array_equal(K0, K0.T)
    assert np.array_equal(assemble_gram(sp, X).matrix, K0)


@pytest.mark.parametrize("family", ["gaussian", "imq"])
@pytest.mark.parametrize("kind, d", [("curl_free", 1), ("curl_free", 3), ("curl_free", 8),
                                     ("diagonal", 1), ("diagonal", 3)])
def test_every_dense_gram_is_exactly_symmetric(family, kind, d):
    # DenseGram.matvec reads one triangle
    X = np.random.default_rng(7 * d).standard_normal((1001 // d, d))
    K = assemble_gram(spec(kind, ScalarRadialKernel(family, 0.8)), X).matrix
    assert np.array_equal(K, K.T)


@pytest.mark.parametrize("family", ["gaussian", "imq"])
@pytest.mark.parametrize("M", [256, 1000, 1001])
def test_d1_curlfree_gram_is_the_query_table(family, M):
    X = np.random.default_rng(M).standard_normal((M, 1))
    sp = spec("curl_free", ScalarRadialKernel(family, 0.7))
    K = assemble_gram(sp, X).matrix
    assert np.array_equal(K, query_tables(sp, X, X)[1][0])
    K0 = cross_gram(sp, X, X)
    assert np.abs(K - K0).max() <= 1e-13 * np.abs(K0).max()


@pytest.mark.parametrize("family", ["gaussian", "imq"])
@pytest.mark.parametrize("M", [2048, 2040, 48])
def test_d1_curlfree_gram_comes_with_h_cached(monkeypatch, family, M):
    X = np.random.default_rng(M).standard_normal((M, 1))
    sp = spec("curl_free", ScalarRadialKernel(family, 0.9))
    gram = assemble_gram(sp, X)
    # built in the Gram's own pass: no second h_vector
    monkeypatch.setattr(kernels, "h_vector", None)
    h = gram.divergence()
    assert not h.flags.writeable
    assert np.array_equal(h, zeta_batch(sp, X, X).ravel())


@pytest.mark.parametrize("kind, d", [("curl_free", 1), ("curl_free", 3), ("diagonal", 1)])
def test_one_column_matvec_reads_one_triangle(kind, d):
    X = np.random.default_rng(d).standard_normal((400, d))
    gram = assemble_gram(spec(kind, imq(1.3)), X)
    G, b = gram.matrix, np.random.default_rng(1).standard_normal(len(gram.matrix))
    ref = G @ b
    # dsymv's result differs from G @ b only in rounding
    assert np.abs(gram.matvec(b) - ref).max() <= 1e-13 * np.abs(ref).max()
    # strictly upper entries are never read: G's upper triangle is G.T's lower one
    G[np.triu_indices(len(G), 1)] = np.nan
    assert np.all(np.isfinite(gram.matvec(b)))


def test_hand_built_dense_gram_is_checked():
    X = np.random.default_rng(6).standard_normal((6, 1))
    sp = spec("curl_free", imq())
    A = np.arange(36.0).reshape(6, 6)
    with pytest.raises(InputError, match="exactly symmetric"):
        DenseGram(sp, X, A)
    with pytest.raises(InputError, match="non-finite"):
        DenseGram(sp, X, np.full((6, 6), np.nan))
    for wrong in (np.eye(4), np.eye(6)[:, :5], np.ones(36)):
        with pytest.raises(InputError, match=r"is 6 x 6"):
            DenseGram(sp, X, wrong)
    with pytest.raises(InputError, match=r"is 6 x 6"):  # a diagonal kernel's is M x M
        DenseGram(spec("diagonal", imq()), np.zeros((6, 2)), np.eye(12))
    S = A + A.T
    b = np.arange(6.0)
    assert np.allclose(DenseGram(sp, X, S).matvec(b), S @ b, rtol=1e-15, atol=0)


def test_assemble_gram_skips_the_symmetry_check(monkeypatch):
    def refuse(*args):
        raise AssertionError("assemble_gram checked its own Gram")
    monkeypatch.setattr(kernels, "check_symmetric", refuse)
    for kind, d in (("curl_free", 1), ("curl_free", 3), ("diagonal", 2)):
        assemble_gram(spec(kind, imq()), np.random.default_rng(d).standard_normal((30, d)))


def test_diagonal_gram_product_of_d_columns_is_one_matrix_product():
    X = np.random.default_rng(2).standard_normal((300, 3))
    gram = assemble_gram(spec("diagonal", imq(1.3)), X)
    B = np.random.default_rng(3).standard_normal((300, 3))
    assert np.array_equal(gram.matvec(B.ravel()), (gram.matrix @ B).ravel())


@pytest.mark.parametrize("kind, d", [("curl_free", 3), ("curl_free", 1), ("diagonal", 2),
                                     ("diagonal", 1)])
def test_eigensystem_decomposes_the_gram_matrix_itself(monkeypatch, kind, d):
    seen = []
    real = spectral_linalg.sym_eig
    monkeypatch.setattr(spectral_linalg, "sym_eig",
                        lambda K, **kw: seen.append(K) or real(K, **kw))
    gram = assemble_gram(spec(kind, imq()), np.random.default_rng(5).standard_normal((20, d)))
    eig = gram.eigensystem()
    assert len(seen) == 1 and seen[0] is gram.matrix
    # one column per lift (curl-free, or diagonal at d = 1) skips the eigenvector matrix
    reduced = kind == "curl_free" or d == 1
    assert isinstance(eig, spectral_linalg.TridiagonalEigen) == reduced
    assert isinstance(eig, spectral_linalg.EigenSystem) != reduced


# ======================================================================
# cross application (prediction kernel term)
# ======================================================================

def test_cross_apply_matches_blockwise_sum():
    rng = np.random.default_rng(53)
    for kind in ("diagonal", "curl_free"):
        sp = spec(kind, gauss(1.2))
        X = rng.standard_normal((6, 3))
        Q = rng.standard_normal((4, 3))
        C = rng.standard_normal((6, 3))
        out = cross_apply(sp, Q, X, C)
        for q in range(4):
            ref = sum(eval_matrix_kernel(sp, Q[q], X[j]) @ C[j] for j in range(6))
            assert np.allclose(out[q], ref, atol=1e-12)


@pytest.mark.parametrize("d", [2, 8, 64])
def test_curlfree_cross_apply_in_place_keeps_its_bits(d):
    rng = np.random.default_rng(d)
    X, Q, C = (rng.standard_normal((n, d)) for n in (90, 70, 90))
    sp = spec("curl_free", imq(0.5 * np.sqrt(d)))
    assert np.array_equal(cross_apply(sp, Q, X, C), cross_apply_two_tables(sp, Q, X, C))


def test_cross_apply_shape_validation():
    sp = spec("diagonal", imq())
    with pytest.raises(InputError):
        cross_apply(sp, np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((2, 2)))


# ======================================================================
# single-query validation
# ======================================================================

def _single_query_functions(d):
    """Each public function of one d-vector query, and whether it ravels
    the query (accepting any shape of d entries) or takes only (d,)."""
    dist = make_grid_distribution(d, 1)
    X = np.random.default_rng(d).standard_normal((12, d))
    sp = spec("curl_free", imq(1.2))
    est = fit_tikhonov(X, sp, 0.1)
    return {"log_density": (lambda x: log_density(dist, x), True),
            "true_score": (lambda x: true_score(dist, x), True),
            "recover_log_density": (lambda x: recover_log_density(est, x), True),
            "est.log_density": (est.log_density, True),
            "zeta": (lambda x: zeta(sp, X, x), False)}


@pytest.mark.parametrize("name", ["log_density", "true_score", "recover_log_density",
                                  "est.log_density", "zeta"])
@pytest.mark.parametrize("d", [1, 3])
def test_single_query_functions_share_one_validator(name, d):
    fn, ravels = _single_query_functions(d)[name]
    x = np.linspace(-0.5, 0.7, d)
    want = fn(x)
    shapes = [x.tolist()] + ([x[None, :], x[:, None]] if ravels else [])
    if ravels and d == 1:
        shapes.append(float(x[0]))
    for q in shapes:
        assert np.array_equal(fn(q), want)
    bad = [np.linspace(0.0, 1.0, d + 1), np.zeros(0)]
    for value in (np.nan, np.inf, -np.inf):
        q = x.copy()
        q[-1] = value
        bad.append(q)
    if not ravels:
        bad.append(x[None, :])
    for q in bad:
        with pytest.raises(InputError):
            fn(q)
