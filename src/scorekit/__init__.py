"""scorekit: nonparametric score estimation via spectrally regularized
matrix-valued kernel regression.

The estimators recover s(x) = grad log p(x) from i.i.d. samples alone.
Every scheme produces predictions of the common form

    s_hat(x) = a * zeta(x) + sum_j K(x, b_j) c_j

where zeta is the empirical divergence field of the kernel, (c, a) are
fitted coefficients, and b_j are the basis points (the samples, or a
subset for the reduced-basis variants).
"""

from .errors import DegenerateDataError, FitError, InputError, NumericError
from .oracles import (
    ErrorReport,
    MixtureDistribution,
    OracleScore,
    load_samples_csv,
    log_density,
    make_grid_distribution,
    median_bandwidth,
    normalized_error,
    sample,
    save_samples_csv,
    score_batch,
    standard_gaussian,
    true_score,
)
from .estimators import (
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
    landweber_path,
    load_estimator,
    nu_method_path,
    predict,
    recover_log_density,
    save_estimator,
)
from .bench import (
    ExperimentConfig,
    emit_plot,
    fit_convergence_slopes,
    load_experiment_config,
    parse_experiment_config,
    run_convergence_experiment,
    run_grid_experiment,
    run_grid_rows,
    summarize,
)
from .kernels import (
    KINDS,
    FAMILIES,
    DenseGram,
    ImplicitGram,
    MatrixKernelSpec,
    ScalarRadialKernel,
    as_samples,
    assemble_gram,
    cross_apply,
    cross_gram,
    h_vector,
    scalar_gram,
    sq_dists,
    zeta,
    zeta_batch,
)

__version__ = "0.1.0"
