"""Benchmark harness: config-driven estimator sweeps over synthetic
distributions, with deterministic CSV output and convergence-slope fits.

A sweep produces one row per (estimator, d, M, hyperparameter point, seed).
Row values are pure functions of the config, so reruns are byte-identical.
Wall-clock timings are real measurements and therefore excluded from the
determinism guarantee; they go to a `.timings.csv` sidecar instead of the
main table. A `.summary.csv` sidecar holds the best-hyperparameter median
error per (estimator, d, M), which is what the plotter consumes.

The sweep runs one problem (d, M, seed) at a time; `threads` > 1 runs that
many problems at once. Work that depends on neither lam nor the scheme is
done once per problem and dropped when the problem ends: the draws X and
Q, the true scores at Q, the median bandwidth, one Gram per (kernel spec,
dense|implicit) with its h and eigensystem, zeta(Q) and the radial tables
K(Q, X) from one sq_dists per spec for every fit whose basis is the
sample set, and the lam-independent Nystrom blocks. These
shared values come from the same calls on the same arrays, so sharing them
changes no row. The curl-free Tikhonov grid and nu-method path are
different. Over a dense Gram one Lanczos basis of the Krylov space of K
and h serves both: each Tikhonov fit gets a start that aims 100x below
solve_spd's 1e-10 residual, and solve_spd checks it with one Gram product,
returns it if it meets 1e-10 and factors the shifted Gram otherwise; the
nu-method recursion runs on the basis's tridiagonal matrix. Over a
matrix-free Gram one shifted CG run solves every lam at once and each fit
runs its own CG from its start. Those rows differ from independent solves
and the direct recursion in their last digits (on the conv-1d benchmark
workload, under 1e-5 relative for tikhonov and 1e-11 for nu_method) while
each still meets its residual tolerance. Shared work is timed in the
fit_ms or predict_ms of the first cell that needs it, so a `.timings.csv`
row is not the cost of that cell alone.

Each estimator id has one small single-point fit (_CELL_FITS), and one
loop (_fit_cells) times them all and records a contract error (InputError,
NumericError or MemoryError: a bad lambda, a singular subset, CG running
out of iterations) as a row with error = nan and the exception text in the
reason column. Any other exception is a bug and aborts the sweep. The
iterative schemes snapshot every grid point from one recursion run
(_fit_path), so those rows share the run's fit time or failure.
"""

import csv
import io
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open, read_text
from .errors import InputError, NumericError
from .estimators import (
    TruncatedTikhonov,
    _subset_building_blocks,
    fit_nystrom,
    fit_spectral_cutoff,
    fit_tikhonov,
    fit_tikhonov_cg,
    fit_truncated_tikhonov,
    landweber_path,
    nu_method_path,
    predict,
)
from .kernels import (
    DenseGram,
    MatrixKernelSpec,
    ScalarRadialKernel,
    assemble_gram,
    query_tables,
)
from .oracles import (
    MixtureDistribution,
    OracleScore,
    make_grid_distribution,
    median_bandwidth,
    sample,
    score_batch,
    standard_gaussian,
)
from .spectral_linalg import SPD_RESIDUAL_TOL, lanczos, shifted_cg
from .svgplot import render_line_chart

SCHEMA_VERSION = 1

# defaults for the hyperparameter search
LAMBDA_GRID = tuple(10.0 ** -k for k in range(0, 9))
ITERATION_GRID = tuple(range(20, 101, 10))
FRACTION_GRID = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)

ESTIMATOR_IDS = ("tikhonov", "tikhonov_cg", "truncated_tikhonov",
                 "spectral_cutoff", "landweber", "nu_method", "nystrom",
                 "oracle")

# curl-free systems up to this size use the dense Gram; above it the
# matrix-free path (diagonal kernels always go through the scalar MxM path)
DENSE_SYSTEM_LIMIT = 4096

# the "exact" Tikhonov fit on large matrix-free systems: tight tolerance,
# capped budget; cells whose lambda is too small to converge report failure
_TIK_IMPLICIT_TOL = 1e-8
_TIK_IMPLICIT_MAX_ITER = 800

# The dense grid's starts come from a Lanczos basis of the Gram and each
# aims, by its Lanczos residual estimate, 100x below the residual solve_spd
# checks. At lam = 1e-8 the shifted Gram's condition number is ~3e7, so
# starts that only just met 1e-10 moved conv-1d benchmark rows by up to
# 3.7e-4 relative from factored solves; at 1e-12 they move by under 1e-5,
# for a few more basis vectors.
_TIK_DENSE_START_TOL = SPD_RESIDUAL_TOL / 100

# a dense Gram's Krylov space counts as invariant once beta_k <= this * ||K||_1
_KRYLOV_INVARIANT_REL = 1e-14

# the errors a cell may fail with (errors.py); anything else is a bug and
# aborts the sweep
_CONTRACT_ERRORS = (InputError, NumericError, MemoryError)

ROWS_HEADER = ("estimator", "kind", "d", "M", "hyperparams", "seed",
               "error", "reason")
TIMINGS_HEADER = ("estimator", "kind", "d", "M", "hyperparams", "seed",
                  "fit_ms", "predict_ms")
SUMMARY_HEADER = ("estimator", "kind", "d", "M", "hyperparams",
                  "median_error", "n_ok")
SLOPES_HEADER = ("estimator", "kind", "d", "slope", "status")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _glabel(v) -> str:
    return str(v) if isinstance(v, (int, np.integer)) else format(float(v), ".10g")


# ======================================================================
# config schema
# ======================================================================

def _check_keys(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise InputError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def _as_list(v):
    return v if isinstance(v, list) else [v]


def _int_list(v, where, minimum=1):
    out = []
    for item in _as_list(v):
        if isinstance(item, bool) or not isinstance(item, int) or item < minimum:
            raise InputError(f"{where}: expected integer(s) >= {minimum}, got {item!r}")
        out.append(item)
    if not out:
        raise InputError(f"{where}: list must be non-empty")
    return tuple(out)


def _float_list(v, where, low=0.0, high=math.inf, open_low=True):
    out = []
    for item in _as_list(v):
        if isinstance(item, bool) or not isinstance(item, (int, float)) \
                or not math.isfinite(item):
            raise InputError(f"{where}: expected finite number(s), got {item!r}")
        x = float(item)
        if x < low or x > high or (open_low and x == low):
            raise InputError(f"{where}: value {x!r} out of range")
        out.append(x)
    if not out:
        raise InputError(f"{where}: list must be non-empty")
    return tuple(out)


def _scalar_float(v, where, low=0.0, open_low=True):
    vals = _float_list(v, where, low=low, open_low=open_low)
    if len(vals) != 1 or isinstance(v, list):
        raise InputError(f"{where}: expected a single number")
    return vals[0]


@dataclass(frozen=True)
class EstimatorEntry:
    """One validated estimator block of the config, with its search grid."""

    id: str
    kind: str                      # "diagonal" | "curl_free" | "-" for oracle
    family: str = "imq"
    bandwidth: object = "median"   # "median" or a positive float
    grid: tuple = ()               # ((label, params_dict), ...)
    tol: float = 1e-4
    max_iter: int = 40
    nu: float = 1.0
    eta: float = 0.0               # 0 means auto step size
    subset_size: int = 0
    subset_fraction: float = 0.0


_COMMON_KEYS = ("id", "kind", "family", "bandwidth")
_ENTRY_KEYS = {
    "tikhonov": _COMMON_KEYS + ("lambdas",),
    "tikhonov_cg": _COMMON_KEYS + ("lambdas", "tol", "max_iter"),
    "truncated_tikhonov": _COMMON_KEYS + ("lambdas",),
    "spectral_cutoff": _COMMON_KEYS + ("fractions", "lambdas"),
    "landweber": _COMMON_KEYS + ("iterations", "eta"),
    "nu_method": _COMMON_KEYS + ("iterations", "nu"),
    "nystrom": _COMMON_KEYS + ("lambdas", "subset_size", "subset_fraction"),
    "oracle": ("id",),
}


def _parse_estimator(obj, where: str) -> EstimatorEntry:
    if not isinstance(obj, dict):
        raise InputError(f"{where}: estimator entries must be objects")
    eid = obj.get("id")
    if eid not in ESTIMATOR_IDS:
        raise InputError(f"{where}: 'id' must be one of {', '.join(ESTIMATOR_IDS)}, "
                         f"got {eid!r}")
    _check_keys(obj, _ENTRY_KEYS[eid], where)

    if eid == "oracle":
        return EstimatorEntry(id=eid, kind="-", grid=(("-", {}),))

    kind = obj.get("kind")
    if kind not in ("diagonal", "curl_free"):
        raise InputError(f"{where}: 'kind' must be 'diagonal' or 'curl_free', "
                         f"got {kind!r}")
    family = obj.get("family", "imq")
    if family not in ("imq", "gaussian"):
        raise InputError(f"{where}: 'family' must be 'imq' or 'gaussian'")
    bandwidth = obj.get("bandwidth", "median")
    if bandwidth != "median":
        bandwidth = _scalar_float(bandwidth, f"{where}.bandwidth")

    kw = dict(id=eid, kind=kind, family=family, bandwidth=bandwidth)

    if eid in ("tikhonov", "tikhonov_cg", "truncated_tikhonov", "nystrom"):
        lams = _float_list(obj.get("lambdas", list(LAMBDA_GRID)), f"{where}.lambdas")
        kw["grid"] = tuple((f"lam={_glabel(l)}", {"lam": l}) for l in lams)
    if eid == "tikhonov_cg":
        kw["tol"] = _scalar_float(obj.get("tol", 1e-4), f"{where}.tol")
        kw["max_iter"] = _int_list(obj.get("max_iter", 40), f"{where}.max_iter")[0]
    if eid == "spectral_cutoff":
        if "fractions" in obj and "lambdas" in obj:
            raise InputError(f"{where}: give either 'fractions' or 'lambdas', not both")
        if "lambdas" in obj:
            lams = _float_list(obj["lambdas"], f"{where}.lambdas")
            kw["grid"] = tuple((f"lam={_glabel(l)}", {"lam": l}) for l in lams)
        else:
            fracs = _float_list(obj.get("fractions", list(FRACTION_GRID)),
                                f"{where}.fractions", low=0.0, high=1.0)
            kw["grid"] = tuple((f"fraction={_glabel(f)}", {"fraction": f})
                               for f in fracs)
    if eid in ("landweber", "nu_method"):
        ts = _int_list(obj.get("iterations", list(ITERATION_GRID)),
                       f"{where}.iterations")
        kw["grid"] = tuple((f"t={t}", {"t": t}) for t in ts)
    if eid == "landweber" and "eta" in obj:
        kw["eta"] = _scalar_float(obj["eta"], f"{where}.eta")
    if eid == "nu_method":
        kw["nu"] = _scalar_float(obj.get("nu", 1.0), f"{where}.nu", low=1.0,
                                 open_low=False)
    if eid == "nystrom":
        if "subset_size" in obj and "subset_fraction" in obj:
            raise InputError(f"{where}: give either 'subset_size' or "
                             f"'subset_fraction', not both")
        if "subset_size" in obj:
            kw["subset_size"] = _int_list(obj["subset_size"], f"{where}.subset_size")[0]
        else:
            kw["subset_fraction"] = _float_list(
                obj.get("subset_fraction", 0.5), f"{where}.subset_fraction",
                low=0.0, high=1.0)[0]
    return EstimatorEntry(**kw)


@dataclass(frozen=True)
class ExperimentConfig:
    distribution: str                 # "grid" | "gaussian" | "mixture"
    dimensions: tuple
    sample_sizes: tuple
    estimators: tuple                 # of EstimatorEntry
    seeds: tuple
    eval_size: int = 1024
    distribution_seed: int = 0
    mixture: MixtureDistribution = None


_CONFIG_KEYS = ("schema_version", "distribution", "mixture_file", "dimensions",
                "sample_sizes", "estimators", "seeds", "eval_size",
                "distribution_seed")


def parse_experiment_config(data, base_dir: str = ".") -> ExperimentConfig:
    """Validate a parsed config object. Unknown keys are hard errors."""
    if not isinstance(data, dict):
        raise InputError("config root must be an object")
    _check_keys(data, _CONFIG_KEYS, "config")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"config: 'schema_version' must be {SCHEMA_VERSION}, "
                         f"got {data.get('schema_version')!r}")

    dist = data.get("distribution")
    if dist not in ("grid", "gaussian", "mixture"):
        raise InputError("config: 'distribution' must be 'grid', 'gaussian' "
                         f"or 'mixture', got {dist!r}")
    mixture = None
    if dist == "mixture":
        if "mixture_file" not in data:
            raise InputError("config: distribution 'mixture' requires 'mixture_file'")
        mixture = load_mixture_file(os.path.join(base_dir, data["mixture_file"]))
    elif "mixture_file" in data:
        raise InputError("config: 'mixture_file' is only valid with "
                         "distribution 'mixture'")

    dims = _int_list(data.get("dimensions"), "config.dimensions") \
        if "dimensions" in data else None
    if dims is None:
        raise InputError("config: missing required key 'dimensions'")
    if mixture is not None and any(d != mixture.dim for d in dims):
        raise InputError(f"config.dimensions: mixture file has d={mixture.dim}; "
                         f"all dimensions must equal it")
    if "sample_sizes" not in data:
        raise InputError("config: missing required key 'sample_sizes'")
    sizes = _int_list(data["sample_sizes"], "config.sample_sizes")
    if "seeds" not in data:
        raise InputError("config: missing required key 'seeds'")
    seeds = _int_list(data["seeds"], "config.seeds", minimum=0)

    raw_ests = data.get("estimators")
    if not isinstance(raw_ests, list) or not raw_ests:
        raise InputError("config: 'estimators' must be a non-empty list")
    entries = tuple(_parse_estimator(e, f"config.estimators[{i}]")
                    for i, e in enumerate(raw_ests))
    ids = [e.id for e in entries]
    if len(set(ids)) != len(ids):
        raise InputError("config.estimators: estimator ids must be unique")

    eval_size = _int_list(data.get("eval_size", 1024), "config.eval_size")[0]
    dseed = _int_list(data.get("distribution_seed", 0),
                      "config.distribution_seed", minimum=0)[0]
    return ExperimentConfig(distribution=dist, dimensions=dims,
                            sample_sizes=sizes, estimators=entries,
                            seeds=seeds, eval_size=eval_size,
                            distribution_seed=dseed, mixture=mixture)


def _load_json_object(path, what: str) -> dict:
    """The JSON object in the UTF-8 file at path; what names the file in the
    error a non-object root raises."""
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: {what} root must be an object")
    return data


def load_experiment_config(path) -> ExperimentConfig:
    return parse_experiment_config(_load_json_object(path, "config"),
                                   base_dir=os.path.dirname(str(path)))


_MIXTURE_KEYS = ("means", "weights", "scale")


def load_mixture_file(path) -> MixtureDistribution:
    """JSON mixture description: means (list of rows), weights, scale."""
    data = _load_json_object(path, "mixture file")
    _check_keys(data, _MIXTURE_KEYS, str(path))
    if "means" not in data or "weights" not in data:
        raise InputError(f"{path}: mixture file needs 'means' and 'weights'")
    return MixtureDistribution(np.asarray(data["means"], dtype=np.float64),
                               np.asarray(data["weights"], dtype=np.float64),
                               scale=float(data.get("scale", 1.0)))


def build_distribution(cfg: ExperimentConfig, d: int) -> MixtureDistribution:
    if cfg.distribution == "gaussian":
        return standard_gaussian(d)
    if cfg.distribution == "mixture":
        return cfg.mixture
    return make_grid_distribution(d, cfg.distribution_seed)


# ======================================================================
# sweep execution
# ======================================================================

@dataclass(frozen=True)
class ResultRow:
    estimator: str
    kind: str
    d: int
    M: int
    hyperparams: str
    seed: int
    error: float
    reason: str
    fit_ms: float
    predict_ms: float


@dataclass
class _Cell:
    error: float = math.nan
    reason: str = ""
    fit_ms: float = 0.0
    predict_ms: float = 0.0


def _reason(exc) -> str:
    text = str(exc).splitlines()[0] if str(exc) else ""
    return f"{type(exc).__name__}: {text}"


def _now_ms() -> float:
    return time.perf_counter() * 1e3


def _mean_error(truth: np.ndarray, pred: np.ndarray, d: int) -> float:
    return float(np.mean(np.square(truth - pred).sum(axis=1)) / d)


class _Problem:
    """The work one (d, M, seed) problem shares across its estimator entries.

    The draws and the truth are made on construction; the bandwidth, Grams,
    query tables, Tikhonov starts and Nystrom blocks when a cell first
    needs them, inside that cell's timing.
    """

    def __init__(self, cfg: ExperimentConfig, d: int, M: int, seed: int):
        self.d, self.M, self.seed = d, M, seed
        self.dist = build_distribution(cfg, d)
        self.X = sample(self.dist, M, np.random.SeedSequence(seed, spawn_key=(1, d, M)))
        self.Q = sample(self.dist, cfg.eval_size,
                        np.random.SeedSequence(seed, spawn_key=(2, d, M)))
        self.truth = score_batch(self.dist, self.Q)
        self.entries = cfg.estimators
        self._shared = {}

    def _once(self, key, build):
        # a failed build is not stored: the next cell retries and fails alike
        if key not in self._shared:
            self._shared[key] = build()
        return self._shared[key]

    def spec(self, entry: EstimatorEntry) -> MatrixKernelSpec:
        return _kernel_spec(
            entry, lambda: self._once("bandwidth", lambda: median_bandwidth(self.X)))

    def gram(self, spec: MatrixKernelSpec, dense: bool):
        mode = "dense" if dense else "implicit"
        return self._once(("gram", spec, mode),
                          lambda: assemble_gram(spec, self.X, mode=mode))

    def query_tables(self, spec: MatrixKernelSpec) -> tuple:
        return self._once(("query", spec), lambda: query_tables(spec, self.Q, self.X))

    def subset_blocks(self, spec: MatrixKernelSpec, idx: np.ndarray):
        return self._once(("nystrom", spec, idx.tobytes()),
                          lambda: _subset_building_blocks(self.X, idx, spec))

    def krylov(self, spec: MatrixKernelSpec):
        """(V, T, dims, spans_nu): one Lanczos basis of the dense Gram of spec.

        It serves the curl-free tikhonov and nu_method entries of spec and
        stops at invariance, at _TIK_IMPLICIT_MAX_ITER vectors, or once it
        spans the nu-method iterates (t_max - 1 vectors) and every shift
        M lam has met _TIK_DENSE_START_TOL; dims[i] is the size at which
        shift i did (0: never). Each reader takes the leading part it
        needs, so its rows do not depend on the other entry. None if the
        run fails.
        """
        def build():
            gram, shifts, t_max = self.gram(spec, dense=True), np.zeros(0), 1
            for e in self.entries:
                if e.kind == "curl_free" and e.id == "tikhonov" and self.spec(e) == spec:
                    shifts = self.M * np.array([p["lam"] for _, p in e.grid])
                if e.kind == "curl_free" and e.id == "nu_method" and self.spec(e) == spec:
                    t_max = max(p["t"] for _, p in e.grid)
            K = gram.matrix  # ||K||_1 in row blocks, to keep the peak down
            tol = _KRYLOV_INVARIANT_REL * max(
                float(np.abs(K[i:i + 16]).sum(axis=1).max()) for i in range(0, len(K), 16))
            stop, dims = _shift_targets(shifts, t_max - 1)
            try:
                V, T, beta = lanczos(gram, gram.divergence(), _TIK_IMPLICIT_MAX_ITER, tol,
                                     stop=stop)
            except _CONTRACT_ERRORS:
                return None
            return V, T, dims, beta <= tol or len(V) >= min(t_max - 1, len(K))
        return self._once(("krylov", spec), build)


def _kernel_spec(entry: EstimatorEntry, median) -> MatrixKernelSpec:
    """The entry's kernel; median() gives the median bandwidth of the
    samples and is called only if the entry asks for it."""
    bw = entry.bandwidth if isinstance(entry.bandwidth, float) else median()
    return MatrixKernelSpec(entry.kind, ScalarRadialKernel(entry.family, bw))


def _nystrom_subset(entry: EstimatorEntry, seed: int, M: int, d: int) -> np.ndarray:
    """The sorted indices of the entry's Nystrom subset of M samples."""
    size = min(entry.subset_size or max(1, int(round(entry.subset_fraction * M))), M)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3, d, M)))
    return np.sort(rng.choice(M, size=size, replace=False))


def _cutoff_rank(fraction: float, M: int, d: int) -> int:
    """A spectral cut-off fraction of the M sample directions as a rank in
    the Md spectrum."""
    return max(1, int(round(fraction * M))) * d


def _shift_targets(shifts, min_dim):
    """A lanczos stop rule: min_dim vectors, and every (K + s I) y = h has
    met _TIK_DENSE_START_TOL by its Lanczos residual estimate
    beta_k |e_k^T (T_k + s I)^-1 e_1| = beta_k beta_1..beta_{k-1} / (p_1..p_k),
    p_k = alpha_k + s - beta_{k-1}^2 / p_{k-1} the pivots of T_k + s I.
    Returns (stop, dims), dims[i] set to the step at which shift i did.
    """
    piv, last = np.ones(len(shifts)), np.ones(len(shifts))
    dims = np.zeros(len(shifts), dtype=np.int64)

    def stop(alpha, beta):
        b = beta[-2] if len(beta) > 1 else 0.0
        piv[:] = alpha[-1] + shifts - b * b / piv
        last[:] = last * (b if len(beta) > 1 else 1.0) / np.abs(piv)
        dims[(dims == 0) & (beta[-1] * last <= _TIK_DENSE_START_TOL)] = len(beta)
        return len(beta) >= min_dim and bool(dims.all())
    return stop, dims


def _shifted_starts(problem: _Problem, spec, gram, grid) -> list:
    """Start vectors for the curl-free Tikhonov lam grid, dense or matrix-free.

    c = y / lam solves the fit's system (K + M lam I) c = h / lam when
    (K + M lam I) y = h. Over a dense Gram y = ||h|| V^T (T + M lam I)^-1 e_1
    from the problem's Lanczos basis, cut where it met a target below
    solve_spd's residual; solve_spd accepts a start that meets its residual
    and factors otherwise. Over a matrix-free Gram one shifted CG run gives
    every y at the CG tolerance, and each fit iterates on from a start that
    falls short. If the basis or the run fails, every fit solves without a
    start and meets its own error.
    """
    M = gram.samples.shape[0]
    lams = np.array([params["lam"] for _, params in grid])
    if isinstance(gram, DenseGram):
        basis = problem.krylov(spec)
        if basis is None:
            return [None] * len(lams)
        V, T, dims, _ = basis
        nh = np.linalg.norm(gram.divergence())
        starts = []
        for lam, k in zip(lams, dims):
            k = k or len(V)
            try:
                z = np.linalg.solve(T[:k, :k] + M * lam * np.eye(k), np.eye(1, k)[0])
            except np.linalg.LinAlgError:
                z = None
            starts.append(None if z is None else (nh / lam) * (z @ V[:k]))
        return starts
    try:
        Y, _ = shifted_cg(gram, gram.divergence(), M * lams, tol=_TIK_IMPLICIT_TOL,
                          max_iter=_TIK_IMPLICIT_MAX_ITER)
    except _CONTRACT_ERRORS:
        return [None] * len(lams)
    return [y / lam for y, lam in zip(Y, lams)]


def _fit_tikhonov_cell(problem: _Problem, entry, spec, dense, i):
    lam = entry.grid[i][1]["lam"]
    gram = problem.gram(spec, dense)
    if entry.kind == "diagonal":
        # the scalar M x M Gram of the shared matrix-free form
        return fit_tikhonov(problem.X, spec, lam, gram=gram)
    # the Gram's form picks the direct solve or CG
    starts = problem._once(("starts", spec),
                           lambda: _shifted_starts(problem, spec, gram, entry.grid))
    return fit_tikhonov(problem.X, spec, lam, gram=gram, cg_tol=_TIK_IMPLICIT_TOL,
                        cg_max_iter=_TIK_IMPLICIT_MAX_ITER, _x0=starts[i])


def _fit_tikhonov_cg_cell(problem: _Problem, entry, spec, dense, i):
    return fit_tikhonov_cg(problem.X, spec, entry.grid[i][1]["lam"], tol=entry.tol,
                           max_iter=entry.max_iter, gram=problem.gram(spec, dense=False))


# the eigen filters: over the dense limit a curl-free kernel's implicit Gram
# makes the fit refuse cleanly instead of materializing the matrix

def _fit_truncated_tikhonov_cell(problem: _Problem, entry, spec, dense, i):
    return fit_truncated_tikhonov(problem.X, spec, entry.grid[i][1]["lam"],
                                  gram=problem.gram(spec, dense))


def _fit_spectral_cutoff_cell(problem: _Problem, entry, spec, dense, i):
    params, gram = entry.grid[i][1], problem.gram(spec, dense)
    if "lam" in params:
        return fit_spectral_cutoff(problem.X, spec, lam=params["lam"], gram=gram)
    rank = _cutoff_rank(params["fraction"], problem.M, problem.d)
    return fit_spectral_cutoff(problem.X, spec, rank=rank, gram=gram)


def _fit_nystrom_cell(problem: _Problem, entry, spec, dense, i):
    idx = _nystrom_subset(entry, problem.seed, problem.M, problem.d)
    return fit_nystrom(problem.X, idx, spec, TruncatedTikhonov(entry.grid[i][1]["lam"]),
                       _blocks=problem.subset_blocks(spec, idx))


# the single-point fits: fit(problem, entry, spec, dense, grid index) -> estimator
_CELL_FITS = {
    "tikhonov": _fit_tikhonov_cell,
    "tikhonov_cg": _fit_tikhonov_cg_cell,
    "truncated_tikhonov": _fit_truncated_tikhonov_cell,
    "spectral_cutoff": _fit_spectral_cutoff_cell,
    "nystrom": _fit_nystrom_cell,
}


def _fit_path(entry: EstimatorEntry, problem: _Problem, spec, dense):
    """One landweber or nu_method recursion run snapshots every t in the
    grid; its wall time (or failure) is shared by all snapshot rows."""
    ts = [params["t"] for _, params in entry.grid]
    uniq = sorted(set(ts))
    t0, reason = _now_ms(), ""
    try:
        gram = problem.gram(spec, dense)
        if entry.id == "landweber":
            eta = entry.eta if entry.eta > 0 else None
            path = landweber_path(problem.X, spec, uniq, eta=eta, gram=gram)
        else:
            basis = problem.krylov(spec) if dense else None
            path = nu_method_path(problem.X, spec, uniq, nu=entry.nu, gram=gram,
                                  _krylov=basis[:2] if basis and basis[3] else None)
    except _CONTRACT_ERRORS as exc:
        path, reason = [None] * len(uniq), _reason(exc)
    ms = _now_ms() - t0
    by_t = dict(zip(uniq, path))
    for i, t in enumerate(ts):
        yield i, _Cell(reason=reason, fit_ms=ms), by_t[t]


def _fit_cells(entry: EstimatorEntry, problem: _Problem, spec: MatrixKernelSpec):
    """Fit every grid point of one entry on one problem.

    Yields (grid index, cell, estimator or None) as each fit completes, so
    the caller can predict and drop it before the next fit. Every
    single-point fit is timed and its contract error caught here; the path
    schemes snapshot one run (_fit_path).
    """
    # curl-free systems up to the dense limit use the dense Gram; larger ones
    # are matrix-free, and diagonal kernels stay on the scalar M x M tables
    dense = entry.kind == "curl_free" and problem.M * problem.d <= DENSE_SYSTEM_LIMIT
    if entry.id in ("landweber", "nu_method"):
        yield from _fit_path(entry, problem, spec, dense)
        return
    for i in range(len(entry.grid)):
        t0, est, reason = _now_ms(), None, ""
        try:
            est = _CELL_FITS[entry.id](problem, entry, spec, dense, i)
        except _CONTRACT_ERRORS as exc:
            reason = _reason(exc)
        yield i, _Cell(reason=reason, fit_ms=_now_ms() - t0), est


def _run_cell_group(problem: _Problem, entry: EstimatorEntry) -> list:
    if entry.id == "oracle":
        t0 = _now_ms()
        pred = OracleScore(problem.dist).predict(problem.Q)
        return [_Cell(error=_mean_error(problem.truth, pred, problem.d),
                      predict_ms=_now_ms() - t0)]

    try:
        spec = problem.spec(entry)
    except _CONTRACT_ERRORS as exc:
        return [_Cell(reason=_reason(exc)) for _ in entry.grid]

    cells = [None] * len(entry.grid)
    for i, cell, est in _fit_cells(entry, problem, spec):
        cells[i] = cell
        if est is None:
            continue
        t0 = _now_ms()
        try:
            # a Nystrom fit's basis is a subset, not the samples
            shared = problem.query_tables(spec) if est.subset_indices is None else None
            pred = predict(est, problem.Q, _shared=shared)
            cell.error = _mean_error(problem.truth, pred, problem.d)
        except _CONTRACT_ERRORS as exc:
            cell.reason = _reason(exc)
        cell.predict_ms = _now_ms() - t0
    return cells


def _run_problem(cfg: ExperimentConfig, d: int, M: int, seed: int) -> dict:
    """Cells of every estimator entry on one (d, M, seed) problem, by id."""
    try:
        problem = _Problem(cfg, d, M, seed)
    except _CONTRACT_ERRORS as exc:
        return {e.id: [_Cell(reason=_reason(exc)) for _ in e.grid]
                for e in cfg.estimators}
    return {e.id: _run_cell_group(problem, e) for e in cfg.estimators}


def run_grid_rows(cfg: ExperimentConfig, threads: int = 1) -> list:
    """All ResultRows of the sweep, in canonical config order.

    Problems (d, M, seed) run one at a time, or `threads` at a time.
    """
    problems = [(d, M, seed)
                for d in cfg.dimensions
                for M in cfg.sample_sizes
                for seed in cfg.seeds]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(lambda p: _run_problem(cfg, *p), problems))
    else:
        outcomes = [_run_problem(cfg, *p) for p in problems]
    by_problem = dict(zip(problems, outcomes))

    rows = []
    for entry in cfg.estimators:
        for d in cfg.dimensions:
            for M in cfg.sample_sizes:
                for gi, (label, _) in enumerate(entry.grid):
                    for seed in cfg.seeds:
                        cell = by_problem[(d, M, seed)][entry.id][gi]
                        rows.append(ResultRow(
                            estimator=entry.id, kind=entry.kind, d=d, M=M,
                            hyperparams=label, seed=seed, error=cell.error,
                            reason=cell.reason, fit_ms=cell.fit_ms,
                            predict_ms=cell.predict_ms))
    return rows


# ======================================================================
# aggregation
# ======================================================================

@dataclass(frozen=True)
class SummaryRow:
    estimator: str
    kind: str
    d: int
    M: int
    hyperparams: str
    median_error: float
    n_ok: int


def summarize(rows) -> list:
    """Best hyperparameter point per (estimator, d, M) by median error.

    The median is over seeds whose cell succeeded; grid points with no
    successful seed are skipped; an (estimator, d, M) block where every
    cell failed yields a nan row with hyperparams '-'.
    """
    groups = {}
    for row in rows:
        key = (row.estimator, row.kind, row.d, row.M)
        groups.setdefault(key, {}).setdefault(row.hyperparams, []).append(row.error)
    out = []
    for (est, kind, d, M), by_hyper in groups.items():
        best = None
        for label, errs in by_hyper.items():
            ok = [e for e in errs if math.isfinite(e)]
            if not ok:
                continue
            med = float(np.median(np.asarray(ok)))
            if best is None or med < best[1]:
                best = (label, med, len(ok))
        if best is None:
            out.append(SummaryRow(est, kind, d, M, "-", math.nan, 0))
        else:
            out.append(SummaryRow(est, kind, d, M, best[0], best[1], best[2]))
    return out


@dataclass(frozen=True)
class SlopeRow:
    estimator: str
    kind: str
    d: int
    slope: float
    status: str      # "ok" | "exact-fit" | "insufficient-data"


def fit_convergence_slopes(summary) -> list:
    """Least-squares slope of log(median error) vs log M per (estimator, d)."""
    series = {}
    for s in summary:
        series.setdefault((s.estimator, s.kind, s.d), []).append(
            (s.M, s.median_error))
    out = []
    for (est, kind, d), pts in series.items():
        meds = [m for _, m in pts]
        if all(math.isfinite(m) and m == 0.0 for m in meds):
            out.append(SlopeRow(est, kind, d, math.nan, "exact-fit"))
            continue
        usable = [(M, m) for M, m in pts if math.isfinite(m) and m > 0.0]
        if len(usable) < 3:
            out.append(SlopeRow(est, kind, d, math.nan, "insufficient-data"))
            continue
        usable.sort()
        log_m = np.log([M for M, _ in usable])
        log_e = np.log([m for _, m in usable])
        slope = float(np.polyfit(log_m, log_e, 1)[0])
        out.append(SlopeRow(est, kind, d, slope, "ok"))
    return out


# ======================================================================
# CSV writers
# ======================================================================

def _write_csv(path, header, records) -> None:
    with atomic_open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(records)


def write_rows_csv(rows, path) -> None:
    _write_csv(path, ROWS_HEADER,
               ((r.estimator, r.kind, r.d, r.M, r.hyperparams, r.seed,
                 _fmt(r.error), r.reason) for r in rows))


def write_timings_csv(rows, path) -> None:
    _write_csv(path, TIMINGS_HEADER,
               ((r.estimator, r.kind, r.d, r.M, r.hyperparams, r.seed,
                 f"{r.fit_ms:.3f}", f"{r.predict_ms:.3f}") for r in rows))


def write_summary_csv(summary, path) -> None:
    _write_csv(path, SUMMARY_HEADER,
               ((s.estimator, s.kind, s.d, s.M, s.hyperparams,
                 _fmt(s.median_error), s.n_ok) for s in summary))


def write_slopes_csv(slopes, path) -> None:
    _write_csv(path, SLOPES_HEADER,
               ((s.estimator, s.kind, s.d, _fmt(s.slope), s.status)
                for s in slopes))


def _sidecar(out_path, tag: str) -> str:
    base = str(out_path)
    if base.endswith(".csv"):
        base = base[:-4]
    return f"{base}.{tag}.csv"


# ======================================================================
# experiment entry points
# ======================================================================

def _as_config(config) -> ExperimentConfig:
    if isinstance(config, ExperimentConfig):
        return config
    return load_experiment_config(config)


def run_grid_experiment(config, out_path, threads: int = 1) -> list:
    """Full sweep; writes the row CSV plus timing and summary sidecars."""
    cfg = _as_config(config)
    rows = run_grid_rows(cfg, threads=threads)
    write_rows_csv(rows, out_path)
    write_timings_csv(rows, _sidecar(out_path, "timings"))
    write_summary_csv(summarize(rows), _sidecar(out_path, "summary"))
    return rows


def run_convergence_experiment(config, out_path, threads: int = 1) -> list:
    """Sweep plus per-estimator log-log slope fit over the sample sizes."""
    cfg = _as_config(config)
    sizes = sorted(set(cfg.sample_sizes))
    if len(sizes) < 3 or sizes[-1] < 10 * sizes[0]:
        raise InputError("convergence experiment needs >= 3 distinct sample "
                         "sizes spanning at least one decade, got "
                         f"{list(cfg.sample_sizes)}")
    rows = run_grid_rows(cfg, threads=threads)
    summary = summarize(rows)
    slopes = fit_convergence_slopes(summary)
    write_rows_csv(rows, out_path)
    write_timings_csv(rows, _sidecar(out_path, "timings"))
    write_summary_csv(summary, _sidecar(out_path, "summary"))
    write_slopes_csv(slopes, _sidecar(out_path, "slopes"))
    return slopes


# ======================================================================
# plotting
# ======================================================================

def read_summary_csv(path) -> list:
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise InputError(f"{path}: empty file") from None
    if header != SUMMARY_HEADER:
        raise InputError(f"{path}: line 1: expected header "
                         f"{','.join(SUMMARY_HEADER)!r}")
    out = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(SUMMARY_HEADER):
            raise InputError(f"{path}: line {lineno}: expected "
                             f"{len(SUMMARY_HEADER)} fields, got {len(row)}")
        try:
            out.append(SummaryRow(row[0], row[1], int(row[2]), int(row[3]),
                                  row[4], float(row[5]), int(row[6])))
        except ValueError as exc:
            raise InputError(f"{path}: line {lineno}: {exc}") from None
    return out


def emit_plot(csv_path, x_field: str = "M", log_x: bool = False,
              log_y: bool = False, title: str = "") -> str:
    """Render best-hyperparameter error curves from a summary CSV as SVG."""
    if x_field not in ("M", "d"):
        raise InputError(f"x_field must be 'M' or 'd', got {x_field!r}")
    summary = read_summary_csv(csv_path)
    other = "d" if x_field == "M" else "M"
    n_other = len({getattr(s, other) for s in summary})
    series = {}
    for s in summary:
        name = s.estimator if n_other <= 1 \
            else f"{s.estimator} {other}={getattr(s, other)}"
        if name not in series:
            series[name] = []
        if math.isfinite(s.median_error):
            series[name].append((float(getattr(s, x_field)), s.median_error))
    plot_series = [(name, sorted(pts)) for name, pts in series.items()]
    return render_line_chart(plot_series, title=title, x_label=x_field,
                             y_label="median normalized error",
                             log_x=log_x, log_y=log_y)
