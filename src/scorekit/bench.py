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
Q, the true scores at Q, the median bandwidth, one Gram per kernel spec
(in the form assemble_gram picks) with its h and eigensystem, the radial
tables K(Q, B) from one sq_dists per spec and basis B (the samples, with
zeta(Q), or a Nystrom subset), and the lam-independent Nystrom blocks. These
shared values come from the same calls on the same arrays, so sharing them
changes no row. The curl-free Tikhonov and Tikhonov-CG grids and the
nu-method path are different. One KrylovBasis of K and h, over the Gram of
either form, serves all three where two or more solves read it: each
Tikhonov fit is handed the basis and makes its own start, its Galerkin
solution at the first step whose residual estimate meets
estimators._start_tol, each Tikhonov-CG cell returns its Galerkin iterate
at the first step whose estimate meets the cell's tol and checks it with
one Gram product, and the nu-method recursion runs on its tridiagonal
matrix where it spans the iterates. Every Tikhonov fit meets one residual,
1e-10: solve_spd checks a dense start with one Gram product, returns it if
it meets 1e-10 and factors the shifted Gram otherwise; CG checks a
matrix-free start and iterates on if it falls short. Those rows
differ from independent solves and the direct recursion in their last
digits (on the benchmark workloads, under 1e-5 relative for tikhonov and
1e-11 for nu_method) while each still meets its residual tolerance. The
Galerkin iterate is CG's iterate in exact arithmetic; in floating point
the two are different solutions within the loose tol, and where lam is
small (1e-5 and below on highdim-sweep) their rows differ by up to 1e-2
relative. A Tikhonov-CG cell runs CG when the basis ends short of its tol
and max_iter, or its true residual misses the tol that the estimate met.
Shared work is timed in the fit_ms or predict_ms of the first cell that
needs it, so a `.timings.csv` row is not the cost of that cell alone.

Each estimator id is one REGISTRY entry: its config keys, its one-point
fit over a _Problem's shared Gram and Nystrom blocks, and for landweber
and nu_method the snapshot path the sweep runs. `scorekit fit` calls the
same one-point fit on a one-point problem, which builds no basis, so it
returns what the public fit returns. One loop (_fit_cells) times
every fit of the sweep and records a contract error (InputError,
NumericError or MemoryError: a bad lambda, a singular subset, CG running
out of iterations) as a row with error = nan and the exception text in the
reason column; any other exception is a bug and aborts the sweep. Snapshot
rows share their run's fit time or failure.
"""

import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open, read_csv_records, read_text
from .errors import InputError, NumericError
from .estimators import (
    TruncatedTikhonov,
    _start_tol,
    _subset_building_blocks,
    fit_landweber,
    fit_nu_method,
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
    MatrixKernelSpec,
    ScalarRadialKernel,
    _dense_budget,
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
from .spectral_linalg import _shift_targets, lanczos
from .svgplot import render_line_chart

SCHEMA_VERSION = 1

# defaults for the hyperparameter search
LAMBDA_GRID = tuple(10.0 ** -k for k in range(0, 9))
ITERATION_GRID = tuple(range(20, 101, 10))
FRACTION_GRID = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)

# the most vectors a problem's Krylov basis holds
_KRYLOV_MAX_DIM = 800

# the Krylov space counts as invariant once beta_k <= this * tr K (>= ||K||_2,
# K PSD): Md / sigma^2, each curl-free diagonal entry being -2 phi'(0) = 1 / sigma^2
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

# Every JSON file kind scorekit reads: its required keys and its optional
# ones. Each kind but the mixture file also holds schema_version.
_FILE_KEYS = {
    "sweep": (("distribution", "dimensions", "sample_sizes", "seeds", "estimators"),
              ("mixture_file", "eval_size", "distribution_seed")),
    "fit": (("samples", "estimator"), ()),
    "predict": (("estimator", "queries"), ()),
    "plot": (("input",), ("x", "log_x", "log_y", "title")),
    "mixture file": (("means", "weights"), ("scale",)),
}


def _check_keys(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise InputError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def read_config(kind: str, data=None, path=None) -> dict:
    """The root of the JSON file of kind (a _FILE_KEYS key) at path, or data
    if path is None: an object with every required key, no key beyond the
    kind's and, but in a mixture file, schema_version SCHEMA_VERSION. Its
    errors name the file, but for schema_version's, the same for an object."""
    if path is not None:
        try:
            data = json.loads(read_text(path))
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from None
    versioned = kind != "mixture file"
    where = ("" if path is None else f"{path}: ") + ("config" if versioned else kind)
    if not isinstance(data, dict):
        raise InputError(f"{where} root must be an object")
    required, optional = _FILE_KEYS[kind]
    _check_keys(data, required + optional + ("schema_version",) * versioned, where)
    if versioned and data.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"config: 'schema_version' must be {SCHEMA_VERSION}, "
                         f"got {data.get('schema_version')!r}")
    missing = [key for key in required if key not in data]
    if missing:
        raise InputError(f"{where}: missing required key(s) {', '.join(map(repr, missing))}")
    return data


def _config_path(data, key, base_dir) -> str:
    """The file named under config key, relative to base_dir (the config's
    folder)."""
    if not isinstance(data[key], str) or not data[key]:
        raise InputError(f"config.{key}: expected a file path string")
    return os.path.join(base_dir, data[key])


def _numbers(v, where, kind=float, low=0.0, high=math.inf, closed=False, single=False,
             repeats=False):
    """The numbers of v, a non-empty list (of distinct values unless repeats)
    or one value: ints in [low, high] (kind int), or finite floats in (low, high],
    [low, high] if closed. single returns one value and refuses any list."""
    if single and isinstance(v, list):
        raise InputError(f"{where}: expected a single number")
    out = []
    for x in v if isinstance(v, list) else [v]:
        if kind is int:
            if isinstance(x, bool) or not isinstance(x, int) or not low <= x <= high:
                raise InputError(f"{where}: expected integer(s) in [{low}, {high}], got {x!r}")
        elif isinstance(x, bool) or not isinstance(x, (int, float)) \
                or not abs(x) <= sys.float_info.max:  # nan, inf, an int past the floats
            raise InputError(f"{where}: expected finite number(s), got {x!r}")
        elif not low <= x <= high or (x == low and not closed):
            raise InputError(f"{where}: value {float(x)!r} out of range")
        out.append(kind(x))
    if not out:
        raise InputError(f"{where}: list must be non-empty")
    if not repeats and len(set(out)) < len(out):
        raise InputError(f"{where}: values must be distinct, got {v!r}")
    return out[0] if single else tuple(out)


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
    eta: float = None              # None: the automatic step size
    subset: object = 0.5           # Nystrom subset: a size (int) or a fraction of M


_COMMON_KEYS = ("id", "kind", "family", "bandwidth")


def _parse_estimator(obj, where: str) -> EstimatorEntry:
    if not isinstance(obj, dict):
        raise InputError(f"{where}: estimator entries must be objects")
    eid = obj.get("id")
    if eid not in REGISTRY:
        raise InputError(f"{where}: 'id' must be one of {', '.join(REGISTRY)}, "
                         f"got {eid!r}")
    how = REGISTRY[eid]
    if how.fit is None:  # the oracle: the true score, no kernel
        _check_keys(obj, ("id",), where)
        return EstimatorEntry(id=eid, kind="-", grid=(("-", {}),))
    _check_keys(obj, _COMMON_KEYS + how.keys, where)

    kind = obj.get("kind")
    if kind not in ("diagonal", "curl_free"):
        raise InputError(f"{where}: 'kind' must be 'diagonal' or 'curl_free', "
                         f"got {kind!r}")
    family = obj.get("family", "imq")
    if family not in ("imq", "gaussian"):
        raise InputError(f"{where}: 'family' must be 'imq' or 'gaussian'")
    bandwidth = obj.get("bandwidth", "median")
    if bandwidth != "median":
        bandwidth = _numbers(bandwidth, f"{where}.bandwidth", single=True)

    kw, key_of = {}, {}
    for key in (k for k in how.keys if k in obj):
        field, parse = _KEY_FIELDS[key]
        if field in key_of:
            raise InputError(f"{where}: give either {key_of[field]!r} or {key!r}, not both")
        key_of[field] = key
        kw[field] = parse(obj[key], f"{where}.{key}")
    if "grid" not in kw:
        key = next(k for k in how.keys if k in _GRID_DEFAULTS)
        kw["grid"] = _KEY_FIELDS[key][1](list(_GRID_DEFAULTS[key]), f"{where}.{key}")
    return EstimatorEntry(id=eid, kind=kind, family=family, bandwidth=bandwidth, **kw)


def _grid(name, values) -> tuple:
    return tuple((f"{name}={_glabel(v)}", {name: v}) for v in values)


# Each key an estimator block may hold beside id, kind, family and bandwidth:
# the EstimatorEntry field it sets and its parse(value, where). Two keys of
# one field are alternatives. A block without a grid key gets its id's first
# one at _GRID_DEFAULTS; any other key left out keeps its field's default.
_KEY_FIELDS = {
    "lambdas": ("grid", lambda v, w: _grid("lam", _numbers(v, w))),
    "fractions": ("grid", lambda v, w: _grid("fraction", _numbers(v, w, high=1.0))),
    "iterations": ("grid", lambda v, w: _grid("t", _numbers(v, w, int, 1))),
    "tol": ("tol", lambda v, w: _numbers(v, w, single=True)),
    "max_iter": ("max_iter", lambda v, w: _numbers(v, w, int, 1, single=True)),
    "eta": ("eta", lambda v, w: _numbers(v, w, single=True)),
    "nu": ("nu", lambda v, w: _numbers(v, w, low=1.0, closed=True, single=True)),
    "subset_size": ("subset", lambda v, w: _numbers(v, w, int, 1, single=True)),
    "subset_fraction": ("subset", lambda v, w: _numbers(v, w, high=1.0, single=True)),
}
_GRID_DEFAULTS = {"lambdas": LAMBDA_GRID, "fractions": FRACTION_GRID,
                  "iterations": ITERATION_GRID}


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


# The numeric keys of a sweep config, all integers: (lower bound, upper bound,
# single value); a key left out keeps its ExperimentConfig default. A size <=
# _MAX_SIZE keeps an array of two sizes (M x d, eval_size x M, ...) under 2**59
# bytes, so a sweep too big for memory fails its rows with MemoryError, not
# numpy's OverflowError or ValueError on the shape.
_MAX_SIZE = 2 ** 28
_SWEEP_INTS = {"dimensions": (1, _MAX_SIZE, False), "sample_sizes": (1, _MAX_SIZE, False),
               "seeds": (0, math.inf, False), "eval_size": (1, _MAX_SIZE, True),
               "distribution_seed": (0, math.inf, True)}


def parse_experiment_config(data, base_dir: str = ".", _path=None) -> ExperimentConfig:
    """Validate a parsed config object, or the JSON file at _path. Unknown
    keys are hard errors."""
    data = read_config("sweep", data, _path)
    dist = data["distribution"]
    if dist not in ("grid", "gaussian", "mixture"):
        raise InputError("config: 'distribution' must be 'grid', 'gaussian' "
                         f"or 'mixture', got {dist!r}")
    if ("mixture_file" in data) != (dist == "mixture"):
        raise InputError("config: 'mixture_file' is given exactly when "
                         "distribution is 'mixture'")
    nums = {key: _numbers(data[key], f"config.{key}", int, low, high, single=single)
            for key, (low, high, single) in _SWEEP_INTS.items() if key in data}
    mixture = None
    if dist == "mixture":
        mixture = load_mixture_file(_config_path(data, "mixture_file", base_dir))
        if any(d != mixture.dim for d in nums["dimensions"]):
            raise InputError(f"config.dimensions: mixture file has d={mixture.dim}; "
                             f"all dimensions must equal it")

    raw_ests = data["estimators"]
    if not isinstance(raw_ests, list) or not raw_ests:
        raise InputError("config: 'estimators' must be a non-empty list")
    entries = tuple(_parse_estimator(e, f"config.estimators[{i}]")
                    for i, e in enumerate(raw_ests))
    ids = [e.id for e in entries]
    if len(set(ids)) != len(ids):
        raise InputError("config.estimators: estimator ids must be unique")
    return ExperimentConfig(distribution=dist, estimators=entries, mixture=mixture, **nums)


def load_experiment_config(path) -> ExperimentConfig:
    return parse_experiment_config(None, os.path.dirname(str(path)), _path=path)


def load_mixture_file(path) -> MixtureDistribution:
    """JSON mixture description: means (list of rows), weights, scale."""
    data = read_config("mixture file", path=path)
    means = data["means"]
    rows = means if isinstance(means, list) and means and isinstance(means[0], list) else [means]
    try:
        return MixtureDistribution(
            np.asarray([_numbers(r, "means", low=-math.inf, repeats=True) for r in rows]),
            np.asarray(_numbers(data["weights"], "weights", closed=True, repeats=True)),
            scale=_numbers(data.get("scale", 1.0), "scale", single=True))
    except (InputError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None


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


@np.errstate(over="ignore", invalid="ignore")
def _mean_error(truth: np.ndarray, pred: np.ndarray, d: int) -> float:
    err = float(np.mean(np.square(truth - pred).sum(axis=1)) / d)
    if not math.isfinite(err):  # a finite prediction far off the truth: a nan row
        raise NumericError("the mean squared error overflows a double")
    return err


class _Problem:
    """The work the fits of samples X share across the estimator entries:
    a (d, M, seed) problem of the sweep, or the one entry of `scorekit fit`.
    seed draws the Nystrom subsets. The bandwidth, Grams, query tables,
    Krylov bases and Nystrom blocks are built when a cell first needs them,
    inside that cell's timing.
    """

    def __init__(self, X: np.ndarray, entries, seed: int):
        self.X, self.entries, self.seed = X, entries, seed
        self.M, self.d = X.shape
        self._shared = {}

    def _once(self, key, build):
        # a failed build is not stored: the next cell retries and fails alike
        if key not in self._shared:
            self._shared[key] = build()
        return self._shared[key]

    def spec(self, entry: EstimatorEntry) -> MatrixKernelSpec:
        bw = entry.bandwidth
        if bw == "median":
            bw = self._once("bandwidth", lambda: median_bandwidth(self.X))
        return MatrixKernelSpec(entry.kind, ScalarRadialKernel(entry.family, bw))

    def gram(self, spec: MatrixKernelSpec):
        return self._once(("gram", spec), lambda: assemble_gram(spec, self.X))

    def krylov(self, spec: MatrixKernelSpec):
        """The KrylovBasis of a curl-free spec's Gram, of either form,
        started at h, that the spec's curl-free entries read: one solve per
        tikhonov or tikhonov_cg grid point, one per nu_method entry with
        t_max > 1. None for a diagonal spec, for fewer than two solves (so
        `scorekit fit` gets the public fit) or if the run fails, and then
        every reader solves without it. The basis stops at invariance, at
        its cap, or once it holds the nu-method's t_max - 1 vectors and
        every shift M lam has met its target (a tikhonov one the estimate
        fit_tikhonov's start aims at, estimators._start_tol, a tikhonov_cg
        one its entry's tol, unless the basis holds its max_iter vectors).
        The cap is _KRYLOV_MAX_DIM vectors and no more bytes than
        kernels._dense_budget(), the largest Gram kernels keeps dense by
        choice. Each reader takes the leading part it needs, so its rows do
        not depend on the other entries.
        """
        def shares(e):  # an entry whose kernel cannot be built shares no basis
            try:
                return e.kind == "curl_free" and self.spec(e) == spec
            except _CONTRACT_ERRORS:
                return False

        def build():
            gram, t_max, shifts, targets, caps = self.gram(spec), 1, [], [], []
            for e in filter(shares, self.entries):
                if e.id == "nu_method":
                    t_max = max(p["t"] for _, p in e.grid)
                elif e.id in ("tikhonov", "tikhonov_cg"):
                    start, n = e.id == "tikhonov", len(e.grid)
                    shifts += [self.M * p["lam"] for _, p in e.grid]
                    targets += [_start_tol(gram) if start else e.tol] * n
                    caps += [math.inf if start else e.max_iter] * n
            if len(shifts) + (t_max > 1) < 2:
                return None
            stop = _shift_targets(shifts, targets, t_max - 1, caps)
            max_dim = min(_KRYLOV_MAX_DIM, _dense_budget() // (8 * gram.dim))
            tol = _KRYLOV_INVARIANT_REL * (gram.dim / spec.scalar.bandwidth ** 2)
            try:
                return lanczos(gram, gram.divergence(), max_dim, tol, stop=stop)
            except _CONTRACT_ERRORS:
                return None
        return None if spec.kind != "curl_free" else self._once(("krylov", spec), build)


# ======================================================================
# the estimator registry
# ======================================================================

@dataclass(frozen=True)
class EstimatorDef:
    """What one estimator id means. Its callables call the public fits by
    their module-global names, so a tracer or test that swaps one sees it."""

    keys: tuple          # its config keys beside _COMMON_KEYS, of _KEY_FIELDS
    fit: object          # (problem, entry, spec, i) -> fit at grid point i
    path: object = None  # (problem, entry, spec, ts) -> fits at each t, from one run


def _fit_spectral_cutoff(problem, entry, spec, i):
    params, gram = entry.grid[i][1], problem.gram(spec)
    if "lam" in params:
        return fit_spectral_cutoff(problem.X, spec, lam=params["lam"], gram=gram)
    # a fraction of the M sample directions, as a rank in the Md spectrum
    rank = max(1, int(round(params["fraction"] * problem.M))) * problem.d
    return fit_spectral_cutoff(problem.X, spec, rank=rank, gram=gram)


def _nu_method_path(problem, entry, spec, ts):
    return nu_method_path(problem.X, spec, ts, nu=entry.nu, gram=problem.gram(spec),
                          _krylov=problem.krylov(spec))


def _fit_nystrom(problem, entry, spec, i):
    M, d, subset = problem.M, problem.d, entry.subset
    size = min(subset if isinstance(subset, int) else max(1, int(round(subset * M))), M)
    rng = np.random.default_rng(np.random.SeedSequence(problem.seed, spawn_key=(3, d, M)))
    idx = np.sort(rng.choice(M, size=size, replace=False))
    blocks = problem._once(("nystrom", spec, idx.tobytes()),
                           lambda: _subset_building_blocks(problem.X, idx, spec))
    return fit_nystrom(problem.X, idx, spec, TruncatedTikhonov(entry.grid[i][1]["lam"]),
                       _blocks=blocks)


REGISTRY = {
    "tikhonov": EstimatorDef(
        ("lambdas",),
        lambda p, e, spec, i: fit_tikhonov(
            p.X, spec, e.grid[i][1]["lam"], gram=p.gram(spec), _krylov=p.krylov(spec))),
    "tikhonov_cg": EstimatorDef(
        ("lambdas", "tol", "max_iter"),
        lambda p, e, spec, i: fit_tikhonov_cg(
            p.X, spec, e.grid[i][1]["lam"], tol=e.tol, max_iter=e.max_iter,
            gram=p.gram(spec), _krylov=p.krylov(spec))),
    "truncated_tikhonov": EstimatorDef(
        ("lambdas",),
        lambda p, e, spec, i: fit_truncated_tikhonov(
            p.X, spec, e.grid[i][1]["lam"], gram=p.gram(spec))),
    "spectral_cutoff": EstimatorDef(
        ("fractions", "lambdas"), _fit_spectral_cutoff),
    "landweber": EstimatorDef(
        ("iterations", "eta"),
        lambda p, e, spec, i: fit_landweber(
            p.X, spec, eta=e.eta, t=e.grid[i][1]["t"], gram=p.gram(spec)),
        path=lambda p, e, spec, ts: landweber_path(
            p.X, spec, ts, eta=e.eta, gram=p.gram(spec))),
    "nu_method": EstimatorDef(
        ("iterations", "nu"),
        lambda p, e, spec, i: fit_nu_method(
            p.X, spec, nu=e.nu, t=e.grid[i][1]["t"], gram=p.gram(spec)),
        path=_nu_method_path),
    "nystrom": EstimatorDef(
        ("lambdas", "subset_size", "subset_fraction"), _fit_nystrom),
    "oracle": EstimatorDef((), None),
}


# ======================================================================
# the sweep
# ======================================================================

def _fit_cells(entry: EstimatorEntry, problem: _Problem, spec: MatrixKernelSpec):
    """Fit every grid point of one entry on one problem.

    Yields (grid index, cell, estimator or None) as each fit completes, so
    the caller can predict and drop it before the next fit. A path scheme
    snapshots every t of its grid from one run.
    """
    how = REGISTRY[entry.id]
    if how.path is None:
        for i in range(len(entry.grid)):
            t0, est, reason = _now_ms(), None, ""
            try:
                est = how.fit(problem, entry, spec, i)
            except _CONTRACT_ERRORS as exc:
                reason = _reason(exc)
            yield i, _Cell(reason=reason, fit_ms=_now_ms() - t0), est
        return
    ts = sorted(params["t"] for _, params in entry.grid)  # distinct (_numbers)
    t0, reason = _now_ms(), ""
    try:
        path = how.path(problem, entry, spec, ts)
    except _CONTRACT_ERRORS as exc:
        path, reason = [None] * len(ts), _reason(exc)
    ms = _now_ms() - t0
    by_t = dict(zip(ts, path))
    for i, (_, params) in enumerate(entry.grid):
        yield i, _Cell(reason=reason, fit_ms=ms), by_t[params["t"]]


def _run_cell_group(problem: _Problem, entry: EstimatorEntry, dist, Q, truth) -> list:
    if entry.id == "oracle":
        t0 = _now_ms()
        pred = OracleScore(dist).predict(Q)
        return [_Cell(error=_mean_error(truth, pred, problem.d), predict_ms=_now_ms() - t0)]

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
            idx = est.subset_indices  # one entry per basis: the samples, or a subset (a = 0)
            shared = problem._once(("query", spec, None if idx is None else idx.tobytes()),
                                   lambda: query_tables(spec, Q, est.basis, zeta=idx is None))
            pred = predict(est, Q, _shared=shared)
            cell.error = _mean_error(truth, pred, problem.d)
        except _CONTRACT_ERRORS as exc:
            cell.reason = _reason(exc)
        cell.predict_ms = _now_ms() - t0
    return cells


def _run_problem(cfg: ExperimentConfig, d: int, M: int, seed: int) -> dict:
    """Cells of every estimator entry on one (d, M, seed) problem, by id."""
    try:
        dist = build_distribution(cfg, d)
        X = sample(dist, M, np.random.SeedSequence(seed, spawn_key=(1, d, M)))
        Q = sample(dist, cfg.eval_size, np.random.SeedSequence(seed, spawn_key=(2, d, M)))
        truth = score_batch(dist, Q)
    except _CONTRACT_ERRORS as exc:
        return {e.id: [_Cell(reason=_reason(exc)) for _ in e.grid]
                for e in cfg.estimators}
    problem = _Problem(X, cfg.estimators, seed)
    return {e.id: _run_cell_group(problem, e, dist, Q, truth) for e in cfg.estimators}


def run_grid_rows(cfg: ExperimentConfig, threads: int = 1) -> list:
    """All ResultRows of the sweep, in canonical config order.

    Problems (d, M, seed) run one at a time, or `threads` at a time.
    """
    problems = [(d, M, seed)
                for d in cfg.dimensions
                for M in cfg.sample_sizes
                for seed in cfg.seeds]
    if threads > 1:
        # only a threaded sweep needs concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

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
    slopes = fit_convergence_slopes(summarize(run_grid_experiment(cfg, out_path, threads)))
    write_slopes_csv(slopes, _sidecar(out_path, "slopes"))
    return slopes


# ======================================================================
# plotting
# ======================================================================

def read_summary_csv(path) -> list:
    return read_csv_records(
        read_text(path), path,
        lambda h: None if tuple(h) == SUMMARY_HEADER
        else f"expected header {','.join(SUMMARY_HEADER)!r}",
        lambda r: SummaryRow(r[0], r[1], int(r[2]), int(r[3]), r[4], float(r[5]), int(r[6])))


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
