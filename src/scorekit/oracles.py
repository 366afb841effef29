"""Synthetic ground truth: Gaussian mixtures with analytic scores, seeded
sampling, the median-distance bandwidth heuristic, and the normalized
squared-error metric used by the benchmark harness.

Every randomized routine is a pure function of (inputs, seed).
"""

import contextlib
import csv
import io
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist
from scipy.special import logsumexp, softmax

from .atomic import atomic_open, read_text
from .errors import DegenerateDataError, InputError
from .kernels import as_samples


# ======================================================================
# mixture distributions
# ======================================================================

@dataclass(frozen=True)
class MixtureDistribution:
    """Gaussian mixture with shared isotropic covariance scale^2 I."""

    means: np.ndarray      # (K, d)
    weights: np.ndarray    # (K,) simplex
    scale: float = 1.0

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        weights = np.asarray(self.weights, dtype=np.float64).ravel()
        if means.ndim != 2 or not np.all(np.isfinite(means)):
            raise InputError("means must be a finite K x d matrix")
        if weights.shape != (means.shape[0],):
            raise InputError(f"need one weight per component, got "
                             f"{weights.shape[0]} for {means.shape[0]}")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise InputError("weights must be nonnegative and sum to 1")
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise InputError(f"scale must be positive, got {self.scale!r}")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "scale", float(self.scale))

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]


def standard_gaussian(d: int) -> MixtureDistribution:
    """Single N(0, I_d) component."""
    return MixtureDistribution(np.zeros((1, d)), np.ones(1))


def make_grid_distribution(d: int, seed: int) -> MixtureDistribution:
    """Equal-weight mixture of d unit Gaussians at d distinct 0/1 vertices.

    Vertices are drawn without replacement from {0,1}^d by the seeded
    generator, so the same seed always yields the same means.
    """
    if d < 1:
        raise InputError(f"d must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    if d <= 20:
        codes = rng.choice(2 ** d, size=d, replace=False)
        means = (codes[:, None] >> np.arange(d)[None, :]) & 1
    else:
        # collision chance is ~d^2 / 2^d, vanishing for d > 20; resample
        # any duplicates until all d vertices are distinct
        means = rng.integers(0, 2, size=(d, d))
        while True:
            _, idx = np.unique(means, axis=0, return_index=True)
            if idx.size == d:
                break
            keep = np.zeros(d, dtype=bool)
            keep[idx] = True
            means[~keep] = rng.integers(0, 2, size=(int((~keep).sum()), d))
    return MixtureDistribution(means.astype(np.float64), np.full(d, 1.0 / d))


# ======================================================================
# analytic density and score
# ======================================================================

def _component_logliks(dist: MixtureDistribution, X: np.ndarray) -> np.ndarray:
    # (Q, K) matrix of log w_k + log N(x_q; mu_k, s^2 I)
    d = dist.dim
    s2 = dist.scale ** 2
    sq = np.square(X[:, None, :] - dist.means[None, :, :]).sum(-1)
    const = -0.5 * d * np.log(2.0 * np.pi * s2)
    w = dist.weights
    logw = np.full_like(w, -np.inf)
    np.log(w, out=logw, where=w > 0)
    return logw[None, :] - sq / (2.0 * s2) + const


def log_density(dist: MixtureDistribution, x) -> float:
    """log p(x) of the mixture (normalized)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape != (dist.dim,):
        raise InputError(f"x must have shape ({dist.dim},), got {x.shape}")
    return float(logsumexp(_component_logliks(dist, x[None, :])[0]))


def score_batch(dist: MixtureDistribution, X) -> np.ndarray:
    """Analytic grad log p at each row of X; shape (Q, d)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != dist.dim:
        raise InputError(f"queries must have {dist.dim} columns, got {X.shape[1]}")
    if not np.all(np.isfinite(X)):
        raise InputError("queries must be finite")
    resp = softmax(_component_logliks(dist, X), axis=1)
    return (resp @ dist.means - X) / dist.scale ** 2


def true_score(dist: MixtureDistribution, x) -> np.ndarray:
    """Analytic score s_p(x) = grad log p(x) as a d-vector."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape != (dist.dim,):
        raise InputError(f"x must have shape ({dist.dim},), got {x.shape}")
    return score_batch(dist, x[None, :])[0]


class OracleScore:
    """Adapter exposing the analytic score through the predict() interface."""

    def __init__(self, dist: MixtureDistribution):
        self.dist = dist

    def predict(self, queries) -> np.ndarray:
        return score_batch(self.dist, queries)


# ======================================================================
# sampling and bandwidth
# ======================================================================

def sample(dist: MixtureDistribution, M: int, seed: int) -> np.ndarray:
    """Draw M i.i.d. samples: component by weight, then the Gaussian draw."""
    if M < 1:
        raise InputError(f"M must be >= 1, got {M}")
    rng = np.random.default_rng(seed)
    comp = rng.choice(dist.n_components, size=M, p=dist.weights)
    noise = rng.standard_normal((M, dist.dim)) * dist.scale
    return dist.means[comp] + noise


def median_bandwidth(samples) -> float:
    """Median of all M(M-1)/2 pairwise Euclidean distances."""
    X = as_samples(samples)
    if X.shape[0] < 2:
        raise InputError("median_bandwidth needs at least 2 samples")
    med = float(np.median(pdist(X)))
    if med <= 0.0:
        raise DegenerateDataError("all samples coincide; bandwidth undefined")
    return med


# ======================================================================
# error metric
# ======================================================================

@dataclass(frozen=True)
class ErrorReport:
    """Normalized squared error E||s_p - s_hat||^2 / d across seeds."""

    per_seed: np.ndarray
    median: float
    std: float

    @property
    def value(self) -> float:
        return self.median


def normalized_error(est, dist: MixtureDistribution, n_eval: int = 1024,
                     seed=0) -> ErrorReport:
    """Mean of ||s_p(x) - s_hat(x)||^2 / d over fresh evaluation samples.

    seed may be a single int or a sequence; one evaluation set is drawn
    per seed and the report aggregates the per-seed means.
    """
    seeds = [int(seed)] if np.isscalar(seed) else [int(s) for s in seed]
    if not seeds:
        raise InputError("need at least one evaluation seed")
    vals = []
    for s in seeds:
        Q = sample(dist, n_eval, s)
        diff = score_batch(dist, Q) - np.asarray(est.predict(Q), dtype=np.float64)
        vals.append(float(np.mean(np.square(diff).sum(axis=1)) / dist.dim))
    per_seed = np.asarray(vals)
    return ErrorReport(per_seed, float(np.median(per_seed)), float(np.std(per_seed)))


# ======================================================================
# CSV sample exchange
# ======================================================================

def save_samples_csv(samples, path) -> None:
    """Write samples with an x1..xd header and 17-significant-digit floats,
    in csv.writer's bytes (no field needs a quote) as one string."""
    X = as_samples(samples)
    M, d = X.shape
    text = ",".join(f"x{i + 1}" for i in range(d)) + "\r\n" + (
        ",".join(["%.17g"] * d) + "\r\n") * M % tuple(X.ravel().tolist())
    with atomic_open(path, "w", newline="") as f:
        f.write(text)


def load_samples_csv(path) -> np.ndarray:
    """Read a sample matrix written by save_samples_csv: np.loadtxt parses
    a file free of quotes, '#' and blank lines, and the line reader every
    other file and any np.loadtxt rejects, wording every error."""
    text = read_text(path)
    head, _, body = text.partition("\n")
    d = head.count(",") + 1
    if (head.removesuffix("\r") == ",".join(f"x{i + 1}" for i in range(d))
            and body[:1] not in ("", "\n", "\r")
            and not any(s in body for s in ('"', "#", "\n\n", "\n\r"))):
        with contextlib.suppress(ValueError):
            X = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
            if X.shape[1] == d:
                return as_samples(X)
    reader = csv.reader(io.StringIO(text, newline=""))
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
