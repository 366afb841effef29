"""Synthetic ground truth: Gaussian mixtures with analytic scores, seeded
sampling, the median-distance bandwidth heuristic, and the normalized
squared-error metric used by the benchmark harness.

Every randomized routine is a pure function of (inputs, seed).
"""

import contextlib
import io
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open, read_csv_records, read_text
from .errors import DegenerateDataError, InputError
from .kernels import _as_queries, _as_vector, as_samples, sq_dists


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
    # (Q, K) matrix of log w_k + log N(x_q; mu_k, s^2 I); sq_dists takes the
    # distances from one GEMM, so no (Q, K, d) difference array is formed
    d = dist.dim
    s2 = dist.scale ** 2
    sq = sq_dists(X, dist.means)
    const = -0.5 * d * np.log(2.0 * np.pi * s2)
    w = dist.weights
    logw = np.full_like(w, -np.inf)
    np.log(w, out=logw, where=w > 0)
    return logw[None, :] - sq / (2.0 * s2) + const


def log_density(dist: MixtureDistribution, x) -> float:
    """log p(x) of the mixture (normalized)."""
    # imported here: no sweep, CLI call or prediction needs it, and
    # scipy.special would add 40-80 ms to every import of the package
    from scipy.special import logsumexp

    x = _as_vector(np.ravel(x), dist.dim, "x")
    return float(logsumexp(_component_logliks(dist, x[None, :])[0]))


def score_batch(dist: MixtureDistribution, X) -> np.ndarray:
    """Analytic grad log p at each row of X; shape (Q, d)."""
    X = _as_queries(np.atleast_2d(X), dist.dim)
    # the responsibilities, in place, as scipy.special.softmax computes them:
    # exp(L - max L) over its row sum
    resp = _component_logliks(dist, X)
    resp -= resp.max(axis=1, keepdims=True)
    np.exp(resp, out=resp)
    resp /= resp.sum(axis=1, keepdims=True)
    return (resp @ dist.means - X) / dist.scale ** 2


def true_score(dist: MixtureDistribution, x) -> np.ndarray:
    """Analytic score s_p(x) = grad log p(x) as a d-vector."""
    x = _as_vector(np.ravel(x), dist.dim, "x")
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


# pairs in one block of _pair_sq_dists's rows (two buffers of 256 KB)
_PAIR_BLOCK = 2 ** 15


def _pair_sq_dists(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances of all pairs i < j of rows of X, in
    scipy's condensed order (row i holds the pairs (i, j > i)) and in the
    bits of scipy.spatial.distance.pdist(X, "sqeuclidean"): each sum adds
    (x_ic - x_jc)^2 over the columns c in order, as pdist's loop does.

    Rows go in blocks of about _PAIR_BLOCK pairs. A block of b rows from
    row i is summed column by column over the b x (M-1-i) rectangle of
    pairs (i.., j > i), and its upper triangle is copied out.
    """
    M, d = X.shape
    cols = np.ascontiguousarray(X.T)
    out = np.empty(M * (M - 1) // 2)
    buf = np.empty((2, max(_PAIR_BLOCK, M - 1)))
    i = pos = 0
    while i < M - 1:
        n = M - 1 - i
        b = min(n, max(1, _PAIR_BLOCK // n))
        total, term = buf[:, :b * n].reshape(2, b, n)
        for c in range(d):
            part = total if c == 0 else term
            np.subtract(cols[c, i:i + b, None], cols[c, None, i + 1:], out=part)
            np.multiply(part, part, out=part)
            if c:
                total += term
        # pair (i + r, i + 1 + k) of the rectangle is in the triangle iff k >= r
        count = b * n - b * (b - 1) // 2
        np.compress((np.arange(n) >= np.arange(b)[:, None]).ravel(), total.ravel(),
                    out=out[pos:pos + count])
        pos, i = pos + count, i + b
    return out


def median_bandwidth(samples) -> float:
    """Median of all M(M-1)/2 pairwise Euclidean distances, equal bit for
    bit to float(np.median(scipy.spatial.distance.pdist(X))).

    sqrt keeps order, so the median is selected in place among the squared
    distances (no second M(M-1)/2 array), and only the one or two middle
    values are square-rooted; two are averaged as np.median averages them.
    One partition at k leaves the k-th smallest at k and the (k-1)-th as the
    largest before it, which costs half of np.median's partition at [k-1, k].
    """
    X = as_samples(samples)
    if X.shape[0] < 2:
        raise InputError("median_bandwidth needs at least 2 samples")
    sq = _pair_sq_dists(X)
    k = sq.size // 2
    sq.partition(k)
    med = float(np.sqrt(sq[k]) if sq.size % 2
                else (np.sqrt(sq[:k].max()) + np.sqrt(sq[k])) / 2)
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

def _header(d) -> str:
    return ",".join(f"x{i + 1}" for i in range(d))


def save_samples_csv(samples, path) -> None:
    """Write samples with an x1..xd header and 17-significant-digit floats,
    in csv.writer's bytes (no field needs a quote) as one string."""
    X = as_samples(samples)
    M, d = X.shape
    text = _header(d) + "\r\n" + (
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
    if (head.removesuffix("\r") == _header(d)
            and body[:1] not in ("", "\n", "\r")
            and not any(s in body for s in ('"', "#", "\n\n", "\n\r"))):
        with contextlib.suppress(ValueError):
            X = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
            if X.shape[1] == d:
                return as_samples(X)
    # a header of n fields joins to _header(n) only if no field holds a comma
    rows = read_csv_records(text, path, lambda h: None if ",".join(h) == _header(len(h))
                            else f"expected header {_header(len(h))!r}, got {','.join(h)!r}",
                            lambda r: [float(v) for v in r])
    if not rows:
        raise InputError(f"{path}: no sample rows")
    return as_samples(np.asarray(rows))
