"""Synthetic ground truth: Gaussian mixtures with analytic scores, seeded
sampling, the median-distance bandwidth heuristic, and the normalized
squared-error metric used by the benchmark harness.

Every randomized routine is a pure function of (inputs, seed).
"""

import itertools
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


# pairs the d = 1 median enumerates once its bracket holds this few
_GAP_PAIRS = 2 ** 14


def _as_bits(t) -> int:
    return int(np.float64(t).view(np.int64))


def _first_above(s: np.ndarray, t: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row i of the sorted s, the first j in [lo_i, hi_i] with j = hi_i
    or fl(s_j - s_i) > t, by one binary search per row, all rows at once;
    fl(s_j - s_i) grows with j, so the rows' pairs above t are a suffix."""
    last = s.size - 1
    for _ in range(int((hi - lo).max()).bit_length()):
        mid = (lo + hi) >> 1
        ok = (s[np.minimum(mid, last)] - s <= t) & (mid < hi)
        lo = np.where(ok, mid + 1, lo)
        hi = np.where(ok, hi, mid)
    return lo


@np.errstate(over="ignore")
def _middle_gaps(x: np.ndarray) -> tuple:
    """The lower and upper middle (equal for an odd count) of the N =
    M(M-1)/2 gaps fl(s_j - s_i), j > i, of the sorted samples s: the
    distances |fl(x_a - x_b)| of all pairs, as fl(a - b) = -fl(b - a).

    A bracket (t_lo, t_hi] of doubles, held as their bit patterns, which
    order nonnegative doubles as their values, keeps both middles inside
    it; row i's pairs in it are those with j in [a_i, b_i). Each step
    splits it at the weighted median of the rows' middle gaps, so that at
    least a quarter of its pairs leave, counts the pairs at most t by
    _first_above and keeps the side that holds the middles. A bracket of
    one double holds only that value; one of _GAP_PAIRS pairs or fewer is
    enumerated and partitioned.
    """
    s = np.sort(x)
    M = s.size
    N = M * (M - 1) // 2
    k = N // 2
    r = k - 1 + N % 2           # the lower middle's rank
    rows = np.arange(M)
    a, b = rows + 1, np.full(M, M)
    n_lo, n_hi = 0, N           # pairs at most t_lo, at most t_hi
    # -1 is below every gap; + 0.0 turns a largest gap of -0.0 into +0.0
    lo_bits, hi_bits = -1, _as_bits(s[-1] - s[0] + 0.0)
    while n_hi - n_lo > _GAP_PAIRS and hi_bits - lo_bits > 1:
        live = np.flatnonzero(a < b)
        gaps = s[(a[live] + b[live] - 1) >> 1] - s[live]
        order = np.argsort(gaps)
        weight = np.cumsum((b - a)[live][order])
        pivot = gaps[order[np.searchsorted(weight, weight[-1] / 2)]]
        mid = min(max(_as_bits(pivot), lo_bits + 1), hi_bits - 1)
        t = np.int64(mid).view(np.float64)
        c = _first_above(s, t, a, b)
        n = n_lo + int((c - a).sum())
        if n <= r:
            lo_bits, a, n_lo = mid, c, n
        elif n > k:
            hi_bits, b, n_hi = mid, c, n
        else:                   # n = k, N even: the middles straddle t
            below, above = c > rows + 1, c < M
            return ((s[c[below] - 1] - s[below]).max(), (s[c[above]] - s[above]).min())
    if hi_bits - lo_bits <= 1:
        t = np.int64(hi_bits).view(np.float64)
        return t, t
    width = b - a
    gaps = s[np.arange(n_hi - n_lo) + np.repeat(a - (np.cumsum(width) - width), width)]
    gaps -= np.repeat(s, width)
    gaps.partition([r - n_lo, k - n_lo])
    return gaps[r - n_lo], gaps[k - n_lo]


def median_bandwidth(samples) -> float:
    """Median of all M(M-1)/2 pairwise Euclidean distances, equal bit for
    bit to float(np.median(scipy.spatial.distance.pdist(X))).

    sqrt keeps order, so the one or two middle squared distances are
    selected and only they are square-rooted; two are averaged as
    np.median averages them. At d = 1 they are the squares of the middle
    gaps of the sorted samples (_middle_gaps), found in O(M) memory:
    squaring keeps order too, even where it overflows or underflows. At
    d > 1 they are selected in place among _pair_sq_dists (no second
    M(M-1)/2 array): one partition at k leaves the k-th smallest at k and
    the (k-1)-th as the largest before it, which costs half of np.median's
    partition at [k-1, k].
    """
    X = as_samples(samples)
    M, d = X.shape
    if M < 2:
        raise InputError("median_bandwidth needs at least 2 samples")
    odd = M * (M - 1) // 2 % 2
    if d == 1:
        lo, hi = _middle_gaps(X[:, 0])
        with np.errstate(over="ignore"):
            lo, hi = lo * lo, hi * hi
    else:
        sq = _pair_sq_dists(X)
        k = sq.size // 2
        sq.partition(k)
        hi = sq[k]
        lo = hi if odd else sq[:k].max()
    med = float(np.sqrt(hi) if odd else (np.sqrt(lo) + np.sqrt(hi)) / 2)
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


# values in one block of rows that the samples CSV writer formats and the
# reader parses (64 KB as doubles)
_CSV_BLOCK = 2 ** 13


def save_samples_csv(samples, path) -> None:
    """Write samples with an x1..xd header and 17-significant-digit floats,
    in csv.writer's bytes (no field needs a quote). Rows are formatted and
    written in blocks of about _CSV_BLOCK values, so the writer holds one
    block's text and floats beside the samples, whatever their count."""
    X = as_samples(samples)
    M, d = X.shape
    rows = max(1, _CSV_BLOCK // d)
    row = ",".join(["%.17g"] * d) + "\r\n"
    with atomic_open(path, "w", newline="") as f:
        f.write(_header(d) + "\r\n")
        for lo in range(0, M, rows):
            block = X[lo:lo + rows]
            f.write(row * len(block) % tuple(block.ravel().tolist()))


def _line_blocks(f, d):
    """The lines of the binary file f from where it stands, as lists of
    about _CSV_BLOCK values' rows."""
    rows = max(1, _CSV_BLOCK // d)
    while lines := list(itertools.islice(f, rows)):
        yield lines


def _loadtxt_blocks(f, d):
    """The d-column rows after the header line f has just read: a first
    pass checks each block and counts the lines, a second parses each block
    by np.loadtxt into one array. None where the record reader must decide:
    a byte outside ASCII, a quote, a '#', a line that is blank or starts
    with '\\r', no row at all, or a block np.loadtxt refuses or reads to
    another shape."""
    start, n = f.tell(), 0
    for lines in _line_blocks(f, d):
        block = b"".join(lines)
        if (not block.isascii() or b'"' in block or b"#" in block
                or block[:1] in (b"\n", b"\r") or b"\n\n" in block or b"\n\r" in block):
            return None
        n += len(lines)
    if not n:
        return None
    X = np.empty((n, d))
    f.seek(start)
    pos = 0
    for lines in _line_blocks(f, d):
        try:
            Y = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
        if Y.shape != (len(lines), d):
            return None
        X[pos:pos + len(Y)] = Y
        pos += len(Y)
    return X


def load_samples_csv(path) -> np.ndarray:
    """Read a sample matrix written by save_samples_csv. A file of ASCII
    rows free of quotes, '#' and blank lines is read in blocks of about
    _CSV_BLOCK values and parsed by np.loadtxt into the result, so the
    reader holds that array and one block, whatever the file's size. Any
    other file, and any block np.loadtxt rejects, goes whole through the
    line reader, which words every error."""
    with open(path, "rb") as f:
        head = f.readline()
        d = head.count(b",") + 1
        if head.removesuffix(b"\n").removesuffix(b"\r") == _header(d).encode():
            X = _loadtxt_blocks(f, d)
            if X is not None:
                return as_samples(X)
    # a header of n fields joins to _header(n) only if no field holds a comma
    rows = read_csv_records(read_text(path), path,
                            lambda h: None if ",".join(h) == _header(len(h))
                            else f"expected header {_header(len(h))!r}, got {','.join(h)!r}",
                            lambda r: [float(v) for v in r])
    if not rows:
        raise InputError(f"{path}: no sample rows")
    return as_samples(np.asarray(rows))
