"""Candidate similarity graphs from single features.

Each candidate links samples whose values in one feature differ by at most
a threshold gamma, with gamma taken from the 1/16, 1/8, and 1/4 quantiles
of the pairwise absolute differences of that feature. Adjacency matrices
are symmetrically normalized with self-loops:
(D+I)^{-1/2} (A+I) (D+I)^{-1/2}.

Such a graph is an interval structure: sorted by the feature, the
neighbours of each row, itself included, form one contiguous window of
sorted positions [lo, hi). A graph is therefore stored as the sort order,
the two window bounds and dinv = (D+I)^{-1/2} per row, O(N) memory however
dense, and multiplied with prefix sums: with C the cumulative sum of
dinv * Z in sorted order (C[0] = 0),

    (Ahat @ Z)[p] = dinv[p] * (C[hi[p]] - C[lo[p]]),

O(N K) per multiply instead of O(E K).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rng import derive_seed, substream

QUANTILE_PS = (1 / 16, 1 / 8, 1 / 4)
DEFAULT_PAIR_CAP = 100_000


@dataclass(frozen=True)
class ThresholdSet:
    """Quantile thresholds for one feature, nondecreasing in p."""

    feature: int
    gammas: tuple[float, float, float]


@dataclass
class SparseAdjacency:
    """Normalized adjacency as sorted windows, self-loops included.

    ``order[p]`` is the row at sorted position p. Its neighbours, itself
    included, are the rows at sorted positions ``lo[p]`` to ``hi[p] - 1``,
    and ``values[p]`` is 1 / sqrt(hi[p] - lo[p]), so that
    Ahat[order[p], order[q]] = values[p] * values[q] inside the window.
    Immutable after construction; safe to share across threads/processes.
    """

    n: int
    order: np.ndarray  # int64, sorted position -> row
    lo: np.ndarray  # int64, first sorted position of each window
    hi: np.ndarray  # int64, one past the last
    values: np.ndarray  # float64, (D+I)^{-1/2} in sorted order

    def to_sorted(self, dense: np.ndarray) -> np.ndarray:
        """Rows of ``dense`` in sorted order."""
        return dense[self.order]

    def from_sorted(self, dense_sorted: np.ndarray) -> np.ndarray:
        """Inverse of ``to_sorted``."""
        out = np.empty_like(dense_sorted)
        out[self.order] = dense_sorted
        return out

    def matmul(self, dense: np.ndarray, sorted_frame: bool = False) -> np.ndarray:
        """Ahat @ dense for a length-N vector or an N x K matrix.

        With ``sorted_frame`` the operand and the result are both in sorted
        order, which lets repeated multiplies skip the gather and scatter.
        """
        z = dense if sorted_frame else self.to_sorted(dense)
        d = self.values if z.ndim == 1 else self.values[:, None]
        prefix = np.zeros((self.n + 1,) + z.shape[1:], dtype=np.float64)
        np.cumsum(d * z, axis=0, out=prefix[1:])
        # np.take gathers rows about twice as fast as fancy indexing here
        out = np.take(prefix, self.hi, axis=0)
        out -= np.take(prefix, self.lo, axis=0)
        out *= d
        return out if sorted_frame else self.from_sorted(out)

    def degrees(self) -> np.ndarray:
        """Edge degree per node, self-loop excluded."""
        return self.from_sorted(self.hi - self.lo - 1)

    def to_dense(self) -> np.ndarray:
        """The N x N matrix; a test oracle for small N."""
        pos = np.arange(self.n)
        inside = (pos >= self.lo[:, None]) & (pos < self.hi[:, None])
        sorted_dense = np.where(inside, np.outer(self.values, self.values), 0.0)
        out = np.empty((self.n, self.n), dtype=np.float64)
        out[np.ix_(self.order, self.order)] = sorted_dense
        return out


@dataclass
class CandidateGraph:
    feature: int
    gamma: float
    adjacency: SparseAdjacency
    edge_count: int  # undirected, self-loops not counted
    expert: bool = False


def quantile_thresholds(values: np.ndarray, pair_cap: int = DEFAULT_PAIR_CAP,
                        seed: int = 0, feature: int = 0) -> ThresholdSet:
    """Nearest-rank (lower) quantiles of the pairwise absolute differences.

    The p-quantile is the element at 1-based index ceil(p*L) of the
    ascending-sorted difference multiset. When the number of pairs exceeds
    ``pair_cap`` the multiset is estimated from pair_cap uniformly sampled
    index pairs, deterministically under ``seed``.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    n = v.size
    if n < 2:
        raise DataError("need at least 2 values for quantile thresholds")
    if not np.all(np.isfinite(v)):
        raise DataError("non-finite feature values")

    n_pairs = n * (n - 1) // 2
    if n_pairs <= pair_cap:
        iu = np.triu_indices(n, k=1)
        diffs = np.abs(v[iu[0]] - v[iu[1]])
    else:
        rng = substream(seed, "pairs", feature)
        i = rng.integers(0, n, size=pair_cap)
        j = rng.integers(0, n - 1, size=pair_cap)
        j = j + (j >= i)
        diffs = np.abs(v[i] - v[j])
    diffs.sort()
    L = diffs.size
    gammas = []
    for p in QUANTILE_PS:
        rank = min(max(int(np.ceil(p * L)), 1), L)
        gammas.append(float(diffs[rank - 1]))
    return ThresholdSet(feature, tuple(gammas))


def _window_bounds(v_sorted: np.ndarray, gamma: float) -> tuple:
    """Brackets (lo_out, lo_in, hi_in, hi_out) of each row's exact window
    [lo, hi): lo_out <= lo <= lo_in and hi_in <= hi <= hi_out."""
    # The edge predicate compares the ROUNDED difference fl(|v_i - v_j|)
    # against gamma, which can admit or reject a pair whose true gap is
    # within half an ulp of gamma. Searching for v -+ gamma, widened (or
    # narrowed) by a few relative ulps of gamma and 2 absolute ulps of the
    # bound, gives a superset (or a subset) of the exact window.
    eps4 = 4.0 * np.finfo(np.float64).eps
    out = []
    for scale, step in ((1.0 + eps4, np.inf), (1.0 - eps4, -np.inf)):
        lo_bound = v_sorted - gamma * scale
        hi_bound = v_sorted + gamma * scale
        for _ in range(2):
            lo_bound = np.nextafter(lo_bound, -step)
            hi_bound = np.nextafter(hi_bound, step)
        out.append((np.searchsorted(v_sorted, lo_bound, side="left"),
                    np.searchsorted(v_sorted, hi_bound, side="right")))
    (lo_out, hi_out), (lo_in, hi_in) = out
    return lo_out, lo_in, hi_in, hi_out


def _bisect(linked, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per sorted position p, the least q in [a[p], b[p]] with
    ``linked(p, q)`` true, where ``linked`` is false and then true along
    [a[p], b[p]) and q = b[p] counts as true. Vectorised over p."""
    a, b = a.copy(), b.copy()
    active = np.flatnonzero(a < b)
    while active.size:
        mid = (a[active] + b[active]) // 2
        ok = linked(active, mid)
        b[active] = np.where(ok, mid, b[active])
        a[active] = np.where(ok, a[active], mid + 1)
        active = active[a[active] < b[active]]
    return a


def build_adjacency(values: np.ndarray, gamma: float, feature: int = 0,
                    expert: bool = False) -> CandidateGraph:
    """Graph with an edge wherever |v_i - v_j| <= gamma, i != j.

    The predicate compares the rounded difference fl(|v_i - v_j|), which
    is monotone along sorted order on each side of a row. So each window
    bound is found by bisecting between the brackets from
    ``_window_bounds`` with the exact predicate: the result equals the
    O(N^2) definition while costing O(N log N) time and O(N) memory.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    n = v.size
    if not gamma >= 0:
        raise DataError(f"gamma must be a non-negative number, got {gamma!r}")
    if not np.all(np.isfinite(v)):
        raise DataError("non-finite feature values")

    order = np.argsort(v, kind="stable").astype(np.int64)
    v_sorted = v[order]
    lo_out, lo_in, hi_in, hi_out = _window_bounds(v_sorted, gamma)
    pos = np.arange(n, dtype=np.int64)
    # For q <= p the rounded v_sorted[p] - v_sorted[q] is non-negative and
    # so equals fl(|v_p - v_q|); likewise v_sorted[q] - v_sorted[p], q >= p.
    lo = _bisect(lambda p, q: v_sorted[p] - v_sorted[q] <= gamma,
                 lo_out, np.minimum(lo_in, pos))
    hi = _bisect(lambda p, q: v_sorted[q] - v_sorted[p] > gamma,
                 np.maximum(hi_in, pos + 1), hi_out)
    size = hi - lo
    adjacency = SparseAdjacency(n, order, lo, hi, 1.0 / np.sqrt(size))
    edge_count = int(np.sum(size - 1)) // 2
    return CandidateGraph(feature, float(gamma), adjacency, edge_count, expert)


def identity_adjacency(n: int) -> SparseAdjacency:
    """The edgeless graph: normalization reduces to the identity matrix."""
    pos = np.arange(n, dtype=np.int64)
    return SparseAdjacency(n, pos, pos, pos + 1, np.ones(n))


def enumerate_candidates(X: np.ndarray,
                         expert_edges: list | tuple = (),
                         feature_names: list[str] | None = None,
                         feature_scales: np.ndarray | None = None,
                         pair_cap: int = DEFAULT_PAIR_CAP,
                         seed: int = 0) -> list[CandidateGraph]:
    """All 3M quantile candidates plus one per expert edge spec.

    Ordering: feature index ascending, then gamma ascending (duplicates
    kept), expert candidates appended last. Expert thresholds are given in
    raw feature units and divided by ``feature_scales`` before use.
    """
    X = np.asarray(X, dtype=np.float64)
    n, m = X.shape
    if m < 1:
        raise DataError("need at least one feature")
    candidates = []
    for j in range(m):
        ts = quantile_thresholds(X[:, j], pair_cap=pair_cap,
                                 seed=derive_seed(seed, "pairs", j), feature=j)
        for gamma in ts.gammas:
            candidates.append(build_adjacency(X[:, j], gamma, feature=j))
    for spec in expert_edges:
        name, threshold = spec
        if isinstance(name, str):
            if feature_names is None or name not in feature_names:
                raise DataError(f"expert edge feature not found: {name!r}")
            j = feature_names.index(name)
        else:
            j = int(name)
            if not 0 <= j < m:
                raise DataError(f"expert edge feature index out of range: {j}")
        scale = 1.0 if feature_scales is None else float(feature_scales[j])
        gamma = float(threshold) / (scale if scale > 0 else 1.0)
        candidates.append(build_adjacency(X[:, j], gamma, feature=j,
                                          expert=True))
    return candidates
