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

O(N K) per multiply instead of O(E K). ``GraphStack`` runs k such steps
for several graphs over the same rows at once. ``StoredGraph`` keeps one
graph over stored rows and merges new rows into its sort and windows.
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

    def from_sorted(self, dense_sorted: np.ndarray) -> np.ndarray:
        """Rows given in sorted order, put back in row order."""
        out = np.empty_like(dense_sorted)
        out[self.order] = dense_sorted
        return out

    def matmul(self, dense: np.ndarray) -> np.ndarray:
        """Ahat @ dense for a length-N vector or an N x K matrix: one
        multiply on one graph, the reference for ``GraphStack``."""
        z = dense[self.order]
        d = self.values if z.ndim == 1 else self.values[:, None]
        prefix = np.zeros((self.n + 1,) + z.shape[1:], dtype=np.float64)
        np.cumsum(d * z, axis=0, out=prefix[1:])
        # np.take gathers rows about twice as fast as fancy indexing here
        out = np.take(prefix, self.hi, axis=0)
        out -= np.take(prefix, self.lo, axis=0)
        out *= d
        return self.from_sorted(out)

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


class GraphStack:
    """C window graphs over the same N rows, propagated in one pass.

    Operands are (C, N, K) stacks, one N x K matrix per graph. Inside,
    propagation runs in class-major (C, K, N) layout, each graph in its own
    sorted frame: one flat gather, then per step one prefix sum along N and
    two flat takes, then one flat scatter, each a single numpy call over
    all C * K rows. Every element sees the arithmetic of
    ``SparseAdjacency.matmul`` in the same order, so slice c of a result
    equals the single-graph result bit for bit.
    """

    def __init__(self, adjacencies: list, width: int):
        n = adjacencies[0].n
        if any(a.n != n for a in adjacencies):
            raise DataError("stacked graphs disagree on node count")
        c, k = len(adjacencies), width
        self.shape = (c, k, n)
        graph = np.arange(c)[:, None, None]
        cls = np.arange(k)[None, :, None]

        def per_graph(field):  # C x 1 x N
            return np.stack([getattr(a, field) for a in adjacencies])[:, None]

        # flat position of operand[c, order_c[p], k] in a (C, N, K) array
        self._frame = ((graph * n + per_graph("order")) * k + cls).ravel()
        # flat position of prefix[c, k, q] in a (C, K, N + 1) array
        line = (graph * k + cls) * (n + 1)
        self._lo = (line + per_graph("lo")).ravel()
        self._hi = (line + per_graph("hi")).ravel()
        # repeated over K: a broadcast multiply costs about 3x a flat one
        self._dinv = np.repeat(per_graph("values"), k, axis=1)

    def propagate(self, h0: np.ndarray, teleport: float,
                  steps: int) -> np.ndarray:
        """k steps of Z <- (1 - a) Ahat_c @ Z + a H0 for every graph c,
        with ``h0`` and the result of shape (C, N, K)."""
        c, k, n = self.shape
        if h0.shape != (c, n, k):
            raise DataError(f"operand of shape {h0.shape} does not fit "
                            f"{c} graphs over {n} rows with width {k}")
        if teleport == 1.0 or steps == 0:
            return h0.copy()
        z = np.take(h0, self._frame).reshape(c, k, n)
        restart = teleport * z
        prefix = np.zeros((c, k, n + 1))
        # dinv * Z, then, once the prefix sum has read it, the lower bounds
        scaled = np.empty_like(z)
        for _ in range(steps):
            np.multiply(self._dinv, z, out=scaled)
            np.cumsum(scaled, axis=2, out=prefix[:, :, 1:])
            # the indices are in range by construction; "clip" skips the
            # bounds check and the buffering that the default mode adds
            np.take(prefix, self._hi, out=z.reshape(-1), mode="clip")
            np.take(prefix, self._lo, out=scaled.reshape(-1), mode="clip")
            z -= scaled
            z *= self._dinv
            z *= 1.0 - teleport
            z += restart
        out = np.empty(h0.shape)
        out.reshape(-1)[self._frame] = z.reshape(-1)
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


def _window_bounds(v_sorted: np.ndarray, x: np.ndarray, gamma: float) -> tuple:
    """Brackets (lo_out, lo_in, hi_in, hi_out) of the exact window [lo, hi)
    in ``v_sorted`` of each query value in ``x``: lo_out <= lo <= lo_in and
    hi_in <= hi <= hi_out."""
    # The edge predicate compares the ROUNDED difference fl(|v_i - v_j|)
    # against gamma, which can admit or reject a pair whose true gap is
    # within half an ulp of gamma. Searching for v -+ gamma, widened (or
    # narrowed) by a few relative ulps of gamma and 2 absolute ulps of the
    # bound, gives a superset (or a subset) of the exact window.
    eps4 = 4.0 * np.finfo(np.float64).eps
    out = []
    for scale, step in ((1.0 + eps4, np.inf), (1.0 - eps4, -np.inf)):
        lo_bound = x - gamma * scale
        hi_bound = x + gamma * scale
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


def _exact_windows(v_sorted: np.ndarray, x: np.ndarray, gamma: float,
                   lo_range: tuple, hi_range: tuple) -> tuple:
    """Exact windows [lo, hi) in ``v_sorted`` of rows with values ``x``,
    bisected with lo in ``lo_range`` = (a, b) and hi in ``hi_range``. The
    lo range must lie at or before each row's own sorted position, the hi
    range after it."""
    # For q <= p the rounded v_sorted[p] - v_sorted[q] is non-negative and
    # so equals fl(|v_p - v_q|); likewise v_sorted[q] - v_sorted[p], q >= p.
    # Either is monotone in q, so each bound is one bisection.
    lo = _bisect(lambda i, q: x[i] - v_sorted[q] <= gamma, *lo_range)
    hi = _bisect(lambda i, q: v_sorted[q] - x[i] > gamma, *hi_range)
    return lo, hi


def _windows(v_sorted: np.ndarray, gamma: float, at: np.ndarray) -> tuple:
    """Exact windows [lo, hi) of the rows at sorted positions ``at``."""
    x = v_sorted[at]
    lo_out, lo_in, hi_in, hi_out = _window_bounds(v_sorted, x, gamma)
    return _exact_windows(v_sorted, x, gamma,
                          (lo_out, np.minimum(lo_in, at)),
                          (np.maximum(hi_in, at + 1), hi_out))


def _finite_column(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64).ravel()
    if not np.all(np.isfinite(v)):
        raise DataError("non-finite feature values")
    return v


def build_adjacency(values: np.ndarray, gamma: float, feature: int = 0,
                    expert: bool = False) -> CandidateGraph:
    """Graph with an edge wherever |v_i - v_j| <= gamma, i != j.

    The predicate compares the rounded difference fl(|v_i - v_j|), which
    is monotone along sorted order on each side of a row. So each window
    bound is found by bisecting between the brackets from
    ``_window_bounds`` with the exact predicate: the result equals the
    O(N^2) definition while costing O(N log N) time and O(N) memory.
    """
    if not gamma >= 0:
        raise DataError(f"gamma must be a non-negative number, got {gamma!r}")
    v = _finite_column(values)
    n = v.size

    order = np.argsort(v, kind="stable").astype(np.int64)
    v_sorted = v[order]
    lo, hi = _windows(v_sorted, gamma, np.arange(n, dtype=np.int64))
    size = hi - lo
    adjacency = SparseAdjacency(n, order, lo, hi, 1.0 / np.sqrt(size))
    edge_count = int(np.sum(size - 1)) // 2
    return CandidateGraph(feature, float(gamma), adjacency, edge_count, expert)


@dataclass(frozen=True)
class StoredGraph:
    """One (feature, gamma) graph over stored rows, ready for new rows.

    Holds the stable sort of the stored column and its exact windows, as
    ``build_adjacency`` made them. ``join(new)`` returns the adjacency
    that ``build_adjacency`` gives over the stored column with ``new``
    appended, bit for bit, in O(N + m log N) rather than the
    O((N + m) log(N + m)) of sorting and searching all rows again.
    """

    gamma: float
    order: np.ndarray  # int64, stable sort order of the stored column
    v_sorted: np.ndarray  # float64, the stored column in that order
    lo: np.ndarray  # int64, each stored window, in the stored frame
    hi: np.ndarray

    @classmethod
    def of(cls, candidate: CandidateGraph, values: np.ndarray) -> "StoredGraph":
        """The stored graph of ``build_adjacency(values, gamma)``."""
        adj = candidate.adjacency
        v = np.asarray(values, dtype=np.float64).ravel()
        return cls(candidate.gamma, adj.order, v[adj.order], adj.lo, adj.hi)

    def join(self, new_values: np.ndarray) -> SparseAdjacency:
        """The graph over the stored rows followed by ``new_values``."""
        u = _finite_column(new_values)
        n, m, gamma = self.order.size, u.size, self.gamma
        new_order = np.argsort(u, kind="stable")
        u_sorted = u[new_order]
        # A stable sort of the stacked column puts stored rows before equal
        # new ones and keeps each part in its own stable order, so new row
        # j (in u_sorted order) lands after the ins[j] stored values <= it.
        ins = np.searchsorted(self.v_sorted, u_sorted, side="right")
        # before[p + 1]: new rows merged in ahead of stored position p, for
        # p = -1..n (none ahead of -1, all m ahead of the end n).
        before = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(np.bincount(ins, minlength=n + 1), out=before[1:])
        at_stored = np.arange(n, dtype=np.int64) + before[1:-1]
        at_new = ins + np.arange(m, dtype=np.int64)
        w = np.empty(n + m)
        w[at_stored], w[at_new] = self.v_sorted, u_sorted
        order = np.empty(n + m, dtype=np.int64)
        order[at_stored], order[at_new] = self.order, n + new_order

        # A stored window keeps its stored rows and takes in the new rows
        # between them. Its merged bound lies in the gap of new rows just
        # outside the old bound: lo after the merged position of stored
        # lo - 1 and at most that of stored lo, hi likewise. _bisect
        # skips every empty gap.
        lo, hi = np.empty(n + m, dtype=np.int64), np.empty_like(order)
        lo[at_stored], hi[at_stored] = _exact_windows(
            w, self.v_sorted, gamma,
            (self.lo + before[self.lo], self.lo + before[self.lo + 1]),
            (self.hi + before[self.hi], self.hi + before[self.hi + 1]))
        lo[at_new], hi[at_new] = _windows(w, gamma, at_new)
        return SparseAdjacency(n + m, order, lo, hi, 1.0 / np.sqrt(hi - lo))


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
    raw feature units and divided by ``feature_scales`` before use. Each
    distinct (feature, gamma) graph is built once; its repeats share the
    adjacency.
    """
    X = np.asarray(X, dtype=np.float64)
    n, m = X.shape
    if m < 1:
        raise DataError("need at least one feature")
    built: dict = {}

    def candidate(j: int, gamma: float, expert: bool) -> CandidateGraph:
        first = built.get((j, gamma))
        if first is None:
            first = built[(j, gamma)] = build_adjacency(X[:, j], gamma,
                                                        feature=j)
        return CandidateGraph(j, float(gamma), first.adjacency,
                              first.edge_count, expert)

    candidates = []
    for j in range(m):
        ts = quantile_thresholds(X[:, j], pair_cap=pair_cap,
                                 seed=derive_seed(seed, "pairs", j), feature=j)
        for gamma in ts.gammas:
            candidates.append(candidate(j, gamma, False))
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
        candidates.append(candidate(j, gamma, True))
    return candidates
