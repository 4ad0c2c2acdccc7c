"""Candidate similarity graphs from single features.

Each candidate links samples whose values in one feature differ by at most
a threshold gamma, with gamma taken from the 1/16, 1/8, and 1/4 quantiles
of the pairwise absolute differences of that feature. Adjacency matrices
are symmetrically normalized with self-loops:
(D+I)^{-1/2} (A+I) (D+I)^{-1/2}.

Such a graph is an interval structure: sorted by the feature, the
neighbours of each row, itself included, form one contiguous window of
sorted positions [lo, hi). Only the ends hi are searched for, one
bisection per row; the starts follow from them, because row q <= p lies in
the window of p exactly when hi[q] > p. A graph is stored as the sort
order, the two window bounds and dinv = (D+I)^{-1/2} per row, O(N) memory
however dense, and multiplied with prefix sums: with C the cumulative sum
of dinv * Z in sorted order (C[0] = 0),

    (Ahat @ Z)[p] = dinv[p] * (C[hi[p]] - C[lo[p]]),

O(N K) per multiply instead of O(E K). ``GraphStack`` runs k such steps
for several graphs over the same rows at once. ``StoredGraph`` keeps one
graph over stored rows as its sort and window ends, and merges new rows
into both.
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

    Operands in row order are (C, N, K) stacks, one N x K matrix per graph.
    Propagation works in each graph's frame instead: class-major
    (C, K, N), with ``frame[c, k, p]`` the class-k value of the row at
    sorted position p of graph c, so that every window is a contiguous run
    of each class line. ``to_frame`` gathers an operand into the frame,
    ``run`` takes the k steps there (per step one prefix sum along N and two
    flat takes, each a single numpy call over all C * K lines) and
    ``from_frame`` scatters a frame back to row order; ``propagate`` is the
    three in turn. Every element sees the arithmetic of
    ``SparseAdjacency.matmul`` in the same order, so slice c of a result
    equals the single-graph result bit for bit.

    A caller that works on the propagated values one row at a time, the
    same way for every row, can stay in the frame and save both layout
    passes: the training loss and its gradient are computed there, and
    only what needs row order leaves it. ``from_frame`` also scatters
    (C, N) per-row values, such as labels.
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

        # flat position of rows[c, order_c[p]] in a (C, N) array
        rows = graph * n + per_graph("order")
        self._rows = rows.ravel()
        # flat position of operand[c, order_c[p], k] in a (C, N, K) array
        self._frame = (rows * k + cls).ravel()
        # flat position of prefix[c, k, q] in a (C, K, N + 1) array
        line = (graph * k + cls) * (n + 1)
        self._lo = (line + per_graph("lo")).ravel()
        self._hi = (line + per_graph("hi")).ravel()
        # repeated over K: a broadcast multiply costs about 3x a flat one
        self._dinv = np.repeat(per_graph("values"), k, axis=1)

    def to_frame(self, operand: np.ndarray) -> np.ndarray:
        """A (C, N, K) operand in row order, gathered into the frame."""
        c, k, n = self.shape
        if operand.shape != (c, n, k):
            raise DataError(f"operand of shape {operand.shape} does not fit "
                            f"{c} graphs over {n} rows with width {k}")
        return np.take(operand, self._frame).reshape(self.shape)

    def run(self, frame: np.ndarray, teleport: float,
            steps: int) -> np.ndarray:
        """k steps of Z <- (1 - a) Ahat_c @ Z + a H0 for every graph c, with
        H0 = ``frame`` and the result in the frame, a new array."""
        if frame.shape != self.shape:
            raise DataError(f"frame of shape {frame.shape} does not fit "
                            f"the stack's {self.shape}")
        if teleport == 1.0 or steps == 0:
            return frame.copy()
        c, k, n = self.shape
        restart = teleport * frame
        prefix = np.zeros((c, k, n + 1))
        # dinv * Z, then, once the prefix sum has read it, the lower bounds
        scaled = np.empty(self.shape)
        z = np.empty(self.shape)
        src = frame
        for _ in range(steps):
            np.multiply(self._dinv, src, out=scaled)
            np.cumsum(scaled, axis=2, out=prefix[:, :, 1:])
            # the indices are in range by construction; "clip" skips the
            # bounds check and the buffering that the default mode adds
            np.take(prefix, self._hi, out=z.reshape(-1), mode="clip")
            np.take(prefix, self._lo, out=scaled.reshape(-1), mode="clip")
            z -= scaled
            z *= self._dinv
            z *= 1.0 - teleport
            z += restart
            src = z
        return z

    def from_frame(self, frame: np.ndarray) -> np.ndarray:
        """A (C, K, N) frame scattered back to a (C, N, K) array in row
        order, or (C, N) per-row values to (C, N); the dtype is kept."""
        c, k, n = self.shape
        if frame.shape == self.shape:
            index, shape = self._frame, (c, n, k)
        elif frame.shape == (c, n):
            index, shape = self._rows, (c, n)
        else:
            raise DataError(f"frame of shape {frame.shape} does not fit "
                            f"the stack's {self.shape}")
        out = np.empty(shape, dtype=frame.dtype)
        out.reshape(-1)[index] = frame.reshape(-1)
        return out

    def propagate(self, h0: np.ndarray, teleport: float,
                  steps: int) -> np.ndarray:
        """k steps of Z <- (1 - a) Ahat_c @ Z + a H0 for every graph c,
        with ``h0`` and the result of shape (C, N, K)."""
        return self.from_frame(self.run(self.to_frame(h0), teleport, steps))


@dataclass
class CandidateGraph:
    feature: int
    gamma: float
    adjacency: SparseAdjacency
    edge_count: int  # undirected, self-loops not counted
    expert: bool = False


def quantile_thresholds(values: np.ndarray, seed: int = 0,
                        feature: int = 0) -> ThresholdSet:
    """Nearest-rank (lower) quantiles of the pairwise absolute differences.

    The p-quantile is the element at 1-based index ceil(p*L) of the
    ascending-sorted difference multiset. When the number of pairs exceeds
    ``DEFAULT_PAIR_CAP`` the multiset is estimated from that many uniformly
    sampled index pairs, deterministically under ``seed``.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    n = v.size
    if n < 2:
        raise DataError("need at least 2 values for quantile thresholds")
    if not np.all(np.isfinite(v)):
        raise DataError("non-finite feature values")

    n_pairs = n * (n - 1) // 2
    if n_pairs <= DEFAULT_PAIR_CAP:
        iu = np.triu_indices(n, k=1)
        diffs = np.abs(v[iu[0]] - v[iu[1]])
    else:
        rng = substream(seed, "pairs", feature)
        i = rng.integers(0, n, size=DEFAULT_PAIR_CAP)
        j = rng.integers(0, n - 1, size=DEFAULT_PAIR_CAP)
        j = j + (j >= i)
        diffs = np.abs(v[i] - v[j])
    diffs.sort()
    L = diffs.size
    gammas = []
    for p in QUANTILE_PS:
        rank = min(max(int(np.ceil(p * L)), 1), L)
        gammas.append(float(diffs[rank - 1]))
    return ThresholdSet(feature, tuple(gammas))


def _bisect(v_sorted: np.ndarray, x: np.ndarray, gamma: float,
            a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per query i, the least q in [a[i], b[i]] with
    fl(v_sorted[q] - x[i]) > gamma, where that is false and then true
    along [a[i], b[i]) and q = b[i] counts as true. Vectorised over i."""
    a, b = a.copy(), b.copy()
    active = np.flatnonzero(a < b)
    while active.size:
        mid = (a[active] + b[active]) // 2
        ok = v_sorted[mid] - x[active] > gamma
        b[active] = np.where(ok, mid, b[active])
        a[active] = np.where(ok, a[active], mid + 1)
        active = active[a[active] < b[active]]
    return a


def _ends(v_sorted: np.ndarray, gamma: float, at: np.ndarray) -> np.ndarray:
    """Exact window ends hi of the rows at sorted positions ``at``."""
    # For q >= p the rounded v_sorted[q] - v_sorted[p] is non-negative and
    # so equals fl(|v_p - v_q|); it rises with q, so each end is one
    # bisection. The edge predicate compares this ROUNDED difference
    # against gamma, which can admit or reject a pair whose true gap is
    # within half an ulp of gamma. Searching for v + gamma, narrowed (or
    # widened) by a few relative ulps of gamma and 2 absolute ulps of the
    # bound, brackets the exact end from below (or above).
    x = v_sorted[at]
    eps4 = 4.0 * np.finfo(np.float64).eps
    hi_in, hi_out = (
        np.searchsorted(v_sorted, np.nextafter(np.nextafter(
            x + gamma * scale, step), step), side="right")
        for scale, step in ((1.0 - eps4, -np.inf), (1.0 + eps4, np.inf)))
    return _bisect(v_sorted, x, gamma, np.maximum(hi_in, at + 1), hi_out)


def _from_ends(order: np.ndarray, hi: np.ndarray) -> SparseAdjacency:
    """The adjacency with sort ``order`` and exact window ends ``hi``."""
    # For each q, fl(v_q - v_p) falls as p rises, so hi never decreases
    # along the sort, and a row q <= p lies in the window of p exactly
    # when hi[q] > p. So lo[p] counts the rows q with hi[q] <= p.
    n = order.size
    lo = np.cumsum(np.bincount(hi, minlength=n + 1)[:n])
    return SparseAdjacency(n, order, lo, hi, 1.0 / np.sqrt(hi - lo))


def _finite_column(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64).ravel()
    if not np.all(np.isfinite(v)):
        raise DataError("non-finite feature values")
    return v


def build_adjacency(values: np.ndarray, gamma: float,
                    feature: int = 0) -> CandidateGraph:
    """Graph with an edge wherever |v_i - v_j| <= gamma, i != j.

    The predicate compares the rounded difference fl(|v_i - v_j|), which
    is monotone along sorted order on each side of a row. So each window
    end is found by one bisection with the exact predicate between two
    searched brackets, and the window starts are counted from the ends in
    O(N): the result equals the O(N^2) definition while costing
    O(N log N) time and O(N) memory.
    """
    if not gamma >= 0:
        raise DataError(f"gamma must be a non-negative number, got {gamma!r}")
    v = _finite_column(values)
    n = v.size

    order = np.argsort(v, kind="stable").astype(np.int64)
    v_sorted = v[order]
    adjacency = _from_ends(order, _ends(v_sorted, gamma,
                                        np.arange(n, dtype=np.int64)))
    edge_count = int(np.sum(adjacency.hi - adjacency.lo - 1)) // 2
    return CandidateGraph(feature, float(gamma), adjacency, edge_count)


@dataclass(frozen=True)
class StoredGraph:
    """One (feature, gamma) graph over stored rows, ready for new rows.

    Holds the stable sort of the stored column and its exact window ends,
    as ``build_adjacency`` made them; the starts are not kept, as ``join``
    counts them afresh from the merged ends. ``join(new)`` returns the
    adjacency that ``build_adjacency`` gives over the stored column with
    ``new`` appended, bit for bit, in O(N + m log N) rather than the
    O((N + m) log(N + m)) of sorting and searching all rows again.
    """

    gamma: float
    order: np.ndarray  # int64, stable sort order of the stored column
    v_sorted: np.ndarray  # float64, the stored column in that order
    hi: np.ndarray  # int64, each stored window's end, in the stored frame

    @classmethod
    def of(cls, candidate: CandidateGraph, values: np.ndarray) -> "StoredGraph":
        """The stored graph of ``build_adjacency(values, gamma)``."""
        adj = candidate.adjacency
        v = np.asarray(values, dtype=np.float64).ravel()
        return cls(candidate.gamma, adj.order, v[adj.order], adj.hi)

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
        # ahead[p]: new rows merged in ahead of stored position p, for
        # p = 0..n (all m ahead of the end n).
        ahead = np.cumsum(np.bincount(ins, minlength=n + 1))
        at_stored = np.arange(n, dtype=np.int64) + ahead[:-1]
        at_new = ins + np.arange(m, dtype=np.int64)
        w = np.empty(n + m)
        w[at_stored], w[at_new] = self.v_sorted, u_sorted
        order = np.empty(n + m, dtype=np.int64)
        order[at_stored], order[at_new] = self.order, n + new_order

        # A stored window keeps its stored rows and takes in the new rows
        # between them. Its merged end lies in the gap of new rows just
        # before the stored row at its old end h: after the merged position
        # of stored h - 1 and at most that of stored h. _bisect skips every
        # empty gap.
        hi = np.empty(n + m, dtype=np.int64)
        hi[at_stored] = _bisect(w, self.v_sorted, gamma,
                                self.hi + ahead[self.hi - 1],
                                self.hi + ahead[self.hi])
        hi[at_new] = _ends(w, gamma, at_new)
        return _from_ends(order, hi)


def identity_adjacency(n: int) -> SparseAdjacency:
    """The edgeless graph: normalization reduces to the identity matrix."""
    pos = np.arange(n, dtype=np.int64)
    return SparseAdjacency(n, pos, pos, pos + 1, np.ones(n))


def enumerate_candidates(X: np.ndarray,
                         expert_edges: list | tuple = (),
                         feature_names: list[str] | None = None,
                         feature_scales: np.ndarray | None = None,
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
        ts = quantile_thresholds(X[:, j], seed=derive_seed(seed, "pairs", j),
                                 feature=j)
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
