"""Candidate similarity graphs from single features.

Each candidate links samples whose values in one feature differ by at most
a threshold gamma, with gamma taken from the 1/16, 1/8, and 1/4 quantiles
of the pairwise absolute differences of that feature, each snapped to the
widest realized difference within rounding of it. Adjacency matrices
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
for any number of lines on several graphs over the same rows at once, the
one engine of training, of prediction and of ``appnp.propagate``. Its
frame is line-major, so its window indices are C * N long and shared by
every line.

A column is sorted once, by ``SortedColumn.of``, and every graph on it
shares that sort: ``graphs_of`` builds each distinct (feature, gamma)
graph of a matrix once over one sort per feature, for the candidates of a
fit and for the stored graphs of an ensemble alike, and the thresholds are
taken from that sort too. ``enumerate_candidates`` hands the features to
up to ``workers`` threads. A ``CandidateGraph`` over stored rows keeps its
column, and ``join`` merges new rows into it only where k propagation
steps from the new rows read it: their dependency cone, about 2k + 1
half-windows around them. ``Cone.run`` takes the lines of the stored rows
and of the new rows, each in their own row order, and places them on the
cone itself, so no other module knows how a cone numbers its positions.
It takes exactly the k steps that the cone was joined for, each on the
part of the cone that the later steps read, one window narrower per step
on each side, and starts each step's prefix sum from 0 at the first
position that the step reads. It keeps nothing between calls and reads
nothing of a run over the stored rows. Where the cone reaches the first
sorted position, as a wide batch's does, every sum adds the terms of the full
run over stored and new rows in its order, and the values have its bits;
elsewhere they agree with it to within rounding. A batch whose cone spans
the sort does the full run's work.
"""

import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .rng import derive_seed, substream

QUANTILE_PS = (1 / 16, 1 / 8, 1 / 4)
DEFAULT_PAIR_CAP = 100_000
# Quantile thresholds snap to the widest realized gap within
# tau = SNAP_ULPS * eps * max|v| of them. Z-scoring moves two pairs at one
# raw gap at most 6 eps max|v| apart, rounding gamma + tau costs 1 more,
# and a decimal CSV cell's own rounding at most 4 more when the raw range
# holds 0 (README); 16, a power of two, keeps tau exact.
SNAP_ULPS = 16


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
    """C window graphs over the same N rows, propagated in one pass: the
    one engine of training, labelling and ``appnp.propagate``.

    Operands in row order are (C, N, W) stacks, W lines per graph.
    Propagation works in the graphs' frame instead: line-major (W, C, N),
    with ``frame[w, c, p]`` line w of graph c at the row at sorted
    position p of graph c, so that every window is a contiguous run of
    every line. The window indices are C * N flat positions into a
    (C, N + 1) prefix sum, shared by every line whatever W is. ``to_frame``
    gathers an operand into the frame, ``run`` takes the k steps there
    (per step one prefix sum along N and two takes, each a single numpy
    call over all W * C lines) and ``from_frame`` scatters a frame back to
    row order. Every element sees the arithmetic of
    ``SparseAdjacency.matmul`` in the same order, so each line of a result
    equals k one-graph multiplies bit for bit.

    A caller that works on the propagated values one row at a time, the
    same way for every row, can stay in the frame and save both layout
    passes: the training loss and its gradient are computed there, and
    only what needs row order leaves it. ``from_frame`` also scatters
    (C, N) per-row values, such as each learner's labels at its best
    epoch.
    """

    def __init__(self, adjacencies: list):
        c, n = len(adjacencies), adjacencies[0].n
        self.shape = (c, n)
        if any(a.n != n for a in adjacencies):
            raise DataError("stacked graphs disagree on node count")
        graph = np.arange(c)[:, None]

        def per_graph(field):  # C x N
            return np.stack([getattr(a, field) for a in adjacencies])

        # flat position of rows[c, order_c[p]] in a (C, N) array
        self._rows = (graph * n + per_graph("order")).ravel()
        # flat position of prefix[c, q] in a (C, N + 1) array
        self._lo = (graph * (n + 1) + per_graph("lo")).ravel()
        self._hi = (graph * (n + 1) + per_graph("hi")).ravel()
        self._dinv = per_graph("values").ravel()

    def _check(self, frame: np.ndarray, ndims: tuple) -> None:
        if frame.ndim not in ndims or frame.shape[-2:] != self.shape:
            raise DataError(f"frame of shape {frame.shape} does not fit "
                            f"the stack's {self.shape}")

    def to_frame(self, operand: np.ndarray) -> np.ndarray:
        """A (C, N, W) operand in row order, gathered into the frame."""
        c, n = self.shape
        if operand.ndim != 3 or operand.shape[:2] != self.shape:
            raise DataError(f"operand of shape {operand.shape} does not fit "
                            f"{c} graphs over {n} rows")
        w = operand.shape[2]
        return np.take(operand.reshape(c * n, w).T, self._rows,
                       axis=1).reshape(w, c, n)

    def run(self, frame: np.ndarray, teleport: float,
            steps: int) -> np.ndarray:
        """k steps of Z <- (1 - a) Ahat_c @ Z + a H0 for every line of every
        graph c, with H0 = ``frame``. Returns the (W, C, N) result in the
        frame, a new array."""
        self._check(frame, (3,))
        c, n = self.shape
        w = frame.shape[0]
        lines = frame.reshape(w, c * n)
        if teleport == 1.0 or steps == 0:
            return frame.copy()
        hi, lo, d = self._hi, self._lo, self._dinv
        restart = teleport * lines
        # the prefix sums of dinv * Z of every step, 0 at column 0
        prefix = np.zeros((w, c, n + 1))
        flat = prefix.reshape(w, c * (n + 1))
        # dinv * Z, then, once the prefix sum has read it, the lower bounds
        scaled = np.empty((w, c * n))
        by_graph = scaled.reshape(w, c, n)
        z = np.empty((w, c * n))
        src = lines
        # ndarray methods rather than np.cumsum and np.take, whose wrappers
        # cost about a microsecond a call
        for step in range(steps):
            np.multiply(d, src, out=scaled)
            by_graph.cumsum(axis=2, out=prefix[:, :, 1:])
            # the indices are in range by construction; "clip" skips the
            # bounds check and the buffering that the default mode adds
            flat.take(hi, axis=1, out=z, mode="clip")
            flat.take(lo, axis=1, out=scaled, mode="clip")
            z -= scaled
            z *= d
            z *= 1.0 - teleport
            z += restart
            src = z
        return z.reshape(w, c, n)

    def from_frame(self, frame: np.ndarray) -> np.ndarray:
        """A (W, C, N) frame scattered back to a contiguous (C, N, W) array
        in row order, or (C, N) per-row values to (C, N); the dtype is
        kept."""
        self._check(frame, (2, 3))
        c, n = self.shape
        w = 1 if frame.ndim == 2 else frame.shape[0]
        out = np.empty((c * n, w), dtype=frame.dtype)
        if w == 1:  # a flat scatter, faster than a 2-D one
            out.reshape(-1)[self._rows] = frame.reshape(-1)
        else:
            out[self._rows] = frame.reshape(w, c * n).T
        return out.reshape(self.shape + frame.shape[:-2])


def _pair_quantiles(column: "SortedColumn", seed: int,
                    feature: int) -> list[float]:
    """Nearest-rank (lower) quantiles of the pairwise absolute differences
    of the column, before snapping: the element at 1-based index
    ceil(p*L) of the ascending-sorted difference multiset, estimated from
    ``DEFAULT_PAIR_CAP`` pairs of rows drawn under ``seed`` when there are
    more pairs than that."""
    v_sorted = column.values
    n = v_sorted.size
    if n < 2:
        raise DataError("need at least 2 values for quantile thresholds")
    n_pairs = n * (n - 1) // 2
    if n_pairs <= DEFAULT_PAIR_CAP:
        # the multiset of |v_i - v_j| does not depend on the row order
        iu = np.triu_indices(n, k=1)
        diffs = v_sorted[iu[1]] - v_sorted[iu[0]]
    else:
        v = np.empty_like(v_sorted)  # the pairs are drawn by row
        v[column.order] = v_sorted
        rng = substream(seed, "pairs", feature)
        i = rng.integers(0, n, size=DEFAULT_PAIR_CAP)
        j = rng.integers(0, n - 1, size=DEFAULT_PAIR_CAP)
        j = j + (j >= i)
        diffs = np.abs(v[i] - v[j])
    diffs.sort()
    L = diffs.size
    return [float(diffs[min(max(int(np.ceil(p * L)), 1), L) - 1])
            for p in QUANTILE_PS]


def _snap(column: "SortedColumn", gamma: float) -> float:
    """The widest realized gap fl(v_q - v_p) of the column that is at most
    gamma + tau, tau = ``SNAP_ULPS`` * eps * max|v|: gamma itself where no
    pair reads a gap in (gamma, gamma + tau], as on continuous columns.
    Each row's widest such partner ends its window at gamma + tau, which
    ``_ends`` finds with the exact predicate. No pair reads a gap between
    the snapped threshold and gamma + tau, so those are the windows of the
    snapped threshold too, and the column keeps them for its graph."""
    v = column.values
    tau = SNAP_ULPS * np.finfo(np.float64).eps * max(-v[0], v[-1])
    ends = _ends(v, gamma + tau, np.arange(v.size, dtype=np.int64))
    snapped = float((v[ends - 1] - v).max())
    column.ends[snapped] = ends
    return snapped


def quantile_thresholds(values, seed: int = 0,
                        feature: int = 0) -> ThresholdSet:
    """The snapped quantile thresholds of a ``SortedColumn``, or of raw
    ``values``, which it sorts.

    Each threshold starts as a nearest-rank (lower) quantile of the
    pairwise absolute differences (``_pair_quantiles``), a gap that some
    pair of rows realizes, and is snapped up to the widest realized gap
    within tau of it (``_snap``). On a column of discrete levels,
    z-scoring makes equal raw gaps differ in their last bits, and the
    snap puts every pair at the quantile's raw gap inside the graph, as
    real arithmetic would; elsewhere it changes nothing.
    """
    column = (values if isinstance(values, SortedColumn)
              else SortedColumn.of(values))
    gammas = _pair_quantiles(column, seed, feature)
    snapped = {g: _snap(column, g) for g in dict.fromkeys(gammas)}
    return ThresholdSet(feature, tuple(snapped[g] for g in gammas))


def _bisect(v_sorted: np.ndarray, x: np.ndarray, gamma: float,
            a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per query i, the least q in [a[i], b[i]] with
    fl(v_sorted[q] - x[i]) > gamma, where that is false and then true
    along [a[i], b[i]) and q = b[i] counts as true. Vectorised over i."""
    a, b = a.copy(), b.copy()
    active = (a < b).nonzero()[0]
    while active.size:
        low, high = a[active], b[active]
        mid = (low + high) // 2
        ok = v_sorted[mid] - x[active] > gamma
        high = np.where(ok, mid, high)
        low = np.where(ok, low, mid + 1)
        a[active], b[active] = low, high
        active = active[low < high]
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
        v_sorted.searchsorted(np.nextafter(np.nextafter(
            x + gamma * scale, step), step), side="right")
        for scale, step in ((1.0 - eps4, -np.inf), (1.0 + eps4, np.inf)))
    return _bisect(v_sorted, x, gamma, np.maximum(hi_in, at + 1), hi_out)


def _starts(ends: np.ndarray, start: int, count: int,
            before: int = 0) -> np.ndarray:
    """Window starts lo of the ``count`` sorted positions from ``start``
    on, from the exact ends ``ends`` of the rows from ``before`` on, where
    ``before`` rows end at or before ``start`` and the rest after it."""
    # For each q, fl(v_q - v_p) falls as p rises, so hi never decreases
    # along the sort, and a row q <= p lies in the window of p exactly
    # when hi[q] > p. So lo[p] counts the rows q with hi[q] <= p.
    counts = np.bincount(ends - start, minlength=count + 1)[:count]
    return before + counts.cumsum()


def _from_ends(order: np.ndarray, hi: np.ndarray) -> SparseAdjacency:
    """The adjacency with sort ``order`` and exact window ends ``hi``."""
    n = order.size
    lo = _starts(hi, 0, n)
    return SparseAdjacency(n, order, lo, hi, 1.0 / np.sqrt(hi - lo))


def _finite_column(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64).ravel()
    if not np.isfinite(v).all():
        raise DataError("non-finite feature values")
    return v


@dataclass(frozen=True)
class SortedColumn:
    """One feature column in stable sort order, shared by every graph on
    it: ``order[p]`` is the row at sorted position p and ``values[p]`` its
    value."""

    order: np.ndarray  # int64
    values: np.ndarray  # float64
    # The exact window ends of the thresholds that ``_snap`` searched, for
    # ``build_adjacency`` to take; written by the one thread that takes
    # the column's thresholds.
    ends: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, values: np.ndarray) -> "SortedColumn":
        """The only sort of a stored or cohort column."""
        v = _finite_column(values)
        order = np.argsort(v, kind="stable").astype(np.int64)
        return cls(order, v[order])


def build_adjacency(values, gamma: float,
                    feature: int = 0) -> "CandidateGraph":
    """Graph with an edge wherever |v_i - v_j| <= gamma, i != j, over raw
    ``values`` or a ``SortedColumn`` of them.

    The predicate compares the rounded difference fl(|v_i - v_j|), which
    is monotone along sorted order on each side of a row. So each window
    end is found by one bisection with the exact predicate between two
    searched brackets, and the window starts are counted from the ends in
    O(N): the result equals the O(N^2) definition while costing
    O(N log N) time and O(N) memory.
    """
    if not gamma >= 0:
        raise DataError(f"gamma must be a non-negative number, got {gamma!r}")
    column = (values if isinstance(values, SortedColumn)
              else SortedColumn.of(values))
    hi = column.ends.get(gamma)
    if hi is None:
        hi = _ends(column.values, gamma,
                   np.arange(column.order.size, dtype=np.int64))
    adjacency = _from_ends(column.order, hi)
    edge_count = int(np.sum(adjacency.hi - adjacency.lo - 1)) // 2
    return CandidateGraph(feature, float(gamma), adjacency, edge_count,
                          column)


@dataclass(frozen=True)
class Cone:
    """The graph over stored rows followed by new rows, on the part of the
    merged sort that k propagation steps read for the new rows.

    ``order``, ``lo``, ``hi`` and ``values`` are those of
    ``build_adjacency`` over the stacked column at the sorted positions
    from ``start`` on, and ``rows[j]`` is the sorted position of new row
    j. ``run`` propagates only the cone, and nothing of a run over the
    stored rows. Only this class reads that numbering: ``run`` takes lines
    of the stored rows and of the new rows in their own orders and places
    them itself.
    """

    start: int
    order: np.ndarray  # int64, row at each position; new rows from N on
    lo: np.ndarray  # int64, sorted positions of the whole merged graph
    hi: np.ndarray
    values: np.ndarray  # float64
    rows: np.ndarray  # int64, sorted position of each new row
    # The cone of the k steps it was joined for, as sorted positions:
    # Z(k - i) is read on [left[i - 1], right[i]) only, 1 <= i <= k.
    # left[0] starts the first new row's window and left[l + 1] that of
    # the row at left[l], l + 1 < max(k, 1); right[0] follows the last new
    # row and right[i + 1] ends the window of the row before right[i].
    left: tuple
    right: tuple

    def run(self, stored: np.ndarray, new: np.ndarray,
            teleport: float) -> np.ndarray:
        """``GraphStack.run`` of W lines on the merged graph, for the k
        steps that the cone was joined for, at the new rows only: a (W, m)
        array, new rows in their given order. The lines are ``stored``
        (W x N, the stored rows in row order) followed by ``new`` (W x m,
        the new rows in their given order).

        Step l < k runs on [left[k - l - 1], right[k - l]) only, and step k
        at the new rows; each step reads exactly what the one before it
        wrote, and its prefix sum starts from 0 at the first position it
        reads, left[k - l]. Where that is the first position of the merged
        sort, as it is for every step once left[0] is, the sum adds the
        terms of the full run in its order, and the values have its bits;
        elsewhere they agree with it to within rounding."""
        start, left, right = self.start, self.left, self.right
        steps = len(right) - 1
        if teleport == 1.0 or steps == 0:
            return new.copy()
        rows = self.rows - start
        # the cone's stored rows from the stored lines, then its new rows;
        # "clip" maps the new rows' numbers, N and up, to a stored row
        h0 = stored.take(self.order, axis=1, mode="clip")
        h0[:, rows] = new
        # C(l - 1) of every step in one buffer whose column i is sorted
        # position f + i, f = left[k - 1] the first position that step 1
        # reads; each step writes the columns it reads before it reads them
        f = left[-1]
        c = np.empty((h0.shape[0], right[-1] - f + 1))
        lo, hi, d = self.lo - f, self.hi - f, self.values
        restart = teleport * h0
        z = h0[:, f - start:right[-1] - start]  # Z(0) where step 1 reads it
        for step in range(1, steps + 1):
            first, end = left[steps - step], right[steps - step + 1]
            at = (slice(left[steps - step - 1] - start,
                        right[steps - step] - start) if step < steps
                  else rows)
            c[:, first - f] = 0.0
            summed = c[:, first - f + 1:end - f + 1]
            np.multiply(d[first - start:end - start], z, out=summed)
            summed.cumsum(axis=1, out=summed)
            z = c.take(hi[at], axis=1, mode="clip")
            z -= c.take(lo[at], axis=1, mode="clip")
            z *= d[at]
            z *= 1.0 - teleport
            z += restart[:, at]
        return z


@dataclass(frozen=True)
class CandidateGraph:
    """One (feature, gamma) graph over the rows of ``column``, as
    ``build_adjacency`` made it.

    ``join(new, k)`` returns the part of the graph that ``build_adjacency``
    gives over the column with ``new`` appended, bit for bit, that k
    propagation steps read for the new rows: O(cone + m log(N + m)) rather
    than the O((N + m) log(N + m)) of sorting and searching all rows again.
    """

    feature: int
    gamma: float
    adjacency: SparseAdjacency
    edge_count: int  # undirected, self-loops not counted
    column: SortedColumn
    expert: bool = False

    def join(self, new_values: np.ndarray, steps: int) -> Cone:
        """The graph over the stored rows followed by ``new_values`` (at
        least one), on the cone of ``steps`` propagation steps from them
        and around the windows that hold a new row."""
        u = _finite_column(new_values)
        stored, v_sorted = self.column.order, self.column.values
        n, m, gamma = stored.size, u.size, self.gamma
        if m == 0:
            raise DataError("no new rows to join")
        lo, hi = self.adjacency.lo, self.adjacency.hi
        new_order = u.argsort(kind="stable")
        u_sorted = u[new_order]
        # new row j (in u_sorted order) lands after the ins[j] stored values
        # <= it
        ins = v_sorted.searchsorted(u_sorted, side="right")
        first, last = int(ins[0]), int(ins[-1])
        # Every window that holds a new row lies in [a, b + m): a new row's
        # window starts no earlier than that of the stored row just below
        # it and ends no later than that of the stored row just above it.
        # Outside that span the windows are the stored ones, shifted by m
        # right of the new rows.
        a = int(lo[first - 1]) if first else 0
        b = int(hi[last]) if last < n else n
        span = b + m - a
        # A stable sort of the stacked column puts stored rows before equal
        # new ones and keeps each part in its own stable order, as does a
        # stable sort of stored a..b followed by the new rows.
        stacked = np.concatenate([v_sorted[a:b], u_sorted])
        merge = stacked.argsort(kind="stable")
        order = np.concatenate([stored[a:b], n + new_order])[merge]
        # A stored window keeps its stored rows and takes in the new rows
        # between them. It ends at its first row past gamma, stored h (its
        # old end) or a new row in the gap just before h: at h plus the new
        # rows merged ahead of that row. No new row ahead of the gap is
        # past gamma and every one after it is, so the search runs over the
        # gap's new rows alone. ahead[t] counts the new rows ahead of
        # stored a + t; past b, all are.
        h = hi[a:b]
        ahead = np.bincount(ins - a, minlength=b - a + 1).cumsum()
        gap = np.minimum(h, b) - a
        stored_ends = h + _bisect(u_sorted, v_sorted[a:b], gamma,
                                  ahead[gap - 1], ahead[gap])
        at_new = ins + np.arange(m)  # the new rows' sorted positions
        new_ends = _ends(stacked[merge], gamma, at_new - a)
        new_ends += a
        ends = np.concatenate([stored_ends, new_ends])[merge]
        before = int(lo[a]) if n else 0  # the rows that end by a
        starts = _starts(np.concatenate([hi[before:a], ends]), a, span,
                         before)

        # The cone's bounds (``Cone.left`` and ``Cone.right``), walked on
        # the merged graph: left of a it is the stored one, and right of
        # b + m too, shifted by m.
        rows = np.empty(m, dtype=np.int64)
        rows[new_order] = at_new
        left, right = [int(starts[first - a])], [last + m]
        for _ in range(steps - 1):
            p = left[-1]
            left.append(int(lo[p]) if p < a else int(starts[p - a]))
        for _ in range(steps):
            q = right[-1]
            right.append(int(ends[q - 1 - a]) if q <= b + m
                         else int(hi[q - 1 - m]) + m)
        p, q = min(left[-1], a), max(right[-1], b + m)
        order = np.concatenate([stored[p:a], order, stored[b:q - m]])
        starts = np.concatenate([lo[p:a], starts, lo[b:q - m] + m])
        ends = np.concatenate([hi[p:a], ends, hi[b:q - m] + m])
        return Cone(p, order, starts, ends,
                    1.0 / np.sqrt(ends - starts), rows, tuple(left),
                    tuple(right))


def identity_adjacency(n: int) -> SparseAdjacency:
    """The edgeless graph: normalization reduces to the identity matrix."""
    pos = np.arange(n, dtype=np.int64)
    return SparseAdjacency(n, pos, pos, pos + 1, np.ones(n))


def graphs_of(X: np.ndarray):
    """``graph(j, gamma)``: ``build_adjacency`` of column j of X at gamma,
    built once per distinct (j, gamma) over one ``SortedColumn`` of
    column j, made on first use and also returned by ``graph.column(j)``.
    Threads may share it while no two of them ask for the same column."""
    columns: dict = {}
    graphs: dict = {}

    def column(j: int) -> SortedColumn:
        if j not in columns:
            columns[j] = SortedColumn.of(X[:, j])
        return columns[j]

    def graph(j: int, gamma: float) -> CandidateGraph:
        if (j, gamma) not in graphs:
            graphs[(j, gamma)] = build_adjacency(column(j), gamma, feature=j)
        return graphs[(j, gamma)]

    graph.column = column
    return graph


def _thread_count(workers: int, items: int) -> int:
    """The threads, the calling one included, that ``_map_threads`` runs
    ``items`` items on: ``min(workers, items, os.cpu_count())``, at least
    1."""
    if workers <= 1:  # os.cpu_count reads a file
        return 1
    return max(1, min(workers, items, os.cpu_count() or 1))


def _map_threads(fn, items: list, workers: int) -> list:
    """``[fn(item) for item in items]`` on up to ``workers`` threads.

    Items are handed out in order, one at a time, to whichever thread is
    free; the calling thread works too, so ``_thread_count`` - 1 threads
    start, none for ``workers`` 0 or 1. If a call raises, no further item
    is handed out; once every thread has finished, the error of the first
    failed item is raised. Every earlier item was handed out before it and
    has run to the end, so that is the error a serial loop raises.
    """
    threads = _thread_count(workers, len(items))
    if threads == 1:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    errors: dict = {}
    todo = iter(enumerate(items))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i, item = (None, None) if errors else next(todo, (None, None))
            if i is None:
                return
            try:
                results[i] = fn(item)
            except BaseException as exc:  # re-raised by the calling thread
                with lock:
                    errors[i] = exc
                return

    helpers = [threading.Thread(target=work, name=f"graphboost-worker-{n}")
               for n in range(1, threads)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def enumerate_candidates(X: np.ndarray,
                         expert_edges: list | tuple = (),
                         feature_names: list[str] | None = None,
                         feature_scales: np.ndarray | None = None,
                         seed: int = 0,
                         workers: int = 0) -> list[CandidateGraph]:
    """All 3M quantile candidates plus one per expert edge spec.

    Ordering: feature index ascending, then gamma ascending (duplicates
    kept), expert candidates appended last. Expert thresholds are given in
    raw feature units, must be non-negative (``inf`` links every pair) and
    are divided by ``feature_scales`` before use, unsnapped. Each distinct
    (feature, gamma) graph is built once; its repeats are that graph. Up
    to ``workers`` threads sort, threshold and build the features'
    quantile graphs, one feature at a time each; the list is the same at
    any value.
    """
    X = np.asarray(X, dtype=np.float64)
    n, m = X.shape
    if m < 1:
        raise DataError("need at least one feature")
    graph = graphs_of(X)

    def quantile_graphs(j: int) -> list:
        ts = quantile_thresholds(graph.column(j),
                                 seed=derive_seed(seed, "pairs", j),
                                 feature=j)
        return [graph(j, gamma) for gamma in ts.gammas]

    candidates = [c for graphs in _map_threads(quantile_graphs, range(m),
                                               workers) for c in graphs]
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
        threshold = float(threshold)
        if not threshold >= 0.0:
            raise DataError(f"expert edge threshold on feature {name!r} must "
                            f"be a non-negative number, got {threshold!r}")
        scale = 1.0 if feature_scales is None else float(feature_scales[j])
        gamma = threshold / (scale if scale > 0 else 1.0)
        candidates.append(replace(graph(j, gamma), expert=True))
    return candidates
