"""Graph module: quantile thresholds, sorted-window adjacency, normalization.

The window construction is checked against an O(N^2) brute-force edge
oracle, the normalized matrix against dense computation, and the
prefix-sum multiply against a scipy.sparse matrix built from the windows.
"""

import importlib.util
import math
import os
import sys
import threading

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from graphboost import graph
from graphboost.appnp import propagate
from graphboost.config import load_config
from graphboost.data import fit_encoder, gen_synthetic, split_rows
from graphboost.errors import DataError
from graphboost.graph import (QUANTILE_PS, GraphStack, SortedColumn,
                              build_adjacency, enumerate_candidates,
                              graphs_of, identity_adjacency,
                              quantile_thresholds)
from graphboost.pipeline import _prepare_dataset
from graphboost.rng import derive_seed, substream

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def brute_force_edges(values, gamma):
    """Reference edge set straight from the definition."""
    n = len(values)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= gamma:
                edges.add((i, j))
    return edges


def edges_of(cand):
    """Undirected edges (i < j) read straight off the sorted windows."""
    adj = cand.adjacency
    edges = set()
    for p in range(adj.n):
        i = int(adj.order[p])
        for q in range(adj.lo[p], adj.hi[p]):
            j = int(adj.order[q])
            if i < j:
                edges.add((i, j))
    return edges


def window_csr(adj):
    """The normalized adjacency as a scipy.sparse matrix, entry by entry
    from the windows: Ahat[order[p], order[q]] = values[p] * values[q]."""
    sizes = adj.hi - adj.lo
    first = np.repeat(adj.lo, sizes)
    offset = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    p = np.repeat(np.arange(adj.n), sizes)
    q = first + offset
    return scipy.sparse.csr_matrix(
        (adj.values[p] * adj.values[q], (adj.order[p], adj.order[q])),
        shape=(adj.n, adj.n))


def brute_force_normalized(values, gamma):
    n = len(values)
    a = np.zeros((n, n))
    for i, j in brute_force_edges(values, gamma):
        a[i, j] = a[j, i] = 1.0
    a += np.eye(n)
    dinv = np.diag(1.0 / np.sqrt(a.sum(axis=1)))
    return dinv @ a @ dinv


class TestQuantileThresholds:
    def test_constant_feature(self):
        ts = quantile_thresholds(np.zeros(4))
        assert ts.gammas == (0.0, 0.0, 0.0)

    def test_four_values(self):
        # pairwise diffs of [1,2,3,4] sorted: [1,1,1,2,2,3]; nearest-rank
        # lower quantiles at p = 1/16, 1/8, 1/4 all land on rank 1..2
        ts = quantile_thresholds(np.array([1.0, 2.0, 3.0, 4.0]))
        assert ts.gammas == (1.0, 1.0, 1.0)

    def test_single_pair(self):
        ts = quantile_thresholds(np.array([0.0, 10.0]))
        assert ts.gammas == (10.0, 10.0, 10.0)

    def test_matches_brute_force_quantiles(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            v = rng.normal(size=rng.integers(2, 40))
            diffs = sorted(abs(a - b) for i, a in enumerate(v)
                           for b in v[i + 1:])
            ts = quantile_thresholds(v)
            L = len(diffs)
            for got, p in zip(ts.gammas, (1 / 16, 1 / 8, 1 / 4)):
                want = diffs[max(int(np.ceil(p * L)), 1) - 1]
                assert got == want

    def test_nondecreasing(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            ts = quantile_thresholds(rng.normal(size=30))
            assert ts.gammas[0] <= ts.gammas[1] <= ts.gammas[2]

    def test_sampled_estimate_deterministic(self):
        # 800 values give 319,600 pairs, more than the cap: sampled
        v = np.random.default_rng(2).normal(size=800)
        a = quantile_thresholds(v, seed=3)
        b = quantile_thresholds(v, seed=3)
        assert a == b
        c = quantile_thresholds(v, seed=4)
        assert a != c  # different sample, almost surely

    def test_sampled_estimate_close_to_exact(self):
        v = np.random.default_rng(5).normal(size=800)
        iu = np.triu_indices(v.size, k=1)
        diffs = np.sort(np.abs(v[iu[0]] - v[iu[1]]))
        exact = [diffs[int(np.ceil(p * diffs.size)) - 1]
                 for p in (1 / 16, 1 / 8, 1 / 4)]
        for seed in (0, 1):
            approx = quantile_thresholds(v, seed=seed)
            for e, a in zip(exact, approx.gammas):
                assert abs(e - a) < 0.02

    def test_too_few_values(self):
        with pytest.raises(DataError):
            quantile_thresholds(np.array([1.0]))


def _sampled_quantiles(values, seed, feature):
    """The unsnapped thresholds of a column with more than
    ``DEFAULT_PAIR_CAP`` pairs, as they were drawn before thresholds took
    a sorted column: pairs of row indices of the raw column."""
    v = np.asarray(values, dtype=np.float64)
    rng = substream(seed, "pairs", feature)
    i = rng.integers(0, v.size, size=graph.DEFAULT_PAIR_CAP)
    j = rng.integers(0, v.size - 1, size=graph.DEFAULT_PAIR_CAP)
    diffs = np.sort(np.abs(v[i] - v[j + (j >= i)]))
    return [float(diffs[math.ceil(p * diffs.size) - 1]) for p in QUANTILE_PS]


@st.composite
def _level_columns(draw):
    """Integer levels k and the raw values of a CSV column of them: k
    itself, at an offset, or k / 10 written with one decimal, over a raw
    range that holds 0; with the values z-scored as the encoder does."""
    n = draw(st.integers(2, 60))
    decimal = draw(st.booleans())
    if decimal:
        low, high = draw(st.integers(-400, 0)), draw(st.integers(0, 400))
    else:
        low = draw(st.sampled_from([0, -7, 1000, -10**6, 2**40]))
        low += draw(st.integers(-30, 30))
        high = low + draw(st.integers(0, 40))
    levels = [low, high] + draw(st.lists(st.integers(low, high),
                                         min_size=n - 2, max_size=n - 2))
    levels = draw(st.permutations(levels))
    raw = np.array([float(f"{k}e-1") if decimal else float(k)
                    for k in levels])
    mean, sd = float(np.mean(raw)), float(np.std(raw, ddof=1))
    v = (raw - mean) / sd if sd > 0.0 else np.zeros(n)
    return np.array(levels), v


class TestSnappedThresholds:
    """A quantile threshold snaps to the widest realized gap within tau of
    it. On z-scored discrete columns its graph is then the graph of real
    arithmetic on the raw levels; on continuous columns it does not
    move."""

    @settings(max_examples=300, deadline=None)
    @given(_level_columns())
    def test_snapped_graph_is_the_real_arithmetic_graph(self, column):
        levels, v = column
        n = levels.size
        gaps = sorted(abs(int(a) - int(b)) for i, a in enumerate(levels)
                      for b in levels[i + 1:])
        column = SortedColumn.of(v)
        ts = quantile_thresholds(column)
        for gamma, p in zip(ts.gammas, QUANTILE_PS):
            real = gaps[max(math.ceil(p * len(gaps)), 1) - 1]
            want = {(i, j) for i in range(n) for j in range(i + 1, n)
                    if abs(int(levels[i]) - int(levels[j])) <= real}
            # the windows that the snap searched are those of a new search
            got, fresh = build_adjacency(column, gamma), build_adjacency(v,
                                                                         gamma)
            assert got.adjacency.hi is column.ends[gamma]
            for name in ("order", "lo", "hi", "values"):
                assert_same_bits(getattr(got.adjacency, name),
                                 getattr(fresh.adjacency, name))
            assert edges_of(got) == want

    @settings(max_examples=200, deadline=None)
    @given(_level_columns())
    def test_snap_is_idempotent_and_monotone_in_p(self, column):
        _, v = column
        column = SortedColumn.of(v)
        iu = np.triu_indices(v.size, k=1)
        diffs = np.sort(column.values[iu[1]] - column.values[iu[0]])
        snapped = []
        for p in (1 / 64, *QUANTILE_PS, 1 / 2, 3 / 4, 1.0):
            gamma = float(diffs[max(math.ceil(p * diffs.size), 1) - 1])
            snapped.append(graph._snap(column, gamma))
            assert snapped[-1] >= gamma
            assert graph._snap(column, snapped[-1]) == snapped[-1]
        assert snapped == sorted(snapped)

    def test_wide_levels_one_ulp_apart_merge(self):
        # 16 levels z-scored: the 1/8 and 1/4 quantiles are both "one
        # level" but read different gaps, so their graphs differed
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 16, size=400).astype(float)
        v = (raw - raw.mean()) / raw.std(ddof=1)
        column = SortedColumn.of(v)
        iu = np.triu_indices(v.size, k=1)
        one_level = np.abs(raw[iu[0]] - raw[iu[1]]) == 1.0
        realized = np.unique(np.abs(v[iu[0]] - v[iu[1]])[one_level])
        assert realized.size > 1
        for gamma in realized:
            snapped = graph._snap(column, float(gamma))
            assert snapped == realized[-1]
            assert build_adjacency(column, snapped).edge_count == np.sum(
                np.abs(raw[iu[0]] - raw[iu[1]]) <= 1.0)

    def test_sampled_pairs_are_drawn_by_row(self):
        # the sorted column's sampled quantiles are those of the raw one
        rng = np.random.default_rng(2)
        for n in (448, 800, 2000):
            v = rng.normal(size=n)
            for seed in (0, 7):
                assert graph._pair_quantiles(SortedColumn.of(v), seed, 3) \
                    == _sampled_quantiles(v, seed, 3)

    @staticmethod
    def _unmoved(x, seed):
        """Per feature of x, its snapped and unsnapped gammas under the
        fit seed ``seed``, as ``enumerate_candidates`` draws them."""
        for j in range(x.shape[1]):
            column = SortedColumn.of(x[:, j])
            draw = derive_seed(derive_seed(seed, "graphs"), "pairs", j)
            yield (quantile_thresholds(column, draw, j).gammas,
                   tuple(graph._pair_quantiles(column, draw, j)))

    def test_criterion_09_gammas_do_not_move(self):
        pairs = []
        for seed in range(5):
            table, labels = gen_synthetic(2000, 10, 2, 0.0, seed=seed)
            tags = split_rows(2000, (0.7, 0.15, 0.15), seed, labels)
            ds, _ = fit_encoder(table, labels, tags)
            pairs += self._unmoved(ds.X, seed)
        assert len(pairs) * 3 == 150
        for snapped, unsnapped in pairs:
            assert snapped == unsnapped

    @pytest.mark.parametrize("workload", ["fit-continuous", "predict"])
    def test_benchmark_cohort_gammas_do_not_move(self, workload, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "perfbench_cohorts", os.path.join(ROOT, "perfbench",
                                              "cohorts.py"))
        cohorts = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cohorts)
        if workload == "predict":
            seed = cohorts.PREDICT_COHORT_SEED
            header, rows, labels, _, _ = cohorts.predict_rows(1, 0)
        else:
            seed = cohorts.FIT_COHORT_SEED
            header, rows, labels = cohorts.continuous_rows(
                cohorts.N_COHORT, cohorts.N_FEATURES, seed)
        data, config = tmp_path / "cohort.csv", tmp_path / "fit.cfg"
        cohorts.write_csv(str(data), header, rows, labels)
        cohorts.write_config(str(config), str(data), seed, {}, 1, 0, None,
                             "m.gbe", "r.json")
        x = _prepare_dataset(load_config(str(config))).X
        for snapped, unsnapped in self._unmoved(x, seed):
            assert snapped == unsnapped


class TestBuildAdjacency:
    def test_small_example(self):
        cand = build_adjacency(np.array([1.0, 2.0, 5.0]), 1.5)
        assert edges_of(cand) == {(0, 1)}
        assert cand.edge_count == 1

    def test_gamma_zero_distinct(self):
        cand = build_adjacency(np.array([3.0, 1.0, 2.0]), 0.0)
        assert cand.edge_count == 0
        np.testing.assert_array_equal(cand.adjacency.to_dense(), np.eye(3))

    def test_gamma_zero_ties_complete(self):
        cand = build_adjacency(np.zeros(3), 0.0)
        assert edges_of(cand) == {(0, 1), (0, 2), (1, 2)}

    def test_max_diff_gives_complete_graph(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=20)
        gamma = float(np.max(v) - np.min(v))
        cand = build_adjacency(v, gamma)
        assert cand.edge_count == 20 * 19 // 2

    def test_bad_gamma_rejected(self):
        for gamma in (-0.5, float("nan")):
            with pytest.raises(DataError, match="gamma"):
                build_adjacency(np.zeros(3), gamma)

    def test_windows_are_symmetric_and_hold_their_row(self):
        rng = np.random.default_rng(4)
        v = np.round(rng.normal(size=200), 1)
        adj = build_adjacency(v, 0.3).adjacency
        pos = np.arange(adj.n)
        assert np.all((adj.lo <= pos) & (pos < adj.hi))
        assert np.all(np.diff(adj.lo) >= 0) and np.all(np.diff(adj.hi) >= 0)
        np.testing.assert_array_equal(adj.values, 1.0 / np.sqrt(adj.hi - adj.lo))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        # mix continuous values with heavy ties, z-scored integer levels,
        # whose equal raw gaps differ in the last bit, values at 1e+-300,
        # subnormal levels and Cauchy tails
        style = rng.random()
        if style < 0.25:
            v = rng.normal(size=n)
        elif style < 0.45:
            v = rng.integers(0, 4, size=n).astype(float)
        elif style < 0.65:
            raw = rng.integers(0, 30, size=n).astype(float)
            v = (raw - raw.mean()) / (raw.std() + 0.1)
        elif style < 0.75:
            v = rng.normal(size=n) * 10.0 ** rng.choice([-300, 300])
        elif style < 0.85:
            v = rng.integers(0, 30, size=n) * 5e-324
        else:
            v = rng.standard_cauchy(size=n)
        diffs = np.abs(v[:, None] - v[None, :])
        pool = np.unique(diffs)
        gamma = float(rng.choice(pool)) if rng.random() < 0.7 else \
            float(rng.uniform(0, pool.max() + 0.1))
        if rng.random() < 0.3:  # one ulp either side of a pair's difference
            gamma = float(np.nextafter(gamma, rng.choice([0.0, np.inf])))
        cand = build_adjacency(v, gamma)
        assert edges_of(cand) == brute_force_edges(v, gamma)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_gamma(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=30)
        g1, g2 = sorted(rng.uniform(0, 3, size=2))
        e1 = edges_of(build_adjacency(v, g1))
        e2 = edges_of(build_adjacency(v, g2))
        assert e1 <= e2


class TestNormalization:
    def test_no_edges_identity(self):
        adj = build_adjacency(np.array([0.0, 1.0]), 0.5).adjacency
        np.testing.assert_array_equal(adj.to_dense(), np.eye(2))

    def test_single_edge(self):
        adj = build_adjacency(np.array([0.0, 1.0]), 1.0).adjacency
        np.testing.assert_allclose(adj.to_dense(),
                                   [[0.5, 0.5], [0.5, 0.5]])

    def test_path_graph(self):
        # rows given out of order, so the sort permutation is exercised
        adj = build_adjacency(np.array([1.0, 2.0, 0.0]), 1.0).adjacency
        dense = adj.to_dense()
        s6 = 1.0 / np.sqrt(6.0)
        expected = np.array([[1 / 3, s6, s6],
                             [s6, 0.5, 0.0],
                             [s6, 0.0, 0.5]])
        np.testing.assert_allclose(dense, expected, atol=1e-15)

    def test_identity_helper(self):
        np.testing.assert_array_equal(identity_adjacency(4).to_dense(),
                                      np.eye(4))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        v = rng.normal(size=n) if rng.random() < 0.5 else \
            rng.integers(0, 3, size=n).astype(float)
        gamma = float(rng.uniform(0, 2))
        cand = build_adjacency(v, gamma)
        np.testing.assert_allclose(cand.adjacency.to_dense(),
                                   brute_force_normalized(v, gamma),
                                   atol=1e-14)

    def test_exact_symmetry_and_eigen_relation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 120))
            v = rng.normal(size=n)
            cand = build_adjacency(v, float(rng.uniform(0, 2)))
            dense = cand.adjacency.to_dense()
            assert np.array_equal(dense, dense.T)  # identical stored values
            s = np.sqrt(cand.adjacency.degrees() + 1.0)
            np.testing.assert_allclose(cand.adjacency.matmul(s), s,
                                       rtol=0, atol=1e-9 * np.max(s))

    def test_matmul_matches_dense(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=50)
        adj = build_adjacency(v, 0.5).adjacency
        dense = adj.to_dense()
        for z in (rng.normal(size=(50, 3)), rng.normal(size=50)):
            np.testing.assert_allclose(adj.matmul(z), dense @ z, atol=1e-12)

    def test_prefix_sums_accurate_at_scale(self):
        # Offset inputs make the prefix sums large next to each window's
        # sum, which is where cancellation error would show.
        rng = np.random.default_rng(9)
        n = 100_000
        adj = build_adjacency(rng.normal(size=n), 5e-4).adjacency
        z = 50.0 + rng.normal(size=(n, 2))
        ref = window_csr(adj) @ z
        err = np.max(np.abs(adj.matmul(z) - ref))
        assert err <= 1e-10 * np.max(np.abs(ref))


def matmul_steps(adj, h, teleport, steps):
    """k steps of the recurrence by repeated one-graph multiplies."""
    want = h.copy()
    if teleport < 1.0:
        for _ in range(steps):
            want = adj.matmul(want)
            want *= 1.0 - teleport
            want += teleport * h
    return want


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestGraphStack:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 5), st.integers(1, 300),
           st.integers(0, 5), st.sampled_from([0.1, 0.35, 1.0]),
           st.integers(0, 2**32 - 1))
    def test_equals_repeated_matmul_bit_for_bit(self, c, w, n, steps,
                                                teleport, seed):
        # W lines on each of C graphs of one row set, with and without
        # edges, out of row order; W = 0 is the K = 1 case. Each line must
        # equal k one-graph multiplies on its own graph exactly, and the
        # prefix sums the run leaves must be those of each step's input.
        rng = np.random.default_rng(seed)
        graphs = [build_adjacency(rng.integers(0, 6, size=n) * rng.normal(),
                                  float(rng.uniform(0.0, 1.0))).adjacency
                  for _ in range(c)]
        if rng.random() < 0.25:
            graphs[-1] = identity_adjacency(n)
        stack = GraphStack(graphs)
        # C * N window indices whatever W is
        assert stack._hi.size == stack._lo.size == stack._rows.size == c * n
        h0 = rng.normal(size=(c, n, w))
        frame = stack.to_frame(h0)
        # line-major, each graph's rows in its sorted order
        assert frame.shape == (w, c, n)
        for g, adj in enumerate(graphs):
            np.testing.assert_array_equal(frame[:, g], h0[g][adj.order].T)
        kept = frame.copy()
        z = stack.run(frame, teleport, steps)
        np.testing.assert_array_equal(frame, kept)  # run leaves H0 alone
        got = stack.from_frame(z)
        assert got.flags.c_contiguous
        for g, adj in enumerate(graphs):
            assert_same_bits(got[g], matmul_steps(adj, h0[g], teleport,
                                                  steps))
        if teleport < 1.0:
            prefixes = np.full((steps, w, c, n + 1), np.nan)
            assert_same_bits(stack.run(frame, teleport, steps, prefixes), z)
            np.testing.assert_array_equal(frame, kept)
            dinv = np.stack([adj.values for adj in graphs])
            for step in range(steps):
                src = stack.run(frame, teleport, step)
                want = np.zeros((w, c, n + 1))
                np.cumsum(dinv * src, axis=2, out=want[..., 1:])
                assert_same_bits(prefixes[step], want)
        # round trips keep values and dtype, for lines and per-row values
        assert_same_bits(stack.from_frame(frame), h0)
        codes = rng.integers(0, 256, size=(c, n, w)).astype(np.uint8)
        back = stack.from_frame(stack.to_frame(codes))
        assert back.dtype == np.uint8
        np.testing.assert_array_equal(back, codes)
        labels = codes[..., 0] if w else np.zeros((c, n), dtype=np.uint8)
        per_row = stack.from_frame(labels)
        assert per_row.dtype == np.uint8
        for g, adj in enumerate(graphs):
            np.testing.assert_array_equal(per_row[g, adj.order], labels[g])
        with pytest.raises(DataError):
            stack.run(np.zeros((w, c + 1, n)), teleport, steps)
        with pytest.raises(DataError):
            stack.to_frame(np.zeros((c, n + 1, w)))
        with pytest.raises(DataError):
            stack.from_frame(np.zeros((c, n + 1)))

    def test_mismatched_shapes_rejected(self):
        graphs = [identity_adjacency(5), identity_adjacency(5)]
        stack = GraphStack(graphs)
        for operand in (np.zeros((1, 5, 2)), np.zeros((2, 4, 2)),
                        np.zeros((2, 5))):
            with pytest.raises(DataError):
                stack.to_frame(operand)
        for frame in (np.zeros((2, 5, 2)), np.zeros((2, 5)),
                      np.zeros((1, 1, 2, 5))):
            with pytest.raises(DataError):
                stack.run(frame, 0.1, 2)
        for frame in (np.zeros((2, 2, 4)), np.zeros((5, 2)),
                      np.zeros((1, 1, 2, 5))):
            with pytest.raises(DataError):
                stack.from_frame(frame)
        with pytest.raises(DataError):
            GraphStack([identity_adjacency(5), identity_adjacency(6)])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 30), st.integers(1, 4),
           st.sampled_from([0.1, 0.35, 1.0]), st.integers(0, 5),
           st.integers(0, 2**32 - 1))
    def test_frame_steps_compose_to_propagate(self, c, n, width, teleport,
                                              steps, seed):
        # to_frame, run and from_frame on C graphs give, graph by graph,
        # the bits of appnp.propagate on that graph alone.
        rng = np.random.default_rng(seed)
        graphs = [build_adjacency(rng.integers(0, 4, size=n) * rng.normal(),
                                  float(rng.uniform(0.0, 1.0))).adjacency
                  for _ in range(c)]
        stack = GraphStack(graphs)
        h0 = rng.normal(size=(c, n, width))
        got = stack.from_frame(stack.run(stack.to_frame(h0), teleport, steps))
        for g, adj in enumerate(graphs):
            assert_same_bits(got[g], propagate(h0[g], adj, teleport, steps))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 300),
           st.sampled_from([0.1, 0.35, 1.0]), st.integers(0, 4),
           st.integers(0, 2**32 - 1))
    def test_one_graph_of_c_w_lines_equals_c_copies(self, c, width, n,
                                                    teleport, steps, seed):
        # Prediction propagates the C * W lines of C learners on one graph
        # as one stack of one graph; each line must keep the bits of the
        # stack of C copies of that graph.
        rng = np.random.default_rng(seed)
        adj = build_adjacency(rng.integers(0, 6, size=n) * rng.normal(),
                              float(rng.uniform(0.0, 1.0))).adjacency
        h0 = rng.normal(size=(c, n, width))
        copies = GraphStack([adj] * c)
        want = copies.run(copies.to_frame(h0), teleport, steps)  # (W, C, N)
        one = GraphStack([adj])
        lines = h0.transpose(1, 0, 2).reshape(1, n, c * width)
        got = one.run(one.to_frame(lines), teleport, steps)  # (C * W, 1, N)
        assert_same_bits(got.reshape(c, width, n).transpose(1, 0, 2), want)


class TestRunLines:
    """``GraphStack.run`` on one graph's lines, and ``Cone.run`` at the new
    rows of a graph joined with them, against the full run."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 300), st.integers(1, 40),
           st.sampled_from([0.1, 0.35, 1.0]), st.integers(0, 4),
           st.sampled_from(["levels", "spread", "below", "above"]),
           st.integers(0, 2**32 - 1))
    def test_equals_one_graph_stack_at_asked_positions(
            self, width, n, m, teleport, steps, where, seed):
        # Prediction propagates a group's W lines on the cone of the new
        # rows only, seeded from the prefix sums of the stored rows' run;
        # each value at a new row must keep the bits of the full run of
        # the one-graph stack over the stored rows and the new ones.
        rng = np.random.default_rng(seed)
        scale = rng.normal()
        stored = rng.integers(0, 6, size=n) * scale
        new = {"levels": rng.integers(-1, 7, size=m) * scale,
               "spread": rng.normal(size=m) * 4.0,
               "below": stored.min() - rng.uniform(0.0, 2.0, size=m),
               "above": stored.max() + rng.uniform(0.0, 2.0, size=m)}[where]
        gamma = float(rng.uniform(0.0, 1.0))
        built = build_adjacency(stored, gamma)
        lines = rng.normal(size=(width, n + m))
        one = GraphStack([built.adjacency])
        prefixes = np.empty((steps, width, 1, n + 1))
        kept = lines.copy()
        one.run(one.to_frame(lines[:, :n].T[None]), teleport, steps,
                prefixes)
        cone = built.join(new, steps)
        got = cone.run(prefixes.reshape(steps, width, n + 1), lines[:, :n],
                       lines[:, n:], teleport)
        np.testing.assert_array_equal(lines, kept)  # H0 is left alone
        full = GraphStack([build_adjacency(np.concatenate([stored, new]),
                                           gamma).adjacency])
        want = full.from_frame(full.run(full.to_frame(lines.T[None]),
                                        teleport, steps))[0].T
        assert_same_bits(got, want[:, n:])

    def test_mismatched_shape_rejected(self):
        stack = GraphStack([identity_adjacency(5)])
        for frame in (np.zeros((2, 4)), np.zeros((2, 1, 4)),
                      np.zeros((2, 2, 5))):
            with pytest.raises(DataError):
                stack.run(frame, 0.1, 2)


def joined(stored, new, gamma, steps=3):
    return build_adjacency(stored, gamma).join(new, steps)


def assert_same_region(cone, want, steps=3):
    """The cone's region of the joined graph against ``want``, the
    adjacency over the stacked column: every field bit for bit, and a
    region that holds the cone of ``steps`` steps."""
    region = slice(cone.start, cone.start + cone.order.size)
    assert region.stop <= want.n
    for name in ("order", "lo", "hi", "values"):
        a, b = getattr(cone, name), getattr(want, name)[region]
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    new = np.flatnonzero(want.order >= want.n - cone.rows.size)
    np.testing.assert_array_equal(np.sort(cone.rows), new)
    np.testing.assert_array_equal(want.order[cone.rows] - want.n
                                  + cone.rows.size,
                                  np.arange(cone.rows.size))
    assert len(cone.right) == steps + 1
    assert len(cone.left) == max(steps, 1)
    assert cone.start <= min(cone.left) and max(cone.right) <= region.stop


class TestStoredGraph:
    """``CandidateGraph.join`` against its oracle: ``build_adjacency`` over
    the stacked column, compared field by field and bit for bit over the
    join's region."""

    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(["normal", "levels", "zscored", "scaled",
                            "subnormal", "cauchy"]),
           st.sampled_from(["stored", "below", "above", "spread"]),
           st.sampled_from(["none", "one", "some", "more_than_stored"]),
           st.sampled_from(["pair", "ulp_below", "ulp_above", "zero", "inf",
                            "uniform"]))
    @settings(max_examples=300, deadline=None)
    def test_join_equals_build_over_stacked_column(self, seed, style, where,
                                                    count, gamma_kind):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        m = {"none": 0, "one": 1, "some": int(rng.integers(2, n + 2)),
             "more_than_stored": int(rng.integers(n + 1, 2 * n + 5))}[count]

        scale = 10.0 ** rng.choice([-300, 300])

        def draw(size):
            if style == "normal":
                return rng.normal(size=size)
            if style == "levels":  # heavy ties
                return rng.integers(0, 4, size=size).astype(float)
            if style == "scaled":
                return rng.normal(size=size) * scale
            if style == "subnormal":
                return rng.integers(0, 30, size=size) * 5e-324
            if style == "cauchy":
                return rng.standard_cauchy(size=size)
            # z-scored integer levels: equal raw gaps differ in the last bit
            return (rng.integers(0, 30, size=size) - 14.5) / 7.3

        stored = draw(n)
        if where == "stored":  # ties with stored values, new values repeated
            new = rng.choice(stored, size=m)
        else:
            new = draw(m)
            if where == "below":
                new = new - (np.ptp(stored) + 3.0)
            elif where == "above":
                new = new + (np.ptp(stored) + 3.0)
            else:
                new = new * 2.0
        stacked = np.concatenate([stored, new])
        pool = np.unique(np.abs(stacked[:, None] - stacked[None, :]))
        gamma = {"zero": 0.0, "inf": np.inf,
                 "uniform": float(rng.uniform(0.0, pool.max() + 0.1))}.get(
            gamma_kind, float(rng.choice(pool)))
        if gamma_kind.startswith("ulp"):
            gamma = float(np.nextafter(
                gamma, 0.0 if gamma_kind == "ulp_below" else np.inf))
        if m == 0:
            with pytest.raises(DataError, match="no new rows"):
                joined(stored, new, gamma)
            return
        for steps in (0, 1, 3):
            assert_same_region(joined(stored, new, gamma, steps),
                               build_adjacency(stacked, gamma).adjacency,
                               steps)

    def test_zscored_levels_at_ulp_adjacent_gammas(self):
        # After z-scoring, integer levels one apart differ by one of a few
        # floats an ulp or two apart (four here); gammas at and one ulp
        # around each link a different subset of the level pairs.
        raw = np.random.default_rng(7).integers(0, 12, size=90).astype(float)
        v = (raw - raw.mean()) / raw.std()
        one_level = np.unique(np.abs(np.diff(np.unique(v))))
        gammas = set()
        for g in one_level:
            gammas.update((g, np.nextafter(g, 0.0), np.nextafter(g, np.inf)))
        for gamma in sorted(gammas):
            for cut in (0, 1, 45, 89):
                assert_same_region(joined(v[:cut], v[cut:], gamma),
                                   build_adjacency(v, gamma).adjacency)

    def test_non_finite_new_value_rejected(self):
        graph = build_adjacency(np.arange(5.0), 1.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DataError, match="non-finite feature values"):
                graph.join(np.array([0.5, bad]), 3)


class TestSortedColumn:
    """``graphs_of`` builds over one ``SortedColumn`` per feature; its
    graphs must equal ``build_adjacency`` on the raw column, which sorts
    the column itself."""

    @staticmethod
    def _matrix():
        rng = np.random.default_rng(11)
        levels = rng.integers(0, 12, size=120).astype(float)
        return np.column_stack([
            levels,  # heavy ties
            (levels - levels.mean()) / levels.std(),  # z-scored levels
            rng.normal(size=120)])

    @staticmethod
    def _gammas(column):
        gaps = np.unique(np.abs(np.diff(np.unique(column))))
        gammas = {0.0, np.inf, *quantile_thresholds(column).gammas}
        for g in gaps[:3]:  # one-level gaps an ulp or two apart, z-scored
            gammas.update((g, np.nextafter(g, 0.0), np.nextafter(g, np.inf)))
        return sorted(float(g) for g in gammas)

    def test_graphs_equal_build_on_the_raw_column(self):
        x = self._matrix()
        graph_of = graphs_of(x)
        for j in range(x.shape[1]):
            for gamma in self._gammas(x[:, j]):
                got = graph_of(j, gamma)
                want = build_adjacency(x[:, j], gamma, feature=j)
                assert (got.feature, got.gamma, got.edge_count,
                        got.expert) == (want.feature, want.gamma,
                                        want.edge_count, want.expert)
                for name in ("order", "values"):
                    a, b = (getattr(g.column, name) for g in (got, want))
                    assert a.dtype == b.dtype, name
                    np.testing.assert_array_equal(a, b, err_msg=name)
                assert got.adjacency.n == want.adjacency.n
                for name in ("order", "lo", "hi", "values"):
                    a, b = (getattr(g.adjacency, name) for g in (got, want))
                    assert a.dtype == b.dtype, name
                    np.testing.assert_array_equal(a, b, err_msg=name)
                assert got.adjacency.order is got.column.order
                assert graph_of(j, gamma) is got

    def test_one_sort_per_feature_per_call(self, monkeypatch):
        x = self._matrix()
        sorted_columns = []
        of = SortedColumn.of

        def counting(values):
            sorted_columns.append(np.array(values))
            return of(values)

        monkeypatch.setattr(SortedColumn, "of", counting)
        for _ in range(2):
            sorted_columns.clear()
            cands = enumerate_candidates(x, expert_edges=[(1, 0.0),
                                                          (2, np.inf)])
            assert len(sorted_columns) == x.shape[1]
            for j, column in enumerate(sorted_columns):
                np.testing.assert_array_equal(column, x[:, j])
            for c in cands:
                assert c.column is cands[3 * c.feature].column

    def test_non_finite_column_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DataError, match="non-finite feature values"):
                SortedColumn.of(np.array([0.0, bad, 1.0]))

    @pytest.mark.parametrize("workers", [0, 1, 2, 3, 8])
    def test_threads_enumerate_as_one_thread(self, workers, monkeypatch):
        # 600 rows sample their pairs; each of the 4 features is sorted
        # once, on whichever thread takes it, and the list is the serial
        # one
        rng = np.random.default_rng(12)
        levels = rng.integers(0, 16, size=600).astype(float)
        x = np.column_stack([levels, (levels - levels.mean()) / levels.std(),
                             rng.normal(size=600), np.zeros(600)])
        experts = [(1, 0.0), (2, np.inf), (0, 1.0)]
        serial = enumerate_candidates(x, expert_edges=experts, seed=4)
        sorted_columns, started = [], []
        of = SortedColumn.of

        def counting(values):
            sorted_columns.append(np.array(values))
            return of(values)

        class Counting(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(SortedColumn, "of", counting)
        monkeypatch.setattr(threading, "Thread", Counting)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        # threads that switch as often as they can would expose a graph
        # lost from the shared cache or put in the wrong place
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = enumerate_candidates(x, expert_edges=experts, seed=4,
                                       workers=workers)
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == min(max(workers, 1), x.shape[1]) - 1
        assert len(sorted_columns) == x.shape[1]
        for j in range(x.shape[1]):
            assert sum(np.array_equal(c, x[:, j]) for c in sorted_columns) \
                == 1
        assert [(c.feature, c.gamma, c.expert, c.edge_count) for c in got] \
            == [(c.feature, c.gamma, c.expert, c.edge_count) for c in serial]
        pairs = [(c.feature, c.gamma) for c in got]
        for c, want in zip(got, serial):
            for name in ("order", "lo", "hi", "values"):
                assert_same_bits(getattr(c.adjacency, name),
                                 getattr(want.adjacency, name))
            assert_same_bits(c.column.values, want.column.values)
            first = got[pairs.index((c.feature, c.gamma))]
            assert c.adjacency is first.adjacency
            assert c.column is got[3 * c.feature].column


class TestEnumerateCandidates:
    def test_three_per_feature(self):
        x = np.random.default_rng(0).normal(size=(30, 2))
        cands = enumerate_candidates(x)
        assert len(cands) == 6
        assert [c.feature for c in cands] == [0, 0, 0, 1, 1, 1]
        for j in (0, 1):
            gs = [c.gamma for c in cands if c.feature == j]
            assert gs == sorted(gs)

    def test_constant_feature_complete_graphs(self):
        x = np.zeros((10, 1))
        cands = enumerate_candidates(x)
        assert len(cands) == 3
        for c in cands:
            assert c.edge_count == 45

    def test_repeats_built_once_and_share_the_graph(self, monkeypatch):
        # Integer levels tie the 1/16 and 1/8 quantiles at 0, and the
        # expert edge repeats gamma 0: 4 of 7 pairs are distinct.
        rng = np.random.default_rng(4)
        x = np.column_stack([rng.integers(0, 5, size=80).astype(float),
                             rng.normal(size=80)])
        builds = []
        build = graph.build_adjacency

        def counting(values, gamma, *args, **kwargs):
            builds.append(gamma)
            return build(values, gamma, *args, **kwargs)

        monkeypatch.setattr(graph, "build_adjacency", counting)
        cands = enumerate_candidates(x, expert_edges=[(0, 0.0)])
        pairs = [(c.feature, c.gamma) for c in cands]
        assert len(cands) == 7 and len(builds) == len(set(pairs)) < 7
        assert cands[-1].expert and not cands[0].expert
        for c in cands:
            first = cands[pairs.index((c.feature, c.gamma))]
            assert c.adjacency is first.adjacency
            assert c.edge_count == first.edge_count
            assert edges_of(c) == edges_of(build(x[:, c.feature], c.gamma))

    def test_expert_threshold_rescaled(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(0.0, 2.0, size=40)
        sd = float(np.std(raw, ddof=1))
        standardized = (raw - raw.mean()) / sd
        x = standardized[:, None]
        cands = enumerate_candidates(x, expert_edges=[("age", 5.0)],
                                     feature_names=["age"],
                                     feature_scales=np.array([sd]))
        assert len(cands) == 4
        expert = cands[-1]
        assert expert.expert
        # threshold 5.0 in raw units == 5.0/sd on the standardized column
        assert edges_of(expert) == brute_force_edges(raw, 5.0)

    def test_expert_appended_last_and_counted(self):
        x = np.random.default_rng(2).normal(size=(25, 3))
        base = enumerate_candidates(x)
        plus = enumerate_candidates(x, expert_edges=[(1, 0.5)])
        assert len(plus) == len(base) + 1
        assert plus[-1].expert and plus[-1].feature == 1

    @pytest.mark.parametrize("name", ["age", 0])
    @pytest.mark.parametrize("threshold", [-1.0, float("nan"), -1e-300])
    def test_expert_threshold_checked_before_scaling(self, name, threshold):
        # the error names the feature and the raw value, not the scaled one
        x = np.random.default_rng(5).normal(size=(20, 1))
        with pytest.raises(DataError) as info:
            enumerate_candidates(x, expert_edges=[(name, threshold)],
                                 feature_names=["age"],
                                 feature_scales=np.array([0.25]))
        assert str(info.value) == (
            f"expert edge threshold on feature {name!r} must be a "
            f"non-negative number, got {threshold!r}")

    def test_infinite_expert_threshold_links_every_pair(self):
        x = np.random.default_rng(6).normal(size=(20, 1))
        cands = enumerate_candidates(x, expert_edges=[("age", np.inf)],
                                     feature_names=["age"],
                                     feature_scales=np.array([0.25]))
        assert cands[-1].expert and cands[-1].edge_count == 20 * 19 // 2

    def test_expert_unknown_name(self):
        x = np.zeros((10, 1))
        with pytest.raises(DataError, match="not found"):
            enumerate_candidates(x, expert_edges=[("nope", 1.0)],
                                 feature_names=["v"])

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(3).normal(size=(600, 2))
        a = enumerate_candidates(x, seed=5)
        b = enumerate_candidates(x, seed=5)
        assert [c.gamma for c in a] == [c.gamma for c in b]
