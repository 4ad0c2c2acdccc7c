"""Graph module: quantile thresholds, sorted-window adjacency, normalization.

The window construction is checked against an O(N^2) brute-force edge
oracle, the normalized matrix against dense computation, and the
prefix-sum multiply against a scipy.sparse matrix built from the windows.
"""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from graphboost import graph
from graphboost.errors import DataError
from graphboost.graph import (GraphStack, StoredGraph, build_adjacency,
                              enumerate_candidates, identity_adjacency,
                              quantile_thresholds)


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


class TestGraphStack:
    def test_equals_repeated_matmul_bit_for_bit(self):
        # Graphs of one row set, with and without edges and out of row
        # order; each slice must equal k one-graph multiplies exactly.
        rng = np.random.default_rng(10)
        n = 40
        v = rng.normal(size=n)
        graphs = [build_adjacency(v, g).adjacency for g in (0.0, 0.3, 1.5)]
        graphs.append(identity_adjacency(n))
        graphs.append(build_adjacency(rng.integers(0, 3, size=n) * 1.0,
                                      0.0).adjacency)
        for width, teleport, steps in ((2, 0.1, 3), (1, 0.5, 1), (3, 0.2, 7),
                                       (2, 1.0, 4), (2, 0.3, 0)):
            h0 = rng.normal(size=(len(graphs), n, width))
            got = GraphStack(graphs, width).propagate(h0, teleport, steps)
            for adj, h, z in zip(graphs, h0, got):
                want = h.copy()
                if teleport < 1.0:
                    for _ in range(steps):
                        want = adj.matmul(want)
                        want *= 1.0 - teleport
                        want += teleport * h
                np.testing.assert_array_equal(z, want)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 30), st.integers(1, 4),
           st.sampled_from([0.1, 0.35, 1.0]), st.integers(0, 5),
           st.integers(0, 2**32 - 1))
    def test_frame_steps_compose_to_propagate(self, c, n, width, teleport,
                                              steps, seed):
        rng = np.random.default_rng(seed)
        graphs = [build_adjacency(rng.integers(0, 4, size=n) * rng.normal(),
                                  float(rng.uniform(0.0, 1.0))).adjacency
                  for _ in range(c)]
        stack = GraphStack(graphs, width)
        h0 = rng.normal(size=(c, n, width))
        frame = stack.to_frame(h0)
        # class-major, each graph's rows in its sorted order
        for g, adj in enumerate(graphs):
            np.testing.assert_array_equal(frame[g], h0[g][adj.order].T)
        kept = frame.copy()
        z = stack.run(frame, teleport, steps)
        np.testing.assert_array_equal(frame, kept)  # run leaves H0 alone
        got = stack.from_frame(z)
        want = stack.propagate(h0, teleport, steps)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(stack.from_frame(frame), h0)
        # per-row values, such as labels, keep their dtype
        rows = np.arange(c * n).reshape(c, n)
        per_row = stack.from_frame(frame[:, 0].copy())
        np.testing.assert_array_equal(per_row, h0[:, :, 0])
        positions = stack.from_frame(rows)
        assert positions.dtype == rows.dtype
        for g, adj in enumerate(graphs):
            np.testing.assert_array_equal(positions[g, adj.order], rows[g])

    def test_mismatched_shapes_rejected(self):
        graphs = [identity_adjacency(5), identity_adjacency(5)]
        stack = GraphStack(graphs, 2)
        with pytest.raises(DataError):
            stack.propagate(np.zeros((2, 5, 3)), 0.1, 2)
        with pytest.raises(DataError):
            stack.propagate(np.zeros((1, 5, 2)), 0.1, 2)
        with pytest.raises(DataError):
            stack.run(np.zeros((2, 5, 2)), 0.1, 2)
        with pytest.raises(DataError):
            stack.from_frame(np.zeros((2, 2, 4)))
        with pytest.raises(DataError):
            GraphStack([identity_adjacency(5), identity_adjacency(6)], 2)


def assert_same_adjacency(got, want):
    assert got.n == want.n
    for name in ("order", "lo", "hi", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def joined(stored, new, gamma):
    return StoredGraph.of(build_adjacency(stored, gamma), stored).join(new)


class TestStoredGraph:
    """``join`` against its oracle: ``build_adjacency`` over the stacked
    column, compared field by field and bit for bit."""

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
        assert_same_adjacency(joined(stored, new, gamma),
                              build_adjacency(stacked, gamma).adjacency)

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
            for cut in (0, 1, 45, 89, 90):
                assert_same_adjacency(
                    joined(v[:cut], v[cut:], gamma),
                    build_adjacency(v, gamma).adjacency)

    def test_non_finite_new_value_rejected(self):
        graph = StoredGraph.of(build_adjacency(np.arange(5.0), 1.0),
                               np.arange(5.0))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DataError, match="non-finite feature values"):
                graph.join(np.array([0.5, bad]))


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
