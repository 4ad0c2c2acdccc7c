"""Metrics: rank-based AUROC against an O(n^2) pair-counting oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphboost.errors import DataError
from graphboost.metrics import (auroc_binary, evaluate_scores,
                                weighted_auroc)


def pair_counting_auroc(scores, positives):
    """Direct Mann-Whitney statistic: count positive/negative score pairs."""
    pos = [s for s, p in zip(scores, positives) if p]
    neg = [s for s, p in zip(scores, positives) if not p]
    wins = sum(1.0 for sp in pos for sn in neg if sp > sn)
    ties = sum(1.0 for sp in pos for sn in neg if sp == sn)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def pair_counting_weighted(scores, y, k):
    total, weight = 0.0, 0
    n = len(y)
    for c in range(k):
        pos = y == c
        support = int(pos.sum())
        if support == 0 or support == n:
            continue
        total += support * pair_counting_auroc(scores[:, c], pos)
        weight += support
    return total / weight


def loop_midrank_auroc(scores, positives):
    """The per-element midrank loop that auroc_binary replaced, frozen as
    its bit-for-bit reference."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    positives = np.asarray(positives, dtype=bool).ravel()
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size, dtype=np.float64)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = ranks[positives].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


class TestBinaryAuroc:
    def test_perfect_separation(self):
        assert auroc_binary([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auroc_binary([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_enumerated_pairs(self):
        # pairs (p, n): (.9,.6)+, (.9,.1)+, (.4,.6)-, (.4,.1)+ -> 3/4
        assert auroc_binary([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0]) == 0.75

    def test_single_class_is_error(self):
        with pytest.raises(DataError, match="AUROC undefined"):
            auroc_binary([0.1, 0.2], [1, 1])

    def test_complement_symmetry(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=30)
        pos = rng.random(30) < 0.4
        pos[0], pos[1] = True, False
        a = auroc_binary(s, pos)
        b = auroc_binary(s, ~pos)
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=50)
        pos = rng.random(50) < 0.5
        pos[0], pos[1] = True, False
        a = auroc_binary(s, pos)
        b = auroc_binary(np.exp(2.0 * s) + 3.0, pos)
        assert a == pytest.approx(b, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        # heavy ties: scores drawn from a small grid half the time
        if rng.random() < 0.5:
            s = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
        else:
            s = rng.normal(size=n)
        pos = rng.random(n) < rng.uniform(0.2, 0.8)
        if pos.all() or not pos.any():
            return
        assert auroc_binary(s, pos) == pytest.approx(
            pair_counting_auroc(s, pos), abs=1e-12)

    @given(st.lists(st.tuples(
        st.sampled_from([0.0, -0.0, 0.5, 1.0, np.nan, np.inf, -np.inf])
        | st.floats(allow_nan=True, allow_infinity=True),
        st.booleans()), min_size=2, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_matches_frozen_midrank_loop(self, cells):
        s = np.array([c[0] for c in cells])
        pos = np.array([c[1] for c in cells])
        if pos.all() or not pos.any():
            return
        assert auroc_binary(s, pos).hex() == loop_midrank_auroc(s, pos).hex()


class TestWeightedAuroc:
    def test_two_class_symmetry(self):
        rng = np.random.default_rng(2)
        p1 = rng.random(40)
        scores = np.column_stack([1.0 - p1, p1])
        y = (rng.random(40) < 0.5).astype(int)
        y[0], y[1] = 0, 1
        assert weighted_auroc(scores, y) == pytest.approx(
            auroc_binary(p1, y == 1), abs=1e-12)

    def test_perfect_one_hot(self):
        y = np.array([0, 1, 2] * 10)
        scores = np.eye(3)[y]
        assert weighted_auroc(scores, y) == 1.0

    def test_missing_class_excluded_with_warning(self, caplog):
        import logging
        scores = np.random.default_rng(3).random((20, 3))
        y = np.array([0, 1] * 10)
        with caplog.at_level(logging.WARNING, logger="graphboost.metrics"):
            val = weighted_auroc(scores, y)
        assert any("excluded" in r.message for r in caplog.records)
        assert 0.0 <= val <= 1.0

    def test_single_class_error(self):
        scores = np.random.default_rng(4).random((10, 2))
        with pytest.raises(DataError, match="no class"):
            weighted_auroc(scores, np.zeros(10, dtype=int))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 60))
        k = int(rng.integers(2, 5))
        y = rng.integers(0, k, size=n)
        if len(np.unique(y)) < 2:
            return
        scores = rng.choice([0.0, 0.5, 1.0], size=(n, k)) \
            if rng.random() < 0.5 else rng.random((n, k))
        assert weighted_auroc(scores, y) == pytest.approx(
            pair_counting_weighted(scores, y, k), abs=1e-12)


class TestEvalReport:
    def test_confusion_and_accuracy(self):
        y = np.array([0, 0, 1, 1, 2, 2])
        labels = np.array([0, 1, 1, 1, 2, 0])
        scores = np.eye(3)[labels]
        report = evaluate_scores(scores, labels, y, 3)
        assert report.accuracy == pytest.approx(4 / 6)
        np.testing.assert_array_equal(report.confusion,
                                      [[1, 1, 0], [0, 2, 0], [1, 0, 1]])
        np.testing.assert_array_equal(report.confusion.sum(axis=1),
                                      [2, 2, 2])
        assert report.n == 6

    def test_to_dict_keys(self):
        y = np.array([0, 1, 0, 1])
        scores = np.array([[0.8, 0.2], [0.3, 0.7], [0.6, 0.4], [0.1, 0.9]])
        labels = scores.argmax(axis=1)
        d = evaluate_scores(scores, labels, y, 2).to_dict()
        assert set(d) == {"weighted_auroc", "accuracy", "per_class_auroc",
                          "confusion", "n"}
        assert isinstance(d["confusion"][0][0], int)

    def test_matches_the_separate_metrics(self, caplog):
        import logging
        rng = np.random.default_rng(6)
        y = rng.integers(0, 2, size=30)
        y[:2] = 0, 1
        scores = rng.choice([0.0, 0.5, 1.0], size=(30, 3))
        with caplog.at_level(logging.WARNING, logger="graphboost.metrics"):
            report = evaluate_scores(scores, scores.argmax(axis=1), y, 3)
        assert [r.message for r in caplog.records] == [
            "class 2 excluded from weighted AUROC (support 0 of 30)"]
        assert report.weighted_auroc == weighted_auroc(scores, y)
        assert report.per_class_auroc == [auroc_binary(scores[:, 0], y == 0),
                                          auroc_binary(scores[:, 1], y == 1),
                                          None]

    def test_per_class_none_for_absent_class(self):
        y = np.array([0, 1, 0, 1])
        scores = np.random.default_rng(5).random((4, 3))
        labels = scores.argmax(axis=1)
        report = evaluate_scores(scores, labels, y, 3)
        assert report.per_class_auroc[2] is None
