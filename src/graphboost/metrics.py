"""Evaluation: weighted one-vs-rest AUROC, accuracy, confusion counts."""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError

log = logging.getLogger("graphboost.metrics")


@dataclass
class EvalReport:
    weighted_auroc: float
    per_class_auroc: list  # one entry per class, None where undefined
    accuracy: float
    confusion: np.ndarray  # K x K, rows = true class, cols = predicted
    n: int

    def to_dict(self) -> dict:
        return {
            "weighted_auroc": float(self.weighted_auroc),
            "accuracy": float(self.accuracy),
            "per_class_auroc": [None if a is None else float(a)
                                for a in self.per_class_auroc],
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "n": int(self.n),
        }


def auroc_binary(scores: np.ndarray, positives: np.ndarray) -> float:
    """Mann-Whitney AUROC with midrank tie handling, O(n log n).

    Equals (#{score_pos > score_neg} + 0.5 * #ties) / (P * N).
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    positives = np.asarray(positives, dtype=bool).ravel()
    if scores.shape != positives.shape:
        raise DataError("scores and positives differ in length")
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC undefined: need at least one positive and "
                        "one negative")

    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # Runs of equal sorted scores, [start, end] inclusive; a NaN equals
    # nothing, so each is a run of its own.
    starts = np.flatnonzero(
        np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], scores.size] - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0,  # midrank, 1-based
                             ends - starts + 1)
    rank_sum = ranks[positives].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _one_vs_rest(scores: np.ndarray, y: np.ndarray) -> tuple[list, list]:
    """Each class's one-vs-rest AUROC, None for a class without both
    positives and negatives, and each class's support."""
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y)
    if scores.ndim != 2 or scores.shape[0] != y.shape[0]:
        raise DataError("score matrix and labels are inconsistent")
    aurocs, supports = [], []
    for c in range(scores.shape[1]):
        pos = y == c
        support = int(pos.sum())
        aurocs.append(None if support in (0, y.shape[0])
                      else auroc_binary(scores[:, c], pos))
        supports.append(support)
    return aurocs, supports


def _support_weighted(aurocs: list, supports: list, n: int) -> float:
    total = 0.0
    weight = 0.0
    for c, (auroc, support) in enumerate(zip(aurocs, supports)):
        if auroc is None:
            log.warning("class %d excluded from weighted AUROC "
                        "(support %d of %d)", c, support, n)
            continue
        total += support * auroc
        weight += support
    if weight == 0.0:
        raise DataError("no class has both positives and negatives")
    return total / weight


def weighted_auroc(scores: np.ndarray, y: np.ndarray) -> float:
    """Support-weighted mean of one-vs-rest AUROCs.

    Classes without both positives and negatives are excluded with a
    warning; the weights renormalize over the included classes.
    """
    return _support_weighted(*_one_vs_rest(scores, y), len(y))


def evaluate_scores(scores: np.ndarray, labels: np.ndarray, y: np.ndarray,
                    n_classes: int) -> EvalReport:
    """Full report from score matrix, hard labels, and true labels."""
    y = np.asarray(y)
    n = y.shape[0]
    per_class, supports = _one_vs_rest(scores, y)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (y, labels), 1)
    accuracy = float(np.mean(labels == y))
    return EvalReport(_support_weighted(per_class, supports, n), per_class,
                      accuracy, confusion, n)
