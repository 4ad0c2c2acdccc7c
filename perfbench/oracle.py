"""Dense reference implementation of what a fitted ensemble computes.

Written from the method's definition, independently of ``graphboost``:
brute-force threshold graphs, symmetric normalisation with self-loops,
k-step APPNP with stored weights, SAMME weight and alpha replay, and
AUROC by counting pairs. Everything is O(N^2) in memory, which is fine at
the benchmark's sizes (a few thousand rows) and far too slow for the
program itself.
"""

import math

import numpy as np

# A row whose two largest logits are closer than this may flip its argmax
# between two correct implementations that sum in a different order; such
# rows are left out of label comparisons and counted.
TIE_GAP = 1e-9


def dense_adjacency(values: np.ndarray, gamma: float) -> np.ndarray:
    """(D+I)^-1/2 (A+I) (D+I)^-1/2 for A_ij = [|v_i - v_j| <= gamma], i != j."""
    v = np.asarray(values, dtype=np.float64)
    linked = np.abs(v[:, None] - v[None, :]) <= gamma
    np.fill_diagonal(linked, True)  # A + I
    dinv = 1.0 / np.sqrt(linked.sum(axis=1).astype(np.float64))
    ahat = linked.astype(np.float64)
    ahat *= dinv[:, None]
    ahat *= dinv[None, :]
    return ahat


def appnp_logits(x: np.ndarray, weights: tuple, ahat: np.ndarray,
                 teleport: float, steps: int) -> np.ndarray:
    """Z(k) of Z(l+1) = (1 - a) Ahat Z(l) + a H0, with H0 the MLP head."""
    w1, b1, w2, b2 = weights
    h0 = np.maximum(x @ w1.T + b1, 0.0) @ w2.T + b2
    z = h0
    for _ in range(steps):
        z = (1.0 - teleport) * (ahat @ z) + teleport * h0
    return z


def round_labels(x: np.ndarray, round_: dict) -> tuple[np.ndarray, np.ndarray]:
    """Argmax labels of one round over all rows of ``x``, and a mask of rows
    whose top two logits are within TIE_GAP."""
    ahat = dense_adjacency(x[:, round_["feature"]], round_["gamma"])
    z = appnp_logits(x, round_["weights"], ahat, round_["teleport"],
                     round_["steps"])
    top2 = np.sort(z, axis=1)[:, -2:]
    return np.argmax(z, axis=1), (top2[:, 1] - top2[:, 0]) < TIE_GAP


def samme_alpha(err: float, n_classes: int, shrinkage: float) -> float:
    e = min(max(err, 1e-10), 1.0 - 1e-10)
    return shrinkage * (0.5 * math.log((1.0 - e) / e) + math.log(n_classes - 1))


def samme_replay(labels: list, y: np.ndarray, train: np.ndarray,
                 n_classes: int, shrinkage: float) -> list[tuple[float, float]]:
    """(weighted error, alpha) of each round from uniform train weights."""
    w = np.where(train, 1.0 / train.sum(), 0.0)
    out = []
    for lab in labels:
        wrong = train & (lab != y)
        err = float(np.sum(w[wrong]))
        alpha = samme_alpha(err, n_classes, shrinkage)
        out.append((err, alpha))
        w = w.copy()
        w[wrong] *= math.exp(alpha)
        w[train] /= w[train].sum()
    return out


def vote_scores(labels: list, alphas: list, n_classes: int) -> np.ndarray:
    """Alpha-weighted votes per row, normalised to sum 1."""
    votes = np.zeros((labels[0].size, n_classes))
    rows = np.arange(labels[0].size)
    for lab, alpha in zip(labels, alphas):
        votes[rows, lab] += alpha
    return votes / votes.sum(axis=1, keepdims=True)


def pair_auroc(scores: np.ndarray, y: np.ndarray) -> float:
    """Support-weighted one-vs-rest AUROC by comparing every pos/neg pair."""
    total, weight = 0.0, 0
    for c in range(scores.shape[1]):
        pos = y == c
        support = int(pos.sum())
        if support in (0, y.size):
            continue
        sp = scores[pos, c][:, None]
        sn = scores[~pos, c][None, :]
        wins = np.sum(sp > sn) + 0.5 * np.sum(sp == sn)
        total += support * wins / (sp.size * sn.size)
        weight += support
    return total / weight


def encode(header: list, rows: list, encoder: dict) -> np.ndarray:
    """Encode raw CSV cells with a model's stored encoder statistics:
    numeric columns median-imputed and z-scored, categories coded."""
    col = {name: j for j, name in enumerate(header)}
    out = np.empty((len(rows), len(encoder["columns"])))
    for k, meta in enumerate(encoder["columns"]):
        cells = [r[col[meta["name"]]] for r in rows]
        if meta["kind"] == "numeric":
            v = np.array([meta["impute"] if c in ("", "NA") else float(c)
                          for c in cells])
            out[:, k] = (v - meta["mean"]) / meta["sd"] if meta["sd"] > 0 else 0.0
        else:
            cats, missing = meta["categories"], meta["missing_code"]
            unknown = len(cats) + (missing is not None)
            out[:, k] = [(unknown if missing is None else missing)
                         if c in ("", "NA") else cats.get(c, unknown)
                         for c in cells]
    return out


def ensemble_rounds(ensemble) -> list[dict]:
    """Plain-data view of a fitted or loaded ensemble's rounds."""
    return [{"feature": r.feature, "gamma": r.gamma, "alpha": r.alpha,
             "error": r.error, "teleport": r.model.config.teleport,
             "steps": r.model.config.prop_steps,
             "weights": (r.model.w1, r.model.b1, r.model.w2, r.model.b2)}
            for r in ensemble.rounds]


def predict(x_all: np.ndarray, rounds: list, n_classes: int,
            row_start: int) -> tuple[np.ndarray, np.ndarray]:
    """Vote scores of rows ``row_start:`` over a graph of all rows, and a
    mask of those rows with a near-tie in any round."""
    labels, ties = [], np.zeros(x_all.shape[0] - row_start, dtype=bool)
    for r in rounds:
        lab, tie = round_labels(x_all, r)
        labels.append(lab[row_start:])
        ties |= tie[row_start:]
    return vote_scores(labels, [r["alpha"] for r in rounds], n_classes), ties
