"""Prediction on the cone of new rows against a full run over all rows.

The reference builds ``build_adjacency`` over the stored column followed
by the new rows, takes the stored rows' head differences followed by the
new rows' (``StoredRun.differences`` of each part, as prediction computes
them), runs every line through a full one-graph ``GraphStack.run`` and
labels the new rows by the argmax of their propagated differences. The
cone's propagated values must keep its bits where the cone reaches the
first stored row and agree with it to within rounding elsewhere, and so
must a dense propagation over ``to_dense``; labels and vote scores must
keep its bits except on rows whose two largest logits lie within
``TIE_GAP`` of each other. The region that the join builds must equal the
full graph's there.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from graphboost import appnp
from graphboost.appnp import AppnpConfig, init_model
from graphboost.boost import Ensemble, WeakRound, predict_ensemble
from graphboost.data import EncodingMeta, NumericMeta
from graphboost.graph import GraphStack, build_adjacency, quantile_thresholds

# perfbench's: a row whose two largest logits lie this close may take
# either label from two correct sums in different orders
TIE_GAP = 1e-9


def draw_rows(rng, n, m):
    """Stored rows and new ones over two features; the graph's column 0
    holds ties among the new rows and with stored values, and new values
    below, between and above every stored one."""
    stored = rng.integers(0, 12, size=n) * rng.choice([0.1, 0.37, 1.0])
    if rng.random() < 0.5:
        stored = stored + rng.normal(size=n) * 0.05
    levels = np.unique(stored)
    gaps = (levels[:-1] + levels[1:]) / 2
    pool = np.concatenate([stored, gaps, [levels[0] - 1.0, levels[-1] + 1.0,
                                          levels[0] - 1e-9,
                                          levels[-1] + 1e-9]])
    new = rng.choice(pool, size=m)
    if m > 1 and rng.random() < 0.5:
        new[rng.integers(0, m)] = new[0]
    x = rng.normal(size=(n + m, 2))
    x[:n, 0], x[n:, 0] = stored, new
    return x[:n], x[n:]


def reference(ensemble, new_x):
    """Labels per round, labels, scores and propagated differences of the
    new rows from full runs over the stored rows followed by them, the
    rounds' rows whose two largest logits lie within ``TIE_GAP``, and the
    full graph."""
    n, m = ensemble.train_x.shape[0], new_x.shape[0]
    (feature, gamma), = {(run.graph.feature, run.graph.gamma)
                         for _, run in ensemble.groups}
    column = np.concatenate([ensemble.train_x[:, feature],
                             new_x[:, feature]])
    adj = build_adjacency(column, gamma).adjacency
    stack = GraphStack([adj])
    round_labels = np.empty((len(ensemble.rounds), m), dtype=np.int64)
    ties = np.empty((len(ensemble.rounds), m), dtype=bool)
    values = []
    for ts, run in ensemble.groups:
        models = [ensemble.rounds[t].model for t in ts]
        lines = np.concatenate([run.differences(ensemble.train_x),
                                run.differences(new_x)], axis=1)
        cfg = models[0].config
        z = stack.from_frame(stack.run(stack.to_frame(lines.T[None]),
                                       cfg.teleport, cfg.prop_steps))[0].T
        values.append(z[:, n:])
        round_labels[list(ts)] = appnp._labels(z[:, n:], len(models))
        logits = np.sort(np.concatenate(
            [np.zeros((len(models), 1, m)),
             z[:, n:].reshape(len(models), -1, m)], axis=1), axis=1)
        ties[list(ts)] = logits[:, -1] - logits[:, -2] < TIE_GAP
    votes = np.zeros((m, ensemble.n_classes))
    for round_, labels in zip(ensemble.rounds, round_labels):
        votes[np.arange(m), labels] += round_.alpha
    return (round_labels, np.argmax(votes, axis=1),
            votes / votes.sum(axis=1, keepdims=True), values, ties, adj)


def dense_run(adj, lines, teleport, steps):
    """k propagation steps of the (W, N) ``lines`` over ``to_dense``."""
    ahat = adj.to_dense()
    z = lines.T
    for _ in range(steps):
        z = (1.0 - teleport) * (ahat @ z) + teleport * lines.T
    return z.T


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 300), m=st.integers(1, 40),
       gamma_kind=st.sampled_from(["zero", "quantile", "inf"]),
       steps=st.sampled_from([0, 1, 3, 12]),
       teleport=st.sampled_from([0.1, 1.0]), k=st.integers(2, 4),
       rounds=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_cone_prediction_equals_full_run(n, m, gamma_kind, steps, teleport,
                                         k, rounds, seed):
    rng = np.random.default_rng(seed)
    stored, new_x = draw_rows(rng, n, m)
    gamma = {"zero": 0.0, "inf": np.inf}.get(gamma_kind)
    if gamma is None:
        gamma = (float(rng.choice(quantile_thresholds(stored[:, 0]).gammas))
                 if n > 1 else 0.5)
    weak = []
    for t in range(rounds):
        cfg = AppnpConfig(hidden_dim=int(rng.choice([1, 4, 9])),
                          prop_steps=steps, teleport=teleport, seed=t)
        model = init_model(cfg, 2, k)
        model.b2 = rng.normal(size=k)
        weak.append(WeakRound(0, "f0", gamma, model, 0.1 * (t + 1), 0.3))
    meta = EncodingMeta([NumericMeta(f"f{j}", 0.0, 0.0, 1.0)
                         for j in range(2)], "label",
                        [f"c{i}" for i in range(k)])
    ens = Ensemble(weak, k, meta, meta.feature_names(), stored)

    round_labels, labels, scores, values, ties, adj = reference(ens, new_x)
    # the cone's propagated values and labels, group by group: rounds of
    # one hidden width share a group
    widths = [r.model.b1.size for r in ens.rounds]
    assert len(ens.groups) == len(set(widths))
    got_rounds = np.empty_like(round_labels)
    for (ts, run), want in zip(ens.groups, values, strict=True):
        cone = run.graph.join(new_x[:, 0], run.steps)
        assert len(cone.right) == run.steps + 1
        region = slice(cone.start, cone.start + cone.order.size)
        for name in ("order", "lo", "hi", "values"):
            np.testing.assert_array_equal(getattr(cone, name),
                                          getattr(adj, name)[region])
        new = run.differences(new_x)
        got = cone.run(run.stored, new, run.teleport)
        scale = max(np.abs(run.stored).max(), np.abs(new).max())
        if cone.left[0] == 0:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * scale)
        dense = dense_run(adj, np.concatenate([run.stored, new], axis=1),
                          run.teleport, run.steps)[:, n:]
        np.testing.assert_allclose(got, dense, rtol=1e-9, atol=1e-9 * scale)
        got_rounds[list(ts)] = run.new_labels(new_x)
        for array in (run.stored, run.labels):
            assert not array.flags.writeable

    # a round's label may differ only on a row within TIE_GAP of a tie, and
    # the ensemble's labels and scores are the reference's on every row
    # where no round's does
    flipped = got_rounds != round_labels
    assert not (flipped & ~ties).any()
    same = ~flipped.any(axis=0)
    got_labels, got_scores = predict_ensemble(ens, new_x)
    np.testing.assert_array_equal(got_labels[same], labels[same])
    assert got_scores[same].tobytes() == scores[same].tobytes()


def test_one_row_at_max_prop_steps_keeps_memory_small():
    # A model of 2 rounds on one graph at MAX_PROP_STEPS over 300 stored
    # rows. A cache of every step's prefix sums over the stored rows would
    # take 10,000 x 2 x 301 floats, 48 MB, made by the first single row
    # whose cone does not reach the first stored row. That row must score
    # within a few MB; neither it nor a batch labels the stored rows.
    rng = np.random.default_rng(3)
    stored, _ = draw_rows(rng, 300, 1)
    meta = EncodingMeta([NumericMeta(f"f{j}", 0.0, 0.0, 1.0)
                         for j in range(2)], "label", ["c0", "c1"])
    cfg = AppnpConfig(hidden_dim=4, prop_steps=appnp.MAX_PROP_STEPS,
                      teleport=0.1)
    gamma = quantile_thresholds(stored[:, 0]).gammas[1]
    ens = Ensemble([WeakRound(0, "f0", gamma,
                              init_model(replace(cfg, seed=t), 2, 2), 0.5,
                              0.3) for t in range(2)],
                   2, meta, meta.feature_names(), stored)
    (_, run), = ens.groups
    row = stored[:1].copy()
    row[0, 0] = np.median(stored[:, 0])
    assert run.graph.join(row[:, 0], run.steps).left[0] > 0
    tracemalloc.start()
    try:
        predict_ensemble(ens, row)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert "labels" not in run.__dict__
    predict_ensemble(ens, stored[rng.permutation(300)[:50]])
    assert "labels" not in run.__dict__
