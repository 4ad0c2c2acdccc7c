"""Prediction on the cone of new rows against a full run over all rows.

The reference builds ``build_adjacency`` over the stored column followed
by the new rows, takes the stored rows' head differences followed by the
new rows' (``StoredRun.differences`` of each part, as prediction computes
them), runs every line through a full one-graph ``GraphStack.run`` and
labels the new rows by the argmax of their propagated differences. The
labels, vote scores and propagated values of ``predict_ensemble`` must
keep its bits, and the region that the join builds must equal the full
graph's there.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from graphboost import appnp
from graphboost.appnp import AppnpConfig, init_model
from graphboost.boost import Ensemble, WeakRound, predict_ensemble
from graphboost.data import EncodingMeta, NumericMeta
from graphboost.graph import GraphStack, build_adjacency, quantile_thresholds


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
    new rows from full runs over the stored rows followed by them."""
    n = ensemble.train_x.shape[0]
    (feature, gamma), = {(run.graph.feature, run.graph.gamma)
                         for _, run in ensemble.groups}
    column = np.concatenate([ensemble.train_x[:, feature],
                             new_x[:, feature]])
    adj = build_adjacency(column, gamma).adjacency
    stack = GraphStack([adj])
    round_labels = np.empty((len(ensemble.rounds), new_x.shape[0]),
                            dtype=np.int64)
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
    votes = np.zeros((new_x.shape[0], ensemble.n_classes))
    for round_, labels in zip(ensemble.rounds, round_labels):
        votes[np.arange(new_x.shape[0]), labels] += round_.alpha
    return (round_labels, np.argmax(votes, axis=1),
            votes / votes.sum(axis=1, keepdims=True), values, adj)


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

    round_labels, labels, scores, values, adj = reference(ens, new_x)
    got_labels, got_scores = predict_ensemble(ens, new_x)
    np.testing.assert_array_equal(got_labels, labels)
    assert got_scores.tobytes() == scores.tobytes()

    # the cone's propagated values and labels, group by group: rounds of
    # one hidden width share a group
    widths = [r.model.b1.size for r in ens.rounds]
    assert len(ens.groups) == len(set(widths))
    for (ts, run), want in zip(ens.groups, values, strict=True):
        cone = run.graph.join(new_x[:, 0], run.steps)
        assert len(cone.right) == run.steps + 1
        region = slice(cone.start, cone.start + cone.order.size)
        for name in ("order", "lo", "hi", "values"):
            np.testing.assert_array_equal(getattr(cone, name),
                                          getattr(adj, name)[region])
        got = cone.run(run.prefixes, run.stored, run.differences(new_x),
                       run.teleport)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(run.new_labels(new_x),
                                      round_labels[list(ts)])
        # the caches are read-only and hold k prefix sums of every line
        assert run.prefixes.shape == (run.steps, len(ts) * (k - 1), n + 1)
        for array in (run.stored, run.prefixes, run.labels):
            assert not array.flags.writeable


def test_stored_run_is_made_only_when_a_cone_reads_it():
    # A batch whose windows reach the first stored row reads no prefix sum
    # of the stored run but 0, so it does not make that run; a row inside
    # the cohort, or scoring the stored rows, does, once.
    rng = np.random.default_rng(3)
    stored, _ = draw_rows(rng, 200, 1)
    meta = EncodingMeta([NumericMeta(f"f{j}", 0.0, 0.0, 1.0)
                         for j in range(2)], "label", ["c0", "c1"])
    cfg = AppnpConfig(hidden_dim=4, prop_steps=3, teleport=0.1)
    gamma = quantile_thresholds(stored[:, 0]).gammas[1]
    ens = Ensemble([WeakRound(0, "f0", gamma, init_model(cfg, 2, 2), 0.5,
                              0.3)], 2, meta, meta.feature_names(), stored)
    (_, run), = ens.groups
    batch = stored[rng.permutation(200)[:50]]
    batch[0, 0] = stored[:, 0].min() - 1.0
    cone = run.graph.join(batch[:, 0], 3)
    assert cone.left[0] == 0
    predict_ensemble(ens, batch)
    assert run._run is None
    row = batch[1:2].copy()
    row[0, 0] = np.median(stored[:, 0])
    predict_ensemble(ens, row)
    made = run._run
    assert made is not None
    predict_ensemble(ens, row)
    assert run._run is made
