"""Microbenchmarks of candidate graph construction, the merge of new rows
into a stored graph, propagation, one block of weak learners, one boosting
round's weak-learner training and prediction.

Kept outside the test paths so that the test suite does not run them. Run
with pytest-benchmark from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

Inputs are fixed: standard-normal feature values with gamma at the 1/4
quantile of their pairwise differences (the densest candidate a fit
builds), and a K=2 head propagated for the default 10 steps. A join
merges 1 or 2000 new standard-normal rows into the stored graph of such a
column on their 3-step cone, the work a prediction call does per distinct
round graph. The round
trains all 30 candidates of an n=2000, m=10 synthetic cohort with the
learner shape of the fit benchmark in ``perfbench/``, on the calling
thread (``workers`` 0) and on two threads (``workers`` 2), and with the
package's default learner, whose learners stop early; the block
trains the first 10 of them together, as one of the round's blocks, and
the first 10 of a three-class cohort built the same way, which propagate
two logit differences instead of one. Prediction scores one new row, or a
batch of 2000, against a hand-built 10-round ensemble over the 2000 rows
of that cohort, with criterion 08's learner shape and round pattern: 8
rounds on one graph and 2 on two others, interleaved, each with untrained
``init_model`` weights; one row is also scored against the first round
alone, the shape of a one-round fit with its one difference line. The
scaling cases score one row, and a batch of 2000, against 3 rounds on one
graph over n = 2000, 20000 or 100000 stored rows, with the benchmark
model's learner shape (k = 3): a uniform column with gamma = 62 / n, so
that a window holds about 125 rows at every n; the first-call cases score
one row on such an ensemble made afresh, outside the timing, before each
call, at n = 2000 and 100000. Ingest
reads that cohort back from a CSV file, continuous as written or mixed:
its noise columns cut into integer scores, one of them into text levels,
with 5% of their cells ``NA``; the encode benchmark fits and applies the
encoding of the mixed table. ``graphboost predict`` reads new rows without
a label, 2,000 x 4 continuous cells (the shape of the predict benchmark in
``perfbench/``) or 20,000 x 10, and writes one prediction per row with 4
or 10 class scores: the normalised votes of 3 rounds, so that at most K^3
score rows are distinct, or scores drawn at random, so that every row is
distinct and no row's cells can be reused. The synthetic cohort
generator draws the n = 2000 and n = 100000, m = 10 cohorts.
"""

from dataclasses import replace

import numpy as np
import pytest

from graphboost import appnp
from graphboost.appnp import AppnpConfig, init_model, propagate
from graphboost.boost import Ensemble, WeakRound, predict_ensemble, run_round
from graphboost.data import (CATEGORICAL, NUMERIC, TRAIN, VAL, Column,
                             EncodingMeta, NumericMeta, RawTable,
                             apply_encoder, fit_encoder, gen_synthetic,
                             load_csv, split_rows, write_csv)
from graphboost.graph import (build_adjacency, enumerate_candidates,
                              quantile_thresholds)
from graphboost.pipeline import _write_predictions

SIZES = (2_000, 100_000)


def _inputs(n):
    rng = np.random.default_rng(n)
    v = rng.normal(size=n)
    gamma = quantile_thresholds(v, seed=1).gammas[2]
    return v, gamma, rng.normal(size=(n, 2))


@pytest.mark.parametrize("n", SIZES)
def test_build_adjacency(benchmark, n):
    v, gamma, _ = _inputs(n)
    cand = benchmark(build_adjacency, v, gamma)
    assert cand.adjacency.n == n


@pytest.mark.parametrize("m", (1, 2_000))
@pytest.mark.parametrize("n", SIZES)
def test_join(benchmark, n, m):
    v, gamma, _ = _inputs(n)
    stored = build_adjacency(v, gamma)
    new = np.random.default_rng(m).normal(size=m)
    cone = benchmark(stored.join, new, 3)
    assert cone.rows.size == m
    assert cone.start + cone.order.size <= n + m


@pytest.mark.parametrize("n", SIZES)
def test_propagate(benchmark, n):
    v, gamma, h0 = _inputs(n)
    adj = build_adjacency(v, gamma).adjacency
    z = benchmark(propagate, h0, adj, 0.1, 10)
    assert z.shape == h0.shape


def _cohort(n=2000, k=2):
    table, labels = gen_synthetic(n, 10, k, 0.9, 0)
    ds, _ = fit_encoder(table, labels,
                        split_rows(n, (0.7, 0.15, 0.15), 0, labels))
    return ds


def _mixed_table(n=2000):
    table, labels = gen_synthetic(n, 10, 2, 0.9, 0)
    na = np.random.default_rng(0).random((n, 10)) < 0.05
    columns = []
    for j, col in enumerate(table.columns):
        if col.name == "edge":
            columns.append(col)
            continue
        levels = np.digitize(col.numeric, (-0.3, 0.6, 1.5)).astype(float)
        levels[na[:, j]] = np.nan
        if col.name == "noise_00":
            text = [None if np.isnan(v) else ("low", "mid", "high", "top")[
                int(v)] for v in levels]
            columns.append(Column(col.name, CATEGORICAL, text=text))
        else:
            columns.append(Column(col.name, NUMERIC, numeric=levels))
    return RawTable(columns, n), labels


@pytest.mark.parametrize("n", SIZES)
def test_gen_synthetic(benchmark, n):
    table, labels = benchmark(gen_synthetic, n, 10, 2, 0.9, 0)
    assert (table.n_rows, len(labels)) == (n, n)


@pytest.mark.parametrize("cohort", ("continuous", "mixed"))
def test_load_csv(benchmark, tmp_path, cohort):
    table, labels = (gen_synthetic(2000, 10, 2, 0.9, 0)
                     if cohort == "continuous" else _mixed_table())
    path = str(tmp_path / "cohort.csv")
    write_csv(table, labels, path)
    loaded, _ = benchmark(load_csv, path, "label")
    assert [c.kind for c in loaded.columns] == [c.kind for c in table.columns]


PREDICT_SHAPES = ((2_000, 4), (20_000, 10))


@pytest.mark.parametrize("n, m", PREDICT_SHAPES)
def test_load_csv_new_rows(benchmark, tmp_path, n, m):
    path = str(tmp_path / "rows.csv")
    write_csv(gen_synthetic(n, m, 2, 0.9, 0)[0], None, path)
    table, labels = benchmark(load_csv, path, None)
    assert (table.n_rows, len(table.columns), labels) == (n, m, None)


def _predictions(n, k, distinct):
    rng = np.random.default_rng(n + k)
    if distinct:
        scores = rng.random((n, k))
    else:
        scores = np.zeros((n, k))
        for alpha in (0.5, 0.3, 0.2):
            scores[np.arange(n), rng.integers(k, size=n)] += alpha
    scores /= scores.sum(axis=1, keepdims=True)
    meta = EncodingMeta([], "label", [f"c{j}" for j in range(k)])
    return meta, scores.argmax(axis=1), scores


@pytest.mark.parametrize("rows", ("votes", "distinct"))
@pytest.mark.parametrize("n, k", PREDICT_SHAPES)
def test_write_predictions(benchmark, tmp_path, n, k, rows):
    meta, labels, scores = _predictions(n, k, rows == "distinct")
    path = tmp_path / "predictions.csv"
    benchmark(_write_predictions, str(path), meta, labels, scores)
    assert len(path.read_bytes().splitlines()) == n + 1


def test_encode(benchmark):
    table, labels = _mixed_table()
    split = split_rows(table.n_rows, (0.7, 0.15, 0.15), 0, labels)

    def encode():
        _, meta = fit_encoder(table, labels, split)
        return apply_encoder(table, meta)
    assert benchmark(encode).shape == (2000, 10)


# the learner of the fit benchmark in ``perfbench/``
WEAK = AppnpConfig(hidden_dim=16, prop_steps=3, teleport=0.1, dropout=0.1,
                   learning_rate=0.05, max_epochs=20, patience=20, seed=1)


@pytest.mark.parametrize("k", (2, 3))
def test_train_block(benchmark, k):
    ds = _cohort(k=k)
    # a block of 10, as a fit of this cohort trains
    graphs = [c.adjacency for c in enumerate_candidates(ds.X)[:10]]
    train, val = ds.mask(TRAIN), ds.mask(VAL)
    # the weights ``run_round`` trains a first round's candidates under
    w = np.where(train, 1.0 / train.sum(), 0.0)
    w[val] = 1.0 / val.sum()
    # the block draws its own dropout masks, as the only block of a round
    outcomes = benchmark(lambda: appnp._train_block(
        WEAK, ds.X, graphs, ds.y, w, train, val, k,
        appnp._DropoutMasks(WEAK, (ds.X.shape[0], WEAK.hidden_dim))))
    assert [report.epochs_run for _, report, _ in outcomes] == [20] * 10


@pytest.mark.parametrize("workers", (0, 2))
def test_round_of_30_candidates(benchmark, workers):
    ds = _cohort()
    candidates = enumerate_candidates(ds.X)
    assert len(candidates) == 30
    train = ds.mask(TRAIN)
    weights = np.where(train, 1.0 / train.sum(), 0.0)
    round_, _ = benchmark(run_round, weights, candidates, ds.X, ds.y, train,
                          ds.mask(VAL), 2, WEAK, workers=workers)
    assert 0.0 <= round_.error < 0.5


def test_round_of_30_candidates_at_the_defaults(benchmark):
    # the package's default learner (H = 64, k = 10, 100 epochs, patience
    # 10), whose learners stop early at different epochs
    ds = _cohort()
    candidates = enumerate_candidates(ds.X)
    train = ds.mask(TRAIN)
    weights = np.where(train, 1.0 / train.sum(), 0.0)
    round_, _ = benchmark.pedantic(
        run_round, (weights, candidates, ds.X, ds.y, train, ds.mask(VAL), 2,
                    AppnpConfig()), rounds=3)
    assert 0.0 <= round_.error < 0.5


def _ten_round_ensemble():
    ds = _cohort()
    m = ds.X.shape[1]
    names = ds.encoder.feature_names()
    rounds = []
    for t, feature in enumerate((0, 0, 6, 0, 0, 0, 3, 0, 0, 0)):
        cfg = AppnpConfig(hidden_dim=16, prop_steps=3, teleport=0.1,
                          dropout=0.5, seed=t)
        gamma = quantile_thresholds(ds.X[:, feature]).gammas[2]
        rounds.append(WeakRound(feature, names[feature], gamma,
                                init_model(cfg, m, 2), 1.0 / (t + 1), 0.3))
    return Ensemble(rounds, 2, ds.encoder, names, ds.X)


def test_predict_one_row(benchmark):
    ensemble = _ten_round_ensemble()
    row = np.random.default_rng(1).normal(size=(1, ensemble.train_x.shape[1]))
    labels, scores = benchmark(predict_ensemble, ensemble, row)
    assert labels.shape == (1,) and scores.shape == (1, 2)


def test_predict_one_row_one_round(benchmark):
    ensemble = _ten_round_ensemble()
    ensemble = Ensemble(ensemble.rounds[:1], 2, ensemble.encoder,
                        ensemble.feature_names, ensemble.train_x)
    row = np.random.default_rng(1).normal(size=(1, ensemble.train_x.shape[1]))
    labels, scores = benchmark(predict_ensemble, ensemble, row)
    assert labels.shape == (1,) and scores.shape == (1, 2)


def test_predict_batch(benchmark):
    ensemble = _ten_round_ensemble()
    rows = np.random.default_rng(2).normal(
        size=(2_000, ensemble.train_x.shape[1]))
    labels, scores = benchmark(predict_ensemble, ensemble, rows)
    assert labels.shape == (2_000,) and scores.shape == (2_000, 2)


def _windowed_ensemble(n):
    """3 rounds on one graph over n stored rows whose windows hold about
    125 rows, whatever n is."""
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 4))
    x[:, 0] = rng.uniform(size=n)
    meta = EncodingMeta([NumericMeta(f"f{j}", 0.0, 0.0, 1.0)
                         for j in range(4)], "label", ["c0", "c1"])
    rounds = [WeakRound(0, "f0", 62.0 / n, init_model(replace(WEAK, seed=t),
                                                      4, 2), 1.0 / (t + 1),
                        0.3) for t in range(3)]
    ensemble = Ensemble(rounds, 2, meta, meta.feature_names(), x)
    (_, run), = ensemble.groups
    graph = run.graph.adjacency
    assert 110 < np.mean(graph.hi - graph.lo) < 140
    return ensemble, rng


@pytest.mark.parametrize("n", (2_000, 20_000, 100_000))
def test_predict_one_row_scaling(benchmark, n):
    ensemble, rng = _windowed_ensemble(n)
    row = rng.normal(size=(1, 4))
    row[0, 0] = 0.5
    labels, scores = benchmark(predict_ensemble, ensemble, row)
    assert labels.shape == (1,) and scores.shape == (1, 2)


@pytest.mark.parametrize("n", (2_000, 20_000, 100_000))
def test_predict_batch_scaling(benchmark, n):
    ensemble, rng = _windowed_ensemble(n)
    rows = rng.normal(size=(2_000, 4))
    rows[:, 0] = rng.uniform(size=2_000)
    labels, scores = benchmark(predict_ensemble, ensemble, rows)
    assert labels.shape == (2_000,) and scores.shape == (2_000, 2)


@pytest.mark.parametrize("n", SIZES)
def test_predict_first_row(benchmark, n):
    def fresh():
        ensemble, rng = _windowed_ensemble(n)
        row = rng.normal(size=(1, 4))
        row[0, 0] = 0.5
        return (ensemble, row), {}

    labels, scores = benchmark.pedantic(predict_ensemble, setup=fresh,
                                        rounds=10)
    assert labels.shape == (1,) and scores.shape == (1, 2)
