"""Microbenchmarks of candidate graph construction, the merge of new rows
into a stored graph, propagation, one block of weak learners, one boosting
round's weak-learner training and single-row prediction.

Kept outside the test paths so that the test suite does not run them. Run
with pytest-benchmark from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

Inputs are fixed: standard-normal feature values with gamma at the 1/4
quantile of their pairwise differences (the densest candidate a fit
builds), and a K=2 head propagated for the default 10 steps. A join
merges 1 or 2000 new standard-normal rows into the stored graph of such a
column, the work a prediction call does per distinct round graph. The round
trains all 30 candidates of an n=2000, m=10 synthetic cohort with the
learner shape of the fit benchmark in ``perfbench/``, on the calling
thread (``workers`` 0) and on two threads (``workers`` 2); the block
trains the first 4 of them together, as one of the round's blocks. Single-row
prediction scores one new row against a hand-built 10-round ensemble over
the 2000 rows of that cohort, with criterion 08's learner shape and round
pattern: 8 rounds on one graph and 2 on two others, interleaved, each with
untrained ``init_model`` weights.
"""

import numpy as np
import pytest

from graphboost import appnp
from graphboost.appnp import AppnpConfig, init_model, propagate
from graphboost.boost import Ensemble, WeakRound, predict_ensemble, run_round
from graphboost.data import TRAIN, VAL, fit_encoder, gen_synthetic, split_rows
from graphboost.graph import (StoredGraph, build_adjacency,
                              enumerate_candidates, quantile_thresholds)

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
    stored = StoredGraph.of(build_adjacency(v, gamma), v)
    new = np.random.default_rng(m).normal(size=m)
    adj = benchmark(stored.join, new)
    assert adj.n == n + m


@pytest.mark.parametrize("n", SIZES)
def test_propagate(benchmark, n):
    v, gamma, h0 = _inputs(n)
    adj = build_adjacency(v, gamma).adjacency
    z = benchmark(propagate, h0, adj, 0.1, 10)
    assert z.shape == h0.shape


def _cohort(n=2000):
    table, labels = gen_synthetic(n, 10, 2, 0.9, 0)
    ds, _ = fit_encoder(table, labels,
                        split_rows(n, (0.7, 0.15, 0.15), 0, labels))
    return ds


# the learner of the fit benchmark in ``perfbench/``
WEAK = AppnpConfig(hidden_dim=16, prop_steps=3, teleport=0.1, dropout=0.1,
                   learning_rate=0.05, max_epochs=20, patience=20, seed=1)


def test_train_block(benchmark):
    ds = _cohort()
    graphs = [c.adjacency for c in enumerate_candidates(ds.X)[:4]]
    train, val = ds.mask(TRAIN), ds.mask(VAL)
    # the weights ``run_round`` trains a first round's candidates under
    w = np.where(train, 1.0 / train.sum(), 0.0)
    w[val] = 1.0 / val.sum()
    outcomes = benchmark(appnp._train_block, WEAK, ds.X, graphs, ds.y, w,
                         train, val, 2)
    assert [report.epochs_run for _, report in outcomes] == [20] * 4


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


def test_predict_one_row(benchmark):
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
    ensemble = Ensemble(rounds, 2, ds.encoder, names, ds.X)
    row = np.random.default_rng(1).normal(size=(1, m))
    labels, scores = benchmark(predict_ensemble, ensemble, row)
    assert labels.shape == (1,) and scores.shape == (1, 2)
