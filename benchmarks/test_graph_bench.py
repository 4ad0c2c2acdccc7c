"""Microbenchmarks of candidate graph construction, propagation and one
boosting round's weak-learner training.

Kept outside the test paths so that the test suite does not run them. Run
with pytest-benchmark from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

Inputs are fixed: standard-normal feature values with gamma at the 1/4
quantile of their pairwise differences (the densest candidate a fit
builds), and a K=2 head propagated for the default 10 steps. The round
trains all 30 candidates of an n=2000, m=10 synthetic cohort with the
learner shape of the fit benchmark in ``perfbench/``.
"""

import numpy as np
import pytest

from graphboost.appnp import AppnpConfig, propagate
from graphboost.boost import BoostState, run_round
from graphboost.data import TRAIN, VAL, fit_encoder, gen_synthetic, split_rows
from graphboost.graph import (build_adjacency, enumerate_candidates,
                              quantile_thresholds)

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


@pytest.mark.parametrize("n", SIZES)
def test_propagate(benchmark, n):
    v, gamma, h0 = _inputs(n)
    adj = build_adjacency(v, gamma).adjacency
    z = benchmark(propagate, h0, adj, 0.1, 10)
    assert z.shape == h0.shape


def test_round_of_30_candidates(benchmark):
    n = 2000
    table, labels = gen_synthetic(n, 10, 2, 0.9, 0)
    ds, _ = fit_encoder(table, labels,
                        split_rows(n, (0.7, 0.15, 0.15), 0, labels))
    candidates = enumerate_candidates(ds.X)
    assert len(candidates) == 30
    train = ds.mask(TRAIN)
    weights = np.where(train, 1.0 / train.sum(), 0.0)
    weak = AppnpConfig(hidden_dim=16, prop_steps=3, teleport=0.1,
                       dropout=0.1, learning_rate=0.05, max_epochs=20,
                       patience=20, seed=1)
    round_, _ = benchmark(run_round, BoostState(weights), candidates, ds.X,
                          ds.y, train, ds.mask(VAL), 2, weak)
    assert 0.0 <= round_.error < 0.5
