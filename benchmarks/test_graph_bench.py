"""Microbenchmarks of candidate graph construction and propagation.

Kept outside the test paths so that the test suite does not run them. Run
with pytest-benchmark from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

Inputs are fixed: standard-normal feature values with gamma at the 1/4
quantile of their pairwise differences (the densest candidate a fit
builds), and a K=2 head propagated for the default 10 steps.
"""

import numpy as np
import pytest

from graphboost.appnp import propagate
from graphboost.graph import build_adjacency, quantile_thresholds

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
