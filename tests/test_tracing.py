"""The benchmark's per-layer tracer still fits the program it patches.

``perfbench/tracing.py`` wraps functions by name in several modules, so a
renamed or deleted name breaks the benchmark, not the program. Its source
is read and run here without importing it as a package or writing any
file next to it.
"""

import types
from pathlib import Path

from graphboost import appnp, boost, data, graph, pipeline
from graphboost.appnp import AppnpConfig
from graphboost.rng import derive_seed

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
OWNERS = (appnp, boost, data, graph, pipeline, graph.SparseAdjacency)


def _load_tracing() -> types.ModuleType:
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def _names():
    return {(owner, attr): value for owner in OWNERS
            for attr, value in dict(vars(owner)).items()}


def test_install_then_uninstall_restores_every_patched_name():
    before = _names()
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        during = _names()
    finally:
        tracer.uninstall()
    patched = {key for key, value in during.items()
               if value is not before.get(key)}
    assert {attr for _, attr in patched} >= {
        "build_adjacency", "run_round", "predict_ensemble", "matmul"}
    for key in patched:
        assert during[key].__wrapped__ is before[key]
    after = _names()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_counts_every_graph_build_of_a_fit():
    # Candidates and the ensemble's stored graphs are built through
    # graph.build_adjacency, each distinct (feature, gamma) once per matrix.
    table, labels = data.gen_synthetic(80, 3, 2, 1.0, 4)
    ds, _ = data.fit_encoder(table, labels,
                             data.split_rows(80, (0.6, 0.2, 0.2), 4, labels))
    config = boost.BoostConfig(
        n_rounds=2, expert_edges=((0, 0.0), (1, float("inf"))), seed=4,
        weak=AppnpConfig(hidden_dim=4, prop_steps=2, dropout=0.0,
                         max_epochs=3, patience=3))
    candidates = graph.enumerate_candidates(
        ds.X, config.expert_edges, ds.encoder.feature_names(),
        ds.encoder.feature_scales(), derive_seed(config.seed, "graphs"))
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        ensemble = boost.fit(config, ds)
    finally:
        tracer.uninstall()
    distinct = len({(c.feature, c.gamma) for c in candidates})
    rounds = len({(r.feature, r.gamma) for r in ensemble.rounds})
    assert tracer.counts["graph.builds"] == distinct + rounds
    assert tracer.counts["graph.edges"] == 80 * (distinct + rounds)
