"""The benchmark's per-layer tracer still fits the program it patches.

``perfbench/tracing.py`` wraps functions by name in several modules, so a
renamed or deleted name breaks the benchmark, not the program. Its source
is read and run here without importing it as a package or writing any
file next to it.
"""

import types
from pathlib import Path

from graphboost import appnp, boost, data, graph, pipeline

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
