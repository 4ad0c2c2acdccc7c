"""Per-layer timers installed from outside the program.

Each public function is wrapped where its caller looks it up: a name that
a module imported with ``from x import f`` is patched in the importing
module too, and ``SparseAdjacency.matmul`` is patched on the class, which
both ``appnp.propagate`` and ``appnp.backward`` reach. A span records its
wall time, its self time (wall time minus the time of the wrapped calls it
made), and counts taken from its arguments or result. Nested spans of the
same metric are counted once.

Spawned pool workers import the package afresh and run unpatched, so with
``workers > 1`` everything under ``boost.run_round`` happens out of sight:
the parent's ``boost.round_s`` is then time spent waiting on the workers.
"""

import os
import time
from collections import defaultdict

from graphboost import appnp, boost, data, graph, pipeline
from graphboost.errors import TrainingDiverged


class Tracer:
    """Accumulates wall time, self time and counts per metric name."""

    def __init__(self):
        self.wall = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = 0
        self._depth = defaultdict(int)
        self._stack = []  # child time of each open span
        self._undo = []

    def span(self, name, fn, count=None, on_error=None):
        """Wrap ``fn`` so each call is a span of ``name``. ``count(counts,
        args, result)`` adds counts after a call that returns; with
        ``on_error = (exception type, counter)`` a call that raises that
        type adds 1 to the counter."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.spans += 1
            tracer._depth[name] += 1
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None and isinstance(exc, on_error[0]):
                    tracer.counts[on_error[1]] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                children = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += elapsed
                tracer._depth[name] -= 1
                if tracer._depth[name] == 0:
                    tracer.wall[name] += elapsed
                tracer.self_time[name] += elapsed - children
            if count is not None:
                count(tracer.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, name, count=None, on_error=None):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, count, on_error))

    def install(self):
        """Patch every traced name so that its calls are recorded here."""
        _install(self)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _count_rows(counts, args, result):
    counts["data.rows_parsed"] += result[0].n_rows


def _count_build(counts, args, result):
    counts["graph.builds"] += 1
    counts["graph.edges"] += result.adjacency.values.size


def _count_matmul(counts, args, result):
    adj, dense = args[0], args[1]
    nnz, cols = adj.values.size, (dense.shape[1] if dense.ndim == 2 else 1)
    counts["graph.matmuls"] += 1
    counts["graph.matmul_madds"] += nnz * cols
    # CSR arrays read once, dense operand read once, result written once.
    counts["graph.matmul_bytes"] += 12 * nnz + 4 * (adj.n + 1) + 16 * adj.n * cols


def _count_weak(counts, args, result):
    counts["appnp.weak_fits"] += 1
    counts["appnp.epochs"] += result[1].epochs_run


def _count_round(counts, args, result):
    candidates = args[1]
    counts["boost.rounds"] += 1
    counts["boost.candidates"] += len(candidates)
    counts["boost.distinct_candidates"] += len(
        {(c.feature, c.gamma) for c in candidates})


def _count_file(path_arg):
    def count(counts, args, result):
        counts["model_io.bytes"] += os.path.getsize(args[path_arg])
    return count


def _install(t: Tracer) -> None:
    t.patch(pipeline, "run_train", "pipeline.train_s")
    t.patch(pipeline, "run_predict", "pipeline.predict_s")
    t.patch(pipeline, "load_csv", "data.load_csv_s", _count_rows)
    t.patch(pipeline, "fit_encoder", "data.encode_s")
    t.patch(pipeline, "apply_encoder", "data.encode_s")
    t.patch(data, "apply_encoder", "data.encode_s")  # inside fit_encoder
    t.patch(graph, "quantile_thresholds", "graph.thresholds_s")
    t.patch(graph, "build_adjacency", "graph.build_s", _count_build)
    t.patch(boost, "build_adjacency", "graph.build_s", _count_build)
    t.patch(graph.SparseAdjacency, "matmul", "graph.matmul_s", _count_matmul)
    t.patch(boost, "train_weak", "appnp.train_weak_s", _count_weak,
            on_error=(TrainingDiverged, "appnp.diverged"))
    t.patch(appnp, "forward", "appnp.forward_s")
    t.patch(appnp, "backward", "appnp.backward_s")
    t.patch(boost, "run_round", "boost.round_s", _count_round)
    t.patch(boost, "update_weights", "boost.reweight_s")
    t.patch(boost, "weighted_error", "boost.reweight_s")
    t.patch(boost, "transductive_scores", "boost.predict_s")
    t.patch(boost, "predict_ensemble", "boost.predict_s")
    t.patch(pipeline, "evaluate_scores", "metrics.evaluate_s")
    t.patch(pipeline, "save_ensemble", "model_io.save_s", _count_file(1))
    t.patch(pipeline, "load_ensemble", "model_io.load_s", _count_file(0))


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""
    def noop():
        return None

    traced = Tracer().span("x", noop, lambda counts, args, result: None)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - start - plain) / calls)
    return max(best, 0.0)


# Per-layer metric names in report order, with units.
METRICS = (
    ("data.load_csv_s", "s"), ("data.rows_parsed", "count"),
    ("data.encode_s", "s"),
    ("graph.thresholds_s", "s"), ("graph.build_s", "s"),
    ("graph.builds", "count"), ("graph.edges", "count"),
    ("graph.matmul_s", "s"), ("graph.matmuls", "count"),
    ("graph.matmul_madds", "count"), ("graph.matmul_bytes", "bytes"),
    ("appnp.train_weak_s", "s"), ("appnp.weak_fits", "count"),
    ("appnp.epochs", "count"), ("appnp.forward_s", "s"),
    ("appnp.backward_s", "s"), ("appnp.optimizer_s", "s"),
    ("appnp.diverged", "count"),
    ("boost.round_s", "s"), ("boost.rounds", "count"),
    ("boost.candidates", "count"), ("boost.distinct_candidate_ratio", "1"),
    ("boost.reweight_s", "s"), ("boost.predict_s", "s"),
    ("metrics.evaluate_s", "s"),
    ("model_io.save_s", "s"), ("model_io.load_s", "s"),
    ("model_io.bytes", "bytes"),
    ("pipeline.train_s", "s"), ("pipeline.predict_s", "s"),
)
TRACE_METRICS = (("trace.command_s", "s"), ("trace.spans", "count"),
                 ("trace.overhead_s", "s"))


def layer_values(t: Tracer, per: int) -> dict:
    """Every per-layer metric, divided by ``per`` operation rounds."""
    values = {**t.wall, **t.counts,
              "appnp.optimizer_s": t.self_time["appnp.train_weak_s"]}
    out = {name: values.get(name, 0.0) / per for name, _ in METRICS}
    attempted = t.counts["boost.candidates"]
    out["boost.distinct_candidate_ratio"] = (
        t.counts["boost.distinct_candidates"] / attempted if attempted else 0.0)
    return out
