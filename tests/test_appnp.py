"""APPNP weak classifier: forward algebra, gradients, training loop.

Gradients are verified against central finite differences; propagation is
verified against the dense closed-form PageRank limit.
"""

import contextlib
import dataclasses
import itertools
import math
import os
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphboost import appnp
from graphboost.appnp import (MAX_HIDDEN_DIM, MAX_PROP_STEPS, AppnpConfig,
                              AppnpModel, TrainReport, backward, forward,
                              init_model, loss, predict, propagate,
                              propagation_limit, softmax, train_candidates,
                              train_weak)
from graphboost.errors import DataError, TrainingDiverged
from graphboost.graph import (GraphStack, SparseAdjacency, build_adjacency,
                              identity_adjacency)
from graphboost.rng import substream


def make_instance(seed, n=6, m=3, h=4, k=2, steps=3, teleport=0.3,
                  weight_decay=1e-3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    y = rng.integers(0, k, size=n)
    y[:k] = np.arange(k)  # every class present
    w = rng.uniform(0.1, 1.0, size=n)
    mask = np.zeros(n, dtype=bool)
    mask[: max(2, n - 2)] = True
    cand = build_adjacency(rng.normal(size=n), float(rng.uniform(0.2, 1.5)))
    cfg = AppnpConfig(hidden_dim=h, prop_steps=steps, teleport=teleport,
                      dropout=0.0, weight_decay=weight_decay, seed=seed)
    model = init_model(cfg, m, k)
    return model, x, cand.adjacency, y, w, mask, cfg


def directional_gradient_errors(model, x, adj, y, w, mask, weight_decay, rng,
                                eps=1e-5):
    """Relative error between analytic and central-difference directional
    derivatives, one direction per parameter tensor."""
    _, cache = forward(model, x, adj)
    grads = backward(cache, y, w, mask, weight_decay)
    errors = {}
    for name in ("w1", "b1", "w2", "b2"):
        param = getattr(model, name)
        d = rng.normal(size=param.shape)
        analytic = float(np.sum(grads[name] * d))

        def loss_at(offset):
            saved = param.copy()
            param[...] = saved + offset
            z, _ = forward(model, x, adj)
            val = loss(z, y, w, mask, weight_decay, model)
            param[...] = saved
            return val

        numeric = (loss_at(eps * d) - loss_at(-eps * d)) / (2 * eps)
        errors[name] = abs(numeric - analytic) / max(1.0, abs(analytic))
    return errors


class TestForward:
    def test_teleport_one_is_mlp_only(self):
        model, x, adj, *_ = make_instance(0, teleport=1.0)
        z, cache = forward(model, x, adj)
        np.testing.assert_array_equal(z, cache.h0)
        z2, _ = forward(model, x, identity_adjacency(x.shape[0]))
        np.testing.assert_array_equal(z, z2)

    def test_zero_steps_is_mlp_only(self):
        model, x, adj, *_ = make_instance(1, steps=0)
        z, cache = forward(model, x, adj)
        np.testing.assert_array_equal(z, cache.h0)

    def test_two_node_hand_computation(self):
        # identity MLP on X=I gives H0=I; one step on the complete 2-graph
        # with teleport 0.5 mixes to [[0.75, 0.25], [0.25, 0.75]]
        cfg = AppnpConfig(hidden_dim=2, prop_steps=1, teleport=0.5,
                          dropout=0.0)
        model = AppnpModel(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2), cfg)
        x = np.eye(2)
        adj = build_adjacency(np.zeros(2), 0.0).adjacency
        z, _ = forward(model, x, adj)
        np.testing.assert_allclose(z, [[0.75, 0.25], [0.25, 0.75]])

    def test_dropout_off_without_rng(self):
        model, x, adj, *_ = make_instance(2)
        a, _ = forward(model, x, adj)
        b, _ = forward(model, x, adj)
        np.testing.assert_array_equal(a, b)

    def test_dropout_seeded(self):
        model, x, adj, *_ = make_instance(3)
        model.config = AppnpConfig(hidden_dim=4, prop_steps=3, teleport=0.3,
                                   dropout=0.5)
        a, _ = forward(model, x, adj, dropout_rng=substream(5, "d"))
        b, _ = forward(model, x, adj, dropout_rng=substream(5, "d"))
        c, _ = forward(model, x, adj, dropout_rng=substream(6, "d"))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_node_count_mismatch(self):
        model, x, adj, *_ = make_instance(4)
        with pytest.raises(DataError):
            forward(model, x[:-1], adj)


class TestPropagationAlgebra:
    def test_converges_to_closed_form(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = int(rng.integers(2, 10))
            adj = build_adjacency(rng.normal(size=n),
                                  float(rng.uniform(0.3, 2.0))).adjacency
            h0 = rng.normal(size=(n, 3))
            teleport = float(rng.choice([0.1, 0.3, 0.5]))
            z_inf = propagation_limit(h0, adj, teleport)
            prev = None
            for k in range(1, 60):
                zk = propagate(h0, adj, teleport, k)
                res = np.linalg.norm(zk - z_inf)
                if prev is not None and prev > 1e-10:
                    assert res <= (1.0 - teleport + 1e-9) * prev
                prev = res
            assert prev <= 1e-8 * max(1.0, np.linalg.norm(z_inf))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        model, x, _, *_ = make_instance(5, n=12)
        v = rng.normal(size=12)
        adj = build_adjacency(v, 0.8).adjacency
        labels, probs = predict(model, x, adj)
        perm = rng.permutation(12)
        adj_p = build_adjacency(v[perm], 0.8).adjacency
        labels_p, probs_p = predict(model, x[perm], adj_p)
        np.testing.assert_allclose(probs_p, probs[perm], atol=1e-12)
        np.testing.assert_array_equal(labels_p, labels[perm])


class TestLoss:
    def test_uniform_logits(self):
        for k in (2, 3, 5):
            z = np.zeros((4, k))
            y = np.zeros(4, dtype=int)
            w = np.ones(4)
            cfg = AppnpConfig(hidden_dim=2, dropout=0.0)
            model = AppnpModel(np.zeros((2, 3)), np.zeros(2),
                               np.zeros((k, 2)), np.zeros(k), cfg)
            val = loss(z, y, w, np.ones(4, dtype=bool), 0.0, model)
            assert val == pytest.approx(math.log(k), abs=1e-12)

    def test_known_value(self):
        z = np.array([[1.0, 0.0]])
        cfg = AppnpConfig(hidden_dim=2, dropout=0.0)
        model = AppnpModel(np.zeros((2, 2)), np.zeros(2),
                           np.zeros((2, 2)), np.zeros(2), cfg)
        val = loss(z, np.array([0]), np.array([1.0]),
                   np.array([True]), 0.0, model)
        assert val == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)

    def test_confident_correct_goes_to_zero(self):
        z = np.array([[40.0, 0.0]])
        cfg = AppnpConfig(hidden_dim=2, dropout=0.0)
        model = AppnpModel(np.zeros((2, 2)), np.zeros(2),
                           np.zeros((2, 2)), np.zeros(2), cfg)
        val = loss(z, np.array([0]), np.array([1.0]),
                   np.array([True]), 0.0, model)
        assert 0 <= val < 1e-15

    def test_zero_weights_rejected(self):
        model, x, adj, y, w, mask, cfg = make_instance(6)
        z, _ = forward(model, x, adj)
        with pytest.raises(DataError):
            loss(z, y, np.zeros_like(w), mask, 0.0, model)


class TestBackward:
    def test_finite_differences(self):
        rng = np.random.default_rng(42)
        for seed in range(8):
            n = int(rng.integers(3, 8))
            m = int(rng.integers(2, 4))
            h = int(rng.integers(2, 4))
            k = int(rng.integers(2, 3))
            steps = int(rng.integers(0, 3))
            model, x, adj, y, w, mask, cfg = make_instance(
                seed, n=n, m=m, h=h, k=k, steps=steps,
                teleport=float(rng.choice([0.2, 0.5, 1.0])))
            errors = directional_gradient_errors(
                model, x, adj, y, w, mask, cfg.weight_decay, rng)
            for name, err in errors.items():
                assert err <= 1e-4, f"{name}: {err}"

    def test_decay_only_in_saturated_limit(self):
        # with an enormous correct-class margin the CE gradient vanishes
        # and only the L2 term remains
        cfg = AppnpConfig(hidden_dim=2, prop_steps=0, dropout=0.0)
        w2 = np.array([[0.3, -0.2], [0.1, 0.4]])
        model = AppnpModel(np.zeros((2, 2)), np.zeros(2), w2.copy(),
                           np.array([100.0, -100.0]), cfg)
        x = np.ones((1, 2))
        adj = identity_adjacency(1)
        _, cache = forward(model, x, adj)
        grads = backward(cache, np.array([0]), np.array([1.0]),
                         np.array([True]), weight_decay=0.01)
        np.testing.assert_allclose(grads["w2"], 2 * 0.01 * w2, atol=1e-20)
        np.testing.assert_allclose(grads["w1"], 0.0, atol=1e-20)

    def test_teleport_one_equals_plain_mlp(self):
        model, x, adj, y, w, mask, cfg = make_instance(9, teleport=1.0)
        _, cache_graph = forward(model, x, adj)
        g_graph = backward(cache_graph, y, w, mask, cfg.weight_decay)
        _, cache_id = forward(model, x, identity_adjacency(x.shape[0]))
        g_id = backward(cache_id, y, w, mask, cfg.weight_decay)
        for name in g_graph:
            np.testing.assert_array_equal(g_graph[name], g_id[name])


    @pytest.mark.parametrize("c, n, h, k, dropout", [
        (1, 1, 1, 2, None), (3, 257, 7, 2, 0.3), (2, 2001, 16, 9, 0.1),
        (4, 640, 5, 3, None)])
    def test_bias_gradients_against_exact_row_sums(self, c, n, h, k,
                                                   dropout):
        # db2 = sum over rows of dH0, db1 = sum over rows of dA1 =
        # (dH0 @ W2) * dmask * [a1 > 0], each against math.fsum of its
        # terms. Any order of adding N terms is within (N - 1) u of the
        # sum of their magnitudes; the terms of dA1 add K products more.
        rng = np.random.default_rng(n)
        p = {"w1": rng.normal(size=(c, h, 3)),
             "w2": rng.normal(size=(c, k, h))}
        x = rng.normal(size=(n, 3))
        a1 = rng.normal(size=(c, n, h))
        dmask = None
        if dropout is not None:
            dmask = appnp._dropout_mask(rng, (n, h), dropout)
        hd = np.maximum(a1, 0.0) * (1.0 if dmask is None else dmask)
        dh0 = rng.normal(size=(c, n, k)) * np.exp(rng.normal(size=(c, n, 1)))
        terms = np.einsum("cnk,ckh->cnh", dh0, p["w2"]) * (a1 > 0.0)
        if dmask is not None:
            terms *= dmask
        grads = appnp._param_grads(p, x, hd.copy(), dmask, dh0, 1e-3)
        u = 2.0 ** -53
        for got, parts, extra in ((grads["b2"], dh0, 0),
                                  (grads["b1"], terms, k)):
            exact = np.array([[math.fsum(col) for col in block.T]
                              for block in parts])
            bound = (n + extra) * u * np.abs(parts).sum(axis=1)
            assert got.shape == exact.shape
            assert np.all(np.abs(got - exact) <= bound)


class TestTrainWeak:
    def _toy(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        y = np.arange(n) % 2
        x = np.column_stack([y * 4.0 - 2.0 + rng.normal(0, 0.3, n),
                             rng.normal(size=n)])
        train = np.zeros(n, dtype=bool)
        train[: n - 10] = True
        val = ~train
        return x, y, train, val

    def test_separable_toy_reaches_zero_error(self):
        x, y, train, val = self._toy()
        w = np.full(len(y), 1.0 / len(y))
        cfg = AppnpConfig(hidden_dim=8, prop_steps=0, teleport=1.0,
                          dropout=0.0, learning_rate=0.05, weight_decay=0.0,
                          max_epochs=300, patience=300, seed=1)
        adj = identity_adjacency(len(y))
        model, report = train_weak(cfg, x, adj, y, w, train, val, n_classes=2)
        labels, _ = predict(model, x, adj)
        assert np.all(labels[train] == y[train])
        assert report.epochs_run > 0

    def test_zero_epochs_returns_init(self):
        x, y, train, val = self._toy(seed=2)
        w = np.full(len(y), 1.0 / len(y))
        cfg = AppnpConfig(hidden_dim=4, max_epochs=0, dropout=0.0, seed=3)
        adj = identity_adjacency(len(y))
        model, report = train_weak(cfg, x, adj, y, w, train, val, n_classes=2)
        assert report.epochs_run == 0
        ref = init_model(cfg, 2, 2)
        np.testing.assert_array_equal(model.w1, ref.w1)
        np.testing.assert_array_equal(model.w2, ref.w2)

    def test_bitwise_deterministic(self):
        x, y, train, val = self._toy(seed=4)
        w = np.full(len(y), 1.0 / len(y))
        cfg = AppnpConfig(hidden_dim=8, prop_steps=2, teleport=0.3,
                          dropout=0.3, learning_rate=0.01, max_epochs=25,
                          patience=25, seed=11)
        adj = build_adjacency(x[:, 0], 0.5).adjacency
        m1, r1 = train_weak(cfg, x, adj, y, w, train, val, n_classes=2)
        m2, r2 = train_weak(cfg, x, adj, y, w, train, val, n_classes=2)
        for a, b in zip(m1.copy_weights(), m2.copy_weights()):
            np.testing.assert_array_equal(a, b)
        assert r1 == r2

    def test_early_stopping_respects_patience(self):
        x, y, train, val = self._toy(seed=5)
        w = np.full(len(y), 1.0 / len(y))
        cfg = AppnpConfig(hidden_dim=4, prop_steps=0, teleport=1.0,
                          dropout=0.0, learning_rate=1e-6, max_epochs=500,
                          patience=3, seed=6)
        adj = identity_adjacency(len(y))
        _, report = train_weak(cfg, x, adj, y, w, train, val, n_classes=2)
        assert report.early_stopped
        assert report.epochs_run <= 50

    def test_divergence_detected(self):
        x, y, train, val = self._toy(seed=7)
        w = np.full(len(y), 1.0 / len(y))
        cfg = AppnpConfig(hidden_dim=4, dropout=0.0, weight_decay=1e308,
                          max_epochs=5, seed=8)
        adj = identity_adjacency(len(y))
        with pytest.raises(TrainingDiverged, match="epoch"):
            train_weak(cfg, x, adj, y, w, train, val, n_classes=2)

    def test_overlapping_masks_rejected(self):
        x, y, train, val = self._toy(seed=8)
        w = np.full(len(y), 1.0 / len(y))
        cfg = AppnpConfig(hidden_dim=4)
        with pytest.raises(DataError):
            train_weak(cfg, x, identity_adjacency(len(y)), y, w, train,
                       train, n_classes=2)


def reference_train_weak(config, x, adjacency, y, w, train, val, k):
    """The one-graph trainer written as a plain loop over 2-D arrays, with
    propagation by repeated ``SparseAdjacency.matmul``: the slow path that
    the stacked trainer replaced, kept as its float oracle. It propagates
    all K logits where the trainer propagates K - 1 differences, multiplies
    by transposed views and sums the bias gradients over rows, so it agrees
    with the trainer to rounding, not bit for bit."""
    model = init_model(config, x.shape[1], k)
    rng = substream(config.seed, "dropout")
    a = config.teleport

    def run(dropout):
        a1 = x @ model.w1.T + model.b1
        r = np.maximum(a1, 0.0)
        dmask, hd = None, r
        if dropout and config.dropout > 0.0:
            keep = 1.0 - config.dropout
            dmask = (rng.random(r.shape) < keep) / keep
            hd = r * dmask
        h0 = hd @ model.w2.T + model.b2
        return a1, dmask, hd, h0, prop(h0)

    def prop(h):
        z = h.copy()
        if a < 1.0:
            for _ in range(config.prop_steps):
                z = adjacency.matmul(z)
                z *= 1.0 - a
                z += a * h
        return z

    def val_error():
        z = run(False)[-1]
        wm = w[val]
        wrong = np.argmax(z, axis=1)[val] != y[val]
        return float(np.dot(wm / wm.sum(), wrong))

    def train_loss(z):
        wm = w[train]
        shifted = z[train] - z[train].max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        ce = -logp[np.arange(logp.shape[0]), y[train]]
        reg = config.weight_decay * (np.sum(model.w1 ** 2)
                                     + np.sum(model.w2 ** 2))
        return float(np.dot(wm, ce) / wm.sum() + reg), np.exp(logp)

    if config.max_epochs == 0:
        first_loss = train_loss(run(False)[-1])[0]
        return model, TrainReport(0, val_error(), first_loss, False)
    params = {"w1": model.w1, "b1": model.b1, "w2": model.w2, "b2": model.b2}
    adam_m = {n: np.zeros_like(v) for n, v in params.items()}
    adam_v = {n: np.zeros_like(v) for n, v in params.items()}
    best_err, best, best_epoch = float("inf"), model.copy_weights(), -1
    epochs_run, stopped, decay = 0, False, 2.0 * config.weight_decay
    for epoch in range(config.max_epochs):
        lr = config.learning_rate * 0.5 * (1.0 + math.cos(
            math.pi * epoch / config.max_epochs))
        a1, dmask, hd, h0, z = run(True)
        final_loss, probs = train_loss(z)
        if not math.isfinite(final_loss):
            culprit = "loss"
            for name, arr in (("hidden", a1), ("head", h0),
                              ("propagated", z)):
                if not np.all(np.isfinite(arr)):
                    culprit = f"{name} activations"
                    break
            raise TrainingDiverged(f"non-finite {culprit} at epoch {epoch}",
                                   epoch=epoch)
        g = np.zeros_like(z)
        probs[np.arange(probs.shape[0]), y[train]] -= 1.0
        g[train] = probs * (w[train] / w[train].sum())[:, None]
        dh0 = prop(g)
        dr = dh0 @ model.w2 if dmask is None else dh0 @ model.w2 * dmask
        da1 = dr * (a1 > 0.0)
        grads = {"w1": da1.T @ x + decay * model.w1, "b1": da1.sum(axis=0),
                 "w2": dh0.T @ hd + decay * model.w2, "b2": dh0.sum(axis=0)}
        t = epoch + 1
        for n, p in params.items():
            adam_m[n] = 0.9 * adam_m[n] + (1 - 0.9) * grads[n]
            adam_v[n] = 0.999 * adam_v[n] + (1 - 0.999) * grads[n] ** 2
            m_hat = adam_m[n] / (1 - 0.9 ** t)
            v_hat = adam_v[n] / (1 - 0.999 ** t)
            p -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        epochs_run = t
        err = val_error()
        if err < best_err:
            best_err, best, best_epoch = err, model.copy_weights(), epoch
        else:
            if err == best_err:
                best = model.copy_weights()
            if epoch - best_epoch >= config.patience:
                stopped = True
                break
    model.w1, model.b1, model.w2, model.b2 = best
    return model, TrainReport(epochs_run, best_err, final_loss, stopped)


# Weights and final training loss of the block trainer against
# ``reference_train_weak``. On the problems below, K = 1 to 4, the two
# differ by at most 1.9e-15.
TRAIN_RTOL = TRAIN_ATOL = 1e-12


def assert_training_labels(model, labels, x, graph):
    """The labels that training returned with ``model`` on ``graph``, 1
    byte up to 256 classes, against its one-model ``StoredRun`` bit for
    bit, and against the K-line ``predict`` wherever no two logits lie
    within rounding."""
    assert labels.dtype == np.min_scalar_type(model.b2.size - 1)
    np.testing.assert_array_equal(
        labels, appnp.StoredRun([model], x, graph).labels[0], strict=True)
    z, _ = forward(model, x, graph.adjacency)
    clear = np.ones(len(z), dtype=bool)
    if z.shape[1] > 1:
        top = np.sort(z, axis=1)
        clear = top[:, -1] - top[:, -2] > 1e-9 * (1.0 + np.abs(z).max(axis=1))
    np.testing.assert_array_equal(labels[clear], np.argmax(z, axis=1)[clear])


@contextlib.contextmanager
def losses_turn_inf(epochs):
    """While open, make the training loss of the learner on each adjacency
    of the (adjacency, epoch) pairs ``epochs`` inf at that epoch, whether
    it trains in a block or alone: the learner diverges there. A learner
    is told by its graph's frame positions, which ``_Targets`` receives as
    ``at``, so a graph of ``epochs`` needs a row order that no other graph
    of the run has; its epoch is the count of its losses since the last
    call of ``reset``. Yields ``reset`` and the list of the learner counts
    of the ``losses`` calls."""
    chosen = {np.argsort(a.order).tobytes(): e for a, e in epochs}
    seen, counts = {}, []
    init, losses = appnp._Targets.__init__, appnp._Targets.losses

    def tagged_init(self, at, *args, **kwargs):
        init(self, at, *args, **kwargs)
        self.keys = [(row - c * at.shape[1]).tobytes()
                     for c, row in enumerate(at)]

    def poisoned_losses(self, *args):
        values = losses(self, *args)
        counts.append(len(values))
        for c, key in enumerate(self.keys):
            seen[key] = seen.get(key, -1) + 1
            if chosen.get(key) == seen[key]:
                values[c] = math.inf
        return values

    def reset():
        seen.clear()
        counts.clear()

    with mock.patch.object(appnp._Targets, "__init__", tagged_init), \
            mock.patch.object(appnp._Targets, "losses", poisoned_losses):
        yield reset, counts


class TestTrainCandidates:
    """The block trainer against one-graph ``train_weak`` runs, weights and
    every report field equal bit for bit, and against the plain-loop
    reference within ``TRAIN_RTOL`` and ``TRAIN_ATOL``, its discrete report
    fields equal; a diverged graph raises the same error in all three."""

    def _problem(self, seed=0, n=70, k=2):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, k, size=n)
        x = np.column_stack([y + rng.normal(0, 0.8, n), rng.normal(size=n),
                             rng.integers(0, 4, size=n) * 1.0])
        w = rng.uniform(0.5, 1.5, size=n)
        split = rng.permutation(n)
        train = np.isin(np.arange(n), split[:45])
        val = np.isin(np.arange(n), split[45:60])
        # the last graph is edgeless: identity_adjacency(n), bit for bit
        graphs = [build_adjacency(x[:, j], g)
                  for j, g in ((0, 0.2), (1, 0.5), (2, 0.0), (0, 1.0),
                               (1, 0.1), (2, 1.0))]
        graphs.append(build_adjacency(np.arange(n, dtype=float), 0.0))
        return x, y, w, train, val, graphs

    def _check(self, config, x, y, w, train, val, graphs, k=2):
        got = train_candidates(config, x, [g.adjacency for g in graphs], y,
                               w, train, val, n_classes=k)
        assert len(got) == len(graphs)
        for graph, outcome in zip(graphs, got):
            adj = graph.adjacency
            try:
                want = reference_train_weak(config, x, adj, y, w, train, val,
                                            k)
            except TrainingDiverged as exc:
                assert isinstance(outcome, TrainingDiverged)
                assert (str(outcome), outcome.epoch) == (str(exc), exc.epoch)
                with pytest.raises(TrainingDiverged, match=str(exc)):
                    train_weak(config, x, adj, y, w, train, val, n_classes=k)
                continue
            model, report, labels = outcome
            assert_training_labels(model, labels, x, graph)
            solo = train_weak(config, x, adj, y, w, train, val, n_classes=k)
            assert report == solo[1]
            for a, b in zip(model.copy_weights(), solo[0].copy_weights()):
                np.testing.assert_array_equal(a, b)
            ref_model, ref = want
            assert (report.epochs_run, report.best_val_error,
                    report.early_stopped) == (ref.epochs_run,
                                              ref.best_val_error,
                                              ref.early_stopped)
            np.testing.assert_allclose(report.final_train_loss,
                                       ref.final_train_loss,
                                       rtol=TRAIN_RTOL, atol=TRAIN_ATOL)
            for a, b in zip(model.copy_weights(), ref_model.copy_weights()):
                np.testing.assert_allclose(a, b, rtol=TRAIN_RTOL,
                                           atol=TRAIN_ATOL)
        return got

    def test_early_stops_at_different_epochs(self):
        x, y, w, train, val, graphs = self._problem(seed=1)
        cfg = AppnpConfig(hidden_dim=6, prop_steps=3, teleport=0.2,
                          dropout=0.3, learning_rate=0.05, max_epochs=60,
                          patience=4, seed=2)
        got = self._check(cfg, x, y, w, train, val, graphs)
        reports = [r for _, r, _ in got]
        assert any(r.early_stopped for r in reports)
        assert len({r.epochs_run for r in reports}) > 1

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_one_graph_diverges_mid_block(self):
        # A hand-built graph whose normalisation factors are 1e200 makes
        # propagation overflow; the graphs around it must still match.
        x, y, w, train, val, graphs = self._problem(seed=3)
        n = len(y)
        pos = np.arange(n)
        blowup = SparseAdjacency(n, pos, pos, pos + 1, np.full(n, 1e200))
        # the edgeless graph's windows, with the blown-up factors
        graphs.insert(1, dataclasses.replace(graphs[-1], adjacency=blowup))
        cfg = AppnpConfig(hidden_dim=5, prop_steps=2, teleport=0.1,
                          dropout=0.2, learning_rate=0.03, max_epochs=15,
                          patience=15, seed=4)
        got = self._check(cfg, x, y, w, train, val, graphs)
        assert isinstance(got[1], TrainingDiverged)
        assert "propagated activations at epoch 0" in str(got[1])
        assert sum(isinstance(o, TrainingDiverged) for o in got) == 1

    def test_without_dropout(self):
        x, y, w, train, val, graphs = self._problem(seed=5)
        cfg = AppnpConfig(hidden_dim=4, prop_steps=2, teleport=0.3,
                          dropout=0.0, learning_rate=0.02, max_epochs=25,
                          patience=5, seed=6)
        self._check(cfg, x, y, w, train, val, graphs)

    def test_three_classes(self):
        x, y, w, train, val, graphs = self._problem(seed=11, n=90, k=3)
        cfg = AppnpConfig(hidden_dim=7, prop_steps=4, teleport=0.15,
                          dropout=0.25, learning_rate=0.04, max_epochs=30,
                          patience=5, seed=12)
        self._check(cfg, x, y, w, train, val, graphs, k=3)

    def test_four_classes(self):
        x, y, w, train, val, graphs = self._problem(seed=11, n=90, k=4)
        cfg = AppnpConfig(hidden_dim=7, prop_steps=4, teleport=0.15,
                          dropout=0.25, learning_rate=0.04, max_epochs=30,
                          patience=5, seed=12)
        self._check(cfg, x, y, w, train, val, graphs, k=4)

    def test_one_class(self):
        # no difference lines: every logit is class 0's zero, every label 0
        x, y, w, train, val, graphs = self._problem(seed=13, k=1)
        cfg = AppnpConfig(hidden_dim=4, prop_steps=2, teleport=0.1,
                          dropout=0.1, learning_rate=0.05, max_epochs=5,
                          patience=5, seed=14)
        got = self._check(cfg, x, y, w, train, val, graphs, k=1)
        assert all(r.best_val_error == 0.0 for _, r, _ in got)
        for _, _, labels in got:
            np.testing.assert_array_equal(labels, 0)

    def test_zero_epochs(self):
        x, y, w, train, val, graphs = self._problem(seed=7)
        cfg = AppnpConfig(hidden_dim=4, prop_steps=2, max_epochs=0, seed=8)
        got = self._check(cfg, x, y, w, train, val, graphs)
        assert all(r.epochs_run == 0 for _, r, _ in got)

    @pytest.mark.parametrize("block", [1, 2, 3, 100])
    def test_graph_count_not_a_multiple_of_the_block(self, block,
                                                     monkeypatch):
        x, y, w, train, val, graphs = self._problem(seed=9)
        assert len(graphs) % 2 and len(graphs) % 3
        cfg = AppnpConfig(hidden_dim=4, prop_steps=2, teleport=0.1,
                          dropout=0.1, learning_rate=0.05, max_epochs=20,
                          patience=3, seed=10)
        # a budget of ``block`` activation buffers of N x H
        monkeypatch.setattr(appnp, "BLOCK_BYTES",
                            block * len(y) * cfg.hidden_dim * 8)
        self._check(cfg, x, y, w, train, val, graphs)

    def test_threads_match_serial_with_a_diverging_candidate(self,
                                                             monkeypatch):
        x, y, w, train, val, graphs = self._problem(seed=3)
        n = len(y)
        pos = np.arange(n)
        blowup = SparseAdjacency(n, pos, pos, pos + 1, np.full(n, 1e200))
        # at 3 graphs a block on 3 threads, the middle of the second block
        graphs = [g.adjacency for g in graphs]
        graphs.insert(4, blowup)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        cfg = AppnpConfig(hidden_dim=5, prop_steps=2, teleport=0.1,
                          dropout=0.2, learning_rate=0.03, max_epochs=15,
                          patience=15, seed=4)
        learner_bytes = n * cfg.hidden_dim * 8
        serial = train_candidates(cfg, x, graphs, y, w, train, val,
                                  n_classes=2)
        assert [isinstance(o, TrainingDiverged) for o in serial] == \
            [i == 4 for i in range(len(graphs))]
        # 8 threads of one-graph blocks, switching as often as they can,
        # would expose an outcome lost or put in the wrong place; at most
        # 3 graphs a block make 4 blocks of 2 on 2 threads, 3 on 3
        interval = sys.getswitchinterval()
        for block, workers in ((3, 2), (3, 3), (1, 8)):
            monkeypatch.setattr(appnp, "BLOCK_BYTES", block * learner_bytes)
            sys.setswitchinterval(1e-6)
            try:
                threaded = train_candidates(cfg, x, graphs, y, w, train,
                                            val, n_classes=2,
                                            workers=workers)
            finally:
                sys.setswitchinterval(interval)
            assert len(threaded) == len(serial)
            for want, got in zip(serial, threaded):
                if isinstance(want, TrainingDiverged):
                    assert isinstance(got, TrainingDiverged)
                    assert (str(got), got.epoch) == (str(want), want.epoch)
                    continue
                assert got[1] == want[1]
                for a, b in zip(got[0].copy_weights(),
                                want[0].copy_weights()):
                    np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(got[2], want[2])

    @pytest.mark.parametrize("workers", [0, 2])
    def test_blocks_match_solo_runs_that_stop_and_diverge_apart(
            self, workers, monkeypatch):
        # A column near the float range makes four learners' hidden
        # activations overflow at epoch 1, a blown-up graph diverges at
        # epoch 0, and the rest stop early at different epochs. Blocks of
        # 3 learners share the round's dropout masks.
        x, y, w, train, val, graphs = self._problem(seed=1)
        n = len(y)
        x = np.column_stack([x, 1e306 * (x[:, 1] > 0.5)])
        pos = np.arange(n)
        blowup = SparseAdjacency(n, pos, pos, pos + 1, np.full(n, 1e200))
        graphs.insert(2, dataclasses.replace(graphs[-1], adjacency=blowup))
        cfg = AppnpConfig(hidden_dim=6, prop_steps=3, teleport=0.2,
                          dropout=0.3, learning_rate=3.0, max_epochs=40,
                          patience=8, seed=2)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(appnp, "BLOCK_BYTES", 3 * n * cfg.hidden_dim * 8)
        got = train_candidates(cfg, x, [g.adjacency for g in graphs], y, w,
                               train, val, n_classes=2, workers=workers)
        diverged, stopped = set(), set()
        for graph, outcome in zip(graphs, got):
            try:
                model, report = train_weak(cfg, x, graph.adjacency, y, w,
                                           train, val, n_classes=2)
            except TrainingDiverged as exc:
                assert isinstance(outcome, TrainingDiverged)
                assert (str(outcome), outcome.epoch) == (str(exc), exc.epoch)
                diverged.add(exc.epoch)
                continue
            assert outcome[1] == report and report.early_stopped
            stopped.add(report.epochs_run)
            for a, b in zip(outcome[0].copy_weights(), model.copy_weights()):
                assert_same_bits(a, b)
            assert_training_labels(model, outcome[2], x, graph)
        assert diverged == {0, 1} and len(stopped) > 1

    def test_no_learner_computes_after_it_leaves(self):
        # One block of 9: a blown-up graph diverges at epoch 0, the loss
        # of the learner on a column of its own turns inf at epoch 5, and
        # the rest stop early at different epochs. Each epoch's forward and
        # backward pass take exactly the learners that have not left at an
        # earlier epoch.
        x, y, w, train, val, graphs = self._problem(seed=1)
        n = len(y)
        pos = np.arange(n)
        blowup = SparseAdjacency(n, pos, pos, pos + 1, np.full(n, 1e200))
        graphs.insert(2, dataclasses.replace(graphs[-1], adjacency=blowup))
        graphs.insert(4, build_adjacency(
            np.random.default_rng(5).normal(size=n), 0.3))
        cfg = AppnpConfig(hidden_dim=6, prop_steps=3, teleport=0.2,
                          dropout=0.3, learning_rate=0.05, max_epochs=60,
                          patience=4, seed=2)
        grads, param_grads = [], appnp._param_grads

        def counted_grads(p, *args, **kwargs):
            grads.append(len(p["w1"]))
            return param_grads(p, *args, **kwargs)

        with losses_turn_inf([(graphs[4].adjacency, 5)]) as (_, counts), \
                mock.patch.object(appnp, "_param_grads", counted_grads):
            got = train_candidates(cfg, x, [g.adjacency for g in graphs],
                                   y, w, train, val, n_classes=2)
        last = [o.epoch if isinstance(o, TrainingDiverged)
                else o[1].epochs_run - 1 for o in got]
        assert [isinstance(o, TrainingDiverged) for o in got] == \
            [i in (2, 4) for i in range(len(graphs))]
        assert (last[2], last[4]) == (0, 5) and len(set(last)) > 3
        present = [sum(e >= epoch for e in last)
                   for epoch in range(max(last) + 1)]
        assert counts == present and grads == present

    @settings(max_examples=100, deadline=None)
    @given(patience=st.integers(0, 5), epochs=st.integers(1, 30),
           count=st.integers(1, 8), cap=st.integers(1, 9),
           workers=st.sampled_from([0, 2]),
           diverge=st.lists(st.one_of(st.none(), st.integers(0, 5),
                                      st.integers(0, 29)),
                            min_size=9, max_size=9),
           blowup=st.one_of(st.none(), st.integers(0, 8)),
           seed=st.integers(0, 2**32 - 1))
    def test_blocks_match_solo_runs_as_learners_leave(
            self, patience, epochs, count, cap, workers, diverge, blowup,
            seed):
        # Learners stop early, reach max_epochs, diverge at epoch 0 on a
        # blown-up graph, or diverge at chosen epochs, in blocks of up to
        # ``cap``: each outcome equals its solo run bit for bit.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 50))
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        x = np.column_stack([y + rng.normal(0, 1.0, n),
                             rng.normal(size=(n, 2))])
        w = rng.uniform(0.5, 1.5, size=n)
        split = rng.permutation(n)
        train = np.isin(np.arange(n), split[:n // 2])
        val = np.isin(np.arange(n), split[n // 2:])
        # each graph on a column of its own, so that row orders differ
        graphs = [build_adjacency(rng.normal(size=n), g)
                  for g in rng.uniform(0.0, 1.5, size=count)]
        if blowup is not None:
            pos = np.arange(n)
            graphs.insert(min(blowup, count), dataclasses.replace(
                graphs[0], adjacency=SparseAdjacency(
                    n, pos, pos, pos + 1, np.full(n, 1e200))))
        cfg = AppnpConfig(hidden_dim=int(rng.integers(1, 8)),
                          prop_steps=int(rng.integers(4)), teleport=0.2,
                          dropout=0.2, learning_rate=0.05, max_epochs=epochs,
                          patience=patience, seed=int(rng.integers(100)))
        poisoned = [(g.adjacency, e) for g, e in zip(graphs, diverge)
                    if e is not None]
        with losses_turn_inf(poisoned) as (reset, _), mock.patch.object(
                appnp, "BLOCK_BYTES", cap * n * cfg.hidden_dim * 8):
            got = train_candidates(cfg, x, [g.adjacency for g in graphs], y,
                                   w, train, val, n_classes=2,
                                   workers=workers)
            for graph, outcome in zip(graphs, got):
                reset()
                try:
                    model, report = train_weak(cfg, x, graph.adjacency, y,
                                               w, train, val, n_classes=2)
                except TrainingDiverged as exc:
                    assert isinstance(outcome, TrainingDiverged)
                    assert (str(outcome), outcome.epoch) == (str(exc),
                                                             exc.epoch)
                    continue
                assert outcome[1] == report
                assert [type(v) for v in dataclasses.astuple(report)] == \
                    [int, float, float, bool]
                for a, b in zip(outcome[0].copy_weights(),
                                model.copy_weights()):
                    assert_same_bits(a, b)
                assert_training_labels(model, outcome[2], x, graph)

    def test_decay_sums_per_layer_match_per_learner_sums(self):
        # the block sums each layer's squares over axes (1, 2) of a slab
        # view at once; each learner's sum keeps the bits of its own
        rng = np.random.default_rng(17)
        for _ in range(2000):
            c, h = (int(v) for v in rng.integers(1, [12, 80]))
            m, k = (int(v) for v in rng.integers(1, [300, 10]))
            shapes = [(h, m), (h,), (k, h), (k,)]
            slab = rng.normal(size=(c, h * m + h + k * h + k))
            p = appnp._views(slab, shapes)
            for name in ("w1", "w2"):
                got = np.sum(p[name] ** 2, axis=(1, 2))
                want = [np.sum(np.ascontiguousarray(p[name][i]) ** 2)
                        for i in range(c)]
                assert_same_bits(got, want)

    @settings(max_examples=60, deadline=None)
    @given(epochs=st.integers(0, 6), n=st.integers(1, 30),
           h=st.integers(1, 9), dropout=st.sampled_from([0.1, 0.5, 0.9]),
           seed=st.integers(0, 2**32 - 1), overlap=st.booleans(),
           data=st.data())
    def test_two_threads_draw_each_epochs_mask_once(self, epochs, n, h,
                                                    dropout, seed, overlap,
                                                    data):
        # Two threads call one holder for epochs 0 to E, as two blocks do,
        # in an interleaving drawn below; with ``overlap`` a thread lets
        # the other go on as it enters its call, else once it returns.
        # Each epoch's mask is the (e + 1)-th _dropout_mask draw, drawn once.
        turns = data.draw(st.permutations([0, 1] * (epochs + 1)))
        cfg = AppnpConfig(hidden_dim=h, dropout=dropout, seed=seed)
        holder = appnp._DropoutMasks(cfg, (n, h))
        holder._rng = mock.Mock(wraps=holder._rng)
        cond = threading.Condition()
        at, got, errors = [0], {0: [], 1: []}, []

        def advance():
            with cond:
                at[0] += 1
                cond.notify_all()

        def run(me):
            try:
                for epoch in range(epochs + 1):
                    with cond:
                        assert cond.wait_for(lambda: turns[at[0]] == me, 10)
                    if overlap:
                        advance()
                    got[me].append(holder(epoch))
                    if not overlap:
                        advance()
            except BaseException as exc:  # re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(me,)) for me in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        rng = substream(seed, "dropout")
        want = [appnp._dropout_mask(rng, (n, h), dropout)
                for _ in range(epochs + 1)]
        for masks in got.values():
            assert len(masks) == len(want)
            for mask, ref in zip(masks, want):
                assert_same_bits(mask, ref)
        assert holder._rng.random.call_count == epochs + 1

    @settings(max_examples=50, deadline=None)
    @given(k=st.sampled_from([1, 2, 3, 9]), hidden=st.integers(1, 12),
           count=st.integers(1, 9), cap=st.integers(1, 5),
           workers=st.sampled_from([0, 2]),
           dropout=st.sampled_from([0.0, 0.2]),
           seed=st.integers(0, 2**32 - 1))
    def test_blocks_match_solo_runs(self, k, hidden, count, cap, workers,
                                    dropout, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(k + 4, 60))
        y = rng.integers(0, k, size=n)
        y[:k] = np.arange(k)
        x = np.column_stack([y + rng.normal(0, 1.0, n),
                             rng.normal(size=(n, 2))])
        w = rng.uniform(0.5, 1.5, size=n)
        split = rng.permutation(n)
        train = np.isin(np.arange(n), split[:n // 2])
        val = np.isin(np.arange(n), split[n // 2:])
        graphs = [build_adjacency(x[:, j % 3], g)
                  for j, g in enumerate(rng.uniform(0.0, 1.5, size=count))]
        cfg = AppnpConfig(hidden_dim=hidden, prop_steps=int(rng.integers(4)),
                          teleport=0.2, dropout=dropout, learning_rate=0.05,
                          max_epochs=int(rng.integers(6)), patience=2,
                          seed=int(rng.integers(100)))
        # blocks of at most ``cap`` graphs
        with mock.patch.object(appnp, "BLOCK_BYTES", cap * n * hidden * 8):
            got = train_candidates(cfg, x, [g.adjacency for g in graphs], y,
                                   w, train, val, n_classes=k,
                                   workers=workers)
        for graph, (model, report, labels) in zip(graphs, got):
            solo_model, solo_report = train_weak(cfg, x, graph.adjacency, y,
                                                 w, train, val, n_classes=k)
            assert report == solo_report
            for a, b in zip(model.copy_weights(), solo_model.copy_weights()):
                assert_same_bits(a, b)
            assert_training_labels(model, labels, x, graph)

    def test_first_error_in_block_order_surfaces_unchanged(self,
                                                           monkeypatch):
        # Three threads take blocks 0, 1 and 2. Block 2 fails first, block
        # 1 later; block 1's error is the one a serial loop raises.
        n = 5
        graphs = [identity_adjacency(n) for _ in range(6)]
        errors = {1: RuntimeError("block 1"), 2: RuntimeError("block 2")}
        block_2_failed = threading.Event()
        started = []

        def fake_block(config, x, block, *args):
            i = next(j for j, g in enumerate(graphs) if g is block[0])
            started.append(i)
            if i == 2:
                block_2_failed.set()
                raise errors[2]
            block_2_failed.wait(10.0)
            time.sleep(0.1)  # lets block 2's thread record its error
            if i == 1:
                raise errors[1]
            return [i]

        monkeypatch.setattr(appnp, "BLOCK_BYTES", 1)  # one-graph blocks
        monkeypatch.setattr(appnp, "_train_block", fake_block)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            train_candidates(AppnpConfig(), np.zeros((n, 1)), graphs,
                             np.zeros(n, dtype=np.int64), np.ones(n),
                             np.arange(n) < 3, np.arange(n) >= 3,
                             n_classes=2, workers=3)
        assert info.value is errors[1]
        assert threading.active_count() == before
        assert sorted(started) == [0, 1, 2]

    @pytest.mark.parametrize("workers, cpus, threads", [
        (0, 64, 0), (1, 64, 0), (4, 64, 3), (10**6, None, 0),
        (10**6, 1, 0), (10**6, 3, 2), (10**6, 64, 6)])
    def test_thread_count_is_capped(self, monkeypatch, workers, cpus,
                                    threads):
        # at most min(workers, blocks, cpu_count) - 1 helpers; 7 blocks
        started = []

        class Counting(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        n = 5
        graphs = [identity_adjacency(n) for _ in range(7)]
        monkeypatch.setattr(threading, "Thread", Counting)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(appnp, "BLOCK_BYTES", 1)  # one-graph blocks
        monkeypatch.setattr(appnp, "_train_block",
                            lambda config, x, block, *args: list(block))
        got = train_candidates(AppnpConfig(), np.zeros((n, 1)), graphs,
                               np.zeros(n, dtype=np.int64), np.ones(n),
                               np.arange(n) < 3, np.arange(n) >= 3,
                               n_classes=2, workers=workers)
        assert len(got) == len(graphs)
        assert all(a is b for a, b in zip(got, graphs))
        assert len(started) == threads

    def test_block_holds_one_activation_buffer(self):
        # A block's traced peak, at most 3 C x N x H float64 buffers: the
        # activation buffer plus the graph stack, the dropout mask and the
        # C x N x K arrays of propagation.
        n, m, h, k, c = 2000, 10, 16, 2, 4
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, m))
        y = rng.integers(0, k, size=n)
        w = np.full(n, 1.0 / n)
        train, val = np.arange(n) < 1400, np.arange(n) >= 1700
        graphs = [build_adjacency(x[:, j], 0.1).adjacency for j in range(c)]
        cfg = AppnpConfig(hidden_dim=h, prop_steps=3, dropout=0.1,
                          learning_rate=0.05, max_epochs=3, patience=3,
                          seed=1)
        tracemalloc.start()
        try:
            appnp._train_block(cfg, x, graphs, y, w, train, val, k,
                               appnp._DropoutMasks(cfg, (n, h)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * c * n * h * 8

    def test_block_peak_per_learner(self):
        # A block of 10, as the fit cohorts train at N = 2000 and H = 16,
        # peaks at most 2.1 C x N x H float64 buffers: the activation
        # buffer, and less than as much again for everything else.
        n, m, h, k, c = 2000, 10, 16, 2, 10
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, m))
        y = rng.integers(0, k, size=n)
        w = np.full(n, 1.0 / n)
        train, val = np.arange(n) < 1400, np.arange(n) >= 1700
        graphs = [build_adjacency(x[:, j], 0.1).adjacency for j in range(c)]
        cfg = AppnpConfig(hidden_dim=h, prop_steps=3, dropout=0.1,
                          learning_rate=0.05, max_epochs=3, patience=3,
                          seed=1)
        tracemalloc.start()
        try:
            appnp._train_block(cfg, x, graphs, y, w, train, val, k,
                               appnp._DropoutMasks(cfg, (n, h)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * c * n * h * 8

    def test_block_peak_as_learners_leave(self):
        # Learners of a block of 10 stop at different epochs; moving the
        # survivors' activations up in place keeps the block's peak within
        # 2.1 C x N x H float64 buffers.
        n, m, h, k, c = 2000, 10, 16, 2, 10
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, m))
        y = rng.integers(0, k, size=n)
        w = np.full(n, 1.0 / n)
        train, val = np.arange(n) < 1400, np.arange(n) >= 1700
        graphs = [build_adjacency(x[:, j], 0.1).adjacency for j in range(c)]
        cfg = AppnpConfig(hidden_dim=h, prop_steps=3, dropout=0.1,
                          learning_rate=0.05, max_epochs=40, patience=2,
                          seed=1)
        tracemalloc.start()
        try:
            got = appnp._train_block(cfg, x, graphs, y, w, train, val, k,
                                     appnp._DropoutMasks(cfg, (n, h)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        epochs = sorted(report.epochs_run for _, report, _ in got)
        assert len(set(epochs)) > 2 and epochs[-1] < cfg.max_epochs
        assert peak <= 2.1 * c * n * h * 8

    @pytest.mark.parametrize("workers", [0, 2])
    def test_round_draws_each_dropout_mask_once(self, workers, monkeypatch):
        # One mask holder serves all 4 blocks of the round, and holds the
        # successive draws of _dropout_mask, one per epoch any learner ran.
        x, y, w, train, val, graphs = self._problem(seed=1)
        cfg = AppnpConfig(hidden_dim=6, prop_steps=3, teleport=0.2,
                          dropout=0.3, learning_rate=0.05, max_epochs=60,
                          patience=4, seed=2)
        holders = []

        class Recording(appnp._DropoutMasks):
            def __init__(self, *args):
                super().__init__(*args)
                holders.append(self)

        monkeypatch.setattr(appnp, "_DropoutMasks", Recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(appnp, "BLOCK_BYTES",
                            2 * len(y) * cfg.hidden_dim * 8)
        got = train_candidates(cfg, x, [g.adjacency for g in graphs], y, w,
                               train, val, n_classes=2, workers=workers)
        (holder,) = holders
        epochs = [r.epochs_run for _, r, _ in got]
        assert len(set(epochs)) > 1
        assert len(holder._packed) == max(epochs)
        rng = substream(cfg.seed, "dropout")
        for epoch in range(max(epochs)):
            assert_same_bits(holder(epoch), appnp._dropout_mask(
                rng, (len(y), cfg.hidden_dim), cfg.dropout))
        assert len(holder._packed) == max(epochs)  # reading drew no more

    def test_round_logs_its_blocks_and_threads(self, monkeypatch, caplog):
        x, y, w, train, val, graphs = self._problem(seed=9)
        cfg = AppnpConfig(hidden_dim=4, prop_steps=2, max_epochs=2, seed=3)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(appnp, "BLOCK_BYTES",
                            3 * len(y) * cfg.hidden_dim * 8)
        with caplog.at_level("DEBUG", logger="graphboost.appnp"):
            train_candidates(cfg, x, [g.adjacency for g in graphs], y, w,
                             train, val, n_classes=2, workers=2)
        assert caplog.messages == [
            "training 7 graphs in blocks of [2, 2, 2, 1] on 2 thread(s)"]

    @pytest.mark.parametrize("count, n, h, workers, sizes", [
        (19, 2000, 16, 2, [10, 9]), (30, 2000, 16, 0, [10, 10, 10]),
        (3, 20000, 64, 0, [1, 1, 1]), (5, 2000, 16, 8, [1, 1, 1, 1, 1])])
    def test_block_plan_examples(self, monkeypatch, count, n, h, workers,
                                 sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        plan = appnp._block_plan(count, n * h * 8, workers)
        assert [s.stop - s.start for s in plan] == sizes

    @settings(max_examples=500, deadline=None)
    @given(count=st.integers(0, 120), n=st.integers(1, 20000),
           h=st.integers(1, 64), workers=st.integers(0, 12),
           cpus=st.one_of(st.none(), st.integers(1, 16)))
    def test_block_plan(self, count, n, h, workers, cpus):
        with mock.patch.object(os, "cpu_count", lambda: cpus):
            plan = appnp._block_plan(count, n * h * 8, workers)
            threads = appnp._thread_count(workers, count)
            started = appnp._thread_count(workers, len(plan))
        sizes = [s.stop - s.start for s in plan]
        # the blocks cover the items in order
        assert [i for s in plan for i in range(count)[s]] == list(range(count))
        cap = max(1, appnp.BLOCK_BYTES // (n * h * 8))
        assert all(1 <= size <= cap for size in sizes)
        assert max(sizes, default=0) - min(sizes, default=0) <= 1
        # as few blocks as the cap allows, rounded up to a multiple of the
        # threads that run them, while there are items enough
        fewest = -(-count // cap)
        assert fewest <= len(plan) < fewest + threads
        if count >= -(-fewest // threads) * threads:
            assert len(plan) % threads == 0
        else:
            assert sizes == [1] * count
        if count:
            assert started == threads


class TestPredict:
    def test_softmax_values(self):
        cfg = AppnpConfig(hidden_dim=2, prop_steps=0, dropout=0.0)
        model = AppnpModel(np.zeros((2, 1)), np.zeros(2), np.zeros((2, 2)),
                           np.array([2.0, 1.0]), cfg)
        labels, probs = predict(model, np.zeros((1, 1)),
                                identity_adjacency(1))
        assert labels[0] == 0
        np.testing.assert_allclose(probs[0], [0.7310585786300049,
                                              0.2689414213699951], atol=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        cfg = AppnpConfig(hidden_dim=2, prop_steps=0, dropout=0.0)
        model = AppnpModel(np.zeros((2, 1)), np.zeros(2), np.zeros((3, 2)),
                           np.zeros(3), cfg)
        labels, _ = predict(model, np.zeros((4, 1)), identity_adjacency(4))
        np.testing.assert_array_equal(labels, 0)

    def test_rows_sum_to_one(self):
        model, x, adj, *_ = make_instance(10)
        _, probs = predict(model, x, adj)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_argmax_shift_invariance(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(20, 3))
        shifted = z + rng.normal(size=(20, 1))
        assert np.array_equal(np.argmax(softmax(z), axis=1),
                              np.argmax(softmax(shifted), axis=1))

    def test_teleport_one_ignores_graph(self):
        model, x, _, *_ = make_instance(12, teleport=1.0)
        g1 = build_adjacency(x[:, 0], 0.5).adjacency
        g2 = build_adjacency(x[:, 1], 2.0).adjacency
        np.testing.assert_array_equal(predict(model, x, g1)[1],
                                      predict(model, x, g2)[1])

    def test_stacked_labels_match_one_learner_predict(self):
        # learners of three hidden widths, each on its own graph; no two
        # classes' logits here lie within rounding of each other, where the
        # propagated differences may label otherwise
        rng = np.random.default_rng(13)
        n, m, k = 30, 3, 3
        x = rng.normal(size=(n, m))
        models = [init_model(AppnpConfig(hidden_dim=2 + t % 3, prop_steps=4,
                                         teleport=0.15, seed=t), m, k)
                  for t in range(6)]
        graphs = [build_adjacency(x[:, t % m], 0.3 + 0.2 * t)
                  for t in range(len(models))]
        labels = np.concatenate([appnp.StoredRun([model], x, graph).labels
                                 for model, graph in zip(models, graphs)])
        assert labels.shape == (len(models), n)
        assert len(np.unique(labels)) == k
        for model, graph, row in zip(models, graphs, labels):
            np.testing.assert_array_equal(
                row, predict(model, x, graph.adjacency)[0])

    @settings(max_examples=30, deadline=None)
    @given(k=st.sampled_from([1, 2, 3, 9]), count=st.integers(1, 9),
           cap=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_one_graph_labels_match_stacked_labels(self, k, count, cap,
                                                   seed):
        # a StoredRun propagates the lines of all its models as lines of
        # one graph, new rows' in blocks of at most ``cap`` models; each
        # model's labels, of the stored rows and of new rows, must keep
        # the bits of a run of that model alone
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 50)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, m))
        cfg = AppnpConfig(hidden_dim=int(rng.integers(1, 10)),
                          prop_steps=int(rng.integers(0, 5)),
                          teleport=float(rng.choice([0.2, 1.0])))
        models = []
        for t in range(count):
            model = init_model(dataclasses.replace(cfg, seed=t), m, k)
            model.b2 = rng.normal(size=k)
            models.append(model)
        cut = int(rng.integers(1, n))
        graph = build_adjacency(x[:cut, 0], float(rng.uniform(0.0, 2.0)))
        runs = [appnp.StoredRun([model], x[:cut], graph) for model in models]
        run = appnp.StoredRun(models, x[:cut], graph)
        assert run.stored.shape == (count * (k - 1), cut)
        np.testing.assert_array_equal(
            run.labels, np.concatenate([r.labels for r in runs]))
        cone = graph.join(x[cut:, 0], run.steps)
        with mock.patch.object(appnp, "BLOCK_BYTES",
                               cap * 8 * cone.order.size * k):
            got = run.new_labels(x[cut:])
        np.testing.assert_array_equal(
            got, np.concatenate([r.new_labels(x[cut:]) for r in runs]))

    @settings(max_examples=40, deadline=None)
    @given(k=st.sampled_from([1, 2, 3, 5]), count=st.integers(1, 7),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_heads_match_one_model_heads(self, k, count, seed):
        # A StoredRun runs the heads of one hidden width as one product per
        # layer; every model's lines must keep the bits of its own
        # _head(_hidden(.)) over the same rows, at any row count, the
        # stored rows' lines too.
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 400)), int(rng.integers(1, 12))
        x = rng.normal(size=(n, m))
        hidden = int(rng.choice([1, 3, 8, 16, 33]))
        models = []
        for t in range(count):
            cfg = AppnpConfig(hidden_dim=hidden, seed=t)
            model = init_model(cfg, m, k)
            model.b1 = rng.normal(size=model.b1.shape)
            model.b2 = rng.normal(size=k)
            models.append(model)
        run = appnp.StoredRun(models, x, build_adjacency(x[:, 0], 0.5))
        assert run.stored.shape == (count * (k - 1), n)
        for rows in sorted({1, int(rng.integers(1, n + 1)), n}):
            xs = x[:rows]
            want = np.concatenate(
                [appnp._differences(appnp._head(p, appnp._hidden(p, xs))[0])
                 for p in map(appnp._stacked, models)], axis=1).T
            got = run.differences(xs)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            if rows == n:
                assert run.stored.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale, row", [(2.0, 2), (1.0, 1)])
    def test_overflow_names_the_row_whose_own_heads_overflow(self, scale,
                                                              row):
        # The head difference is -scale * x[:, 1]. New rows 1-3 share a
        # window on feature 0, and rows 2 and 3 hold 1.7e308: at scale 2
        # their own heads overflow, and the error names row 2, not row 1,
        # whose window sums they turn non-finite. At scale 1 every head is
        # finite and only the sums overflow, so it names the first row
        # whose propagated logits do. Row 0 sorts before them and stays
        # finite.
        model = init_model(AppnpConfig(hidden_dim=1, prop_steps=2), 2, 2)
        model.w1, model.b1 = np.array([[0.0, 1.0]]), np.zeros(1)
        model.w2, model.b2 = np.array([[scale], [0.0]]), np.zeros(2)
        x = np.array([[0.0, 1.0], [0.1, 2.0], [0.2, 3.0]])
        run = appnp.StoredRun([model], x, build_adjacency(x[:, 0], 0.5))
        new = np.array([[-100.0, 1.0], [5.0, 1.0], [5.0, 1.7e308],
                        [5.0, 1.7e308]])
        with pytest.raises(DataError, match=f"^new row {row}: its "
                           "propagated logits overflow the model$"):
            run.new_labels(new)


# The row-major loss helpers that training used before it moved into the
# graphs' frames, frozen as the oracle of the frame code.
def ref_log_softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def ref_losses(z, y, w, mask, weight_decay, p):
    w_masked = w[mask]
    total = w_masked.sum()
    if total <= 0.0:
        raise DataError("masked sample weights sum to zero")
    logp = ref_log_softmax(z[:, mask])
    ce = np.ascontiguousarray(-logp[:, np.arange(logp.shape[1]), y[mask]])
    return [float(np.dot(w_masked, ce[c]) / total + weight_decay * (
        np.sum(p["w1"][c] ** 2) + np.sum(p["w2"][c] ** 2)))
        for c in range(ce.shape[0])], logp


def ref_logit_grad(logp, shape, y, w, mask):
    w_masked = w[mask]
    g = np.zeros(shape)
    probs = np.exp(logp)
    probs[:, np.arange(probs.shape[1]), y[mask]] -= 1.0
    g[:, mask] = probs * (w_masked / w_masked.sum())[:, None]
    return g


def ref_weighted_label_error(labels, y, w, mask):
    wm = w[mask]
    total = wm.sum()
    if total <= 0.0:
        raise DataError("masked sample weights sum to zero")
    return float(np.dot(wm / total, labels[mask] != y[mask]))


def assert_same_bits(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# The frame's softmax sum adds the K class lines in order; numpy sums a last
# axis of 8 or more terms in another order. A sum of K <= 300 terms in
# [0, 1] (the exponentials of shifted logits) differs from the exact sum by
# at most (K - 1) u relative, so its log by at most 3.4e-14; the loss, the
# log-softmax and the logit gradient inherit that error.
FRAME_RTOL = FRAME_ATOL = 1e-12


def assert_class_sum_result(got, want, k):
    """Bit-equal below 8 classes, where both sums add the classes in order;
    within ``FRAME_RTOL`` and ``FRAME_ATOL`` from 8 on."""
    if k < 8:
        assert_same_bits(got, want)
    else:
        np.testing.assert_allclose(np.asarray(got, dtype=np.float64), want,
                                   rtol=FRAME_RTOL, atol=FRAME_ATOL)


SPECIAL_LOGITS = (np.inf, -np.inf, np.nan, 0.0, -0.0)


@st.composite
def frame_problems(draw):
    """Row-major (C, N, K) logits with labels, weights, a train and a
    validation mask, and one random sort order per learner. K spans
    numpy's sequential (< 8), pairwise (8 to 128) and recursive (> 128)
    summation regimes."""
    k = draw(st.one_of(st.integers(2, 9), st.integers(2, 300)))
    c = draw(st.integers(1, 3))
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(c, n, k)) * draw(st.sampled_from([1.0, 40.0, 1e3]))
    if draw(st.booleans()):
        z = np.round(z / 20.0)  # many tied logits
    for _ in range(draw(st.integers(0, 4))):
        z[tuple(rng.integers(0, d) for d in z.shape)] = draw(
            st.sampled_from(SPECIAL_LOGITS))
    y = rng.integers(0, k, size=n)
    w = rng.uniform(0.0, 1.0, size=n)
    w[rng.random(n) < 0.3] = 0.0  # zero-weight rows
    if draw(st.booleans()):
        train = np.arange(n) == rng.integers(0, n)  # a one-row mask
    else:
        train = rng.random(n) < 0.6
    train[np.argmax(w)] = True
    w[np.argmax(w)] = 1.0  # the masked weights sum to more than 0
    val = ~train
    val[np.argmax(w)] = True
    orders = [rng.permutation(n) for _ in range(c)]
    return z, y, w, train, val, orders, draw(st.booleans())


def to_frames(z, orders, contiguous=True):
    """The (K, C, N) frame of the learners: line-major, each learner's rows
    sorted."""
    frames = np.stack([zc[order].T for zc, order in zip(z, orders)], axis=1)
    return np.ascontiguousarray(frames) if contiguous else frames


def frame_positions(orders):
    """c * N plus the position of row i in learner c's frame."""
    n = len(orders[0])
    at = np.empty((len(orders), n), dtype=np.int64)
    for c, order in enumerate(orders):
        at[c, order] = c * n + np.arange(n)
    return at


def to_rows(frames, orders):
    """(K, C, N) frames back to (C, N, K) in row order."""
    out = np.empty((frames.shape[1], frames.shape[2], frames.shape[0]))
    for c, order in enumerate(orders):
        out[c, order] = frames[:, c].T
    return out


class TestFrameLoss:
    """Loss, gradient, validation error and argmax computed line-major in
    each learner's sorted frame, against the row-major references: bit for
    bit, except for what depends on the softmax sum of 8 or more classes
    (``assert_class_sum_result``)."""

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.filterwarnings("ignore:overflow")
    @settings(max_examples=300, deadline=None)
    @given(frame_problems())
    def test_matches_row_major_references(self, problem):
        z, y, w, train, val, orders, contiguous = problem
        c, n, k = z.shape
        rng = np.random.default_rng(0)
        p = {"w1": rng.normal(size=(c, 3, 2)),
             "w2": rng.normal(size=(c, k, 3))}
        frames = to_frames(z, orders, contiguous)
        at = frame_positions(orders)

        targets = appnp._Targets(at, y, w, train)
        logp = appnp._log_softmax(frames)
        want_losses, want_logp = ref_losses(z, y, w, train, 1e-3, p)
        assert_class_sum_result(targets.losses(logp, p, 1e-3), want_losses,
                                k)
        assert_class_sum_result(to_rows(logp, orders)[:, train], want_logp,
                                k)

        got_grad = to_rows(targets.gradient(logp), orders)
        assert_class_sum_result(got_grad, ref_logit_grad(want_logp, z.shape,
                                                         y, w, train), k)
        # exactly 0.0 outside the mask, whatever the logits there
        assert not got_grad[:, ~train].view(np.uint64).any()

        # the argmax takes the K - 1 lines after an implicit zero class 0,
        # as training's logits have it
        zeroed = z.copy()
        zeroed[..., 0] = 0.0
        labels = appnp._class_argmax(to_frames(zeroed, orders,
                                               contiguous)[1:])
        assert labels.dtype == np.min_scalar_type(k - 1)
        want_labels = np.argmax(zeroed, axis=2)
        assert np.array_equal(to_rows(labels[None], orders)[..., 0],
                              want_labels)
        assert_same_bits(appnp._Targets(at, y, w, val).errors(labels),
                         [ref_weighted_label_error(row, y, w, val)
                          for row in want_labels])

    @pytest.mark.parametrize("k", [2, 7, 8, 9, 16, 127, 128, 129, 300])
    def test_log_softmax_against_exact_class_sum(self, k):
        # K spans numpy's sequential (< 8), pairwise (8 to 128) and
        # recursive (> 128) summation regimes of a last axis
        z = np.random.default_rng(k).normal(size=(3, 200, k)) * 4.0
        shifted = z - z.max(axis=-1, keepdims=True)
        exact = np.array([[math.fsum(row) for row in block]
                          for block in np.exp(shifted)])
        got = appnp._log_softmax(np.ascontiguousarray(z.transpose(2, 0, 1)))
        np.testing.assert_allclose(got.transpose(1, 2, 0),
                                   shifted - np.log(exact)[..., None],
                                   rtol=FRAME_RTOL, atol=FRAME_ATOL)
        assert_class_sum_result(got.transpose(1, 2, 0), ref_log_softmax(z),
                                k)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_logits_outside_the_mask(self):
        z = np.array([[[1.0, 2.0], [np.nan, 0.0], [np.inf, 1.0],
                       [-np.inf, -np.inf], [0.5, -0.5]]])
        y = np.array([0, 1, 0, 1, 1])
        w = np.array([0.2, 0.3, 0.1, 0.1, 0.0])
        train = np.array([True, False, False, False, True])
        targets = appnp._Targets(np.arange(5)[None], y, w, train)
        frame = np.ascontiguousarray(z.transpose(2, 0, 1))
        logp = appnp._log_softmax(frame)
        (value,) = targets.losses(logp, {"w1": np.zeros((1, 1, 1)),
                                         "w2": np.zeros((1, 2, 1))}, 0.0)
        assert math.isfinite(value)
        grad = targets.gradient(logp)
        assert_same_bits(grad.transpose(1, 2, 0),
                         ref_logit_grad(ref_log_softmax(z[:, train]),
                                        z.shape, y, w, train))
        assert not grad[..., 1:4].view(np.uint64).any()


# The difference frame against the K-line references. A propagated
# difference of two logits and the difference of the two propagated logits
# are each within a few ulp of the exact value; on the problems below,
# logits, loss and gradients differ by at most 6.3e-15.
DIFF_RTOL = DIFF_ATOL = 1e-12


class TestLogitDifferences:
    """Weak training and labelling propagate the K - 1 differences
    h0[..., k] - h0[..., 0] behind a zero line for class 0
    (``_frame_logits``, and ``_frame_head_grad`` back): the logits up to a
    shift per row, the loss and the gradients of the K-line ``forward``,
    ``loss`` and ``backward`` within ``DIFF_RTOL`` and ``DIFF_ATOL``, and
    the same labels."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_k_line_forward_backward_loss(self, k):
        rng = np.random.default_rng(k)
        n, m, c, h, decay = 40, 3, 3, 5, 1e-3
        x = rng.normal(size=(n, m))
        y = rng.integers(0, k, size=n)
        w = rng.uniform(0.1, 1.0, size=n)
        train = rng.random(n) < 0.7
        cfg = AppnpConfig(hidden_dim=h, prop_steps=4, teleport=0.2,
                          dropout=0.0, weight_decay=decay)
        models = []
        for t in range(c):
            model = init_model(dataclasses.replace(cfg, seed=t), m, k)
            model.b1 = rng.normal(size=h)
            model.b2 = rng.normal(size=k)
            models.append(model)
        graphs = [build_adjacency(x[:, t], 0.5 + 0.3 * t).adjacency
                  for t in range(c)]
        p = {name: np.stack([getattr(model, name) for model in models])
             for name in appnp._PARAMS}

        stack = GraphStack(graphs)
        at = stack.from_frame(np.arange(c * n).reshape(c, n))
        targets = appnp._Targets(at, y, w, train)
        hd = appnp._hidden(p, x)
        z = appnp._frame_logits(stack, appnp._head(p, hd), cfg.teleport,
                                cfg.prop_steps)
        logp = appnp._log_softmax(z)
        losses = targets.losses(logp, p, decay)
        dh0 = appnp._frame_head_grad(stack, targets.gradient(logp),
                                     cfg.teleport, cfg.prop_steps)
        grads = appnp._param_grads(p, x, hd, None, dh0, decay)
        labels = stack.from_frame(appnp._class_argmax(z[1:]))
        rows = stack.from_frame(z)

        for i, (model, adj) in enumerate(zip(models, graphs)):
            want_z, cache = forward(model, x, adj)
            np.testing.assert_allclose(rows[i], want_z - want_z[:, :1],
                                       rtol=DIFF_RTOL, atol=DIFF_ATOL)
            np.testing.assert_allclose(
                losses[i], loss(want_z, y, w, train, decay, model),
                rtol=DIFF_RTOL, atol=DIFF_ATOL)
            for name, want in backward(cache, y, w, train, decay).items():
                np.testing.assert_allclose(grads[name][i], want,
                                           rtol=DIFF_RTOL, atol=DIFF_ATOL)
            np.testing.assert_array_equal(labels[i],
                                          np.argmax(want_z, axis=1))

    @pytest.mark.parametrize("k", [2, 3])
    def test_zero_line_argmax_at_ties_and_nan(self, k):
        # every row of K - 1 differences drawn from these values, so the
        # zero line ties with +0.0 and -0.0 and meets NaN on either side
        values = (0.0, -0.0, np.nan, 1.0, -1.0, np.inf, -np.inf)
        d = np.array(list(itertools.product(values, repeat=k - 1)))
        n = len(d)
        explicit = np.concatenate([np.zeros((n, 1)), d], axis=1)
        stack = GraphStack([identity_adjacency(n)])
        z = appnp._frame_logits(stack, explicit[None], 0.1, 0)
        rows = stack.from_frame(z)[0]
        # h0[..., k] - 0.0 keeps the value and the sign of a zero
        np.testing.assert_array_equal(rows, explicit)
        np.testing.assert_array_equal(np.signbit(rows), np.signbit(explicit))
        np.testing.assert_array_equal(
            stack.from_frame(appnp._class_argmax(z[1:]))[0],
            np.argmax(explicit, axis=1))


class TestConfigValidation:
    def test_bad_teleport(self):
        with pytest.raises(DataError):
            AppnpConfig(teleport=0.0)

    def test_bad_dropout(self):
        with pytest.raises(DataError):
            AppnpConfig(dropout=1.0)

    def test_bad_steps(self):
        with pytest.raises(DataError):
            AppnpConfig(prop_steps=-1)
        AppnpConfig(prop_steps=MAX_PROP_STEPS)
        with pytest.raises(DataError):
            AppnpConfig(prop_steps=MAX_PROP_STEPS + 1)

    def test_bad_hidden_dim(self):
        for bad in (0, -1, MAX_HIDDEN_DIM + 1, 10**20):
            with pytest.raises(DataError, match="hidden_dim"):
                AppnpConfig(hidden_dim=bad)
        AppnpConfig(hidden_dim=1)
        AppnpConfig(hidden_dim=MAX_HIDDEN_DIM)

    def test_bad_max_epochs(self):
        with pytest.raises(DataError, match="max_epochs"):
            AppnpConfig(max_epochs=-1)
        AppnpConfig(max_epochs=0)

    def test_bad_patience(self):
        with pytest.raises(DataError, match="patience"):
            AppnpConfig(patience=-5)
        AppnpConfig(patience=0)

    def test_bad_weight_decay(self):
        for bad in (-1.0, -1e-300, float("inf"), float("nan")):
            with pytest.raises(DataError, match="weight_decay"):
                AppnpConfig(weight_decay=bad)
        AppnpConfig(weight_decay=0.0)

    def test_bad_learning_rate(self):
        for bad in (-1.0, 0.0, float("inf"), float("nan")):
            with pytest.raises(DataError, match="weak_learning_rate"):
                AppnpConfig(learning_rate=bad)
        AppnpConfig(learning_rate=1e-300)
