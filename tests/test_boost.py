"""Boosting loop: error/alpha algebra, weight updates, round selection,
ensemble prediction."""

import logging
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphboost
from graphboost import appnp, boost, graph
from graphboost.appnp import AppnpConfig, AppnpModel, init_model
from graphboost.boost import (BoostConfig, Ensemble, WeakRound,
                              compute_alpha, fit, predict_ensemble, run_round,
                              transductive_scores, update_weights,
                              weighted_error)
from graphboost.config import parse_config
from graphboost.data import TEST, TRAIN, VAL, Dataset, EncodingMeta, \
    NumericMeta, fit_encoder, gen_synthetic, split_rows
from graphboost.errors import DataError, NoWeakLearnability
from graphboost.graph import (CandidateGraph, build_adjacency,
                              enumerate_candidates, quantile_thresholds)
from graphboost.model_io import load_ensemble, save_ensemble
from graphboost.pipeline import run_train
from graphboost.rng import derive_seed


def make_dataset(n=300, m=4, k=2, rho=1.0, seed=0,
                 fractions=(0.6, 0.2, 0.2)):
    table, labels = gen_synthetic(n, m, k, rho, seed)
    tags = split_rows(n, fractions, seed, labels)
    ds, _ = fit_encoder(table, labels, tags)
    return ds, table


def dense_one_step_logits(x, rows, feature, gamma, model, chunk=128):
    """One-step APPNP logits of ``rows`` straight from the definition,
    Ahat = (D+I)^-1/2 (A+I) (D+I)^-1/2, counting degrees a block of rows
    at a time so that memory stays O(chunk * N)."""
    assert model.config.prop_steps == 1
    v = x[:, feature]
    deg = np.concatenate([
        np.sum(np.abs(v[i:i + chunk, None] - v[None, :]) <= gamma, axis=1)
        for i in range(0, v.size, chunk)])
    dinv = 1.0 / np.sqrt(deg)
    h0 = np.maximum(x @ model.w1.T + model.b1, 0.0) @ model.w2.T + model.b2
    linked = (np.abs(v[rows, None] - v[None, :]) <= gamma).astype(float)
    az = dinv[rows, None] * (linked @ (dinv[:, None] * h0))
    a = model.config.teleport
    return (1.0 - a) * az + a * h0[rows]


def reference_votes(ensemble, x_all, row_start):
    """Ensemble labels and scores from a plain loop over the rounds: each
    round's graph built and its learner run through ``appnp.predict``,
    votes added in round order."""
    from graphboost.appnp import predict
    n = x_all.shape[0] - row_start
    votes = np.zeros((n, ensemble.n_classes))
    for r in ensemble.rounds:
        cand = build_adjacency(x_all[:, r.feature], r.gamma)
        labels, _ = predict(r.model, x_all, cand.adjacency)
        votes[np.arange(n), labels[row_start:]] += r.alpha
    return np.argmax(votes, axis=1), votes / votes.sum(axis=1, keepdims=True)


def constant_model(k: int, m: int, winner: int) -> AppnpModel:
    """A degenerate learner that votes for one class everywhere."""
    cfg = AppnpConfig(hidden_dim=2, prop_steps=0, teleport=1.0, dropout=0.0)
    b2 = np.full(k, -1.0)
    b2[winner] = 1.0
    return AppnpModel(np.zeros((2, m)), np.zeros(2), np.zeros((k, 2)), b2, cfg)


class TestWeightedError:
    def test_all_correct(self):
        y = np.array([0, 1, 0, 1])
        w = np.full(4, 0.25)
        assert weighted_error(y, y, w, np.ones(4, dtype=bool)) == 0.0

    def test_one_wrong(self):
        y = np.array([0, 1, 0, 1])
        pred = np.array([0, 1, 1, 1])
        w = np.full(4, 0.25)
        assert weighted_error(pred, y, w, np.ones(4, dtype=bool)) == 0.25

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = 50
            y = rng.integers(0, 3, size=n)
            pred = rng.integers(0, 3, size=n)
            mask = rng.random(n) < 0.7
            if not mask.any():
                continue
            w = np.zeros(n)
            w[mask] = rng.uniform(0.1, 1.0, size=int(mask.sum()))
            w[mask] /= w[mask].sum()
            want = sum(w[i] for i in range(n) if mask[i] and pred[i] != y[i])
            assert weighted_error(pred, y, w, mask) == pytest.approx(
                want, abs=1e-15)


class TestAlpha:
    def test_half_error_two_classes(self):
        assert compute_alpha(0.5, 2, 1.0) == 0.0

    def test_half_error_three_classes(self):
        assert compute_alpha(0.5, 3, 1.0) == pytest.approx(math.log(2),
                                                           abs=1e-12)

    def test_shrinkage(self):
        assert compute_alpha(0.1, 2, 0.5) == pytest.approx(
            0.5 * 0.5 * math.log(9), abs=1e-12)

    def test_clamping_keeps_alpha_finite(self):
        assert math.isfinite(compute_alpha(0.0, 2, 1.0))
        assert math.isfinite(compute_alpha(1.0, 2, 1.0))

    def test_positive_below_random_guessing(self):
        for k in (2, 3, 4, 7):
            gate = (k - 1) / k
            for err in np.linspace(0.01, gate - 0.01, 17):
                assert compute_alpha(float(err), k, 1.0) > 0.0
        # two-class case is an equivalence: past the gate alpha flips sign
        for err in (0.51, 0.7, 0.95):
            assert compute_alpha(err, 2, 1.0) < 0.0

    def test_needs_two_classes(self):
        with pytest.raises(DataError):
            compute_alpha(0.3, 1, 1.0)


class TestUpdateWeights:
    def test_all_correct_unchanged(self):
        w = np.array([0.25, 0.25, 0.5])
        y = np.array([0, 1, 1])
        out = update_weights(w, y.copy(), y, 0.7, np.ones(3, dtype=bool))
        np.testing.assert_allclose(out, w, atol=1e-15)

    def test_hand_computed(self):
        w = np.array([0.5, 0.5])
        y = np.array([0, 1])
        pred = np.array([0, 0])  # row 1 wrong
        out = update_weights(w, pred, y, math.log(2), np.ones(2, dtype=bool))
        np.testing.assert_allclose(out, [1 / 3, 2 / 3], atol=1e-15)

    def test_zero_alpha_noop(self):
        w = np.array([0.3, 0.7])
        y = np.array([0, 1])
        pred = np.array([1, 0])
        out = update_weights(w, pred, y, 0.0, np.ones(2, dtype=bool))
        np.testing.assert_allclose(out, w, atol=1e-15)

    def test_off_mask_untouched(self):
        w = np.array([0.5, 0.5, 9.0])
        mask = np.array([True, True, False])
        y = np.array([0, 1, 0])
        pred = np.array([1, 1, 1])
        out = update_weights(w, pred, y, 1.0, mask)
        assert out[2] == 9.0
        assert out[:2].sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_masked_weights_rejected(self):
        w = np.array([0.0, 0.0, 1.0])
        mask = np.array([True, True, False])
        y = np.array([0, 1, 0])
        with pytest.raises(DataError, match="sum to zero"):
            update_weights(w, y.copy(), y, 1.0, mask)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_simplex_preserved(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)] = 1
        w = np.zeros(n)
        w[mask] = rng.uniform(0.0, 1.0, size=int(mask.sum())) + 1e-12
        w[mask] /= w[mask].sum()
        y = rng.integers(0, 3, size=n)
        pred = rng.integers(0, 3, size=n)
        alpha = float(rng.uniform(-3, 3))
        out = update_weights(w, pred, y, alpha, mask)
        assert np.all(out[mask] >= 0)
        assert abs(out[mask].sum() - 1.0) <= 1e-12


class TestRunRound:
    def _setup(self, seed=0):
        ds, _ = make_dataset(n=200, m=3, k=2, rho=1.0, seed=seed)
        w = np.zeros(len(ds.y))
        train = ds.mask(TRAIN)
        w[train] = 1.0 / train.sum()
        cfg = AppnpConfig(hidden_dim=8, prop_steps=3, teleport=0.2,
                          dropout=0.0, learning_rate=5e-3, max_epochs=15,
                          patience=15, seed=seed)
        return ds, w, cfg

    def test_single_candidate_selected(self):
        ds, w, cfg = self._setup()
        cands = enumerate_candidates(ds.X[:, :1])
        round_, labels = run_round(w, cands[:1], ds.X, ds.y,
                                   ds.mask(TRAIN), ds.mask(VAL), 2, cfg)
        assert round_.feature == 0
        assert round_.gamma == cands[0].gamma
        assert labels.shape == ds.y.shape and labels.dtype == np.int64

    def test_selection_is_argmin_of_weighted_error(self):
        ds, w, cfg = self._setup(seed=1)
        cands = enumerate_candidates(ds.X)
        round_, _ = run_round(w, cands, ds.X, ds.y, ds.mask(TRAIN),
                              ds.mask(VAL), 2, cfg,
                              feature_names=[f"f{j}" for j in range(3)])
        # recompute every candidate error independently
        from graphboost.appnp import predict, train_weak
        train, val = ds.mask(TRAIN), ds.mask(VAL)
        w_eval = w.copy()
        w_eval[val] = 1.0 / val.sum()
        errs = []
        for cand in cands:
            model, _ = train_weak(cfg, ds.X, cand.adjacency, ds.y, w_eval,
                                  train, val, n_classes=2)
            labels, _ = predict(model, ds.X, cand.adjacency)
            errs.append(weighted_error(labels, ds.y, w_eval, train))
        assert round_.error == min(errs)

    def test_tie_breaks_prefer_non_expert(self):
        # an expert duplicate of a quantile candidate trains identically
        # (shared round seed), so the tie goes to the non-expert
        ds, w, cfg = self._setup(seed=3)
        base = enumerate_candidates(ds.X[:, :1])[:1]
        twin = replace(base[0], expert=True)
        for cands in (base + [twin], [twin] + base):
            round_, _ = run_round(w, cands, ds.X, ds.y, ds.mask(TRAIN),
                                  ds.mask(VAL), 2, cfg)
            assert not round_.expert

    def test_top_five_candidates_logged(self, caplog):
        ds, w, cfg = self._setup(seed=4)
        cands = enumerate_candidates(ds.X)
        with caplog.at_level(logging.DEBUG, logger="graphboost.boost"):
            round_, _ = run_round(w, cands, ds.X, ds.y, ds.mask(TRAIN),
                                  ds.mask(VAL), 2, cfg,
                                  feature_names=["a", "b", "c"])
        (text,) = [r.getMessage() for r in caplog.records
                   if r.levelno == logging.DEBUG]
        header, *lines = text.split("\n")
        assert header == "round 1 leaderboard, top 5 of 9:"
        assert [line.split(".")[0] for line in lines] == \
            [f"  {rank}" for rank in range(1, 6)]
        errors = [float(re.search(r"err=(\S+)", line).group(1))
                  for line in lines]
        assert errors == sorted(errors)
        assert lines[0].startswith(
            f"  1. feature {round_.feature} "
            f"({'abc'[round_.feature]}) gamma={round_.gamma:.6g} ")
        assert f"err={round_.error:.4f}" in lines[0]
        assert all("epochs=15 (max epochs)" in line for line in lines)

    def test_diverged_candidate_logged_last(self, caplog):
        # One candidate on each feature, so that each graph has a row order
        # of its own; the learner on feature 1 diverges at its first epoch.
        from test_appnp import losses_turn_inf
        ds, w, cfg = self._setup(seed=4)
        cands = [next(c for c in enumerate_candidates(ds.X) if c.feature == j)
                 for j in range(3)]
        with losses_turn_inf([(cands[1].adjacency, 0)]), \
                caplog.at_level(logging.DEBUG, logger="graphboost.boost"):
            round_, _ = run_round(w, cands, ds.X, ds.y, ds.mask(TRAIN),
                                  ds.mask(VAL), 2, cfg,
                                  feature_names=["a", "b", "c"])
        assert round_.feature != 1
        (text,) = [r.getMessage() for r in caplog.records
                   if r.levelno == logging.DEBUG]
        header, *lines = text.split("\n")
        assert header == "round 1 leaderboard, top 3 of 3:"
        assert lines[-1] == \
            f"  3. feature 1 (b) gamma={cands[1].gamma:.6g} diverged"
        assert all("err=" in line for line in lines[:-1])


class TestFit:
    def _config(self, n_rounds=1, seed=0, **weak_overrides):
        weak = dict(hidden_dim=8, prop_steps=3, teleport=0.2, dropout=0.0,
                    learning_rate=5e-3, max_epochs=12, patience=12, seed=seed)
        weak.update(weak_overrides)
        return BoostConfig(n_rounds=n_rounds, learning_rate=1.0,
                           weak=AppnpConfig(**weak), seed=seed)

    def test_single_round_ensemble(self):
        ds, _ = make_dataset(seed=3)
        ens = fit(self._config(n_rounds=1), ds)
        assert len(ens.rounds) == 1
        assert ens.n_classes == 2
        assert ens.rounds[0].alpha > 0

    def test_planted_feature_selected_first(self):
        ds, table = make_dataset(n=400, m=4, k=2, rho=1.0, seed=4)
        planted = table.column_names.index("edge")
        ens = fit(self._config(n_rounds=1, seed=4), ds)
        assert ens.rounds[0].feature == planted
        assert ens.rounds[0].feature_name == "edge"

    def test_fit_deterministic_serial_vs_parallel(self, tmp_path,
                                                  monkeypatch):
        # A mixed cohort: integer levels that tie quantiles, a categorical
        # column, NA cells and an expert edge. Its 9 distinct candidates
        # make 3 blocks; claiming 8 CPUs lets workers = 3 run 3 threads on
        # any machine.
        rng = np.random.default_rng(21)
        n = 240
        level = rng.integers(0, 5, size=n)
        edge = rng.normal(size=n)
        label = edge + 0.3 * level + rng.normal(scale=0.5, size=n) > 0.6
        lines = ["level,grade,score,edge,label"]
        for i in range(n):
            grade = "NA" if i % 11 == 0 else "abc"[rng.integers(0, 3)]
            score = "" if i % 7 == 0 else f"{rng.normal():.3f}"
            lines.append(f"{level[i]},{grade},{score},{float(edge[i])!r},"
                         f"{'yes' if label[i] else 'no'}")
        data = tmp_path / "mixed.csv"
        data.write_text("\n".join(lines) + "\n")
        started = []

        class Counting(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counting)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        outputs, helpers = set(), []
        for workers in (0, 1, 2, 3):
            model, report = tmp_path / f"{workers}.gbe", tmp_path / "r.json"
            run_train(parse_config(textwrap.dedent(f"""
                data = {data}
                split_fractions = 0.6, 0.2, 0.2
                seed = 5
                workers = {workers}
                rounds = 2
                hidden_dim = 8
                prop_steps = 2
                dropout = 0.1
                weak_learning_rate = 0.05
                max_epochs = 8
                patience = 8
                expert_edges = level:1.0
                model_out = {model}
                report_out = {report}
            """)))
            outputs.add((model.read_bytes(), report.read_bytes()))
            helpers.append(len(started))
            started.clear()
        assert len(outputs) == 1
        # workers - 1 for the candidate enumeration and per round, 2 rounds
        assert helpers == [0, 0, 3, 6]

    def test_repeated_candidates_train_once_and_pick_the_same_round(
            self, monkeypatch):
        # Integer levels 0..4 tie the 1/16 and 1/8 quantile gammas at 0, and
        # the expert edge repeats that gamma. fit hands run_round the whole
        # list, and run_round trains each (feature, gamma) once, whether
        # fit or a direct call hands it the list.
        rng = np.random.default_rng(12)
        n = 160
        levels = rng.integers(0, 5, size=n).astype(float)
        x = np.column_stack([levels, rng.normal(size=n)])
        y = (levels + rng.normal(scale=0.5, size=n) >= 2.0).astype(np.int64)
        split = np.full(n, TEST, dtype=np.int8)
        split[:100], split[100:130] = TRAIN, VAL
        meta = EncodingMeta([NumericMeta("level", 0.0, 0.0, 1.0),
                             NumericMeta("noise", 0.0, 0.0, 1.0)],
                            "label", ["c0", "c1"])
        ds = Dataset(x, y, 2, split, meta)
        names = meta.feature_names()
        full = enumerate_candidates(x, [("level", 0.0)], names,
                                    meta.feature_scales(),
                                    seed=derive_seed(14, "graphs"))
        distinct = {(c.feature, c.gamma) for c in full}
        assert len(distinct) < len(full)
        assert full[-1].expert and full[-1].gamma == full[0].gamma == 0.0

        trained = []
        train_candidates = boost.train_candidates

        def counting(config, x, adjacencies, *args, **kwargs):
            trained.extend(adjacencies)
            return train_candidates(config, x, adjacencies, *args, **kwargs)

        handed = []

        def recording(weights, candidates, *args, **kwargs):
            handed.append(len(candidates))
            return run_round(weights, candidates, *args, **kwargs)

        cfg = replace(self._config(n_rounds=1, seed=14, learning_rate=5e-2),
                      expert_edges=(("level", 0.0),))
        monkeypatch.setattr(boost, "train_candidates", counting)
        monkeypatch.setattr(boost, "run_round", recording)
        got = fit(cfg, ds).rounds[0]
        assert handed == [len(full)]
        assert len(trained) == len(distinct)

        trained.clear()
        w = np.zeros(n)
        w[split == TRAIN] = 1.0 / 100
        want, _ = run_round(w, full, x, y, ds.mask(TRAIN), ds.mask(VAL), 2,
                            replace(cfg.weak, seed=derive_seed(14, "weak", 1)),
                            names)
        assert len(trained) == len(distinct)
        assert (got.feature, got.gamma, got.expert, got.error, got.alpha) == \
            (want.feature, want.gamma, want.expert, want.error, want.alpha)
        for a, b in zip(got.model.copy_weights(), want.model.copy_weights()):
            np.testing.assert_array_equal(a, b)

    def test_fit_with_workers_needs_no_main_guard(self, tmp_path):
        # A script that fits at import time, without an
        # ``if __name__ == "__main__"`` guard, must run: workers are
        # threads of this process, so nothing re-imports the script.
        script = tmp_path / "unguarded.py"
        script.write_text(textwrap.dedent("""
            from graphboost.appnp import AppnpConfig
            from graphboost.boost import BoostConfig, fit
            from graphboost.data import fit_encoder, gen_synthetic, split_rows

            table, labels = gen_synthetic(120, 3, 2, 1.0, 3)
            ds, _ = fit_encoder(table, labels,
                                split_rows(120, (0.6, 0.2, 0.2), 3, labels))
            weak = AppnpConfig(hidden_dim=8, prop_steps=2, dropout=0.0,
                               learning_rate=0.05, max_epochs=10,
                               patience=10)
            fit(BoostConfig(n_rounds=1, weak=weak, workers=2, seed=3), ds)
            print("fitted")
        """))
        src = str(Path(graphboost.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "fitted"

    def test_no_weak_learnability_on_hopeless_data(self):
        # constant features force every learner to a constant prediction;
        # with exactly balanced labels its weighted error is 0.5, so the
        # very first round hits the termination gate (64 train rows keep
        # the 1/64 weights exact in binary)
        n = 84
        x = np.zeros((n, 3))
        y = np.arange(n) % 2
        split = np.where(np.arange(n) < 64, TRAIN, VAL).astype(np.int8)
        meta = EncodingMeta([NumericMeta(f"f{j}", 0.0, 0.0, 0.0)
                             for j in range(3)], "label", ["c0", "c1"])
        ds = Dataset(x, y, 2, split, meta)
        cfg = self._config(n_rounds=3, seed=6, max_epochs=4, patience=4)
        with pytest.raises(NoWeakLearnability) as exc_info:
            fit(cfg, ds)
        assert exc_info.value.error >= 0.5

    def test_requires_validation_rows(self):
        ds, _ = make_dataset(seed=7, fractions=(0.8, 0.0, 0.2))
        with pytest.raises(DataError, match="validation"):
            fit(self._config(), ds)


class TestEnsemblePrediction:
    @staticmethod
    def _stored_rows(m, n_stored):
        return np.random.default_rng(0).normal(size=(n_stored, m))

    def _manual_ensemble(self, rounds, k=2, m=2, n_stored=6):
        meta = EncodingMeta([NumericMeta(f"f{j}", 0.0, 0.0, 1.0)
                             for j in range(m)], "label",
                            [f"c{i}" for i in range(k)])
        return Ensemble(rounds, k, meta, meta.feature_names(),
                        self._stored_rows(m, n_stored))

    # Rounds as (feature, gamma quantile index, learner overrides); rounds
    # with equal feature and index share one graph. Round t gets alpha
    # 0.1 * (t + 1): sums of such decimals depend on the order of addition
    # (0.2 + 0.3 + 0.4 != 0.2 + 0.4 + 0.3), so votes added out of round
    # order show.
    SHARED_GRAPH_ENSEMBLES = {
        "interleaved": [(0, 2, {}), (0, 2, {}), (1, 1, {}), (0, 2, {})],
        "one_graph_past_a_block": [(1, 2, {})] * 6,
        "mixed_learners": [
            (0, 1, {}), (0, 1, {"hidden_dim": 3}),
            (0, 1, {"teleport": 0.5}), (0, 1, {"prop_steps": 1}),
            (0, 1, {"hidden_dim": 7, "prop_steps": 1}), (1, 0, {})],
        "single_round": [(1, 0, {})],
    }

    def _shared_graph_ensemble(self, spec, k=2, m=2, n_stored=40):
        stored = self._stored_rows(m, n_stored)
        rounds = []
        for t, (feature, q, overrides) in enumerate(spec):
            cfg = AppnpConfig(**{"hidden_dim": 5, "prop_steps": 3,
                                 "teleport": 0.2, "seed": t, **overrides})
            gamma = quantile_thresholds(stored[:, feature]).gammas[q]
            rounds.append(WeakRound(feature, f"f{feature}", gamma,
                                    init_model(cfg, m, k),
                                    0.1 * (t + 1), 0.3))
        return self._manual_ensemble(rounds, k=k, m=m, n_stored=n_stored)

    @pytest.mark.parametrize("kind", sorted(SHARED_GRAPH_ENSEMBLES))
    def test_rounds_on_shared_graphs_match_round_by_round_loop(
            self, kind, tmp_path):
        ens = self._shared_graph_ensemble(self.SHARED_GRAPH_ENSEMBLES[kind])
        path = tmp_path / "model.gbe"
        save_ensemble(ens, str(path))
        new_x = np.random.default_rng(2).normal(size=(25, 2))
        for model in (ens, load_ensemble(str(path))):
            for rows in (new_x, new_x[:1]):
                want = reference_votes(
                    model, np.vstack([model.train_x, rows]),
                    model.train_x.shape[0])
                got = predict_ensemble(model, rows)
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
            want = reference_votes(model, model.train_x, 0)
            got = transductive_scores(model)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_in_an_unused_column_rejected(self, bad):
        # No round's graph reads column 0, but its value still reaches
        # every head, so it is rejected like one in a graph column.
        ens = self._shared_graph_ensemble(
            self.SHARED_GRAPH_ENSEMBLES["single_round"])
        assert {r.feature for r in ens.rounds} == {1}
        rows = np.random.default_rng(9).normal(size=(4, 2))
        rows[2, 0] = bad
        for batch in (rows, rows[2:3]):
            with pytest.raises(DataError, match="non-finite feature values"):
                predict_ensemble(ens, batch)

    def test_each_distinct_graph_built_once_per_call(self, monkeypatch):
        # Making the ensemble builds each distinct graph over the stored
        # rows; every call builds none, and each group's new_labels merges
        # the rows' column of its graph's feature into that graph once, at
        # the group's own steps, for a cone of exactly those steps.
        built, joined = [], []
        join = CandidateGraph.join

        def counting_build(values, gamma, **kwargs):
            built.append(gamma)
            return build_adjacency(values, gamma, **kwargs)

        def counting_join(stored, new_values, steps):
            cone = join(stored, new_values, steps)
            joined.append((stored, new_values.copy(), steps,
                           len(cone.right) - 1))
            return cone

        monkeypatch.setattr(graph, "build_adjacency", counting_build)
        monkeypatch.setattr(CandidateGraph, "join", counting_join)
        ens = self._shared_graph_ensemble(
            self.SHARED_GRAPH_ENSEMBLES["mixed_learners"])
        assert (len(built), joined) == (2, [])
        runs = [run for _, run in ens.groups]
        assert [run.steps for run in runs] == [3, 3, 3, 1, 1, 3]
        new_x = np.random.default_rng(10).normal(size=(3, 2))
        for rows in (new_x, new_x[:1]):
            joined.clear()
            predict_ensemble(ens, rows)
            assert len(built) == 2
            assert len(joined) == len(runs) == 6
            for run, (stored, values, steps, cone_steps) in zip(runs,
                                                                joined):
                assert stored is run.graph
                assert values.tobytes() == \
                    rows[:, run.graph.feature].tobytes()
                assert steps == cone_steps == run.steps
        # the stored rows' labels come from the runs made with the ensemble
        joined.clear()
        transductive_scores(ens)
        assert (len(built), joined) == (2, [])

    @pytest.mark.parametrize("kind, groups", [
        ("mixed_learners", [(0,), (1,), (2,), (3,), (4,), (5,)]),
        ("interleaved", [(0, 1, 3), (2,)]),
        ("one_graph_past_a_block", [(0, 1, 2, 3, 4, 5)])])
    def test_rounds_group_by_graph_and_learner_shape(self, kind, groups):
        # one group per distinct (feature, gamma, teleport, prop_steps,
        # hidden width), in the order of their first rounds; rounds that
        # share a graph share its one build whatever their learners
        ens = self._shared_graph_ensemble(self.SHARED_GRAPH_ENSEMBLES[kind])
        assert [ts for ts, _ in ens.groups] == groups
        for ts, run in ens.groups:
            graph_ = run.graph
            assert {(ens.rounds[t].feature, ens.rounds[t].gamma)
                    for t in ts} == {(graph_.feature, graph_.gamma)}
            assert run.count == len(ts)
        by_graph = {}
        for graph_ in (run.graph for _, run in ens.groups):
            assert by_graph.setdefault((graph_.feature, graph_.gamma),
                                       graph_) is graph_

    def test_stored_graphs_are_never_saved(self, tmp_path):
        # nor the stored rows' head differences and labels, nor the
        # stacked head weights: a load makes them again, read-only
        ens = self._shared_graph_ensemble(
            self.SHARED_GRAPH_ENSEMBLES["interleaved"])
        cold, warm = tmp_path / "cold.gbe", tmp_path / "warm.gbe"
        save_ensemble(ens, str(cold))
        new_x = np.random.default_rng(3).normal(size=(5, 2))
        for model in (ens, load_ensemble(str(cold))):
            predict_ensemble(model, new_x)
            predict_ensemble(model, new_x[:1])
            transductive_scores(model)
            save_ensemble(model, str(warm))
            assert warm.read_bytes() == cold.read_bytes()
            for (ts, run), (want_ts, want) in zip(
                    model.groups, ens.groups, strict=True):
                assert ts == want_ts
                for name in ("stored", "labels"):
                    array = getattr(run, name)
                    assert not array.flags.writeable
                    assert array.tobytes() == getattr(want, name).tobytes()
                    if array.size:
                        assert array.tobytes() not in cold.read_bytes()
                for wt in (run._w1t, run._w2t):
                    assert wt.tobytes() not in cold.read_bytes()

    def test_heads_run_once_on_stored_rows_then_on_new_rows_only(
            self, monkeypatch, tmp_path):
        # Making or loading an ensemble computes the stored rows' head
        # differences once per (feature, gamma, teleport, prop_steps,
        # hidden width) group; a call runs every head on its own rows
        # alone. A group's heads run as one product per layer.
        heads, product_rows = [], []
        differences, affine = appnp.StoredRun.differences, appnp._affine

        def counting_heads(run, x):
            d = differences(run, x)
            heads.append(d.shape)
            return d

        def counting_affine(x, wt, b, out=None):
            product_rows.append(x.shape[-2])
            return affine(x, wt, b, out)

        monkeypatch.setattr(appnp.StoredRun, "differences", counting_heads)
        monkeypatch.setattr(appnp, "_affine", counting_affine)
        ens = self._shared_graph_ensemble(
            self.SHARED_GRAPH_ENSEMBLES["mixed_learners"])
        n = ens.train_x.shape[0]
        # (0, 1) graph: rounds 0-4 each differ in teleport, steps or
        # hidden width; (1, 0) graph: round 5. One difference line per
        # round (K = 2): 6 stacks of 2 layers each
        assert [ts for ts, _ in ens.groups] == [(t,) for t in range(6)]
        assert (heads, product_rows) == ([(1, n)] * 6, [n] * 12)

        def calls(run):
            heads.clear()
            product_rows.clear()
            model = run()
            return heads[:], product_rows[:], model

        path = tmp_path / "model.gbe"
        save_ensemble(ens, str(path))
        loaded = calls(lambda: load_ensemble(str(path)))
        assert loaded[:2] == ([(1, n)] * 6, [n] * 12)
        for model in (ens, loaded[2]):
            for rows in (3, 1):
                got = calls(lambda: predict_ensemble(model,
                                                     np.zeros((rows, 2))))
                assert got[:2] == ([(1, rows)] * 6, [rows] * 12)
            assert calls(lambda: transductive_scores(model))[:2] == ([], [])

    def test_loaded_model_predicts_like_the_ensemble_in_memory(
            self, tmp_path):
        ens = self._shared_graph_ensemble(
            self.SHARED_GRAPH_ENSEMBLES["interleaved"])
        path = tmp_path / "model.gbe"
        save_ensemble(ens, str(path))
        new_x = np.random.default_rng(4).normal(size=(6, 2))
        batches = (new_x, new_x[:1], new_x[4:5], new_x)

        def outputs(model):
            return [transductive_scores(model)] + [
                predict_ensemble(model, rows) for rows in batches]

        want = outputs(ens)
        for got, expected in zip(outputs(load_ensemble(str(path))), want):
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])

    def test_replaced_train_x_is_never_served_a_stale_sort(self):
        ens = self._shared_graph_ensemble(
            self.SHARED_GRAPH_ENSEMBLES["interleaved"])
        row = np.random.default_rng(5).normal(size=(1, 2))
        predict_ensemble(ens, row)
        transductive_scores(ens)
        # Neither the stored rows nor a round change in place; an ensemble
        # over other rows of the same shape is a new one, with new graphs.
        other = np.random.default_rng(6).normal(size=ens.train_x.shape)
        with pytest.raises(FrozenInstanceError):
            ens.train_x = other
        with pytest.raises(FrozenInstanceError):
            ens.rounds[0].gamma = 0.0
        ens = replace(ens, train_x=other)
        for got, want in (
                (predict_ensemble(ens, row),
                 reference_votes(ens, np.vstack([ens.train_x, row]),
                                 ens.train_x.shape[0])),
                (transductive_scores(ens),
                 reference_votes(ens, ens.train_x, 0))):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_graphs_on_one_feature_share_its_sort(self):
        ens = self._shared_graph_ensemble(
            [(0, 0, {}), (0, 2, {}), (1, 1, {}), (0, 0, {})])
        rows = np.random.default_rng(7).normal(size=(4, 2))
        for got, want in (
                (predict_ensemble(ens, rows),
                 reference_votes(ens, np.vstack([ens.train_x, rows]),
                                 ens.train_x.shape[0])),
                (transductive_scores(ens),
                 reference_votes(ens, ens.train_x, 0))):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        g0, g2 = ens.rounds[0].gamma, ens.rounds[1].gamma
        assert g0 != g2
        a, b = (run.graph for _, run in ens.groups[:2])
        assert (a.gamma, b.gamma) == (g0, g2)
        assert a.column is b.column
        assert a.adjacency.order is b.adjacency.order is a.column.order
        assert not np.array_equal(a.adjacency.hi, b.adjacency.hi)

    def test_stored_graph_bytes_per_row(self):
        # README: 16 B per stored row per round feature (its sort order and
        # sorted values) plus 24 B per stored row per round (feature, gamma)
        # (window starts, ends and dinv), counting each array once.
        ens = self._shared_graph_ensemble(
            [(0, 0, {}), (0, 2, {}), (1, 1, {}), (1, 0, {}), (0, 2, {})])
        graphs = {id(run.graph): run.graph for _, run in ens.groups}.values()
        arrays = {id(a): a for g in graphs
                  for a in (g.column.order, g.column.values,
                            g.adjacency.order, g.adjacency.lo,
                            g.adjacency.hi, g.adjacency.values)}
        features = {g.feature for g in graphs}
        assert (len(features), len(graphs)) == (2, 4)
        assert sum(a.nbytes for a in arrays.values()) == (
            (16 * len(features) + 24 * len(graphs)) * ens.train_x.shape[0])

    def test_threads_share_the_stored_graphs(self, monkeypatch):
        # More threads than cores, switching often: the calls only read
        # the graphs built with the ensemble, so none builds a graph.
        ens = self._shared_graph_ensemble(
            [(0, 0, {}), (0, 2, {}), (1, 1, {})])
        rows = np.random.default_rng(8).normal(size=(8, 2))
        want = [reference_votes(ens, np.vstack([ens.train_x, rows[i:i + 1]]),
                                ens.train_x.shape[0]) for i in range(8)]
        built = []

        def counting_build(values, gamma, **kwargs):
            built.append(gamma)
            return build_adjacency(values, gamma, **kwargs)

        monkeypatch.setattr(graph, "build_adjacency", counting_build)
        # and no head runs on the stored rows: each call's on its one row
        product_rows = []
        affine = appnp._affine

        def counting_affine(x, wt, b, out=None):
            product_rows.append(x.shape[-2])
            return affine(x, wt, b, out)

        monkeypatch.setattr(appnp, "_affine", counting_affine)
        results = {}

        def work(i):
            results[i] = predict_ensemble(ens, rows[i:i + 1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert built == []
        # every round is a group of its own: two products per call each
        assert product_rows == [1] * (8 * 2 * len(ens.rounds))
        for i in range(8):
            np.testing.assert_array_equal(results[i][0], want[i][0])
            np.testing.assert_array_equal(results[i][1], want[i][1])

    def test_single_round_matches_weak_prediction(self):
        ds, _ = make_dataset(n=150, m=3, seed=8)
        cfg = BoostConfig(n_rounds=1, weak=AppnpConfig(
            hidden_dim=8, prop_steps=2, teleport=0.3, dropout=0.0,
            learning_rate=5e-3, max_epochs=10, patience=10), seed=8)
        ens = fit(cfg, ds)
        labels, scores = transductive_scores(ens)
        from graphboost.appnp import predict
        r = ens.rounds[0]
        cand = build_adjacency(ds.X[:, r.feature], r.gamma)
        weak_labels, _ = predict(r.model, ds.X, cand.adjacency)
        np.testing.assert_array_equal(labels, weak_labels)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-12)

    def test_many_new_rows_in_linear_memory(self):
        # 200 stored rows, 20000 new ones, gamma at the 1/4 quantile: about
        # a quarter of the 20200^2 row pairs are linked, which a stored
        # edge list would need gigabytes for.
        rng = np.random.default_rng(11)
        m, k = 3, 2
        stored = self._stored_rows(m, 200)
        rounds = []
        for t, (feature, alpha) in enumerate(((0, 0.9), (2, 0.4))):
            cfg = AppnpConfig(hidden_dim=8, prop_steps=1, teleport=0.2,
                              seed=t)
            gamma = quantile_thresholds(stored[:, feature]).gammas[2]
            rounds.append(WeakRound(feature, f"f{feature}", gamma,
                                    init_model(cfg, m, k), alpha, 0.3))
        ens = self._manual_ensemble(rounds, k=k, m=m, n_stored=200)
        new_x = rng.normal(size=(20000, m))

        tracemalloc.start()
        try:
            labels, scores = predict_ensemble(ens, new_x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

        x_all = np.vstack([ens.train_x, new_x])
        check = rng.choice(20000, size=8, replace=False)
        votes = np.zeros((check.size, k))
        for r in ens.rounds:
            z = dense_one_step_logits(x_all, 200 + check, r.feature, r.gamma,
                                      r.model)
            votes[np.arange(check.size), np.argmax(z, axis=1)] += r.alpha
        want = votes / votes.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(scores[check], want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(labels[check], np.argmax(want, axis=1))

    def test_alpha_weighted_votes(self):
        # two constant learners voting for different classes: the larger
        # alpha wins
        rounds = [
            WeakRound(0, "f0", 10.0, constant_model(2, 2, winner=0),
                      alpha=2.0, error=0.1),
            WeakRound(1, "f1", 10.0, constant_model(2, 2, winner=1),
                      alpha=1.0, error=0.2),
        ]
        ens = self._manual_ensemble(rounds)
        labels, scores = predict_ensemble(ens, np.zeros((3, 2)))
        np.testing.assert_array_equal(labels, 0)
        np.testing.assert_allclose(scores, [[2 / 3, 1 / 3]] * 3, atol=1e-12)

    def test_empty_input(self):
        rounds = [WeakRound(0, "f0", 1.0, constant_model(2, 2, 0), 1.0, 0.1)]
        ens = self._manual_ensemble(rounds)
        labels, scores = predict_ensemble(ens, np.zeros((0, 2)))
        assert labels.shape == (0,)
        assert scores.shape == (0, 2)

    def test_no_rounds_rejected(self):
        with pytest.raises(DataError, match="empty ensemble"):
            self._manual_ensemble([])

    def test_wrong_width_rejected(self):
        rounds = [WeakRound(0, "f0", 1.0, constant_model(2, 2, 0), 1.0, 0.1)]
        ens = self._manual_ensemble(rounds)
        with pytest.raises(DataError):
            predict_ensemble(ens, np.zeros((3, 5)))

    def test_boosting_curve_mostly_non_increasing(self):
        """Cumulative ensemble train error drops (or holds) across nearly
        every round on a cohort with strong relational signal."""
        n, rounds = 600, 10
        table, labels = gen_synthetic(n, 4, 2, 0.9, seed=33)
        tags = split_rows(n, (0.7, 0.15, 0.15), 33, labels)
        ds, _ = fit_encoder(table, labels, tags)
        cfg = BoostConfig(n_rounds=rounds, learning_rate=0.5,
                          weak=AppnpConfig(hidden_dim=8, prop_steps=3,
                                           teleport=0.2, dropout=0.3,
                                           learning_rate=1e-2,
                                           max_epochs=15, patience=15),
                          seed=33)
        ens = fit(cfg, ds)
        assert len(ens.rounds) == rounds
        train = ds.mask(TRAIN)
        from graphboost.appnp import predict
        votes = np.zeros((n, 2))
        errs = []
        for r in ens.rounds:
            cand = build_adjacency(ds.X[:, r.feature], r.gamma)
            lab, _ = predict(r.model, ds.X, cand.adjacency)
            votes[np.arange(n), lab] += r.alpha
            pred = votes.argmax(axis=1)
            errs.append(float(np.mean(pred[train] != ds.y[train])))
        drops = sum(1 for a, b in zip(errs, errs[1:]) if b <= a + 1e-12)
        assert drops >= 8, f"error curve {errs} rose too often"

    def test_training_rows_fed_back_reproduce_transductive_labels(self):
        ds, _ = make_dataset(n=250, m=3, k=2, rho=0.9, seed=9)
        cfg = BoostConfig(n_rounds=3, weak=AppnpConfig(
            hidden_dim=8, prop_steps=3, teleport=0.2, dropout=0.0,
            learning_rate=5e-3, max_epochs=10, patience=10), seed=9)
        ens = fit(cfg, ds)
        inside_labels, _ = transductive_scores(ens)
        fed_labels, _ = predict_ensemble(ens, ds.X)
        np.testing.assert_array_equal(fed_labels, inside_labels)
