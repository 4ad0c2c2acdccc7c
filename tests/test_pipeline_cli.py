"""End-to-end pipeline commands and CLI exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import graphboost
from graphboost import boost, pipeline
from graphboost.appnp import MAX_HIDDEN_DIM
from graphboost.cli import main
from graphboost.config import parse_config
from graphboost.data import (CATEGORICAL, MAX_SYNTH_CELLS, EncodingMeta,
                             apply_encoder, load_csv)
from graphboost.graph import quantile_thresholds
from graphboost.model_io import load_ensemble, save_ensemble
from graphboost.pipeline import (run_evaluate, run_predict, run_sweep,
                                 run_synth, run_train)
from graphboost.rng import derive_seed


BASE_CONFIG = """
data = {data}
label = label
split_fractions = 0.6, 0.2, 0.2
seed = 13
rounds = {rounds}
hidden_dim = 8
prop_steps = 3
teleport = 0.2
dropout = 0.0
weak_learning_rate = 0.005
max_epochs = 8
patience = 8
model_out = {model}
report_out = {report}
"""


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    train_path, test_path = run_synth(n=300, m=4, k=2, rho=1.0, seed=5,
                                      test_fraction=0.25,
                                      out_prefix=str(root / "syn"))
    return train_path, test_path


@pytest.fixture(scope="module")
def trained(cohort, tmp_path_factory):
    train_path, _ = cohort
    root = tmp_path_factory.mktemp("trained")
    cfg = parse_config(BASE_CONFIG.format(
        data=train_path, rounds=2, model=root / "m.gbe",
        report=root / "r.json"))
    return run_train(cfg), cfg


class TestSynth:
    def test_writes_pair(self, cohort):
        train_path, test_path = cohort
        table, labels = load_csv(train_path, "label")
        assert table.n_rows == 225
        assert "edge" in table.column_names
        table2, _ = load_csv(test_path, "label")
        assert table2.n_rows == 75

    def test_deterministic(self, tmp_path):
        a = run_synth(100, 3, 2, 0.5, seed=9, test_fraction=0.2,
                      out_prefix=str(tmp_path / "a"))
        b = run_synth(100, 3, 2, 0.5, seed=9, test_fraction=0.2,
                      out_prefix=str(tmp_path / "b"))
        for pa, pb in zip(a, b):
            assert Path(pa).read_bytes() == Path(pb).read_bytes()


class TestTrain:
    def test_outputs_exist_and_parse(self, trained):
        outcome, cfg = trained
        ensemble = load_ensemble(outcome.model_path)
        assert len(ensemble.rounds) == 2
        report = json.loads(Path(outcome.report_path).read_text())
        assert report == outcome.report
        assert 0.0 <= report["weighted_auroc"] <= 1.0
        assert len(report["rounds"]) == 2

    def test_round_log_names_real_feature_and_gamma(self, trained):
        outcome, cfg = trained
        ensemble = load_ensemble(outcome.model_path)
        graph_seed = derive_seed(13, "graphs")
        for rec in outcome.report["rounds"]:
            j = rec["feature_index"]
            assert ensemble.feature_names[j] == rec["feature"]
            ts = quantile_thresholds(ensemble.train_x[:, j],
                                     seed=derive_seed(graph_seed, "pairs", j),
                                     feature=j)
            assert rec["gamma"] in ts.gammas

    def test_train_twice_byte_identical(self, cohort, tmp_path):
        train_path, _ = cohort
        blobs = []
        for tag in ("x", "y"):
            cfg = parse_config(BASE_CONFIG.format(
                data=train_path, rounds=2, model=tmp_path / f"{tag}.gbe",
                report=tmp_path / f"{tag}.json"))
            run_train(cfg)
            blobs.append((tmp_path / f"{tag}.gbe").read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_label_column(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("a,b\n1,2\n3,4\n")
        cfg = parse_config(BASE_CONFIG.format(
            data=data, rounds=1, model=tmp_path / "m.gbe",
            report=tmp_path / "r.json"))
        from graphboost.errors import DataError
        with pytest.raises(DataError, match="label column absent"):
            run_train(cfg)

    def test_cli_overrides_land_where_they_say(self, cohort, tmp_path,
                                               capsys):
        # --seed replaces the config's seed, and --model and --out its
        # output paths, which stay unwritten
        config = BASE_CONFIG.format(data=cohort[0], rounds=1,
                                    model=tmp_path / "cfg.gbe",
                                    report=tmp_path / "cfg.json")
        (tmp_path / "c.cfg").write_text(config)
        model, report = tmp_path / "flag.gbe", tmp_path / "flag.json"
        assert main(["train", "--config", str(tmp_path / "c.cfg"),
                     "--seed", "5", "--model", str(model),
                     "--out", str(report)]) == 0
        assert capsys.readouterr().out.startswith(
            f"model: {model}\nreport: {report}\n")
        assert not (tmp_path / "cfg.gbe").exists()
        assert not (tmp_path / "cfg.json").exists()
        seeded = run_train(parse_config(config.replace("seed = 13",
                                                       "seed = 5")))
        assert model.read_bytes() == Path(seeded.model_path).read_bytes()
        assert report.read_text() == Path(seeded.report_path).read_text()
        unseeded = run_train(parse_config(config))
        assert model.read_bytes() != Path(unseeded.model_path).read_bytes()


def _ref_write_predictions(out_path, encoder, labels, scores):
    """The row-by-row predictions writer of ``run_predict`` that
    ``pipeline._write_predictions`` replaced, frozen as its reference."""
    label_values = encoder.label_values
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", encoder.label_column]
                        + [f"score_{v}" for v in label_values])
        for i in range(len(labels)):
            writer.writerow([i, label_values[labels[i]]]
                            + [repr(float(s)) for s in scores[i]])


# Labels a CSV writer must quote or escape, and text outside ASCII; no
# lone surrogates, which UTF-8 cannot hold.
LABEL_TEXT = st.text(st.one_of(st.sampled_from(',"\'\r\n; é日\U0001F600'),
                               st.characters(exclude_categories=("Cs",))),
                     max_size=6)


# Scores that print in their own way: both zeros, NaN, the infinities and
# the smallest subnormal.
SCORE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, math.nan,
                                   math.inf, -math.inf]),
                  st.floats(0.0, 1.0))


@st.composite
def _predictions(draw):
    """An encoder, labels and scores: either up to 8 rows drawn one by
    one, or up to 60 rows drawn from 1-4 row patterns, so that rows
    repeat, now and then with a 0.0 row and a -0.0 row of one label."""
    k = draw(st.integers(2, 4))
    values = draw(st.lists(LABEL_TEXT, min_size=k, max_size=k, unique=True))
    row = st.tuples(st.integers(0, k - 1),
                    st.lists(SCORE, min_size=k, max_size=k))
    if draw(st.booleans()):
        rows = draw(st.lists(row, max_size=8))
    else:
        patterns = draw(st.lists(row, min_size=1, max_size=4))
        if draw(st.booleans()):
            label = draw(st.integers(0, k - 1))
            patterns[:0] = [(label, [0.0] * k), (label, [-0.0] * k)]
        rows = [patterns[i] for i in draw(st.lists(
            st.integers(0, len(patterns) - 1), max_size=60))]
    labels = np.array([label for label, _ in rows], dtype=np.int64)
    scores = np.array([s for _, s in rows],
                      dtype=np.float64).reshape(len(rows), k)
    return EncodingMeta([], draw(LABEL_TEXT), values), labels, scores


@pytest.fixture(scope="module")
def predictions_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("predictions")


class TestPredict:
    @given(_predictions())
    @example((EncodingMeta([], "", ["", 'a,"b"', "c\r\nd"]),
              np.array([0, 0, 1, 2, 0, 1]),
              np.array([[0.0] * 3, [-0.0] * 3, [math.nan, math.inf, -math.inf],
                        [5e-324, 0.5, 0.5], [0.0] * 3,
                        [math.nan, math.inf, -math.inf]])))
    @settings(max_examples=300, deadline=None)
    def test_csv_bytes_match_row_by_row_writer(self, predictions_dir,
                                               drawn):
        got = predictions_dir / "got.csv"
        want = predictions_dir / "want.csv"
        pipeline._write_predictions(str(got), *drawn)
        _ref_write_predictions(str(want), *drawn)
        assert got.read_bytes() == want.read_bytes()

    def test_feed_training_file_back(self, trained, cohort, tmp_path):
        outcome, cfg = trained
        train_path, _ = cohort
        out = tmp_path / "preds.csv"
        n = run_predict(outcome.model_path, train_path, str(out))
        assert n == 225

        # transductive training-time predictions must be reproduced
        inside_labels, _ = boost.transductive_scores(outcome.ensemble)
        label_values = outcome.ensemble.encoder.label_values
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        got = [r["label"] for r in rows]
        want = [label_values[i] for i in inside_labels]
        assert got == want

    def test_scores_columns_sum_to_one(self, trained, cohort, tmp_path):
        outcome, _ = trained
        _, test_path = cohort
        out = tmp_path / "preds.csv"
        run_predict(outcome.model_path, test_path, str(out))
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            total = sum(float(v) for k, v in r.items()
                        if k.startswith("score_"))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_empty_input_gives_header_only(self, trained, tmp_path):
        outcome, _ = trained
        data = tmp_path / "empty.csv"
        header = ",".join(outcome.ensemble.feature_names)
        data.write_text(header + "\n")
        out = tmp_path / "preds.csv"
        n = run_predict(outcome.model_path, str(data), str(out))
        assert n == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("row,label")

    def test_missing_feature_column(self, trained, tmp_path):
        outcome, _ = trained
        data = tmp_path / "short.csv"
        data.write_text("edge\n0.5\n")
        out = tmp_path / "preds.csv"
        from graphboost.errors import DataError
        with pytest.raises(DataError, match="column missing"):
            run_predict(outcome.model_path, str(data), str(out))


class TestEvaluate:
    def test_report_round_trips_through_json(self, trained, cohort, tmp_path):
        outcome, _ = trained
        _, test_path = cohort
        out = tmp_path / "eval.json"
        report = run_evaluate(outcome.model_path, test_path, str(out))
        assert json.loads(out.read_text()) == report
        assert 0.0 <= report["weighted_auroc"] <= 1.0

    def test_constant_labels_single_class_error(self, trained, cohort,
                                                tmp_path):
        outcome, _ = trained
        _, test_path = cohort
        table, labels = load_csv(test_path, "label")
        data = tmp_path / "const.csv"
        from graphboost.data import write_csv
        write_csv(table, ["c0"] * table.n_rows, str(data))
        from graphboost.errors import DataError
        with pytest.raises(DataError, match="no class"):
            run_evaluate(outcome.model_path, str(data))

    def test_unseen_label_value(self, trained, cohort, tmp_path):
        outcome, _ = trained
        _, test_path = cohort
        table, labels = load_csv(test_path, "label")
        labels[0] = "mystery"
        data = tmp_path / "unseen.csv"
        from graphboost.data import write_csv
        write_csv(table, labels, str(data))
        from graphboost.errors import DataError
        with pytest.raises(DataError, match="not seen at training"):
            run_evaluate(outcome.model_path, str(data))


KINDS_CONFIG = """
data = {data}
label = label
split_fractions = 0.6, 0.2, 0.2
seed = 3
rounds = 2
hidden_dim = 4
prop_steps = 2
dropout = 0.0
weak_learning_rate = 0.05
max_epochs = 40
patience = 40
model_out = {model}
report_out = {report}
"""


@pytest.fixture(scope="module")
def kinds_models(tmp_path_factory):
    """Two models trained through the CLI on 30-row cohorts whose label
    follows a categorical column: ``code``, made categorical by the config
    though its cells 1/2/3 look numeric, and ``category_1``, text cells.
    Each is returned with the path of its cohort."""
    root = tmp_path_factory.mktemp("kinds")
    rng = np.random.default_rng(7)
    models = {}
    for name, levels, extra in (
            ("code", ("1", "2", "3"), "categorical = code"),
            ("category_1", ("low", "mid", "high"), "")):
        rows = [f"{levels[i % 3]},{rng.normal():.3f},{'ab'[i % 3 > 0]}"
                for i in range(30)]
        data = root / f"{name}.csv"
        data.write_text("\n".join([f"{name},x,label"] + rows) + "\n")
        cfg = root / f"{name}.cfg"
        cfg.write_text(KINDS_CONFIG.format(
            data=data, model=root / f"{name}.gbe",
            report=root / f"{name}.json") + extra + "\n")
        assert main(["train", "--config", str(cfg)]) == 0
        models[name] = str(root / f"{name}.gbe"), data
    return models


class TestFittedColumnKinds:
    """``predict`` and ``evaluate`` read new rows with the column kinds of
    the model: a categorical column whose new cells all look numeric, or
    are all missing, used to be read as numeric and fail (exit 2)."""

    @staticmethod
    def _want_labels(model, data, name):
        ensemble = load_ensemble(model)
        table, _ = load_csv(str(data), "label", {name: CATEGORICAL})
        labels, _ = boost.predict_ensemble(
            ensemble, apply_encoder(table, ensemble.encoder))
        return [ensemble.encoder.label_values[i] for i in labels]

    @staticmethod
    def _new_rows(path, name, cells):
        path.write_text("".join([f"label,x,{name}\n"] + [
            f"{'ab'[i % 2]},{0.1 * i},{c}\n" for i, c in enumerate(cells)]))
        return str(path)

    @pytest.mark.parametrize("name, cells", [
        ("code", ["1", "3", "2", "NA"]), ("code", ["2"]), ("code", ["NA"]),
        ("category_1", ["NA"]), ("category_1", ["", "low", "NA"])])
    def test_predict_exits_zero(self, kinds_models, tmp_path, capsys, name,
                                cells):
        model, _ = kinds_models[name]
        data = self._new_rows(tmp_path / "new.csv", name, cells)
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", model, "--data", data,
                     "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out, newline="", encoding="utf-8") as fh:
            got = [row["label"] for row in csv.DictReader(fh)]
        assert got == self._want_labels(model, data, name)

    @pytest.mark.parametrize("name, cells", [
        ("code", ["2", "2"]), ("code", ["NA", "3"]),
        ("category_1", ["NA", ""])])
    def test_evaluate_exits_zero(self, kinds_models, tmp_path, capsys, name,
                                 cells):
        model, _ = kinds_models[name]
        data = self._new_rows(tmp_path / "new.csv", name, cells)
        out = tmp_path / "e.json"
        assert main(["evaluate", "--model", model, "--data", data,
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["n"] == len(cells)

    def test_training_file_fed_back(self, kinds_models, tmp_path):
        model, data = kinds_models["code"]
        out = tmp_path / "p.csv"
        assert run_predict(model, str(data), str(out)) == 30
        with open(out, newline="", encoding="utf-8") as fh:
            got = [row["label"] for row in csv.DictReader(fh)]
        assert got == self._want_labels(model, data, "code")

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_text_in_a_numeric_column_is_two(self, kinds_models, tmp_path,
                                             capsys, command):
        model, _ = kinds_models["code"]
        data = tmp_path / "new.csv"
        data.write_text("code,x,label\n1,0.5,a\n2,oops,b\n")
        assert main([command, "--model", model, "--data", str(data),
                     "--out", str(tmp_path / "o")]) == 2
        assert "column 'x'" in capsys.readouterr().err

    def test_missing_model_column_is_named(self, kinds_models, tmp_path,
                                           capsys):
        model, _ = kinds_models["code"]
        data = tmp_path / "new.csv"
        data.write_text("x\n0.5\n")
        assert main(["predict", "--model", model, "--data", str(data),
                     "--out", str(tmp_path / "o")]) == 2
        assert "column missing from data: 'code'" in capsys.readouterr().err


class TestSweep:
    SWEEP_CONFIG = """
data = {data}
label = label
split_fractions = 0.6, 0.2, 0.2
seed = 17
rounds = 1
hidden_dim = 8
prop_steps = 2
teleport = {teleports}
dropout = 0.0
weak_learning_rate = 0.005
max_epochs = 6
patience = 6
report_out = {report}
"""

    def test_two_point_sweep(self, cohort, tmp_path):
        train_path, _ = cohort
        cfg = parse_config(self.SWEEP_CONFIG.format(
            data=train_path, teleports="0.2, 1.0",
            report=tmp_path / "sweep.json"))
        outcome = run_sweep(cfg)
        assert len(outcome["points"]) == 2
        assert outcome["best"]["teleport"] in (0.2, 1.0)
        assert "weighted_auroc" in outcome["final_report"]
        saved = json.loads((tmp_path / "sweep.json").read_text())
        assert saved == outcome

    def test_duplicate_points_deduplicated(self, cohort, tmp_path):
        train_path, _ = cohort
        cfg = parse_config(self.SWEEP_CONFIG.format(
            data=train_path, teleports="0.2, 0.2",
            report=tmp_path / "sweep.json"))
        outcome = run_sweep(cfg)
        assert len(outcome["points"]) == 1

    def test_deterministic_best(self, cohort, tmp_path):
        train_path, _ = cohort
        results = []
        for tag in ("a", "b"):
            cfg = parse_config(self.SWEEP_CONFIG.format(
                data=train_path, teleports="0.2, 1.0",
                report=tmp_path / f"{tag}.json"))
            results.append(run_sweep(cfg))
        assert results[0] == results[1]

    def test_cap_enforced(self, cohort, tmp_path):
        train_path, _ = cohort
        text = self.SWEEP_CONFIG.format(data=train_path,
                                        teleports="0.1, 0.2, 0.3, 0.5",
                                        report=tmp_path / "s.json")
        cfg = parse_config(text + "sweep_cap = 3\n")
        from graphboost.errors import DataError
        with pytest.raises(DataError, match="cap"):
            run_sweep(cfg)

    def test_report_has_points_best_and_a_train_report(self, cohort,
                                                        trained, tmp_path):
        cfg = parse_config(self.SWEEP_CONFIG.format(
            data=cohort[0], teleports="0.2, 1.0",
            report=tmp_path / "sweep.json"))
        outcome = run_sweep(cfg)
        assert set(outcome) == {"points", "best", "final_report"}
        assert [set(p) for p in outcome["points"]] == \
            [{"point", "val_weighted_auroc", "rounds_used"}] * 2
        assert outcome["best"] in [p["point"] for p in outcome["points"]]
        assert set(outcome["final_report"]) == set(trained[0].report)

    def test_cli_sweep_with_overrides(self, cohort, tmp_path, capsys):
        # exits 0, prints the best point and its test AUROC, and writes a
        # model that evaluate loads and that saves again byte for byte
        config = self.SWEEP_CONFIG.format(data=cohort[0],
                                          teleports="0.2, 1.0",
                                          report=tmp_path / "cfg.json")
        (tmp_path / "s.cfg").write_text(config)
        model, report = tmp_path / "final.gbe", tmp_path / "sweep.json"
        assert main(["sweep", "--config", str(tmp_path / "s.cfg"),
                     "--seed", "5", "--model", str(model),
                     "--out", str(report)]) == 0
        printed = capsys.readouterr().out
        assert not (tmp_path / "cfg.json").exists()

        seeded = parse_config(config.replace("seed = 17", "seed = 5"))
        seeded.model_out = str(tmp_path / "seeded.gbe")
        outcome = run_sweep(seeded)
        assert printed == (
            f"best point: {outcome['best']}\ntest weighted AUROC: "
            f"{outcome['final_report']['weighted_auroc']:.4f}\n")
        assert json.loads(report.read_text()) == outcome
        assert model.read_bytes() == (tmp_path / "seeded.gbe").read_bytes()

        assert main(["evaluate", "--model", str(model),
                     "--data", cohort[1]]) == 0
        save_ensemble(load_ensemble(str(model)), str(tmp_path / "again.gbe"))
        assert (tmp_path / "again.gbe").read_bytes() == model.read_bytes()

    @pytest.mark.parametrize("command, fractions, error", [
        ("train", "0.8, 0.2, 0.0", "test split is empty"),
        ("sweep", "0.8, 0.2, 0.0", "test split is empty"),
        ("sweep", "0.8, 0.0, 0.2", "sweep selection needs a validation "
                                   "split")])
    def test_empty_split_is_two_before_any_fit(self, cohort, tmp_path,
                                               capsys, monkeypatch, command,
                                               fractions, error):
        fits = []
        monkeypatch.setattr(boost, "fit", lambda *args: fits.append(args))
        config = self.SWEEP_CONFIG.format(
            data=cohort[0], report=tmp_path / "r.json",
            teleports="0.1, 0.2, 0.3, 0.5, 0.7, 1.0" if command == "sweep"
            else "0.2")
        (tmp_path / "c.cfg").write_text(
            config.replace("0.6, 0.2, 0.2", fractions))
        assert main([command, "--config", str(tmp_path / "c.cfg"),
                     "--model", str(tmp_path / "m.gbe")]) == 2
        assert f"error: {error}" in capsys.readouterr().err
        assert fits == []
        assert not (tmp_path / "m.gbe").exists()


class TestEndToEndQuality:
    def test_perfect_synthetic_strong_config(self, tmp_path):
        """rho=1 cohort, strong config: round 1 names the planted feature
        and held-out weighted AUROC clears 0.95."""
        train_p, test_p = run_synth(1200, 5, 2, 1.0, seed=31,
                                    test_fraction=0.2,
                                    out_prefix=str(tmp_path / "e2e"))
        cfg = parse_config(f"""
data = {train_p}
label = label
split_fractions = 0.7, 0.15, 0.15
seed = 31
rounds = 4
hidden_dim = 16
prop_steps = 5
teleport = 0.1
dropout = 0.1
weak_learning_rate = 0.01
max_epochs = 40
patience = 40
model_out = {tmp_path / "e2e.gbe"}
report_out = {tmp_path / "e2e.json"}
""")
        outcome = run_train(cfg)
        assert len(outcome.report["rounds"]) == 4
        assert outcome.report["rounds"][0]["feature"] == "edge"
        report = run_evaluate(outcome.model_path, test_p)
        assert report["weighted_auroc"] >= 0.95


class TestCliExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["train"]) == 1  # --config missing
        assert main(["bogus-command"]) == 1

    def test_data_error_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("data = missing.csv\nrounds = 1\n")
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_config_error_is_two(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("rounds = banana\n")
        assert main(["train", "--config", str(cfg)]) == 2

    def test_config_not_utf8_is_two(self, tmp_path, capsys):
        # used to end in a UnicodeDecodeError traceback and exit 1
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"rounds = 1\n# r\xe9sum\xe9\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"cannot read config {str(cfg)!r}" in capsys.readouterr().err

    def test_data_not_utf8_is_two(self, cohort, tmp_path, capsys):
        # used to end in a UnicodeDecodeError traceback and exit 1
        data = tmp_path / "d.csv"
        text = Path(cohort[0]).read_text(encoding="utf-8")
        data.write_bytes(text.replace("label", "\u00e9tat", 1)
                         .encode("latin-1"))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CONFIG.format(data=data, rounds=1,
                                          model=tmp_path / "m.gbe",
                                          report=tmp_path / "r.json"))
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"cannot read {str(data)!r}: not UTF-8 text" in \
            capsys.readouterr().err
        assert not (tmp_path / "m.gbe").exists()

    def test_byte_order_mark_is_skipped(self, cohort, tmp_path, capsys):
        # A BOM used to become part of the first column's name, so a model
        # trained on such a file failed on files without one: "column
        # missing", exit 2.
        train_path, test_path = cohort
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + Path(train_path).read_bytes())
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CONFIG.format(data=data, rounds=1,
                                          model=tmp_path / "m.gbe",
                                          report=tmp_path / "r.json"))
        assert main(["train", "--config", str(cfg)]) == 0
        names = load_ensemble(str(tmp_path / "m.gbe")).feature_names
        assert names == load_csv(train_path, "label")[0].column_names
        assert main(["predict", "--model", str(tmp_path / "m.gbe"),
                     "--data", test_path,
                     "--out", str(tmp_path / "p.csv")]) == 0
        assert (tmp_path / "p.csv").exists()

    def test_config_byte_order_mark_is_skipped(self, cohort, tmp_path):
        # used to fail on the first line, "unknown key '\ufeffdata'",
        # exit 2
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf" + BASE_CONFIG.lstrip().format(
            data=cohort[0], rounds=1, model=tmp_path / "m.gbe",
            report=tmp_path / "r.json").encode("utf-8"))
        assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "m.gbe").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_field_over_csv_limit_is_two(self, trained, cohort, tmp_path,
                                         capsys, command):
        # used to end in a _csv.Error traceback and exit 1
        outcome, _ = trained
        lines = Path(cohort[1]).read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[0] = "1" * 200_000
        lines[2] = ",".join(cells)
        data = tmp_path / "d.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main([command, "--model", outcome.model_path,
                     "--data", str(data), "--out", str(tmp_path / "o")]) == 2
        assert f"cannot read {str(data)!r} at line 3: field larger than " \
            "field limit (131072)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line, message", [
        ("pair_cap = 100000", "unknown key 'pair_cap'"),
        (f"prop_steps = {2**70}", "prop_steps"), ("workers = -3", "workers"),
        ("hidden_dim = -1", "hidden_dim"), ("max_epochs = -1", "max_epochs"),
        ("patience = -5", "patience"), ("weight_decay = -1", "weight_decay"),
        ("weight_decay = inf", "weight_decay"),
        ("weak_learning_rate = -1", "weak_learning_rate"),
        ("weak_learning_rate = 0", "weak_learning_rate"),
        ("weak_learning_rate = nan", "weak_learning_rate")])
    def test_out_of_range_setting_is_two(self, cohort, tmp_path, capsys,
                                         line, message):
        text = BASE_CONFIG.format(data=cohort[0], rounds=1,
                                  model=tmp_path / "m.gbe",
                                  report=tmp_path / "r.json")
        key = line.split(" = ")[0]
        text = "\n".join(row for row in text.splitlines()
                         if not row.startswith(key + " "))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + f"\n{line}\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.gbe").exists()

    @pytest.mark.parametrize("command, line, message", [
        ("train", "hidden_dim = 0", "hidden_dim"),
        ("sweep", "hidden_dim = 8, 0", "hidden_dim"),
        ("sweep", "rounds = 1, 0", "boosting round"),
        ("sweep", "boost_learning_rate = 1.0, 0", "boost learning rate"),
        ("sweep", "prop_steps = 3, -1", "prop_steps"),
        ("sweep", "teleport = 0.2, 1.5", "teleport"),
        ("sweep", "dropout = 0.0, 1.0", "dropout"),
        ("sweep", "weak_learning_rate = 0.005, nan", "weak_learning_rate"),
        ("sweep", "weight_decay = 0.0, inf", "weight_decay"),
        ("sweep", "max_epochs = 8, -1", "max_epochs"),
        ("sweep", "patience = 8, -5", "patience")])
    def test_bad_setting_stops_before_any_data(self, cohort, tmp_path,
                                               capsys, monkeypatch, command,
                                               line, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("reached with a bad setting")

        monkeypatch.setattr(pipeline, "load_csv", unreachable)
        monkeypatch.setattr(boost, "fit", unreachable)
        key = line.split(" = ")[0]
        text = "\n".join(row for row in BASE_CONFIG.format(
            data=cohort[0], rounds=1, model=tmp_path / "m.gbe",
            report=tmp_path / "r.json").splitlines()
            if not row.startswith(key + " "))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + f"\n{line}\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.gbe").exists()

    @pytest.mark.parametrize("key", ["data", "model_out", "report_out"])
    def test_nul_in_path_setting_is_two(self, cohort, tmp_path, capsys,
                                        key):
        # used to end in a ValueError ("embedded null byte") traceback and
        # exit 1
        paths = {"data": cohort[0], "model": tmp_path / "m.gbe",
                 "report": tmp_path / "r.json"}
        name = key.split("_")[0]
        paths[name] = f"{paths[name]}\0"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CONFIG.format(rounds=1, **paths))
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"bad value for {key!r}: a path cannot contain a NUL " \
            "character" in capsys.readouterr().err
        assert not (tmp_path / "m.gbe").exists()

    def test_nan_split_fraction_is_two(self, cohort, tmp_path, capsys):
        # used to end in "train split is empty" after a numpy warning
        text = BASE_CONFIG.format(data=cohort[0], rounds=1,
                                  model=tmp_path / "m.gbe",
                                  report=tmp_path / "r.json")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text.replace("split_fractions = 0.6, 0.2, 0.2",
                                    "split_fractions = nan, 0.5, 0.5"))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "fractions must be three non-negative numbers, got " \
            "(nan, 0.5, 0.5)" in capsys.readouterr().err
        assert not (tmp_path / "m.gbe").exists()

    @pytest.mark.parametrize("written", ["-1", "nan"])
    def test_bad_expert_threshold_is_two(self, cohort, tmp_path, capsys,
                                         written):
        # used to name the threshold only after scaling, as a negative
        # gamma, with no config line
        text = BASE_CONFIG.format(data=cohort[0], rounds=1,
                                  model=tmp_path / "m.gbe",
                                  report=tmp_path / "r.json")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + f"expert_edges = edge:{written}\n")
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "bad value for 'expert_edges': threshold of 'edge' must be a " \
            f"non-negative number, got {written}\n" in err
        assert not (tmp_path / "m.gbe").exists()

    def test_column_both_categorical_and_numeric_is_two(self, tmp_path,
                                                        capsys,
                                                        monkeypatch):
        # used to train with the column silently numeric (exit 0)
        rng = np.random.default_rng(2)
        data = tmp_path / "d.csv"
        data.write_text("x,c,label\n" + "".join(
            f"{rng.normal():.6f},{rng.integers(0, 3)},{rng.integers(0, 2)}\n"
            for _ in range(200)))

        def unreachable(*args, **kwargs):
            raise AssertionError("reached with a contradictory hint")

        monkeypatch.setattr(pipeline, "load_csv", unreachable)
        text = BASE_CONFIG.format(data=data, rounds=1,
                                  model=tmp_path / "m.gbe",
                                  report=tmp_path / "r.json")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + "categorical = c\nnumeric = x, c\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "column 'c' is listed under both categorical and numeric" \
            in capsys.readouterr().err
        assert not (tmp_path / "m.gbe").exists()

    def test_negative_workers_flag_is_two(self, cohort, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CONFIG.format(data=cohort[0], rounds=1,
                                          model=tmp_path / "m.gbe",
                                          report=tmp_path / "r.json"))
        assert main(["train", "--config", str(cfg), "--workers", "-3"]) == 2
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "m.gbe").exists()

    @pytest.mark.parametrize("command, line", [
        ("train", "hidden_dim = 100000000000000000000"),
        ("train", "hidden_dim = 1000000000000000"),
        ("sweep", "hidden_dim = 4, 100000000000000000000")])
    def test_oversized_hidden_dim_is_two(self, cohort, tmp_path, capsys,
                                         monkeypatch, command, line):
        # used to end in a traceback, past the data read: numpy's "Maximum
        # allowed dimension exceeded" or a failed 28.4 PiB allocation; the
        # sweep fitted its first point first
        reads = []

        def recording_load_csv(*args, **kwargs):
            reads.append(args)
            return load_csv(*args, **kwargs)

        monkeypatch.setattr(pipeline, "load_csv", recording_load_csv)
        text = "\n".join(row for row in BASE_CONFIG.format(
            data=cohort[0], rounds=1, model=tmp_path / "m.gbe",
            report=tmp_path / "r.json").splitlines()
            if not row.startswith("hidden_dim "))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + f"\n{line}\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == \
            f"error: hidden_dim must be in [1, {MAX_HIDDEN_DIM}]\n"
        assert reads == []
        assert not (tmp_path / "m.gbe").exists()

    def test_unallocatable_synth_size_is_two(self, tmp_path, capsys):
        # used to end in a traceback: numpy failed to allocate 7.11 PiB
        prefix = tmp_path / "s"
        assert main(["synth", "--out", str(prefix), "--n",
                     "1000000000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate 7.11 PiB")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--n", "--m"])
    def test_unindexable_synth_size_is_two(self, tmp_path, capsys, flag):
        # used to end in a traceback: numpy's "Maximum allowed dimension
        # exceeded" for --n, "high is out of bounds for int64" for --m
        sizes = {"--n": 2000, "--m": 10, flag: 10**20}
        assert main(["synth", "--out", str(tmp_path / "s"), flag,
                     str(10**20)]) == 2
        assert capsys.readouterr().err == (
            f"error: n={sizes['--n']} rows by m={sizes['--m']} columns too "
            f"large: need n*m <= {MAX_SYNTH_CELLS} cells\n")
        assert list(tmp_path.iterdir()) == []

    def test_synth_output_in_missing_directory_is_two(self, tmp_path,
                                                      capsys):
        prefix = tmp_path / "missing" / "s"
        assert main(["synth", "--out", str(prefix), "--n", "100"]) == 2
        assert f"cannot write {str(prefix) + '_train.csv'!r}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("key", ["model_out", "report_out"])
    def test_train_output_in_missing_directory_is_two(self, cohort, tmp_path,
                                                      capsys, key):
        paths = {"model": tmp_path / "m.gbe", "report": tmp_path / "r.json"}
        missing = tmp_path / "missing" / "out"
        paths[key.split("_")[0]] = missing
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CONFIG.format(data=cohort[0], rounds=1, **paths))
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"cannot write {str(missing)!r}" in capsys.readouterr().err

    def test_predict_output_in_missing_directory_is_two(self, trained,
                                                        cohort, tmp_path,
                                                        capsys):
        outcome, _ = trained
        missing = tmp_path / "missing" / "o.csv"
        assert main(["predict", "--model", outcome.model_path,
                     "--data", cohort[1], "--out", str(missing)]) == 2
        assert f"cannot write {str(missing)!r}" in capsys.readouterr().err

    def test_evaluate_output_in_missing_directory_is_two(self, trained,
                                                         cohort, tmp_path,
                                                         capsys):
        outcome, _ = trained
        missing = tmp_path / "missing" / "e.json"
        assert main(["evaluate", "--model", outcome.model_path,
                     "--data", cohort[1], "--out", str(missing)]) == 2
        assert f"cannot write {str(missing)!r}" in capsys.readouterr().err

    def test_wrong_model_version_is_two(self, trained, tmp_path, capsys):
        outcome, _ = trained
        blob = bytearray(Path(outcome.model_path).read_bytes())
        blob[4:8] = (9).to_bytes(4, "little")
        bad = tmp_path / "bad.gbe"
        bad.write_bytes(bytes(blob))
        data = tmp_path / "d.csv"
        data.write_text("edge\n0.1\n")
        assert main(["predict", "--model", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "version" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_non_finite_model_weight_is_two(self, trained, cohort, tmp_path,
                                            capsys, command):
        outcome, _ = trained
        ensemble = load_ensemble(outcome.model_path)
        ensemble.rounds[0].model.w1[0, 0] = np.nan
        bad = tmp_path / "nan.gbe"
        save_ensemble(ensemble, str(bad))
        assert main([command, "--model", str(bad), "--data", cohort[1],
                     "--out", str(tmp_path / "o")]) == 2
        assert "error: non-finite values in round 0 w1" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_weights_that_overflow_on_the_stored_rows_are_two(
            self, trained, cohort, tmp_path, command):
        # finite weights whose head overflows float64 on the stored rows:
        # the load names the round, with one error line and no numpy
        # warning, even where warnings are errors (it used to warn at load
        # and then blame new row 0, or end in a traceback)
        outcome, _ = trained
        ensemble = load_ensemble(outcome.model_path)
        ensemble.rounds[0].model.w2[1] = 1e308
        bad = tmp_path / "big.gbe"
        save_ensemble(ensemble, str(bad))
        src = str(Path(graphboost.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "graphboost.cli", command,
             "--model", str(bad), "--data", cohort[1],
             "--out", str(tmp_path / "o")],
            capture_output=True, env=env, text=True, timeout=120)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            "error: round 0 overflows on the stored rows"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("text, error", [
        ("edge,edge,label\n1,2,0\n3,4,1\n",
         "duplicate column names in header"),
        ("label\n0\n1\n", "no feature columns")],
        ids=["repeated-name", "label-only"])
    def test_csv_without_distinct_features_is_two(self, trained, tmp_path,
                                                  capsys, command, text,
                                                  error):
        (tmp_path / "d.csv").write_text(text)
        (tmp_path / "c.cfg").write_text(BASE_CONFIG.format(
            data=tmp_path / "d.csv", rounds=1, model=tmp_path / "m.gbe",
            report=tmp_path / "r.json"))
        argv = (["train", "--config", str(tmp_path / "c.cfg")]
                if command == "train" else
                ["evaluate", "--model", trained[0].model_path,
                 "--data", str(tmp_path / "d.csv")])
        assert main(argv) == 2
        assert f"error: {error}" in capsys.readouterr().err

    def test_closed_stdout_is_one_without_a_traceback(self, trained, cohort):
        # graphboost evaluate ... | head -1: the reader is gone before the
        # report is printed
        read, write = os.pipe()
        os.close(read)
        src = str(Path(graphboost.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "graphboost.cli", "evaluate",
                 "--model", trained[0].model_path, "--data", cohort[1]],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True,
                timeout=120)
        finally:
            os.close(write)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr
        assert "BrokenPipeError" not in done.stderr

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_missing_model_file_is_two(self, cohort, tmp_path, capsys,
                                       command):
        missing = tmp_path / "nope.gbe"
        assert main([command, "--model", str(missing), "--data", cohort[1],
                     "--out", str(tmp_path / "o")]) == 2
        assert f"cannot read model {str(missing)!r}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_model_path_is_directory_is_two(self, cohort, tmp_path, capsys,
                                            command):
        assert main([command, "--model", str(tmp_path), "--data", cohort[1],
                     "--out", str(tmp_path / "o")]) == 2
        assert f"cannot read model {str(tmp_path)!r}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_data_path_is_directory_is_two(self, trained, tmp_path, capsys,
                                           command):
        outcome, _ = trained
        assert main([command, "--model", outcome.model_path,
                     "--data", str(tmp_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"cannot read {str(tmp_path)!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_synth_and_train_happy_path(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "s"), "--n", "200",
                     "--m", "3", "--k", "2", "--rho", "1.0",
                     "--seed", "3"]) == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CONFIG.format(
            data=tmp_path / "s_train.csv", rounds=1,
            model=tmp_path / "m.gbe", report=tmp_path / "r.json"))
        assert main(["train", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "test weighted AUROC" in out
        assert main(["evaluate", "--model", str(tmp_path / "m.gbe"),
                     "--data", str(tmp_path / "s_test.csv")]) == 0
