"""End-to-end pipeline commands and CLI exit codes."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from graphboost import boost, pipeline
from graphboost.cli import main
from graphboost.config import parse_config
from graphboost.data import load_csv
from graphboost.graph import quantile_thresholds
from graphboost.model_io import load_ensemble
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


class TestPredict:
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

    def test_negative_workers_flag_is_two(self, cohort, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CONFIG.format(data=cohort[0], rounds=1,
                                          model=tmp_path / "m.gbe",
                                          report=tmp_path / "r.json"))
        assert main(["train", "--config", str(cfg), "--workers", "-3"]) == 2
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "m.gbe").exists()

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
