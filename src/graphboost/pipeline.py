"""End-to-end commands: synth, train, predict, evaluate, sweep.

These are the in-process implementations behind the CLI; they work on
files and return plain dict/dataclass results so tests can call them
directly.
"""

import csv
import io
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import boost
from .config import RunConfig
from .data import (TEST, TRAIN, VAL, Dataset, apply_encoder, fit_encoder,
                   gen_synthetic, load_csv, split_rows, subset_table,
                   write_csv)
from .errors import ConfigError, DataError
from .metrics import evaluate_scores
from .model_io import load_ensemble, save_ensemble
from .rng import derive_seed

log = logging.getLogger("graphboost.pipeline")


@dataclass
class TrainOutcome:
    model_path: str
    report_path: str
    report: dict
    ensemble: object


@contextmanager
def _writing(path: str):
    """Turn a failed write of the output ``path`` into a ConfigError that
    names it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: "
                          f"{exc.strerror or exc}") from exc


def _write_json(payload: dict, path: str) -> None:
    with _writing(path), open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _round_records(ensemble) -> list[dict]:
    return [{
        "round": t,
        "feature_index": int(r.feature),
        "feature": r.feature_name,
        "gamma": float(r.gamma),
        "error": float(r.error),
        "alpha": float(r.alpha),
        "expert": bool(r.expert),
    } for t, r in enumerate(ensemble.rounds, start=1)]


def run_synth(n: int, m: int, k: int, rho: float, seed: int,
              test_fraction: float, out_prefix: str) -> tuple[str, str]:
    """Generate a synthetic cohort and write a train/test CSV pair."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must be in (0, 1)")
    table, labels = gen_synthetic(n, m, k, rho, seed)
    tags = split_rows(n, (1.0 - test_fraction, 0.0, test_fraction),
                      derive_seed(seed, "synth-split"), labels)
    paths = (f"{out_prefix}_train.csv", f"{out_prefix}_test.csv")
    for tag, path in ((TRAIN, paths[0]), (TEST, paths[1])):
        rows = np.flatnonzero(tags == tag)
        with _writing(path):
            write_csv(subset_table(table, rows), [labels[i] for i in rows],
                      path)
        log.info("wrote %d rows to %s", rows.size, path)
    return paths


def _prepare_dataset(cfg: RunConfig, *needed: tuple) -> Dataset:
    """Load, split and encode ``cfg``'s data. Each ``(tag, message)`` of
    ``needed`` names a split that must hold a row, so that a command
    raises ``message`` before its first fit rather than after it."""
    if cfg.data is None:
        raise DataError("no data path configured")
    table, labels = load_csv(cfg.data, cfg.label, cfg.schema_hints())
    split_seed = cfg.split_seed if cfg.split_seed is not None \
        else derive_seed(cfg.seed, "split")
    tags = split_rows(table.n_rows, cfg.split_fractions, split_seed, labels)
    dataset, _ = fit_encoder(table, labels, tags, label_column=cfg.label)
    for tag, message in needed:
        if not dataset.mask(tag).any():
            raise DataError(message)
    return dataset


def _fit(boost_cfg, dataset: Dataset, tag: int,
         model_path: str | None = None) -> tuple:
    """Fit ``dataset``, report on the rows of split ``tag`` (the metrics of
    the ensemble's transductive labels and scores, ``rounds``,
    ``stop_reason`` and ``stop_error``), and save the model to
    ``model_path`` when one is given. Returns the ensemble and the
    report."""
    ensemble = boost.fit(boost_cfg, dataset)
    labels, scores = boost.transductive_scores(ensemble)
    mask = dataset.mask(tag)
    report = evaluate_scores(scores[mask], labels[mask], dataset.y[mask],
                             dataset.n_classes).to_dict()
    report["rounds"] = _round_records(ensemble)
    report["stop_reason"] = ensemble.stop_reason
    report["stop_error"] = ensemble.stop_error
    if model_path:
        with _writing(model_path):
            save_ensemble(ensemble, model_path)
    return ensemble, report


def run_train(cfg: RunConfig) -> TrainOutcome:
    """Load, encode, split, fit, evaluate on the test split, persist."""
    boost_cfg = cfg.boost_config()
    dataset = _prepare_dataset(
        cfg, (TEST, "test split is empty; training evaluates on it"))
    model_path = cfg.model_out or "model.gbe"
    report_path = cfg.report_out or "report.json"
    ensemble, report = _fit(boost_cfg, dataset, TEST, model_path)
    _write_json(report, report_path)
    log.info("test weighted AUROC %.4f over %d rounds; model at %s",
             report["weighted_auroc"], len(ensemble.rounds), model_path)
    return TrainOutcome(model_path, report_path, report, ensemble)


def _score_csv(model_path: str, data_path: str, labeled: bool) -> tuple:
    """Load the model at ``model_path``, read and encode the CSV at
    ``data_path`` with the column kinds it was fitted on, and predict every
    row. A ``labeled`` file must hold the model's label column, with no
    value that training did not see, and may not be empty. Returns the
    ensemble, the codes of the file's labels (None unless ``labeled``) and
    the predicted labels and scores."""
    ensemble = load_ensemble(model_path)
    encoder = ensemble.encoder
    table, labels_text = load_csv(
        data_path, encoder.label_column if labeled else None,
        allow_empty=not labeled, fitted_kinds=encoder.kinds())
    x_new = apply_encoder(table, encoder)
    y = None
    if labeled:
        code = {v: i for i, v in enumerate(encoder.label_values)}
        unknown = sorted(set(labels_text) - set(code))
        if unknown:
            raise DataError(f"labels not seen at training time: {unknown}")
        y = np.array([code[v] for v in labels_text], dtype=np.int64)
    labels, scores = boost.predict_ensemble(ensemble, x_new)
    return ensemble, y, labels, scores


def run_predict(model_path: str, data_path: str, out_path: str) -> int:
    """Write per-row predicted label and class scores; returns row count."""
    ensemble, _, labels, scores = _score_csv(model_path, data_path, False)
    _write_predictions(out_path, ensemble.encoder, labels, scores)
    log.info("wrote %d predictions to %s", len(labels), out_path)
    return len(labels)


def _after_comma(value: str) -> str:
    """``value`` as a CSV cell that follows another in a row, with that
    comma in front, quoted as the ``csv`` module quotes it."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", value])
    return buf.getvalue()[:-2]


def _write_predictions(out_path: str, encoder, labels: np.ndarray,
                       scores: np.ndarray) -> None:
    """The predictions CSV: row number, label value and one score per
    class, each score the ``repr`` of its float.

    Scores are normalised votes, so few rows differ: a T-round, K-class
    ensemble has at most K^T distinct score rows. Each row is keyed by its
    bytes, the label code and the K float64 scores, so that rows that
    print differently (a -0.0 against a 0.0) never share a key, and the
    cells after the row number are made once per key. Lines are streamed,
    so memory grows by one key per row."""
    label_values = encoder.label_values
    n, k = scores.shape
    rows = np.column_stack((labels.astype(np.float64), scores))
    keys = rows.view(np.dtype((np.void, rows.itemsize * (k + 1))))
    keys = keys.ravel().tolist()
    cells = [_after_comma(v) for v in label_values]
    tails = dict(zip(keys, range(n)))  # each key and a row that has it
    at = list(tails.values())
    for key, label, row in zip(tails, labels[at].tolist(),
                               scores[at].tolist()):
        tails[key] = ",".join([cells[label], *map(repr, row)]) + "\r\n"
    with _writing(out_path), \
            open(out_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["row", encoder.label_column]
                                + [f"score_{v}" for v in label_values])
        fh.writelines(f"{i}{tail}" for i, tail in
                      enumerate(map(tails.__getitem__, keys)))


def run_evaluate(model_path: str, data_path: str,
                 out_path: str | None = None) -> dict:
    """Score a labeled file with a saved model."""
    ensemble, y, labels, scores = _score_csv(model_path, data_path, True)
    report = evaluate_scores(scores, labels, y, ensemble.n_classes).to_dict()
    if out_path:
        _write_json(report, out_path)
    return report


def run_sweep(cfg: RunConfig) -> dict:
    """Grid search: select by validation weighted AUROC, then retrain the
    winner on train+val and report test metrics once."""
    points = list(cfg.grid_points())
    if len(points) > cfg.sweep_cap:
        raise DataError(f"sweep grid has {len(points)} points, cap is "
                        f"{cfg.sweep_cap}")
    # Every point's settings are checked before any data is read.
    boost_cfgs = [cfg.with_point(point).boost_config() for point in points]
    dataset = _prepare_dataset(
        cfg, (VAL, "sweep selection needs a validation split"),
        (TEST, "test split is empty; sweep reports on it"))

    results = []
    for i, (point, boost_cfg) in enumerate(zip(points, boost_cfgs), start=1):
        ensemble, report = _fit(boost_cfg, dataset, VAL)
        results.append({"point": point,
                        "val_weighted_auroc": report["weighted_auroc"],
                        "rounds_used": len(ensemble.rounds)})
        log.info("sweep point %d/%d %s -> val weighted AUROC %.4f",
                 i, len(points), point, report["weighted_auroc"])
    # the first of the points with the highest validation AUROC
    best_idx = max(range(len(points)),
                   key=lambda j: results[j]["val_weighted_auroc"])
    best_point = points[best_idx]

    # Retrain on train+val. The weak learners still need an early-stop
    # validation set, so carve a fresh 20% out of the merged rows.
    merged_rows = np.flatnonzero(dataset.mask(TRAIN) | dataset.mask(VAL))
    sub_labels = [str(dataset.y[i]) for i in merged_rows]
    sub_tags = split_rows(merged_rows.size, (0.8, 0.2, 0.0),
                          derive_seed(cfg.seed, "sweep-final"), sub_labels)
    final_split = dataset.split.copy()
    final_split[merged_rows[sub_tags == TRAIN]] = TRAIN
    final_split[merged_rows[sub_tags == VAL]] = VAL
    final_dataset = Dataset(dataset.X, dataset.y, dataset.n_classes,
                            final_split, dataset.encoder)

    # The test rows keep their tag, so the report is on the same rows.
    _, final_report = _fit(boost_cfgs[best_idx], final_dataset, TEST,
                           cfg.model_out)
    outcome = {"points": results, "best": best_point,
               "final_report": final_report}
    if cfg.report_out:
        _write_json(outcome, cfg.report_out)
    log.info("sweep best %s -> test weighted AUROC %.4f", best_point,
             final_report["weighted_auroc"])
    return outcome
