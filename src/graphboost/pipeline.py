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


def _prepare_dataset(cfg: RunConfig):
    if cfg.data is None:
        raise DataError("no data path configured")
    table, labels = load_csv(cfg.data, cfg.label, cfg.schema_hints())
    split_seed = cfg.split_seed if cfg.split_seed is not None \
        else derive_seed(cfg.seed, "split")
    tags = split_rows(table.n_rows, cfg.split_fractions, split_seed, labels)
    dataset, _ = fit_encoder(table, labels, tags, label_column=cfg.label)
    return dataset


def _split_report(ensemble, dataset: Dataset, mask: np.ndarray):
    """``evaluate_scores`` of the ensemble's transductive labels and scores
    on the rows of ``mask``."""
    labels, scores = boost.transductive_scores(ensemble)
    return evaluate_scores(scores[mask], labels[mask], dataset.y[mask],
                           dataset.n_classes)


def run_train(cfg: RunConfig) -> TrainOutcome:
    """Load, encode, split, fit, evaluate on the test split, persist."""
    boost_cfg = cfg.boost_config()
    dataset = _prepare_dataset(cfg)
    test_mask = dataset.mask(TEST)
    if not test_mask.any():
        raise DataError("test split is empty; training evaluates on it")

    ensemble = boost.fit(boost_cfg, dataset)
    report = _split_report(ensemble, dataset, test_mask).to_dict()
    report["rounds"] = _round_records(ensemble)
    report["stop_reason"] = ensemble.stop_reason
    report["stop_error"] = ensemble.stop_error

    model_path = cfg.model_out or "model.gbe"
    report_path = cfg.report_out or "report.json"
    with _writing(model_path):
        save_ensemble(ensemble, model_path)
    _write_json(report, report_path)
    log.info("test weighted AUROC %.4f over %d rounds; model at %s",
             report["weighted_auroc"], len(ensemble.rounds), model_path)
    return TrainOutcome(model_path, report_path, report, ensemble)


def run_predict(model_path: str, data_path: str, out_path: str) -> int:
    """Write per-row predicted label and class scores; returns row count."""
    ensemble = load_ensemble(model_path)
    table, _ = load_csv(data_path, label_column=None, allow_empty=True,
                        fitted_kinds=ensemble.encoder.kinds())
    x_new = apply_encoder(table, ensemble.encoder)
    labels, scores = boost.predict_ensemble(ensemble, x_new)
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
    ensemble = load_ensemble(model_path)
    label_column = ensemble.encoder.label_column
    table, labels_text = load_csv(data_path, label_column,
                                  fitted_kinds=ensemble.encoder.kinds())
    x_new = apply_encoder(table, ensemble.encoder)
    code = {v: i for i, v in enumerate(ensemble.encoder.label_values)}
    unknown = sorted(set(labels_text) - set(code))
    if unknown:
        raise DataError(f"labels not seen at training time: {unknown}")
    y = np.array([code[v] for v in labels_text], dtype=np.int64)
    labels, scores = boost.predict_ensemble(ensemble, x_new)
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
    dataset = _prepare_dataset(cfg)
    val_mask = dataset.mask(VAL)
    if not val_mask.any():
        raise DataError("sweep selection needs a validation split")

    results = []
    best_idx = None
    for i, (point, boost_cfg) in enumerate(zip(points, boost_cfgs)):
        ensemble = boost.fit(boost_cfg, dataset)
        val_report = _split_report(ensemble, dataset, val_mask)
        results.append({"point": point,
                        "val_weighted_auroc": val_report.weighted_auroc,
                        "rounds_used": len(ensemble.rounds)})
        log.info("sweep point %d/%d %s -> val weighted AUROC %.4f",
                 i + 1, len(points), point, val_report.weighted_auroc)
        if best_idx is None or val_report.weighted_auroc > \
                results[best_idx]["val_weighted_auroc"]:
            best_idx = i

    best_point = points[best_idx]

    # Retrain on train+val. The weak learners still need an early-stop
    # validation set, so carve a fresh 20% out of the merged rows.
    merged = dataset.mask(TRAIN) | val_mask
    merged_rows = np.flatnonzero(merged)
    sub_labels = [str(dataset.y[i]) for i in merged_rows]
    sub_tags = split_rows(merged_rows.size, (0.8, 0.2, 0.0),
                          derive_seed(cfg.seed, "sweep-final"), sub_labels)
    final_split = dataset.split.copy()
    final_split[merged_rows[sub_tags == TRAIN]] = TRAIN
    final_split[merged_rows[sub_tags == VAL]] = VAL
    final_dataset = Dataset(dataset.X, dataset.y, dataset.n_classes,
                            final_split, dataset.encoder)

    ensemble = boost.fit(boost_cfgs[best_idx], final_dataset)
    test_mask = dataset.mask(TEST)
    if not test_mask.any():
        raise DataError("test split is empty; sweep reports on it")
    final_report = _split_report(ensemble, dataset, test_mask).to_dict()
    final_report["rounds"] = _round_records(ensemble)

    outcome = {"points": results, "best": best_point,
               "final_report": final_report}
    if cfg.model_out:
        with _writing(cfg.model_out):
            save_ensemble(ensemble, cfg.model_out)
    if cfg.report_out:
        _write_json(outcome, cfg.report_out)
    log.info("sweep best %s -> test weighted AUROC %.4f", best_point,
             final_report["weighted_auroc"])
    return outcome
