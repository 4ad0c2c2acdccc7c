"""The three workloads: set-up, one operation round, and output checks.

An operation round is the unit a run repeats. In ``fit-*`` it is one
``graphboost train`` (``pipeline.run_train``) followed by single-row
``predict_ensemble`` calls on the fitted model; in ``predict`` it is one
``graphboost predict`` of a batch CSV (``pipeline.run_predict``) followed
by single-row calls on the loaded model. Every operation is attempted in
every round, so the failed share does not depend on run length or seed.
"""

import csv
import itertools
import os
import subprocess
import sys
import time

import numpy as np

import cohorts
import oracle
from graphboost import boost, data, model_io, pipeline
from graphboost.config import load_config

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CHECKED_SINGLES = 5  # single-row calls replayed through the oracle per run
EXACT = 1e-12


class CheckFailed(Exception):
    """An output disagrees with the oracle or with a property of the method."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _labels_and_masks(labels: list, seed: int) -> tuple:
    """Class codes and train/test masks exactly as ``graphboost train``
    assigns them from the config's ``split_seed``."""
    values = sorted(set(labels))
    y = np.array([values.index(v) for v in labels])
    tags = data.split_rows(len(labels), cohorts.SPLIT,
                           cohorts.split_seed(seed), labels)
    return y, tags == data.TRAIN, tags == data.TEST


def _check_samme(ensemble, y, train, shrinkage) -> None:
    rounds = oracle.ensemble_rounds(ensemble)
    labels = []
    for r in rounds:
        lab, tie = oracle.round_labels(ensemble.train_x, r)
        _expect(not np.any(tie & train), "near-tie logits on a train row")
        labels.append(lab)
    replay = oracle.samme_replay(labels, y, train, ensemble.n_classes,
                                 shrinkage)
    for t, (r, (err, alpha)) in enumerate(zip(rounds, replay), start=1):
        _expect(abs(r["error"] - err) <= 1e-9,
                f"round {t} weighted error {r['error']!r} != replay {err!r}")
        _expect(abs(r["alpha"] - alpha) <= 1e-9,
                f"round {t} alpha {r['alpha']!r} != replay {alpha!r}")


def _check_scores(labels, scores, want, ties) -> None:
    """Rows sum to 1, each label is the argmax, and non-tie rows match the
    oracle's scores."""
    _expect(np.all(np.abs(scores.sum(axis=1) - 1.0) <= EXACT),
            "a score row does not sum to 1")
    _expect(np.array_equal(labels, np.argmax(scores, axis=1)),
            "a label is not the argmax of its scores")
    diff = np.abs(scores - want)[~ties]
    _expect(diff.size == 0 or diff.max() <= EXACT,
            f"scores differ from the dense oracle by {diff.max():.3g}")


def _check_singles(ensemble, header, rows, x_new, calls, rng) -> None:
    encoder = ensemble.encoder.to_dict()
    _expect(np.array_equal(oracle.encode(header, rows, encoder), x_new),
            "encoded new rows differ from the oracle's encoding")
    rounds = oracle.ensemble_rounds(ensemble)
    for i in rng.choice(len(calls), size=CHECKED_SINGLES, replace=False):
        row, labels, scores = calls[i]
        x_all = np.vstack([ensemble.train_x, x_new[row:row + 1]])
        want, ties = oracle.predict(x_all, rounds, ensemble.n_classes,
                                    ensemble.train_x.shape[0])
        _check_scores(labels, scores, want, ties)


def _check_resave(model_path: str, resave_path: str) -> None:
    model_io.save_ensemble(model_io.load_ensemble(model_path), resave_path)
    with open(model_path, "rb") as a, open(resave_path, "rb") as b:
        _expect(a.read() == b.read(),
                "a loaded .gbe does not re-save byte for byte")


def _single_calls(ensemble, x_new, order) -> tuple[list, list]:
    """One timed ``predict_ensemble`` call per row index in ``order``."""
    latencies, calls = [], []
    for row in order:
        start = time.perf_counter()
        labels, scores = boost.predict_ensemble(ensemble, x_new[row:row + 1])
        latencies.append(time.perf_counter() - start)
        calls.append((row, labels, scores))
    return latencies, calls


class FitWorkload:
    """``graphboost train`` on the fixed cohort, then 200 single-row calls
    on the fitted model for new rows drawn from the run seed."""

    # The machine's speed swings by up to 2x in phases lasting seconds. 200
    # calls of about 60 ms span 12 s of them, which steadies p50 and p90.
    singles = 200
    min_rounds = 1
    # A set-up takes about 40 ms, inside one phase, so it is also timed
    # between blocks of single-row calls and after the measure phase.
    # Every set-up writes the same files.
    setups_before = 3
    setups_after = 3
    singles_per_setup = 40

    def __init__(self, seed: int, workdir: str, mixed: bool, workers: int):
        self.seed, self.mixed, self.workers = seed, mixed, workers
        self.paths = cohorts.paths(workdir)

    def _rows(self, n: int, seed: int):
        if self.mixed:
            return cohorts.mixed_rows(n, seed)
        return cohorts.continuous_rows(n, cohorts.N_FEATURES, seed)

    def prepare(self, rng) -> None:
        """Nothing to load: each round trains its own model."""

    def setup(self) -> None:
        p = self.paths
        header, rows, self.labels = self._rows(cohorts.N_COHORT,
                                               cohorts.FIT_COHORT_SEED)
        cohorts.write_csv(p["cohort"], header, rows, self.labels)
        cohorts.write_config(
            p["config"], p["cohort"], cohorts.FIT_COHORT_SEED,
            cohorts.FIT_LEARNER, cohorts.FIT_ROUNDS, self.workers,
            cohorts.EXPERT_EDGE if self.mixed else None, p["model"],
            p["report"])
        self.new_header, self.new_rows, _ = self._rows(
            self.singles, cohorts.sub_seed(self.seed, "new"))
        cohorts.write_csv(p["new_rows"], self.new_header, self.new_rows)

    def run_round(self, tracer=None) -> dict:
        start = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            outcome = pipeline.run_train(load_config(self.paths["config"]))
        finally:
            if tracer is not None:
                tracer.uninstall()
        command_s = time.perf_counter() - start
        table, _ = data.load_csv(self.paths["new_rows"], None)
        x_new = data.apply_encoder(table, outcome.ensemble.encoder)
        latencies, calls, setup_times = [], [], []
        for first in range(0, self.singles, self.singles_per_setup):
            block = range(first, first + self.singles_per_setup)
            block_latencies, block_calls = _single_calls(outcome.ensemble,
                                                         x_new, block)
            latencies += block_latencies
            calls += block_calls
            start = time.perf_counter()
            self.setup()
            setup_times.append(time.perf_counter() - start)
        self.last = (outcome, x_new, calls)
        return {"command_s": command_s, "latencies": latencies,
                "test_auroc": outcome.report["weighted_auroc"],
                "setup_times": setup_times}

    def check(self, rng) -> None:
        outcome, x_new, calls = self.last
        ensemble = outcome.ensemble
        y, train, test = _labels_and_masks(self.labels,
                                           cohorts.FIT_COHORT_SEED)
        _check_samme(ensemble, y, train, cohorts.FIT_SHRINKAGE)
        scores, ties = oracle.predict(ensemble.train_x,
                                      oracle.ensemble_rounds(ensemble),
                                      ensemble.n_classes, 0)
        _expect(not np.any(ties[test]), "near-tie logits on a test row")
        auroc = oracle.pair_auroc(scores[test], y[test])
        _expect(abs(auroc - outcome.report["weighted_auroc"]) <= EXACT,
                f"reported AUROC {outcome.report['weighted_auroc']!r} != "
                f"pair count {auroc!r}")
        _expect(ensemble.rounds[0].feature_name == "edge",
                f"round 1 chose {ensemble.rounds[0].feature_name!r}, not the "
                "planted edge column")
        _check_resave(self.paths["model"], self.paths["resave"])
        _check_singles(ensemble, self.new_header, self.new_rows, x_new, calls,
                       rng)

    def ops_per_round(self) -> int:
        return 1 + self.singles


class PredictWorkload:
    """``graphboost predict`` of a batch of new rows against a deployed
    model, then 10 single-row calls on the loaded model."""

    batch = 2000
    singles = 10
    # A batch takes about 1 s, short against the machine's speed swings, so
    # a run takes the median of at least 10; it also makes 100 single calls.
    min_rounds = 10
    setups_before = 3  # each trains the deployed model, about 7 s
    setups_after = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.paths = cohorts.paths(workdir)

    def setup(self) -> None:
        p = self.paths
        header, rows, self.labels, self.new_rows, self.new_labels = \
            cohorts.predict_rows(self.batch, self.seed)
        self.new_header = header
        cohorts.write_csv(p["cohort"], header, rows, self.labels)
        cohorts.write_config(
            p["config"], p["cohort"], cohorts.PREDICT_COHORT_SEED,
            cohorts.PREDICT_LEARNER, cohorts.PREDICT_ROUNDS, 0, None,
            p["model"], p["report"])
        cohorts.write_csv(p["new_rows"], self.new_header, self.new_rows)
        env = dict(os.environ, PYTHONPATH=SRC)
        subprocess.run([sys.executable, "-m", "graphboost.cli", "train",
                        "--config", p["config"]], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def prepare(self, rng) -> None:
        """Load the model and encode the new rows once, outside the timing."""
        self.ensemble = model_io.load_ensemble(self.paths["model"])
        table, _ = data.load_csv(self.paths["new_rows"], None)
        self.x_new = data.apply_encoder(table, self.ensemble.encoder)
        self.order = itertools.cycle(rng.permutation(self.batch).tolist())
        self.calls = []

    def run_round(self, tracer=None) -> dict:
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            pipeline.run_predict(self.paths["model"], self.paths["new_rows"],
                                 self.paths["preds"])
            command_s = time.perf_counter() - start
            rows = [next(self.order) for _ in range(self.singles)]
            latencies, calls = _single_calls(self.ensemble, self.x_new, rows)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.calls += calls
        return {"command_s": command_s, "latencies": latencies}

    def _read_predictions(self):
        with open(self.paths["preds"], newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        values = self.ensemble.encoder.label_values
        _expect(header == ["row", "label"] + [f"score_{v}" for v in values],
                f"unexpected prediction header {header}")
        labels = np.array([values.index(r[1]) for r in rows])
        scores = np.array([[float(s) for s in r[2:]] for r in rows])
        return labels, scores

    def check(self, rng) -> float:
        """Check outputs; return the batch's pair-count AUROC."""
        ensemble = self.ensemble
        labels, scores = self._read_predictions()
        _expect(labels.size == self.batch, "prediction row count")
        x_new = oracle.encode(self.new_header, self.new_rows,
                              ensemble.encoder.to_dict())
        want, ties = oracle.predict(np.vstack([ensemble.train_x, x_new]),
                                    oracle.ensemble_rounds(ensemble),
                                    ensemble.n_classes,
                                    ensemble.train_x.shape[0])
        _check_scores(labels, scores, want, ties)
        _check_singles(ensemble, self.new_header, self.new_rows, self.x_new,
                       self.calls, rng)
        y, train, _ = _labels_and_masks(self.labels,
                                        cohorts.PREDICT_COHORT_SEED)
        _check_samme(ensemble, y, train, cohorts.FIT_SHRINKAGE)
        _check_resave(self.paths["model"], self.paths["resave"])
        values = ensemble.encoder.label_values
        y_new = np.array([values.index(v) for v in self.new_labels])
        return oracle.pair_auroc(scores, y_new)

    def ops_per_round(self) -> int:
        return 1 + self.singles
