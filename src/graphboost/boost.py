"""SAMME-style multi-class boosting over candidate similarity graphs.

Each round trains one APPNP weak classifier per candidate graph under the
current sample weights, keeps the one with the smallest weighted train
error, weights it by

    alpha = eta * (0.5 * log((1 - err) / err) + log(K - 1)),

then multiplies the weights of misclassified train rows by exp(alpha) and
renormalizes. The loop stops early when the newest weak error or the
running ensemble error rate reaches (K - 1) / K.

Every candidate of a round trains under the same seed, so the learners
share their initial weights and dropout masks; ``appnp.train_candidates``
trains them in blocks of stacked weights, each bit-equal to a one-graph
run, on up to ``workers`` threads. ``run_round`` drops repeated
(feature, gamma) candidates, which come from tied quantiles or an expert
edge equal to a quantile, so each distinct graph trains once per round.
A candidate's weighted train error, and the round's predictions, come
from the labels that its training pass gave every row at the learner's
best-validation epoch; no candidate is labelled again after training.
Prediction labels rounds in groups, made once when the ensemble is made,
fitted or loaded, and only there: one group per distinct
(feature, gamma, teleport, prop_steps, hidden width), the rounds that can
share one graph, one propagation and one stack of head weights. A fit
varies only the seed between rounds, so its groups are its distinct
(feature, gamma) graphs. Each group's graph is built over the stored rows,
one sort per feature shared by its graphs (``graph.graphs_of``, as for the
candidates of a fit). Each group is one ``appnp.StoredRun``, which owns
that graph, its rounds' stacked head weights, their K - 1 head
differences over the stored rows and, once a call needs them, their
propagation on the stored graph alone, kept as that run's k prefix sums
(k x C(K - 1) x (N + 1) floats), and the stored rows' labels from it; none
of these is saved. A prediction makes one ``new_labels`` call per group.
It runs the group's MLP heads on the new rows alone, one stacked product
per layer, as in APPNP's "predict, then propagate", where a row's head
does not depend on the graph, merges the new rows into the group's graph
only on their dependency cone for the group's k, and propagates the group
there for those k steps, seeded from its prefix sums, with the bits of a
run over all rows. ``transductive_scores`` reads the stored rows' labels.
"""

import logging
from dataclasses import dataclass, field, replace
import math

import numpy as np

from .appnp import (AppnpConfig, AppnpModel, StoredRun, TrainReport,
                    train_candidates)
# Unused here; kept only because perfbench/tracing.py wraps
# boost.train_weak. Goes when the tracer wraps train_candidates instead
# (ROADMAP item 1).
from .appnp import train_weak  # noqa: F401
from .data import Dataset, EncodingMeta, TRAIN, VAL
from .errors import DataError, NoWeakLearnability, TrainingDiverged
# Unused here; kept only because perfbench/tracing.py wraps
# boost.build_adjacency. Every build goes through graph.build_adjacency,
# which the tracer wraps too.
from .graph import build_adjacency  # noqa: F401
from .graph import enumerate_candidates, graphs_of
from .rng import derive_seed

log = logging.getLogger("graphboost.boost")

# Candidates listed per round by --verbose.
LEADERBOARD = 5


@dataclass(frozen=True)
class BoostConfig:
    n_rounds: int = 10
    learning_rate: float = 1.0  # shrinkage on alpha
    weak: AppnpConfig = field(default_factory=AppnpConfig)
    expert_edges: tuple = ()  # (feature name or index, raw threshold)
    # threads enumerating the candidate graphs and training their blocks;
    # 0 and 1 work in the calling thread. The fitted model is the same
    # bits at any value.
    workers: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n_rounds < 1:
            raise DataError("need at least one boosting round")
        if not 0.0 < self.learning_rate <= 1.0:
            raise DataError("boost learning rate must be in (0, 1]")
        if self.workers < 0:
            raise DataError("workers must be >= 0")


@dataclass(frozen=True)
class WeakRound:
    feature: int
    feature_name: str
    gamma: float
    model: AppnpModel
    alpha: float
    error: float
    expert: bool = False


@dataclass
class CandidateResult:
    feature: int
    gamma: float
    expert: bool
    error: float | None  # weighted train error; None if training diverged
    report: TrainReport | None


@dataclass(frozen=True)
class Ensemble:
    rounds: tuple
    n_classes: int
    encoder: EncodingMeta
    feature_names: list[str]
    train_x: np.ndarray  # encoded rows seen at fit time, for the graphs
    stop_reason: str | None = None
    stop_error: float | None = None
    # One (round indices, StoredRun) per distinct (feature, gamma,
    # teleport, prop_steps, hidden width), in the order of their first
    # rounds: the read-only run of the group's rounds on their graph over
    # train_x, which shares its feature's sorted column with the other
    # graphs on it. Made here and never saved.
    groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.rounds:
            raise DataError("empty ensemble")
        object.__setattr__(self, "rounds", tuple(self.rounds))
        graph = graphs_of(self.train_x)
        by_key: dict = {}
        for t, r in enumerate(self.rounds):
            cfg = r.model.config
            by_key.setdefault((r.feature, r.gamma, cfg.teleport,
                               cfg.prop_steps, r.model.b1.size), []).append(t)
        groups = []
        for (feature, gamma, *_), ts in by_key.items():
            groups.append((tuple(ts), StoredRun(
                [self.rounds[t].model for t in ts], self.train_x,
                graph(feature, gamma))))
        object.__setattr__(self, "groups", tuple(groups))


def weighted_error(predictions: np.ndarray, y: np.ndarray, w: np.ndarray,
                   mask: np.ndarray) -> float:
    """Sum of weights over masked rows where prediction != label."""
    mask = np.asarray(mask, dtype=bool)
    return float(np.sum(w[mask] * (predictions[mask] != y[mask])))


def compute_alpha(err: float, n_classes: int, learning_rate: float = 1.0) -> float:
    """Learner weight; err is clamped away from 0 and 1 first."""
    if n_classes < 2:
        raise DataError("need at least 2 classes")
    e = min(max(err, 1e-10), 1.0 - 1e-10)
    return learning_rate * (0.5 * math.log((1.0 - e) / e)
                            + math.log(n_classes - 1))


def update_weights(w: np.ndarray, predictions: np.ndarray, y: np.ndarray,
                   alpha: float, mask: np.ndarray) -> np.ndarray:
    """Multiply misclassified masked rows by exp(alpha), then renormalize
    the masked weights to sum 1. Rows outside the mask are untouched."""
    if not math.isfinite(alpha):
        raise DataError("alpha must be finite")
    mask = np.asarray(mask, dtype=bool)
    out = w.copy()
    wrong = mask & (predictions != y)
    out[wrong] *= math.exp(alpha)
    total = out[mask].sum()
    if not total > 0.0:
        raise DataError("masked sample weights sum to zero")
    out[mask] /= total
    return out


def _log_leaderboard(t: int, board: list, names: list[str] | None) -> None:
    if not log.isEnabledFor(logging.DEBUG):
        return
    lines = []
    for rank, c in enumerate(board[:LEADERBOARD], start=1):
        name = names[c.feature] if names else str(c.feature)
        if c.report is None:
            lines.append(f"  {rank}. feature {c.feature} ({name}) "
                         f"gamma={c.gamma:.6g} diverged")
            continue
        status = "early stop" if c.report.early_stopped else "max epochs"
        lines.append(f"  {rank}. feature {c.feature} ({name}) "
                     f"gamma={c.gamma:.6g}{' [expert]' if c.expert else ''} "
                     f"err={c.error:.4f} val={c.report.best_val_error:.4f} "
                     f"epochs={c.report.epochs_run} ({status})")
    log.debug("round %d leaderboard, top %d of %d:\n%s", t, len(lines),
              len(board), "\n".join(lines))


def run_round(weights: np.ndarray, candidates: list, x: np.ndarray,
              y: np.ndarray, train_mask: np.ndarray, val_mask: np.ndarray,
              n_classes: int, weak_config: AppnpConfig,
              feature_names: list[str] | None = None,
              boost_lr: float = 1.0, workers: int = 0,
              t: int = 1) -> tuple[WeakRound, np.ndarray]:
    """Train a weak learner on every distinct candidate under the sample
    ``weights``, on up to ``workers`` threads, and return round ``t`` built
    from the lowest-weighted-error one (ties: lower feature index, then
    smaller gamma), plus its transductive predictions. Each candidate's
    error and predictions are the labels of all rows that
    ``train_candidates`` returns with it, from the validation forward pass
    of its best epoch.

    Equal (feature, gamma) means an equal graph, and every candidate of a
    round trains under the same seed, so a repeat would give the same
    learner and error. Only one of them trains: the non-expert one if there
    is one, else the first.
    """
    if not candidates:
        raise DataError("no candidate graphs")
    distinct: dict = {}
    for cand in sorted(candidates, key=lambda c: c.expert):
        distinct.setdefault((cand.feature, cand.gamma), cand)
    candidates = list(distinct.values())

    # Validation rows get uniform weights: boosting weights live on the
    # train rows only.
    w_eval = weights.copy()
    val_mask = np.asarray(val_mask, dtype=bool)
    w_eval[val_mask] = 1.0 / val_mask.sum()

    outcomes = train_candidates(weak_config, x,
                                [c.adjacency for c in candidates], y, w_eval,
                                train_mask, val_mask, n_classes=n_classes,
                                workers=workers)
    scored, diverged = [], []
    for cand, outcome in zip(candidates, outcomes):
        if isinstance(outcome, TrainingDiverged):
            log.warning("candidate on feature %d (gamma=%g) diverged: %s",
                        cand.feature, cand.gamma, outcome)
            diverged.append(CandidateResult(cand.feature, cand.gamma,
                                            cand.expert, None, None))
            continue
        model, report, labels = outcome
        err = weighted_error(labels, y, w_eval, train_mask)
        scored.append((CandidateResult(cand.feature, cand.gamma, cand.expert,
                                       err, report), model, labels))
    if not scored:
        raise DataError("all candidates diverged")
    # Without repeats, (error, feature, gamma) orders the candidates totally.
    scored.sort(key=lambda s: (s[0].error, s[0].feature, s[0].gamma))
    _log_leaderboard(t, [s[0] for s in scored] + diverged, feature_names)

    best, model, labels = scored[0]
    alpha = compute_alpha(best.error, n_classes, boost_lr)
    name = (feature_names[best.feature] if feature_names
            else str(best.feature))
    round_ = WeakRound(best.feature, name, best.gamma, model, alpha,
                       best.error, best.expert)
    return round_, labels.astype(np.int64)


def fit(config: BoostConfig, dataset: Dataset) -> Ensemble:
    """Run the full boosting loop on an encoded dataset.

    Stops early when the newest weak error reaches (K-1)/K (that round is
    discarded) or the running ensemble train error rate does (that round is
    kept). Raises NoWeakLearnability if the first round already fails.
    """
    x, y, k = dataset.X, dataset.y, dataset.n_classes
    train_mask = dataset.mask(TRAIN)
    val_mask = dataset.mask(VAL)
    if not train_mask.any():
        raise DataError("train split is empty")
    if not val_mask.any():
        raise DataError("validation split is empty (weak learners early-stop "
                        "on it)")

    names = dataset.encoder.feature_names()
    scales = dataset.encoder.feature_scales()
    candidates = enumerate_candidates(x, config.expert_edges, names, scales,
                                      seed=derive_seed(config.seed, "graphs"),
                                      workers=config.workers)
    weights = np.zeros(len(y), dtype=np.float64)
    weights[train_mask] = 1.0 / train_mask.sum()

    gate = (k - 1) / k
    rounds: list[WeakRound] = []
    votes = np.zeros((len(y), k), dtype=np.float64)
    stop_reason = None
    stop_error = None
    for t in range(1, config.n_rounds + 1):
        weak_cfg = replace(config.weak,
                           seed=derive_seed(config.seed, "weak", t))
        round_, labels = run_round(weights, candidates, x, y, train_mask,
                                   val_mask, k, weak_cfg, names,
                                   config.learning_rate, config.workers, t)
        if round_.error >= gate:
            if not rounds:
                raise NoWeakLearnability(
                    f"first round weak error {round_.error:.4f} >= "
                    f"{gate:.4f}", error=round_.error)
            stop_reason = "weak_error"
            stop_error = round_.error
            log.info("round %d discarded: weak error %.4f >= %.4f",
                     t, round_.error, gate)
            break

        rounds.append(round_)
        log.info("round %d: feature %d (%s) gamma=%.6g err=%.4f alpha=%.4f%s",
                 t, round_.feature, round_.feature_name, round_.gamma,
                 round_.error, round_.alpha,
                 " [expert]" if round_.expert else "")
        votes[np.arange(len(y)), labels] += round_.alpha
        weights = update_weights(weights, labels, y, round_.alpha,
                                 train_mask)
        ens_err = float(np.mean(
            np.argmax(votes[train_mask], axis=1) != y[train_mask]))
        if ens_err >= gate:
            stop_reason = "ensemble_error"
            stop_error = round_.error
            log.info("round %d kept, stopping: ensemble train error "
                     "%.4f >= %.4f", t, ens_err, gate)
            break

    return Ensemble(rounds, k, dataset.encoder, names, x.copy(),
                    stop_reason, stop_error)


def _vote_scores(ensemble: Ensemble,
                 group_labels: list) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble labels and normalized vote scores of n rows from the labels
    that each of ``ensemble.groups`` gives them (C x n per group of C
    rounds). Votes are added in round order, so the sums equal a
    round-by-round loop bit for bit."""
    n = group_labels[0].shape[1]
    round_labels = np.empty((len(ensemble.rounds), n), dtype=np.int64)
    for (ts, _), labels in zip(ensemble.groups, group_labels):
        round_labels[list(ts)] = labels
    votes = np.zeros((n, ensemble.n_classes), dtype=np.float64)
    rows = np.arange(n)
    for round_, labels in zip(ensemble.rounds, round_labels):
        votes[rows, labels] += round_.alpha
    labels = votes.argmax(axis=1)
    return labels, votes / votes.sum(axis=1, keepdims=True)


def transductive_scores(ensemble: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble labels and normalized vote scores for the rows seen at fit
    time, using graphs over those rows alone: each group's ``StoredRun``
    labels."""
    return _vote_scores(ensemble, [run.labels for _, run in ensemble.groups])


def predict_ensemble(ensemble: Ensemble,
                     new_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transductive prediction for new rows.

    Every round's graph spans the stored fit-time rows plus the new rows,
    so new samples propagate from the cohort the model was trained on. The
    new rows join the graphs together and link to each other too, so a
    row's scores depend on the other rows of ``new_x``; a single row is
    scored against the stored rows alone. Each of ``ensemble.groups``
    labels them with one ``StoredRun.new_labels`` call. Returns hard labels
    and vote scores normalized to sum 1 per row.
    """
    new_x = np.asarray(new_x, dtype=np.float64)
    if new_x.ndim != 2 or new_x.shape[1] != ensemble.train_x.shape[1]:
        raise DataError("new rows have the wrong number of features")
    if not np.isfinite(new_x).all():
        raise DataError("non-finite feature values")
    n_new = new_x.shape[0]
    if n_new == 0:
        return (np.zeros(0, dtype=np.int64),
                np.zeros((0, ensemble.n_classes), dtype=np.float64))
    return _vote_scores(ensemble, [run.new_labels(new_x)
                                   for _, run in ensemble.groups])
