"""Benchmark inputs: cohorts, new rows and run configs, all made from a seed.

Cohorts come from ``graphboost.data.gen_synthetic``; the mixed cohort then
recodes its Gaussian columns into clinical-style columns. Files are written
by this module, not by the program, so set-up does not depend on the
program's CSV writer.
"""

import csv
import os

import numpy as np

from graphboost.data import gen_synthetic

N_COHORT = 2000
N_FEATURES = 10
N_CLASSES = 2
RHO = 0.9
NA_RATE = 0.05

# Both fit workloads train on one fixed cohort (criterion 08's first seed),
# so that every run does the same fit and ends with the same model: the
# latency of single-row calls depends on the density of the graph that the
# fitted round chose, which differs from one cohort seed to the next. The
# run seed picks the rows of those calls.
FIT_COHORT_SEED = 0

# The predict workload scores against one fixed deployed model, so that the
# rounds it replays (and their graph densities) are the same in every run.
# The stored cohort and a pool of new rows come from one generator draw, so
# that the new rows follow the same planted relation; the run seed picks
# and orders the batch drawn from the pool.
PREDICT_COHORT_SEED = 2311
PREDICT_FEATURES = 4
PREDICT_POOL = 4000

# Cut points on the N(0, 1) / N(0.5, 1) mixture of the generator's Gaussian
# columns. NARROW gives 4 levels whose tie mass P(d = 0) is about 0.28, so
# all three quantile thresholds are 0. WIDE gives 16 levels with P(d = 0)
# about 0.10 and P(|d| <= 1) about 0.28, so the thresholds are (0, 1, 1).
# CATEGORY gives levels of about 0.5 / 0.3 / 0.2 with P(d = 0) about 0.36,
# so every threshold is 0 whatever codes the encoder assigns. Each margin
# to the nearest quantile is many times the seed-to-seed spread, so this
# tie structure does not hinge on the seed.
NARROW_CUTS = (-0.3, 0.6, 1.5)
WIDE_CUTS = tuple(np.arange(-2.1, 3.0, 0.35))
CATEGORY_CUTS = (0.25, 1.1)
CATEGORY_NAMES = ("low", "mid", "high")
MIXED_KINDS = ("narrow",) * 3 + ("wide",) * 3 + ("category",) * 3
EXPERT_EDGE = ("edge", 0.06)

# The cost shape of criterion 08's weak learner (width 16, 3 steps, 20
# epochs, never stopping early) with dropout 0.1 and learning rate 0.05.
# Criterion 08's own learner (dropout 0.5, rate 0.005) is high-variance on
# purpose: in round 1 it missed the planted column on continuous seed 3 and
# on mixed seeds 0, 3 and 4. This one found it with a wide margin on every
# seed tried (0 to 4 of both cohorts).
FIT_LEARNER = dict(hidden_dim=16, prop_steps=3, teleport=0.1, dropout=0.1,
                   weak_learning_rate=0.05, weight_decay=0.0001,
                   max_epochs=20, patience=20)
FIT_SHRINKAGE = 0.5
FIT_ROUNDS = 1
# Prediction cost does not depend on epochs, so the deployed model is
# trained with a short, cheap learner.
PREDICT_LEARNER = dict(hidden_dim=8, prop_steps=3, teleport=0.1, dropout=0.0,
                       weak_learning_rate=0.05, weight_decay=0.0001,
                       max_epochs=5, patience=5)
PREDICT_ROUNDS = 3
SPLIT = (0.7, 0.15, 0.15)


def sub_seed(seed: int, tag: str) -> int:
    """Independent integer seed for the input named ``tag``."""
    entropy = [seed] + [ord(c) for c in tag]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _numeric_table(n: int, m: int, seed: int):
    """Header, float columns and label strings of a synthetic cohort."""
    table, labels = gen_synthetic(n, m, N_CLASSES, RHO, seed)
    return ([c.name for c in table.columns],
            [c.numeric for c in table.columns], labels)


def continuous_rows(n: int, m: int, seed: int):
    """(header, rows of cells, labels): every column a float."""
    header, cols, labels = _numeric_table(n, m, seed)
    rows = [[repr(float(c[i])) for c in cols] for i in range(n)]
    return header, rows, labels


def predict_rows(batch: int, seed: int):
    """(header, stored rows, their labels, batch rows, their labels)."""
    header, rows, labels = continuous_rows(
        N_COHORT + PREDICT_POOL, PREDICT_FEATURES, PREDICT_COHORT_SEED)
    pick = N_COHORT + np.random.default_rng(sub_seed(seed, "batch")).choice(
        PREDICT_POOL, size=batch, replace=False)
    return (header, rows[:N_COHORT], labels[:N_COHORT],
            [rows[i] for i in pick], [labels[i] for i in pick])


def mixed_rows(n: int, seed: int):
    """(header, rows of cells, labels) of the clinical-style cohort.

    The planted ``edge`` column stays continuous and complete. The nine
    Gaussian columns become integer scores (narrow, wide) or three-level
    text categories, and each of their cells is ``NA`` with probability
    NA_RATE.
    """
    header, cols, labels = _numeric_table(n, N_FEATURES, seed)
    na = np.random.default_rng(sub_seed(seed, "na")).random((n, len(cols)))
    out_header, out_cols = [], []
    kinds = iter(MIXED_KINDS)
    counters = {"narrow": 0, "wide": 0, "category": 0}
    for name, col in zip(header, cols):
        if name == "edge":
            out_header.append(name)
            out_cols.append([repr(float(v)) for v in col])
            continue
        kind = next(kinds)
        counters[kind] += 1
        out_header.append(f"{kind}_{counters[kind]}")
        if kind == "category":
            codes = np.digitize(col, CATEGORY_CUTS)
            cells = [CATEGORY_NAMES[c] for c in codes]
        else:
            cuts = NARROW_CUTS if kind == "narrow" else WIDE_CUTS
            cells = [str(int(c)) for c in np.digitize(col, cuts)]
        j = len(out_cols)
        out_cols.append(["NA" if na[i, j] < NA_RATE else cells[i]
                         for i in range(n)])
    rows = [[c[i] for c in out_cols] for i in range(n)]
    return out_header, rows, labels


def write_csv(path: str, header: list, rows: list,
              labels: list | None = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + (["label"] if labels is not None else []))
        for i, row in enumerate(rows):
            writer.writerow(row + ([labels[i]] if labels is not None else []))


def write_config(path: str, data: str, seed: int, learner: dict,
                 rounds: int, workers: int, expert: tuple | None,
                 model_out: str, report_out: str) -> None:
    lines = [f"data = {data}", "label = label",
             "split_fractions = " + ", ".join(map(str, SPLIT)),
             f"split_seed = {split_seed(seed)}", f"seed = {seed}",
             f"workers = {workers}", f"rounds = {rounds}",
             f"boost_learning_rate = {FIT_SHRINKAGE}",
             f"model_out = {model_out}", f"report_out = {report_out}"]
    lines += [f"{k} = {v}" for k, v in learner.items()]
    if expert is not None:
        lines.append(f"expert_edges = {expert[0]}:{expert[1]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def split_seed(seed: int) -> int:
    return sub_seed(seed, "split")


def paths(workdir: str) -> dict:
    names = ("cohort", "config", "model", "report", "new_rows", "preds",
             "resave")
    exts = (".csv", ".cfg", ".gbe", ".json", ".csv", ".csv", ".gbe")
    return {k: os.path.join(workdir, k + e) for k, e in zip(names, exts)}
