"""Byte-mutated CSVs and configs through the command line, in process:
every ``train``, ``predict`` and ``evaluate`` run ends with exit code 0 or
2, never with an uncaught exception. And every model that ``train``
writes predicts and evaluates its own training file."""

import contextlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphboost.cli import main
from graphboost.model_io import load_ensemble, save_ensemble
from graphboost.pipeline import run_synth

# Small enough that a one-byte change to a number (rounds 91, max_epochs
# 93) still trains in well under a second. Paths are relative to the
# working directory, so a mutated one stays inside it.
CONFIG = b"""data = s_train.csv
label = label
split_fractions = 0.6, 0.2, 0.2
seed = 3
rounds = 1
hidden_dim = 4
prop_steps = 1
dropout = 0.0
weak_learning_rate = 0.05
max_epochs = 3
patience = 1
model_out = fuzz.gbe
report_out = fuzz.json
"""

# bytes that the CSV reader, the number parser and the config parser treat
# specially, and some that are not UTF-8 text on their own
SPECIAL = b',\n\r" =#.-+eE0159NAna\t\x00\x80\xbf\xef\xff'

EDITS = st.lists(
    st.tuples(st.sampled_from(("replace", "insert", "delete", "truncate")),
              st.floats(0.0, 1.0),
              st.one_of(st.sampled_from(SPECIAL), st.integers(0, 255))),
    min_size=1, max_size=3)


def mutate(blob: bytes, edits: list) -> bytes:
    out = bytearray(blob)
    for kind, where, byte in edits:
        at = min(int(where * len(out)), max(len(out) - 1, 0))
        if kind == "insert":
            out.insert(at, byte)
        elif not out:
            continue
        elif kind == "replace":
            out[at] = byte
        elif kind == "delete":
            del out[at]
        else:
            del out[at:]
    return bytes(out)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A synthetic cohort, its config and a model trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.chdir(root):
        run_synth(n=60, m=3, k=2, rho=1.0, seed=1, test_fraction=0.25,
                  out_prefix="s")
        Path("good.cfg").write_bytes(CONFIG.replace(b"fuzz.gbe",
                                                    b"good.gbe"))
        assert main(["train", "--config", "good.cfg"]) == 0
    return root


@settings(max_examples=500, deadline=None)
@given(target=st.sampled_from(("train-csv", "train-config", "predict",
                               "evaluate")),
       edits=EDITS)
# a NUL in report_out's path used to escape as a ValueError
@example(target="train-config", edits=[("replace", 1.0, 0)])
def test_mutated_input_exits_0_or_2(workdir, target, edits):
    with contextlib.chdir(workdir):
        if target == "train-config":
            Path("fuzz.cfg").write_bytes(mutate(CONFIG, edits))
            argv = ["train", "--config", "fuzz.cfg"]
        elif target == "train-csv":
            Path("fuzz.csv").write_bytes(
                mutate(Path("s_train.csv").read_bytes(), edits))
            Path("fuzz.cfg").write_bytes(CONFIG.replace(b"s_train.csv",
                                                        b"fuzz.csv"))
            argv = ["train", "--config", "fuzz.cfg"]
        else:
            Path("fuzz.csv").write_bytes(
                mutate(Path("s_test.csv").read_bytes(), edits))
            argv = [target, "--model", "good.gbe", "--data", "fuzz.csv",
                    "--out", "fuzz.out"]
        assert main(argv) in (0, 2)


# Cells that stress the encoder and the model file: magnitudes near the
# float range, subnormals, ties, and numeric-looking text in a column that
# one non-number makes categorical.
CELLS = st.one_of(
    st.sampled_from([1e154, 1e200, 1e300, 1.7e308, -1e308, 1e-300, 5e-324,
                     0.0, 1.0]).map(repr),
    st.floats(-1e6, 1e6).map(repr), st.sampled_from(["NA", "1", "2"]))


@st.composite
def _cohorts(draw):
    """A small CSV's text and the split fractions to train on it: up to 5
    classes, a column of a few levels at some scale plus noise, and two
    columns whose cells come from a few drawn ones (heavy ties)."""
    n = draw(st.integers(12, 40))
    k = draw(st.integers(2, 5))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e100, 1e154, 1e300]))
    x = [repr(scale * draw(st.sampled_from([0.0, 1.0, 2.0, -1.0]))
              + draw(st.floats(-1.0, 1.0))) for _ in range(n)]
    y, code = ([draw(st.sampled_from(pool)) for _ in range(n)] for pool in (
        draw(st.lists(CELLS, min_size=1, max_size=4)),
        draw(st.lists(st.sampled_from(["1", "2", "3", "NA", "x"]),
                      min_size=1, max_size=4))))
    lines = ["x,y,code,label"] + [f"{a},{b},{c},c{i % k}" for i, (a, b, c)
                                  in enumerate(zip(x, y, code))]
    split = draw(st.sampled_from(["0.6, 0.2, 0.2", "0.34, 0.33, 0.33",
                                  "0.8, 0.1, 0.1"]))
    return "\n".join(lines) + "\n", split


@pytest.fixture(scope="module")
def own_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("own")


@settings(max_examples=150, deadline=None)
@given(cohort=_cohorts())
# x = 1e200 * i: the squares in the sd overflowed, the column encoded as
# all zeros, and train wrote a model with sd inf that predict rejected
@example(cohort=("x,y,code,label\n" + "".join(
    f"{1e200 * i!r},{i % 3},1,c{i % 2}\n" for i in range(30)),
    "0.6, 0.2, 0.2"))
def test_every_trained_model_scores_its_own_file(own_dir, cohort):
    # whenever train exits 0, its model predicts and evaluates the file it
    # was trained on, and loads and saves again byte for byte
    text, split = cohort
    with contextlib.chdir(own_dir):
        Path("own.csv").write_text(text)
        Path("own.cfg").write_bytes(
            CONFIG.replace(b"s_train.csv", b"own.csv")
            .replace(b"0.6, 0.2, 0.2", split.encode())
            .replace(b"rounds = 1", b"rounds = 2"))
        if main(["train", "--config", "own.cfg"]) != 0:
            return
        for command in ("predict", "evaluate"):
            assert main([command, "--model", "fuzz.gbe", "--data",
                         "own.csv", "--out", "own.out"]) == 0, command
        save_ensemble(load_ensemble("fuzz.gbe"), "again.gbe")
        assert Path("again.gbe").read_bytes() == \
            Path("fuzz.gbe").read_bytes()


def _overflow_cohort(seed: int) -> str:
    """13 rows whose column ``y`` holds one 1.7e308 among small levels:
    training squares gradients beyond the float range."""
    rng = np.random.default_rng(seed)
    big = rng.integers(0, 13)
    lines = ["x,y,label"]
    for i in range(13):
        y = 1.7e308 if i == big else float(rng.choice([0, 1, 2, 3, 2e5]))
        lines.append(f"{rng.normal() + i % 2!r},{y!r},{'ab'[i % 2]}")
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [6, 7, 10, 12, 18])
def test_gradients_beyond_the_float_range_train_quietly(tmp_path, seed):
    # An Adam second moment that overflows to inf only zeroes that
    # parameter's step; train, predict and evaluate exit 0 without a
    # warning (numpy's overflow warning used to reach the terminal).
    with contextlib.chdir(tmp_path):
        Path("big.csv").write_text(_overflow_cohort(seed))
        Path("big.cfg").write_text(
            "data = big.csv\nlabel = label\n"
            "split_fractions = 0.6, 0.2, 0.2\n"
            f"seed = {seed}\nrounds = 2\nhidden_dim = 8\nprop_steps = 2\n"
            "max_epochs = 10\npatience = 10\n"
            "model_out = big.gbe\nreport_out = big.json\n")
        assert main(["train", "--config", "big.cfg"]) == 0
        for command in ("predict", "evaluate"):
            assert main([command, "--model", "big.gbe", "--data",
                         "big.csv", "--out", "big.out"]) == 0, command


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("seed, error", [
    (17, "all candidates diverged"),
    (24, "first round weak error 0.5000 >= 0.5000")],
    ids=["all-diverge", "none-beats-chance"])
def test_diverging_candidates_fail_quietly(tmp_path, capsys, seed, error,
                                           workers):
    # The same cohorts at seeds where training cannot go on: every
    # candidate diverges at 17, and none beats chance at 24. train exits 2
    # with that error, and the diverging learners' overflow and invalid
    # values raise no numpy warning on any thread.
    with contextlib.chdir(tmp_path):
        Path("big.csv").write_text(_overflow_cohort(seed))
        Path("big.cfg").write_text(
            "data = big.csv\nlabel = label\n"
            "split_fractions = 0.6, 0.2, 0.2\n"
            f"seed = {seed}\nrounds = 2\nhidden_dim = 8\nprop_steps = 2\n"
            f"max_epochs = 10\npatience = 10\nworkers = {workers}\n"
            "model_out = big.gbe\nreport_out = big.json\n")
        assert main(["train", "--config", "big.cfg"]) == 2
        assert f"error: {error}" in capsys.readouterr().err


def _two_clusters(rng, n: int) -> list:
    """n CSV rows ``x,y,label``: x splits the labels, y is noise."""
    return [f"{rng.normal() + 3 * (i % 2)!r},{rng.normal()!r},{'ab'[i % 2]}"
            for i in range(n)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_new_row_that_overflows_the_model_is_a_data_error(tmp_path, capsys):
    # y = 1.7e308 is finite, so it encodes, but it overflows the heads to
    # inf, and inf - inf in the prefix sums turned the propagated values of
    # the rows after it in the sort NaN: row 6 read b instead of a, and
    # predict exited 0 with numpy's warnings.
    rng = np.random.default_rng(0)
    train, new = _two_clusters(rng, 120), _two_clusters(rng, 8)
    with contextlib.chdir(tmp_path):
        for name, rows in (("train.csv", train), ("new.csv", new),
                           ("new9.csv", new + ["0.5,1.7e308,a"])):
            Path(name).write_text("\n".join(["x,y,label"] + rows) + "\n")
        Path("m.cfg").write_text(
            "data = train.csv\nlabel = label\n"
            "split_fractions = 0.6, 0.2, 0.2\nseed = 1\nrounds = 2\n"
            "hidden_dim = 8\nprop_steps = 2\nmax_epochs = 30\n"
            "patience = 30\nweak_learning_rate = 0.05\n"
            "model_out = m.gbe\nreport_out = m.json\n")
        assert main(["train", "--config", "m.cfg"]) == 0
        assert main(["predict", "--model", "m.gbe", "--data", "new.csv",
                     "--out", "new.out"]) == 0
        assert [line.split(",")[1] for line in
                Path("new.out").read_text().splitlines()[1:]] == \
            list("bbbbabab")
        for command in ("predict", "evaluate"):
            capsys.readouterr()
            assert main([command, "--model", "m.gbe", "--data", "new9.csv",
                         "--out", "new9.out"]) == 2, command
            assert "error: new row 8: its propagated logits overflow the " \
                "model" in capsys.readouterr().err
