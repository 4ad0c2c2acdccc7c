"""Byte-mutated CSVs and configs through the command line, in process:
every ``train``, ``predict`` and ``evaluate`` run ends with exit code 0 or
2, never with an uncaught exception."""

import contextlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from graphboost.cli import main
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
