"""The summary of ``benchmarks/paired.py`` on fixed run results."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "paired", os.path.join(ROOT, "benchmarks", "paired.py"))
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)

BETTER = {"command_s": "lower", "test_auroc": "higher"}


def run(workload, seed, side, first, load, **values):
    return {"workload": workload, "seed": seed, "side": side, "first": first,
            "loadavg_1m_before_run": load, "returncode": 0,
            "correct": bool(values), "attempted": 10 if values else 0,
            "failed": 1 if side == "change" and values else 0,
            "metrics": {k: {"value": v, "unit": "?"}
                        for k, v in values.items()}}


RUNS = [
    # seed 1: the change is better on both metrics
    run("a", 1, "parent", "parent", 0.5, command_s=1.0, test_auroc=0.9),
    run("a", 1, "change", "parent", 0.6, command_s=0.5, test_auroc=0.95),
    # seed 2: tied on both
    run("a", 2, "change", "change", 0.7, command_s=2.0, test_auroc=0.9),
    run("a", 2, "parent", "change", 0.8, command_s=2.0, test_auroc=0.9),
    # seed 3: worse on both
    run("a", 3, "parent", "parent", 0.9, command_s=3.0, test_auroc=0.9),
    run("a", 3, "change", "parent", 1.0, command_s=3.5, test_auroc=0.8),
    # seed 5: the change run failed and reports nothing
    run("b", 5, "parent", "parent", 1.1, command_s=1.0),
    run("b", 5, "change", "parent", 1.2),
    run("b", 6, "change", "change", 1.3, command_s=1.5),
    run("b", 6, "parent", "change", 1.4, command_s=2.0),
    # seed 7: only the parent ran
    run("b", 7, "parent", "parent", 1.5, command_s=9.0),
]


def test_pairs_won_lost_and_tied():
    a = paired.summarize(RUNS, BETTER)["a"]
    assert a["seeds"] == [1, 2, 3] and a["pairs"] == 3
    for key in ("change_better_pairs", "change_worse_pairs", "tied_pairs"):
        assert a[key] == {"command_s": 1, "test_auroc": 1}
    assert a["first_side"] == {"1": "parent", "2": "change", "3": "parent"}
    assert a["loadavg_1m_before_run"] == {"parent": [0.5, 0.8, 0.9],
                                          "change": [0.6, 0.7, 1.0]}


def test_side_quartiles_and_counts():
    a = paired.summarize(RUNS, BETTER)["a"]
    parent = a["sides"]["parent"]
    assert parent["metrics"]["command_s"] == {
        "median": 2.0, "q1": 1.5, "q3": 2.5, "values": [1.0, 2.0, 3.0]}
    change = a["sides"]["change"]["metrics"]["command_s"]
    assert change["median"] == 2.0
    assert change["q1"] == pytest.approx(1.25)
    assert change["q3"] == pytest.approx(2.75)
    assert (parent["correct_runs"], parent["attempted"],
            parent["failed"]) == (3, 30, 0)
    assert a["sides"]["change"]["failed"] == 3
    assert a["median_change_pct"] == {"command_s": 0.0, "test_auroc": 0.0}


def test_missing_metric_or_side_makes_no_pair():
    b = paired.summarize(RUNS, BETTER)["b"]
    assert b["seeds"] == [5, 6, 7] and b["pairs"] == 2
    assert b["change_better_pairs"] == {"command_s": 1}
    assert b["change_worse_pairs"] == {"command_s": 0}
    assert b["tied_pairs"] == {"command_s": 0}
    assert "test_auroc" not in b["sides"]["parent"]["metrics"]
    assert b["sides"]["change"]["correct_runs"] == 1
    assert b["sides"]["parent"]["metrics"]["command_s"]["values"] == [
        1.0, 2.0, 9.0]
    assert b["median_change_pct"]["command_s"] == pytest.approx(-25.0)
    assert b["loadavg_1m_before_run"]["change"] == [1.2, 1.3]


def test_directions_and_seed_ranges():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = paired.directions(json.load(fh))
    assert better["setup_s"] == "lower" and better["test_auroc"] == "higher"
    assert paired.seed_range("4101-4103") == [4101, 4102, 4103]
    assert paired.seed_range("7") == [7]


@pytest.fixture
def two_trees(tmp_path):
    """Two copies of this tree's package to import side by side."""
    import shutil

    sources = {}
    for side in paired.SIDES:
        sources[side] = str(tmp_path / side)
        shutil.copytree(os.path.join(ROOT, "src", "graphboost"),
                        os.path.join(sources[side], "graphboost"))
    return sources


def _edit(sources, module, old, new):
    """Replace ``old`` by ``new`` in a module of the change's copy."""
    path = os.path.join(sources["change"], "graphboost", module)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))


@pytest.fixture
def two_copies(tmp_path, two_trees):
    """A tiny two-round model over 30 stored rows, a CSV of 5 new rows, and
    two copies of this tree to import side by side; with a function that
    moves the last bit of every score in the change's copy."""
    import numpy as np

    from graphboost.appnp import AppnpConfig, init_model
    from graphboost.boost import Ensemble, WeakRound
    from graphboost.data import EncodingMeta, NumericMeta
    from graphboost.model_io import save_ensemble

    rng = np.random.default_rng(0)
    meta = EncodingMeta([NumericMeta(f"f{j}", 0.0, 0.0, 1.0)
                         for j in range(2)], "label", ["c0", "c1"])
    rounds = [WeakRound(t % 2, f"f{t % 2}", 0.5, init_model(
        AppnpConfig(hidden_dim=3, prop_steps=2, seed=t), 2, 2), 0.4, 0.3)
        for t in range(2)]
    model = tmp_path / "model.gbe"
    save_ensemble(Ensemble(rounds, 2, meta, meta.feature_names(),
                           rng.normal(size=(30, 2))), str(model))
    rows = tmp_path / "rows.csv"
    rows.write_text("f0,f1\n" + "".join(f"{a},{b}\n" for a, b in
                                        rng.normal(size=(5, 2))))
    vote_sum = "votes / votes.sum(axis=1, keepdims=True)"
    return two_trees, str(model), str(rows), lambda: _edit(
        two_trees, "boost.py", vote_sum, f"{vote_sum} * (1.0 + 2**-40)")


def _check_summary(out, calls, rows):
    assert (out["calls"], out["rows"]) == (calls, rows)
    assert (out["change_faster_calls"] + out["change_slower_calls"]
            + out["tied_calls"]) == calls
    for side in paired.SIDES:
        summary = out["sides"][side]
        assert len(summary["values"]) == calls
        assert summary["q1"] <= summary["median"] <= summary["q3"]


def test_in_process_calls_on_two_copies_of_one_tree(two_copies):
    # the rows are scored one at a time
    sources, model, rows, move_last_bit = two_copies
    _check_summary(paired.paired_calls(sources, paired.row_mode, model, rows,
                                       calls=21), 21, 5)
    # a change that moves a score's last bit is caught
    move_last_bit()
    with pytest.raises(AssertionError, match="call 0: score bytes"):
        paired.paired_calls(sources, paired.row_mode, model, rows, calls=4)


def test_in_process_commands_on_two_copies_of_one_tree(two_copies):
    # each call is a whole run_predict of all the rows
    sources, model, rows, move_last_bit = two_copies
    out = paired.paired_calls(sources, paired.command_mode, model, rows,
                              calls=6)
    _check_summary(out, 6, 5)
    assert out.keys() == paired.paired_calls(sources, paired.row_mode, model,
                                             rows, calls=2).keys()
    move_last_bit()
    with pytest.raises(AssertionError, match="call 0: CSV bytes"):
        paired.paired_calls(sources, paired.command_mode, model, rows,
                            calls=4)


def test_synth_calls_on_two_copies_of_one_tree(two_trees):
    shape = paired.synth_shape("40,3,2,0.9,1")
    assert shape == (40, 3, 2, 0.9, 1)
    _check_summary(paired.paired_calls(two_trees, paired.synth_mode, shape,
                                       calls=5), 5, 40)
    # a change that moves the last bits of a noise column is caught
    _edit(two_trees, "data.py", "gauss[:, gj].copy()",
          "gauss[:, gj] * (1.0 + 2**-40)")
    with pytest.raises(AssertionError, match="call 0: column bytes"):
        paired.paired_calls(two_trees, paired.synth_mode, shape, calls=2)
    # and one that renames the labels
    _edit(two_trees, "data.py", 'f"c{v}"', 'f"class{v}"')
    with pytest.raises(AssertionError, match="call 0: labels"):
        paired.paired_calls(two_trees, paired.synth_mode, shape, calls=2)


def test_train_calls_on_two_copies_of_one_tree(two_trees, tmp_path):
    # each call is a whole run_train of a 60-row cohort
    import numpy as np

    rng = np.random.default_rng(3)
    rows = tmp_path / "cohort.csv"
    rows.write_text("a,b,label\n" + "".join(
        f"{a!r},{int(b)},{'yes' if a + 0.2 * b > 0.5 else 'no'}\n"
        for a, b in zip(rng.normal(size=60).tolist(),
                        rng.integers(0, 4, size=60))))
    config = tmp_path / "fit.cfg"
    config.write_text(f"data = {rows}\nrounds = 2\nhidden_dim = 3\n"
                      "prop_steps = 1\nmax_epochs = 2\npatience = 2\n"
                      f"model_out = {tmp_path / 'unused.gbe'}\n")
    _check_summary(paired.paired_calls(two_trees, paired.train_mode,
                                       str(config), calls=3), 3, 60)
    assert not (tmp_path / "unused.gbe").exists()
    # a change that moves every round's alpha is caught
    _edit(two_trees, "boost.py", "(0.5 * math.log(", "(0.5000001 * math.log(")
    with pytest.raises(AssertionError, match="call 0: model bytes"):
        paired.paired_calls(two_trees, paired.train_mode, str(config),
                            calls=2)


@pytest.mark.parametrize("bad, message", [
    (["--command", "--run", "predict:1"], "--command needs --in-process"),
    (["--synth", "40,3,2,0.9,1", "--calls", "0"], "--calls must be at least"),
    (["--train", "fit.cfg", "--calls", "-3"], "--calls must be at least")])
def test_bad_arguments_are_a_usage_error_before_any_export(
        monkeypatch, capsys, tmp_path, bad, message):
    def export(rev, scratch):
        raise AssertionError("exported a checkout")

    monkeypatch.setattr(paired, "_export", export)
    with pytest.raises(SystemExit) as exit_:
        paired.main(["--parent", "HEAD", "--change", "HEAD", "--scratch",
                     str(tmp_path), "--name", "bad", *bad])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
