"""Paired perfbench runs of two commits, or paired calls of both in one
process (prediction, data generation or training), summarised into one
BENCH file.

    python benchmarks/paired.py --parent HEAD~1 --change HEAD \\
        --scratch /tmp/paired --name one_engine \\
        --run fit-continuous:4101-4110 --run fit-mixed:4201-4210 \\
        --run predict:4301-4310

    python benchmarks/paired.py --parent HEAD~1 --change HEAD \\
        --scratch /tmp/paired --name cone_calls \\
        --in-process model.gbe rows.csv --calls 3000

    python benchmarks/paired.py --parent HEAD~1 --change HEAD \\
        --scratch /tmp/paired --name predict_csv \\
        --in-process model.gbe rows.csv --command --calls 3000

    python benchmarks/paired.py --parent HEAD~1 --change HEAD \\
        --scratch /tmp/paired --name synthetic_calls \\
        --synth 2000,10,2,0.9,0 --calls 300

    python benchmarks/paired.py --parent HEAD~1 --change HEAD \\
        --scratch /tmp/paired --name fit_mixed_calls \\
        --train fit.cfg --calls 60

Each commit is exported with ``git archive`` into its own directory under
``--scratch`` (a plain checkout, so the repository's ``.git`` gains
nothing), because ``perfbench/run.py`` writes into its checkout's
``perfbench/_work/``. For every workload and seed, the script runs
``perfbench/run.py --workload W --seed S --seconds 15 --trace 0`` once in
each checkout, one run at a time; the side that goes first alternates from
one seed to the next. It writes ``BENCH_<name>.json`` into ``--out``: both
SHAs, ``nproc``, the BLAS threads, the numpy and Python versions, the
1-minute load average before each run, the seeds, every run's metrics and
settings, and per workload and metric each side's median and quartiles
(numpy's linear percentiles) and the pairs in which the change read
better, worse or the same, by the metric's direction in
``BENCHMARK.json``.

``--in-process MODEL ROWS`` imports the ``graphboost`` package of each
checkout under its own name, loads the model in each and encodes the CSV
rows once. It then alternates single-row ``predict_ensemble`` calls of the
two packages on the same rows, one row after another, with the side that
goes first alternating from one call to the next, and asserts that both
give equal labels and score bytes on every call. With ``--command`` a call
is instead a whole ``pipeline.run_predict`` of the model on the CSV, as
``graphboost predict`` runs it (model load, ingest, labelling and the
predictions CSV), and the two sides' CSV files must be equal byte for byte
after every call. ``--synth N,M,K,RHO,SEED`` instead alternates
``data.gen_synthetic(N, M, K, RHO, SEED)`` calls of the two packages and
asserts that both give equal labels and equal column names and bytes on
every call. ``--train CONFIG`` instead alternates whole
``pipeline.run_train`` calls of the two packages on one fit config, as
``graphboost train`` runs it (ingest, encoding, fit, test report and
``.gbe``), each side writing its model and report into its own temporary
directory, and asserts that the two ``.gbe`` files are equal byte for
byte after every call. The BENCH file then holds each side's per-call
milliseconds (median and quartiles) and the calls in which the change was
faster, slower or as fast.
"""

import argparse
import dataclasses
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 15
SIDES = ("parent", "change")


def directions(benchmark: dict) -> dict:
    """``{metric: "lower" or "higher"}`` of the end-to-end metrics."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def seed_range(text: str) -> list[int]:
    """``"4101-4110"`` or ``"4101"`` as a list of seeds."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _quartiles(values: list) -> dict:
    q1, median, q3 = np.percentile(values, (25, 50, 75))
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "values": list(values)}


def summarize(runs: list, better: dict) -> dict:
    """Per workload: its seeds and pairs, the first side and the load
    average per seed, each side's run counts and metric quartiles, and per
    metric the pairs in which the change read better, worse or tied. A
    pair counts for a metric only when both of its runs report it."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        seeds = sorted({r["seed"] for r in mine})
        by = {(r["seed"], r["side"]): r for r in mine}
        sides = {}
        for side in SIDES:
            rs = [by[s, side] for s in seeds if (s, side) in by]
            metrics = {name: _quartiles([r["metrics"][name]["value"]
                                         for r in rs if name in r["metrics"]])
                       for name in better
                       if any(name in r["metrics"] for r in rs)}
            sides[side] = {"correct_runs": sum(r["correct"] for r in rs),
                           "attempted": sum(r["attempted"] for r in rs),
                           "failed": sum(r["failed"] for r in rs),
                           "metrics": metrics}
        counts = {key: {} for key in ("change_better_pairs",
                                      "change_worse_pairs", "tied_pairs")}
        pct = {}
        for name, direction in better.items():
            pairs = [(by[s, "parent"]["metrics"][name]["value"],
                      by[s, "change"]["metrics"][name]["value"])
                     for s in seeds
                     if all((s, side) in by and name in by[s, side]["metrics"]
                            for side in SIDES)]
            if not pairs:
                continue
            sign = 1.0 if direction == "lower" else -1.0
            gains = [sign * (p - c) for p, c in pairs]
            counts["change_better_pairs"][name] = sum(g > 0 for g in gains)
            counts["change_worse_pairs"][name] = sum(g < 0 for g in gains)
            counts["tied_pairs"][name] = sum(g == 0 for g in gains)
            parent = sides["parent"]["metrics"][name]["median"]
            change = sides["change"]["metrics"][name]["median"]
            pct[name] = (100.0 * (change - parent) / parent if parent
                         else 0.0)
        out[workload] = {
            "seeds": seeds,
            "pairs": sum(all((s, side) in by for side in SIDES)
                         for s in seeds),
            "first_side": {str(r["seed"]): r["first"] for r in mine
                           if r["side"] == "parent"},
            "loadavg_1m_before_run": {
                side: [by[s, side]["loadavg_1m_before_run"] for s in seeds
                       if (s, side) in by] for side in SIDES},
            "sides": sides, **counts, "median_change_pct": pct}
    return out


def _export(rev: str, scratch: str) -> tuple[str, str]:
    """The commit's SHA and a checkout of it under ``scratch``."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", f"{rev}^{{commit}}"],
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    dest = os.path.join(scratch, sha)
    if not os.path.isdir(dest):
        tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                              sha], check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(dest, filter="data")
    return sha, dest


def _run(checkout: str, workload: str, seed: int) -> dict:
    """One perfbench run: its result and the settings it wrote."""
    load = os.getloadavg()[0]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    run = {"loadavg_1m_before_run": load, "returncode": proc.returncode,
           "wall_s": round(time.perf_counter() - start, 1),
           "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    path = os.path.join(checkout, "perfbench", "_work", "results",
                        f"{workload}-seed{seed}-trace0.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(path)
        run.update(result)
    else:
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def import_tree(src: str, name: str):
    """The ``graphboost`` package under the directory ``src``, imported as
    the top-level package ``name``; its modules import each other
    relatively, so two trees can live in one process."""
    package = os.path.join(src, "graphboost")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"),
        submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _alternate(packages: dict, model: str, rows: str,
               calls: int) -> tuple[dict, int]:
    """Per side, the milliseconds of each of ``calls`` alternating
    single-row calls, and the number of rows, read and encoded once."""
    ensembles = {side: importlib.import_module(
        f"{packages[side].__name__}.model_io").load_ensemble(model)
        for side in SIDES}
    data = importlib.import_module(f"{packages['change'].__name__}.data")
    table, _ = data.load_csv(rows, label_column=None)
    x = data.apply_encoder(table, ensembles["change"].encoder)
    times = {side: [] for side in SIDES}
    for call in range(calls):
        row = x[call % len(x)][None]
        order = SIDES if call % 2 == 0 else SIDES[::-1]
        out = {}
        for side in order:
            start = time.perf_counter()
            out[side] = packages[side].predict_ensemble(ensembles[side], row)
            times[side].append(1e3 * (time.perf_counter() - start))
        (labels, scores), (want_labels, want_scores) = (out[s] for s in
                                                        SIDES[::-1])
        assert np.array_equal(labels, want_labels), f"call {call}: labels"
        assert scores.tobytes() == want_scores.tobytes(), \
            f"call {call}: score bytes"
    return times, len(x)


def _alternate_commands(packages: dict, model: str, rows: str,
                        calls: int) -> tuple[dict, int]:
    """Per side, the milliseconds of each of ``calls`` alternating
    ``run_predict`` calls, and the number of rows each call predicts."""
    predict = {side: importlib.import_module(
        f"{packages[side].__name__}.pipeline").run_predict for side in SIDES}
    times = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as out:
        paths = {side: os.path.join(out, f"{side}.csv") for side in SIDES}
        for call in range(calls):
            order = SIDES if call % 2 == 0 else SIDES[::-1]
            for side in order:
                start = time.perf_counter()
                count = predict[side](model, rows, paths[side])
                times[side].append(1e3 * (time.perf_counter() - start))
            with open(paths["parent"], "rb") as want, \
                    open(paths["change"], "rb") as got:
                assert got.read() == want.read(), f"call {call}: CSV bytes"
    return times, count


def _alternate_synth(packages: dict, shape: tuple,
                     calls: int) -> tuple[dict, int]:
    """Per side, the milliseconds of each of ``calls`` alternating
    ``gen_synthetic(*shape)`` calls, and the cohort's number of rows."""
    generate = {side: importlib.import_module(
        f"{packages[side].__name__}.data").gen_synthetic for side in SIDES}
    times = {side: [] for side in SIDES}
    for call in range(calls):
        order = SIDES if call % 2 == 0 else SIDES[::-1]
        out = {}
        for side in order:
            start = time.perf_counter()
            out[side] = generate[side](*shape)
            times[side].append(1e3 * (time.perf_counter() - start))
        (table, labels), (want_table, want_labels) = (out[s] for s in
                                                      SIDES[::-1])
        assert labels == want_labels, f"call {call}: labels"
        assert [(c.name, c.numeric.tobytes()) for c in table.columns] == [
            (c.name, c.numeric.tobytes()) for c in want_table.columns], \
            f"call {call}: column bytes"
    return times, shape[0]


def _alternate_train(packages: dict, config: str,
                     calls: int) -> tuple[dict, int]:
    """Per side, the milliseconds of each of ``calls`` alternating
    ``run_train`` calls on the fit config ``config``, and the cohort's
    number of rows."""
    load = {side: importlib.import_module(
        f"{packages[side].__name__}.config").load_config for side in SIDES}
    train = {side: importlib.import_module(
        f"{packages[side].__name__}.pipeline").run_train for side in SIDES}
    times = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as out:
        configs = {side: dataclasses.replace(
            load[side](config), model_out=os.path.join(out, f"{side}.gbe"),
            report_out=os.path.join(out, f"{side}.json")) for side in SIDES}
        for call in range(calls):
            order = SIDES if call % 2 == 0 else SIDES[::-1]
            for side in order:
                start = time.perf_counter()
                outcome = train[side](configs[side])
                times[side].append(1e3 * (time.perf_counter() - start))
            with open(configs["parent"].model_out, "rb") as want, \
                    open(configs["change"].model_out, "rb") as got:
                assert got.read() == want.read(), f"call {call}: model bytes"
    return times, outcome.ensemble.train_x.shape[0]


def synth_shape(text: str) -> tuple:
    """``"2000,10,2,0.9,0"`` as ``gen_synthetic``'s (n, m, k, rho, seed)."""
    n, m, k, rho, seed = text.split(",")
    return int(n), int(m), int(k), float(rho), int(seed)


def _paired_calls(sources: dict, alternate) -> dict:
    """``alternate(packages)`` on the ``graphboost`` trees under
    ``sources`` (``{"parent": dir, "change": dir}``), each imported under
    its own name: each side's per-call milliseconds and the calls each
    side won."""
    names = {side: f"graphboost_{side}" for side in SIDES}
    try:
        packages = {side: import_tree(sources[side], names[side])
                    for side in SIDES}
        times, count = alternate(packages)
    finally:
        for name in [name for name in sys.modules
                     if name.split(".")[0] in names.values()]:
            del sys.modules[name]
    calls = len(times["parent"])
    faster = [c < p for p, c in zip(times["parent"], times["change"])]
    slower = [c > p for p, c in zip(times["parent"], times["change"])]
    return {"calls": calls, "rows": count,
            "sides": {side: _quartiles(times[side]) for side in SIDES},
            "change_faster_calls": sum(faster),
            "change_slower_calls": sum(slower),
            "tied_calls": calls - sum(faster) - sum(slower),
            "median_change_pct": 100.0 * (
                float(np.median(times["change"]))
                / float(np.median(times["parent"])) - 1.0)}


def in_process(sources: dict, model: str, rows: str, calls: int,
               command: bool = False) -> dict:
    """Alternating single-row calls of the ``graphboost`` trees under
    ``sources`` on ``model`` and the rows of the CSV ``rows``, or with
    ``command`` alternating whole ``run_predict`` calls on that CSV, summed
    up by ``_paired_calls``. Raises AssertionError when the two sides
    label or score a row differently, or write different CSV bytes."""
    alternate = _alternate_commands if command else _alternate
    return _paired_calls(sources, lambda packages: alternate(
        packages, model, rows, calls))


def synth_calls(sources: dict, shape: tuple, calls: int) -> dict:
    """Alternating ``gen_synthetic(*shape)`` calls of the ``graphboost``
    trees under ``sources``, summed up by ``_paired_calls``. Raises
    AssertionError when the two sides' labels or column bytes differ."""
    return _paired_calls(sources, lambda packages: _alternate_synth(
        packages, shape, calls))


def train_calls(sources: dict, config: str, calls: int) -> dict:
    """Alternating ``run_train`` calls of the ``graphboost`` trees under
    ``sources`` on the fit config ``config``, summed up by
    ``_paired_calls``. Raises AssertionError when the two sides write
    different model bytes."""
    return _paired_calls(sources, lambda packages: _alternate_train(
        packages, config, calls))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--change", required=True, help="git revision")
    parser.add_argument("--scratch", required=True,
                        help="directory for the two checkouts")
    parser.add_argument("--name", required=True,
                        help="writes BENCH_<name>.json")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--run", action="append",
                      metavar="WORKLOAD:FIRST-LAST",
                      help="a workload and its seeds; may repeat")
    mode.add_argument("--in-process", nargs=2, metavar=("MODEL", "ROWS"),
                      help="a .gbe model and a CSV of rows to score one "
                           "at a time")
    mode.add_argument("--synth", type=synth_shape,
                      metavar="N,M,K,RHO,SEED",
                      help="a gen_synthetic cohort to generate again and "
                           "again")
    mode.add_argument("--train", metavar="CONFIG",
                      help="a fit config to train again and again")
    parser.add_argument("--command", action="store_true",
                        help="with --in-process, time whole run_predict "
                             "calls on all the rows")
    parser.add_argument("--calls", type=int, default=3000,
                        help="calls per side with --in-process, --synth "
                             "or --train")
    parser.add_argument("--out", default=ROOT, help="directory of the file")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = directions(json.load(fh))
    os.makedirs(args.scratch, exist_ok=True)
    checkouts = dict(parent=_export(args.parent, args.scratch),
                     change=_export(args.change, args.scratch))
    if args.command and not args.in_process:
        parser.error("--command needs --in-process")
    if args.in_process or args.synth or args.train:
        sources = {side: os.path.join(checkouts[side][1], "src")
                   for side in SIDES}
        load = os.getloadavg()[0]
        if args.train:
            call = ("whole run_train calls (ingest, encoding, fit, test "
                    "report, .gbe) of both packages in one process on the "
                    "same fit config, asserting equal model bytes after "
                    "each call")
            inputs = {"config": args.train}
            summary = train_calls(sources, args.train, args.calls)
        elif args.synth:
            call = ("gen_synthetic calls of both packages in one process on "
                    "the same arguments, asserting equal labels and column "
                    "bytes after each call")
            inputs = {"synth": dict(zip(("n", "m", "k", "rho", "seed"),
                                        args.synth))}
            summary = synth_calls(sources, args.synth, args.calls)
        else:
            call = ("whole run_predict calls (model load, ingest, labelling, "
                    "predictions CSV) of both packages in one process on the "
                    "same CSV, asserting equal CSV bytes after each call"
                    if args.command else "single-row predict_ensemble calls "
                    "of both packages in one process on the same rows")
            inputs = {"model": args.in_process[0], "rows": args.in_process[1]}
            summary = in_process(sources, *args.in_process, args.calls,
                                 args.command)
        return _write(args, checkouts, {
            "what": f"{call}, the first side alternating per call; per "
                    "side the median and quartiles (numpy percentile, "
                    "linear) of the call's milliseconds, and the calls in "
                    "which the change was faster, slower or as fast",
            **inputs,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy": np.__version__, "python": sys.version.split()[0],
            "loadavg_1m_before": load, **summary})
    runs = []
    for spec in args.run:
        workload, _, seeds = spec.partition(":")
        for i, seed in enumerate(seed_range(seeds)):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                run = {"workload": workload, "seed": seed, "side": side,
                       "first": order[0],
                       **_run(checkouts[side][1], workload, seed)}
                runs.append(run)
                print(f"{workload} seed {seed} {side}: "
                      f"returncode {run['returncode']}, correct "
                      f"{run['correct']}", file=sys.stderr, flush=True)
    settings = next((r["settings"] for r in runs if "settings" in r), {})
    return _write(args, checkouts, {
        "what": f"perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                "--trace 0, one run per side per seed, the first side "
                "alternating; per side the median and quartiles (numpy "
                "percentile, linear) of each end-to-end metric, and per "
                "metric the pairs in which the change read better, worse "
                "or the same",
        "nproc": settings.get("nproc", os.cpu_count()),
        "blas_threads": settings.get("blas_threads"),
        "numpy": settings.get("numpy"), "python": settings.get("python"),
        "runs": runs, "workloads": summarize(runs, better)})


def _write(args, checkouts: dict, report: dict) -> int:
    report = {"parent_sha": checkouts["parent"][0],
              "change_sha": checkouts["change"][0],
              "nproc": os.cpu_count(), **report}
    path = os.path.join(args.out, f"BENCH_{args.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
