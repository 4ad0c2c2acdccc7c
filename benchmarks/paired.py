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

The other modes run in one process: they import the ``graphboost``
package of each checkout under its own name and alternate calls of the
two, the side that goes first alternating from one call to the next, one
loop for every mode (``paired_calls``). After each call they assert that
both sides' outputs are equal, and a failed check names the call and the
part that differs. A mode sets up each side once, outside the timing:
- ``--in-process MODEL ROWS`` (``row_mode``): each side loads the model
  and reads and encodes the CSV rows; a call is one single-row
  ``predict_ensemble``, one row after another. Labels and score bytes must
  be equal.
- with ``--command`` (``command_mode``): a call is a whole
  ``pipeline.run_predict`` of the model on the CSV, as ``graphboost
  predict`` runs it (model load, ingest, labelling and the predictions
  CSV). The CSV files must be equal byte for byte.
- ``--synth N,M,K,RHO,SEED`` (``synth_mode``): a call is
  ``data.gen_synthetic(N, M, K, RHO, SEED)``. Labels and column names and
  bytes must be equal.
- ``--train CONFIG`` (``train_mode``): a call is a whole
  ``pipeline.run_train`` on the fit config, as ``graphboost train`` runs it
  (ingest, encoding, fit, test report and ``.gbe``), each side writing its
  model and report into its own temporary directory. The ``.gbe`` files
  must be equal byte for byte.

The BENCH file then holds each side's per-call milliseconds (median and
quartiles) and the calls in which the change was faster, slower or as
fast. ``--command`` without ``--in-process``, and ``--calls`` below 1, are
usage errors, found before any checkout is exported.
"""

import argparse
import collections
import dataclasses
import importlib
import importlib.util
import io
import json
import os
import pathlib
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


def order(i: int) -> tuple:
    """The sides in the order they run at call or seed ``i``: the side that
    goes first alternates."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def _module(package, name: str):
    return importlib.import_module(f"{package.__name__}.{name}")


# One side of an in-process mode, as the mode sets it up from the side's
# package, a path prefix for the side's files and the mode's inputs: the
# side's call, of the call's index; the parts of a call's output that must
# be equal on both sides, each with the name that a failed check reports;
# and the rows of a call's output.
Side = collections.namedtuple("Side", "call parts rows")


def row_mode(package, prefix: str, model: str, rows: str) -> Side:
    """Single-row ``predict_ensemble`` calls on the CSV's rows, read and
    encoded once, one row after another."""
    ensemble = _module(package, "model_io").load_ensemble(model)
    data = _module(package, "data")
    table, _ = data.load_csv(rows, label_column=None)
    x = data.apply_encoder(table, ensemble.encoder)
    return Side(lambda i: package.predict_ensemble(ensemble,
                                                   x[i % len(x)][None]),
                lambda out: [("labels", out[0].tolist()),
                             ("score bytes", out[1].tobytes())],
                lambda out: len(x))


def command_mode(package, prefix: str, model: str, rows: str) -> Side:
    """Whole ``run_predict`` calls of the model on the CSV."""
    predict = _module(package, "pipeline").run_predict
    csv = f"{prefix}.csv"
    return Side(lambda i: predict(model, rows, csv),
                lambda out: [("CSV bytes", pathlib.Path(csv).read_bytes())],
                lambda count: count)


def synth_mode(package, prefix: str, shape: tuple) -> Side:
    """``gen_synthetic(*shape)`` calls."""
    generate = _module(package, "data").gen_synthetic
    return Side(lambda i: generate(*shape),
                lambda out: [("labels", out[1]), ("column bytes", [
                    (c.name, c.numeric.tobytes()) for c in out[0].columns])],
                lambda out: shape[0])


def train_mode(package, prefix: str, config: str) -> Side:
    """Whole ``run_train`` calls on the fit config ``config``, writing the
    model and report under ``prefix``."""
    cfg = dataclasses.replace(
        _module(package, "config").load_config(config),
        model_out=f"{prefix}.gbe", report_out=f"{prefix}.json")
    train = _module(package, "pipeline").run_train
    return Side(lambda i: train(cfg),
                lambda out: [("model bytes",
                              pathlib.Path(cfg.model_out).read_bytes())],
                lambda outcome: outcome.ensemble.train_x.shape[0])


def paired_calls(sources: dict, mode, *inputs, calls: int) -> dict:
    """``calls`` alternating calls of ``mode`` on ``inputs`` by the
    ``graphboost`` trees under ``sources`` (``{"parent": dir, "change":
    dir}``), each imported under its own name: the calls, the rows, each
    side's per-call milliseconds and the calls each side won. Raises
    AssertionError, naming the call and the part, when a call's outputs
    differ."""
    names = {side: f"graphboost_{side}" for side in SIDES}
    times = {side: [] for side in SIDES}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            sides = {side: mode(import_tree(sources[side], names[side]),
                                os.path.join(tmp, side), *inputs)
                     for side in SIDES}
            for i in range(calls):
                out = {}
                for side in order(i):
                    start = time.perf_counter()
                    out[side] = sides[side].call(i)
                    times[side].append(1e3 * (time.perf_counter() - start))
                want, got = (sides[side].parts(out[side]) for side in SIDES)
                for (part, a), (_, b) in zip(want, got):
                    assert a == b, f"call {i}: {part}"
            rows = sides["change"].rows(out["change"])
    finally:
        for name in [name for name in sys.modules
                     if name.split(".")[0] in names.values()]:
            del sys.modules[name]
    faster = [c < p for p, c in zip(times["parent"], times["change"])]
    slower = [c > p for p, c in zip(times["parent"], times["change"])]
    return {"calls": calls, "rows": rows,
            "sides": {side: _quartiles(times[side]) for side in SIDES},
            "change_faster_calls": sum(faster),
            "change_slower_calls": sum(slower),
            "tied_calls": calls - sum(faster) - sum(slower),
            "median_change_pct": 100.0 * (
                float(np.median(times["change"]))
                / float(np.median(times["parent"])) - 1.0)}


def synth_shape(text: str) -> tuple:
    """``"2000,10,2,0.9,0"`` as ``gen_synthetic``'s (n, m, k, rho, seed)."""
    n, m, k, rho, seed = text.split(",")
    return int(n), int(m), int(k), float(rho), int(seed)


# what one call of each in-process mode is, as the BENCH file says it
WHAT = {
    row_mode: "single-row predict_ensemble calls of both packages in one "
              "process on the same rows",
    command_mode: "whole run_predict calls (model load, ingest, labelling, "
                  "predictions CSV) of both packages in one process on the "
                  "same CSV, asserting equal CSV bytes after each call",
    synth_mode: "gen_synthetic calls of both packages in one process on the "
                "same arguments, asserting equal labels and column bytes "
                "after each call",
    train_mode: "whole run_train calls (ingest, encoding, fit, test report, "
                ".gbe) of both packages in one process on the same fit "
                "config, asserting equal model bytes after each call"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--change", required=True, help="git revision")
    parser.add_argument("--scratch", required=True,
                        help="directory for the two checkouts")
    parser.add_argument("--name", required=True,
                        help="writes BENCH_<name>.json")
    modes = parser.add_mutually_exclusive_group(required=True)
    modes.add_argument("--run", action="append",
                       metavar="WORKLOAD:FIRST-LAST",
                       help="a workload and its seeds; may repeat")
    modes.add_argument("--in-process", nargs=2, metavar=("MODEL", "ROWS"),
                       help="a .gbe model and a CSV of rows to score one "
                            "at a time")
    modes.add_argument("--synth", type=synth_shape,
                       metavar="N,M,K,RHO,SEED",
                       help="a gen_synthetic cohort to generate again and "
                            "again")
    modes.add_argument("--train", metavar="CONFIG",
                       help="a fit config to train again and again")
    parser.add_argument("--command", action="store_true",
                        help="with --in-process, time whole run_predict "
                             "calls on all the rows")
    parser.add_argument("--calls", type=int, default=3000,
                        help="calls per side with --in-process, --synth "
                             "or --train")
    parser.add_argument("--out", default=ROOT, help="directory of the file")
    args = parser.parse_args(argv)
    if args.command and not args.in_process:
        parser.error("--command needs --in-process")
    if args.calls < 1:
        parser.error("--calls must be at least 1")

    os.makedirs(args.scratch, exist_ok=True)
    checkouts = dict(parent=_export(args.parent, args.scratch),
                     change=_export(args.change, args.scratch))
    if args.train:
        mode, inputs, named = train_mode, [args.train], {"config": args.train}
    elif args.synth:
        mode, inputs = synth_mode, [args.synth]
        named = {"synth": dict(zip(("n", "m", "k", "rho", "seed"),
                                   args.synth))}
    elif args.in_process:
        mode = command_mode if args.command else row_mode
        inputs = args.in_process
        named = {"model": args.in_process[0], "rows": args.in_process[1]}
    else:
        return _write(args, checkouts, _paired_runs(args.run, checkouts))
    sources = {side: os.path.join(checkouts[side][1], "src")
               for side in SIDES}
    load = os.getloadavg()[0]
    summary = paired_calls(sources, mode, *inputs, calls=args.calls)
    return _write(args, checkouts, {
        "what": f"{WHAT[mode]}, the first side alternating per call; per "
                "side the median and quartiles (numpy percentile, linear) "
                "of the call's milliseconds, and the calls in which the "
                "change was faster, slower or as fast",
        **named,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__, "python": sys.version.split()[0],
        "loadavg_1m_before": load, **summary})


def _paired_runs(specs: list, checkouts: dict) -> dict:
    """The report of one perfbench run per side for each workload and seed
    of ``specs``, the side that goes first alternating."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = directions(json.load(fh))
    runs = []
    for spec in specs:
        workload, _, seeds = spec.partition(":")
        for i, seed in enumerate(seed_range(seeds)):
            for side in order(i):
                run = {"workload": workload, "seed": seed, "side": side,
                       "first": order(i)[0],
                       **_run(checkouts[side][1], workload, seed)}
                runs.append(run)
                print(f"{workload} seed {seed} {side}: "
                      f"returncode {run['returncode']}, correct "
                      f"{run['correct']}", file=sys.stderr, flush=True)
    settings = next((r["settings"] for r in runs if "settings" in r), {})
    return {
        "what": f"perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                "--trace 0, one run per side per seed, the first side "
                "alternating; per side the median and quartiles (numpy "
                "percentile, linear) of each end-to-end metric, and per "
                "metric the pairs in which the change read better, worse "
                "or the same",
        "nproc": settings.get("nproc", os.cpu_count()),
        "blas_threads": settings.get("blas_threads"),
        "numpy": settings.get("numpy"), "python": settings.get("python"),
        "runs": runs, "workloads": summarize(runs, better)}


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
