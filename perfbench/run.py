"""Fit and predict benchmark for graphboost.

    python3 perfbench/run.py --workload fit-continuous --seed 1 --seconds 15

Runs one workload (fit-continuous, fit-mixed or predict) as a closed loop
from this process, checks its outputs against a dense oracle, and prints
the run's settings, every metric by name and unit, and as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports per-layer metrics
from timers wrapped around the program's public functions. The program is
imported from ``src/`` of the checkout this file sits in. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKERS = {"fit-continuous": 0, "fit-mixed": 2, "predict": 0}
END_TO_END = (("setup_s", "s"), ("command_s", "s"), ("test_auroc", "1"),
              ("predict_one_p50_ms", "ms"), ("predict_one_p90_ms", "ms"),
              ("peak_rss_mb", "MB"))


def _limit_threads(workers: int) -> dict:
    """One BLAS/OpenMP thread per process, so that the parent plus two pool
    workers stay within two cores; the program's dense products (N x 16)
    are too small to gain from more. Must run before numpy loads; spawned
    workers inherit the environment."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": 1,
            "workers": workers}


def _git_sha() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"  # not a git checkout, or a packed ref


def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except OSError:
            continue  # exited meanwhile
    return out


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreePeakRss:
    """Sum over this process and its descendants of each one's own peak
    resident set (VmHWM), sampled every ``interval`` seconds while active."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        for pid in _descendants(os.getpid()):
            self.peaks[pid] = max(self.peaks.get(pid, 0), _vm_hwm_kb(pid))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()

    def mb(self) -> float:
        return sum(self.peaks.values()) / 1024.0


def _stop_resource_tracker() -> None:
    """A spawn pool starts multiprocessing's resource tracker process; end
    it and wait for it, so that the run leaves no process behind."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _time_setups(wl, count: int) -> list[float]:
    times = []
    for _ in range(count):
        start = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - start)
    return times


def _make_workload(name: str, seed: int, workdir: str):
    import workloads
    if name == "predict":
        return workloads.PredictWorkload(seed, workdir)
    return workloads.FitWorkload(seed, workdir, mixed=name == "fit-mixed",
                                 workers=WORKERS[name])


def run(args, settings: dict) -> tuple[dict, int]:
    import numpy as np
    import tracing
    import workloads

    workdir = os.path.join(HERE, "_work", f"{args.workload}-s{args.seed}-"
                           f"t{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = _make_workload(args.workload, args.seed, workdir)
        setup_times = _time_setups(wl, wl.setups_before)
        rng = np.random.default_rng(args.seed)
        wl.prepare(rng)
        tracer = tracing.Tracer() if args.trace else None

        rounds, failed = [], 0
        with TreePeakRss() as rss:
            start = time.perf_counter()
            while True:
                round_start = time.perf_counter()
                try:
                    rounds.append(wl.run_round(tracer))
                except Exception:
                    # The round's remaining operations cannot run either.
                    traceback.print_exc(file=sys.stderr)
                    failed += wl.ops_per_round()
                took = time.perf_counter() - round_start
                done = len(rounds) + failed // wl.ops_per_round()
                elapsed = time.perf_counter() - start
                if done >= wl.min_rounds and elapsed + took > args.seconds:
                    break
        attempted = done * wl.ops_per_round()
        setup_times += _time_setups(wl, wl.setups_after)
        setup_times += [t for r in rounds for t in r.get("setup_times", ())]

        correct, auroc = True, None
        try:
            if not rounds:
                raise workloads.CheckFailed("no round completed")
            auroc = wl.check(rng)
        except workloads.CheckFailed as exc:
            print(f"# check failed: {exc}", file=sys.stderr)
            correct = False

        latencies = [x for r in rounds for x in r["latencies"]]
        commands = [r["command_s"] for r in rounds]
        e2e = {}
        if rounds:
            if auroc is None:
                auroc = statistics.median(r["test_auroc"] for r in rounds)
            e2e = {"setup_s": statistics.median(setup_times),
                   "command_s": statistics.median(commands),
                   "test_auroc": auroc,
                   "predict_one_p50_ms": 1e3 * statistics.median(latencies),
                   # at least 100 calls, so ten or more lie beyond p90
                   "predict_one_p90_ms": 1e3 * _percentile(latencies, 90),
                   "peak_rss_mb": rss.mb()}
        if args.trace:
            values = tracing.layer_values(tracer, max(len(rounds), 1))
            spans = tracer.spans / max(len(rounds), 1)
            values["trace.command_s"] = e2e.get("command_s", 0.0)
            values["trace.spans"] = spans
            values["trace.overhead_s"] = spans * tracing.wrapper_cost()
            units = dict(tracing.METRICS + tracing.TRACE_METRICS)
            for name, value in e2e.items():  # traced: overhead shows here
                print(f"# traced e2e {name} = {value:.6g} "
                      f"{dict(END_TO_END)[name]}")
        else:
            values, units = e2e, dict(END_TO_END)
        settings.update(rounds=len(rounds), single_calls=len(latencies),
                        setup_s_each=[round(t, 4) for t in setup_times])
        result = {"correct": correct,
                  "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": v, "unit": units[k]}
                              for k, v in values.items()}}
        return result, 0 if correct else 1
    finally:
        _stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    settings = _limit_threads(WORKERS[args.workload])
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import graphboost
    except ImportError as exc:
        print(f"error: cannot import graphboost from {src}: {exc}",
              file=sys.stderr)
        return 2
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(graphboost.__file__)))
    if package_root != src:
        print(f"error: graphboost imported from {graphboost.__file__}, not "
              f"from {src}", file=sys.stderr)
        return 2
    import numpy
    import scipy
    settings.update(git=_git_sha(), numpy=numpy.__version__,
                    scipy=scipy.__version__,
                    python=sys.version.split()[0])

    result, code = run(args, settings)
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in settings.items()))
    print(f"# attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"# metric {name} = {m['value']:.6g} {m['unit']}")
    out_dir = os.path.join(HERE, "_work", "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w") as fh:
        json.dump({"settings": settings, **result}, fh, indent=1)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
