"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors, 2 on data/model/config errors
and on sizes that cannot be allocated. A reader that closes stdout early
(``graphboost evaluate ... | head -1``) ends the command with exit code 1,
as Python's documentation does for EPIPE, and without a traceback.
"""

import argparse
import json
import logging
import os
import sys

from .config import load_config
from .errors import GraphBoostError
from . import pipeline


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphboost",
                     description="Adaptive-boosted graph neural "
                                 "classification for tabular data")
    parser.add_argument("--verbose", action="store_true",
                        help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    # The options of the two commands that fit, train and sweep. Each
    # option but --config overrides the config field named by its dest.
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--config", required=True)
    fitting.add_argument("--seed", type=int)
    fitting.add_argument("--workers", type=int)
    fitting.add_argument("--model", dest="model_out", help="model output path")
    fitting.add_argument("--out", dest="report_out", help="report output path")

    p = sub.add_parser("synth", help="write a synthetic train/test CSV pair")
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--rho", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-fraction", type=float, default=0.2)

    sub.add_parser("train", parents=[fitting],
                   help="fit an ensemble from a config file")

    p = sub.add_parser("predict", help="score new rows with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="evaluate a saved model on labeled data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)

    sub.add_parser("sweep", parents=[fitting],
                   help="grid search over config value lists")

    return parser


def _load_run_config(args):
    cfg = load_config(args.config)
    for field in ("seed", "workers", "model_out", "report_out"):
        if getattr(args, field) is not None:
            setattr(cfg, field, getattr(args, field))
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")

    try:
        if args.command == "synth":
            lines = pipeline.run_synth(args.n, args.m, args.k, args.rho,
                                       args.seed, args.test_fraction,
                                       args.out)
        elif args.command == "train":
            outcome = pipeline.run_train(_load_run_config(args))
            lines = (f"model: {outcome.model_path}",
                     f"report: {outcome.report_path}",
                     "test weighted AUROC: "
                     f"{outcome.report['weighted_auroc']:.4f}")
        elif args.command == "predict":
            n = pipeline.run_predict(args.model, args.data, args.out)
            lines = (f"wrote {n} predictions to {args.out}",)
        elif args.command == "evaluate":
            report = pipeline.run_evaluate(args.model, args.data, args.out)
            lines = (json.dumps(report, indent=2, sort_keys=True),)
        elif args.command == "sweep":
            outcome = pipeline.run_sweep(_load_run_config(args))
            lines = (f"best point: {outcome['best']}",
                     "test weighted AUROC: "
                     f"{outcome['final_report']['weighted_auroc']:.4f}")
    except GraphBoostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the size that it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    try:
        print(*lines, sep="\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull, so that the flush
        # at exit finds no pipe to fail on and prints nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
