"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors, 2 on data/model/config errors
and on sizes that cannot be allocated.
"""

import argparse
import json
import logging
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

    p = sub.add_parser("synth", help="write a synthetic train/test CSV pair")
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--rho", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-fraction", type=float, default=0.2)

    p = sub.add_parser("train", help="fit an ensemble from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--model", default=None, help="model output path")
    p.add_argument("--out", default=None, help="report output path")

    p = sub.add_parser("predict", help="score new rows with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="evaluate a saved model on labeled data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="grid search over config value lists")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--model", default=None, help="final model output path")
    p.add_argument("--out", default=None, help="report output path")

    return parser


def _load_run_config(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.workers is not None:
        cfg.workers = args.workers
    if args.model is not None:
        cfg.model_out = args.model
    if args.out is not None:
        cfg.report_out = args.out
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
            train_path, test_path = pipeline.run_synth(
                args.n, args.m, args.k, args.rho, args.seed,
                args.test_fraction, args.out)
            print(train_path)
            print(test_path)
        elif args.command == "train":
            outcome = pipeline.run_train(_load_run_config(args))
            print(f"model: {outcome.model_path}")
            print(f"report: {outcome.report_path}")
            print(f"test weighted AUROC: {outcome.report['weighted_auroc']:.4f}")
        elif args.command == "predict":
            n = pipeline.run_predict(args.model, args.data, args.out)
            print(f"wrote {n} predictions to {args.out}")
        elif args.command == "evaluate":
            report = pipeline.run_evaluate(args.model, args.data, args.out)
            print(json.dumps(report, indent=2, sort_keys=True))
        elif args.command == "sweep":
            outcome = pipeline.run_sweep(_load_run_config(args))
            print(f"best point: {outcome['best']}")
            print("test weighted AUROC: "
                  f"{outcome['final_report']['weighted_auroc']:.4f}")
    except GraphBoostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the size that it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
