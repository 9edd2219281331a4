"""Command-line front end.

Thin argparse wrapper over the pipeline: every command takes a JSON
config and/or file paths, runs one pipeline entry point, and maps
failures onto stable exit codes so shell scripts can branch on them:

* 0 — success
* 2 — config problem (bad JSON, unknown keys, inconsistent lengths)
* 3 — data problem (missing/corrupt I/Q files or model containers,
  unwritable output paths)
* 4 — numeric failure (non-finite loop state, singular or overflowing
  ridge system)
"""

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .errors import (
    ConfigError,
    LoopRCError,
    NumericOverflowError,
    SingularMatrixError,
    StageError,
)
from .ioformats import read_json_object
from .pipeline import (
    dataset_to_iq_file,
    load_dataset,
    report_fom,
    run_hyperopt,
    run_inference,
    run_sweep,
    run_training,
    validate_config,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_config(path: str) -> dict:
    return read_json_object(path, "config", ConfigError)


def _exit_code_for(exc: LoopRCError) -> int:
    cause = exc.cause if isinstance(exc, StageError) else exc
    if isinstance(cause, (NumericOverflowError, SingularMatrixError)):
        return EXIT_NUMERIC
    if isinstance(cause, ConfigError):
        return EXIT_CONFIG
    return EXIT_DATA


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = validate_config(_load_config(args.config), require_pipeline=False)
    ds = load_dataset(cfg["dataset"])
    dataset_to_iq_file(ds, args.out)
    print(f"wrote {len(ds.bursts)} bursts ({ds.n_classes} classes) to {args.out}")
    print(f"dataset hash: {ds.content_hash()}")
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    result = run_training(_load_config(args.config), out_dir=args.out)
    print(f"test accuracy: {result.metrics.accuracy:.4f}")
    print(f"train seconds: {result.train_seconds:.3f}")
    if args.out is not None:
        print(f"model: {Path(args.out) / 'model.lrcm'}")
        print(f"metrics: {Path(args.out) / 'metrics.json'}")
    return EXIT_OK


def _cmd_infer(args: argparse.Namespace) -> int:
    labels, _ = run_inference(args.model, args.iq, out_path=args.out)
    if args.out is None:
        for i, label in enumerate(labels):
            print(f"{i}\t{label}")
    else:
        print(f"wrote {len(labels)} predictions to {args.out}")
    counts = Counter(labels)
    summary = ", ".join(f"{name}: {counts[name]}" for name in sorted(counts))
    print(f"label counts: {summary}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    rows = run_sweep(_load_config(args.config), out_path=args.out)
    best = max(rows, key=lambda r: r["accuracy"])
    print(f"{len(rows)} runs; best accuracy {best['accuracy']:.4f} at "
          f"transform={best['transform']} n_nodes={best['n_nodes']} k={best['k']} "
          f"d={best['d']} lambda={best['lambda']}")
    if args.out is not None:
        print(f"results: {args.out}")
    return EXIT_OK


def _cmd_hyperopt(args: argparse.Namespace) -> int:
    best_cfg, best, log = run_hyperopt(_load_config(args.config), out_path=args.out, log_path=args.trial_log)
    n_failed = sum(1 for rec in log if rec.failed)
    print(f"{len(log)} trials ({n_failed} failed); best accuracy {best.accuracy:.4f}")
    print(f"best params: {json.dumps(best.params, sort_keys=True)}")
    if args.out is not None:
        print(f"winning config: {args.out}")
    if args.trial_log is not None:
        print(f"trial log: {args.trial_log}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    metrics = read_json_object(args.metrics, "metrics file")
    train_seconds = None
    if args.model is not None:
        from .pipeline import ModelArtifact

        train_seconds = ModelArtifact.load(args.model).metadata.get("train_seconds")
    sys.stdout.write(report_fom(metrics, train_seconds=train_seconds))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="looprc",
        description="delay-loop reservoir experiments on RF bursts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a dataset and write it to an I/Q file")
    p.add_argument("--config", required=True, help="experiment config (dataset section is used)")
    p.add_argument("--out", required=True, help="output I/Q file path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train a model from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="directory for model.lrcm and metrics.json")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", help="classify bursts in an I/Q file with a trained model")
    p.add_argument("--model", required=True, help="model container from 'train'")
    p.add_argument("--iq", required=True, help="I/Q file to classify")
    p.add_argument("--out", default=None, help="CSV of per-burst predictions")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("sweep", help="train over a grid of config axes, write a CSV")
    p.add_argument("--config", required=True, help="config with a 'sweep' section")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("hyperopt", help="search hyperparameters, write the winning config")
    p.add_argument("--config", required=True, help="config with a 'hyperopt' section")
    p.add_argument("--out", default=None, help="path for the winning config JSON")
    p.add_argument("--trial-log", default=None, help="JSONL trial log path")
    p.set_defaults(func=_cmd_hyperopt)

    p = sub.add_parser("report", help="figure-of-merit report from a metrics.json")
    p.add_argument("--metrics", required=True)
    p.add_argument("--model", default=None, help="optional model container, for training latency")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LoopRCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
