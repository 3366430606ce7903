"""Command-line front end.

Subcommands: `run` (permutation sweep from a config file), `gen` (dump a
synthetic dataset as text), `report` (summarize a results CSV and compare
each `X+hier` method with its base `X`). `run` and
`gen` read `--config FILE` and then apply each repeatable `--set
KEY=VALUE` on top, so `--set` wins; the keys are the config-file keys,
e.g. `--set run.perms=1 --set run.seeds=3`.
"""

from __future__ import annotations

import argparse
import sys

from .config import build_experiment_config, parse_config_text
from .experiment import make_tasks, run_experiment
from .metrics import format_summary, headline_lines, read_records, summarize
from .tasks import dump_tasks


def _add_config_args(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="override one config key (repeatable; applied after --config)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiercl",
        description="Grouped continual learning with second-order consolidation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a permutation-sweep experiment")
    _add_config_args(run_p)

    gen_p = sub.add_parser("gen", help="generate and dump a synthetic dataset")
    _add_config_args(gen_p)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", required=True)

    report_p = sub.add_parser("report", help="summarize a results CSV")
    report_p.add_argument("csv", help="path to a results CSV")
    return parser


def _config_from_args(args):
    kv = {}
    if args.config is not None:
        with open(args.config) as fh:
            kv = parse_config_text(fh.read())
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        kv[key.strip()] = value.strip()
    return build_experiment_config(kv)


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    records, summary = run_experiment(cfg)
    print(format_summary(summary))
    print(f"wrote {len(records)} records to {cfg.out}")
    return 0


def _cmd_gen(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    cfg = _config_from_args(args)
    tasks = make_tasks(cfg.dataset, args.seed)
    dump_tasks(tasks, args.out)
    print(f"wrote {len(tasks)} tasks to {args.out}")
    return 0


def _cmd_report(args) -> int:
    records = read_records(args.csv)
    if not records:
        raise ValueError(f"{args.csv}: no records")
    summary = summarize(records)
    print("\n".join([format_summary(summary), *headline_lines(summary)]))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "gen": _cmd_gen, "report": _cmd_report}[args.command]
    try:
        return handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
