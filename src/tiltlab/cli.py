"""Command-line entry point.

Verbs:
  run       execute the experiment named in the config and write reports
  validate  parse and validate the config, then exit
  sweep     run a counterexample sweep config (kind search_counterexample)

Flags: --config <path>, --seed <int>, --out <dir>, --override key=value
(repeatable), --jobs <int> (at least 1; above 1 only for kind
search_counterexample, the one kind that runs in parallel).  Exit status:
0 clean, 2 when the verdict is multiple-found or the sweep emitted
candidates, 1 on any error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .configfile import (
    apply_overrides,
    build_experiment,
    parse_document,
    render_document,
)
from .errors import ConfigError
from .reporting import RunOutcome, error_outcome, run_experiment


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltlab",
        description="minimax fixed-point laboratory for tilted displacement objectives",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "validate", "sweep"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="experiment config path")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    return parser


def _load_document(args) -> dict[str, str]:
    text = Path(args.config).read_text(encoding="utf-8")
    doc = parse_document(text)
    doc = apply_overrides(doc, args.override)
    if args.seed is not None:
        doc["seed"] = str(args.seed)
    if args.out is not None:
        doc["out"] = args.out
    return doc


def _write_outcome(out: str, outcome: RunOutcome) -> Path:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.txt"
    report_path.write_text(render_document(outcome.report))
    for table in outcome.tables:
        (out_dir / f"{table.name}.tsv").write_text(table.render())
    return report_path


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 1
    try:
        doc = _load_document(args)
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = build_experiment(doc)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.verb != "validate":  # a run refused here leaves a partial report too
            _write_outcome(doc.get("out", "out"), error_outcome(None, exc))
        return 1
    if args.jobs > 1 and cfg.kind != "search_counterexample":
        print("error: --jobs applies only to kind = search_counterexample", file=sys.stderr)
        return 1

    if args.verb == "validate":
        print("ok")
        return 0
    if args.verb == "sweep" and cfg.kind != "search_counterexample":
        print(
            "error: the sweep verb needs kind = search_counterexample",
            file=sys.stderr,
        )
        return 1

    try:
        outcome = run_experiment(cfg, jobs=args.jobs)
    except Exception as exc:  # runtime failure: partial report, exit 1
        outcome = error_outcome(cfg, exc)
        path = _write_outcome(cfg.out, outcome)
        print(f"error: {exc} (partial report at {path})", file=sys.stderr)
        return 1
    path = _write_outcome(cfg.out, outcome)
    print(f"report written to {path}")
    return outcome.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
