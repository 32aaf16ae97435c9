"""``repro-obs`` — offline telemetry trace inspection.

``repro-obs report --trace run.jsonl`` reloads a JSONL trace written by
``rsu-experiments run --telemetry --trace-out run.jsonl`` (or by
:func:`repro.obs.write_jsonl`) and prints the summary table; ``--format
jsonl`` re-emits the trace instead.  The same commands are
reachable as the ``obs`` subcommand of ``rsu-experiments``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.obs.exporters import load_trace, render_report
from repro.util.errors import ReproError


def add_obs_parser(subparsers) -> None:
    """Attach the ``report`` subcommand to an argparse subparsers object."""
    report = subparsers.add_parser(
        "report", help="summarize a JSONL telemetry trace"
    )
    report.add_argument(
        "--trace", required=True, help="path to a telemetry JSONL trace"
    )
    report.add_argument(
        "--format",
        choices=("table", "jsonl"),
        default="table",
        help="output format (default: human table)",
    )
    report.set_defaults(obs_command=run_report)


def run_report(args: argparse.Namespace) -> int:
    telemetry = load_trace(args.trace)
    if args.format == "jsonl":
        from repro.obs.exporters import to_jsonl

        sys.stdout.write(to_jsonl(telemetry))
    else:
        print(render_report(telemetry))
    return 0


def _main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-obs", description="telemetry trace tools"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    add_obs_parser(subparsers)
    args = parser.parse_args(argv)
    return args.obs_command(args)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
