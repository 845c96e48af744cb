"""Command-line entry point for the verification suites.

Subcommands run one suite each (or ``all``); reports are emitted as JSON or
text.  The exit status is 0 exactly when every executed check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from . import __version__
from .report import combined_report_dict, render_text
from .suites import SUITE_RUNNERS, _check_sections, run_all, run_suite

SUITE_NAMES = tuple(SUITE_RUNNERS)


def _tolerance_scale(text: str) -> float:
    """The --tolerance-scale value: a finite number, at least 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and not negative, got {text}")
    return value


def _seed(text: str) -> int:
    """The --seed value: an integer, at least 0, of no more digits than int()
    converts (``sys.get_int_max_str_digits()``)."""
    try:
        value = int(text)
    except ValueError:
        # A base-10 literal as int() reads one (\d is any Unicode decimal
        # digit): int() refused a well-formed one for its length.
        if re.fullmatch(r"\s*[+-]?\d(?:_?\d)*\s*", text):
            digits = sum(c.isdecimal() for c in text)
            limit = sys.get_int_max_str_digits()
            raise argparse.ArgumentTypeError(f"too many digits: {digits}, at most {limit}") from None
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsystems",
        description="Verify the algebraic laws of many-component quantum systems "
        "in finite-dimensional representations.",
    )
    parser.add_argument("--version", action="version", version=f"qsystems {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="{%s,all}" % ",".join(SUITE_NAMES))

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="write the report here")
        p.add_argument("--format", choices=("text", "json"), default="json")
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument(
            "--tolerance-scale",
            type=_tolerance_scale,
            default=1.0,
            help="multiply documented tolerances (exploratory runs only)",
        )

    for name in SUITE_NAMES:
        add_common(sub.add_parser(name, help=f"run the {name} suite"))
    add_common(sub.add_parser("all", help="run every suite"))
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    _check_sections(doc)
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        config = _load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "all":
            reports = run_all(config, seed=args.seed, tolerance_scale=args.tolerance_scale)
            doc = combined_report_dict(reports, seed=args.seed, tool_version=__version__)
        else:
            doc = run_suite(
                args.command, config.get(args.command), seed=args.seed,
                tolerance_scale=args.tolerance_scale,
            )
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        rendered = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:
        rendered = render_text(doc)
    if args.out:
        try:
            Path(args.out).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if doc["pass"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
