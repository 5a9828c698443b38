"""Command-line front end: run scenarios and infer patterns from measured samples.

A scatter study is a scenario whose attack kind is infer_pattern (preset
hornet-scatter); `run --out` writes its samples to <name>-<seed>-scatter.csv.

Exit codes: 0 on success outcomes, 2 when an attack run fails (victim never
visible, non-convergence, empty region), 1 on usage or configuration errors.
Set GEOLEAK_LOG to debug, info, warning, error (the default) or critical, in
any case, for diagnostics; any other value is a configuration error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .harness import Scenario, load_samples_csv, run_suite
from .jsonio import from_json, to_json
from .obfuscation import infer_pattern
from .scenarios import PRESETS, preset

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ATTACK_FAILED = 2

_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever sys.stderr is when a record is emitted, so a caller
    that swaps or closes stderr between in-process runs never strands it."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _):
        pass


def _configure_logging() -> None:
    """Set the geoleak logger's level from GEOLEAK_LOG, raising ValueError if it
    names none of _LOG_LEVELS, and give it one stderr handler; repeated calls
    add no handler, and the root logger is untouched."""
    level = os.environ.get("GEOLEAK_LOG", "error")
    if level.lower() not in _LOG_LEVELS:
        raise ValueError(f"GEOLEAK_LOG must be one of {', '.join(_LOG_LEVELS)} (any case), got {level!r}")
    logger = logging.getLogger("geoleak")
    logger.setLevel(level.upper())
    if not any(isinstance(h, _StderrHandler) for h in logger.handlers):
        logger.addHandler(_StderrHandler())


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; here 2 is reserved for
    # attack-failure outcomes
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geoleak", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="run a scenario end to end")
    run.add_argument(
        "--scenario",
        required=True,
        help=f"scenario JSON file, or preset:<name> ({', '.join(sorted(PRESETS))})",
    )
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--out", type=Path, default=None, help="directory for GeoJSON/CSV artifacts")
    run.add_argument("--reps", type=int, default=1, help="repetitions with derived seeds seed+i")

    infer = sub.add_parser("infer", help="infer a pattern from a samples CSV")
    infer.add_argument("--samples", type=Path, required=True, help="CSV with true_m,shown_m columns")
    return parser


def _load_scenario(spec: str):
    if spec.startswith("preset:"):
        return preset(spec.removeprefix("preset:"))
    with open(spec) as fh:
        return from_json(Scenario, json.load(fh))


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    rows, summaries = run_suite([scenario], args.reps, out_dir=args.out)
    for r in rows:
        err = "-" if r.localization_error is None else f"{r.localization_error:.2f} m"
        print(f"{r.scenario} seed={r.seed} outcome={r.outcome} error={err} "
              f"queries={r.queries} victim_profile_queries={r.victim_profile_queries}")
    for s in summaries:
        med = "-" if s.median_error is None else f"{s.median_error:.2f} m"
        print(f"{s.scenario}: {s.runs} runs, success rate {s.success_rate:.2f}, median error {med}")
    return EXIT_OK if all(r.outcome == "success" for r in rows) else EXIT_ATTACK_FAILED


def _cmd_infer(args) -> int:
    samples = load_samples_csv(args.samples)
    inferred = infer_pattern(samples)
    print(json.dumps(to_json(inferred), indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        _configure_logging()
        args = build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_infer(args)
    except (OSError, ValueError) as exc:
        print(f"geoleak: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
