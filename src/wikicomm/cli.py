"""Command-line interface.

Exit codes: 0 success, 2 usage or configuration error, 3 network exhaustion,
4 data invariant violation.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .client import DataError, FetchExhaustedError
from .config import ConfigError, PipelineConfig
from .pipeline import STAGE_ORDER, PipelineStageError, run_pipeline, run_stage

EXIT_CONFIG = 2
EXIT_NETWORK = 3
EXIT_DATA = 4


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wikicomm",
        description="Reconstruct editor communication networks and relate them to quality.",
    )
    parser.add_argument("--version", action="version", version=f"wikicomm, version {__version__}")
    parser.add_argument("--config", help="JSON configuration file.")
    parser.add_argument("--cache", help="Response cache directory (overrides config).")
    parser.add_argument("--offline", action="store_true",
                        help="Never touch the network; cache misses fail.")
    parser.add_argument("-v", "--verbose", action="store_true", help="Log progress to stderr.")
    parser.add_argument("command", choices=[*STAGE_ORDER, "run"],
                        help="One stage, or 'run' for all stages in order.")
    return parser


def _run(args: argparse.Namespace) -> None:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    if args.cache:
        config.cache_dir = args.cache
    if args.offline:
        config.offline = True
    if args.command != "run":
        run_stage(args.command, config)
        print(f"{args.command}: done (outputs in {config.output_dir})")
        return
    run_pipeline(config)
    print(f"run: done (outputs in {config.output_dir})")
    for name in ("variables.csv", "report.txt", "report.json", "bundle_meta.json"):
        path = Path(config.output_dir) / name
        if path.exists():
            print(f"  {path}")


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, PipelineStageError):
        return _exit_code(exc.cause)
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, FetchExhaustedError):
        return EXIT_NETWORK
    if isinstance(exc, (DataError, ValueError, KeyError, ArithmeticError, OSError)):
        return EXIT_DATA
    return 1


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point mapping domain errors to documented exit codes."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help, --version or a usage error
        return int(exc.code or 0)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        _run(args)
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr)
        return 1
    except (PipelineStageError, ConfigError, FetchExhaustedError, DataError,
            ValueError, KeyError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
