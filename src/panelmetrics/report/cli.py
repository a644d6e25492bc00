"""Command-line entry points for the report pipeline.

Subcommands map to pipeline stages: describe, unitroot, hausman, and
estimate run their stage alone; run executes everything the config
enables.  Exit codes: 0 success, 1 configuration error, 2 stage
failure, 3 I/O or network error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import FORMATS, ConfigError, load_config
from .pipeline import IngestError, PipelineIOError, fetch_configured, run_pipeline, write_ingested

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STAGE = 2
EXIT_IO = 3

_STAGE_COMMANDS = {
    "describe": ("describe", "correlation"),
    "unitroot": ("unitroot",),
    "hausman": ("hausman",),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelmetrics",
        description="Config-driven panel analysis: tables from a CSV or indicator API.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML configuration file")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument(
            "--format",
            choices=FORMATS,
            default=None,
            help="restrict output to one format",
        )
        return p

    add("fetch", "download configured indicators into the cache")
    add("ingest", "read (or fetch) and merge the panel, write it for inspection")
    add("describe", "descriptive statistics and correlation tables")
    add("unitroot", "panel unit-root battery table")
    add("hausman", "fixed-versus-random effects contrast table")
    estimate = add("estimate", "one dynamic estimator's table")
    estimate.add_argument("--method", choices=("fmols", "gmm"), required=True)
    add("run", "full pipeline (fetch when configured, then every configured stage)")
    return parser


def _load(args):
    config = load_config(args.config)
    stages = None
    if args.command in _STAGE_COMMANDS:
        stages = _STAGE_COMMANDS[args.command]
    elif args.command == "estimate":
        stages = (args.method,)
    return config.with_overrides(
        out_dir=args.out,
        formats=[args.format] if args.format else None,
        stages=stages,
    )


def _cmd_fetch(config, base_dir) -> int:
    if config.data.kind != "fetch":
        print("config data source is a file; nothing to fetch", file=sys.stderr)
        return EXIT_CONFIG
    failures = 0
    for outcome in fetch_configured(config, base_dir):
        code = outcome.descriptor.code
        if outcome.ok:
            origin = "cache" if outcome.from_cache else f"{outcome.pages} page(s)"
            print(f"{code}: {outcome.path} ({origin})")
        else:
            failures += 1
            print(f"{code}: FAILED: {outcome.error}", file=sys.stderr)
    return EXIT_IO if failures else EXIT_OK


def _cmd_ingest(config, base_dir) -> int:
    path = write_ingested(config, base_dir)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_pipeline(config, base_dir) -> int:
    bundle = run_pipeline(config, base_dir=base_dir, write=True)
    for stage, entry in bundle.manifest["artifacts"].items():
        for fmt in entry:
            print(f"wrote {os.path.join(bundle.out_dir, entry[fmt]['path'])}")
    print(f"wrote {os.path.join(bundle.out_dir, 'manifest.json')}")
    for stage, message in bundle.errors.items():
        print(f"stage {stage} failed: {message}", file=sys.stderr)
    return EXIT_STAGE if bundle.failed else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load(args)
        base_dir = os.path.dirname(os.path.abspath(args.config))
        if args.command == "fetch":
            return _cmd_fetch(config, base_dir)
        if args.command == "ingest":
            return _cmd_ingest(config, base_dir)
        return _cmd_pipeline(config, base_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IngestError as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except PipelineIOError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
