"""Command line front end.

Two subcommands: `run` executes the configured check suites and prints a
plain-text summary (optionally writing the JSON report), `explain` prints
the formula and validity regime behind a check id.  Invoking the tool with
flags but no subcommand is treated as `run`.

Exit codes: 0 all checks passed (vacuous and approximate zeros count as
passing, with a warning), 1 at least one Nonzero or Error record, 2 invalid
configuration or usage, 3 resource exhaustion.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import __version__
from .report import (
    BACKENDS,
    RING_MODES,
    SUITE_NAMES,
    ConfigError,
    ResourceError,
    RunConfig,
    UnknownId,
    explain,
    list_families,
    run,
)

_ENV_CACHE_DIR = "QLOOP_CACHE_DIR"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qloop",
        description="check loop-algebra identities on finite spin chains "
                    "in exact arithmetic",
    )
    parser.add_argument("--version", action="version",
                        version=f"qloop {__version__}")
    sub = parser.add_subparsers(dest="command")

    run_parser = sub.add_parser(
        "run", help="execute check suites and print a summary")
    _add_run_flags(run_parser)

    explain_parser = sub.add_parser(
        "explain", help="print formula and regime for a check id")
    explain_parser.add_argument("check_id", nargs="?",
                                help="family name, alias, or full check id")
    explain_parser.add_argument("--list", action="store_true",
                                help="list every registered check family")
    return parser


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    # validation lives in RunConfig so the config file goes through the
    # same error path as the flags; argparse only parses shapes here
    parser.add_argument("--backend", default=None, metavar="KIND",
                        help=f"site representation, one of {', '.join(BACKENDS)}")
    parser.add_argument("--N", dest="n_param", type=int, default=None,
                        help="order parameter, at least 2")
    parser.add_argument("--L", dest="length", type=int, default=None,
                        help="chain length")
    parser.add_argument("--Q", dest="q_sectors", type=int, action="append",
                        default=None, metavar="Q",
                        help="charge sector, repeatable; default all 0..N-1")
    parser.add_argument("--ring", default=None, metavar="MODE",
                        help=f"coefficient ring, one of {', '.join(RING_MODES)}")
    parser.add_argument("--suite", dest="suites", action="append",
                        default=None, metavar="NAME",
                        help="suite to run, repeatable; 'all' or one of "
                             f"{', '.join(SUITE_NAMES)}")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes, at most one per core (results "
                             "are identical for any count)")
    parser.add_argument("--cache-dir", dest="cache_dir", default=None,
                        help="divided-power disk cache directory "
                             f"(default ${_ENV_CACHE_DIR})")
    parser.add_argument("--report", dest="report_path", default=None,
                        help="write the JSON report document to this path")
    parser.add_argument("--rescale-audit", dest="rescale_audit",
                        action="store_true", default=None,
                        help="rerun ladder suites on rescaled generators and "
                             "check statuses are unchanged")
    parser.add_argument("--config", dest="config_file", default=None,
                        metavar="FILE",
                        help="key=value file with the same options; "
                             "flags override the file")


_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _parse_bool(value: str) -> bool:
    word = value.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _split_csv(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _split_csv_ints(value: str) -> tuple[int, ...]:
    return tuple(int(part) for part in _split_csv(value))


# config-file key -> (RunConfig field, parser of the value text)
_FILE_KEYS = {
    "backend": ("backend", str),
    "N": ("n_param", int),
    "L": ("length", int),
    "Q": ("q_sectors", _split_csv_ints),
    "ring": ("ring", str),
    "suite": ("suites", _split_csv),
    "suites": ("suites", _split_csv),
    "jobs": ("jobs", int),
    "cache_dir": ("cache_dir", str),
    "report": ("report_path", str),
    "rescale_audit": ("rescale_audit", _parse_bool),
}


def _load_config_file(path: str) -> dict[str, object]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        name, parse = _FILE_KEYS[key]
        try:
            out[name] = parse(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


_ARG_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig))


def _merge_config(args: argparse.Namespace) -> RunConfig:
    kwargs: dict[str, object] = {}
    if args.config_file:
        kwargs.update(_load_config_file(args.config_file))
    for name in _ARG_FIELDS:
        value = getattr(args, name)
        if value is None:
            continue
        if name in ("q_sectors", "suites"):
            value = tuple(value)
        kwargs[name] = value
    if not kwargs.get("cache_dir"):
        env_dir = os.environ.get(_ENV_CACHE_DIR)
        if env_dir:
            kwargs["cache_dir"] = env_dir
    return RunConfig(**kwargs)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = _merge_config(args)
        document = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    for line in document.summary_lines():
        print(line)
    return 0 if document.ok else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    if args.list:
        for family in list_families():
            print(family)
        return 0
    if not args.check_id:
        print("explain: give a check id or --list", file=sys.stderr)
        return 2
    try:
        print(explain(args.check_id))
    except UnknownId:
        print(f"unknown check id: {args.check_id}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help", "--version"):
        argv = ["run"] + argv
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "explain":
        return _cmd_explain(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
