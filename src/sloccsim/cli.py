"""Command-line driver: one subcommand per experiment family, CSV output.

Exit codes: 0 on success, 2 for configuration problems, 3 for numerical or
degenerate-input failures, and 141 (128 + SIGPIPE, with nothing on stderr)
when the reader of a piped stdout leaves early.  Output goes to stdout
unless --out names a file; a relative --out is placed under
$SLOCCSIM_OUT_DIR when that variable is set.  An --out that cannot be
written (a directory, or a path under a regular file) is a configuration
problem: one ``config error: cannot write`` line and exit 2, before anything
is computed.  Its parent directory is made then, but the file itself is
opened only once the run has succeeded, and the rows are streamed into it
(or to stdout) one block of lines at a time; a write that fails there, on a
full device say, ends the same way.  The subcommand decides the scenario; a
scenario key in the config file is validated but does not override it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from .config import ExperimentConfig, load_config_file, resolve
from .errors import ConfigError
from .sweeps import render_csv, run_scenario

ENV_OUT_DIR = "SLOCCSIM_OUT_DIR"

_COMMANDS = (
    ("phase-sweep", "sweep the injected phase and re-estimate it from counts"),
    ("beta-sweep", "sweep the splitting angle at fixed phases"),
    ("mixture-sweep", "sweep a two-component mixture weight and re-estimate it"),
    ("calibrate-plate", "tabulate plate displacement against added phase"),
    ("counts-demo", "emit raw coincidence tallies per setting"),
    ("tomography-demo", "tomograph prepared states and fit the noise model"),
)

_COMMAND_TO_SCENARIO = {name: name for name, _ in _COMMANDS}
_COMMAND_TO_SCENARIO["calibrate-plate"] = "plate-calibration"


@functools.cache  # one parser per process: parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sloccsim",
        description=(
            "Simulate a two-particle coincidence experiment that reads the "
            "exchange phase off post-selected entanglement."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name, help_text in _COMMANDS:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--config", metavar="PATH", default=None, help="config file")
        sub.add_argument(
            "--seed", type=int, default=None, metavar="U64", help="override the run seed"
        )
        sub.add_argument(
            "--out",
            metavar="PATH",
            default=None,
            help="write CSV here instead of stdout",
        )
        sub.add_argument(
            "--ideal", action="store_true", help="force visibility 1 (no noise)"
        )
    return parser


def _writable_out(out: str | None) -> Path | None:
    """The --out target with its parent directory made; ConfigError if it cannot be written."""
    if out is None:
        return None
    path = Path(out)
    env_dir = os.environ.get(ENV_OUT_DIR)
    if env_dir and not path.is_absolute():
        path = Path(env_dir) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")
    return path


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config_file(args.config) if args.config else ExperimentConfig()
        cfg = resolve(
            raw,
            scenario=_COMMAND_TO_SCENARIO[args.command],
            seed=args.seed,
            ideal=args.ideal,
        )
        target = _writable_out(args.out)
        header, rows = run_scenario(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        with nullcontext(sys.stdout) if target is None else target.open("w", encoding="utf-8") as out:
            render_csv(header, rows, out)
            out.flush()  # stdout may hold its last block until here
    except OSError as exc:
        if target is None:  # drop what stdout still buffers, so that the exit flush cannot fail again
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141  # the reader has gone: end quietly, as a SIGPIPE would
        print(f"config error: cannot write {target or 'standard output'}: {exc}", file=sys.stderr)
        return 2
    return 0
