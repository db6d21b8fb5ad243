"""Command line front end.

Subcommands mirror the two evaluation experiments plus single runs and
assignment-only planning:

    meshplan run            --scenario REF [--protocol P] [--out F] [--format csv|json]
    meshplan sweep-channels --scenario REF --channels 1,2,3 [--seeds 1,2] ...
    meshplan sweep-time     --scenario REF --horizons 5,10 [--seeds 1,2] ...
    meshplan assign         --scenario REF [--protocol P] ...

REF is a preset name (paper-ring-4, paper-table1) or a scenario file path.
Exit codes: 0 ok, 2 parse error, 3 validation error, 4 contract error,
5 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ContractError, PipelineError, ScenarioParseError
from .pipeline import PROTOCOLS, plan, run_pipeline, sweep_channels, sweep_time
from .report import AssignmentReport, emit_report, render_report
from .scenario import load_scenario

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CONTRACT = 4
EXIT_IO = 5


def _list_of(item):
    """An argparse type: a comma-separated list, each entry read by item."""
    def parse(text: str) -> list:
        return [item(x) for x in text.split(",") if x.strip()]
    parse.__name__ = f"{item.__name__} list"  # argparse names it in errors
    return parse


def _add_common(p: argparse.ArgumentParser, protocols: bool = True) -> None:
    p.add_argument("--scenario", required=True,
                   help="preset name or scenario file path")
    if protocols:
        p.add_argument("--protocol", choices=PROTOCOLS, default="ccmca")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="meshplan",
                                     description="Mesh network planning and simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline once")
    _add_common(p_run)

    for name, sweep, option, item, default, what in (
            ("sweep-channels", sweep_channels, "--channels", int, [1, 2, 3, 4, 5],
             "vary the number of channels"),
            ("sweep-time", sweep_time, "--horizons", float, [5, 10, 15, 20, 25],
             "vary the simulation horizon in seconds")):
        p = sub.add_parser(name, help=what)
        _add_common(p, protocols=False)
        p.add_argument(option, dest="points", metavar=option[2:].upper(),
                       type=_list_of(item), default=default,
                       help=f"comma-separated {option[2:]} (default {default[0]}..{default[-1]})")
        p.add_argument("--seeds", type=_list_of(int), default=None,
                       help="comma-separated seeds (default: scenario seed)")
        p.add_argument("--protocol", choices=PROTOCOLS, default=None,
                       help="restrict to one protocol (default: both)")
        p.set_defaults(sweep=sweep)

    p_a = sub.add_parser("assign", help="channel assignment only, no simulation")
    _add_common(p_a)

    return parser


def _emit(obj, fmt: str, out: str | None) -> None:
    if out:
        emit_report(obj, fmt, out)
        return
    text = render_report(obj, fmt)
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError as e:  # a scenario name the terminal's encoding lacks
        raise OSError(f"cannot write report to stdout: {e}") from e


def _warn(message: str) -> None:
    print(f"meshplan: warning: {message}", file=sys.stderr)


def _warn_about(routes) -> None:
    """Say on stderr when routing did not converge or blocked flows."""
    if not routes.converged:
        _warn("routing did not converge; using the last route table")
    if routes.blocked:
        _warn(f"{len(routes.blocked)} flow(s) blocked by the load threshold")


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    result = run_pipeline(scenario, args.protocol)
    _warn_about(result.routes)
    _emit(result, args.format, args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    protocols = (args.protocol,) if args.protocol else PROTOCOLS
    _emit(args.sweep(scenario, args.points, args.seeds, protocols), args.format, args.out)
    return EXIT_OK


def _cmd_assign(args) -> int:
    scenario = load_scenario(args.scenario)
    *_, routes, assignment = plan(scenario, args.protocol)
    _warn_about(routes)
    _emit(AssignmentReport(scenario, args.protocol, assignment), args.format, args.out)
    return EXIT_OK


_COMMANDS = {"run": _cmd_run, "sweep-channels": _cmd_sweep,
             "sweep-time": _cmd_sweep, "assign": _cmd_assign}


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, PipelineError) and exc.__cause__ is not None:
        return _exit_code(exc.__cause__)
    if isinstance(exc, ScenarioParseError):
        return EXIT_PARSE
    if isinstance(exc, ValueError):  # ConfigurationError is one
        return EXIT_VALIDATION
    if isinstance(exc, ContractError):
        return EXIT_CONTRACT
    if isinstance(exc, OSError):
        return EXIT_IO
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as e:  # mapped onto the exit-code contract
        print(f"meshplan: error: {e}", file=sys.stderr)
        return _exit_code(e)


if __name__ == "__main__":
    sys.exit(main())
