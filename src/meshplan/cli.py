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
import json
import sys
from pathlib import Path

from .errors import (ConfigurationError, ContractError, PipelineError,
                     ScenarioParseError, ScenarioValidationError,
                     UnroutableFlowError)
from .pipeline import PROTOCOLS, plan, run_pipeline, sweep_channels, sweep_time
from .report import assignment_to_csv, emit_report, render_report
from .scenario import load_scenario
from .schema import to_json

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CONTRACT = 4
EXIT_IO = 5


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


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

    p_ch = sub.add_parser("sweep-channels", help="vary the number of channels")
    _add_common(p_ch, protocols=False)
    p_ch.add_argument("--channels", type=_int_list, default=[1, 2, 3, 4, 5],
                      help="comma-separated channel counts (default 1..5)")
    p_ch.add_argument("--seeds", type=_int_list, default=None,
                      help="comma-separated seeds (default: scenario seed)")
    p_ch.add_argument("--protocol", choices=PROTOCOLS, default=None,
                      help="restrict to one protocol (default: both)")

    p_t = sub.add_parser("sweep-time", help="vary the simulation horizon")
    _add_common(p_t, protocols=False)
    p_t.add_argument("--horizons", type=_float_list, default=[5, 10, 15, 20, 25],
                     help="comma-separated horizons in seconds (default 5..25)")
    p_t.add_argument("--seeds", type=_int_list, default=None)
    p_t.add_argument("--protocol", choices=PROTOCOLS, default=None)

    p_a = sub.add_parser("assign", help="channel assignment only, no simulation")
    _add_common(p_a)

    return parser


def _emit(obj, fmt: str, out: str | None) -> None:
    if out:
        emit_report(obj, fmt, out)
    else:
        sys.stdout.write(render_report(obj, fmt))


def _warn(message: str) -> None:
    print(f"meshplan: warning: {message}", file=sys.stderr)


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    result = run_pipeline(scenario, args.protocol)
    if not result.routes.converged:
        _warn("routing did not converge; using the last route table")
    if result.routes.blocked:
        _warn(f"{len(result.routes.blocked)} flow(s) blocked by the load threshold")
    _emit(result, args.format, args.out)
    return EXIT_OK


def _cmd_sweep_channels(args) -> int:
    scenario = load_scenario(args.scenario)
    protocols = (args.protocol,) if args.protocol else PROTOCOLS
    rows = sweep_channels(scenario, args.channels, args.seeds, protocols)
    _emit(rows, args.format, args.out)
    return EXIT_OK


def _cmd_sweep_time(args) -> int:
    scenario = load_scenario(args.scenario)
    protocols = (args.protocol,) if args.protocol else PROTOCOLS
    rows = sweep_time(scenario, args.horizons, args.seeds, protocols)
    _emit(rows, args.format, args.out)
    return EXIT_OK


def _cmd_assign(args) -> int:
    scenario = load_scenario(args.scenario)
    *_, assignment = plan(scenario, args.protocol)
    if args.format == "csv":
        text = assignment_to_csv(assignment)
    else:
        text = json.dumps({"scenario": scenario.name,
                           "protocol": args.protocol,
                           "assignment": to_json(assignment)}, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {"run": _cmd_run, "sweep-channels": _cmd_sweep_channels,
             "sweep-time": _cmd_sweep_time, "assign": _cmd_assign}


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, PipelineError) and exc.__cause__ is not None:
        return _exit_code(exc.__cause__)
    if isinstance(exc, ScenarioParseError):
        return EXIT_PARSE
    if isinstance(exc, (ScenarioValidationError, ConfigurationError, ValueError)):
        return EXIT_VALIDATION
    if isinstance(exc, (ContractError, UnroutableFlowError)):
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
