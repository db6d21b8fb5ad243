"""Report emission: metric rows and channel assignments as CSV, every report
as JSON through the schema codec.

Field order is pinned so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path as FsPath

from .channels import ChannelAssignment
from .pipeline import PipelineResult, SweepRow, result_row
from .scenario import Scenario
from .schema import to_json

CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))

ASSIGNMENT_COLUMNS = ("link", "channel", "frame")


@dataclass(frozen=True)
class AssignmentReport:
    """What ``meshplan assign`` writes: a plan and the scenario it planned."""
    scenario: Scenario
    protocol: str
    assignment: ChannelAssignment


def _csv(header: tuple[str, ...], rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def rows_to_csv(rows: list[SweepRow]) -> str:
    return _csv(CSV_COLUMNS, map(attrgetter(*CSV_COLUMNS), rows))


def assignment_to_csv(asg: ChannelAssignment) -> str:
    return _csv(ASSIGNMENT_COLUMNS, ((l, c, f) for l, (c, f)
                                     in enumerate(zip(asg.channel_of, asg.frame_of))))


Report = PipelineResult | AssignmentReport | list[SweepRow]


def render_report(obj: Report, fmt: str) -> str:
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    if fmt == "json":
        return json.dumps(to_json(obj), indent=2) + "\n"
    if isinstance(obj, PipelineResult):
        return rows_to_csv([result_row(obj)])
    if isinstance(obj, AssignmentReport):
        return assignment_to_csv(obj.assignment)
    return rows_to_csv(obj)


def emit_report(obj: Report, fmt: str, path: str | FsPath) -> str:
    """Render and write a report; returns the written text."""
    text = render_report(obj, fmt)
    p = FsPath(path)
    try:
        p.write_text(text, encoding="utf-8")
    except OSError as e:
        raise OSError(f"cannot write report to {p}: {e}") from e
    return text
