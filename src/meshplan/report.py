"""Report emission: metric rows as CSV, full bundles as JSON.

Field order is pinned so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import astuple, fields
from pathlib import Path as FsPath

from .channels import ChannelAssignment
from .pipeline import PipelineResult, SweepRow, result_row

CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))

ASSIGNMENT_COLUMNS = ("link", "channel", "frame")


def rows_to_csv(rows: list[SweepRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(astuple(r) for r in rows)
    return out.getvalue()


def assignment_table(asg: ChannelAssignment) -> list[dict]:
    return [{"link": l, "channel": c, "frame": f}
            for l, (c, f) in enumerate(zip(asg.channel_of, asg.frame_of))]


def assignment_to_csv(asg: ChannelAssignment) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ASSIGNMENT_COLUMNS)
    for row in assignment_table(asg):
        writer.writerow([row[c] for c in ASSIGNMENT_COLUMNS])
    return out.getvalue()


def render_report(obj: PipelineResult | list[SweepRow], fmt: str) -> str:
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    if isinstance(obj, PipelineResult):
        if fmt == "csv":
            return rows_to_csv([result_row(obj)])
        return json.dumps(obj.to_dict(), indent=2, sort_keys=False) + "\n"
    if fmt == "csv":
        return rows_to_csv(obj)
    return json.dumps([r.to_dict() for r in obj], indent=2) + "\n"


def emit_report(obj: PipelineResult | list[SweepRow], fmt: str,
                path: str | FsPath) -> str:
    """Render and write a report; returns the written text."""
    text = render_report(obj, fmt)
    p = FsPath(path)
    try:
        p.write_text(text)
    except OSError as e:
        raise OSError(f"cannot write report to {p}: {e}") from e
    return text
