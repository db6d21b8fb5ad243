"""Report emission: metric rows and channel assignments as CSV, every report
as JSON through the schema codec.

Field order is pinned so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
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


def _dump(v, pad: str) -> str:
    """v, a ``to_json`` value, as ``json.dumps(v, indent=2)`` writes it,
    nested at indent pad.

    The standard encoder writes each element through Python code whenever
    ``indent`` is set; a list of plain ints, finite floats or strings is
    written here with one join, and such lists are most of a bundle.
    """
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = pad + "  "
        body = (",\n" + inner).join([encode_basestring_ascii(k) + ": " + _dump(x, inner)
                                       for k, x in v.items()])
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(v, list):
        if not v:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        kinds = set(map(type, v))
        if kinds == {int}:
            body = sep.join(map(int.__repr__, v))
        elif kinds == {float} and all(map(math.isfinite, v)):
            body = sep.join(map(float.__repr__, v))
        elif kinds == {str}:
            body = sep.join(map(encode_basestring_ascii, v))
        else:
            body = sep.join([_dump(x, inner) for x in v])
        return "[\n" + inner + body + "\n" + pad + "]"
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
        return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"
    raise TypeError(f"{type(v).__name__} is not a JSON value")


Report = PipelineResult | AssignmentReport | list[SweepRow]


def render_report(obj: Report, fmt: str) -> str:
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    if fmt == "json":
        return _dump(to_json(obj), "") + "\n"
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
