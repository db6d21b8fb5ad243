"""Correctness checks run on every operation's output, outside the timed
region. Each returns a list of problems; an empty list means the output
passed."""

from __future__ import annotations

import csv
import io
import json
from statistics import fmean

# goodput.total and the offered demand sum the same rates in different orders
_SUM_SLACK = 1e-12


def check_result(result, scenario, json_text: str) -> list[str]:
    """One pipeline bundle and its JSON report."""
    from meshplan import PipelineResult

    problems = []
    m = result.metrics
    if m.generated != m.delivered + m.dropped + m.in_flight:
        problems.append(f"conservation: {m.generated} != {m.delivered} + {m.dropped} "
                        f"+ {m.in_flight}")
    flows = m.per_flow.values()
    in_flight = [st.generated - st.delivered - st.dropped for st in flows]
    if any(n < 0 for n in in_flight):
        problems.append("conservation: a flow delivered or dropped more than it generated")
    sums = (sum(st.generated for st in flows), sum(st.delivered for st in flows),
            sum(st.dropped for st in flows), sum(in_flight))
    if sums != (m.generated, m.delivered, m.dropped, m.in_flight):
        problems.append(f"conservation: per-flow sums {sums} differ from the totals")
    if not 0.0 <= m.pdr <= 1.0:
        problems.append(f"pdr {m.pdr} outside [0, 1]")
    demand = scenario.traffic.total_demand_bps()
    if result.goodput.total > demand * (1.0 + _SUM_SLACK):
        problems.append(f"goodput {result.goodput.total} exceeds demand {demand}")
    asg = result.assignment
    for pair, route in result.routes.routes.items():
        for link in route.links:
            if asg.channel_of[link] is None or asg.frame_of[link] is None:
                problems.append(f"routed link {link} of {pair} has no channel/frame")
    if PipelineResult.from_dict(json.loads(json_text)).to_dict() != result.to_dict():
        problems.append("JSON bundle does not round-trip through PipelineResult.from_dict")
    return problems


def check_sweep(rows, csv_text: str, channels: list[int], seeds: list[int]) -> list[str]:
    """The rows of sweep_channels(...) and their CSV report."""
    from meshplan.report import CSV_COLUMNS

    problems = []
    per_group = len(seeds) + (1 if len(seeds) > 1 else 0)
    if len(rows) != len(channels) * 2 * per_group:
        problems.append(f"{len(rows)} rows, expected {len(channels) * 2 * per_group}")
    for r in rows:
        if r.delivered + r.dropped > r.generated:
            problems.append(f"conservation: row {r} delivered + dropped > generated")
        if not 0.0 <= r.pdr <= 1.0:
            problems.append(f"pdr {r.pdr} outside [0, 1] in row {r}")
    for i in range(0, len(rows), per_group):
        group = rows[i:i + per_group]
        if len(seeds) > 1 and group:
            mean, runs = group[-1], group[:-1]
            for field in ("generated", "delivered", "dropped", "avg_delay_s", "pdr",
                          "throughput_pkts"):
                if getattr(mean, field) != fmean(getattr(r, field) for r in runs):
                    problems.append(f"mean row {field} is not the mean of its group")
    parsed = list(csv.reader(io.StringIO(csv_text)))
    if not parsed or tuple(parsed[0]) != CSV_COLUMNS:
        problems.append("CSV header differs from CSV_COLUMNS")
    elif [[str(r.to_dict()[c]) for c in CSV_COLUMNS] for r in rows] != parsed[1:]:
        problems.append("CSV body does not reproduce the rows")
    return problems


def check_sweep_row(row, result) -> list[str]:
    """A sweep row against a direct run_pipeline call with the same arguments."""
    m = result.metrics
    direct = (m.generated, m.delivered, m.dropped, m.avg_delay_s, m.pdr, m.throughput_pkts)
    swept = (row.generated, row.delivered, row.dropped, row.avg_delay_s, row.pdr,
             row.throughput_pkts)
    if direct != swept:
        return [f"sweep row {row} differs from a direct run: {direct}"]
    return []
