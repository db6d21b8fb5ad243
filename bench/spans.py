"""Spans and counters recorded from outside the library.

The tracer wraps public functions where their callers look them up: the
``meshplan.pipeline`` and ``meshplan.routing`` module namespaces,
``Scenario.build_topology``, ``Simulator.step``, and ``render_report`` in
``meshplan.report``, which the benchmark's own op calls. Each wrapped call is
a span (name, op, start, end, parent); ``Simulator.step`` runs ~100k times per
op, so it is only counted. Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its child spans.
Counts read off returned objects are taken when the wrappers come off, after
the op, so that work lands in no span.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter


class Span:
    __slots__ = ("name", "op", "start", "end", "self_s", "parent")

    def __init__(self, name: str, op: int, start: float, parent: int):
        self.name = name
        self.op = op
        self.start = start
        self.end = start
        self.self_s = 0.0   # holds the children's total until the span closes
        self.parent = parent

    def to_dict(self) -> dict:
        return {"name": self.name, "op": self.op, "start_s": self.start,
                "end_s": self.end, "self_s": self.self_s, "parent": self.parent}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._returned: list[tuple[object, object]] = []
        self._calls: list[tuple[str, list[int]]] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append(Span(name, self.op, perf_counter(), parent))

    def end(self) -> None:
        end = perf_counter()
        span = self.spans[self._open.pop()]
        span.end = end
        duration = end - span.start
        span.self_s = duration - span.self_s
        if span.parent >= 0:
            self.spans[span.parent].self_s += duration

    # -- wrapping the library --------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name: str, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end()
            if on_return is not None:
                self._returned.append((on_return, out))
            return out
        return traced

    def _count_wrapper(self, method, name: str):
        """Counts calls of a method that takes no arguments. A list cell is
        several times cheaper to bump than a Counter entry, which matters at
        ~100k calls per op."""
        calls = [0]
        self._calls.append((name, calls))

        @functools.wraps(method)
        def counted(obj):
            calls[0] += 1
            return method(obj)
        return counted

    def install(self) -> None:
        from meshplan import pipeline, report, routing
        from meshplan.scenario import Scenario
        from meshplan.sim import Simulator

        spans = [
            (pipeline, "run_pipeline", "pipeline.run", self._on_pipeline),
            (pipeline, "sweep_channels", "pipeline.sweep", None),
            (report, "render_report", "report.render", None),
            (Scenario, "build_topology", "topology.build", None),
            (pipeline, "build_interference_map", "topology.interference",
             self._on_interference),
            (pipeline, "fixed_point_route", "routing.fixed_point", None),
            (pipeline, "cost_table", "routing.cost", None),
            (pipeline, "routed_link_loads", "routing.routed_loads", None),
            (pipeline, "order_links", "channels.assign", None),
            (pipeline, "schedule_all_frames", "channels.assign", None),
            (pipeline, "baseline_assign", "channels.assign", None),
            (pipeline, "run_simulation", "sim.run", self._on_simulation),
            (pipeline, "goodput", "loads.goodput", None),
            (routing, "link_capacities", "loads.capacities", None),
            (routing, "acceptable_paths_for_profile", "loads.paths", None),
            (routing, "expected_link_load", "loads.estimate", None),
            (routing, "cost_table", "routing.cost", None),
            (routing, "select_routes", "routing.select", None),
            (routing, "routed_link_loads", "routing.routed_loads", None),
        ]
        for owner, attr, name, hook in spans:
            self._patch(owner, attr, self._span_wrapper(owner.__dict__[attr], name, hook))
        self._patch(Simulator, "step", self._count_wrapper(Simulator.__dict__["step"],
                                                           "sim.steps"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for on_return, out in self._returned:
            on_return(out)
        self._returned.clear()
        for name, calls in self._calls:
            self.counts[name] += calls[0]
        self._calls.clear()

    # -- counts read off what the layers return ----------------------------

    def _on_interference(self, imap) -> None:
        self.counts["topology.interferer_pairs"] += (
            sum(len(s) for s in imap.interferers) - len(imap.interferers)) // 2

    def _on_simulation(self, metrics) -> None:
        self.counts["sim.run_calls"] += 1

    def _on_pipeline(self, result) -> None:
        c = self.counts
        c["pipeline.run_calls"] += 1
        c["topology.links"] += len(result.loads.capacity)
        c["loads.paths"] += sum(len(p) for p in result.loads.paths.values())
        c["routing.iterations"] += result.routes.iterations
        c["routing.converged"] += int(result.routes.converged)
        asg = result.assignment
        routed = {l for r in result.routes.routes.values() for l in r.links}
        c["channels.frames"] += asg.n_frames
        c["channels.frames_used"] += len({asg.frame_of[l] for l in routed})
        c["sim.slots"] += result.config.n_slots
        c["sim.dropped"] += result.metrics.dropped
        c["sim.delivered_hops"] += sum(
            st.delivered * len(result.routes.routes[pair].links)
            for pair, st in result.metrics.per_flow.items())

    # -- aggregation --------------------------------------------------------

    def self_times(self, op: int) -> dict[str, float]:
        """Self time per span name within one op."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s.op == op:
                out[s.name] = out.get(s.name, 0.0) + s.self_s
        return out

    def total_time(self, op: int, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.op == op and s.name == name)
