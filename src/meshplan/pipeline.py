"""End-to-end orchestration: topology -> interference -> load estimate ->
congestion-aware routing -> channel assignment -> simulation -> goodput.

Also the channel-count and horizon sweeps the evaluation is built on, and
round-trippable serialization of the full result bundle.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cached_property

from .channels import ChannelAssignment, baseline_assign, schedule_all_frames
# not called here: bench/spans.py times channels' order_links under this name
from .channels import order_links  # noqa: F401
from .errors import ConfigurationError, PipelineError
from .loads import GoodputReport, LoadEstimate, goodput
from .routing import RouteTable, fixed_point_route
# not called here: bench/spans.py times routing's cost_table and
# routed_link_loads under these names
from .routing import cost_table, routed_link_loads  # noqa: F401
from .scenario import Scenario
from .schema import check, from_json, invalid, pair_key, param, to_json
from .sim import SimConfig, SimMetrics, run_simulation, sim_input, sim_key
from .topology import build_interference_map

PROTOCOLS = ("ccmca", "baseline")


@dataclass(frozen=True)
class PipelineResult:
    """One run: the resolved scenario it ran and what each stage made of it.

    The fields are the bundle. ``loads``, the load estimate routing started
    from, is not one: it replays the geometry and routing stages from the
    scenario on first read, so a decoded bundle has it too. Nor is
    ``goodput``, which follows from the metrics and the traffic.

    The parts must agree with the scenario: each traffic pair is routed or
    blocked, not both, and no other pair is; the metrics count the routed
    pairs; the plan has the scenario's channel count and took at most its
    ``max_iters`` routing rounds."""
    scenario: Scenario
    protocol: str = param(choices=PROTOCOLS)
    routes: RouteTable
    assignment: ChannelAssignment
    metrics: SimMetrics

    def __post_init__(self):
        check(self)
        alg = self.scenario.algorithm
        routed, blocked = self.routes.routes.keys(), self.routes.blocked
        traffic = set(self.scenario.traffic.pairs())
        for pairs, problem in ((routed & blocked, "both routed and blocked"),
                               (traffic - routed - blocked, "neither routed nor blocked"),
                               ((routed | blocked) - traffic, "not in the traffic")):
            if pairs:
                raise invalid("routes", f"pair(s) {_keys(pairs)} {problem}")
        if self.metrics.per_flow.keys() != routed:
            raise invalid("metrics.per_flow", f"must count the routed pairs {_keys(routed)}, "
                                              f"got {_keys(self.metrics.per_flow)}")
        if self.assignment.n_channels != alg.n_channels:
            raise invalid("assignment.n_channels",
                          f"must be {alg.n_channels} (scenario.algorithm.n_channels), "
                          f"got {self.assignment.n_channels}")
        if self.routes.iterations > alg.max_iters:
            raise invalid("routes.iterations",
                          f"must be <= {alg.max_iters} (scenario.algorithm.max_iters), "
                          f"got {self.routes.iterations}")

    @property
    def config(self) -> SimConfig:
        return self.scenario.sim

    @cached_property
    def loads(self) -> LoadEstimate:
        return _route(*_geometry(self.scenario), self.scenario)[1]

    @cached_property
    def goodput(self) -> GoodputReport:
        return goodput(self.metrics.per_flow, self.scenario.traffic)

    def to_dict(self) -> dict:
        return to_json(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineResult":
        return from_json(cls, d, "bundle")


def _keys(pairs) -> list[str]:
    return [pair_key(p) for p in sorted(pairs)]


@contextmanager
def _stage(name: str):
    """Tags an error escaping the named stage as a PipelineError of that
    stage, unless it is one already. A BaseException that is not an
    Exception, such as KeyboardInterrupt, passes as it is."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as e:
        raise PipelineError(name, e) from e


def _override(section: str, params, **overrides):
    """params with the overrides that are not None, or params itself when
    there are none; a bad value names its field as a scenario document's
    would."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    if not changes:
        return params
    try:
        return replace(params, **changes)
    except ConfigurationError as e:
        raise ConfigurationError(f"{section}.{e}") from e


def geometry_key(scenario: Scenario) -> tuple:
    """Everything the topology and interference stages read, as a hashable
    key: the topology section and ``algorithm.interference_multiplier``."""
    return ("geometry", scenario.topology, scenario.algorithm.interference_multiplier)


def routing_key(scenario: Scenario) -> tuple:
    """Everything routing reads: the geometry, the flows, every algorithm
    parameter and the channel capacity."""
    return ("routing", geometry_key(scenario), scenario.traffic, scenario.algorithm,
            scenario.sim.channel_capacity_bps)


def assignment_key(scenario: Scenario, protocol: str) -> tuple:
    """Everything the protocol's channel assignment reads: ccmca's follows
    the routes; the baseline's draws from the seed over the links."""
    if protocol == "ccmca":
        return ("ccmca", routing_key(scenario))
    return ("baseline", geometry_key(scenario), scenario.algorithm.n_channels,
            scenario.sim.seed)


def _memoized(memo: dict, key: tuple, make):
    """``memo[key]``, made by ``make()`` the first time the key is met."""
    value = memo.get(key)
    if value is None:
        value = memo[key] = make()
    return value


def _geometry(scenario: Scenario):
    with _stage("topology"):
        topology = scenario.build_topology()
    with _stage("interference"):
        imap = build_interference_map(topology)
    return topology, imap


def _route(topology, imap, scenario: Scenario):
    with _stage("routing"):
        return fixed_point_route(topology, imap, scenario)


def _assign(topology, imap, routes, scenario: Scenario, protocol: str) -> ChannelAssignment:
    channels = scenario.algorithm.n_channels
    with _stage("assignment"):
        if protocol == "ccmca":
            return schedule_all_frames(routes, scenario.traffic, topology, imap, channels)
        return baseline_assign(topology, channels, scenario.sim.seed)


def plan(scenario: Scenario, protocol: str, *, _memo: dict | None = None):
    """The planning stages: topology, interference, routing and channel
    assignment, with no simulation. Returns (topology, imap, loads, routes,
    assignment).

    ``_memo`` maps each stage's key (``geometry_key``, ``routing_key``,
    ``assignment_key``) to what the stage made of it; a stage whose key is
    there reuses that, so a sweep passes one dict to all its runs."""
    if protocol not in PROTOCOLS:
        raise PipelineError("setup", ValueError(f"unknown protocol {protocol!r}"))
    memo = {} if _memo is None else _memo
    topology, imap = _memoized(memo, geometry_key(scenario), lambda: _geometry(scenario))
    routes, loads = _memoized(memo, routing_key(scenario),
                              lambda: _route(topology, imap, scenario))
    assignment = _memoized(memo, assignment_key(scenario, protocol),
                           lambda: _assign(topology, imap, routes, scenario, protocol))
    return topology, imap, loads, routes, assignment


def run_pipeline(scenario: Scenario, protocol: str = "ccmca", *,
                 n_channels: int | None = None, horizon_s: float | None = None,
                 seed: int | None = None, _memo: dict | None = None) -> PipelineResult:
    """Run every stage for one scenario/protocol and return the bundle.

    The keyword overrides exist for sweeps; they leave the scenario object
    untouched, and the bundle carries it with them applied. ``_memo`` is a
    sweep's map from each stage's key to what that stage made of it: the
    keys of ``plan`` and ``sim_key`` for the metrics. A run finds there
    every stage whose inputs an earlier run of the sweep shared, and
    computes the rest; its simulator input is built anew, and keys the run.
    """
    algorithm = _override("algorithm", scenario.algorithm, n_channels=n_channels)
    sim = _override("sim", scenario.sim, horizon_s=horizon_s, seed=seed)
    if algorithm is not scenario.algorithm or sim is not scenario.sim:
        scenario = replace(scenario, algorithm=algorithm, sim=sim)
    memo = {} if _memo is None else _memo
    _, imap, _, routes, assignment = plan(scenario, protocol, _memo=memo)
    with _stage("simulation"):
        inp = sim_input(imap, scenario.traffic, routes, assignment)
        metrics = _memoized(memo, sim_key(inp, scenario.sim),
                            lambda: run_simulation(inp, scenario.sim))
    return PipelineResult(scenario, protocol, routes, assignment, metrics)


@dataclass(frozen=True)
class SweepRow:
    scenario: str
    protocol: str
    channels: int
    horizon_s: float
    seed: int | str
    generated: float
    delivered: float
    dropped: float
    avg_delay_s: float
    pdr: float
    throughput_pkts: float

    def to_dict(self) -> dict:
        return to_json(self)


# Every field after the seed is a metric, which a mean row averages.
_METRICS = tuple(f.name for f in fields(SweepRow))[5:]


def result_row(result: PipelineResult) -> SweepRow:
    m, s = result.metrics, result.scenario
    return SweepRow(s.name, result.protocol, s.algorithm.n_channels, s.sim.horizon_s,
                    s.sim.seed, m.generated, m.delivered, m.dropped, m.avg_delay_s,
                    m.pdr, m.throughput_pkts)


def _mean_row(rows: list[SweepRow]) -> SweepRow:
    return replace(rows[0], seed="mean",
                   **{name: math.fsum(getattr(r, name) for r in rows) / len(rows)
                      for name in _METRICS})


def _sweep(scenario: Scenario, points: list, seeds: list[int] | None,
           protocols: tuple[str, ...], overrides) -> list[SweepRow]:
    """The rows of direct ``run_pipeline`` calls over points x protocols x
    seeds, the runs sharing one memo: each distinct input of each stage is
    computed once per call. The memo dies with the call, so every sweep does
    the same work."""
    if not points:
        raise ValueError("sweep needs at least one point")
    if seeds is None:
        seeds = [scenario.sim.seed]
    elif not seeds:
        raise ValueError("sweep needs at least one seed")
    memo: dict = {}
    rows: list[SweepRow] = []
    for point in points:
        for protocol in protocols:
            group = []
            for seed in seeds:
                result = run_pipeline(scenario, protocol, seed=seed, _memo=memo,
                                      **overrides(point))
                group.append(result_row(result))
            rows.extend(group)
            if len(seeds) > 1:
                rows.append(_mean_row(group))
    return rows


def sweep_channels(scenario: Scenario, channel_counts: list[int],
                   seeds: list[int] | None = None,
                   protocols: tuple[str, ...] = PROTOCOLS) -> list[SweepRow]:
    """One row per (channel count, protocol, seed), plus a mean row per group
    when several seeds.

    Every row is the row of a direct ``run_pipeline`` call with the same
    arguments, but each distinct stage input is computed once per sweep: the
    geometry once, routing once per channel count, ccmca's assignment once
    per count and the baseline's once per (count, seed), and each distinct
    simulator input simulated once."""
    return _sweep(scenario, channel_counts, seeds, protocols,
                  lambda c: {"n_channels": c})


def sweep_time(scenario: Scenario, horizons: list[float],
               seeds: list[int] | None = None,
               protocols: tuple[str, ...] = PROTOCOLS) -> list[SweepRow]:
    """One row per (horizon, protocol, seed), plus a mean row per group when
    several seeds. As in ``sweep_channels``, each distinct stage input is
    computed once per sweep. No planning stage reads the horizon, so the
    geometry, the routing and ccmca's assignment are computed once and the
    baseline's once per seed; each horizon simulates each distinct simulator
    input once."""
    return _sweep(scenario, horizons, seeds, protocols,
                  lambda h: {"horizon_s": h})
