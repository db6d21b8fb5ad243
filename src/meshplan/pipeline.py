"""End-to-end orchestration: topology -> interference -> load estimate ->
congestion-aware routing -> channel assignment -> simulation -> goodput.

Also the channel-count and horizon sweeps the evaluation is built on, and
round-trippable serialization of the full result bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .channels import ChannelAssignment, baseline_assign, order_links, schedule_all_frames
from .errors import ConfigurationError, PipelineError
from .loads import GoodputReport, LoadEstimate, goodput
from .routing import LinkCost, RouteTable, cost_table, fixed_point_route, routed_link_loads
from .scenario import Scenario
from .schema import from_json, to_json
from .sim import SimConfig, SimMetrics, run_simulation, sim_input, sim_key
from .topology import build_interference_map

PROTOCOLS = ("ccmca", "baseline")


@dataclass(frozen=True)
class PipelineResult:
    """One run: the resolved scenario it ran and what each stage made of it."""
    scenario: Scenario
    protocol: str
    loads: LoadEstimate
    costs: LinkCost
    routes: RouteTable
    assignment: ChannelAssignment
    metrics: SimMetrics
    goodput: GoodputReport

    @property
    def config(self) -> SimConfig:
        return self.scenario.sim

    def to_dict(self) -> dict:
        return to_json(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineResult":
        return from_json(cls, d, "bundle")


class _Stage:
    """Tags an error escaping the named stage as a PipelineError of that
    stage, unless it is one already."""
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and not isinstance(exc, PipelineError):
            raise PipelineError(self.name, exc) from exc
        return False


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


def plan(scenario: Scenario, protocol: str):
    """The planning stages: topology, interference, routing and channel
    assignment, with no simulation. Returns (topology, imap, loads, costs,
    routes, assignment)."""
    if protocol not in PROTOCOLS:
        raise PipelineError("setup", ValueError(f"unknown protocol {protocol!r}"))
    alg, config = scenario.algorithm, scenario.sim
    channels = alg.n_channels

    with _Stage("topology"):
        topology = scenario.build_topology()
    with _Stage("interference"):
        imap = build_interference_map(topology)
    with _Stage("routing"):
        routes, loads = fixed_point_route(
            topology, imap, scenario.traffic, n_channels=channels,
            channel_capacity=config.channel_capacity_bps,
            threshold_fraction=alg.threshold_fraction, slack=alg.slack,
            cap=alg.cap, max_iters=alg.max_iters)
        costs = cost_table(loads.load, loads.capacity, alg.threshold_fraction)
    with _Stage("assignment"):
        gains = topology.link_gains()
        if protocol == "ccmca":
            # Priorities follow the loads the committed routes will induce;
            # identical to loads.load at a converged fixed point.
            induced = routed_link_loads(topology.n_links, routes, scenario.traffic)
            assignment = schedule_all_frames(order_links(induced), imap, gains, channels)
        else:
            assignment = baseline_assign(topology.n_links, channels, config.seed, imap.n1)
    return topology, imap, loads, costs, routes, assignment


def run_pipeline(scenario: Scenario, protocol: str = "ccmca", *,
                 n_channels: int | None = None, horizon_s: float | None = None,
                 seed: int | None = None, _sims: dict | None = None) -> PipelineResult:
    """Run every stage for one scenario/protocol and return the bundle.

    The keyword overrides exist for sweeps; they leave the scenario object
    untouched, and the bundle carries it with them applied. ``_sims`` is a
    sweep's map from ``sim_key`` to the metrics already simulated in that
    sweep; a run whose key is there reuses them.
    """
    algorithm = _override("algorithm", scenario.algorithm, n_channels=n_channels)
    sim = _override("sim", scenario.sim, horizon_s=horizon_s, seed=seed)
    if algorithm is not scenario.algorithm or sim is not scenario.sim:
        scenario = replace(scenario, algorithm=algorithm, sim=sim)
    _, imap, loads, costs, routes, assignment = plan(scenario, protocol)
    sims = {} if _sims is None else _sims
    with _Stage("simulation"):
        inp = sim_input(imap, scenario.traffic, routes, assignment)
        key = sim_key(inp, scenario.sim)
        if key not in sims:
            sims[key] = run_simulation(inp, scenario.sim)
        metrics = sims[key]
    with _Stage("goodput"):
        report = goodput(metrics.per_flow, scenario.traffic)

    return PipelineResult(scenario, protocol, loads, costs, routes, assignment, metrics, report)


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
    if not points:
        raise ValueError("sweep needs at least one point")
    if seeds is None:
        seeds = [scenario.sim.seed]
    elif not seeds:
        raise ValueError("sweep needs at least one seed")
    # The metrics of each distinct simulator input met in this call; the
    # dict dies with the call, so every sweep does the same work.
    sims: dict = {}
    rows: list[SweepRow] = []
    for point in points:
        for protocol in protocols:
            group = []
            for seed in seeds:
                result = run_pipeline(scenario, protocol, seed=seed, _sims=sims,
                                      **overrides(point))
                group.append(result_row(result))
            rows.extend(group)
            if len(seeds) > 1:
                rows.append(_mean_row(group))
    return rows


def sweep_channels(scenario: Scenario, channel_counts: list[int],
                   seeds: list[int] | None = None,
                   protocols: tuple[str, ...] = PROTOCOLS) -> list[SweepRow]:
    """One row per (channel count, protocol, seed), capacities and routes
    recomputed per count; plus a mean row per group when several seeds.

    Every row is the row of a direct ``run_pipeline`` call with the same
    arguments, but runs with the same simulator input (``sim_key``) are
    simulated once per sweep. The seed reaches only the baseline's channel
    draw, so most rows reuse a simulation."""
    return _sweep(scenario, channel_counts, seeds, protocols,
                  lambda c: {"n_channels": c})


def sweep_time(scenario: Scenario, horizons: list[float],
               seeds: list[int] | None = None,
               protocols: tuple[str, ...] = PROTOCOLS) -> list[SweepRow]:
    """One row per (horizon, protocol, seed), plus a mean row per group when
    several seeds; runs with the same simulator input are simulated once per
    sweep, as in ``sweep_channels``."""
    return _sweep(scenario, horizons, seeds, protocols,
                  lambda h: {"horizon_s": h})
