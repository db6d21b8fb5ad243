"""Congestion-aware route selection.

Link cost is a piecewise function of the load normalized by the link's
capacity share: 1 when idle, 1 + normalized load while at or below the
threshold fraction, infinite above it. Route selection picks the cheapest
finite acceptable path per pair; the iterative driver alternates load
estimation and re-selection until the loads stop changing.

The threshold, path limits and round count come from the scenario's
validated ``AlgorithmParams``, which bounds them; only the load and capacity
vectors a caller passes are checked here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import truediv
from typing import TYPE_CHECKING

from .errors import ContractError
from .loads import (LoadEstimate, Pair, Path, acceptable_paths_for_profile, expected_link_load,
                    link_capacities)
from .schema import check, param
from .topology import InterferenceMap, Topology
from .traffic import TrafficProfile

if TYPE_CHECKING:
    from .scenario import AlgorithmParams, Scenario


def cost_table(load, capacity, alg: AlgorithmParams) -> tuple[float, ...]:
    """Piecewise congestion cost of every link given its expected load: 1
    when idle, 1 + load/capacity up to ``alg.threshold_fraction``, infinite
    above it."""
    if len(load) != len(capacity):
        raise ContractError("load and capacity vectors differ in length")
    if min(load, default=0.0) < 0:
        raise ValueError("load must be >= 0")
    if min(capacity, default=1.0) <= 0:
        raise ValueError("capacity must be positive")
    inf, threshold_fraction = math.inf, alg.threshold_fraction
    return tuple([inf if x > threshold_fraction else 1.0 + x if x > 0 else 1.0
                  for x in map(truediv, load, capacity)])


@dataclass(frozen=True)
class Route:
    """A selected path as its link ids; its cost follows from the loads."""
    links: Path


@dataclass(frozen=True)
class RouteTable:
    routes: dict[Pair, Route] = field(default_factory=dict)
    blocked: frozenset[Pair] = frozenset()
    iterations: int = param(1, ge=1)
    converged: bool = True

    def __post_init__(self):
        check(self)


def select_routes(paths: dict[Pair, tuple[Path, ...]],
                  costs: tuple[float, ...]) -> RouteTable:
    """Per pair, the first cheapest finite-cost path in the order given, the
    lexicographic one ``enumerate_acceptable_paths`` emits; else blocked."""
    routes: dict[Pair, Route] = {}
    blocked: set[Pair] = set()
    for pair in sorted(paths):
        best: Path | None = None
        best_cost = math.inf
        for p in paths[pair]:
            # added left to right: from Python 3.12 on, sum() compensates floats
            c = 0.0
            for link in p:
                c += costs[link]
            if c < best_cost:
                best, best_cost = p, c
        if best is None:
            blocked.add(pair)
        else:
            routes[pair] = Route(best)
    return RouteTable(routes, frozenset(blocked))


def routed_link_loads(n_links: int, table: RouteTable,
                      profile: TrafficProfile) -> tuple[float, ...]:
    """Loads induced by committed routes: the selected path carries the
    pair's full demand; blocked pairs contribute nothing."""
    flows = profile.by_pair()
    delta = [0.0] * n_links
    for pair in sorted(table.routes):
        w = flows[pair].rate_bps
        for link in table.routes[pair].links:
            delta[link] += w
    return tuple(delta)


def fixed_point_route(topology: Topology, imap: InterferenceMap,
                      scenario: Scenario) -> tuple[RouteTable, LoadEstimate]:
    """Route the scenario's flows over its built topology and interference
    map: alternate load estimation and route selection to a fixed point.

    The first iteration scores paths against the uniform-split estimate;
    later iterations use the loads induced by the previous selection. Stops
    when the loads (hence the selection) stop changing, when a previously
    seen route table recurs (a cycle, flagged non-converged), or at
    ``algorithm.max_iters``. Returns the final table plus the estimate the
    final selection was made against.
    """
    alg, profile = scenario.algorithm, scenario.traffic
    caps = link_capacities(imap, scenario)
    paths = acceptable_paths_for_profile(topology, profile, alg)
    delta = expected_link_load(topology.n_links, paths, profile)
    seen: set[tuple] = set()
    # max_iters >= 1, so the loop runs and leaves `it`, `table` and `converged` set
    for it in range(1, alg.max_iters + 1):
        costs = cost_table(delta, caps, alg)
        table = select_routes(paths, costs)
        # sorted by pair; a pair absent from it is blocked
        key = tuple(table.routes.items())
        delta_next = routed_link_loads(topology.n_links, table, profile)
        converged = delta_next == delta
        # a key seen before is a route cycle: keep the last table, not converged;
        # each exit leaves delta the loads that table was priced against
        if converged or key in seen or it == alg.max_iters:
            break
        seen.add(key)
        delta = delta_next

    final = RouteTable(table.routes, table.blocked, it, converged)
    return final, LoadEstimate(caps, delta, paths)
