"""Congestion-aware route selection.

Link cost is a piecewise function of the load normalized by the link's
capacity share: 1 when idle, 1 + normalized load while at or below the
threshold fraction, infinite above it. Route selection picks the cheapest
finite acceptable path per pair; the iterative driver alternates load
estimation and re-selection until the loads stop changing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import truediv

from .errors import ContractError
from .loads import (DEFAULT_PATH_CAP, DEFAULT_SLACK, LoadEstimate, Pair, Path,
                    acceptable_paths_for_profile, expected_link_load, link_capacities)
from .schema import check, param
from .topology import InterferenceMap, Topology
from .traffic import TrafficProfile

DEFAULT_THRESHOLD_FRACTION = 0.9
DEFAULT_MAX_ITERS = 10


@dataclass(frozen=True)
class LinkCost:
    values: tuple[float, ...]


def cost_table(load, capacity, threshold_fraction: float = DEFAULT_THRESHOLD_FRACTION) -> LinkCost:
    """Piecewise congestion cost of every link given its expected load: 1
    when idle, 1 + load/capacity up to the threshold, infinite above it."""
    if len(load) != len(capacity):
        raise ContractError("load and capacity vectors differ in length")
    if not 0 < threshold_fraction <= 1:
        raise ValueError("threshold_fraction must be in (0, 1]")
    if min(load, default=0.0) < 0:
        raise ValueError("load must be >= 0")
    if min(capacity, default=1.0) <= 0:
        raise ValueError("capacity must be positive")
    inf = math.inf
    return LinkCost(tuple([inf if x > threshold_fraction else 1.0 + x if x > 0 else 1.0
                           for x in map(truediv, load, capacity)]))


@dataclass(frozen=True)
class Route:
    links: Path
    cost: float


@dataclass(frozen=True)
class RouteTable:
    routes: dict[Pair, Route] = field(default_factory=dict)
    blocked: frozenset[Pair] = frozenset()
    iterations: int = param(1, ge=0)
    converged: bool = True

    def __post_init__(self):
        check(self)


def select_routes(paths: dict[Pair, tuple[Path, ...]], costs: LinkCost) -> RouteTable:
    """Per pair, the cheapest finite-cost acceptable path; ties break to the
    lexicographically smallest link-id sequence. Pairs whose every path hits
    an infinite-cost link are blocked, not failed."""
    routes: dict[Pair, Route] = {}
    blocked: set[Pair] = set()
    values = costs.values
    for pair in sorted(paths):
        best: Path | None = None
        best_cost = math.inf
        for p in paths[pair]:
            # added left to right: from Python 3.12 on, sum() compensates floats
            c = 0.0
            for link in p:
                c += values[link]
            if c < best_cost or (c == best_cost and best is not None and p < best):
                best, best_cost = p, c
        if best is None:
            blocked.add(pair)
        else:
            routes[pair] = Route(best, best_cost)
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
                      profile: TrafficProfile, *, n_channels: int,
                      channel_capacity: float,
                      threshold_fraction: float = DEFAULT_THRESHOLD_FRACTION,
                      slack: int = DEFAULT_SLACK, cap: int = DEFAULT_PATH_CAP,
                      max_iters: int = DEFAULT_MAX_ITERS) -> tuple[RouteTable, LoadEstimate]:
    """Alternate load estimation and route selection to a fixed point.

    The first iteration scores paths against the uniform-split estimate;
    later iterations use the loads induced by the previous selection. Stops
    when the loads (hence the selection) stop changing, when a previously
    seen route table recurs (a cycle, flagged non-converged), or at
    max_iters. Returns the final table plus the estimate the final
    selection was made against.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    caps = link_capacities(imap, n_channels, channel_capacity)
    paths = acceptable_paths_for_profile(topology, profile, slack, cap)
    if not profile.flows:
        return (RouteTable(iterations=0, converged=True),
                LoadEstimate(caps, tuple(0.0 for _ in caps), paths))

    delta = expected_link_load(topology.n_links, paths, profile)
    seen: set[tuple] = set()
    table = RouteTable()
    converged = False
    iterations = 0

    for it in range(1, max_iters + 1):
        iterations = it
        costs = cost_table(delta, caps, threshold_fraction)
        table = select_routes(paths, costs)
        key = tuple((pair, table.routes[pair].links) if pair in table.routes
                    else (pair, None) for pair in sorted(paths))
        delta_next = routed_link_loads(topology.n_links, table, profile)
        if delta_next == delta:
            converged = True
            break
        if key in seen:
            break  # route cycle: keep the last table, flag non-convergence
        seen.add(key)
        if it < max_iters:  # keep delta selection-consistent on exhaustion
            delta = delta_next

    final = RouteTable(table.routes, table.blocked, iterations, converged)
    return final, LoadEstimate(caps, delta, paths)
