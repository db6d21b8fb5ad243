"""Link load estimation: per-link capacity shares, acceptable-path
enumeration, expected load under uniform multipath splitting, and the
goodput evaluator.

The capacity shares read the scenario's channel count and channel capacity,
and path enumeration its ``slack`` and ``cap``, from the validated
``Scenario``/``AlgorithmParams``, whose fields carry their bounds; only what
a caller passes besides them (node ids, a hand-built interference map) is
checked here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import UnroutableFlowError
from .topology import InterferenceMap, Topology
from .traffic import TrafficProfile

if TYPE_CHECKING:
    from .scenario import AlgorithmParams, Scenario

Pair = tuple[int, int]
Path = tuple[int, ...]


@dataclass(frozen=True)
class LoadEstimate:
    """Per-link capacity share and expected load, plus the acceptable-path
    sets the load was computed over (one entry per flow pair)."""
    capacity: tuple[float, ...]
    load: tuple[float, ...]
    paths: dict[Pair, tuple[Path, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class GoodputReport:
    """Per flow pair, its useful bandwidth; ``total`` is their sum."""
    useful: dict[Pair, float]

    @property
    def total(self) -> float:
        total = 0.0
        for u in self.useful.values():  # left to right on every Python, unlike sum()
            total += u
        return total


def link_capacities(imap: InterferenceMap, scenario: Scenario) -> tuple[float, ...]:
    """Per link, the aggregate capacity of the scenario's channels divided
    evenly among the links it interferes with, itself included."""
    total = scenario.algorithm.n_channels * scenario.sim.channel_capacity_bps
    try:
        return tuple([total / n for n in map(len, imap.interferers)])
    except ZeroDivisionError:
        raise ValueError("every link must interfere with itself") from None


def _hop_distances(adj, n_nodes: int, target: int, source: int, slack: int) -> list[int]:
    """BFS hop count to target from every node at most the source's distance
    plus slack away; -1 for nodes farther out or unreachable. The walk stops
    at that depth, so its cost follows the nodes near the pair, not the graph.
    An unreachable source leaves the walk to exhaust target's component."""
    dist = [-1] * n_nodes
    dist[target] = 0
    level, depth = [target], 0
    while level and (dist[source] < 0 or depth < dist[source] + slack):
        depth += 1
        nxt = []
        for x in level:
            for _, y in adj[x]:
                if dist[y] < 0:
                    dist[y] = depth
                    nxt.append(y)
        level = nxt
    return dist


def enumerate_acceptable_paths(topology: Topology, s: int, d: int,
                               alg: AlgorithmParams) -> tuple[Path, ...]:
    """Simple paths from s to d within (shortest hops + ``alg.slack``), as
    link-id sequences in lexicographic order, truncated to at most
    ``alg.cap`` paths.

    The DFS explores incident links in ascending id order, which emits
    paths directly in lexicographic order, so truncation equals
    sort-then-cut. Disconnected pairs yield the empty tuple. The walks read
    ``topology.adjacency``, which the topology builds once for every pair.
    """
    if s == d:
        raise ValueError("source and destination must differ")
    if not (0 <= s < topology.n_nodes and 0 <= d < topology.n_nodes):
        raise ValueError(f"node ids out of range: ({s}, {d})")

    slack, cap = alg.slack, alg.cap
    adj = topology.adjacency
    # nodes left at -1 are farther from d than an acceptable path can go
    dist_to_d = _hop_distances(adj, topology.n_nodes, d, s, slack)
    if dist_to_d[s] < 0:
        return ()
    max_hops = dist_to_d[s] + slack

    found: list[Path] = []
    path: list[int] = []
    visited = {s}
    # An explicit stack, so path length is not bounded by the recursion
    # limit: per node on the path, an iterator over its untried links.
    stack = [(s, iter(adj[s]))]
    while stack:
        node, untried = stack[-1]
        for link_id, nxt in untried:
            if nxt in visited:
                continue
            if len(path) + 1 + dist_to_d[nxt] > max_hops or dist_to_d[nxt] < 0:
                continue
            if nxt == d:
                found.append((*path, link_id))
                if len(found) >= cap:
                    return tuple(found)
                continue
            visited.add(nxt)
            path.append(link_id)
            stack.append((nxt, iter(adj[nxt])))
            break
        else:
            stack.pop()
            visited.remove(node)
            if path:
                path.pop()
    return tuple(found)


def acceptable_paths_for_profile(topology: Topology, profile: TrafficProfile,
                                 alg: AlgorithmParams) -> dict[Pair, tuple[Path, ...]]:
    return {pair: enumerate_acceptable_paths(topology, *pair, alg) for pair in profile.pairs()}


def expected_link_load(n_links: int, paths: dict[Pair, tuple[Path, ...]],
                       profile: TrafficProfile) -> tuple[float, ...]:
    """Uniform multipath splitting: each pair spreads its demand evenly
    over its acceptable paths, and per-link loads add up across pairs."""
    flows = profile.by_pair()
    delta = [0.0] * n_links
    for pair in profile.pairs():
        pair_paths = paths.get(pair)
        if not pair_paths:
            raise UnroutableFlowError(*pair)
        share = flows[pair].rate_bps / len(pair_paths)
        for p in pair_paths:
            for link in p:
                delta[link] += share
    return tuple(delta)


def goodput(per_flow: dict, profile: TrafficProfile) -> GoodputReport:
    """Total useful bandwidth: per pair, its rate times the share of its
    generated packets delivered, or 0 when it generated none or did not
    run. ``per_flow`` is ``SimMetrics.per_flow``, each pair's counts."""
    useful = {}
    for pair, flow in sorted(profile.by_pair().items()):
        stats = per_flow.get(pair)
        useful[pair] = (flow.rate_bps * (stats.delivered / stats.generated)
                        if stats is not None and stats.generated > 0 else 0.0)
    return GoodputReport(useful)
