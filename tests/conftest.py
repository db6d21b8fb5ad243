"""Shared builders for the test suite."""

from __future__ import annotations

import collections
import random

import pytest

from meshplan import (AlgorithmParams, Flow, MeshNode, Route, RouteTable, Scenario, SimConfig,
                      TopologySpec, TrafficProfile, build_interference_map)


def build(kind, n, spacing, tx_range=250.0, **alg):
    """A generated topology, built with the given algorithm fields."""
    return TopologySpec(kind, n, spacing, tx_range).build(AlgorithmParams(**alg))


def build_from_nodes(nodes, tx_range=250.0, **alg):
    """A topology over explicit nodes, built with the given algorithm fields."""
    return TopologySpec(tx_range=tx_range, nodes=tuple(nodes)).build(AlgorithmParams(**alg))


def scenario_of(spec, prof, channel_capacity_bps=10e6, **alg):
    """A scenario over the topology spec and traffic profile, with the given
    channel capacity and algorithm fields."""
    return Scenario("test", spec, prof, AlgorithmParams(**alg),
                    SimConfig(channel_capacity_bps=channel_capacity_bps))


@pytest.fixture
def ring4():
    # Links sort by (u, v): 0=(0,1) 1=(0,3) 2=(1,2) 3=(2,3).
    return build("ring", 4, 250.0)


@pytest.fixture
def ring4_imap(ring4):
    return build_interference_map(ring4)


@pytest.fixture
def grid9():
    return build("grid", 9, 200.0)


def cbr(src, dst, rate, packet_bytes=125):
    return Flow(src, dst, rate, packet_bytes, "cbr")


def profile(*flows):
    return TrafficProfile(tuple(flows))


def random_topology(seed: int, max_nodes: int = 12, max_links: int = 24):
    """Seeded random node scatter; grows the area until the link count fits."""
    rng = random.Random(seed)
    n = rng.randint(4, max_nodes)
    side = 600.0
    while True:
        nodes = tuple(MeshNode(rng.uniform(0, side), rng.uniform(0, side))
                      for _ in range(n))
        topo = build_from_nodes(nodes)
        if 1 <= topo.n_links <= max_links:
            return topo
        side *= 1.3


def n1(topology):
    """Per link: the ids of the links sharing an endpoint with it, minus the
    link itself, in ascending order; the conflict that frames colour."""
    return [tuple(j for j, other in enumerate(topology.links)
                  if j != l and {link.u, link.v} & {other.u, other.v})
            for l, link in enumerate(topology.links)]


def random_paths(topology, rng, max_paths: int = 6, max_hops: int = 6):
    """Up to max_paths random simple paths, as (src, dst, link ids), each of
    1 to max_hops hops from a node with a link; they share links freely."""
    adjacent = {}
    for l, link in enumerate(topology.links):
        adjacent.setdefault(link.u, []).append((link.v, l))
        adjacent.setdefault(link.v, []).append((link.u, l))
    paths = []
    for _ in range(rng.randint(1, max_paths)):
        src = node = rng.choice(sorted(adjacent))
        seen, hops, length = {node}, [], rng.randint(1, max_hops)
        while len(hops) < length:
            steps = [(m, l) for m, l in adjacent[node] if m not in seen]
            if not steps:
                break
            node, l = rng.choice(steps)
            seen.add(node)
            hops.append(l)
        paths.append((src, node, tuple(hops)))
    return paths


def random_routes(topology, rng, max_paths: int = 6):
    """A route table over random simple paths, the first found per (src,
    dst) pair, and its traffic: per pair a CBR flow whose rate and packet
    size come from small sets, so that packet rates tie and loads add up
    exactly in any order."""
    routes, flows = {}, []
    for src, dst, links in random_paths(topology, rng, max_paths):
        if (src, dst) not in routes:
            routes[(src, dst)] = Route(links)
            flows.append(cbr(src, dst, rng.choice((1000.0, 2000.0, 4000.0)),
                             rng.choice((125, 250))))
    return RouteTable(routes), profile(*flows)


def replay_frames(walks, links):
    """Independent re-simulation of the route walk, over explicit sets.

    Returns (per link its frame, a Counter of "swapped" and "opened" hops).
    D is the largest number of walked links at one node. Each walk goes
    first hop first; `prev` starts at -1 and is then the frame of the hop
    just walked. An unframed hop (u, v) takes the first frame in the order
    prev + 1, prev + 2, ... modulo D that no framed link at u or v holds.
    When there is none, it tries each frame a that u's links do not hold,
    and for each a every frame b that v's links do not hold, both in that
    order. It follows the links of frames a, b, a, ... from v; unless that
    ends at u, those links trade a for b and b for a, and the hop takes a.
    When every path ends at u, the hop takes the smallest frame from D up
    that no link at u or v holds. Links on no walk then take, in id order,
    the smallest frame no link at either endpoint holds."""
    n = len(links)
    frame = [None] * n
    events = collections.Counter()
    walked = {l for walk in walks for l in walk}
    nodes = {node for l in walked for node in (links[l].u, links[l].v)}
    top = max((sum(1 for l in walked if node in (links[l].u, links[l].v)) for node in nodes),
              default=0)

    def held(*ends):
        return {frame[e] for e in range(n)
                if frame[e] is not None and {links[e].u, links[e].v} & set(ends)}

    def swap(u, v, order):
        pairs = [(a, b) for a in order if a not in held(u) for b in order if b not in held(v)]
        for a, b in pairs:
            path, node, want = [], v, a
            while True:
                step = [e for e in range(n)
                        if frame[e] == want and node in (links[e].u, links[e].v)]
                if not step:
                    break
                assert len(step) == 1  # frames are matchings
                path.append(step[0])
                node = links[step[0]].v if links[step[0]].u == node else links[step[0]].u
                want = b if want == a else a
            if node != u:
                for e in path:
                    frame[e] = b if frame[e] == a else a
                return a
        return None

    for walk in walks:
        prev = -1
        for link in walk:
            if frame[link] is None:
                u, v = links[link].u, links[link].v
                order = [(prev + k) % top for k in range(1, top + 1)]
                chosen = next((f for f in order if f not in held(u, v)), None)
                if chosen is None:
                    chosen = swap(u, v, order)
                    if chosen is not None:
                        events["swapped"] += 1
                if chosen is None:
                    chosen = top
                    while chosen in held(u, v):
                        chosen += 1
                    events["opened"] += 1
                frame[link] = chosen
            prev = frame[link]
    for link in range(n):
        if frame[link] is None:
            chosen = 0
            while chosen in held(links[link].u, links[link].v):
                chosen += 1
            frame[link] = chosen
    return frame, events


def replay_schedule(routes, traffic, topology, imap, n_channels):
    """Independent re-simulation of ccmca's assignment, over explicit sets.

    Frames: ``replay_frames`` over the routes by descending packets per
    second, ties by ascending pair. Channels: frame by frame, links in
    descending summed rate of the routes over them, ties by ascending id,
    each the exhaustive argmin over brute-force counts of the assigned
    interferers on each channel in its frame, ties to the smallest channel
    index. Returns (channels, frames, the Counter of
    ``replay_frames``)."""
    links = topology.links
    n = len(links)
    rate = {f.pair: f.rate_bps for f in traffic.flows}
    pps = {f.pair: f.rate_bps / (8 * f.packet_bytes) for f in traffic.flows}
    walks = [routes.routes[pair].links
             for pair in sorted(routes.routes, key=lambda pair: (-pps[pair], pair))]
    frame, events = replay_frames(walks, links)
    load = [sum(rate[pair] for pair, route in routes.routes.items() if l in route.links)
            for l in range(n)]
    order = sorted(range(n), key=lambda l: (-load[l], l))

    channel = [None] * n
    for f in sorted(set(frame)):
        for link in order:
            if frame[link] != f:
                continue
            d = []
            for c in range(n_channels):
                d.append(sum(1 for q in range(n) if channel[q] == c
                             and frame[q] == f and q in imap.interferers[link]))
            best, best_c = None, None
            for c in range(n_channels):
                if best is None or d[c] < best:
                    best, best_c = d[c], c
            channel[link] = best_c
    return tuple(channel), tuple(frame), events


GENERATOR_CASES_8 = [
    ("chain", 5, 200.0),
    ("chain", 8, 150.0),
    ("ring", 4, 250.0),
    ("ring", 6, 250.0),
    ("ring", 8, 250.0),
    ("grid", 4, 200.0),
    ("grid", 6, 200.0),
    ("grid", 8, 200.0),
    ("star", 5, 250.0),
    ("star", 6, 250.0),
    ("binary-tree", 7, 200.0),
    ("binary-tree", 8, 200.0),
]


def generator_topologies_upto_8():
    return [build(kind, n, spacing) for kind, n, spacing in GENERATOR_CASES_8]
