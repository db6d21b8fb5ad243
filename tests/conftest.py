"""Shared builders for the test suite."""

from __future__ import annotations

import random

import pytest

from meshplan import (AlgorithmParams, Flow, MeshNode, Scenario, SimConfig, TopologySpec,
                      TrafficProfile, build_interference_map)


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


def replay_schedule(loads, topology, imap, n_channels):
    """Independent re-simulation of the assignment walk, over explicit sets.

    Frames: links in descending load, ties by ascending id. A link takes the
    smallest frame that no placed link at either endpoint holds, unless it
    carries load and that frame exceeds both a and b, the smallest frames
    free at u and at v. Then the path from v through links of frames a, b, a,
    ... is followed; unless it reaches u, its links trade a for b and b for a,
    and the link takes a. Channels: frame by frame, in load order within a
    frame, the exhaustive argmin over brute-force gain sums, ties to the
    smallest channel index."""
    links = topology.links
    gains = topology.link_gains()
    n = len(links)
    order = sorted(range(n), key=lambda l: (-loads[l], l))
    frame = [None] * n

    def held(*nodes):
        return {frame[e] for e in range(n)
                if frame[e] is not None and {links[e].u, links[e].v} & set(nodes)}

    def smallest_not_in(frames):
        f = 0
        while f in frames:
            f += 1
        return f

    for link in order:
        u, v = links[link].u, links[link].v
        chosen = smallest_not_in(held(u, v))
        a, b = smallest_not_in(held(u)), smallest_not_in(held(v))
        if loads[link] > 0 and chosen != max(a, b):
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
                chosen = a
        frame[link] = chosen

    channel = [None] * n
    for f in sorted(set(frame)):
        for link in order:
            if frame[link] != f:
                continue
            d = []
            for c in range(n_channels):
                d.append(sum(gains[q] for q in range(n)
                             if channel[q] == c and q in imap.interferers[link]))
            best, best_c = None, None
            for c in range(n_channels):
                if best is None or d[c] < best:
                    best, best_c = d[c], c
            channel[link] = best_c
    return tuple(channel), tuple(frame)


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
