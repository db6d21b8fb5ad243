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


def replay_schedule(order, topology, imap, n_channels):
    """Independent re-simulation of the greedy assignment walk: per-step
    exhaustive argmin over brute-force gain sums, per-frame eligibility
    against the node-adjacent links of ``n1``, ties to the smallest channel
    index."""
    gains = topology.link_gains()
    adjacent = n1(topology)
    n = len(order)
    channel = [None] * n
    frame = [None] * n
    f = 0
    while any(c is None for c in channel):
        for link in order:
            if channel[link] is not None:
                continue
            if any(frame[e] == f for e in adjacent[link]):
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
            frame[link] = f
        f += 1
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
