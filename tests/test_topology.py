import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meshplan import (ConfigurationError, MeshNode, build_interference_map,
                      build_topology, link_gain, topology_from_nodes)

from conftest import generator_topologies_upto_8, random_topology


def test_ring4_paper_setup(ring4):
    assert ring4.n_nodes == 4
    assert ring4.n_links == 4
    for l in ring4.links:
        assert l.distance == pytest.approx(250.0)
    assert sorted((l.u, l.v) for l in ring4.links) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_chain2_minimal():
    t = build_topology("chain", 2, 100.0)
    assert t.n_nodes == 2 and t.n_links == 1
    assert (t.links[0].u, t.links[0].v) == (0, 1)


def test_grid9_edge_count(grid9):
    # 3x3 lattice: 2 rows of 3 vertical + 2 cols of 3 horizontal = 12 edges.
    assert grid9.n_nodes == 9
    assert grid9.n_links == 12
    for l in grid9.links:
        assert l.distance == pytest.approx(200.0)


def test_star_five_leaves():
    t = build_topology("star", 6, 250.0)
    assert t.n_links == 5
    assert all(l.u == 0 for l in t.links)


def test_binary_tree_links_are_tree_edges():
    t = build_topology("binary-tree", 7, 200.0)
    assert t.n_links == 6
    assert sorted((l.u, l.v) for l in t.links) == [(0, 1), (0, 2), (1, 3), (1, 4),
                                                   (2, 5), (2, 6)]
    for l in t.links:
        assert l.distance <= 200.0 * (1 + 1e-9)


def test_configuration_errors():
    with pytest.raises(ConfigurationError):
        build_topology("hexagon", 6, 100.0)
    with pytest.raises(ConfigurationError):
        build_topology("grid", 7, 100.0)  # prime
    with pytest.raises(ConfigurationError):
        build_topology("chain", 1, 100.0)
    with pytest.raises(ConfigurationError):
        build_topology("chain", 4, -5.0)
    with pytest.raises(ConfigurationError):
        build_topology("binary-tree", 7, 300.0, tx_range=250.0)


def test_interference_range_must_cover_tx():
    with pytest.raises(ConfigurationError):
        build_topology("chain", 3, 100.0, tx_range=250.0, interference_range=100.0)


def test_link_gain_reference_and_decay():
    assert link_gain(10.0, 10.0, 3.0) == 1.0
    assert link_gain(20.0, 10.0, 3.0) == pytest.approx(0.125)
    assert link_gain(5.0, 10.0, 3.0) == 1.0  # clamped below reference
    # at or below the reference the power is never taken, so it cannot overflow
    assert link_gain(250.0, 1e308, 3.0) == 1.0
    assert link_gain(1.0, 10.0, 1000.0) == 1.0
    assert link_gain(1.0, 1.0, 1e300) == 1.0
    assert link_gain(20.0, 10.0, 1000.0) == 0.5 ** 1000
    with pytest.raises(ValueError):
        link_gain(0.0, 10.0, 3.0)
    with pytest.raises(ValueError):
        link_gain(10.0, 10.0, 1.5)


@given(st.lists(st.floats(min_value=0.1, max_value=1e5), min_size=2, max_size=30),
       st.floats(min_value=0.5, max_value=100.0),
       st.floats(min_value=2.0, max_value=6.0))
def test_link_gain_non_increasing(distances, d0, alpha):
    ds = sorted(distances)
    gains = [link_gain(d, d0, alpha) for d in ds]
    assert all(a >= b for a, b in zip(gains, gains[1:]))
    assert all(0 < g <= 1 for g in gains)


def test_interference_single_link():
    t = build_topology("chain", 2, 100.0)
    im = build_interference_map(t)
    assert im.interferers[0] == frozenset({0})
    assert im.n1[0] == frozenset()


def test_interference_ring4_all_pairs(ring4, ring4_imap):
    # Interference range (500) exceeds every midpoint distance on the ring.
    for l in range(ring4.n_links):
        assert ring4_imap.interferers[l] == frozenset(range(4))
    assert ring4_imap.n1[0] == frozenset({1, 2})
    assert ring4_imap.n1[3] == frozenset({1, 2})


def test_interference_grid9_matches_bruteforce(grid9):
    im = build_interference_map(grid9)
    mids = [((grid9.nodes[l.u].x + grid9.nodes[l.v].x) / 2,
             (grid9.nodes[l.u].y + grid9.nodes[l.v].y) / 2) for l in grid9.links]
    rng = grid9.interference_range
    for i in range(grid9.n_links):
        expect = {j for j in range(grid9.n_links)
                  if math.dist(mids[i], mids[j]) <= rng * (1 + 1e-9)}
        assert im.interferers[i] == frozenset(expect)
        ends = {grid9.links[i].u, grid9.links[i].v}
        n1 = {j for j in range(grid9.n_links) if j != i
              and ({grid9.links[j].u, grid9.links[j].v} & ends)}
        assert im.n1[i] == frozenset(n1)


def test_interference_symmetry_random():
    for seed in range(100):
        topo = random_topology(seed)
        im = build_interference_map(topo)
        for l in range(topo.n_links):
            assert l in im.interferers[l]
            for other in im.interferers[l]:
                assert l in im.interferers[other]
            for other in im.n1[l]:
                assert l in im.n1[other]


def test_all_generated_link_distances_within_range():
    for topo in generator_topologies_upto_8():
        for l in topo.links:
            assert l.distance <= topo.tx_range * (1 + 1e-9)
    for seed in range(20):
        topo = random_topology(seed)
        for l in topo.links:
            assert l.distance <= topo.tx_range * (1 + 1e-9)


def test_generated_links_match_range_rule():
    # For the range-rule kinds, the link set is exactly the close pairs.
    for kind, n, spacing in [("chain", 6, 150.0), ("ring", 5, 250.0),
                             ("grid", 9, 200.0), ("star", 6, 250.0)]:
        topo = build_topology(kind, n, spacing)
        close = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if math.dist((topo.nodes[u].x, topo.nodes[u].y),
                              (topo.nodes[v].x, topo.nodes[v].y))
                 <= topo.tx_range * (1 + 1e-9)}
        assert {(l.u, l.v) for l in topo.links} == close


def test_determinism():
    a = build_topology("grid", 9, 200.0)
    b = build_topology("grid", 9, 200.0)
    assert a == b and repr(a) == repr(b)
    im_a, im_b = build_interference_map(a), build_interference_map(b)
    assert im_a == im_b


def test_topology_from_nodes_uses_range_rule():
    nodes = (MeshNode(0.0, 0.0), MeshNode(100.0, 0.0), MeshNode(1000.0, 0.0))
    t = topology_from_nodes(nodes, tx_range=250.0)
    assert [(l.u, l.v) for l in t.links] == [(0, 1)]
    assert t.interference_range == 500.0
