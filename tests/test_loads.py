import functools
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshplan import (AlgorithmParams, UnroutableFlowError, Flow, InterferenceMap, MeshNode,
                      Topology, TopologySpec, TrafficProfile, acceptable_paths_for_profile,
                      enumerate_acceptable_paths, expected_link_load, goodput,
                      link_capacities)
from meshplan.sim import FlowStats

from conftest import (build, build_from_nodes, cbr, generator_topologies_upto_8, profile,
                      scenario_of)

# The largest path cap AlgorithmParams allows; the enumeration keeps the
# lexicographically first `cap` paths, so an oracle's sorted list is cut to it.
MAX_CAP = 1024


def to_nx(topo):
    g = nx.Graph()
    g.add_nodes_from(range(topo.n_nodes))
    for lid, l in enumerate(topo.links):
        g.add_edge(l.u, l.v, link=lid)
    return g


def oracle_paths(topo, s, d, slack):
    """Independent enumeration of hop-bounded simple paths via networkx."""
    g = to_nx(topo)
    if not nx.has_path(g, s, d):
        return []
    bound = nx.shortest_path_length(g, s, d) + slack
    out = []
    for nodes in nx.all_simple_paths(g, s, d, cutoff=bound):
        out.append(tuple(g.edges[a, b]["link"] for a, b in zip(nodes, nodes[1:])))
    return sorted(out)


def one_link_capacity(n_channels, channel_capacity, n_interferers):
    imap = InterferenceMap((tuple(range(n_interferers)),))
    scenario = scenario_of(TopologySpec("chain", 2, 100.0), profile(cbr(0, 1, 1.0)),
                           channel_capacity, n_channels=n_channels)
    return link_capacities(imap, scenario)[0]


def test_virtual_link_capacity_values():
    assert one_link_capacity(3, 10e6, 6) == pytest.approx(5e6)
    assert one_link_capacity(1, 7.5e6, 1) == pytest.approx(7.5e6)
    assert one_link_capacity(5, 10e6, 4) == pytest.approx(12.5e6)
    # a hand-built map may leave a link without itself
    with pytest.raises(ValueError):
        one_link_capacity(3, 10e6, 0)


def test_ring4_opposite_pair_two_paths(ring4):
    paths = enumerate_acceptable_paths(ring4, 0, 2, AlgorithmParams(slack=0))
    assert paths == ((0, 2), (1, 3))
    assert all(len(p) == 2 for p in paths)


def test_chain2_single_path():
    t = build("chain", 2, 100.0)
    assert enumerate_acceptable_paths(t, 0, 1, AlgorithmParams(slack=0)) == ((0,),)


def test_grid9_corner_paths_match_oracle(grid9):
    paths = enumerate_acceptable_paths(grid9, 0, 8, AlgorithmParams(slack=0, cap=100))
    assert len(paths) == 6  # C(4,2) monotone lattice paths
    assert all(len(p) == 4 for p in paths)
    assert list(paths) == oracle_paths(grid9, 0, 8, 0)


def test_paths_lexicographic_and_capped(grid9):
    full = enumerate_acceptable_paths(grid9, 0, 8, AlgorithmParams(slack=0, cap=100))
    assert list(full) == sorted(full)
    capped = enumerate_acceptable_paths(grid9, 0, 8, AlgorithmParams(slack=0, cap=3))
    assert capped == full[:3]


def test_paths_slack_matches_oracle(grid9):
    for s, d in [(0, 8), (1, 7), (3, 5)]:
        got = enumerate_acceptable_paths(grid9, s, d, AlgorithmParams(slack=1, cap=MAX_CAP))
        assert sorted(got) == oracle_paths(grid9, s, d, 1)
        assert list(got) == sorted(got)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=6, max_size=14,
                unique=True),
       st.integers(0, 3), st.data())
def test_depth_bounded_paths_match_oracle(cells, slack, data):
    # 50 m cells in a 750 m box, 250 m range: some pairs are many hops apart,
    # so the distance walk stops well short of the graph, and some are disconnected
    t = build_from_nodes(MeshNode(50.0 * x, 50.0 * y) for x, y in cells)
    s, d = data.draw(st.permutations(range(t.n_nodes)))[:2]
    got = enumerate_acceptable_paths(t, s, d, AlgorithmParams(slack=slack, cap=MAX_CAP))
    assert list(got) == oracle_paths(t, s, d, slack)[:MAX_CAP]


def test_disconnected_pair_yields_empty():
    nodes = (MeshNode(0.0, 0.0), MeshNode(100.0, 0.0), MeshNode(900.0, 0.0))
    t = build_from_nodes(nodes)
    assert enumerate_acceptable_paths(t, 0, 2, AlgorithmParams()) == ()


def test_long_path_needs_no_recursion():
    # far longer than the interpreter's default recursion limit of 1000
    t = build("chain", 1200, 200.0)
    assert enumerate_acceptable_paths(t, 0, 1199, AlgorithmParams()) == (tuple(range(1199)),)


def test_paths_precondition_errors(ring4):
    with pytest.raises(ValueError):
        enumerate_acceptable_paths(ring4, 1, 1, AlgorithmParams())
    with pytest.raises(ValueError):
        enumerate_acceptable_paths(ring4, 0, 9, AlgorithmParams())


def test_tree_has_single_path_per_pair():
    t = build("binary-tree", 7, 200.0)
    for s in range(7):
        for d in range(7):
            if s != d:
                assert len(enumerate_acceptable_paths(t, s, d, AlgorithmParams(slack=0))) == 1


def test_expected_load_ring4_even_split(ring4):
    prof = profile(cbr(0, 2, 100.0))
    paths = acceptable_paths_for_profile(ring4, prof, AlgorithmParams(slack=0))
    delta = expected_link_load(ring4.n_links, paths, prof)
    assert delta == (50.0, 50.0, 50.0, 50.0)


def test_profile_paths_build_adjacency_once(grid9, monkeypatch):
    # one build per topology, however many pairs and calls walk it
    calls = [0]
    adjacency = Topology.__dict__["adjacency"].func

    def counted(topo):
        calls[0] += 1
        return adjacency(topo)

    counted_adjacency = functools.cached_property(counted)
    counted_adjacency.__set_name__(Topology, "adjacency")
    monkeypatch.setattr(Topology, "adjacency", counted_adjacency)
    prof = profile(cbr(0, 8, 10.0), cbr(2, 6, 10.0), cbr(1, 7, 10.0))
    alg = AlgorithmParams(slack=1, cap=10)
    paths = acceptable_paths_for_profile(grid9, prof, alg)
    assert calls == [1]
    assert acceptable_paths_for_profile(grid9, prof, alg) == paths
    assert paths == {f.pair: enumerate_acceptable_paths(grid9, f.src, f.dst, alg)
                     for f in prof.flows}
    assert calls == [1]
    other = build("grid", 9, 200.0)
    assert acceptable_paths_for_profile(other, prof, alg) == paths
    assert calls == [2]


def test_expected_load_single_path():
    t = build("chain", 4, 100.0, tx_range=100.0)
    prof = profile(cbr(0, 3, 100.0))
    paths = acceptable_paths_for_profile(t, prof, AlgorithmParams(slack=1))
    delta = expected_link_load(t.n_links, paths, prof)
    assert delta == (100.0, 100.0, 100.0)


def test_expected_load_unused_link_zero(grid9):
    prof = profile(cbr(0, 1, 42.0))
    paths = acceptable_paths_for_profile(grid9, prof, AlgorithmParams(slack=0))
    delta = expected_link_load(grid9.n_links, paths, prof)
    direct = paths[(0, 1)][0][0]
    assert delta[direct] == 42.0
    assert sum(1 for d in delta if d == 0.0) == grid9.n_links - 1


def test_unroutable_flow_names_pair():
    nodes = (MeshNode(0.0, 0.0), MeshNode(100.0, 0.0), MeshNode(900.0, 0.0))
    t = build_from_nodes(nodes)
    prof = profile(cbr(0, 2, 10.0))
    paths = acceptable_paths_for_profile(t, prof, AlgorithmParams())
    with pytest.raises(UnroutableFlowError) as err:
        expected_link_load(t.n_links, paths, prof)
    assert err.value.pair == (0, 2)


def test_load_conservation_against_bruteforce():
    # Total expected load equals demand times mean acceptable-path length,
    # with path sets recomputed by an independent enumerator.
    rng = random.Random(7)
    topos = generator_topologies_upto_8()
    cases = 0
    while cases < 20:
        topo = topos[cases % len(topos)]
        pairs = [(s, d) for s in range(topo.n_nodes) for d in range(topo.n_nodes) if s != d]
        chosen = rng.sample(pairs, k=min(3, len(pairs)))
        try:
            prof = profile(*[cbr(s, d, rng.uniform(1.0, 100.0)) for s, d in chosen])
        except ValueError:
            continue
        paths = acceptable_paths_for_profile(topo, prof, AlgorithmParams(slack=1, cap=MAX_CAP))
        delta = expected_link_load(topo.n_links, paths, prof)

        expected_total = 0.0
        for f in prof.flows:
            oracle = oracle_paths(topo, f.src, f.dst, 1)
            assert sorted(paths[f.pair]) == oracle
            mean_len = sum(len(p) for p in oracle) / len(oracle)
            expected_total += f.rate_bps * mean_len
            for l in range(topo.n_links):
                frac = sum(1 for p in oracle if l in p) / len(oracle)
                assert 0.0 <= frac <= 1.0
        assert sum(delta) == pytest.approx(expected_total, rel=1e-9)
        cases += 1


def test_goodput_min_cap():
    # Total delivery meets the demand exactly; partial delivery gets its share.
    prof = profile(cbr(0, 1, 3.0), cbr(1, 2, 4.0))
    rep = goodput({(0, 1): FlowStats(5, 5), (1, 2): FlowStats(4, 1, 2)}, prof)
    assert rep.useful == {(0, 1): 3.0, (1, 2): 1.0} and rep.total == 4.0


def test_goodput_zero_assignment():
    # A pair that generated nothing, or never ran (blocked), counts 0.
    prof = profile(cbr(0, 1, 3.0), cbr(1, 2, 2.0))
    rep = goodput({(0, 1): FlowStats()}, prof)
    assert rep.useful == {(0, 1): 0.0, (1, 2): 0.0} and rep.total == 0.0


def test_goodput_three_pairs_termwise():
    prof = profile(cbr(0, 1, 3.0), cbr(1, 2, 4.0), cbr(2, 3, 1.0))
    rep = goodput({(0, 1): FlowStats(3, 2), (1, 2): FlowStats(8, 8), (2, 3): FlowStats(2, 1)},
                  prof)
    assert rep.total == 6.5  # 3 * 2/3 + 4 + 1 * 1/2


def test_goodput_total_adds_left_to_right():
    # in pair order, 1e16 + 1 rounds back to 1e16, twice; compensated
    # summation, which sum() uses on floats from Python 3.12, would give
    # 1.0000000000000002e16
    prof = profile(cbr(0, 1, 1e16), cbr(0, 2, 1.0), cbr(0, 3, 1.0))
    rep = goodput({pair: FlowStats(4, 4) for pair in prof.pairs()}, prof)
    assert rep.useful == {(0, 1): 1e16, (0, 2): 1.0, (0, 3): 1.0}
    assert rep.total == 1e16


def test_goodput_never_exceeds_demand():
    rng = random.Random(3)
    for _ in range(50):
        flows = [cbr(i, i + 1, rng.uniform(0.1, 50.0)) for i in range(rng.randint(1, 5))]
        prof = TrafficProfile(tuple(flows))
        per_flow = {}
        for f in flows:
            generated = rng.randint(0, 1000)
            per_flow[f.pair] = FlowStats(generated, rng.randint(0, generated))
        rep = goodput(per_flow, prof)
        assert rep.total <= sum(f.rate_bps for f in flows) + 1e-12
