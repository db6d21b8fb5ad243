import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshplan import (ChannelAssignment, ConfigurationError, MeshNode, Route, RouteTable,
                      baseline_assign, build_interference_map, channels, co_channel_counts,
                      order_links, routed_link_loads, schedule_all_frames)
from meshplan.schema import from_json, to_json

from conftest import (build, build_from_nodes, cbr, n1, profile, random_paths, random_routes,
                      random_topology, replay_frames, replay_schedule)


def routed(*flows):
    """A route table and its traffic from (flow, link ids) pairs."""
    return (RouteTable({f.pair: Route(links) for f, links in flows}),
            profile(*(f for f, _ in flows)))


def test_order_links_examples():
    assert order_links([5.0, 9.0, 1.0]) == [1, 0, 2]
    assert order_links([3.0, 3.0, 3.0]) == [0, 1, 2]
    assert order_links([]) == []


def test_order_links_matches_selection_sort_oracle():
    rng = random.Random(13)
    for _ in range(100):
        delta = [rng.choice([rng.uniform(0, 50), rng.randrange(5)]) for _ in range(20)]
        remaining = list(range(20))
        expect = []
        while remaining:
            best = remaining[0]
            for i in remaining[1:]:
                if delta[i] > delta[best]:
                    best = i
            expect.append(best)
            remaining.remove(best)
        assert order_links(delta) == expect


def test_baseline_frames_semantics(ring4):
    # links 1 and 2 share an endpoint with link 0 and are kept out of its
    # frame; the opposite link 3 joins it, and 1 and 2 share the next frame
    assert baseline_assign(ring4, 3, 1).frame_of == (0, 1, 1, 0)
    assert channels.route_frames((), ()) == []


def test_co_channel_counts(ring4_imap):
    # every ring4 link interferes with every other; frames as the baseline's
    frame_of = [0, 1, 1, 0]
    channel_of = [None] * 4
    assert co_channel_counts(0, 2, channel_of, frame_of, ring4_imap) == [0, 0]
    channel_of[1] = channel_of[3] = 0
    # link 1 is on channel 0 too, but in the other frame: it is not counted
    assert co_channel_counts(0, 2, channel_of, frame_of, ring4_imap) == [1, 0]
    assert co_channel_counts(2, 2, channel_of, frame_of, ring4_imap) == [1, 0]


def test_co_channel_counts_only_interferers_in_the_frame():
    # On the grid with a tight interference range, far links must not count,
    # and neither must links of other frames.
    topo = build("grid", 9, 200.0, interference_multiplier=1.0)
    imap = build_interference_map(topo)
    rng = random.Random(5)
    for _ in range(20):
        frame_of = [rng.randrange(3) for _ in topo.links]
        channel_of = [rng.choice([None, 0, 1, 2, 3]) for _ in topo.links]
        for probe in range(topo.n_links):
            expect = [0] * 4
            for q, c in enumerate(channel_of):
                if (c is not None and frame_of[q] == frame_of[probe]
                        and q in imap.interferers[probe]):
                    expect[c] += 1
            assert co_channel_counts(probe, 4, channel_of, frame_of, imap) == expect


def test_schedule_single_link():
    t = build("chain", 2, 100.0)
    imap = build_interference_map(t)
    asg = schedule_all_frames(*routed((cbr(0, 1, 1000.0), (0,))), t, imap, 3)
    # no interferer on any channel: smallest index wins
    assert asg == ChannelAssignment(3, (0,), (0,))


def test_routes_take_frames_hop_by_hop():
    # links 0=(0,1) and 1=(1,2): a route takes frames in its hop order
    t = build("chain", 3, 100.0, tx_range=100.0)
    assert channels.route_frames([(0, 1)], t.links) == [0, 1]
    assert channels.route_frames([(1, 0)], t.links) == [1, 0]


def test_routes_search_frames_cyclically_after_the_previous_hop(grid9):
    # 3x3 grid, links sorted by (u, v); the route 0-1-2-5-8 has a degree-2
    # routed subgraph, so its hops cycle over frames 0 and 1
    links = grid9.links
    ids = {(l.u, l.v): i for i, l in enumerate(links)}
    walk = [ids[(0, 1)], ids[(1, 2)], ids[(2, 5)], ids[(5, 8)]]
    frame_of = channels.route_frames([walk], links)
    assert [frame_of[l] for l in walk] == [0, 1, 0, 1]
    # Δ = 3 at node 1. (1,2) takes frame 0 first; the walk 2-5, 2-1, 1-0
    # gives (2,5) frame 1, keeps (1,2) in 0, and (1,0) searches from
    # there: frame 1, not the 2 that would follow (2,5). (1,4) takes 2.
    walks = [(ids[(1, 2)],), (ids[(2, 5)], ids[(1, 2)], ids[(0, 1)]), (ids[(1, 4)],)]
    frame_of = channels.route_frames(walks, links)
    assert [frame_of[ids[e]] for e in ((1, 2), (2, 5), (0, 1), (1, 4))] == [0, 1, 1, 2]


def test_higher_packet_rate_takes_frames_first():
    # two one-hop routes meeting at node 1: the higher packet rate takes
    # frame 0, whatever its pair; equal packet rates go by pair
    t = build("chain", 3, 100.0, tx_range=100.0)
    imap = build_interference_map(t)
    fast, slow = cbr(2, 1, 4000.0), cbr(0, 1, 1000.0)
    assert schedule_all_frames(*routed((slow, (0,)), (fast, (1,))), t, imap, 1).frame_of == (1, 0)
    same = cbr(2, 1, 2000.0, packet_bytes=250)  # 1 packet/s, as slow
    assert schedule_all_frames(*routed((slow, (0,)), (same, (1,))), t, imap, 1).frame_of == (0, 1)


def test_a_kempe_swap_keeps_a_bipartite_routed_subgraph_in_degree_frames():
    # chain 0-1-2-3-4, links 0=(0,1) 1=(1,2) 2=(2,3) 3=(3,4), Δ = 2. Link 1
    # finds frame 0 held at node 1 and frame 1 at node 2, so the path from
    # node 2 through frames 1, 0 (links 2, 3) swaps them, and link 1 takes 1.
    t = build("chain", 5, 100.0, tx_range=100.0)
    walks = [(0,), (3, 2), (1,)]
    assert channels.route_frames(walks, t.links) == [0, 1, 0, 1]
    assert replay_frames(walks, t.links) == ([0, 1, 0, 1], {"swapped": 1})


def test_an_odd_cycle_opens_a_frame_past_the_degree():
    # triangle, links 0=(0,1) 1=(0,2) 2=(1,2), Δ = 2: the only path from
    # node 2 through frames 1, 0 ends at node 0, so link 1 opens frame 2
    t = build_from_nodes([MeshNode(0.0, 0.0), MeshNode(100.0, 0.0), MeshNode(50.0, 80.0)])
    walks = [(0,), (2,), (1,)]
    assert channels.route_frames(walks, t.links) == [0, 2, 1]
    assert replay_frames(walks, t.links) == ([0, 2, 1], {"opened": 1})


def ring4_routes():
    # ring4 links 0=(0,1) 1=(0,3) 2=(1,2) 3=(2,3): 0->2 over links 0, 2 at
    # twice the rate of 2->0 over links 3, 1, so links 0 and 2 carry more load
    return routed((cbr(0, 2, 2000.0), (0, 2)), (cbr(2, 0, 1000.0), (3, 1)))


def test_schedule_ring4_matching_and_argmin(ring4, ring4_imap):
    asg = schedule_all_frames(*ring4_routes(), ring4, ring4_imap, 2)
    # a maximal matching: opposite links
    assert [l for l, f in enumerate(asg.frame_of) if f == 0] == [0, 3]
    assert asg.channel_of[0] == 0
    assert asg.channel_of[3] == 1  # channel 0 already carries an interferer
    # exhaustive argmin replay for the second placed link
    frame_of = asg.frame_of
    assert co_channel_counts(3, 2, [None] * 4, frame_of, ring4_imap) == [0, 0]
    assert co_channel_counts(3, 2, [0, None, None, None], frame_of, ring4_imap) == [1, 0]


def test_schedule_two_adjacent_links():
    t = build("chain", 3, 100.0, tx_range=100.0)
    imap = build_interference_map(t)
    asg = schedule_all_frames(*routed((cbr(2, 0, 1000.0), (1, 0))), t, imap, 2)
    assert asg.frame_of == (1, 0)
    assert asg.n_frames == 2


def test_schedule_ring4_two_frames(ring4, ring4_imap):
    asg = schedule_all_frames(*ring4_routes(), ring4, ring4_imap, 2)
    assert asg.n_frames == 2
    assert asg.frame_of == (0, 1, 1, 0)
    # co-frame links interfere, so the second of each frame takes the other channel
    assert asg.channel_of[0] != asg.channel_of[3]
    assert asg.channel_of[1] != asg.channel_of[2]


def test_schedule_star_all_links_share_hub():
    t = build("star", 6, 250.0)
    imap = build_interference_map(t)
    # one-hop routes from the hub, link l at 5 - l packets per second
    asg = schedule_all_frames(*routed(*((cbr(0, l + 1, 1000.0 * (5 - l)), (l,))
                                        for l in range(5))), t, imap, 3)
    assert asg.n_frames == 5
    assert [asg.frame_of[l] for l in range(5)] == [0, 1, 2, 3, 4]


def test_schedule_coverage_and_matching_invariants():
    for seed in range(30):
        topo = random_topology(seed)
        imap = build_interference_map(topo)
        asg = schedule_all_frames(*random_routes(topo, random.Random(seed + 1000)), topo,
                                  imap, 3)
        # coverage: exactly one channel and one frame everywhere
        assert len(asg.channel_of) == len(asg.frame_of) == topo.n_links
        # matching: no two links in one frame share an endpoint
        for f in range(asg.n_frames):
            in_frame = [l for l, g in enumerate(asg.frame_of) if g == f]
            for i, a in enumerate(in_frame):
                ea = {topo.links[a].u, topo.links[a].v}
                for b in in_frame[i + 1:]:
                    assert not (ea & {topo.links[b].u, topo.links[b].v})


def test_schedule_matches_independent_replay():
    for seed in range(30):
        topo = random_topology(seed)
        imap = build_interference_map(topo)
        routes, traffic = random_routes(topo, random.Random(seed + 2000))
        n_channels = 2 + seed % 4
        asg = schedule_all_frames(routes, traffic, topo, imap, n_channels)
        channel, frame, _ = replay_schedule(routes, traffic, topo, imap, n_channels)
        assert asg.channel_of == channel
        assert asg.frame_of == frame


def test_per_step_argmin_small_topologies_exhaustive():
    smalls = [build("chain", 2, 100.0), build("chain", 4, 100.0, tx_range=100.0),
              build("ring", 4, 250.0), build("star", 4, 250.0),
              build("ring", 6, 250.0), build("grid", 4, 200.0)]
    rng = random.Random(99)
    for topo in smalls:
        assert topo.n_links <= 6
        imap = build_interference_map(topo)
        for n_channels in (1, 2, 3):
            routes, traffic = random_routes(topo, rng)
            asg = schedule_all_frames(routes, traffic, topo, imap, n_channels)
            channel, frame, _ = replay_schedule(routes, traffic, topo, imap, n_channels)
            assert asg.channel_of == channel and asg.frame_of == frame


def test_frame_priority_respects_order(monkeypatch):
    # channels are chosen frame by frame, in load order within a frame
    visited = []
    counts = channels.co_channel_counts

    def recorded(link, *args):
        visited.append(link)
        return counts(link, *args)

    monkeypatch.setattr(channels, "co_channel_counts", recorded)
    for seed in range(10):
        topo = random_topology(seed)
        imap = build_interference_map(topo)
        routes, traffic = random_routes(topo, random.Random(seed))
        order = order_links(routed_link_loads(topo.n_links, routes, traffic))
        visited.clear()
        asg = schedule_all_frames(routes, traffic, topo, imap, 2)
        pos = {l: i for i, l in enumerate(order)}
        assert visited == sorted(order, key=lambda l: (asg.frame_of[l], pos[l]))


@st.composite
def walked_topologies(draw):
    """A random topology, and random simple paths over it as link ids; a
    tenth of the time none."""
    seed = draw(st.integers(0, 10**6))
    topo = random_topology(seed)
    if draw(st.integers(0, 9)) == 0:
        return topo, []
    return topo, [links for _, _, links in random_paths(topo, random.Random(seed), 8)]


@settings(max_examples=200, deadline=None)
@given(walked_topologies())
def test_frames_take_the_loaded_subgraphs_degree(case):
    topo, walks = case
    frame_of = channels.route_frames(walks, topo.links)
    for f in set(frame_of):  # every frame is a matching
        ends = [n for l, link in enumerate(topo.links) if frame_of[l] == f
                for n in (link.u, link.v)]
        assert len(ends) == len(set(ends))
    if not walks:  # no routes: first fit in id order, the baseline's frames
        assert frame_of == first_fit_oracle(range(topo.n_links), n1(topo))
        return
    # The routed links alone, each walk renumbered: adding the links on no
    # route leaves each routed link's frame unchanged.
    routed = sorted({l for walk in walks for l in walk})
    index = {l: i for i, l in enumerate(routed)}
    alone = channels.route_frames([[index[l] for l in walk] for walk in walks],
                                  [topo.links[l] for l in routed])
    assert [frame_of[l] for l in routed] == alone
    graph = nx.Graph((topo.links[l].u, topo.links[l].v) for l in routed)
    degree = max(d for _, d in graph.degree())
    if nx.is_bipartite(graph):
        assert sorted(set(alone)) == list(range(degree))
    else:
        assert degree <= max(alone) + 1 <= 2 * degree - 1


def first_fit_oracle(order, adjacent):
    """First fit over explicit node-adjacent sets: per link in order, the
    smallest frame that none of its adjacent links holds yet."""
    frame_of = [-1] * len(adjacent)
    for link in order:
        taken = {frame_of[e] for e in adjacent[link]}
        frame = 0
        while frame in taken:
            frame += 1
        frame_of[link] = frame
    return frame_of


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_baseline_frames_are_first_fit_in_id_order(seed):
    t = random_topology(seed)
    by_id = first_fit_oracle(range(t.n_links), n1(t))
    assert baseline_assign(t, 3, 1).frame_of == tuple(by_id)


def test_baseline_single_link_single_channel():
    asg = baseline_assign(build("chain", 2, 100.0), 1, 42)
    assert asg == ChannelAssignment(1, (0,), (0,))


def test_baseline_deterministic_per_seed(ring4):
    a = baseline_assign(ring4, 3, 7)
    b = baseline_assign(ring4, 3, 7)
    assert a == b
    c = baseline_assign(ring4, 3, 8)
    assert a.frame_of == c.frame_of  # frames ignore the seed


def test_baseline_frames_form_matchings(ring4):
    asg = baseline_assign(ring4, 2, 3)
    for f in range(asg.n_frames):
        in_frame = [l for l, g in enumerate(asg.frame_of) if g == f]
        for i, a in enumerate(in_frame):
            ea = {ring4.links[a].u, ring4.links[a].v}
            for b in in_frame[i + 1:]:
                assert not (ea & {ring4.links[b].u, ring4.links[b].v})


def test_baseline_channel_histogram_uniformish():
    chain = build("chain", 1001, 200.0)  # 1000 links
    asg = baseline_assign(chain, 5, 2)
    counts = [asg.channel_of.count(c) for c in range(5)]
    assert all(abs(n - 200) <= 20 for n in counts)  # within 10% of uniform
    chi2 = sum((n - 200) ** 2 / 200 for n in counts)
    assert chi2 < 9.488  # 5% critical value, 4 degrees of freedom


def test_assignment_roundtrip():
    asg = ChannelAssignment(2, (1, 1, 0), (0, 1, 0))
    doc = to_json(asg)
    assert doc == {"n_channels": 2, "channel_of": [1, 1, 0], "frame_of": [0, 1, 0]}
    assert from_json(ChannelAssignment, doc, "assignment") == asg


@pytest.mark.parametrize("n_channels,channel_of,frame_of,error", [
    (2, (0, 1), (0,), r"^frame_of: must list 2 links, like channel_of, got 1$"),
    (2, (0, 2), (0, 1), r"^channel_of\[1\]: must be in \[0, 2\), got 2$"),
    (2, (-1, 0), (0, 1), r"^channel_of\[0\]: must be in \[0, 2\), got -1$"),
    (2, (0, 1), (0, -1), r"^frame_of\[1\]: must be >= 0, got -1$"),
    (0, (), (), r"^n_channels: must be >= 1, got 0$"),
])
def test_assignment_rejects_impossible_links(n_channels, channel_of, frame_of, error):
    with pytest.raises(ConfigurationError, match=error):
        ChannelAssignment(n_channels, channel_of, frame_of)
