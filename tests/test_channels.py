import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshplan import (ChannelAssignment, ConfigurationError, baseline_assign,
                      build_interference_map, channel_gain_sums,
                      channels, order_links, schedule_all_frames)
from meshplan.schema import from_json, to_json

from conftest import build, n1, random_topology, replay_schedule


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
    assert channels.kempe_frames([], ()) == []


def test_channel_gain_sum(ring4_imap):
    gains = [0.1, 0.2, 0.3, 0.05]
    channel_of = [None] * 4
    assert channel_gain_sums(0, 2, channel_of, ring4_imap, gains) == [0.0, 0.0]
    channel_of[1] = channel_of[3] = 0
    assert channel_gain_sums(0, 2, channel_of, ring4_imap, gains) == [pytest.approx(0.25), 0.0]


def test_channel_gain_sum_counts_only_interferers(grid9):
    # On the grid with a tight interference range, far links must not count.
    topo = build("grid", 9, 200.0, interference_multiplier=1.0)
    imap = build_interference_map(topo)
    gains = [l.gain for l in topo.links]
    channel_of = [None] * topo.n_links
    assigned = {0: 0, 5: 0, 11: 0, 2: 1, 7: 1, 9: 2}
    for l, c in assigned.items():
        channel_of[l] = c
    for probe in range(topo.n_links):
        if channel_of[probe] is not None:
            continue
        # each channel's entry, summed by hand in ascending link order
        expect = [0.0] * 4
        for q in sorted(assigned):
            if q in imap.interferers[probe]:
                expect[assigned[q]] += gains[q]
        assert channel_gain_sums(probe, 4, channel_of, imap, gains) == expect


def test_schedule_single_link():
    t = build("chain", 2, 100.0)
    imap = build_interference_map(t)
    asg = schedule_all_frames([1.0], t, imap, 3)
    # all gain sums zero: smallest index wins
    assert asg == ChannelAssignment(3, (0,), (0,))


def test_first_fit_adjacent_links_defer_lower_priority():
    t = build("chain", 3, 100.0, tx_range=100.0)
    assert order_links([1.0, 5.0]) == [1, 0]  # link 1 first
    assert channels.kempe_frames([1.0, 5.0], t.links) == [1, 0]


def test_schedule_ring4_matching_and_argmin(ring4, ring4_imap):
    gains = ring4.link_gains()
    asg = schedule_all_frames([4.0, 3.0, 2.0, 1.0], ring4, ring4_imap, 2)
    # a maximal matching: opposite links
    assert [l for l, f in enumerate(asg.frame_of) if f == 0] == [0, 3]
    assert asg.channel_of[0] == 0
    assert asg.channel_of[3] == 1  # channel 0 already carries an interferer
    # exhaustive argmin replay for the second placed link
    assert channel_gain_sums(3, 2, [None] * 4, ring4_imap, gains) == [0.0, 0.0]
    assert channel_gain_sums(3, 2, [0, None, None, None], ring4_imap, gains) == [gains[0], 0.0]


def test_schedule_two_adjacent_links():
    t = build("chain", 3, 100.0, tx_range=100.0)
    imap = build_interference_map(t)
    asg = schedule_all_frames([1.0, 5.0], t, imap, 2)
    assert asg.frame_of == (1, 0)
    assert asg.n_frames == 2


def test_schedule_ring4_two_frames(ring4, ring4_imap):
    asg = schedule_all_frames([4.0, 3.0, 2.0, 1.0], ring4, ring4_imap, 2)
    assert asg.n_frames == 2
    assert asg.frame_of == (0, 1, 1, 0)
    # co-frame links land on different channels once gains are in play
    assert asg.channel_of[0] != asg.channel_of[3]
    assert asg.channel_of[1] != asg.channel_of[2]


def test_schedule_star_all_links_share_hub():
    t = build("star", 6, 250.0)
    imap = build_interference_map(t)
    asg = schedule_all_frames([5.0, 4.0, 3.0, 2.0, 1.0], t, imap, 3)
    assert asg.n_frames == 5
    assert [asg.frame_of[l] for l in range(5)] == [0, 1, 2, 3, 4]


def test_schedule_coverage_and_matching_invariants():
    for seed in range(30):
        topo = random_topology(seed)
        imap = build_interference_map(topo)
        rng = random.Random(seed + 1000)
        delta = [rng.uniform(0, 100) for _ in range(topo.n_links)]
        asg = schedule_all_frames(delta, topo, imap, 3)
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
        rng = random.Random(seed + 2000)
        delta = [rng.uniform(0, 100) for _ in range(topo.n_links)]
        n_channels = 2 + seed % 4
        asg = schedule_all_frames(delta, topo, imap, n_channels)
        channel, frame = replay_schedule(delta, topo, imap, n_channels)
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
            delta = [rng.uniform(0, 10) for _ in range(topo.n_links)]
            asg = schedule_all_frames(delta, topo, imap, n_channels)
            channel, frame = replay_schedule(delta, topo, imap, n_channels)
            assert asg.channel_of == channel and asg.frame_of == frame


def test_frame_priority_respects_order(monkeypatch):
    # channels are chosen frame by frame, in priority order within a frame
    visited = []
    gain_sums = channels.channel_gain_sums

    def recorded(link, *args):
        visited.append(link)
        return gain_sums(link, *args)

    monkeypatch.setattr(channels, "channel_gain_sums", recorded)
    for seed in range(10):
        topo = random_topology(seed)
        imap = build_interference_map(topo)
        delta = [random.Random(seed).uniform(0, 9) for _ in range(topo.n_links)]
        order = order_links(delta)
        visited.clear()
        asg = schedule_all_frames(delta, topo, imap, 2)
        pos = {l: i for i, l in enumerate(order)}
        assert visited == sorted(order, key=lambda l: (asg.frame_of[l], pos[l]))


@st.composite
def loaded_topologies(draw):
    """A random topology, and per link a load; a fifth of them zero."""
    topo = random_topology(draw(st.integers(0, 10**6)))
    loads = draw(st.lists(st.integers(0, 4).map(float), min_size=topo.n_links,
                          max_size=topo.n_links))
    return topo, loads


@settings(max_examples=200, deadline=None)
@given(loaded_topologies())
def test_frames_take_the_loaded_subgraphs_degree(case):
    topo, loads = case
    frame_of = channels.kempe_frames(loads, topo.links)
    for f in set(frame_of):  # every frame is a matching
        ends = [n for l, link in enumerate(topo.links) if frame_of[l] == f
                for n in (link.u, link.v)]
        assert len(ends) == len(set(ends))
    loaded = [l for l, x in enumerate(loads) if x > 0]
    if not loaded:  # no load: first fit in id order, the baseline's frames
        assert frame_of == first_fit_oracle(range(topo.n_links), n1(topo))
        return
    # The loaded links alone, every one carrying load: adding the zero-load
    # links leaves each loaded link's frame unchanged.
    alone = channels.kempe_frames([loads[l] for l in loaded], [topo.links[l] for l in loaded])
    assert [frame_of[l] for l in loaded] == alone
    graph = nx.Graph((topo.links[l].u, topo.links[l].v) for l in loaded)
    degree = max(d for _, d in graph.degree())
    if nx.is_bipartite(graph):
        assert max(alone) + 1 == degree
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
