"""Channel assignment with TDMA-like activation frames chosen along routes.

Frames colour the links so that no two links of a frame share a node
(self-interference); one builder, ``route_frames``, makes them for both
protocols, keeping per node the frames its links hold so far. It walks
routes hop by hop, and each hop takes the first frame free at both its
endpoints in the cyclic order that follows its predecessor's frame, modulo
Δ, the routed subgraph's maximum degree. So consecutive hops of a route
land in consecutive frames of the cycle, and a packet served at one hop
meets the next hop's frame one slot later. When no frame below Δ is free at
both ends, a Kempe-chain swap frees one unless the chain closes an odd
cycle, so the routed links take exactly Δ frames when their subgraph is
bipartite, as on rings of even length and grids (König). Links on no route
come last, by first fit in link-id order.

ccmca walks its routes, the highest packet rate first. The seeded random
baseline walks none, which is first fit in link-id order. ccmca then gives
each link, frame by frame and in load order within a frame, the channel that
the fewest already-assigned interferers in its own frame hold: the
simulator splits a slot only among co-channel links of one frame, so those
are the only interferers a channel choice meets. Every link holds exactly
one channel and one frame.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Sequence

from .routing import RouteTable, routed_link_loads
from .schema import check, invalid, param
from .topology import InterferenceMap, Topology, VirtualLink
from .traffic import TrafficProfile


@dataclass(frozen=True)
class ChannelAssignment:
    """Per-link channel in [0, n_channels) and activation frame >= 0; every
    link holds both."""
    n_channels: int = param(ge=1)
    channel_of: tuple[int, ...]
    frame_of: tuple[int, ...]

    def __post_init__(self):
        check(self)
        if len(self.frame_of) != len(self.channel_of):
            raise invalid("frame_of", f"must list {len(self.channel_of)} links, "
                                      f"like channel_of, got {len(self.frame_of)}")
        for link, (c, f) in enumerate(zip(self.channel_of, self.frame_of)):
            if not 0 <= c < self.n_channels:
                raise invalid(f"channel_of[{link}]",
                              f"must be in [0, {self.n_channels}), got {c}")
            if f < 0:
                raise invalid(f"frame_of[{link}]", f"must be >= 0, got {f}")

    @property
    def n_frames(self) -> int:
        return max(self.frame_of, default=-1) + 1


def order_links(delta: Sequence[float]) -> list[int]:
    """Link ids by descending load, ties by ascending id."""
    return sorted(range(len(delta)), key=lambda l: (-delta[l], l))


def co_channel_counts(link: int, n_channels: int, channel_of: Sequence[int | None],
                      frame_of: Sequence[int], imap: InterferenceMap) -> list[int]:
    """Per channel, the assigned links on it that interfere with `link` in
    `link`'s frame."""
    counts = [0] * n_channels
    for q in imap.interferers[link]:
        c = channel_of[q]
        if c is not None and frame_of[q] == frame_of[link]:
            counts[c] += 1
    return counts


def route_frames(walks: Sequence[Sequence[int]], links: Sequence[VirtualLink]) -> list[int]:
    """Per link, its frame. ``walks`` are routes as link ids, in the order
    they take frames, and Δ is the maximum degree of the links on them. Each
    walk goes first hop first, with p = -1 at its start. A hop that an
    earlier walk framed keeps its frame, which becomes p. Any other hop (u,
    v) takes the first frame free at both ends in the cyclic order (p + 1 +
    k) mod Δ, k = 0..Δ-1, and that frame becomes p. If none is free at
    both, then for frames a free at u and b free at v, both in that order,
    the first a/b-alternating path from v that does not end at u has its two
    frames swapped, and the hop takes a. If every such path ends at u (an
    odd cycle), the hop takes the first frame >= Δ free at both ends.

    A swap frees a at v and leaves u as it was, so routed links use exactly
    Δ frames when their subgraph is bipartite (König), and at most 2Δ - 1
    otherwise. The links on no walk then take first fit in id order and
    never swap, so they cannot move a routed link; no walks at all give
    plain first fit in link-id order."""
    frame_of = [-1] * len(links)
    held: defaultdict[int, int] = defaultdict(int)  # per node: bit f set once frame f is held
    at: defaultdict[int, dict[int, int]] = defaultdict(dict)  # per node: frame -> routed link
    ends = Counter(n for l in {l for walk in walks for l in walk}
                   for n in (links[l].u, links[l].v))
    delta = max(ends.values(), default=0)

    def swapped(u: int, v: int, a: int, b: int) -> bool:
        """Swaps a and b along the a/b-alternating path from v, unless it
        ends at u; says whether it did."""
        path, node, f = [], v, a
        while f in at[node]:
            e = at[node][f]
            path.append(e)
            node = links[e].u + links[e].v - node
            f = a + b - f
        if node == u:
            return False
        for e in path:
            del at[links[e].u][frame_of[e]], at[links[e].v][frame_of[e]]
        for e in path:
            f = frame_of[e] = a + b - frame_of[e]
            at[links[e].u][f] = at[links[e].v][f] = e
        held[v] ^= 1 << a | 1 << b  # the path's inner nodes still hold both
        held[node] ^= 1 << a | 1 << b
        return True

    def kempe(u: int, v: int, cyclic: list[int]) -> int | None:
        """a, once a swap has freed it at v, or None on an odd cycle."""
        hu, hv = held[u], held[v]
        for a in cyclic:
            if not hu >> a & 1:
                for b in cyclic:
                    if not hv >> b & 1 and swapped(u, v, a, b):
                        return a
        return None

    for walk in walks:
        p = -1
        for link in walk:
            if frame_of[link] < 0:
                u, v = links[link].u, links[link].v
                cyclic = [(p + 1 + k) % delta for k in range(delta)]
                taken = held[u] | held[v]
                f = next((f for f in cyclic if not taken >> f & 1), None)
                if f is None:
                    f = kempe(u, v, cyclic)
                if f is None:
                    above = taken >> delta
                    f = delta + (~above & (above + 1)).bit_length() - 1
                frame_of[link] = f
                held[u] |= 1 << f
                held[v] |= 1 << f
                at[u][f] = at[v][f] = link
            p = frame_of[link]
    for link, l in enumerate(links):
        if frame_of[link] < 0:
            taken = held[l.u] | held[l.v]
            bit = ~taken & (taken + 1)  # first fit: the lowest frame neither endpoint holds
            held[l.u] |= bit
            held[l.v] |= bit
            frame_of[link] = bit.bit_length() - 1
    return frame_of


def schedule_all_frames(routes: RouteTable, profile: TrafficProfile, topology: Topology,
                        imap: InterferenceMap, n_channels: int) -> ChannelAssignment:
    """Frames by ``route_frames`` over the routes by descending packet rate,
    ties by pair; then channels link by link in (frame, load order)
    sequence, the loads being those the routes induce, each link taking the
    channel that the fewest interferers already assigned in its frame hold,
    ties to the smallest channel."""
    flows = profile.by_pair()
    walks = [routes.routes[pair].links for pair in sorted(
        routes.routes, key=lambda pair: (-flows[pair].rate_bps / flows[pair].packet_bits, pair))]
    frame_of = route_frames(walks, topology.links)
    loads = routed_link_loads(topology.n_links, routes, profile)
    channel_of: list[int | None] = [None] * len(frame_of)
    for link in sorted(order_links(loads), key=frame_of.__getitem__):
        d = co_channel_counts(link, n_channels, channel_of, frame_of, imap)
        channel_of[link] = d.index(min(d))  # ties to the smallest channel
    return ChannelAssignment(n_channels, tuple(channel_of), tuple(frame_of))


def baseline_assign(topology: Topology, n_channels: int, seed: int) -> ChannelAssignment:
    """Comparison baseline: seeded uniform-random channel per link, frames
    by ``route_frames`` with no route, which is first fit in link-id order."""
    rng = random.Random(seed)
    links = topology.links
    channel_of = tuple(rng.randrange(n_channels) for _ in links)
    return ChannelAssignment(n_channels, channel_of, tuple(route_frames((), links)))
