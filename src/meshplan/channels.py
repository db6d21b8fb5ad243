"""Greedy load-ordered channel assignment with TDMA-like activation frames.

Frames colour the links so that no two links of a frame share a node
(self-interference); one builder, ``kempe_frames``, makes them for both
protocols, keeping per node the frames its links hold so far. Links go in
descending load order, each taking the smallest frame that no link before it
holds at either endpoint (first fit), and a loaded link adds Kempe-chain
swaps to that. ccmca passes its expected loads, so its routed links take as
many frames as their subgraph's maximum degree when that subgraph is
bipartite, as on rings of even length and grids (König). The seeded random
baseline passes no load at all, which is first fit in link-id order. ccmca
then gives each link, frame by frame and in load order within a frame, the
channel with the smallest summed gain of already-assigned co-channel
interferers. Every link holds exactly one channel and one frame.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .schema import check, invalid, param
from .topology import InterferenceMap, Topology, VirtualLink


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


def channel_gain_sums(link: int, n_channels: int, channel_of: Sequence[int | None],
                      imap: InterferenceMap, gains: Sequence[float]) -> list[float]:
    """Per channel, the summed gain of the assigned links on it that
    interfere with `link`."""
    sums = [0.0] * n_channels
    for q in imap.interferers[link]:
        c = channel_of[q]
        if c is not None:
            sums[c] += gains[q]
    return sums


def kempe_frames(loads: Sequence[float], links: Sequence[VirtualLink]) -> list[int]:
    """Per link, its frame: links go in ``order_links(loads)`` order, and
    link (u, v) takes the first-fit frame ff unless that is above both a and
    b, the lowest frames free at u and at v. Then, if the link carries load,
    the a/b-alternating path from v's a-link has its two frames swapped and
    the link takes a; if that path ends at u (an odd cycle), it takes ff.

    A swap frees a at v and leaves u as it was, so loaded links use exactly
    the maximum degree of their subgraph in frames when that is bipartite
    (König), and at most 2Δ - 1 otherwise. Zero-load links come last and
    never swap, so they cannot move a loaded link's frame; all loads zero
    give plain first fit in link-id order."""
    frame_of = [-1] * len(links)
    held: defaultdict[int, int] = defaultdict(int)  # per node: bit f set once frame f is held
    at: defaultdict[int, dict[int, int]] = defaultdict(dict)  # per node: frame -> loaded link
    for link in order_links(loads):
        l = links[link]
        hu, hv = held[l.u], held[l.v]
        taken = hu | hv
        bit = ~taken & (taken + 1)  # first fit: the lowest frame neither endpoint holds
        if loads[link] > 0:  # so every link placed so far is loaded, and in `at`
            a, b = ~hu & (hu + 1), ~hv & (hv + 1)
            if bit != max(a, b):
                # v holds a, since a < bit and a is free at u; b is free at v
                fa, fb = a.bit_length() - 1, b.bit_length() - 1
                walk, node, f = [], l.v, fa
                while f in at[node]:
                    e = at[node][f]
                    walk.append(e)
                    node = links[e].u + links[e].v - node
                    f = fa + fb - f
                if node != l.u:  # swap a and b along the path
                    for e in walk:
                        del at[links[e].u][frame_of[e]], at[links[e].v][frame_of[e]]
                    for e in walk:
                        f = frame_of[e] = fa + fb - frame_of[e]
                        at[links[e].u][f] = at[links[e].v][f] = e
                    held[l.v] ^= a | b  # the path's inner nodes still hold both
                    held[node] ^= a | b
                    bit = a
            f = bit.bit_length() - 1
            at[l.u][f] = at[l.v][f] = link
        held[l.u] |= bit
        held[l.v] |= bit
        frame_of[link] = bit.bit_length() - 1
    return frame_of


def schedule_all_frames(loads: Sequence[float], topology: Topology, imap: InterferenceMap,
                        n_channels: int) -> ChannelAssignment:
    """Frames by ``kempe_frames``; then channels link by link in (frame,
    load order) sequence, each the one with the smallest summed gain of the
    co-channel interferers already assigned, ties to the smallest channel."""
    frame_of = kempe_frames(loads, topology.links)
    gains = topology.link_gains()
    channel_of: list[int | None] = [None] * len(frame_of)
    for link in sorted(order_links(loads), key=frame_of.__getitem__):
        d = channel_gain_sums(link, n_channels, channel_of, imap, gains)
        channel_of[link] = d.index(min(d))  # ties to the smallest channel
    return ChannelAssignment(n_channels, tuple(channel_of), tuple(frame_of))


def baseline_assign(topology: Topology, n_channels: int, seed: int) -> ChannelAssignment:
    """Comparison baseline: seeded uniform-random channel per link, frames
    by ``kempe_frames`` with no load, which is first fit in link-id order."""
    rng = random.Random(seed)
    links = topology.links
    channel_of = tuple(rng.randrange(n_channels) for _ in links)
    return ChannelAssignment(n_channels, channel_of,
                             tuple(kempe_frames([0.0] * len(links), links)))
