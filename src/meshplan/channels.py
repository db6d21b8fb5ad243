"""Greedy load-ordered channel assignment with TDMA-like activation frames.

Frames are a first-fit colouring of the links: each link takes the
smallest frame that no link before it already holds at either of its
endpoints, so no two links of a frame share a node (self-interference).
The colouring reads each link's own endpoints and keeps, per node, the
frames its links hold so far. Links go in descending expected-load order
for ccmca and in id order for the seeded random baseline. ccmca then gives
each link, frame by frame and in load order within a frame, the channel
with the smallest summed gain of already-assigned co-channel interferers.
Every link holds exactly one channel and one frame.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

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

    def links_in_frame(self, frame: int) -> list[int]:
        return [l for l, f in enumerate(self.frame_of) if f == frame]

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


def first_fit_frames(order: Iterable[int], links: Sequence[VirtualLink]) -> list[int]:
    """Per link, the smallest frame that no link earlier in `order` holds at
    either of its endpoints: first-fit colouring of the shared-endpoint
    conflict. `order` lists every link id once."""
    frame_of = [-1] * len(links)
    held: defaultdict[int, int] = defaultdict(int)  # per node: bit f set once frame f is held
    for link in order:
        l = links[link]
        taken = held[l.u] | held[l.v]
        bit = ~taken & (taken + 1)  # the lowest frame that neither endpoint holds
        held[l.u] |= bit
        held[l.v] |= bit
        frame_of[link] = bit.bit_length() - 1
    return frame_of


def schedule_all_frames(order: Sequence[int], topology: Topology, imap: InterferenceMap,
                        n_channels: int) -> ChannelAssignment:
    """Frames by first fit in `order`; then channels link by link in (frame,
    order) sequence, each the one with the smallest summed gain of the
    co-channel interferers already assigned, ties to the smallest channel."""
    frame_of = first_fit_frames(order, topology.links)
    gains = topology.link_gains()
    channel_of: list[int | None] = [None] * len(frame_of)
    for link in sorted(order, key=frame_of.__getitem__):
        d = channel_gain_sums(link, n_channels, channel_of, imap, gains)
        channel_of[link] = d.index(min(d))  # ties to the smallest channel
    return ChannelAssignment(n_channels, tuple(channel_of), tuple(frame_of))


def baseline_assign(topology: Topology, n_channels: int, seed: int) -> ChannelAssignment:
    """Comparison baseline: seeded uniform-random channel per link, frames
    by first fit in link-id order."""
    rng = random.Random(seed)
    links = topology.links
    channel_of = tuple(rng.randrange(n_channels) for _ in links)
    return ChannelAssignment(n_channels, channel_of,
                             tuple(first_fit_frames(range(len(links)), links)))
