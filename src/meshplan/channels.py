"""Greedy load-ordered channel assignment with TDMA-like activation frames.

Links are visited in descending expected-load order. A link may join the
frame under construction only if none of its node-adjacent neighbours is
already in that frame (self-interference); among channels it takes the one
with the smallest summed gain of already-assigned co-channel interferers.
Repeating the pass over leftover links builds successive frames until
every link holds exactly one channel and one frame. A seeded random
assigner provides the comparison baseline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import ContractError
from .schema import check, invalid, param
from .topology import InterferenceMap


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


def eligible(link: int, frame_of: Sequence[int | None],
             n1: Sequence[frozenset[int]], frame: int) -> bool:
    """A link can join a frame only if no node-adjacent neighbour is in it."""
    return all(frame_of[e] != frame for e in n1[link])


def channel_gain_sums(link: int, n_channels: int, channel_of: Sequence[int | None],
                      imap: InterferenceMap, gains: Sequence[float]) -> list[float]:
    """Per channel, the summed gain of the assigned links on it that
    interfere with `link`."""
    sums = [0.0] * n_channels
    # sorted so that each channel's float sum runs in ascending link order,
    # never in an order that depends on set internals
    for q in sorted(imap.interferers[link]):
        c = channel_of[q]
        if c is not None:
            sums[c] += gains[q]
    return sums


def assign_frame(order: Sequence[int], channel_of: list[int | None],
                 frame_of: list[int | None], n_channels: int,
                 imap: InterferenceMap, gains: Sequence[float], frame: int) -> list[int]:
    """One pass over unassigned links (channel None) in priority order; fills
    their entries in channel_of and frame_of and returns the links placed
    into this frame."""
    placed: list[int] = []
    for link in order:
        if channel_of[link] is not None or not eligible(link, frame_of, imap.n1, frame):
            continue
        d = channel_gain_sums(link, n_channels, channel_of, imap, gains)
        channel_of[link] = d.index(min(d))  # ties to the smallest channel
        frame_of[link] = frame
        placed.append(link)
    return placed


def schedule_all_frames(order: Sequence[int], imap: InterferenceMap,
                        gains: Sequence[float], n_channels: int) -> ChannelAssignment:
    """Repeat the greedy pass with a fresh frame until every link is
    assigned. Channel choice keeps seeing the cumulative co-channel state;
    frame eligibility resets per pass. Each pass places at least the first
    leftover link, so at most len(order) frames are built."""
    channel_of: list[int | None] = [None] * len(order)
    frame_of: list[int | None] = [None] * len(order)
    frame = 0
    while None in channel_of:
        if not assign_frame(order, channel_of, frame_of, n_channels, imap, gains, frame):
            raise ContractError("assignment made no progress; inconsistent neighbour sets")
        frame += 1
    return ChannelAssignment(n_channels, tuple(channel_of), tuple(frame_of))


def baseline_assign(n_links: int, n_channels: int, seed: int,
                    n1: Sequence[frozenset[int]]) -> ChannelAssignment:
    """Comparison baseline: seeded uniform-random channel per link, frames
    by greedy colouring of the shared-endpoint conflict in link-id order."""
    rng = random.Random(seed)
    channel_of: list[int] = []
    frame_of: list[int] = []
    for link in range(n_links):
        channel_of.append(rng.randrange(n_channels))
        taken = {frame_of[e] for e in n1[link] if e < link}
        frame = 0
        while frame in taken:
            frame += 1
        frame_of.append(frame)
    return ChannelAssignment(n_channels, tuple(channel_of), tuple(frame_of))
