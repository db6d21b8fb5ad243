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
from typing import Sequence

from .errors import ContractError
from .topology import InterferenceMap


class ChannelAssignment:
    """Mutable assignment state: per-link channel and activation frame."""

    def __init__(self, n_links: int, n_channels: int):
        if n_channels < 1:
            raise ValueError("n_channels must be >= 1")
        self.n_links = n_links
        self.n_channels = n_channels
        self.channel_of: list[int | None] = [None] * n_links
        self.frame_of: list[int | None] = [None] * n_links

    def assign(self, link: int, channel: int, frame: int) -> None:
        if not 0 <= channel < self.n_channels:
            raise ValueError(f"channel {channel} out of range")
        if self.channel_of[link] is not None:
            raise ContractError(f"link {link} already assigned")
        self.channel_of[link] = channel
        self.frame_of[link] = frame

    def links_in_frame(self, frame: int) -> list[int]:
        return [l for l in range(self.n_links) if self.frame_of[l] == frame]

    @property
    def n_frames(self) -> int:
        assigned = [f for f in self.frame_of if f is not None]
        return max(assigned) + 1 if assigned else 0

    @property
    def fully_assigned(self) -> bool:
        return all(c is not None for c in self.channel_of)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ChannelAssignment)
                and self.n_links == other.n_links
                and self.n_channels == other.n_channels
                and self.channel_of == other.channel_of
                and self.frame_of == other.frame_of)

    def __repr__(self) -> str:
        return (f"ChannelAssignment(n_links={self.n_links}, n_channels={self.n_channels}, "
                f"channel_of={self.channel_of}, frame_of={self.frame_of})")

    def to_dict(self) -> dict:
        return {"n_links": self.n_links, "n_channels": self.n_channels,
                "channel": list(self.channel_of), "frame": list(self.frame_of)}

    @classmethod
    def from_dict(cls, d: dict) -> "ChannelAssignment":
        """The assignment ``to_dict`` writes as d. A link holds both a channel
        in [0, n_channels) and a frame >= 0, or neither; anything else, or a
        list whose length is not n_links, raises ValueError."""
        n_links, n_channels, channel, frame = (d["n_links"], d["n_channels"],
                                               d["channel"], d["frame"])
        if not (_is_int(n_links) and n_links >= 0 and _is_int(n_channels)):
            raise ValueError(f"n_links and n_channels must be integers, got "
                             f"{n_links!r} and {n_channels!r}")
        for name, values in (("channel", channel), ("frame", frame)):
            if not isinstance(values, list) or len(values) != n_links:
                raise ValueError(f"{name} must list {n_links} links, got {values!r}")
        asg = cls(n_links, n_channels)
        for link, (c, f) in enumerate(zip(channel, frame)):
            if c is None and f is None:
                continue
            if not (_is_int(c) and _is_int(f) and f >= 0):
                raise ValueError(f"link {link} has channel {c!r} and frame {f!r}")
            asg.assign(link, c, f)
        return asg


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def order_links(delta: Sequence[float]) -> list[int]:
    """Link ids by descending load, ties by ascending id."""
    return sorted(range(len(delta)), key=lambda l: (-delta[l], l))


def eligible(link: int, assignment: ChannelAssignment, n1: Sequence[frozenset[int]],
             frame: int) -> bool:
    """A link can join a frame only if no node-adjacent neighbour is in it."""
    return all(assignment.frame_of[e] != frame for e in n1[link])


def channel_gain_sum(link: int, channel: int, assignment: ChannelAssignment,
                     imap: InterferenceMap, gains: Sequence[float]) -> float:
    """Summed gain of assigned co-channel links that interfere with `link`."""
    if not 0 <= channel < assignment.n_channels:
        raise ValueError(f"channel {channel} out of range")
    channel_of = assignment.channel_of
    # sorted so the float summation order never depends on set internals
    return sum(gains[q] for q in sorted(imap.interferers[link]) if channel_of[q] == channel)


def assign_frame(order: Sequence[int], assignment: ChannelAssignment,
                 imap: InterferenceMap, gains: Sequence[float],
                 frame: int) -> list[int]:
    """One pass over unassigned links in priority order; returns the links
    placed into this frame."""
    placed: list[int] = []
    for link in order:
        if assignment.channel_of[link] is not None:
            continue
        if not eligible(link, assignment, imap.n1, frame):
            continue
        d = [channel_gain_sum(link, c, assignment, imap, gains)
             for c in range(assignment.n_channels)]
        best = min(range(assignment.n_channels), key=lambda c: (d[c], c))
        assignment.assign(link, best, frame)
        placed.append(link)
    return placed


def schedule_all_frames(order: Sequence[int], imap: InterferenceMap,
                        gains: Sequence[float], n_channels: int) -> ChannelAssignment:
    """Repeat the greedy pass with a fresh frame until every link is
    assigned. Channel choice keeps seeing the cumulative co-channel state;
    frame eligibility resets per pass. Each pass places at least the first
    leftover link, so at most len(order) frames are built."""
    assignment = ChannelAssignment(len(order), n_channels)
    frame = 0
    while not assignment.fully_assigned:
        placed = assign_frame(order, assignment, imap, gains, frame)
        if not placed:
            raise ContractError("assignment made no progress; inconsistent neighbour sets")
        frame += 1
    return assignment


def baseline_assign(n_links: int, n_channels: int, seed: int,
                    n1: Sequence[frozenset[int]]) -> ChannelAssignment:
    """Comparison baseline: seeded uniform-random channel per link, frames
    by greedy colouring of the shared-endpoint conflict in link-id order."""
    rng = random.Random(seed)
    assignment = ChannelAssignment(n_links, n_channels)
    for link in range(n_links):
        channel = rng.randrange(n_channels)
        taken = {assignment.frame_of[e] for e in n1[link]
                 if assignment.frame_of[e] is not None}
        frame = 0
        while frame in taken:
            frame += 1
        assignment.assign(link, channel, frame)
    return assignment
