"""Traffic profiles: one constant-bit-rate flow per communicating node pair."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .schema import check, invalid, param

FLOW_KINDS = ("voip", "vod", "cbr")

# The rate and packet size a scenario's flow of each kind takes when it
# gives none.
KIND_DEFAULTS = {
    # GSM-AMR style voice: 12.2 kb/s, two 244-bit frames per packet.
    "voip": {"rate_bps": 12200.0, "packet_bytes": 61},
    # Video-on-demand: 150 kb/s with large payload units.
    "vod": {"rate_bps": 150000.0, "packet_bytes": 65536},
}


@dataclass(frozen=True)
class Flow:
    src: int
    dst: int
    rate_bps: float = param(gt=0)
    packet_bytes: int = param(ge=1)
    kind: str = param("cbr", choices=FLOW_KINDS)

    def __post_init__(self):
        check(self)
        if self.src == self.dst:
            raise invalid("dst", f"must differ from src, got ({self.src}, {self.dst})")
        # The simulator spaces packets packet_bits / rate_bps seconds apart.
        try:
            interval = self.packet_bits / self.rate_bps
        except OverflowError:  # packet_bits is past the float range
            raise invalid("packet_bytes", f"must fit a float as bits, got an integer of "
                                          f"{self.packet_bytes.bit_length()} bits") from None
        if not math.isfinite(interval):
            raise invalid("rate_bps", f"must space packets a finite time apart, "
                                      f"got {self.rate_bps!r}")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.src, self.dst)

    @property
    def packet_bits(self) -> int:
        return self.packet_bytes * 8


@dataclass(frozen=True)
class TrafficProfile:
    flows: tuple[Flow, ...]

    def __post_init__(self):
        pairs = [f.pair for f in self.flows]
        if len(set(pairs)) != len(pairs):
            raise invalid("flows", "duplicate (src, dst) pair in traffic profile")

    def by_pair(self) -> dict[tuple[int, int], Flow]:
        return {f.pair: f for f in self.flows}

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(f.pair for f in self.flows)

    def total_demand_bps(self) -> float:
        return sum(f.rate_bps for f in self.flows)
