"""Slotted-time packet simulator.

Flows inject fixed-size packets at their configured constant bit rate.
A link may transmit only in the slots of its activation frame; its
per-slot service share is the channel capacity times the slot length
divided by the number of co-channel interfering links active in the same
slot. Slots cycle round-robin through the frames that hold a routed link,
in the plan's order: a frame that holds only links on no route would be a
slot in which nothing can send, so the cycle leaves it out. Service
accrues as bit credit so packets larger than one slot's share span
several active slots. Queues are FIFO with a fixed packet capacity;
overflow drops. Everything is deterministic for a given scenario and seed.

Each routed link keeps its state on one record, a ``_Link``: its queue, the
packets the queue holds, its credit, its frame, its bit in that frame and
the bits of its co-channel links. A frame's backlog, the links of that frame
with packets queued, is one int: bit i stands for the frame's i-th routed
link in link order. A slot serves the backlog's set bits from the lowest
up, which is link order, taking off the lowest set bit each time, and a
link's divisor is 1 plus the set bits that its co-channel mask shares with
the backlog. A flow carries its route as a tuple of link records, so a
slot's work reads attributes and looks up no table by link id. The run's
constants (a slot's bits, the queue capacity, the slot length, the admit
slack and the last admit time) are computed once, when the run is built.

A queue holds runs: consecutive packets of one flow at one hop, kept as
their inject times. Service takes packets off the head runs while the
link's credit covers the next one. Forwarding appends each served batch to
the next hop's queue, into the tail run when that holds the same flow at
the same hop, as far as the queue has room, and drops the rest. Delivery
adds up delays one packet at a time in service order. The results equal
moving packets one by one, bit for bit, and the work of a slot follows the
runs it moves, not the packets queued.

A run's first packet is charged as a single packet is: it is served when
``size <= c + eps`` and then ``c -= size``. ``_charge`` serves the rest of
the run with one quotient, ``n = int(c / size)``, corrected by that same
test on ``c - k * size``, and charges ``c - n * size`` once. This equals
charging packet by packet: the size is an int, and while the credit c is
below 2**52 its ulp is at most 1 and divides the size, and c >= size -
eps > size / 2 whenever a packet is served, so each ``c - size`` is exact
(by Sterbenz's lemma when c <= 2 * size, and because the result is a
multiple of ulp(c) no larger than c otherwise). Hence ``c - k * size``
is the credit after k single charges, every test sees the same float, and
the test is monotone in k, so the correcting walk is a step or two. Credit
of 2**52 or more, or inf, keeps the per-packet loop.

``run()`` jumps over the slots that can change no state but credit. After
a step that moved no packet, or when the next slot's frame has no
backlogged link, it jumps to the first slot, at most the run's bound, at
which a flow's next packet is due or some backlogged link's credit covers
its head packet. Until that slot no packet moves, so the backlogs and
each link's divisor stay fixed: each waiting link gets its share added
once per slot of its frame, the same float adds in the same order as
stepping, and an audit records the jumped grants in (slot, link) order.
The result equals stepping every slot. One run may inject at most
``MAX_PACKETS`` packets and span at most ``MAX_SLOTS`` slots.

Each flow counts its own packets generated, delivered and dropped and its
delays; the run keeps one more sum, of every delay in service order, for
the average delay. ``SimMetrics`` stores the flows' counts, that average
and the throughput in bits, and reads every total off the flows.
``metrics()`` raises ContractError unless the flows' generated packets
equal those delivered, dropped and held in the queues, which count their
packets apart from the flows.

A flow's due slot is ceil(next_t / slot_s), moved at most one slot to
agree with the admit test of ``_inject``. A flow whose next packet falls
after the last slot is due at inf and never injected again; that is tested
first, so no slot index is computed for it and none overflows.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields

from .channels import ChannelAssignment
from .errors import ConfigurationError, ContractError
from .loads import Pair
from .routing import RouteTable
from .schema import check, invalid, param
from .topology import InterferenceMap
from .traffic import Flow, TrafficProfile

_CREDIT_EPS = 1e-6  # bits of slack on credit comparisons
_TIME_EPS = 1e-9    # relative slack on slot-boundary comparisons
MAX_PACKETS = 1e8   # bound on the packets one run may inject
MAX_SLOTS = 1e8     # bound on the slots one run may span
_EXACT = 2.0 ** 52  # below it, charging an int size to credit is exact


@dataclass(frozen=True)
class SimConfig:
    horizon_s: float = 100.0
    channel_capacity_bps: float = param(10e6, gt=0)
    slot_s: float = param(1e-3, gt=0)
    queue_packets: int = param(64, ge=1)
    seed: int = 1

    def __post_init__(self):
        check(self)
        if self.horizon_s < self.slot_s:
            raise invalid("horizon_s", f"must cover at least one slot of {self.slot_s} s")

    @property
    def n_slots(self) -> int:
        return int(self.horizon_s / self.slot_s + _TIME_EPS)


@dataclass(frozen=True)
class FlowStats:
    generated: int = param(0, ge=0)
    delivered: int = param(0, ge=0)
    dropped: int = param(0, ge=0)
    delay_sum_s: float = param(0.0, ge=0)

    def __post_init__(self):
        check(self)
        if self.delivered + self.dropped > self.generated:
            raise invalid("delivered", f"must be <= {self.generated} generated - "
                                       f"{self.dropped} dropped, got {self.delivered}")


@dataclass(frozen=True)
class SimMetrics:
    """A run's outcome: each flow's counts, the average delay and the
    throughput in bits per second. The average is kept because it sums every
    delay in service order, which the flows' sums added up would not give
    bit for bit, and the throughput because the flows' counts hold no packet
    size. Every total is read off the flows."""
    avg_delay_s: float = param(0.0, ge=0)
    throughput_bps: float = param(0.0, ge=0)
    per_flow: dict[Pair, FlowStats] = field(default_factory=dict)

    def __post_init__(self):
        check(self)

    @property
    def generated(self) -> int:
        return sum(st.generated for st in self.per_flow.values())

    @property
    def delivered(self) -> int:
        return sum(st.delivered for st in self.per_flow.values())

    @property
    def dropped(self) -> int:
        return sum(st.dropped for st in self.per_flow.values())

    @property
    def in_flight(self) -> int:
        """The packets generated but neither delivered nor dropped: queued."""
        return self.generated - self.delivered - self.dropped

    @property
    def pdr(self) -> float:
        generated = self.generated
        return self.delivered / generated if generated else 0.0

    @property
    def throughput_pkts(self) -> int:
        return self.delivered


class ServiceAudit:
    """Optional per-slot record of (slot, link, granted bits, divisor)."""

    def __init__(self):
        self.grants: list[tuple[int, int, float, int]] = []

    def record(self, slot: int, link: int, bits: float, divisor: int) -> None:
        self.grants.append((slot, link, bits, divisor))


def _charge(c: float, size: int, n_max: int) -> tuple[int, float]:
    """Serve up to ``n_max`` packets of ``size`` bits from credit ``c``, each
    while ``size <= c + eps``, and return how many and the credit left: what
    charging them one at a time gives, bit for bit (see the module
    docstring)."""
    eps = _CREDIT_EPS
    if c < _EXACT:
        n = int(c / size)
        if n > n_max:
            n = n_max
        while n and not size <= c - (n - 1) * size + eps:
            n -= 1
        while n < n_max and size <= c - n * size + eps:
            n += 1
        return n, c - n * size
    n = 0
    while n < n_max and size <= c + eps:
        c -= size
        n += 1
    return n, c


class _Link:
    """A routed link's state. ``queue``: a FIFO of runs [flow, hop, inject
    times, head], each the packets times[head:] of one flow at one hop;
    ``count``: the packets it holds. ``frame``: its frame's place in the
    cycle; ``bit``: its bit in that frame's backlog mask, set while its
    queue is not empty. ``others``: the bits of its co-channel links other
    than itself, 0 when it has none; served, its divisor is 1 plus those of
    them backlogged."""
    __slots__ = ("id", "queue", "count", "credit", "frame", "bit", "others")

    def __init__(self, link_id: int, frame: int, bit: int):
        self.id = link_id
        self.queue: deque[list] = deque()
        self.count = 0
        self.credit = 0.0
        self.frame = frame
        self.bit = bit
        self.others = 0


class _FlowRun:
    __slots__ = ("pair", "route", "size_bits", "interval_s", "next_idx", "due",
                 "generated", "delivered", "dropped", "delay_sum_s")

    def __init__(self, pair: Pair, route: tuple, size_bits: int, rate_bps: float):
        self.pair = pair
        self.route = route  # its links, first hop first: a run's _Link records
        self.size_bits = size_bits
        self.interval_s = size_bits / rate_bps
        self.next_idx = 0
        self.due = 0  # first slot whose start admits the next packet, or inf
        # The flow's packet outcomes so far, the run's only outcome counters.
        self.generated = self.delivered = self.dropped = 0
        self.delay_sum_s = 0.0

    @property
    def next_t(self) -> float:
        return self.next_idx * self.interval_s

    def set_due(self, slot_s: float, tol: float, last_t: float) -> None:
        """Set ``due`` to the first slot s with next_t <= s * slot_s + tol,
        the test by which ``Simulator._inject`` admits a packet, or to inf
        when next_t is past ``last_t``, the admit time of the run's last
        slot. Below ``MAX_SLOTS`` slots, ceil(next_t / slot_s) is at most one
        slot off the first one, so a step down or up with that very
        comparison finds it."""
        t = self.next_t
        if t > last_t:
            self.due = math.inf
            return
        s = math.ceil(t / slot_s)
        while s > 0 and t <= (s - 1) * slot_s + tol:
            s -= 1
        while not t <= s * slot_s + tol:
            s += 1
        self.due = s


@dataclass(frozen=True)
class SimInput:
    """Everything a run reads besides its config. ``flows``: the flows that
    run, in pair order, each with its route's links. ``links``: per link on a
    route, in link order, its frame's place in the cycle and the routed links
    that interfere with it on its own frame and channel, itself included, in
    ascending order. ``n_frames``: the cycle's length, at least 1. The cycle
    is the plan's frames that hold a routed link, in the plan's order.
    Channel labels, frame numbers and links on no route drop out."""
    flows: tuple[tuple[Flow, tuple[int, ...]], ...]
    links: tuple[tuple[int, int, tuple[int, ...]], ...]
    n_frames: int


def sim_input(imap: InterferenceMap, profile: TrafficProfile, routes: RouteTable,
              assignment: ChannelAssignment) -> SimInput:
    """The input of a run of these routes and this assignment, after the
    checks that every routed flow has a route and that the assignment covers
    every link."""
    flows = profile.by_pair()
    routed = []
    for pair in profile.pairs():
        if pair in routes.blocked:
            continue
        route = routes.routes.get(pair)
        if route is None:
            raise ContractError(f"flow {pair} has no route and is not blocked")
        routed.append((flows[pair], route.links))
    if len(assignment.channel_of) != len(imap.interferers):
        raise ContractError(f"the assignment covers {len(assignment.channel_of)} links, "
                            f"the topology has {len(imap.interferers)}")
    used = {l for _, links in routed for l in links}
    channel_of, frame_of = assignment.channel_of, assignment.frame_of
    # A frame that holds no routed link gets no slot: nothing could send in it.
    cycle = {f: i for i, f in enumerate(sorted({frame_of[l] for l in used}))}
    links = tuple((l, cycle[frame_of[l]], tuple(q for q in imap.interferers[l]
                                                if q in used and frame_of[q] == frame_of[l]
                                                and channel_of[q] == channel_of[l]))
                  for l in sorted(used))
    return SimInput(tuple(routed), links, max(1, len(cycle)))


class Simulator:
    """Single deterministic run; step() advances one slot."""

    def __init__(self, inp: SimInput, config: SimConfig,
                 audit: ServiceAudit | None = None):
        packets = sum(config.horizon_s / (f.packet_bits / f.rate_bps) + 1 for f, _ in inp.flows)
        if packets > MAX_PACKETS:
            raise ConfigurationError(
                f"sim.horizon_s: {config.horizon_s} s at the flows' rates would inject "
                f"about {packets:.3g} packets; one run may inject at most {MAX_PACKETS:.0e}")
        slots = config.horizon_s / config.slot_s
        if slots > MAX_SLOTS:
            raise ConfigurationError(
                f"sim.slot_s: {config.slot_s} s slots over {config.horizon_s} s make "
                f"about {slots:.3g} slots; one run may span at most {MAX_SLOTS:.0e}")
        self.config = config
        self.audit = audit
        self.n_frames = inp.n_frames
        # Per frame, its routed links in link order, the i-th on bit i of the
        # frame's mask, and the mask of those with a non-empty queue.
        self._members: list[list[_Link]] = [[] for _ in range(self.n_frames)]
        self._masks = [0] * self.n_frames
        by_id = {}
        for l, frame, _ in inp.links:
            members = self._members[frame]
            by_id[l] = link = _Link(l, frame, 1 << len(members))
            members.append(link)
        for l, _, co_ch in inp.links:
            by_id[l].others = sum(by_id[q].bit for q in co_ch if q != l)
        self._links = tuple(by_id.values())  # in link order
        self._flows = [_FlowRun(f.pair, tuple(by_id[l] for l in links), f.packet_bits,
                                f.rate_bps)
                       for f, links in inp.flows]
        self._min_due: float = 0 if self._flows else math.inf
        self._still = -1  # the last slot whose step moved no packet
        # The config's values a slot reads, taken once: the slot length, a
        # slot's bits of service, the queue capacity, the admit slack of a
        # slot start, and the admit time of the last slot, after which a
        # packet is never injected.
        self._slot_s = config.slot_s
        self._slot_bits = config.channel_capacity_bps * config.slot_s
        self._queue_packets = config.queue_packets
        self._tol = config.slot_s * _TIME_EPS
        self._last_t = (config.n_slots - 1) * config.slot_s + self._tol

        self.slot = 0
        # Every delivery's delay, summed in service order for avg_delay_s.
        self.delay_sum_s = 0.0

    # -- slot mechanics -------------------------------------------------

    def _inject(self) -> None:
        """Inject every packet due at this slot's start, flow by flow. A
        flow's packets arrive at its first link as if forwarded there."""
        slot, slot_s, tol, last_t = self.slot, self._slot_s, self._tol, self._last_t
        limit = slot * slot_s + tol
        arrivals = []
        for fr in self._flows:
            if fr.due > slot:
                continue
            # The packet at next_idx is due from slot ``due`` on; so is each
            # next one whose time, next_t at its index, is at most limit.
            times = [fr.next_t]
            idx, interval = fr.next_idx + 1, fr.interval_s
            t = idx * interval
            while t <= limit:
                times.append(t)
                idx += 1
                t = idx * interval
            fr.generated += len(times)
            arrivals.append([fr, -1, times, 0])
            fr.next_idx = idx
            fr.set_due(slot_s, tol, last_t)
        self._min_due = min(fr.due for fr in self._flows)
        self._forward(arrivals)

    def _forward(self, moved: list[list]) -> None:
        """Move each run [flow, hop, inject times, 0], in order, off hop
        ``hop`` of its flow's route (-1 for packets just injected): delivered
        at the end of the slot past the last hop, else appended to the next
        hop's queue as far as it has room, the rest dropped."""
        qcap = self._queue_packets
        for run in moved:
            fr, hop, times, _ = run
            k = len(times)
            route = fr.route
            hop += 1
            if hop == len(route):
                fr.delivered += k
                # Delays add up one packet at a time, in service order.
                end_t = (self.slot + 1) * self._slot_s
                total, flow_total = self.delay_sum_s, fr.delay_sum_s
                for t in times:
                    delay = end_t - t
                    total += delay
                    flow_total += delay
                self.delay_sum_s, fr.delay_sum_s = total, flow_total
                continue
            link = route[hop]
            room = qcap - link.count
            if k > room:
                fr.dropped += k - room
                del times[room:]
                k = room
                if not k:
                    continue
            q = link.queue
            link.count += k
            if q and q[-1][0] is fr and q[-1][1] == hop:
                q[-1][2].extend(times)
                continue
            if not q:
                self._masks[link.frame] |= link.bit
            run[1] = hop
            q.append(run)

    def step(self) -> None:
        slot = self.slot
        if slot >= self._min_due:
            self._inject()

        # Serve the links backlogged at slot start, lowest bit first, which
        # is link order; each one's divisor reads the slot-start mask.
        # Packets served in this slot wait in the outbox until service ends.
        frame = slot % self.n_frames
        backlog = self._masks[frame]
        members = self._members[frame]
        audit = self.audit

        outbox: list[list] = []
        emptied = []
        slot_bits = self._slot_bits
        eps = _CREDIT_EPS
        mask = backlog
        while mask:
            low = mask & -mask
            mask ^= low
            link = members[low.bit_length() - 1]
            others = link.others
            if others:
                divisor = 1 + (backlog & others).bit_count()
                share = slot_bits / divisor
            else:
                divisor, share = 1, slot_bits
            c = link.credit + share
            if audit is not None:
                audit.record(slot, link.id, share, divisor)
            q = link.queue
            while q:
                run = q[0]
                fr, hop, times, head = run
                size = fr.size_bits
                if size > c + eps:
                    break
                i, end = head + 1, len(times)
                c -= size
                if i < end:
                    n, c = _charge(c, size, end - i)
                    i += n
                link.count -= i - head
                # A run served to its end moves on itself; a run served in
                # part stays, and a new run takes the packets served.
                if i == end:
                    q.popleft()
                    if head:
                        run[2], run[3] = times[head:], 0
                    outbox.append(run)
                    continue
                outbox.append([fr, hop, times[head:i], 0])
                # Drop the served prefix once it outgrows the rest, so
                # serving costs the packets served, amortized.
                if 2 * i >= end:
                    del times[:i]
                    i = 0
                run[3] = i
                break
            link.credit = c
            if not q:
                emptied.append(link)

        if outbox:
            self._forward(outbox)
        else:
            self._still = slot

        # A served link left empty leaves the backlog with no credit; only a
        # served link can hold credit with an empty queue. One that this
        # slot's forwarding refilled stays, and keeps its credit.
        if emptied:
            mask = self._masks[frame]
            for link in emptied:
                if not link.queue:
                    mask ^= link.bit
                    link.credit = 0.0
            self._masks[frame] = mask
        self.slot = slot + 1

    def run(self, until_slot: int | None = None) -> None:
        bound = self.config.n_slots if until_slot is None else min(until_slot, self.config.n_slots)
        masks, n_frames = self._masks, self.n_frames
        while self.slot < bound:
            self.step()
            if self._still == self.slot - 1 or not masks[self.slot % n_frames]:
                self._jump(bound)

    def _jump(self, bound: int) -> None:
        """Jump to the first slot, at most ``bound``, at which a flow's next
        packet is due or a backlogged link's credit covers its head packet.
        The slots jumped over move no packet, so each only adds every
        backlogged link of its frame that link's share, as step() would."""
        start = self.slot
        target = min(self._min_due, bound)
        if target <= start:
            return
        n_frames, masks = self.n_frames, self._masks
        slot_bits = self._slot_bits
        eps = _CREDIT_EPS
        # Visit the frames in the order of their first slot, each one's links
        # in link order, and stop at the first link whose credit covers its
        # head there. The links before it wait: their share, divisor and head
        # size, the size as a float where that is exact, which compares faster.
        waiting = []
        for first in range(start, min(start + n_frames, target)):
            backlog = mask = masks[first % n_frames]
            members = self._members[first % n_frames]
            while mask:
                low = mask & -mask
                mask ^= low
                link = members[low.bit_length() - 1]
                others = link.others
                divisor = 1 + (backlog & others).bit_count() if others else 1
                share = slot_bits / divisor
                size = link.queue[0][0].size_bits
                if size <= link.credit + share + eps:
                    target = first
                    break
                waiting.append((link, first, share, divisor,
                                float(size) if size < _EXACT else size))
            if target == first:
                break
        # Add each waiting link's share slot by slot until its credit covers
        # its head or the target then is reached; a link that covers first
        # moves the target, and a link whose adds ran past it adds again.
        added = []
        for link, first, share, _, size in waiting:
            c = link.credit
            slots = range(first, target, n_frames)
            k = len(slots)
            for s in slots:
                total = c + share
                if size <= total + eps:
                    target = s
                    k = (s - first) // n_frames
                    break
                c = total
            added.append((link, first, share, k, c))
        for link, first, share, k, c in added:
            need = len(range(first, target, n_frames))
            if k > need:
                c = link.credit
                for _ in range(need):
                    c += share
            link.credit = c
        if self.audit is not None:
            # Every frame with a slot before the target had all its links
            # wait, in link order.
            grants: list[list] = [[] for _ in range(n_frames)]
            for link, first, share, divisor, _ in waiting:
                grants[first % n_frames].append((link.id, share, divisor))
            for slot in range(start, target):
                for grant in grants[slot % n_frames]:
                    self.audit.record(slot, *grant)
        self.slot = target

    # -- results ---------------------------------------------------------

    def metrics(self) -> SimMetrics:
        """A snapshot of the run so far. The queues count their packets apart
        from the flows, so a packet generated but neither delivered, dropped
        nor queued raises ContractError."""
        flows = self._flows
        generated = sum(fr.generated for fr in flows)
        delivered = sum(fr.delivered for fr in flows)
        dropped = sum(fr.dropped for fr in flows)
        queued = sum(link.count for link in self._links)
        if generated != delivered + dropped + queued:
            raise ContractError(
                f"packet conservation violated at slot {self.slot}: "
                f"{generated} != {delivered} + {dropped} + {queued} queued")
        delivered_bits = sum(fr.delivered * fr.size_bits for fr in flows)
        return SimMetrics(
            avg_delay_s=self.delay_sum_s / delivered if delivered else 0.0,
            throughput_bps=delivered_bits / self.config.horizon_s,
            per_flow={fr.pair: FlowStats(fr.generated, fr.delivered, fr.dropped, fr.delay_sum_s)
                      for fr in flows},
        )


def run_simulation(inp: SimInput, config: SimConfig,
                   audit: ServiceAudit | None = None) -> SimMetrics:
    sim = Simulator(inp, config, audit)
    sim.run()
    return sim.metrics()


def sim_key(inp: SimInput, config: SimConfig) -> tuple:
    """Everything ``run_simulation`` reads, as a hashable key: runs with equal
    keys return equal metrics. The simulator draws no random numbers, so the
    seed drops out."""
    return (inp, *(getattr(config, f.name) for f in fields(config) if f.name != "seed"))
