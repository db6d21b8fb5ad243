import collections
import copy
import dataclasses
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshplan import (ChannelAssignment, ContractError, Route, RouteTable,
                      ServiceAudit, SimConfig, Simulator, TrafficProfile,
                      build_interference_map, load_scenario, run_pipeline,
                      run_simulation, scenario_from_dict, sim_input,
                      sweep_channels, sweep_time)

from meshplan.pipeline import plan
from meshplan.sim import MAX_SLOTS, _CREDIT_EPS, _TIME_EPS, _FlowRun, _charge, sim_key

from conftest import build, cbr, profile


def chain2():
    return build_interference_map(build("chain", 2, 100.0))


def single_link_setup(rate_bps, packet_bytes, capacity_bps, horizon_s,
                      queue_packets=64, slot_s=1e-3):
    imap = chain2()
    prof = profile(cbr(0, 1, rate_bps, packet_bytes))
    routes = RouteTable({(0, 1): Route((0,))})
    asg = ChannelAssignment(1, (0,), (0,))
    cfg = SimConfig(horizon_s=horizon_s, channel_capacity_bps=capacity_bps,
                    slot_s=slot_s, queue_packets=queue_packets)
    return sim_input(imap, prof, routes, asg), cfg


def test_zero_flows_all_counters_zero():
    imap = chain2()
    prof = TrafficProfile(())
    asg = ChannelAssignment(1, (0,), (0,))
    m = run_simulation(sim_input(imap, prof, RouteTable(), asg),
                       SimConfig(horizon_s=1.0, channel_capacity_bps=1e6))
    assert (m.generated, m.delivered, m.dropped, m.in_flight) == (0, 0, 0, 0)
    assert m.avg_delay_s == 0.0 and m.pdr == 0.0 and m.throughput_bps == 0.0


def test_uncontended_link_full_delivery_one_slot_delay():
    # 10000-bit packets every 4 ms against a 10000-bit per-slot share.
    args = single_link_setup(2.5e6, 1250, 10e6, horizon_s=1.0)
    m = run_simulation(*args)
    assert m.generated == 250
    assert m.delivered == 250
    assert m.dropped == 0 and m.in_flight == 0
    assert m.pdr == 1.0
    assert m.avg_delay_s == pytest.approx(1e-3, abs=1e-9)
    assert m.throughput_pkts == 250
    assert m.throughput_bps == pytest.approx(250 * 10000 / 1.0)


def test_two_hop_tandem_exact_delay():
    # Adjacent links must sit in different frames; an uncontended packet
    # crosses hop 1 in an even slot and hop 2 in the next odd slot.
    t = build("chain", 3, 100.0, tx_range=100.0)
    imap = build_interference_map(t)
    prof = profile(cbr(0, 2, 2.5e6, 1250))  # one 10000-bit packet every 4 slots
    routes = RouteTable({(0, 2): Route((0, 1))})
    asg = ChannelAssignment(2, (0, 1), (0, 1))
    m = run_simulation(sim_input(imap, prof, routes, asg),
                       SimConfig(horizon_s=1.0, channel_capacity_bps=10e6))
    assert m.pdr == 1.0 and m.dropped == 0
    assert m.avg_delay_s == pytest.approx(2e-3, abs=1e-9)


def test_overloaded_link_converges_to_half_delivery():
    # Demand at twice the service rate: the fluid limit of delivered/generated
    # is 1/2 once the queue saturates.
    args = single_link_setup(2e6, 125, 1e6, horizon_s=10.0)
    m = run_simulation(*args)
    assert m.generated == 19999
    assert m.delivered == 10000
    assert m.in_flight == 63  # steady state: inject 2, drop 1, serve 1
    assert m.dropped == m.generated - m.delivered - m.in_flight
    assert m.pdr == pytest.approx(0.5, abs=0.02)


def test_conservation_counters_add_up_with_drops():
    args = single_link_setup(2e6, 125, 1e6, horizon_s=2.0, queue_packets=8)
    m = run_simulation(*args)
    assert m.dropped > 0
    assert m.generated == m.delivered + m.dropped + m.in_flight


def test_queue_headroom_means_no_drops():
    args = single_link_setup(2e6, 125, 1e6, horizon_s=2.0, queue_packets=10_000)
    m = run_simulation(*args)
    assert m.dropped == 0
    assert m.pdr < 1.0  # still backlogged, just not dropping
    assert m.in_flight > 0


def test_missing_route_is_contract_error():
    imap = chain2()
    prof = profile(cbr(0, 1, 1000.0, 125))
    asg = ChannelAssignment(1, (0,), (0,))
    with pytest.raises(ContractError):
        sim_input(imap, prof, RouteTable(), asg)


def test_unassigned_route_link_is_contract_error():
    # an assignment that covers fewer links than the topology has
    imap = chain2()
    prof = profile(cbr(0, 1, 1000.0, 125))
    routes = RouteTable({(0, 1): Route((0,))})
    with pytest.raises(ContractError, match="covers 0 links, the topology has 1"):
        sim_input(imap, prof, routes, ChannelAssignment(1, (), ()))


def test_blocked_flow_skipped_with_counter():
    imap = chain2()
    prof = profile(cbr(0, 1, 1000.0, 125))
    routes = RouteTable({}, blocked=frozenset({(0, 1)}))
    asg = ChannelAssignment(1, (0,), (0,))
    inp = sim_input(imap, prof, routes, asg)
    assert inp.flows == ()
    m = run_simulation(inp, SimConfig(horizon_s=1.0, channel_capacity_bps=1e6))
    assert m.generated == 0 and m.per_flow == {}


def test_sim_key_holds_what_a_run_reads(ring4, ring4_imap):
    # Links 0=(0,1) and 3=(2,3) carry one flow each and share frame 0; links
    # 1 and 2 are on no route.
    prof = profile(cbr(0, 1, 2.5e6, 1250), cbr(2, 3, 2.5e6, 1250))
    routes = RouteTable({(0, 1): Route((0,)), (2, 3): Route((3,))})
    config = SimConfig(horizon_s=0.5)

    def assignment(channels, frames):
        return ChannelAssignment(2, tuple(channels), tuple(frames))

    def outcome(asg, cfg=config):
        inp = sim_input(ring4_imap, prof, routes, asg)
        return sim_key(inp, cfg), run_simulation(inp, cfg)

    base = outcome(assignment([0, 0, 0, 0], [0, 1, 1, 0]))
    # Channel labels, the channels of links on no route and the seed drop out.
    assert outcome(assignment([1, 0, 1, 1], [0, 1, 1, 0])) == base
    assert outcome(assignment([0, 0, 0, 0], [0, 1, 1, 0]),
                   dataclasses.replace(config, seed=7)) == base
    # Frames that hold only links on no route drop out of the cycle, and the
    # frames left keep their order under new numbers.
    assert outcome(assignment([0, 0, 0, 0], [0, 1, 2, 0])) == base
    assert outcome(assignment([0, 0, 0, 0], [2, 0, 1, 2])) == base
    # A smaller co-channel set, a longer cycle (link 3 on a frame of its own)
    # and a shorter horizon each change the run, and so the key.
    apart = outcome(assignment([0, 0, 0, 1], [0, 1, 1, 0]))
    for other, ref in ((apart, base),
                       (outcome(assignment([0, 0, 0, 1], [0, 1, 1, 2])), apart),
                       (outcome(assignment([0, 0, 0, 0], [0, 1, 1, 0]),
                                dataclasses.replace(config, horizon_s=0.4)), base)):
        assert other[0] != ref[0] and other[1] != ref[1]


# On the 3x3 grid, links sort by (u, v): 0=(0,1) 1=(0,3) 2=(1,2) 3=(1,4)
# 4=(2,5) 5=(3,4) 6=(3,6) 7=(4,5) 8=(4,7) 9=(5,8) 10=(6,7) 11=(7,8). The two
# flows meet on link 4; links 1, 3, 8, 10 and 11 are on no route.
GRID9_ROUTES = RouteTable({(0, 8): Route((0, 2, 4, 9)), (6, 2): Route((6, 5, 7, 4))})
GRID9_UNROUTED = (1, 3, 8, 10, 11)


@st.composite
def idle_frame_edits(draw):
    """Channels and frames for the 3x3 grid's 12 links, and the same frames
    with a frame of unrouted links only inserted, or renumbered in order."""
    channels = draw(st.lists(st.integers(0, 1), min_size=12, max_size=12))
    frames = draw(st.lists(st.integers(0, 5), min_size=12, max_size=12))
    if draw(st.booleans()):
        at = draw(st.integers(0, max(frames) + 1))
        idle = draw(st.sets(st.sampled_from(GRID9_UNROUTED), min_size=1))
        edited = [at if l in idle else f + (f >= at) for l, f in enumerate(frames)]
    else:
        used = sorted(set(frames))
        steps = draw(st.lists(st.integers(1, 3), min_size=len(used), max_size=len(used)))
        new = {f: n - 1 for f, n in zip(used, itertools.accumulate(steps))}
        edited = [new[f] for f in frames]
    return channels, frames, edited


@settings(max_examples=60, deadline=None)
@given(idle_frame_edits())
def test_idle_frames_and_frame_numbers_drop_out_of_a_run(case):
    channels, frames, edited = case
    imap = build_interference_map(build("grid", 9, 200.0))
    prof = profile(cbr(0, 8, 2.5e6, 1250), cbr(6, 2, 1e6, 1500))
    config = SimConfig(horizon_s=0.2)
    before, after = (sim_input(imap, prof, GRID9_ROUTES,
                               ChannelAssignment(2, tuple(channels), tuple(f)))
                     for f in (frames, edited))
    assert after == before
    assert run_simulation(after, config) == run_simulation(before, config)


# A 10x10 grid, 200 m pitch, six 4+4-hop flows, 2 s.
GRID100 = {"name": "grid100", "topology": {"kind": "grid", "n": 100, "spacing": 200.0},
           "traffic": {"flows": [
               {"src": 0, "dst": 44, "kind": "voip"}, {"src": 5, "dst": 41, "kind": "voip"},
               {"src": 50, "dst": 94, "kind": "vod", "packet_bytes": 1500},
               {"src": 59, "dst": 95, "kind": "voip"}, {"src": 22, "dst": 66, "kind": "voip"},
               {"src": 27, "dst": 63, "kind": "vod", "packet_bytes": 1500}]},
           "sim": {"horizon_s": 2.0}}


def test_grid_cycle_holds_only_frames_with_a_routed_link():
    # ccmca colours the links no route uses last, and its plan ends in a
    # frame that holds only those; the run's cycle leaves that frame out.
    # Pinned as they come out.
    scenario = scenario_from_dict(GRID100)
    outcome = {}
    for protocol in ("ccmca", "baseline"):
        _, imap, _, routes, assignment = plan(scenario, protocol)
        inp = sim_input(imap, scenario.traffic, routes, assignment)
        outcome[protocol] = (assignment.n_frames, inp.n_frames,
                             run_pipeline(scenario, protocol).metrics.avg_delay_s)
    # (frames in the plan, frames in the cycle, average delay in s)
    assert outcome == {"ccmca": (5, 4, 0.0169),
                       "baseline": (4, 4, 0.020500000000000015)}


def slots_per_hop(inp):
    """The packet-rate-weighted mean of the slots a packet waits between one
    hop's frame and the next hop's in the cycle: ((b - a - 1) mod F) + 1 for
    places a then b in a cycle of F frames, over every hop after a route's
    first."""
    place = {l: frame for l, frame, _ in inp.links}
    waits = weights = 0.0
    for flow, links in inp.flows:
        rate = flow.rate_bps / flow.packet_bits
        for a, b in zip(links, links[1:]):
            waits += rate * ((place[b] - place[a] - 1) % inp.n_frames + 1)
            weights += rate
    return waits / weights


def schedule_facts(scenario, protocol):
    """What a plan gives the simulator: (frames in the plan, frames in the
    cycle, the routed subgraph's maximum degree, same-frame co-channel pairs
    of interfering routed links, rate-weighted mean slots per hop to 4
    places, average delay in s)."""
    topology, imap, _, routes, asg = plan(scenario, protocol)
    routed = sorted({l for r in routes.routes.values() for l in r.links})
    degree = collections.Counter(n for l in routed
                                 for n in (topology.links[l].u, topology.links[l].v))
    pairs = sum(1 for i, l in enumerate(routed) for q in routed[i + 1:]
                if (asg.frame_of[l], asg.channel_of[l]) == (asg.frame_of[q], asg.channel_of[q])
                and q in imap.interferers[l])
    inp = sim_input(imap, scenario.traffic, routes, asg)
    return (asg.n_frames, inp.n_frames, max(degree.values()), pairs,
            round(slots_per_hop(inp), 4), run_pipeline(scenario, protocol).metrics.avg_delay_s)


SCHEDULE_DOCS = {"paper-table1": {"preset": "paper-table1"}, "grid100": GRID100}
# Per protocol: frames in the plan, frames in the cycle, the routed
# subgraph's maximum degree, same-frame co-channel routed pairs, mean slots
# per hop, average delay in s.
PINNED_SCHEDULES = {
    "paper-table1": {"ccmca": (2, 2, 2, 0, 1.0, 0.16812182870832),
                     "baseline": (2, 2, 2, 11, 1.0, 0.1740040415335408)},
    "grid100": {"ccmca": (5, 4, 4, 1, 1.3571, 0.0169),
                "baseline": (4, 4, 4, 18, 1.7571, 0.020500000000000015)},
}


@pytest.mark.parametrize("name", sorted(SCHEDULE_DOCS))
def test_schedule_characterization(name):
    # Both protocols' schedules on a ring and a grid where they differ,
    # pinned as they come out: ccmca's frames against the routed subgraph's
    # degree, the paper's co-channel interference claim, the slots a packet
    # waits per hop, and delay.
    scenario = scenario_from_dict(SCHEDULE_DOCS[name])
    outcome = {protocol: schedule_facts(scenario, protocol) for protocol in ("ccmca", "baseline")}
    assert outcome == PINNED_SCHEDULES[name]


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(horizon_s=0.0005, channel_capacity_bps=1e6, slot_s=1e-3)
    with pytest.raises(ValueError):
        SimConfig(horizon_s=1.0, channel_capacity_bps=0.0)
    with pytest.raises(ValueError):
        SimConfig(horizon_s=1.0, channel_capacity_bps=1e6, queue_packets=0)


def fast_ring(horizon_s=5.0, seed=1):
    return scenario_from_dict({"preset": "paper-ring-4",
                               "sim": {"horizon_s": horizon_s, "seed": seed}})


def test_ring_pipeline_delay_at_least_two_slots():
    result = run_pipeline(fast_ring(), "ccmca")
    # every preset flow crosses two hops; each hop costs at least one slot
    assert result.metrics.avg_delay_s >= 2 * result.config.slot_s - 1e-12
    assert result.metrics.pdr == 1.0
    assert result.metrics.dropped == 0


def test_capacity_respected_per_slot_per_channel():
    scenario = fast_ring()
    imap = build_interference_map(scenario.build_topology())
    result = run_pipeline(scenario, "ccmca", n_channels=1)
    audit = ServiceAudit()
    cfg = result.config
    run_simulation(sim_input(imap, scenario.traffic, result.routes, result.assignment),
                   cfg, audit=audit)
    assert audit.grants, "expected some service activity"
    slot_bits = cfg.channel_capacity_bps * cfg.slot_s
    by_slot: dict[int, float] = {}
    for slot, link, bits, divisor in audit.grants:
        assert bits <= slot_bits + 1e-6
        assert divisor >= 1
        by_slot[slot] = by_slot.get(slot, 0.0) + bits
    # single channel, all ring links mutually interfere: per-slot total
    # service must fit within one channel-slot
    assert max(by_slot.values()) <= slot_bits + 1e-6


def test_prefix_property_and_monotone_injection():
    scenario = fast_ring(horizon_s=10.0)
    imap = build_interference_map(scenario.build_topology())
    short = run_pipeline(fast_ring(horizon_s=5.0), "ccmca")
    long_result = run_pipeline(scenario, "ccmca")

    sim = Simulator(sim_input(imap, scenario.traffic, long_result.routes,
                              long_result.assignment), long_result.config)
    sim.run(until_slot=SimConfig(horizon_s=5.0,
                                 channel_capacity_bps=1e6).n_slots)
    m = sim.metrics()
    assert m.generated == short.metrics.generated
    assert m.delivered == short.metrics.delivered
    assert m.dropped == short.metrics.dropped
    sim.run()
    assert sim.metrics().generated >= short.metrics.generated
    assert sim.metrics() == long_result.metrics


def test_metrics_is_a_snapshot_of_flow_sums():
    # A snapshot taken mid-run keeps its counts while the run goes on, and
    # its totals are the sums of its per-flow counts.
    scenario = load_scenario("paper-ring-4")
    result, inp = planned_input(scenario, "ccmca")
    sim = Simulator(inp, result.config)
    sim.run(until_slot=1000)
    snapshot = sim.metrics()
    kept = copy.deepcopy(snapshot)
    sim.run()
    assert sim.metrics() == result.metrics != snapshot
    assert snapshot == kept
    flows = snapshot.per_flow.values()
    assert snapshot.generated == sum(st.generated for st in flows) > 0
    assert snapshot.delivered == sum(st.delivered for st in flows) > 0
    assert snapshot.dropped == sum(st.dropped for st in flows)
    assert snapshot.in_flight == snapshot.generated - snapshot.delivered - snapshot.dropped


class LosingSimulator(Simulator):
    """Throws away the first run it is given to forward."""

    lost = False

    def _forward(self, moved):
        if not self.lost:
            self.lost = True
            moved = moved[1:]
        super()._forward(moved)


def test_metrics_raises_on_lost_packets():
    # The packets of the lost run are neither delivered, dropped nor queued.
    result, inp = planned_input(load_scenario("paper-ring-4"), "ccmca")
    sim = LosingSimulator(inp, result.config)
    sim.run()
    assert sim.lost
    with pytest.raises(ContractError, match="packet conservation violated"):
        sim.metrics()


def planned_input(scenario, protocol, **overrides):
    result = run_pipeline(scenario, protocol, **overrides)
    return result, sim_input(build_interference_map(scenario.build_topology()),
                             scenario.traffic, result.routes, result.assignment)


def run_both_ways(scenario, protocol, **overrides):
    """metrics() and audit grants from run(), which jumps over the slots that
    only add credit, and from a loop that steps every slot."""
    result, inp = planned_input(scenario, protocol, **overrides)
    outcomes = []
    for jump in (True, False):
        audit = ServiceAudit()
        sim = Simulator(inp, result.config, audit)
        if jump:
            sim.run()
        else:
            while sim.slot < result.config.n_slots:
                sim.step()
        outcomes.append((sim.metrics(), audit.grants))
    assert outcomes[0][0] == result.metrics
    return outcomes


def small_doc(n, flows, horizon_s, seed=1, spacing=200.0, kind="chain"):
    return {"name": f"{kind}-{n}",
            "topology": {"kind": kind, "n": n, "spacing": spacing},
            "traffic": {"flows": flows},
            "sim": {"horizon_s": horizon_s, "seed": seed}}


def saturated_chain(horizon_s, queue_packets=64):
    doc = small_doc(8, [{"src": 0, "dst": 7, "rate_bps": 5.3e6, "packet_bytes": 64}], horizon_s)
    doc["sim"]["queue_packets"] = queue_packets
    return scenario_from_dict(doc)


@pytest.mark.parametrize("protocol", ["ccmca", "baseline"])
def test_run_equals_stepping_every_slot(protocol):
    table1 = scenario_from_dict({"preset": "paper-table1", "sim": {"horizon_s": 20.0}})
    jumped, stepped = run_both_ways(table1, protocol, n_channels=3)
    assert jumped == stepped

    jumped, stepped = run_both_ways(saturated_chain(1.0), protocol)
    assert jumped == stepped
    assert jumped[0].dropped > 0

    # 64 KiB vod packets need several slots' share of service each.
    ring = fast_ring(horizon_s=10.0)
    slot_bits = ring.sim.channel_capacity_bps * ring.sim.slot_s
    assert max(f.packet_bits for f in ring.traffic.flows) > 10 * slot_bits
    jumped, stepped = run_both_ways(ring, protocol, n_channels=1)
    assert jumped == stepped
    assert jumped[0].delivered > 0


@st.composite
def small_scenarios(draw):
    kind = draw(st.sampled_from(["chain", "ring"]))
    n = draw(st.integers(min_value=3, max_value=7))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=3, unique=True))
    flows = []
    for src, dst in pairs:
        flows.append({"src": src, "dst": dst, "kind": "cbr",
                      "rate_bps": draw(st.floats(min_value=1e3, max_value=4e6)),
                      "packet_bytes": draw(st.sampled_from([40, 125, 1500, 4000]))})
    doc = small_doc(n, flows, draw(st.sampled_from([0.05, 0.2, 0.5])),
                    seed=draw(st.integers(1, 1000)), spacing=250.0, kind=kind)
    doc["sim"]["queue_packets"] = draw(st.sampled_from([4, 64]))
    return (scenario_from_dict(doc), draw(st.sampled_from(["ccmca", "baseline"])),
            draw(st.integers(min_value=1, max_value=3)))


@settings(max_examples=40, deadline=None)
@given(small_scenarios())
def test_run_equals_stepping_every_slot_random(case):
    scenario, protocol, n_channels = case
    jumped, stepped = run_both_ways(scenario, protocol, n_channels=n_channels)
    assert jumped == stepped


def assert_due_is_first_admitting_slot(flow, slot_s, n_slots=int(MAX_SLOTS)):
    """due is the first slot whose start admits the next packet, or inf when
    that slot is past the last of n_slots."""
    tol = slot_s * _TIME_EPS
    flow.set_due(slot_s, tol, (n_slots - 1) * slot_s + tol)
    if flow.due == math.inf:
        assert flow.next_t > (n_slots - 1) * slot_s + tol
        return
    assert flow.due < n_slots
    assert flow.next_t <= flow.due * slot_s + tol
    assert flow.due == 0 or flow.next_t > (flow.due - 1) * slot_s + tol


@pytest.mark.parametrize("rate_bps,packet_bytes", [(2.5e6, 1250), (12.2e3, 61), (5.3e6, 64)])
def test_flow_due_is_first_slot_inject_admits(rate_bps, packet_bytes):
    # Packet times here often land within rounding of a slot start, where
    # ceil(next_t / slot_s) is one slot late.
    flow = _FlowRun((0, 1), (0,), packet_bytes * 8, rate_bps)
    for idx in range(3000):
        flow.next_idx = idx
        assert_due_is_first_admitting_slot(flow, 1e-3)
        assert flow.due != math.inf


def test_flow_due_is_first_slot_inject_admits_above_ceil():
    # ceil(next_t / slot_s) gives slot 64,066,221, but the start of that slot
    # plus the tolerance is still short of next_t: the first slot that admits
    # the packet is the one after it, and set_due steps up to it.
    flow = _FlowRun((0, 1), (0,), 8, 1.0)
    flow.interval_s = 64066.221000000005
    flow.next_idx = 1
    assert math.ceil(flow.next_t / 1e-3) == 64_066_221
    assert_due_is_first_admitting_slot(flow, 1e-3)
    assert flow.due == 64_066_222


@given(st.floats(min_value=1e-12, max_value=1e12), st.integers(1, 65536),
       st.integers(0, 10 ** 9), st.sampled_from([1e-4, 1e-3, 3e-3]),
       st.integers(1, int(MAX_SLOTS)))
def test_flow_due_is_first_slot_inject_admits_random(rate_bps, packet_bytes, idx, slot_s,
                                                     n_slots):
    flow = _FlowRun((0, 1), (0,), packet_bytes * 8, rate_bps)
    flow.next_idx = idx
    assert_due_is_first_admitting_slot(flow, slot_s, n_slots)


class CountingSimulator(Simulator):
    steps = 0

    def step(self):
        self.steps += 1
        super().step()


def test_run_steps_only_slots_that_can_change_state():
    scenario = scenario_from_dict({"preset": "paper-table1", "sim": {"horizon_s": 20.0}})
    result = run_pipeline(scenario, "ccmca", n_channels=3)
    sim = CountingSimulator(sim_input(build_interference_map(scenario.build_topology()),
                                      scenario.traffic, result.routes, result.assignment),
                            result.config)
    sim.run()
    assert sim.metrics() == result.metrics
    assert sim.steps < 0.65 * result.config.n_slots


def test_step_wrapped_on_the_class_counts_every_stepped_slot(monkeypatch):
    # The benchmark's tracer counts steps by wrapping Simulator.step on the
    # class, with a wrapper that takes no arguments: run() must call it once
    # per slot it steps, just as it calls a subclass's step.
    scenario = scenario_from_dict({"preset": "paper-table1", "sim": {"horizon_s": 20.0}})
    result, inp = planned_input(scenario, "ccmca", n_channels=3)
    counting = CountingSimulator(inp, result.config)
    counting.run()
    step, calls = Simulator.__dict__["step"], [0]

    def counted(sim):
        calls[0] += 1
        return step(sim)

    monkeypatch.setattr(Simulator, "step", counted)
    sim = Simulator(inp, result.config)
    sim.run()
    assert calls[0] == counting.steps > 0
    assert sim.metrics() == counting.metrics() == result.metrics


def assert_jumps_equal_stepping(inp, config):
    """run() gives the metrics and grants of stepping every slot, and of the
    per-packet reference stepped every slot; returns those metrics and the
    slots run() stepped."""
    outcomes = []
    for cls, jump in ((CountingSimulator, True), (Simulator, False), (PacketSimulator, False)):
        audit = ServiceAudit()
        sim = cls(inp, config, audit)
        if jump:
            sim.run()
            steps = sim.steps
        else:
            while sim.slot < config.n_slots:
                sim.step()
        outcomes.append((sim.metrics(), audit.grants))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    return outcomes[0], steps


def test_jump_adds_shared_credit_as_stepping(ring4_imap):
    # Links 0=(0,1) and 3=(2,3) share frame 0 and channel 0 and interfere, so
    # while both wait each gets half a slot's share. The 64 KiB packets of
    # (0, 1) wait some 105 active slots for credit and the 1500 B packets of
    # (2, 3) wait 3, so a jump often stops for (2, 3) while (0, 1) waits on.
    prof = profile(cbr(0, 1, 1e6, 65536), cbr(2, 3, 2e5, 1500))
    routes = RouteTable({(0, 1): Route((0,)), (2, 3): Route((3,))})
    inp = sim_input(ring4_imap, prof, routes, ChannelAssignment(1, (0, 0, 0, 0), (0, 1, 1, 0)))
    config = SimConfig(horizon_s=2.0)
    (m, grants), steps = assert_jumps_equal_stepping(inp, config)
    assert m.per_flow[(0, 1)].delivered >= 3 and m.per_flow[(2, 3)].delivered >= 30
    assert {(link, divisor) for _, link, _, divisor in grants} == {(0, 1), (0, 2), (3, 1), (3, 2)}
    assert steps < 0.1 * config.n_slots


def test_jump_crosses_a_packet_too_large_for_the_run():
    # One 64 KiB packet on 1 ns slots gains 0.01 bits of credit a slot, so it
    # is never sent; run() steps the slot that injects it and jumps the rest.
    doc = {"preset": "paper-ring-4", "traffic": {"flows": [
        {"src": 0, "dst": 2, "rate_bps": 1e-300, "packet_bytes": 65536}]},
        "sim": {"horizon_s": 1e-4, "slot_s": 1e-9}}
    result, inp = planned_input(scenario_from_dict(doc), "ccmca")
    (m, grants), steps = assert_jumps_equal_stepping(inp, result.config)
    assert m == result.metrics
    assert (m.generated, m.in_flight, m.delivered) == (1, 1, 0)
    assert len(grants) >= result.config.n_slots // result.assignment.n_frames
    assert steps == 1


def charge_one_by_one(c, size, n_max):
    n = 0
    while n < n_max and size <= c + _CREDIT_EPS:
        c -= size
        n += 1
    return n, c


@st.composite
def credits(draw):
    """A packet size, a run length and the credit left after the run's first
    packet: anywhere from -1e-6 to past 2**52, inf, or within a few eps of a
    multiple of the size, where one quotient is a packet off."""
    size = draw(st.one_of(st.integers(1, 2 ** 16), st.integers(1, 2 ** 60)))
    n_max = draw(st.integers(0, 10 ** 4))
    c = draw(st.one_of(
        st.floats(min_value=-1e-6, max_value=2.0 ** 60),
        st.floats(min_value=2.0 ** 51, max_value=2.0 ** 53),
        st.just(math.inf),
        st.builds(lambda k, d: max(k * size + d, -1e-6),
                  st.integers(0, 10 ** 4 + 1), st.floats(-3e-6, 3e-6))))
    return c, size, n_max


@settings(max_examples=500, deadline=None)
@given(credits())
def test_charge_equals_charging_one_packet_at_a_time(case):
    c, size, n_max = case
    n, left = _charge(c, size, n_max)
    want_n, want_left = charge_one_by_one(c, size, n_max)
    assert n == want_n
    assert left == want_left and math.copysign(1, left) == math.copysign(1, want_left)


def test_determinism_identical_metrics():
    a = run_pipeline(fast_ring(), "baseline")
    b = run_pipeline(fast_ring(), "baseline")
    assert a.metrics == b.metrics
    assert a == b


def test_sweep_channels_shapes_and_determinism():
    scenario = fast_ring(horizon_s=2.0)
    rows1 = sweep_channels(scenario, [1])
    assert len(rows1) == 2  # one per protocol, single seed, no mean row
    rows = sweep_channels(scenario, [1, 2, 3, 4, 5])
    assert len(rows) == 10
    assert [r.channels for r in rows] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    assert {r.protocol for r in rows} == {"ccmca", "baseline"}
    again = sweep_channels(scenario, [1, 2, 3, 4, 5])
    assert rows == again


def test_sweep_channels_with_seed_list_adds_mean_rows():
    scenario = fast_ring(horizon_s=2.0)
    rows = sweep_channels(scenario, [1, 2], seeds=[1, 2])
    # per (count, protocol): 2 seed rows + 1 mean row
    assert len(rows) == 2 * 2 * 3
    means = [r for r in rows if r.seed == "mean"]
    assert len(means) == 4
    for mean in means:
        group = [r for r in rows if r.seed != "mean"
                 and (r.channels, r.protocol) == (mean.channels, mean.protocol)]
        assert mean.pdr == pytest.approx(sum(r.pdr for r in group) / len(group))


def test_sweep_time_shapes_and_growth():
    scenario = fast_ring()
    rows = sweep_time(scenario, [2.0, 4.0], seeds=None, protocols=("ccmca",))
    assert len(rows) == 2
    assert rows[0].horizon_s == 2.0 and rows[1].horizon_s == 4.0
    assert rows[1].generated >= rows[0].generated


def test_sweep_time_paper_design_ten_rows():
    rows = sweep_time(fast_ring(), [5.0, 10.0, 15.0, 20.0, 25.0])
    assert len(rows) == 10
    assert [r.horizon_s for r in rows[::2]] == [5.0, 10.0, 15.0, 20.0, 25.0]
    by_proto = {p: [r for r in rows if r.protocol == p]
                for p in ("ccmca", "baseline")}
    for series in by_proto.values():
        gens = [r.generated for r in series]
        assert gens == sorted(gens)  # longer horizons dominate


def test_sweep_rejects_bad_inputs():
    scenario = fast_ring(horizon_s=2.0)
    with pytest.raises(ValueError):
        sweep_channels(scenario, [])
    with pytest.raises(ValueError):
        sweep_channels(scenario, [0])
    with pytest.raises(ValueError):
        sweep_time(scenario, [-1.0])


class _Packet:
    __slots__ = ("flow", "size_bits", "inject_t", "hop")

    def __init__(self, flow, inject_t):
        self.flow = flow
        self.size_bits = flow.size_bits
        self.inject_t = inject_t
        self.hop = 0


class PacketSimulator(Simulator):
    """Reference: the simulator with a deque of packet objects per link,
    each packet injected, served and forwarded on its own. The run-length
    queues must give the same metrics and service grants."""

    def __init__(self, inp, config, audit=None):
        super().__init__(inp, config, audit)
        self._co_ch = {l: co_ch for l, _, co_ch in inp.links}

    def _inject(self):
        if self.slot < self._min_due:
            return
        cfg = self.config
        now = self.slot * cfg.slot_s
        tol = cfg.slot_s * _TIME_EPS
        for fr in self._flows:
            if fr.due > self.slot:
                continue
            first = fr.route[0]
            q = first.queue
            while fr.next_t <= now + tol:
                fr.generated += 1
                if len(q) >= cfg.queue_packets:
                    fr.dropped += 1
                else:
                    if not q:
                        self._masks[first.frame] |= first.bit
                    q.append(_Packet(fr, fr.next_t))
                    first.count += 1
                fr.next_idx += 1
            fr.set_due(cfg.slot_s, tol, self._last_t)
        self._min_due = min(fr.due for fr in self._flows)

    def step(self):
        cfg = self.config
        self._inject()
        frame = self.slot % self.n_frames
        mask = self._masks[frame]
        # The frame's links whose bit is set at slot start, in id order.
        served = sorted((l for l in self._members[frame] if mask & l.bit),
                        key=lambda link: link.id)
        backlogged = {link.id for link in served}
        divisors = [sum(1 for q in self._co_ch[l.id] if q in backlogged) for l in served]
        outbox = []
        slot_bits = cfg.channel_capacity_bps * cfg.slot_s
        for l, divisor in zip(served, divisors):
            share = slot_bits / divisor
            c = l.credit + share
            if self.audit is not None:
                self.audit.record(self.slot, l.id, share, divisor)
            q = l.queue
            while q and q[0].size_bits <= c + _CREDIT_EPS:
                pkt = q.popleft()
                l.count -= 1
                c -= pkt.size_bits
                outbox.append(pkt)
            l.credit = c
            if not q:
                self._masks[frame] &= ~l.bit
        end_t = (self.slot + 1) * cfg.slot_s
        for pkt in outbox:
            fr = pkt.flow
            route = fr.route
            if pkt.hop == len(route) - 1:
                fr.delivered += 1
                self.delay_sum_s += end_t - pkt.inject_t
                fr.delay_sum_s += end_t - pkt.inject_t
            else:
                pkt.hop += 1
                link = route[pkt.hop]
                q = link.queue
                if len(q) >= cfg.queue_packets:
                    fr.dropped += 1
                else:
                    if not q:
                        self._masks[link.frame] |= link.bit
                    q.append(pkt)
                    link.count += 1
        for l in served:
            if not l.queue:
                l.credit = 0.0
        self.slot += 1


def assert_equals_packet_oracle(scenario, protocol, **overrides):
    """run() gives the metrics and grants of the per-packet reference stepped
    through every slot; returns those metrics."""
    result, inp = planned_input(scenario, protocol, **overrides)
    audit, oracle_audit = ServiceAudit(), ServiceAudit()
    sim = Simulator(inp, result.config, audit)
    sim.run()
    oracle = PacketSimulator(inp, result.config, oracle_audit)
    while oracle.slot < result.config.n_slots:
        oracle.step()
    assert sim.metrics() == oracle.metrics() == result.metrics
    assert audit.grants == oracle_audit.grants
    return result.metrics


@pytest.mark.parametrize("protocol", ["ccmca", "baseline"])
def test_run_length_queues_equal_packet_oracle_on_presets(protocol):
    table1 = scenario_from_dict({"preset": "paper-table1", "sim": {"horizon_s": 5.0}})
    assert assert_equals_packet_oracle(table1, protocol, n_channels=3).delivered > 0
    m = assert_equals_packet_oracle(saturated_chain(1.0), protocol)
    assert m.dropped > 0 and m.delivered > 1000
    # One channel: the ring's 64 KiB vod packets need many slots of credit.
    ring = fast_ring(horizon_s=10.0)
    assert assert_equals_packet_oracle(ring, protocol, n_channels=1).delivered > 0
    # 70 one-hop flows on every other link of a chain, one channel: the
    # routed links share no node, so all 70 share a frame, and its backlog
    # mask holds more than 64 bits. Their packets wait slots for credit, so
    # run() also jumps over slots with links past the 64th bit waiting.
    flows = [{"src": 2 * i, "dst": 2 * i + 1, "kind": "cbr", "rate_bps": 5e4 * (1 + i % 5),
              "packet_bytes": (1500, 4000)[i % 2]} for i in range(70)]
    chain = scenario_from_dict(small_doc(141, flows, 0.2))
    _, inp = planned_input(chain, protocol, n_channels=1)
    assert max(collections.Counter(frame for _, frame, _ in inp.links).values()) > 60
    assert assert_equals_packet_oracle(chain, protocol, n_channels=1).delivered > 0


@pytest.mark.parametrize("protocol", ["ccmca", "baseline"])
def test_run_length_queues_deep_queue_equal_packet_oracle(protocol):
    # A queue that never fills holds one long run at the first hop; serving
    # from its head must neither drop nor reorder packets.
    scenario = saturated_chain(1.0, queue_packets=100_000)
    m = assert_equals_packet_oracle(scenario, protocol)
    assert m.dropped == 0 and m.in_flight > 500
    # The head run drops its served prefix once that outgrows the rest, so
    # the lists a queue holds never reach twice its packets.
    result, inp = planned_input(scenario, protocol)
    sim = Simulator(inp, result.config)
    for until in range(50, result.config.n_slots + 1, 50):
        sim.run(until_slot=until)
        for link in sim._links:
            assert sum(len(times) for _, _, times, _ in link.queue) <= 2 * link.count


@st.composite
def shared_link_scenarios(draw):
    """2-4 flows on a chain or ring, each from one side of link (j, j+1) to
    the other, in either direction, so their routes share links and their
    runs interleave in one queue; mixed packet sizes, the largest needing
    several slots of credit; queues as short as one packet."""
    kind = draw(st.sampled_from(["chain", "ring"]))
    n = draw(st.integers(min_value=3, max_value=7))
    j = draw(st.integers(min_value=0, max_value=n - 2))
    flows = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        src = draw(st.integers(min_value=0, max_value=j))
        dst = draw(st.integers(min_value=j + 1, max_value=n - 1))
        if draw(st.booleans()):
            src, dst = dst, src
        flows.append({"src": src, "dst": dst, "kind": "cbr",
                      "rate_bps": draw(st.floats(min_value=1e4, max_value=6e6)),
                      "packet_bytes": draw(st.sampled_from([40, 64, 125, 1500, 4000]))})
    pairs = [(f["src"], f["dst"]) for f in flows]
    flows = [f for i, f in enumerate(flows) if (f["src"], f["dst"]) not in pairs[:i]]
    doc = small_doc(n, flows, draw(st.sampled_from([0.05, 0.1, 0.3])),
                    seed=draw(st.integers(1, 1000)), spacing=250.0, kind=kind)
    doc["sim"]["queue_packets"] = draw(st.sampled_from([1, 4, 64]))
    return (scenario_from_dict(doc), draw(st.sampled_from(["ccmca", "baseline"])),
            draw(st.integers(min_value=1, max_value=3)))


@settings(max_examples=60, deadline=None)
@given(shared_link_scenarios())
def test_run_length_queues_equal_packet_oracle_random(case):
    scenario, protocol, n_channels = case
    assert_equals_packet_oracle(scenario, protocol, n_channels=n_channels)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=12, max_size=12),
       st.lists(st.integers(0, 2), min_size=12, max_size=12))
@example([0] * 12, [0] * 12)
def test_jumps_equal_packet_oracle_on_frames_that_are_not_matchings(channels, frames):
    # Frames drawn freely need not be matchings: a route's next hop may share
    # its link's frame, so forwarding refills a link that the same slot
    # served empty, and many co-channel links crowd one frame's divisors.
    imap = build_interference_map(build("grid", 9, 200.0))
    prof = profile(cbr(0, 8, 2.5e6, 1250), cbr(6, 2, 1e6, 1500))
    inp = sim_input(imap, prof, GRID9_ROUTES,
                    ChannelAssignment(2, tuple(channels), tuple(frames)))
    assert_jumps_equal_stepping(inp, SimConfig(horizon_s=0.2))
