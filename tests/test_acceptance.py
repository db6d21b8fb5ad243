"""Acceptance gate: every criterion at its stated tolerance, one printed
pass line each. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import collections
import random
import time

import networkx as nx
import pytest

from meshplan import (AlgorithmParams, Flow, TrafficProfile, acceptable_paths_for_profile,
                      build_interference_map, expected_link_load, load_scenario,
                      render_report, run_pipeline, run_simulation,
                      scenario_from_dict, schedule_all_frames, sim_input,
                      sweep_channels)
from meshplan.report import result_row, rows_to_csv

from conftest import (build, cbr, generator_topologies_upto_8, profile, random_routes,
                      random_topology, replay_schedule)


def _report(capsys, n, elapsed, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {n} PASS ({elapsed:.1f}s): {detail}")


# -- criteria 1 and 2: greedy replay and per-frame matchings ---------------

@pytest.fixture(scope="module")
def greedy_battery():
    cases = []
    for seed in range(100):
        topo = random_topology(seed, max_nodes=12, max_links=24)
        imap = build_interference_map(topo)
        routes, traffic = random_routes(topo, random.Random(10_000 + seed))
        n_channels = 2 + seed % 4  # 2..5
        asg = schedule_all_frames(routes, traffic, topo, imap, n_channels)
        cases.append((topo, imap, routes, traffic, n_channels, asg))
    return cases


def test_acceptance_1_greedy_replay_oracle(greedy_battery, capsys):
    start = time.time()
    events = collections.Counter()
    for topo, imap, routes, traffic, n_channels, asg in greedy_battery:
        assert topo.n_nodes <= 12 and topo.n_links <= 24
        channel, frame, seen = replay_schedule(routes, traffic, topo, imap, n_channels)
        assert asg.channel_of == channel, "channel differs from per-turn argmin"
        assert asg.frame_of == frame
        events += seen
    # the battery reaches both fallbacks of the route walk
    assert events["swapped"] > 0 and events["opened"] > 0, events
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(capsys, 1, elapsed, "100 random topologies and route sets, every frame equals "
                        "the replayed route walk and every channel the exhaustively "
                        f"recomputed per-turn argmin with index tie-break ({events['swapped']} "
                        f"swaps, {events['opened']} frames opened)")


def test_acceptance_2_self_interference_matchings(greedy_battery, capsys):
    start = time.time()
    frames_checked = 0
    for topo, _, _, _, _, asg in greedy_battery:
        for f in range(asg.n_frames):
            in_frame = [l for l, g in enumerate(asg.frame_of) if g == f]
            endpoints = []
            for l in in_frame:
                endpoints.append({topo.links[l].u, topo.links[l].v})
            for i in range(len(endpoints)):
                for j in range(i + 1, len(endpoints)):
                    assert not (endpoints[i] & endpoints[j]), \
                        f"links {in_frame[i]} and {in_frame[j]} share a node in frame {f}"
            frames_checked += 1
    _report(capsys, 2, time.time() - start,
            f"{frames_checked} frames across 100 assignments are node-disjoint matchings")


# -- criterion 3: load conservation against an independent enumerator ------

def test_acceptance_3_load_conservation(capsys):
    start = time.time()
    rng = random.Random(42)
    topos = generator_topologies_upto_8()
    cases = 0
    while cases < 20:
        topo = topos[cases % len(topos)]
        assert topo.n_nodes <= 8
        g = nx.Graph()
        g.add_nodes_from(range(topo.n_nodes))
        for lid, l in enumerate(topo.links):
            g.add_edge(l.u, l.v, link=lid)

        pairs = rng.sample([(s, d) for s in range(topo.n_nodes)
                            for d in range(topo.n_nodes) if s != d], k=3)
        prof = profile(*[cbr(s, d, rng.uniform(1.0, 100.0)) for s, d in pairs])
        paths = acceptable_paths_for_profile(topo, prof, AlgorithmParams(slack=1, cap=1024))
        delta = expected_link_load(topo.n_links, paths, prof)

        expected = 0.0
        for f in prof.flows:
            bound = nx.shortest_path_length(g, f.src, f.dst) + 1
            oracle = [tuple(g.edges[a, b]["link"] for a, b in zip(nodes, nodes[1:]))
                      for nodes in nx.all_simple_paths(g, f.src, f.dst, cutoff=bound)]
            assert sorted(paths[f.pair]) == sorted(oracle)
            expected += f.rate_bps * (sum(len(p) for p in oracle) / len(oracle))
        assert sum(delta) == pytest.approx(expected, rel=1e-9)
        cases += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(capsys, 3, elapsed, "20 random profiles on generator topologies: total load "
                        "equals demand x mean acceptable-path length within 1e-9")


# -- criteria 4, 6, 8 share a battery of pipeline bundles ------------------

def _random_scenario_doc(seed):
    rng = random.Random(seed)
    kind, n, spacing = rng.choice([("ring", 6, 250.0), ("grid", 9, 200.0),
                                   ("chain", 5, 200.0), ("star", 5, 250.0)])
    pairs = rng.sample([(s, d) for s in range(n) for d in range(n) if s != d], k=3)
    return {
        "name": f"random-{seed}",
        "topology": {"kind": kind, "n": n, "spacing": spacing},
        "traffic": {"flows": [{"src": s, "dst": d,
                               "rate_bps": rng.uniform(5e4, 5e5),
                               "packet_bytes": 1250} for s, d in pairs]},
        "algorithm": {"n_channels": 1 + seed % 5},
        "sim": {"horizon_s": 3.0, "seed": seed},
    }


@pytest.fixture(scope="module")
def bundle_battery():
    bundles = []
    ring = load_scenario("paper-ring-4")
    for channels in (1, 2, 3, 4, 5):
        for protocol in ("ccmca", "baseline"):
            bundles.append((ring, run_pipeline(ring, protocol, n_channels=channels,
                                               horizon_s=5.0)))
    for seed in range(6):
        scenario = scenario_from_dict(_random_scenario_doc(seed))
        for protocol in ("ccmca", "baseline"):
            bundles.append((scenario, run_pipeline(scenario, protocol)))
    return bundles


def test_acceptance_4_threshold_exclusion(bundle_battery, capsys):
    start = time.time()
    routes_checked = 0
    for _, result in bundle_battery:
        thr = result.scenario.algorithm.threshold_fraction
        for pair, route in result.routes.routes.items():
            for l in route.links:
                share = result.loads.load[l] / result.loads.capacity[l]
                assert share <= thr, f"route {pair} crosses link {l} at {share:.3f} > {thr}"
            routes_checked += 1
    _report(capsys, 4, time.time() - start,
            f"{routes_checked} selected routes across {len(bundle_battery)} bundles "
            f"never cross a link loaded above the threshold")


def test_acceptance_5_trend_vs_baseline(capsys):
    start = time.time()
    scenario = load_scenario("paper-ring-4")
    seeds = list(range(1, 21))
    rows = sweep_channels(scenario, [1, 2, 3, 4, 5], seeds=seeds)
    means = {(r.protocol, r.channels): r for r in rows if r.seed == "mean"}

    strict_wins = 0
    for channels in (1, 2, 3, 4, 5):
        ccmca = means[("ccmca", channels)]
        base = means[("baseline", channels)]
        assert ccmca.avg_delay_s <= base.avg_delay_s * 1.05, \
            f"ccmca delay {ccmca.avg_delay_s} vs baseline {base.avg_delay_s} at {channels}"
        assert ccmca.pdr >= base.pdr - 0.02, \
            f"ccmca pdr {ccmca.pdr} vs baseline {base.pdr} at {channels}"
        if ccmca.avg_delay_s < base.avg_delay_s or ccmca.pdr > base.pdr:
            strict_wins += 1
    assert strict_wins >= 3
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(capsys, 5, elapsed, f"channels 1..5 x 20 seeds: delay/pdr never worse than "
                        f"baseline bounds, strictly better at {strict_wins}/5 counts")


def test_acceptance_6_conservation_and_determinism(bundle_battery, capsys):
    start = time.time()
    # conservation: every bundle's counters add up (metrics() checks the
    # flows' counts against the packets its queues hold and would have raised)
    for _, result in bundle_battery:
        m = result.metrics
        assert m.generated == m.delivered + m.dropped + m.in_flight
    # determinism: identical (scenario, seed) -> byte-identical reports
    scenario = scenario_from_dict({"preset": "paper-ring-4",
                                   "sim": {"horizon_s": 5.0, "seed": 7}})
    a = run_pipeline(scenario, "baseline")
    b = run_pipeline(scenario, "baseline")
    assert rows_to_csv([result_row(a)]) == rows_to_csv([result_row(b)])
    assert render_report(a, "json") == render_report(b, "json")
    _report(capsys, 6, time.time() - start,
            "counters exact in every bundle; repeated runs byte-identical")


def test_acceptance_7_saturated_queue_oracle(capsys):
    start = time.time()
    # Single link at 2x its service rate: the fluid limit of the delivery
    # ratio is 1/2; at 10^4 slots the transient contributes < 0.01.
    from meshplan import ChannelAssignment, Route, RouteTable, SimConfig
    topo = build("chain", 2, 100.0)
    imap = build_interference_map(topo)
    prof = TrafficProfile((Flow(0, 1, 2e6, 125, "cbr"),))
    routes = RouteTable({(0, 1): Route((0,))})
    asg = ChannelAssignment(1, (0,), (0,))
    cfg = SimConfig(horizon_s=10.0, channel_capacity_bps=1e6, slot_s=1e-3)
    assert cfg.n_slots >= 10_000
    metrics = run_simulation(sim_input(imap, prof, routes, asg), cfg)
    assert metrics.pdr == pytest.approx(0.5, abs=0.02)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(capsys, 7, elapsed, f"overloaded link delivered ratio {metrics.pdr:.4f} "
                        f"within 0.5 +/- 0.02 after {cfg.n_slots} slots")


def test_acceptance_8_goodput_cap(bundle_battery, capsys):
    start = time.time()
    for scenario, result in bundle_battery:
        flows = sorted(scenario.traffic.flows, key=lambda f: f.pair)
        # left to right, as goodput adds: sum() compensates floats from 3.12 on
        demand = 0.0
        for f in flows:
            demand += f.rate_bps
        assert result.goodput.total <= demand
        per_flow = result.metrics.per_flow
        all_delivered = (set(per_flow) == {f.pair for f in flows} and
                         all(st.generated > 0 and st.delivered == st.generated
                             for st in per_flow.values()))
        if all_delivered:
            assert result.goodput.total == demand
    _report(capsys, 8, time.time() - start,
            f"goodput capped by demand in all {len(bundle_battery)} bundles, "
            f"exactly equal whenever delivery is total")
