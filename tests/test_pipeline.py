import json
import math
import types
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshplan import (PRESETS, PROTOCOLS, ConfigurationError, GoodputReport, MeshNode,
                      PipelineError, PipelineResult, Scenario, TrafficProfile,
                      UnroutableFlowError, cost_table, emit_report, load_scenario, pipeline,
                      render_report, report, routing, run_pipeline, scenario_from_dict,
                      sweep_channels, sweep_time)
from meshplan.cli import main
from meshplan.pipeline import assignment_key, geometry_key, routing_key
from meshplan.report import CSV_COLUMNS, assignment_to_csv, result_row
from meshplan.schema import from_json, to_json
from meshplan.sim import Simulator


def ring_scenario(horizon_s=5.0, seed=1):
    return scenario_from_dict({"preset": "paper-ring-4",
                               "sim": {"horizon_s": horizon_s, "seed": seed}})


def test_ring4_bundle_complete():
    result = run_pipeline(ring_scenario(), "ccmca", n_channels=3)
    assert result.assignment.n_channels == 3
    assert len(result.assignment.channel_of) == len(result.assignment.frame_of) == 4
    assert len(result.routes.routes) == 3 and not result.routes.blocked
    assert len(result.loads.capacity) == 4
    assert all(c == pytest.approx(3 * 10e6 / 4) for c in result.loads.capacity)
    assert result.metrics.generated > 0
    assert 0.0 <= result.metrics.pdr <= 1.0
    assert result.goodput.total > 0.0


def test_table1_preset_full_pipeline():
    scenario = scenario_from_dict({"preset": "paper-table1",
                                   "sim": {"horizon_s": 20.0}})
    result = run_pipeline(scenario, "ccmca")
    assert len(result.assignment.channel_of) == len(result.assignment.frame_of) == 50
    assert len(result.routes.routes) == 3
    # opposite pairs on a 50-ring ride 25-hop arcs
    assert all(len(r.links) == 25 for r in result.routes.routes.values())
    # nothing lost; every packet not delivered is still crossing at the horizon
    m = result.metrics
    assert m.dropped == 0
    assert (m.generated, m.delivered, m.in_flight) == (1006, 975, 31)


def test_chain2_trivial_pipeline():
    doc = {
        "name": "chain2",
        "topology": {"kind": "chain", "n": 2, "spacing": 100.0},
        "traffic": {"flows": [{"src": 0, "dst": 1, "rate_bps": 1e5,
                               "packet_bytes": 125}]},
        "algorithm": {"n_channels": 1},
        "sim": {"horizon_s": 2.0},
    }
    result = run_pipeline(scenario_from_dict(doc), "ccmca")
    assert result.metrics.pdr == 1.0
    assert result.routes.routes[(0, 1)].links == (0,)
    assert result.goodput.total == pytest.approx(1e5)


def test_pipeline_deterministic_and_byte_identical():
    a = run_pipeline(ring_scenario(), "baseline")
    b = run_pipeline(ring_scenario(), "baseline")
    assert a == b
    assert render_report(a, "json") == render_report(b, "json")
    assert render_report(a, "csv") == render_report(b, "csv")


def test_goodput_cap_and_equality():
    result = run_pipeline(ring_scenario(), "ccmca")
    demand = sum(f.rate_bps for f in ring_scenario().traffic.flows)
    assert result.goodput.total <= demand + 1e-9
    flows_pdr = [st.delivered == st.generated
                 for st in result.metrics.per_flow.values()]
    if all(flows_pdr):
        assert result.goodput.total == sum(
            f.rate_bps for f in sorted(ring_scenario().traffic.flows,
                                       key=lambda f: f.pair))


def test_bundle_roundtrip_through_json():
    for protocol in ("ccmca", "baseline"):
        result = run_pipeline(ring_scenario(), protocol)
        doc = json.loads(json.dumps(result.to_dict()))
        again = PipelineResult.from_dict(doc)
        assert again == result


# A threshold below any feasible load blocks every flow.
BLOCKED = {
    "name": "blocked",
    "topology": {"kind": "chain", "n": 2, "spacing": 100.0},
    "traffic": {"flows": [{"src": 0, "dst": 1, "rate_bps": 5e6,
                           "packet_bytes": 1250}]},
    "algorithm": {"n_channels": 1, "threshold_fraction": 0.0001},
    "sim": {"horizon_s": 1.0},
}


def test_blocked_flows_flow_through_pipeline():
    # The run still completes, the blocked flow is skipped, and goodput is
    # zero.
    result = run_pipeline(scenario_from_dict(BLOCKED), "ccmca")
    assert result.routes.blocked == frozenset({(0, 1)})
    assert not result.routes.converged  # blocked/routed tables alternate
    assert result.metrics.generated == 0
    assert result.goodput.total == 0.0


def test_blocked_bundle_roundtrip_through_json():
    # a blocked pair takes the codec's own form
    result = run_pipeline(scenario_from_dict(BLOCKED), "ccmca")
    bundle = json.loads(render_report(result, "json"))
    assert bundle["routes"]["blocked"] == ["0->1"]
    assert PipelineResult.from_dict(bundle) == result
    # two channels of 1e308 b/s overflow to an infinite capacity share, which
    # the bundle does not store: its loads replay from the scenario
    overflow = {**BLOCKED, "algorithm": {"n_channels": 2},
                "sim": {"horizon_s": 1.0, "channel_capacity_bps": 1e308}}
    result = run_pipeline(scenario_from_dict(overflow), "ccmca")
    bundle = json.loads(render_report(result, "json"))
    assert "loads" not in bundle
    decoded = PipelineResult.from_dict(bundle)
    assert decoded == result
    assert decoded.loads.capacity == (math.inf,)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", ["paper-ring-4", "paper-table1", "grid-params", "blocked"])
def test_route_costs_follow_from_the_bundle_loads(name, protocol):
    # A bundle stores no cost: priced by the costs of its loads, its links'
    # costs added left to right, each route is the first cheapest of its
    # pair's acceptable paths, and every path of a blocked pair costs infinity.
    from test_reports import GRID_PARAMS  # test_reports imports this module
    from test_routing import left_to_right
    doc = {"grid-params": GRID_PARAMS, "blocked": BLOCKED}.get(
        name, {"preset": name, "sim": {"horizon_s": 5.0}})
    result = run_pipeline(scenario_from_dict(doc), protocol)
    loads = result.loads
    costs = cost_table(loads.load, loads.capacity, result.scenario.algorithm)
    for pair, route in result.routes.routes.items():
        priced = [left_to_right(costs, path) for path in loads.paths[pair]]
        assert not math.isinf(min(priced))
        assert route.links == loads.paths[pair][priced.index(min(priced))]
    for pair in result.routes.blocked:
        assert all(math.isinf(left_to_right(costs, path)) for path in loads.paths[pair])


# Explicit placements: a 200 m square with one diagonal flow each way.
SQUARE = {
    "name": "square",
    "topology": {"nodes": [{"x": 0.0, "y": 0.0}, {"x": 200.0, "y": 0.0},
                           {"x": 200.0, "y": 200.0}, {"x": 0.0, "y": 200.0}]},
    "traffic": {"flows": [{"src": 0, "dst": 2, "kind": "voip"},
                          {"src": 3, "dst": 1, "rate_bps": 2e5, "packet_bytes": 500}]},
    "algorithm": {"n_channels": 2},
    "sim": {"horizon_s": 3.0, "seed": 7},
}


def test_bundle_replays_from_its_scenario():
    # The bundle carries the scenario its run resolved, overrides applied, so
    # running that scenario again renders the same bytes.
    ring = load_scenario("paper-ring-4")
    results = [run_pipeline(scenario_from_dict({"preset": preset, "sim": {"horizon_s": 5.0}}),
                            protocol)
               for preset in PRESETS for protocol in pipeline.PROTOCOLS]
    results += [run_pipeline(scenario_from_dict(BLOCKED), "ccmca"),
                run_pipeline(scenario_from_dict(SQUARE), "baseline")]
    # the direct runs behind the rows of sweep_channels(ring, [1, 2, 3], seeds=[1, 2])
    results += [run_pipeline(ring, protocol, n_channels=channels, seed=seed)
                for channels in (1, 2, 3) for protocol in pipeline.PROTOCOLS
                for seed in (1, 2)]
    for result in results:
        text = render_report(result, "json")
        doc = json.loads(text)
        again = run_pipeline(PipelineResult.from_dict(doc).scenario, doc["protocol"])
        assert render_report(again, "json") == text


@pytest.mark.parametrize("name,protocol", [(preset, protocol) for preset in PRESETS
                                           for protocol in PROTOCOLS] + [("blocked", "ccmca")])
def test_bundle_goodput_follows_from_its_metrics(name, protocol):
    # The bundle stores no goodput: a decoded bundle derives the same report
    # from its metrics and traffic.
    doc = BLOCKED if name == "blocked" else {"preset": name, "sim": {"horizon_s": 5.0}}
    result = run_pipeline(scenario_from_dict(doc), protocol)
    bundle = result.to_dict()
    assert "goodput" not in bundle
    assert PipelineResult.from_dict(bundle).goodput == result.goodput
    assert (result.goodput.total == 0.0) == (name == "blocked")


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", ["paper-ring-4", "paper-table1", "grid-params"])
def test_bundle_loads_replay_from_its_scenario(name, protocol, monkeypatch):
    # The bundle stores no load estimate: a decoded bundle replays the one
    # planning made, from the geometry and routing stages alone, and a bundle
    # that carries one is rejected.
    from test_reports import GRID_PARAMS  # test_reports imports this module
    doc = {"paper-ring-4": {"preset": name},
           "paper-table1": {"preset": name, "sim": {"horizon_s": 5.0}},
           "grid-params": GRID_PARAMS}[name]
    scenario = scenario_from_dict(doc)
    result = run_pipeline(scenario, protocol)
    planned = pipeline.plan(scenario, protocol)[2]
    bundle = json.loads(render_report(result, "json"))
    assert "loads" not in bundle

    def no_assignment(*args):
        raise AssertionError("replaying the loads ran channel assignment")

    monkeypatch.setattr(pipeline, "_assign", no_assignment)
    replayed = PipelineResult.from_dict(bundle).loads
    assert replayed == planned == result.loads
    bundle["loads"] = to_json(replayed)
    with pytest.raises(ConfigurationError, match=r"^bundle: unknown key\(s\) \['loads'\]"):
        PipelineResult.from_dict(bundle)


def test_run_without_overrides_carries_its_scenario_as_given():
    # An override left as None changes nothing, so no new scenario is built;
    # an override given builds one and leaves the untouched section shared.
    ring = ring_scenario()
    assert run_pipeline(ring, "ccmca").scenario is ring
    assert run_pipeline(ring, "baseline", n_channels=None, seed=None).scenario is ring
    result = run_pipeline(ring, "ccmca", seed=7)
    assert result.scenario.sim.seed == 7 and result.scenario.algorithm is ring.algorithm
    assert ring.sim.seed == 1


def test_codec_orders_pairs_numerically():
    goodput = GoodputReport({(10, 1): 1.0, (2, 0): 2.0})
    doc = to_json(goodput)
    assert doc == {"useful": {"2->0": 2.0, "10->1": 1.0}}
    assert goodput.total == 3.0
    assert to_json(frozenset({(10, 1), (2, 0), (2, 11)})) == ["2->0", "2->11", "10->1"]
    assert from_json(GoodputReport, doc, "goodput") == goodput


def test_bundle_missing_field_names_it():
    doc = run_pipeline(ring_scenario(), "ccmca").to_dict()
    del doc["metrics"]
    with pytest.raises(ConfigurationError, match=r"^bundle\.metrics: required$"):
        PipelineResult.from_dict(doc)
    doc = run_pipeline(ring_scenario(), "ccmca").to_dict()
    del doc["assignment"]["frame_of"]
    with pytest.raises(ConfigurationError, match=r"^bundle\.assignment\.frame_of: required$"):
        PipelineResult.from_dict(doc)
    doc = run_pipeline(ring_scenario(), "ccmca").to_dict()
    doc["routes"]["routes"]["0->2"]["hops"] = 2
    with pytest.raises(ConfigurationError, match=r"^bundle\.routes\.routes\.0->2: unknown key"):
        PipelineResult.from_dict(doc)


# Values of the right shape that no run could produce, and a derived report
# that no bundle stores; paper-ring-4 has 4 links and 3 channels.
@pytest.mark.parametrize("path,value,error", [
    (("assignment", "channel_of"), [0, 0],
     r"^bundle\.assignment\.frame_of: must list 2 links, like channel_of, got 4$"),
    (("assignment", "frame_of"), [0, 1, 0, 1, 0],
     r"^bundle\.assignment\.frame_of: must list 4 links, like channel_of, got 5$"),
    (("assignment", "channel_of"), [0, 1, 2, 3],
     r"^bundle\.assignment\.channel_of\[3\]: must be in \[0, 3\), got 3$"),
    (("assignment", "frame_of"), [0, 1, None, 1],
     r"^bundle\.assignment\.frame_of\[2\]: must be an integer, got None$"),
    (("routes", "iterations"), "x", r"^bundle\.routes\.iterations: must be an integer, got 'x'$"),
    # a total the flows' counts give is not stored, so it cannot disagree with them
    (("metrics", "pdr"), 0.5,
     r"^bundle\.metrics: unknown key\(s\) \['pdr'\]; allowed: \['avg_delay_s', 'per_flow', "
     r"'throughput_bps'\]$"),
    (("metrics", "per_flow", "0->2", "delivered"), 1_000_000,
     r"^bundle\.metrics\.per_flow\.0->2\.delivered: must be <= 125 generated - 0 dropped, "
     r"got 1000000$"),
    (("metrics", "per_flow", "0->2", "delivered"), -1,
     r"^bundle\.metrics\.per_flow\.0->2\.delivered: must be >= 0, got -1$"),
    (("scenario", "algorithm", "threshold_fraction"), "x",
     r"^bundle\.scenario\.algorithm\.threshold_fraction: must be a number, got 'x'$"),
    (("goodput",), {"useful": {"0->2": 1.0}, "total": 1.0},
     r"^bundle: unknown key\(s\) \['goodput'\]; allowed: \['assignment', 'metrics', "
     r"'protocol', 'routes', 'scenario'\]$"),
    (("assignment", "channel_of"), [0, 1, None, 1],
     r"^bundle\.assignment\.channel_of\[2\]: must be an integer, got None$"),
    (("assignment", "channel_of"), [0, 1, True, 1],
     r"^bundle\.assignment\.channel_of\[2\]: must be an integer, got True$"),
    # a route is its links: a cost, whatever its value, is not stored
    (("routes", "routes", "0->2", "cost"), "inf",
     r"^bundle\.routes\.routes\.0->2: unknown key\(s\) \['cost'\]; allowed: \['links'\]$"),
    (("routes", "routes", "0->2", "links"), ["x"],
     r"^bundle\.routes\.routes\.0->2\.links\[0\]: must be an integer, got 'x'$"),
    (("scenario", "traffic", "flows", 0, "dst"), 99,
     r"^bundle\.scenario\.traffic\.flows\[0\]\.dst: node 99 not in topology \(0\.\.3\)$"),
    (("protocol",), "xyz",
     r"^bundle\.protocol: must be one of \['ccmca', 'baseline'\], got 'xyz'$"),
    # the routed and blocked pairs split the traffic's pairs, and the metrics
    # count the routed ones
    (("routes", "blocked"), ["0->2"],
     r"^bundle\.routes: pair\(s\) \['0->2'\] both routed and blocked$"),
    (("routes", "routes"), {"1->3": {"links": [0, 1]}, "2->0": {"links": [2, 0]}},
     r"^bundle\.routes: pair\(s\) \['0->2'\] neither routed nor blocked$"),
    (("routes", "routes", "0->1"), {"links": [0]},
     r"^bundle\.routes: pair\(s\) \['0->1'\] not in the traffic$"),
    (("metrics", "per_flow", "0->1"),
     {"generated": 0, "delivered": 0, "dropped": 0, "delay_sum_s": 0.0},
     r"^bundle\.metrics\.per_flow: must count the routed pairs \['0->2', '1->3', '2->0'\], "
     r"got \['0->1', '0->2', '1->3', '2->0'\]$"),
    # the plan's counts are the scenario's
    (("assignment", "n_channels"), 7,
     r"^bundle\.assignment\.n_channels: must be 3 \(scenario\.algorithm\.n_channels\), got 7$"),
    (("routes", "iterations"), 0, r"^bundle\.routes\.iterations: must be >= 1, got 0$"),
    (("routes", "iterations"), 99,
     r"^bundle\.routes\.iterations: must be <= 10 \(scenario\.algorithm\.max_iters\), got 99$"),
    # a pair key that is not "src->dst"
    (("routes", "routes"), {"0-2x": {"links": [0, 1]}},
     r"^bundle\.routes\.routes: '0-2x' is not a \"src->dst\" key$"),
])
def test_bundle_impossible_value_names_it(path, value, error):
    doc = run_pipeline(ring_scenario(), "ccmca").to_dict()
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    with pytest.raises(ConfigurationError, match=error):
        PipelineResult.from_dict(doc)


def test_unroutable_flow_tagged_with_stage():
    doc = {
        "name": "split",
        "topology": {"nodes": [{"x": 0, "y": 0}, {"x": 100, "y": 0},
                               {"x": 5000, "y": 0}], "tx_range": 250.0},
        "traffic": {"flows": [{"src": 0, "dst": 2, "rate_bps": 1e3,
                               "packet_bytes": 125}]},
        "sim": {"horizon_s": 1.0},
    }
    with pytest.raises(PipelineError) as err:
        run_pipeline(scenario_from_dict(doc), "ccmca")
    assert err.value.stage == "routing"
    assert isinstance(err.value.__cause__, UnroutableFlowError)


def test_interrupt_in_a_stage_is_not_a_stage_error(monkeypatch, capsys):
    # Ctrl-C during a stage stops the run as it is: neither run_pipeline nor
    # the CLI turns it into a failed stage with an empty cause and exit 1.
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "run_simulation", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(ring_scenario(), "ccmca")
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--scenario", "paper-ring-4"])
    assert capsys.readouterr().err == ""


def test_stage_error_inside_a_stage_keeps_its_stage(monkeypatch):
    # a PipelineError already names its stage: the enclosing stage passes it
    # on as it is, not wrapped in a second one
    inner = PipelineError("inner", ValueError("x"))

    def failed(*args):
        raise inner

    monkeypatch.setattr(pipeline, "run_simulation", failed)
    with pytest.raises(PipelineError) as err:
        run_pipeline(ring_scenario(), "ccmca")
    assert err.value is inner


def test_unknown_protocol_rejected():
    with pytest.raises(PipelineError):
        run_pipeline(ring_scenario(), "jocac")


def test_csv_contract(tmp_path):
    scenario = ring_scenario(horizon_s=2.0)
    rows = sweep_channels(scenario, [1, 2, 3, 4, 5])
    out = tmp_path / "sweep.csv"
    text = emit_report(rows, "csv", out)
    assert out.read_text() == text
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 11  # header + 5 counts x 2 protocols
    assert emit_report([], "csv", tmp_path / "empty.csv").strip() == ",".join(CSV_COLUMNS)


def test_csv_single_bundle_row():
    result = run_pipeline(ring_scenario(horizon_s=2.0), "ccmca")
    row = result_row(result)
    assert row.scenario == "paper-ring-4"
    assert row.protocol == "ccmca"
    assert row.channels == 3
    text = render_report(result, "csv")
    assert text.count("\n") == 2


def test_assignment_table_export():
    result = run_pipeline(ring_scenario(horizon_s=2.0), "ccmca")
    text = assignment_to_csv(result.assignment)
    lines = text.strip().split("\n")
    assert lines[0] == "link,channel,frame"
    assert len(lines) == 5
    for line, l in zip(lines[1:], range(4)):
        link, channel, frame = (int(x) for x in line.split(","))
        assert link == l
        assert channel == result.assignment.channel_of[l]
        assert frame == result.assignment.frame_of[l]


def test_json_sweep_rows_roundtrip(tmp_path):
    scenario = ring_scenario(horizon_s=2.0)
    rows = sweep_channels(scenario, [1, 2])
    out = tmp_path / "rows.json"
    emit_report(rows, "json", out)
    parsed = json.loads(out.read_text())
    assert len(parsed) == 4
    assert parsed[0]["scenario"] == "paper-ring-4"
    assert set(parsed[0]) == set(CSV_COLUMNS)


@st.composite
def sweep_cases(draw):
    """A small chain or ring with random CBR flows and queue size, plus the
    channel counts, horizons and seeds to sweep it over."""
    kind = draw(st.sampled_from(["chain", "ring"]))
    n = draw(st.integers(min_value=3, max_value=6))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=3, unique=True))
    flows = [{"src": src, "dst": dst,
              "rate_bps": draw(st.sampled_from([2e4, 1e5, 5e5, 2e6])),
              "packet_bytes": draw(st.sampled_from([64, 125, 500, 1500]))}
             for src, dst in pairs]
    scenario = scenario_from_dict({
        "name": f"{kind}-{n}", "topology": {"kind": kind, "n": n, "spacing": 200.0},
        "traffic": {"flows": flows},
        "sim": {"horizon_s": 0.5, "queue_packets": draw(st.integers(1, 16))}})
    channels = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
    horizons = draw(st.lists(st.sampled_from([0.1, 0.25, 0.5]), min_size=2, max_size=2,
                             unique=True))
    seeds = draw(st.lists(st.integers(0, 50), min_size=2, max_size=3, unique=True))
    return scenario, channels, horizons, seeds


@settings(max_examples=40, deadline=None)
@given(sweep_cases())
def test_sweep_rows_equal_direct_runs(case):
    # A sweep simulates each distinct simulator input once; every row must
    # still be the row of a direct run with the same arguments.
    scenario, channels, horizons, seeds = case
    for sweep, points, name in ((sweep_channels, channels, "n_channels"),
                                (sweep_time, horizons, "horizon_s")):
        rows = [r for r in sweep(scenario, points, seeds) if r.seed != "mean"]
        direct = [result_row(run_pipeline(scenario, protocol, seed=seed, **{name: point}))
                  for point in points for protocol in pipeline.PROTOCOLS for seed in seeds]
        assert rows == direct


@pytest.mark.parametrize("sweep,points", [(sweep_channels, [1]), (sweep_time, [1.0])])
def test_sweep_rejects_empty_seed_list(sweep, points):
    with pytest.raises(ValueError, match=r"^sweep needs at least one seed$"):
        sweep(ring_scenario(), points, seeds=[])


def test_sweep_shares_simulations_within_one_call(monkeypatch):
    calls = []
    simulate = pipeline.run_simulation

    def counted(*args):
        calls.append(args)
        return simulate(*args)

    monkeypatch.setattr(pipeline, "run_simulation", counted)
    scenario = load_scenario("paper-ring-4")
    rows = sweep_channels(scenario, [1, 2, 3, 4, 5], seeds=[1, 2, 3])
    runs = sum(r.seed != "mean" for r in rows)
    first = len(calls)
    assert runs == 30 and 0 < first < runs
    # Nothing outlives a call: the same sweep again simulates as often.
    assert sweep_channels(scenario, [1, 2, 3, 4, 5], seeds=[1, 2, 3]) == rows
    assert len(calls) == 2 * first


def test_run_pipeline_builds_one_simulator_input(monkeypatch):
    calls = []
    build = pipeline.sim_input

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(pipeline, "sim_input", counted)
    scenario = ring_scenario()
    run_pipeline(scenario, "ccmca")
    assert len(calls) == 1
    sweep_channels(scenario, [1, 2], seeds=[1, 2])
    # one input per run, 2 channel counts x 2 protocols x 2 seeds: runs share
    # a simulation through sim_key, which equal inputs map to one key
    assert len(calls) == 1 + 2 * 2 * 2


def bench_tracer():
    """A ``Tracer`` of the benchmark's ``bench/spans.py``, which wraps library
    names in place. The file is compiled from its source, so no bytecode is
    written beside it."""
    path = Path(__file__).parent.parent / "bench" / "spans.py"
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    return spans.Tracer()


def traced_reports():
    """Reports of a run and a sweep, through the module attributes that the
    tracer wraps."""
    scenario = ring_scenario(horizon_s=2.0)
    result = pipeline.run_pipeline(scenario, "ccmca")
    rows = pipeline.sweep_channels(scenario, [1, 2])
    return (report.render_report(result, "json"), report.render_report(rows, "csv"))


def test_bench_tracer_wraps_names_the_library_has():
    owners = (pipeline, routing, report, Scenario, Simulator)
    before = [dict(vars(owner)) for owner in owners]
    untraced = traced_reports()
    tracer = bench_tracer()
    try:
        tracer.install()
        traced = traced_reports()
    finally:
        tracer.uninstall()
    assert traced == untraced
    names = {span.name for span in tracer.spans}
    assert {"pipeline.run", "sim.run", "routing.fixed_point", "channels.assign",
            "topology.build"} <= names
    assert tracer.counts["sim.steps"] > 0
    for owner, attrs in zip(owners, before):
        assert vars(owner).keys() == attrs.keys()
        assert all(vars(owner)[name] is value for name, value in attrs.items()), owner


def varied(scenario, section, **changes):
    return replace(scenario, **{section: replace(getattr(scenario, section), **changes)})


def one_flow_rate(scenario, rate_bps):
    first, *rest = scenario.traffic.flows
    return replace(scenario, traffic=TrafficProfile((replace(first, rate_bps=rate_bps), *rest)))


STAGE_KEYS = {
    "geometry": geometry_key,
    "routing": routing_key,
    "ccmca": lambda s: assignment_key(s, "ccmca"),
    "baseline": lambda s: assignment_key(s, "baseline"),
}
ALL_STAGES = set(STAGE_KEYS)
SQUARE_NODES = (MeshNode(0.0, 0.0), MeshNode(200.0, 0.0), MeshNode(200.0, 200.0),
                MeshNode(0.0, 200.0))

# One input changed, and the stages whose key must change with it; every
# other stage's key must stay equal.
KEY_CASES = {
    "topology.kind": (lambda s: varied(s, "topology", kind="chain"), ALL_STAGES),
    "topology.n": (lambda s: varied(s, "topology", n=5), ALL_STAGES),
    "topology.spacing": (lambda s: varied(s, "topology", spacing=200.0), ALL_STAGES),
    "topology.tx_range": (lambda s: varied(s, "topology", tx_range=300.0), ALL_STAGES),
    "topology.nodes": (lambda s: varied(s, "topology", kind=None, n=None, spacing=None,
                                        nodes=SQUARE_NODES), ALL_STAGES),
    "algorithm.interference_multiplier":
        (lambda s: varied(s, "algorithm", interference_multiplier=1.5), ALL_STAGES),
    "algorithm.n_channels": (lambda s: varied(s, "algorithm", n_channels=2),
                             {"routing", "ccmca", "baseline"}),
    "algorithm.threshold_fraction": (lambda s: varied(s, "algorithm", threshold_fraction=0.5),
                                     {"routing", "ccmca"}),
    "algorithm.slack": (lambda s: varied(s, "algorithm", slack=2), {"routing", "ccmca"}),
    "algorithm.cap": (lambda s: varied(s, "algorithm", cap=8), {"routing", "ccmca"}),
    "algorithm.max_iters": (lambda s: varied(s, "algorithm", max_iters=2), {"routing", "ccmca"}),
    "sim.channel_capacity_bps": (lambda s: varied(s, "sim", channel_capacity_bps=9e6),
                                 {"routing", "ccmca"}),
    "traffic.flows[0].rate_bps": (lambda s: one_flow_rate(s, 2e4), {"routing", "ccmca"}),
    "sim.seed": (lambda s: varied(s, "sim", seed=7), {"baseline"}),
    "sim.horizon_s": (lambda s: varied(s, "sim", horizon_s=4.0), set()),
    "sim.slot_s": (lambda s: varied(s, "sim", slot_s=2e-3), set()),
    "sim.queue_packets": (lambda s: varied(s, "sim", queue_packets=32), set()),
}


def test_stage_keys_cover_every_input():
    # every field of every section a stage may read is a case above
    covered = {name.split("[")[0] for name in KEY_CASES}
    for section in ("topology", "algorithm", "sim"):
        declared = {f"{section}.{f.name}" for f in fields(getattr(ring_scenario(), section))}
        assert declared <= covered, declared - covered
    assert "traffic.flows" in covered


@pytest.mark.parametrize("case", sorted(KEY_CASES))
def test_stage_key_holds_what_the_stage_reads(case):
    change, stages = KEY_CASES[case]
    base = ring_scenario()
    other = change(base)
    for stage, key in STAGE_KEYS.items():
        hash(key(other))
        assert (key(other) != key(base)) == (stage in stages), stage


def count_calls(monkeypatch, names):
    """Wraps each (owner, name) to count its calls; returns the counter."""
    calls = Counter()

    def wrap(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for owner, name in names:
        wrap(owner, name)
    return calls


@pytest.mark.parametrize("name", ["paper-table1", "grid-params"])
def test_sweep_rows_equal_direct_runs_on_documents(name):
    from test_reports import GRID_PARAMS  # test_reports imports this module
    scenario = scenario_from_dict(GRID_PARAMS if name == "grid-params" else
                                  {"preset": name, "sim": {"horizon_s": 5.0}})
    for sweep, points, override in ((sweep_channels, [1, 2, 3], "n_channels"),
                                    (sweep_time, [2.0, 5.0], "horizon_s")):
        rows = [r for r in sweep(scenario, points, seeds=[1, 2]) if r.seed != "mean"]
        direct = [result_row(run_pipeline(scenario, protocol, seed=seed, **{override: point}))
                  for point in points for protocol in pipeline.PROTOCOLS for seed in (1, 2)]
        assert rows == direct


def test_sweep_computes_each_stage_input_once(monkeypatch):
    calls = count_calls(monkeypatch, [
        (Scenario, "build_topology"), (pipeline, "build_interference_map"),
        (pipeline, "fixed_point_route"), (pipeline, "schedule_all_frames"),
        (pipeline, "baseline_assign")])
    scenario = ring_scenario()
    sweep_channels(scenario, [1, 2, 3], seeds=[1, 2])
    # the geometry once, routes and ccmca's frames per channel count, the
    # baseline's draw per (count, seed)
    assert calls == {"build_topology": 1, "build_interference_map": 1,
                     "fixed_point_route": 3, "schedule_all_frames": 3,
                     "baseline_assign": 6}
    calls.clear()
    sweep_time(scenario, [2.0, 5.0, 10.0], seeds=[1, 2])
    # no planning stage reads the horizon
    assert calls == {"build_topology": 1, "build_interference_map": 1,
                     "fixed_point_route": 1, "schedule_all_frames": 1,
                     "baseline_assign": 2}


def test_sweep_bad_point_names_its_field(capsys):
    error = "algorithm.n_channels: must be >= 1, got 0"
    with pytest.raises(ConfigurationError, match=f"^{error}$"):
        sweep_channels(ring_scenario(), [3, 0], seeds=[1, 2])
    assert main(["sweep-channels", "--scenario", "paper-ring-4", "--channels", "3,0"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"meshplan: error: {error}\n"
