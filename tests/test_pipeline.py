import json

import pytest

from meshplan import (ConfigurationError, GoodputReport, PipelineError,
                      PipelineResult, UnroutableFlowError, emit_report,
                      render_report, run_pipeline, scenario_from_dict,
                      sweep_channels)
from meshplan.report import CSV_COLUMNS, assignment_to_csv, result_row
from meshplan.schema import from_json, to_json


def ring_scenario(horizon_s=5.0, seed=1):
    return scenario_from_dict({"preset": "paper-ring-4",
                               "sim": {"horizon_s": horizon_s, "seed": seed}})


def test_ring4_bundle_complete():
    result = run_pipeline(ring_scenario(), "ccmca", n_channels=3)
    assert result.n_channels == 3
    assert result.assignment.fully_assigned and result.assignment.n_links == 4
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
    assert result.assignment.n_links == 50 and result.assignment.fully_assigned
    assert len(result.routes.routes) == 3
    # opposite pairs on a 50-ring ride 25-hop arcs
    assert all(len(r.links) == 25 for r in result.routes.routes.values())
    # nothing lost; the shortfall from 1.0 is packets still crossing at the horizon
    assert result.metrics.dropped == 0
    assert result.metrics.pdr > 0.97
    assert result.metrics.in_flight == result.metrics.generated - result.metrics.delivered


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
    # The run still completes, flows are skipped with a counter, and
    # goodput is zero.
    result = run_pipeline(scenario_from_dict(BLOCKED), "ccmca")
    assert result.routes.blocked == frozenset({(0, 1)})
    assert not result.routes.converged  # blocked/routed tables alternate
    assert result.metrics.blocked_flows == 1
    assert result.metrics.generated == 0
    assert result.goodput.total == 0.0


def test_blocked_bundle_roundtrip_through_json():
    # an infinite link cost and a blocked pair take the codec's own forms
    result = run_pipeline(scenario_from_dict(BLOCKED), "ccmca")
    doc = json.loads(render_report(result, "json"))
    assert doc["costs"]["values"] == ["inf"]
    assert doc["routes"]["blocked"] == ["0->1"]
    assert PipelineResult.from_dict(doc) == result


def test_codec_orders_pairs_numerically():
    goodput = GoodputReport({(10, 1): 1.0, (2, 0): 2.0}, {(0, 5): 0.5}, 3.5)
    doc = to_json(goodput)
    assert list(doc["assigned"]) == ["2->0", "10->1"]
    assert to_json(frozenset({(10, 1), (2, 0), (2, 11)})) == ["2->0", "2->11", "10->1"]
    assert from_json(GoodputReport, doc, "goodput") == goodput


def test_bundle_missing_field_names_it():
    doc = run_pipeline(ring_scenario(), "ccmca").to_dict()
    del doc["metrics"]
    with pytest.raises(ConfigurationError, match=r"^bundle\.metrics: required$"):
        PipelineResult.from_dict(doc)
    doc = run_pipeline(ring_scenario(), "ccmca").to_dict()
    del doc["assignment"]["frame"]
    with pytest.raises(ConfigurationError, match=r"^bundle\.assignment\.frame: required$"):
        PipelineResult.from_dict(doc)
    doc = run_pipeline(ring_scenario(), "ccmca").to_dict()
    doc["routes"]["routes"]["0->2"]["hops"] = 2
    with pytest.raises(ConfigurationError, match=r"^bundle\.routes\.routes\.0->2: unknown key"):
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
