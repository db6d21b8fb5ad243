import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from meshplan import (PRESETS, ConfigurationError, Flow, MeshNode,
                      ScenarioParseError, SimConfig,
                      TopologySpec, TrafficProfile, load_scenario,
                      parse_scenario, run_pipeline, scenario_from_dict)


def write(tmp_path, doc):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return p


MINI = {
    "name": "mini",
    "topology": {"kind": "chain", "n": 2, "spacing": 100.0},
    "traffic": {"flows": [{"src": 0, "dst": 1, "rate_bps": 1000.0,
                           "packet_bytes": 125, "kind": "cbr"}]},
}


def test_preset_ring4():
    s = scenario_from_dict({"preset": "paper-ring-4"})
    assert s.name == "paper-ring-4"
    assert s.topology.kind == "ring" and s.topology.n == 4
    assert s.topology.tx_range == 250.0
    kinds = sorted(f.kind for f in s.traffic.flows)
    assert kinds == ["vod", "voip", "voip"]
    assert len(s.traffic.flows) == 3
    assert s.sim.horizon_s == 100.0
    assert s.algorithm.n_channels == 3  # default applied
    topo = s.build_topology()
    assert topo.n_nodes == 4 and topo.n_links == 4
    assert topo.interference_range == 500.0


def test_preset_table1():
    s = scenario_from_dict({"preset": "paper-table1"})
    assert s.topology.n == 50
    assert s.topology.tx_range == 250.0
    topo = s.build_topology()
    assert topo.n_nodes == 50 and topo.n_links == 50


def test_preset_with_overrides():
    s = scenario_from_dict({"preset": "paper-ring-4",
                            "sim": {"horizon_s": 2.0, "seed": 9},
                            "algorithm": {"n_channels": 5}})
    assert s.sim.horizon_s == 2.0 and s.sim.seed == 9
    assert s.sim.channel_capacity_bps == 10e6  # untouched preset value
    assert s.algorithm.n_channels == 5


def test_unknown_preset_rejected():
    with pytest.raises(ConfigurationError, match="unknown preset"):
        scenario_from_dict({"preset": "nope"})
    assert set(PRESETS) == {"paper-ring-4", "paper-table1"}


def test_parse_minimal_file(tmp_path):
    s = parse_scenario(write(tmp_path, MINI))
    assert s.name == "mini"
    assert s.traffic.flows[0].rate_bps == 1000.0
    assert s.algorithm.slack == 1 and s.sim.queue_packets == 64  # defaults


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_scenario(tmp_path / "absent.json")


def test_malformed_json_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\"topology\": ")
    with pytest.raises(ScenarioParseError, match="line"):
        parse_scenario(p)


def test_unknown_keys_rejected():
    doc = dict(MINI)
    doc["extra"] = 1
    with pytest.raises(ConfigurationError, match="unknown key"):
        scenario_from_dict(doc)
    doc = json.loads(json.dumps(MINI))
    doc["sim"] = {"horizon": 5}
    with pytest.raises(ConfigurationError, match="unknown key"):
        scenario_from_dict(doc)
    doc = json.loads(json.dumps(MINI))
    doc["traffic"]["flows"][0]["burst"] = 2
    with pytest.raises(ConfigurationError, match="unknown key"):
        scenario_from_dict(doc)


def test_flow_referencing_missing_node():
    doc = json.loads(json.dumps(MINI))
    doc["traffic"]["flows"][0]["dst"] = 99
    with pytest.raises(ConfigurationError, match="node 99"):
        scenario_from_dict(doc)


def test_bad_parameter_values():
    doc = json.loads(json.dumps(MINI))
    doc["algorithm"] = {"threshold_fraction": 1.5}
    with pytest.raises(ConfigurationError, match="threshold_fraction"):
        scenario_from_dict(doc)
    doc = json.loads(json.dumps(MINI))
    doc["sim"] = {"queue_packets": 0}
    with pytest.raises(ConfigurationError, match="queue_packets"):
        scenario_from_dict(doc)
    doc = json.loads(json.dumps(MINI))
    doc["topology"] = {"kind": "moebius", "n": 4, "spacing": 10.0}
    with pytest.raises(ConfigurationError, match="kind"):
        scenario_from_dict(doc)


def test_flow_kind_defaults():
    doc = json.loads(json.dumps(MINI))
    doc["topology"] = {"kind": "ring", "n": 4, "spacing": 250.0}
    doc["traffic"] = {"flows": [{"src": 0, "dst": 2, "kind": "voip"},
                                {"src": 1, "dst": 3, "kind": "vod"}]}
    s = scenario_from_dict(doc)
    voip, vod = s.traffic.flows
    assert voip.rate_bps == 12200.0 and voip.packet_bytes == 61
    assert vod.rate_bps == 150000.0 and vod.packet_bytes == 65536
    # plain cbr flows must spell out their rate
    doc["traffic"] = {"flows": [{"src": 0, "dst": 2}]}
    with pytest.raises(ConfigurationError, match="rate_bps"):
        scenario_from_dict(doc)


def test_explicit_nodes_topology():
    doc = {
        "name": "explicit",
        "topology": {"nodes": [{"x": 0, "y": 0}, {"x": 200, "y": 0},
                               {"x": 400, "y": 0}],
                     "tx_range": 250.0},
        "traffic": {"flows": [{"src": 0, "dst": 2, "rate_bps": 5e3,
                               "packet_bytes": 125}]},
    }
    s = scenario_from_dict(doc)
    topo = s.build_topology()
    assert topo.n_nodes == 3 and topo.n_links == 2
    assert topo.nodes[2] == MeshNode(400.0, 0.0)
    # explicit nodes exclude the generator keys
    doc["topology"]["kind"] = "chain"
    with pytest.raises(ConfigurationError):
        scenario_from_dict(doc)


def test_duplicate_pair_rejected():
    doc = json.loads(json.dumps(MINI))
    doc["traffic"]["flows"].append(dict(doc["traffic"]["flows"][0]))
    with pytest.raises(ConfigurationError, match="duplicate"):
        scenario_from_dict(doc)


def test_load_scenario_resolves_presets_and_paths(tmp_path):
    s = load_scenario("paper-ring-4")
    assert s.name == "paper-ring-4"
    p = write(tmp_path, MINI)
    assert load_scenario(str(p)).name == "mini"


def test_library_objects_follow_field_rules():
    # the checker runs however the object is built, not only from documents
    cfg = SimConfig(horizon_s=10)
    assert cfg.horizon_s == 10.0 and type(cfg.horizon_s) is float
    with pytest.raises(ConfigurationError, match="rate_bps"):
        Flow(0, 1, True, 125)
    with pytest.raises(ConfigurationError, match="seed"):
        SimConfig(seed=1.0)
    with pytest.raises(ConfigurationError, match="^x: "):
        MeshNode(math.nan, 0.0)
    with pytest.raises(ConfigurationError, match="kind"):
        Flow(0, 1, 1e3, 125, "ftp")
    with pytest.raises(ConfigurationError, match=r"^nodes: must list at most 100000 nodes"):
        TopologySpec(nodes=(MeshNode(0.0, 0.0),) * 100_001)
    ring = load_scenario("paper-ring-4")
    with pytest.raises(ConfigurationError,
                       match=r"^traffic\.flows\[0\]\.dst: node 9 not in topology \(0\.\.3\)$"):
        replace(ring, traffic=TrafficProfile((Flow(0, 9, 1e3, 125),)))
    with pytest.raises(ConfigurationError, match=r"^traffic\.flows: must not be empty$"):
        replace(ring, traffic=TrafficProfile(()))


@pytest.mark.parametrize("topology,where", [
    ({"kind": "grid", "n": 7, "spacing": 200.0}, "topology.n"),
    ({"kind": "binary-tree", "n": 7, "spacing": 300.0, "tx_range": 250.0}, "topology.spacing"),
])
def test_topology_rules_checked_when_read(topology, where):
    # a grid needs rows and columns; a binary-tree's edges must be in range
    doc = {**MINI, "topology": topology}
    with pytest.raises(ConfigurationError, match=f"^{re.escape(where)}: "):
        scenario_from_dict(doc)


def test_readme_example_runs():
    # the documented scenario format must stay what the parser accepts
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    example, = re.findall(r"```json\n(.*?)```", readme, re.S)
    result = run_pipeline(scenario_from_dict(json.loads(example)), horizon_s=2.0)
    assert result.scenario.name == "my-experiment" and result.metrics.generated > 0


def test_readme_library_example_runs():
    # the documented library calls must keep working as written
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    example, = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(example, "README.md", "exec"), {})
