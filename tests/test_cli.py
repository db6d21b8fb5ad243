import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meshplan
from meshplan import AlgorithmParams, ConfigurationError, SimConfig, TopologySpec, load_scenario
from meshplan.cli import main
from meshplan.pipeline import plan
from meshplan.report import CSV_COLUMNS, AssignmentReport
from meshplan.schema import from_json

from test_pipeline import BLOCKED

MINI = {
    "name": "mini",
    "topology": {"kind": "ring", "n": 4, "spacing": 250.0},
    "traffic": {"flows": [{"src": 0, "dst": 2, "kind": "voip"}]},
    "sim": {"horizon_s": 2.0},
}


def scenario_file(tmp_path, doc=MINI):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(doc))
    return str(p)


# two nodes 1 m apart
NODES_CLOSE = {
    "name": "close",
    "topology": {"nodes": [{"x": 0.0, "y": 0.0}, {"x": 1.0, "y": 0.0}]},
    "traffic": {"flows": [{"src": 0, "dst": 1, "kind": "voip"}]},
    "sim": {"horizon_s": 2.0},
}


def test_run_preset_to_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    preset = scenario_file(tmp_path, {"preset": "paper-ring-4",
                                      "sim": {"horizon_s": 2.0}})
    assert main(["run", "--scenario", preset, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2 and lines[1].startswith("paper-ring-4,ccmca,3,")


def test_run_to_stdout_json(tmp_path, capsys):
    assert main(["run", "--scenario", scenario_file(tmp_path),
                 "--protocol", "baseline", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["protocol"] == "baseline"
    assert doc["scenario"]["name"] == "mini"
    assert len(doc["assignment"]["channel_of"]) == 4


def test_sweep_channels_cli(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-channels", "--scenario", scenario_file(tmp_path),
                 "--channels", "1,2", "--seeds", "1,2", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 2 * 3  # header + 2 counts x 2 protocols x (2 seeds + mean)
    assert sum(1 for l in lines if ",mean," in l) == 4


def test_sweep_time_cli_single_protocol(tmp_path):
    out = tmp_path / "time.csv"
    assert main(["sweep-time", "--scenario", scenario_file(tmp_path),
                 "--horizons", "1,2", "--protocol", "ccmca",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert all(",ccmca," in l for l in lines[1:])


def test_assign_cli(tmp_path, capsys):
    assert main(["assign", "--scenario", scenario_file(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "link,channel,frame"
    assert len(lines) == 5


def test_assign_json_decodes_to_planned_assignment(tmp_path, capsys):
    path = scenario_file(tmp_path)
    assert main(["assign", "--scenario", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == ["assignment", "protocol", "scenario"]
    *_, assignment = plan(load_scenario(path), "ccmca")
    report = from_json(AssignmentReport, doc, "report")
    assert report.assignment == assignment
    # the report names its input: planning that scenario again gives it
    assert report.scenario == load_scenario(path)
    assert plan(report.scenario, report.protocol)[-1] == assignment


def test_assign_runs_no_simulation(tmp_path, capsys):
    # a horizon past the packet budget only matters to a simulation
    tables = []
    for horizon in (2.0, 1e30):
        doc = edited(MINI, ("sim", "horizon_s"), horizon)
        assert main(["assign", "--scenario", scenario_file(tmp_path, doc)]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]


@pytest.mark.parametrize("command", ["run", "assign"])
def test_routing_warnings_on_stderr(tmp_path, capsys, command):
    # Both commands say when routing did not converge or blocked flows, and
    # say nothing when it converged with every flow routed.
    not_converged = "routing did not converge; using the last route table"
    for doc, warnings in (
            (NODES_CLOSE, []),
            (MINI, [not_converged]),
            (BLOCKED, [not_converged, "1 flow(s) blocked by the load threshold"])):
        assert main([command, "--scenario", scenario_file(tmp_path, doc)]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [f"meshplan: warning: {w}" for w in warnings]


@pytest.mark.parametrize("command", ["run", "assign"])
def test_unwritable_out_is_io_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "report.csv"
    assert main([command, "--scenario", scenario_file(tmp_path), "--out", str(out)]) == 5
    assert f"cannot write report to {out}" in capsys.readouterr().err


GAIN_EXTREMES = {
    "d0-huge": {"preset": "paper-ring-4", "algorithm": {"d0": 1e308}},
    "alpha-huge": {**NODES_CLOSE, "algorithm": {"alpha": 1000.0}},
}


@pytest.mark.parametrize("case", sorted(GAIN_EXTREMES))
def test_gain_extremes_run(tmp_path, capsys, case):
    # every link is within the reference distance, so every gain is 1
    assert main(["run", "--scenario", scenario_file(tmp_path, GAIN_EXTREMES[case])]) == 0


def test_exit_code_io_missing_file(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "ghost.json")]) == 5
    assert "error" in capsys.readouterr().err


def test_exit_code_parse_error(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["run", "--scenario", str(p)]) == 2


UNREADABLE = {
    "not-utf8": b"\xff\xfe{}",
    # deeper than the JSON decoder's recursion can go
    "nested-deep": b"[" * 100_000 + b"]" * 100_000,
    "utf8-bom": b"\xef\xbb\xbf" + json.dumps(MINI).encode(),
    # past the interpreter's limit on the digits of an integer it converts
    "int-too-long": b'{"preset": "paper-ring-4", "sim": {"seed": ' + b"9" * 5000 + b"}}",
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_file_is_parse_error(tmp_path, capsys, case):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if case == "int-too-long" and not 0 < limit < 5000:
        pytest.skip("this Python converts a 5000-digit integer")
    p = tmp_path / f"{case}.json"
    p.write_bytes(UNREADABLE[case])
    assert main(["run", "--scenario", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"meshplan: error: {p}: ") and err.count("\n") == 1, err


def run_in_c_locale(tmp_path, *args):
    """``meshplan run`` on a scenario named "réseau", in a child process
    whose locale, and so whose stdout, encodes ASCII only."""
    scn = scenario_file(tmp_path, {"preset": "paper-ring-4", "name": "réseau",
                                   "sim": {"horizon_s": 2.0}})
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join([str(Path(meshplan.__file__).parents[1]),
                                           env.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "meshplan.cli", "run", "--scenario", scn,
                           *args], env=env, cwd=tmp_path, capture_output=True)


def test_report_file_is_utf8_in_any_locale(tmp_path):
    out = tmp_path / "r.csv"
    out.write_text("an earlier report\n")
    proc = run_in_c_locale(tmp_path, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes().decode("utf-8").splitlines()[1].startswith("réseau,ccmca,")


def test_report_stdout_cannot_encode_is_io_error(tmp_path):
    proc = run_in_c_locale(tmp_path)
    if proc.returncode == 0 and "réseau".encode() in proc.stdout:
        pytest.skip("the C locale encodes UTF-8 on this platform")
    assert proc.returncode == 5, proc.stderr
    assert b"cannot write report to stdout" in proc.stderr


NODES = {
    "name": "explicit",
    "topology": {"nodes": [{"x": 0.0, "y": 0.0}, {"x": 200.0, "y": 0.0},
                           {"x": 400.0, "y": 0.0}]},
    "traffic": {"flows": [{"src": 0, "dst": 2, "kind": "voip"}]},
    "sim": {"horizon_s": 2.0},
}


def edited(base, path, value):
    """A copy of `base` with the key at `path` set to `value`."""
    doc = json.loads(json.dumps(base))
    target = doc
    for key in path[:-1]:
        target = target.setdefault(key, {}) if isinstance(target, dict) else target[key]
    target[path[-1]] = value
    return doc


MALFORMED = {
    "horizon-infinite": (edited(MINI, ("sim", "horizon_s"), math.inf), "sim.horizon_s"),
    "horizon-nan": (edited(MINI, ("sim", "horizon_s"), math.nan), "sim.horizon_s"),
    "horizon-bool": (edited(MINI, ("sim", "horizon_s"), True), "sim.horizon_s"),
    # finite, but more packets than one run may inject
    "horizon-huge": (edited(MINI, ("sim", "horizon_s"), 1e30), "sim.horizon_s"),
    "channels-fraction": (edited(MINI, ("algorithm", "n_channels"), 2.5),
                          "algorithm.n_channels"),
    "channels-string": (edited(MINI, ("algorithm", "n_channels"), "3"),
                        "algorithm.n_channels"),
    "queue-string": (edited(MINI, ("sim", "queue_packets"), "64"), "sim.queue_packets"),
    "seed-string": (edited(MINI, ("sim", "seed"), "x"), "sim.seed"),
    "n-null": (edited(MINI, ("topology", "n"), None), "topology.n"),
    "n-string": (edited(MINI, ("topology", "n"), "3"), "topology.n"),
    "n-fraction": (edited(MINI, ("topology", "n"), 3.7), "topology.n"),
    "spacing-nan": (edited(MINI, ("topology", "spacing"), math.nan), "topology.spacing"),
    "spacing-negative": (edited(MINI, ("topology", "spacing"), -5.0), "topology.spacing"),
    "n-one": (edited(MINI, ("topology", "n"), 1), "topology.n"),
    # keys of deleted fields are unknown keys now
    "nic-count-unknown": (edited(MINI, ("topology", "nic_count"), 2), "topology"),
    "nodes-not-a-list": (edited(MINI, ("topology", "nodes"), 5), "topology.nodes"),
    "coordinate-nan": (edited(NODES, ("topology", "nodes", 1, "x"), math.nan),
                       "topology.nodes[1].x"),
    "node-id-unknown": (edited(NODES, ("topology", "nodes", 0, "id"), 0),
                        "topology.nodes[0]"),
    "flow-not-an-object": (edited(MINI, ("traffic", "flows"), [1]), "traffic.flows[0]"),
    "src-fraction": (edited(MINI, ("traffic", "flows", 0, "src"), 0.9),
                     "traffic.flows[0].src"),
    "rate-infinite": (edited(MINI, ("traffic", "flows", 0, "rate_bps"), math.inf),
                      "traffic.flows[0].rate_bps"),
    "rate-huge": (edited(MINI, ("traffic", "flows", 0, "rate_bps"), 1e300), "sim.horizon_s"),
    "name-object": (edited(MINI, ("name",), {"a": 1}), "scenario.name"),
    "preset-sim-list": ({"preset": "paper-ring-4", "sim": []}, "sim:"),
    "top-level-unknown": (edited(MINI, ("tolopogy",), {}), "scenario"),
    "document-a-list": ([MINI], "scenario"),
    "traffic-missing": ({k: v for k, v in MINI.items() if k != "traffic"},
                        "scenario.traffic"),
    "flows-missing": (edited(MINI, ("traffic",), {}), "traffic.flows"),
    "flows-empty": (edited(MINI, ("traffic", "flows"), []), "traffic.flows"),
    "src-missing": (edited(MINI, ("traffic", "flows", 0), {"dst": 2, "kind": "voip"}),
                    "traffic.flows[0].src"),
    "kind-list": (edited(MINI, ("traffic", "flows", 0, "kind"), ["voip"]),
                  "traffic.flows[0]"),
    "rate-inf-string": (edited(MINI, ("traffic", "flows", 0, "rate_bps"), "inf"),
                        "traffic.flows[0].rate_bps"),
    "node-a-list": (edited(NODES, ("topology", "nodes", 0), [0.0, 0.0]),
                    "topology.nodes[0]"),
    "flow-pair-duplicate": (edited(MINI, ("traffic", "flows"),
                                   2 * MINI["traffic"]["flows"]), "traffic.flows"),
    "preset-sim-unknown": ({"preset": "paper-ring-4", "sim": {"slots": 5}}, "sim"),
    "preset-traffic-list": ({"preset": "paper-ring-4", "traffic": []}, "traffic"),
    "preset-algorithm-null": ({"preset": "paper-ring-4", "algorithm": None}, "algorithm"),
    # more slots than one run may span: 2e9, and with every flow blocked
    # (a threshold no load meets, one routing pass) a ratio past the float range
    "slot-tiny": (edited(MINI, ("sim", "slot_s"), 1e-9), "sim.slot_s"),
    "slot-overflow": ({**MINI, "algorithm": {"threshold_fraction": 1e-6, "max_iters": 1},
                       "sim": {"horizon_s": 1e300, "slot_s": 1e-300}}, "sim.slot_s"),
    "cap-huge": (edited(MINI, ("algorithm", "cap"), 10 ** 9), "algorithm.cap"),
    "channels-huge": (edited(MINI, ("algorithm", "n_channels"), 257), "algorithm.n_channels"),
    "nodes-coincident": (edited(NODES, ("topology", "nodes", 1), {"x": 0.0, "y": 0.0}),
                         "topology.nodes[1]"),
    # a packet interval past the float range, from either side of the ratio
    "rate-subnormal": (edited(MINI, ("traffic", "flows", 0, "rate_bps"), 1e-310),
                       "traffic.flows[0].rate_bps"),
    "packet-bytes-huge": (edited(MINI, ("traffic", "flows", 0, "packet_bytes"), 10 ** 400),
                          "traffic.flows[0].packet_bytes"),
    # rejected before any node is placed
    "nodes-huge": (edited(MINI, ("topology", "n"), 10 ** 10), "topology.n"),
    # finite spacings that place nodes at inf, or at nan through inf - inf
    "chain-spacing-overflow": (edited(edited(MINI, ("topology", "kind"), "chain"),
                                      ("topology", "spacing"), 1e308), "topology.spacing"),
    # a grid of a prime node count has no rows; a binary-tree's edges are its
    # links, so each must be within range
    "grid-prime": (edited(edited(MINI, ("topology", "kind"), "grid"), ("topology", "n"), 7),
                   "topology.n"),
    "binary-tree-wide": ({**MINI, "topology": {"kind": "binary-tree", "n": 7, "spacing": 300.0,
                                               "tx_range": 250.0}}, "topology.spacing"),
    "binary-tree-spacing-overflow": ({**MINI, "topology": {"kind": "binary-tree", "n": 7,
                                                           "spacing": 1e308, "tx_range": 1e308}},
                                     "topology.spacing"),
    # 4950 links within 1 mm of each other: every pair of them interferes
    "dense-ring": ({**MINI, "topology": {"kind": "ring", "n": 100, "spacing": 1e-6,
                                         "tx_range": 1e-3}}, "algorithm.interference_multiplier"),
}


def assert_validation_error(tmp_path, capsys, doc, where):
    """Exit 3 with one error line that names the section and field."""
    assert main(["run", "--scenario", scenario_file(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("meshplan: error: ") and err.count("\n") == 1, err
    assert where in err and "Traceback" not in err, err


def test_exit_code_validation_error(tmp_path, capsys):
    doc = edited(MINI, ("traffic", "flows", 0, "dst"), 99)
    assert_validation_error(tmp_path, capsys, doc, "traffic.flows[0].dst")


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exit_code(tmp_path, capsys, case):
    assert_validation_error(tmp_path, capsys, *MALFORMED[case])


# Each parameter the planning stages read, just past its bound. The dataclass
# that declares it is the one place it is checked, so it fails there whether
# built in code or read from a document.
PAST_BOUNDS = [
    ("algorithm", "n_channels", 0),
    ("algorithm", "threshold_fraction", 0.0),
    ("algorithm", "threshold_fraction", math.nextafter(1.0, 2.0)),
    ("algorithm", "slack", -1),
    ("algorithm", "cap", 0),
    ("algorithm", "d0", 0.0),
    ("algorithm", "alpha", math.nextafter(2.0, 0.0)),
    # an interference range shorter than the transmission range
    ("algorithm", "interference_multiplier", math.nextafter(1.0, 0.0)),
    ("algorithm", "max_iters", 0),
    ("sim", "channel_capacity_bps", 0.0),
    ("topology", "tx_range", 0.0),
]
DECLARED_BY = {"algorithm": AlgorithmParams, "sim": SimConfig, "topology": TopologySpec}


@pytest.mark.parametrize("section,name,value", PAST_BOUNDS)
def test_parameter_past_its_bound(tmp_path, capsys, section, name, value):
    with pytest.raises(ConfigurationError, match=f"^{name}: must be "):
        DECLARED_BY[section](**{name: value})
    assert_validation_error(tmp_path, capsys, edited(MINI, (section, name), value),
                            f"{section}.{name}: must be ")


@pytest.mark.parametrize("kind", ["ring", "grid", "star", "binary-tree"])
def test_generated_nodes_at_one_point_name_spacing(tmp_path, capsys, kind):
    # 1e-12 m is below the 1 nm to which distances round
    doc = edited(edited(MINI, ("topology", "spacing"), 1e-12), ("topology", "kind"), kind)
    assert_validation_error(tmp_path, capsys, doc, "topology.spacing")


PAST_HORIZON = {
    # the second packet of flow (0, 2) is due some 1e305 s on, so far past the
    # last slot that the slot index overflows a float
    "rate-tiny": {"preset": "paper-ring-4", "traffic": {"flows": [
        {"src": 0, "dst": 2, "rate_bps": 1e-300, "packet_bytes": 65536}]}},
    "rate-tiny-slot-tiny": {"preset": "paper-ring-4", "traffic": {"flows": [
        {"src": 0, "dst": 2, "rate_bps": 1e-300, "packet_bytes": 65536}]},
        "sim": {"horizon_s": 0.01, "slot_s": 1e-9}},
}


@pytest.mark.parametrize("case", sorted(PAST_HORIZON))
def test_flow_due_past_the_horizon_runs(tmp_path, capsys, case):
    assert main(["run", "--scenario", scenario_file(tmp_path, PAST_HORIZON[case]),
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metrics"]["per_flow"]["0->2"]["generated"] == 1


def test_sweep_channel_count_out_of_bounds(tmp_path, capsys):
    assert main(["sweep-channels", "--scenario", scenario_file(tmp_path),
                 "--channels", "2,257"]) == 3
    err = capsys.readouterr().err
    assert err == "meshplan: error: algorithm.n_channels: must be <= 256, got 257\n"


@pytest.mark.parametrize("command,option", [("sweep-channels", "--channels"),
                                            ("sweep-time", "--horizons")])
def test_sweep_empty_seed_list(capsys, command, option):
    assert main([command, "--scenario", "paper-ring-4", option, "1,2", "--seeds", ","]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "meshplan: error: sweep needs at least one seed\n"


def test_integral_float_field_reports_as_float(tmp_path, capsys):
    reports = []
    for horizon in (10, 10.0):
        path = scenario_file(tmp_path, edited(MINI, ("sim", "horizon_s"), horizon))
        for fmt in ("csv", "json"):
            assert main(["run", "--scenario", path, "--format", fmt]) == 0
            reports.append(capsys.readouterr().out)
    assert reports[:2] == reports[2:]


def test_exit_code_contract_error(tmp_path, capsys):
    # unroutable flow surfaces through the pipeline as a contract-category failure
    doc = {
        "name": "split",
        "topology": {"nodes": [{"x": 0, "y": 0}, {"x": 900, "y": 0}],
                     "tx_range": 250.0},
        "traffic": {"flows": [{"src": 0, "dst": 1, "rate_bps": 1e3,
                               "packet_bytes": 125}]},
        "sim": {"horizon_s": 1.0},
    }
    assert main(["run", "--scenario", scenario_file(tmp_path, doc)]) == 4


def test_cli_determinism(tmp_path):
    preset = scenario_file(tmp_path, {"preset": "paper-ring-4",
                                      "sim": {"horizon_s": 2.0}})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep-channels", "--scenario", preset, "--channels", "1,2,3",
                 "--out", str(out1)]) == 0
    assert main(["sweep-channels", "--scenario", preset, "--channels", "1,2,3",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
