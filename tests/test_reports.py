"""Byte identity of the reports: sha256 digests of CSV and JSON reports,
pinned when they were last known good.

A change that alters any report must update the digest here and say why.
"""

import hashlib
import json

import pytest

from meshplan import render_report, run_pipeline, scenario_from_dict, sweep_channels
from meshplan.cli import main
from meshplan.report import CSV_COLUMNS

from test_pipeline import SQUARE

HEADER = ("scenario,protocol,channels,horizon_s,seed,generated,delivered,"
          "dropped,avg_delay_s,pdr,throughput_pkts")

RUN_DIGESTS = {
    ("paper-ring-4", "ccmca", "csv"):
        "ab12950cbda1b558379b6850f4630872eaa59facdb4753443b2ade3ea58b0179",
    ("paper-ring-4", "ccmca", "json"):
        "bbf0c44c14bbbe4bb31da5044742b253510236b07f39e300f5ab8e7da94e1256",
    ("paper-ring-4", "baseline", "csv"):
        "502fc2284c2ae615b2801cb293b4c6e36b4697bd82baf837d13e46e63c25def3",
    ("paper-ring-4", "baseline", "json"):
        "25d0592a5a804bbe22214320b0aaddcf007774cda0d5c70d054003bb19e3161a",
    ("paper-table1", "ccmca", "csv"):
        "3ae910f84ccf1fb2c3328031a01f7f622cfc13b17ada6b1829490b1772b849ea",
    ("paper-table1", "ccmca", "json"):
        "262ed8259037941b8e550bc681527ad94479da171c9b5e67d9b7d96a1240b812",
    ("paper-table1", "baseline", "csv"):
        "463a73af74d672ab9b4067e09020c5af3ec656e02148637f453583f83b9c667f",
    ("paper-table1", "baseline", "json"):
        "4581eda244a1ce024fca6147d789ec3c6a42db157b618b99297d22484857354f",
}

ASSIGN_DIGESTS = {
    "paper-ring-4": "60a9dde61ad86ad276ae14954c5dff9d4973d0b25ecd82722d4bc54125d3058f",
    "paper-table1": "1b5d089d2a434a22a1165928d150b8462b1f9f74be729ed0131d3c4c52e0692c",
}

# `meshplan assign --format json` on one document of each topology kind the
# presets do not build: a grid, a star, a binary-tree (whose links are its
# tree edges) and explicit nodes.
KIND_DOCS = {
    "grid-3x3": {"name": "grid-3x3", "topology": {"kind": "grid", "n": 9, "spacing": 200.0},
                 "traffic": {"flows": [{"src": 0, "dst": 8, "kind": "voip"},
                                       {"src": 2, "dst": 6, "kind": "vod"}]}},
    "star": {"name": "star", "topology": {"kind": "star", "n": 6, "spacing": 200.0},
             "traffic": {"flows": [{"src": 1, "dst": 4, "kind": "voip"},
                                   {"src": 2, "dst": 5, "kind": "vod"}]}},
    "binary-tree": {"name": "binary-tree",
                    "topology": {"kind": "binary-tree", "n": 7, "spacing": 200.0},
                    "traffic": {"flows": [{"src": 3, "dst": 6, "kind": "voip"},
                                          {"src": 5, "dst": 4, "kind": "vod"}]}},
    "square": SQUARE,
}
KIND_ASSIGN_DIGESTS = {
    "grid-3x3": "3e8aee8e274a96328405e93e176e1d9375ee67c09a4dc340bd16aa1524db3721",
    "star": "b13cbf4fbaf1cf803a94d70220ec592f9b029d9c6ec84ec032358c15e092a304",
    "binary-tree": "3a74aeaebbf95e4f340fc2d1c4b09e2615d6028d70010bdcbf44f8122e8b2cf3",
    "square": "a51f193340cd5d6692d05dcc5e42f5f8542aa9244e85ce01c6973c179f53645e",
}

# Full-horizon JSON reports: paper-table1 at its default 100 s, whose 64 KiB
# vod packets wait many slots for credit and whose runs jump over 42k-51k of
# their 100k slots, and an 8-node chain saturated by one 5.3 Mb/s flow of
# 64 B packets, whose default 64-packet queues overflow.
SATURATED_CHAIN = {
    "name": "chain-saturated",
    "topology": {"kind": "chain", "n": 8, "spacing": 200.0},
    "traffic": {"flows": [{"src": 0, "dst": 7, "rate_bps": 5.3e6, "packet_bytes": 64}]},
    "sim": {"horizon_s": 10.0},
}
FULL_HORIZON_DOCS = {
    "paper-table1": {"preset": "paper-table1", "sim": {"horizon_s": 100.0}},
    "chain-saturated": SATURATED_CHAIN,
}
FULL_HORIZON_DIGESTS = {
    ("paper-table1", "ccmca"):
        "47e9eae13b1e24f78cead73eb74511d5df42fbc8396f4efba1393dc999e40e82",
    ("paper-table1", "baseline"):
        "7aee62ff244d8690e00a4984840b6cca4aae2e3d34b059e618fbaf0d12ef194d",
    ("chain-saturated", "ccmca"):
        "5f358074f771f6c680d359bdabf066b1c0ac2323ea618daf1c03284d58811f09",
    ("chain-saturated", "baseline"):
        "8810ece340e293ee28d9759cc7e161fcb220bdec4a87904e35173f79358b3713",
}

# `meshplan run` and `meshplan assign` JSON on a document whose every
# algorithm field and channel capacity is off its default, so a stage that
# reads a default in place of the scenario's value changes a digest.
GRID_PARAMS = {
    "name": "grid-params",
    "topology": {"kind": "grid", "n": 16, "spacing": 200.0, "tx_range": 300.0},
    "traffic": {"flows": [{"src": 0, "dst": 15, "kind": "vod"},
                          {"src": 3, "dst": 12, "kind": "vod"},
                          {"src": 5, "dst": 10, "rate_bps": 2e5, "packet_bytes": 500},
                          {"src": 1, "dst": 14, "kind": "voip"},
                          {"src": 4, "dst": 11, "kind": "voip"}]},
    "algorithm": {"n_channels": 2, "threshold_fraction": 0.35, "slack": 2, "cap": 8,
                  "interference_multiplier": 1.5, "max_iters": 2},
    "sim": {"horizon_s": 5, "channel_capacity_bps": 9e6},
}
GRID_PARAMS_DIGESTS = {
    ("run", "ccmca"): "9e745e0f33c0e8e1c7d3bf446174ba5ad98df95863574aaf3129ef7f248bd16c",
    ("run", "baseline"): "1682771099fffd188f632e036fb5f9cf2d2db13d9e9f3c85c0104cc3ffedb6ee",
    ("assign", "ccmca"): "6548394bde3ee67599a1babe96f5307324c699e5aefa9521dd876ea753011884",
    ("assign", "baseline"): "7059a7800329f39399c41ef44385e4f33eb0642b6d25998f5fa1f6ffc6f062db",
}

SWEEP_DIGESTS = {
    "csv": "7887b3153c552ef84f3ea8e1d19567f69a247a5865ef87e3e3b8cb40ff38dcb5",
    "json": "74da4b669a47f35416ff87d796649ac6ff596950d321eabd7f05ce36cd386518",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("preset,protocol,fmt", sorted(RUN_DIGESTS))
def test_run_report_digest(preset, protocol, fmt):
    scenario = scenario_from_dict({"preset": preset, "sim": {"horizon_s": 5.0}})
    text = render_report(run_pipeline(scenario, protocol), fmt)
    assert sha256(text) == RUN_DIGESTS[preset, protocol, fmt]


@pytest.mark.parametrize("name,protocol", sorted(FULL_HORIZON_DIGESTS))
def test_full_horizon_report_digest(name, protocol):
    result = run_pipeline(scenario_from_dict(FULL_HORIZON_DOCS[name]), protocol)
    if name == "chain-saturated":
        assert result.metrics.dropped > 0
    text = render_report(result, "json")
    assert sha256(text) == FULL_HORIZON_DIGESTS[name, protocol]


@pytest.mark.parametrize("preset", sorted(ASSIGN_DIGESTS))
def test_assign_report_digest(preset, capsys):
    assert main(["assign", "--scenario", preset]) == 0
    assert sha256(capsys.readouterr().out) == ASSIGN_DIGESTS[preset]


@pytest.mark.parametrize("name", sorted(KIND_ASSIGN_DIGESTS))
def test_assign_report_digest_per_topology_kind(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(KIND_DOCS[name]))
    assert main(["assign", "--scenario", str(path), "--format", "json"]) == 0
    assert sha256(capsys.readouterr().out) == KIND_ASSIGN_DIGESTS[name]


@pytest.mark.parametrize("command,protocol", sorted(GRID_PARAMS_DIGESTS))
def test_non_default_parameters_report_digest(command, protocol, tmp_path, capsys):
    path = tmp_path / "grid-params.json"
    path.write_text(json.dumps(GRID_PARAMS))
    assert main([command, "--scenario", str(path), "--protocol", protocol,
                 "--format", "json"]) == 0
    assert sha256(capsys.readouterr().out) == GRID_PARAMS_DIGESTS[command, protocol]


def test_sweep_report_digest():
    rows = sweep_channels(scenario_from_dict({"preset": "paper-ring-4"}), [1, 2, 3],
                          seeds=[1, 2])
    for fmt, digest in SWEEP_DIGESTS.items():
        assert sha256(render_report(rows, fmt)) == digest, fmt


def test_csv_header_is_literal():
    assert ",".join(CSV_COLUMNS) == HEADER
    assert render_report([], "csv") == HEADER + "\n"


def test_empty_json_report():
    assert render_report([], "json") == "[]\n"


def test_unknown_report_format_rejected():
    # the CLI offers csv and json only; the library refuses any other itself
    with pytest.raises(ValueError, match="^unknown report format 'xml'$"):
        render_report([], "xml")
