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
        "1bc7a0dc4c394cd0438f3f30685d10f23435a0b4f1b4d3d6ec4d2f8c7435c021",
    ("paper-ring-4", "baseline", "csv"):
        "502fc2284c2ae615b2801cb293b4c6e36b4697bd82baf837d13e46e63c25def3",
    ("paper-ring-4", "baseline", "json"):
        "78de7bc5025d92da3bb69ec04191eb8aedd516acb90053e32199115b28eb4028",
    ("paper-table1", "ccmca", "csv"):
        "3ae910f84ccf1fb2c3328031a01f7f622cfc13b17ada6b1829490b1772b849ea",
    ("paper-table1", "ccmca", "json"):
        "118add28e978656f99495c358c8800aabd8d5afcac8f757aab8c3ed5a4da92ff",
    ("paper-table1", "baseline", "csv"):
        "463a73af74d672ab9b4067e09020c5af3ec656e02148637f453583f83b9c667f",
    ("paper-table1", "baseline", "json"):
        "7a374d82422d434b68434718a57d4e78bc7e89c250bd95c1f58c0a5655aed003",
}

ASSIGN_DIGESTS = {
    "paper-ring-4": "8bb18106f29efd7b412a0b0372e5898fd29c2fdbdb2d6b0a14c2366648a27ac9",
    "paper-table1": "2fa7371306d254cd7866ceec756a6e33beb7bf9a63c7e3a506c2d5edb44da12c",
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
    "grid-3x3": "c8ab7483c610554954dd1cbc6d00a1d1f234d1bceda92a91f454b4f9fbf280ea",
    "star": "b9ac27927d0aa2104df307a2f5c0aef34f74115f2bd7331e9d49bf7e5d5ed76c",
    "binary-tree": "786f9faee35e3a1a072ff8bcba5a7cdd0b6b57ad7cbfb8cdc4142758057e5753",
    "square": "ed4f67edbec0f88d8806760b0a9181e125eef0393bd38f7cc41b4a78a366b439",
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
        "e06b1a0d2a597786816a2a31a46667ef1327b2c54eaf82cd9a4b71a1f81e8925",
    ("paper-table1", "baseline"):
        "8e1884d5a697c6580464e6a7caf608b5fe3c4fb048dbaa053505b0d551a6c359",
    ("chain-saturated", "ccmca"):
        "b357911b0225521dbff8f36257d8dde983ed27b1866fd421d5b12049e93a3caf",
    ("chain-saturated", "baseline"):
        "8712168065affba105fbcf79078b8ffa77b42e89af90f3fc5c02ebf48a9c7173",
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
                  "d0": 250.0, "alpha": 4.0, "interference_multiplier": 1.5, "max_iters": 2},
    "sim": {"horizon_s": 5, "channel_capacity_bps": 9e6},
}
GRID_PARAMS_DIGESTS = {
    ("run", "ccmca"): "c9ea2649e2055c430f0eef4762b822e4f18391ac5fac0dadede4aa3814077af7",
    ("run", "baseline"): "1754ddf5db02867a9760616d5c1392b88de750c69f57a3da9d8354e99d23f841",
    ("assign", "ccmca"): "9be11c4775229360fd10c0c6b2e51038f9c4af8fa7e66d40fe3fcfbbd7f10cb2",
    ("assign", "baseline"): "e1563b3cd9b6c35546ea99639d72d93e2243722f6edb3ba2b6223ae65b958863",
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
