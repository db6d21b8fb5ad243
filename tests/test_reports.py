"""Byte identity of the reports: sha256 digests of CSV and JSON reports,
pinned when they were last known good.

A change that alters any report must update the digest here and say why.
"""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshplan import render_report, run_pipeline, scenario_from_dict, sweep_channels
from meshplan.cli import main
from meshplan.report import CSV_COLUMNS, _dump

from test_pipeline import SQUARE

HEADER = ("scenario,protocol,channels,horizon_s,seed,generated,delivered,"
          "dropped,avg_delay_s,pdr,throughput_pkts")

RUN_DIGESTS = {
    ("paper-ring-4", "ccmca", "csv"):
        "ab12950cbda1b558379b6850f4630872eaa59facdb4753443b2ade3ea58b0179",
    ("paper-ring-4", "ccmca", "json"):
        "a3ddaa166f38ff512d93f7bc4485b6648ece6ffcbaaa06265810036df60030b4",
    ("paper-ring-4", "baseline", "csv"):
        "502fc2284c2ae615b2801cb293b4c6e36b4697bd82baf837d13e46e63c25def3",
    ("paper-ring-4", "baseline", "json"):
        "441d878311d3f42b432be61f6ec32069752cecd60bfb48416a63c84b3c41ee8d",
    ("paper-table1", "ccmca", "csv"):
        "3ae910f84ccf1fb2c3328031a01f7f622cfc13b17ada6b1829490b1772b849ea",
    ("paper-table1", "ccmca", "json"):
        "3caa98653dcfc7dd9835918ded0bf494405ddcdeb3f357e6ab4b05df787165d0",
    ("paper-table1", "baseline", "csv"):
        "463a73af74d672ab9b4067e09020c5af3ec656e02148637f453583f83b9c667f",
    ("paper-table1", "baseline", "json"):
        "f76c0a0c5424c11e174cd5f6d702f700862720d63a588c6e87b1f2e8bf04afab",
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
        "965fb2ee1d6debaf64023230f7f164b1c7be8ba862fb49e39ea583e30719c759",
    ("paper-table1", "baseline"):
        "23b12b5feaf55da4e7a7a5c23fb7bf9670633962e25a83e14454c104eb68bdf7",
    ("chain-saturated", "ccmca"):
        "ffbc95510c138ff9476d3807c7975438de9d379ad2a2c6cb95bd424a97db8d8c",
    ("chain-saturated", "baseline"):
        "a769f6c79469cbb330e45d2de6566f8ace53a670e3d05987710ea30cd36e8055",
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
    ("run", "ccmca"): "b7877002fe30e7c866a981cb1d72b99f3ffccb7ea017a8cf8fb00568965c3967",
    ("run", "baseline"): "5958eea32138197c573c37afdfc17372ab4b23ebbace886a4c55a67374444afc",
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


INTS = st.integers() | st.integers(min_value=2**63, max_value=2**200).map(lambda i: i * (-1) ** i)
FLOATS = st.floats() | st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf])
TEXT = st.text() | st.sampled_from(["\u00e9\u4e2d\U0001f600", '"quoted"', "back\\slash",
                                    "\x00\x1f\n\t\x7f"])
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
# lists of one kind take the writer's one-join path, mixed ones its per-item path
LISTS = (st.lists(INTS) | st.lists(st.floats(allow_nan=False, allow_infinity=False))
         | st.lists(FLOATS) | st.lists(TEXT) | st.lists(INTS | st.booleans() | FLOATS))
JSON_VALUES = st.recursive(SCALARS | LISTS,
                           lambda inner: st.lists(inner) | st.dictionaries(TEXT, inner),
                           max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert _dump(value, "") == json.dumps(value, indent=2)


def test_empty_json_report():
    assert render_report([], "json") == "[]\n"
