"""Byte identity of the reports: sha256 digests of CSV and JSON reports,
pinned when they were last known good.

A change that alters any report must update the digest here and say why.
"""

import hashlib

import pytest

from meshplan import render_report, run_pipeline, scenario_from_dict, sweep_channels
from meshplan.cli import main
from meshplan.report import CSV_COLUMNS

HEADER = ("scenario,protocol,channels,horizon_s,seed,generated,delivered,"
          "dropped,avg_delay_s,pdr,throughput_pkts")

RUN_DIGESTS = {
    ("paper-ring-4", "ccmca", "csv"):
        "ab12950cbda1b558379b6850f4630872eaa59facdb4753443b2ade3ea58b0179",
    ("paper-ring-4", "ccmca", "json"):
        "e606308d341ed9bb16d06c20e047f535ddd4098dc32cc981394daafe434ee7f6",
    ("paper-ring-4", "baseline", "csv"):
        "502fc2284c2ae615b2801cb293b4c6e36b4697bd82baf837d13e46e63c25def3",
    ("paper-ring-4", "baseline", "json"):
        "32ede0adfe6321651d82c1a098148402ee4e3fc21a3eeade4f9332ef3ffbefe0",
    ("paper-table1", "ccmca", "csv"):
        "95e94989d9314dd8d967b71cfec2055f8a9414f0161e64bd7d8bc7d487eefd4d",
    ("paper-table1", "ccmca", "json"):
        "8f49664992d288579fe839570d1463dd6f5bc84823121b76de79f184e0bf0a0d",
    ("paper-table1", "baseline", "csv"):
        "463a73af74d672ab9b4067e09020c5af3ec656e02148637f453583f83b9c667f",
    ("paper-table1", "baseline", "json"):
        "31aef6a2821895f151221fef5a951be8b1f9ac0137d87ebbc6afa39d1212d61a",
}

ASSIGN_DIGESTS = {
    "paper-ring-4": "8bb18106f29efd7b412a0b0372e5898fd29c2fdbdb2d6b0a14c2366648a27ac9",
    "paper-table1": "4e5c7fe925f9181bc6ef92ab4ab70f2b3a6e3387422424af151a3db79435fa91",
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


@pytest.mark.parametrize("preset", sorted(ASSIGN_DIGESTS))
def test_assign_report_digest(preset, capsys):
    assert main(["assign", "--scenario", preset]) == 0
    assert sha256(capsys.readouterr().out) == ASSIGN_DIGESTS[preset]


def test_sweep_report_digest():
    rows = sweep_channels(scenario_from_dict({"preset": "paper-ring-4"}), [1, 2, 3],
                          seeds=[1, 2])
    for fmt, digest in SWEEP_DIGESTS.items():
        assert sha256(render_report(rows, fmt)) == digest, fmt


def test_csv_header_is_literal():
    assert ",".join(CSV_COLUMNS) == HEADER
    assert render_report([], "csv") == HEADER + "\n"
