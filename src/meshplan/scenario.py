"""Scenario documents: JSON files with topology/traffic/algorithm/sim
sections, strict key and type validation, defaults, and the named presets.

A document is decoded by the one ``schema.from_json(Scenario, ...)`` call
that decodes a result bundle's scenario, so each field is checked by the
dataclass that declares it: ``topology.TopologySpec``,
``traffic.TrafficProfile``, ``AlgorithmParams`` (declared here) and
``sim.SimConfig``. A ``Scenario`` also requires a non-empty flow list and
flow nodes that exist. A failure raises ConfigurationError naming the section
and the field. This module's parser adds only the allowed top-level keys,
preset merging, the default name and the per-kind flow defaults of
``traffic.KIND_DEFAULTS``. A document may be just {"preset": "<name>"}; any
sections given alongside the preset override the preset's values key by key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path as FsPath

from .errors import ConfigurationError, ScenarioParseError
from .schema import check, from_json, invalid, known_keys, param
from .sim import SimConfig
from .topology import Topology, TopologySpec
from .traffic import KIND_DEFAULTS, TrafficProfile


@dataclass(frozen=True)
class AlgorithmParams:
    """The ``algorithm`` section: every parameter of the planning stages,
    declared, defaulted and bounded once. The stages read it as given."""
    n_channels: int = param(3, ge=1, le=256)
    # Congestion cost is infinite above this share of a link's capacity.
    threshold_fraction: float = param(0.9, gt=0, le=1)
    # Acceptable paths: at most `slack` hops over the shortest, at most `cap`.
    slack: int = param(1, ge=0)
    cap: int = param(32, ge=1, le=1024)
    # Interference range over transmission range.
    interference_multiplier: float = param(2.0, ge=1)
    # Routing rounds before the fixed point gives up.
    max_iters: int = param(10, ge=1)

    def __post_init__(self):
        check(self)


@dataclass(frozen=True)
class Scenario:
    name: str
    topology: TopologySpec
    traffic: TrafficProfile
    algorithm: AlgorithmParams = field(default_factory=AlgorithmParams)
    sim: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self):
        check(self)
        if not self.traffic.flows:
            raise invalid("traffic.flows", "must not be empty")
        n = self.topology.n_nodes
        for i, flow in enumerate(self.traffic.flows):
            for end in ("src", "dst"):
                node = getattr(flow, end)
                if not 0 <= node < n:
                    raise invalid(f"traffic.flows[{i}].{end}",
                                  f"node {node} not in topology (0..{n - 1})")

    def build_topology(self) -> Topology:
        return self.topology.build(self.algorithm)


# Each preset is a ring of this many nodes, 250 m apart, with the flows of
# ``_preset``.
PRESETS = {"paper-ring-4": 4, "paper-table1": 50}


def _preset(name: str) -> dict:
    """The document of a preset: an n-node ring, two voip flows across it and
    a vod flow back over the first one's nodes."""
    n = PRESETS[name]
    return {
        "name": name,
        "topology": {"kind": "ring", "n": n, "spacing": 250.0, "tx_range": 250.0},
        "traffic": {"flows": [
            {"src": 0, "dst": n // 2, "kind": "voip"},
            {"src": n // 4, "dst": n // 4 + n // 2, "kind": "voip"},
            {"src": n // 2, "dst": 0, "kind": "vod"},
        ]},
        "algorithm": {},
        "sim": {"horizon_s": 100.0},
    }


def _with_kind_defaults(traffic):
    """The traffic section with each flow's kind defaults filled in, where
    the section has the shape to take them; the codec reports any other."""
    if not (isinstance(traffic, dict) and isinstance(traffic.get("flows"), list)):
        return traffic
    flows = [{**KIND_DEFAULTS.get(fd.get("kind"), {}), **fd}
             if isinstance(fd, dict) and isinstance(fd.get("kind"), str) else fd
             for fd in traffic["flows"]]
    return {**traffic, "flows": flows}


def scenario_from_dict(doc: dict) -> Scenario:
    """The scenario of a document, decoded as a bundle's scenario is, after
    the preset merge, the ``name`` default and the per-kind flow defaults.
    Raises ConfigurationError naming the field, as in ``topology.n: ...``."""
    known_keys(doc, ["preset"] + [f.name for f in fields(Scenario)], "scenario")
    if "preset" in doc:
        name = doc["preset"]
        if not (isinstance(name, str) and name in PRESETS):
            raise ConfigurationError(
                f"unknown preset {name!r}; available: {sorted(PRESETS)}")
        base = _preset(name)
        for section in ("topology", "traffic", "algorithm", "sim"):
            given = doc.get(section, {})
            base[section] = {**base[section], **given} if isinstance(given, dict) else given
        base["name"] = doc.get("name", base["name"])
        doc = base
    doc = {"name": "scenario", **doc}
    if "traffic" in doc:
        doc["traffic"] = _with_kind_defaults(doc["traffic"])
    return from_json(Scenario, doc, "")


def parse_scenario(path: str | FsPath) -> Scenario:
    """Load and validate a scenario file."""
    p = FsPath(path)
    if not p.exists():
        raise FileNotFoundError(f"scenario file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ScenarioParseError(f"{p}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:  # not UTF-8, an overlong integer, too deep
        raise ScenarioParseError(f"{p}: {e}") from e
    return scenario_from_dict(doc)


def load_scenario(ref: str) -> Scenario:
    """Resolve a preset name or fall back to reading a file."""
    if ref in PRESETS:
        return scenario_from_dict({"preset": ref})
    return parse_scenario(ref)
