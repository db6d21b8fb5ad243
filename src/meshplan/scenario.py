"""Scenario documents: JSON files with topology/traffic/algorithm/sim
sections, strict key and type validation, defaults, and the named presets.

Every section is built by handing its keys to the dataclass that declares
its fields (see ``schema``), so a failure names the section and the field.
A document may be just {"preset": "<name>"}; any sections given alongside
the preset override the preset's values key by key.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path as FsPath

from .errors import ScenarioParseError, ScenarioValidationError
from .loads import DEFAULT_PATH_CAP, DEFAULT_SLACK
from .routing import DEFAULT_MAX_ITERS, DEFAULT_THRESHOLD_FRACTION
from .schema import check, invalid, param
from .sim import SimConfig
from .topology import (DEFAULT_GAIN_EXP, DEFAULT_GAIN_REF, DEFAULT_TX_RANGE,
                       TOPOLOGY_KINDS, MeshNode, Topology, build_topology,
                       topology_from_nodes)
from .traffic import Flow, TrafficProfile, vod_flow, voip_flow


@dataclass(frozen=True)
class TopologySpec:
    """Either a generator (kind/n/spacing) or explicit node placements."""
    kind: str | None = param(None, choices=TOPOLOGY_KINDS)
    n: int | None = param(None, ge=2)
    spacing: float | None = param(None, gt=0)
    tx_range: float = param(DEFAULT_TX_RANGE, gt=0)
    nodes: tuple[MeshNode, ...] = ()

    def __post_init__(self):
        check(self)
        generator = {"kind": self.kind, "n": self.n, "spacing": self.spacing}
        if self.nodes:
            given = [k for k, v in generator.items() if v is not None]
            if given:
                raise invalid(given[0], "not allowed with explicit nodes")
        else:
            missing = [k for k, v in generator.items() if v is None]
            if missing:
                raise invalid(missing[0], "required unless nodes are given")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes) if self.nodes else self.n


@dataclass(frozen=True)
class AlgorithmParams:
    n_channels: int = param(3, ge=1)
    threshold_fraction: float = param(DEFAULT_THRESHOLD_FRACTION, gt=0, le=1)
    slack: int = param(DEFAULT_SLACK, ge=0)
    cap: int = param(DEFAULT_PATH_CAP, ge=1)
    d0: float = param(DEFAULT_GAIN_REF, gt=0)
    alpha: float = param(DEFAULT_GAIN_EXP, ge=2)
    interference_multiplier: float = param(2.0, ge=1)
    max_iters: int = param(DEFAULT_MAX_ITERS, ge=1)

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

    def build_topology(self) -> Topology:
        spec, alg = self.topology, self.algorithm
        interference = alg.interference_multiplier * spec.tx_range
        if spec.nodes:
            return topology_from_nodes(spec.nodes, tx_range=spec.tx_range,
                                       interference_range=interference,
                                       d0=alg.d0, alpha=alg.alpha)
        return build_topology(spec.kind, spec.n, spec.spacing,
                              tx_range=spec.tx_range, interference_range=interference,
                              d0=alg.d0, alpha=alg.alpha)



def _preset_ring4() -> dict:
    return {
        "name": "paper-ring-4",
        "topology": {"kind": "ring", "n": 4, "spacing": 250.0, "tx_range": 250.0},
        "traffic": {"flows": [
            {"src": 0, "dst": 2, "kind": "voip"},
            {"src": 1, "dst": 3, "kind": "voip"},
            {"src": 2, "dst": 0, "kind": "vod"},
        ]},
        "algorithm": {},
        "sim": {"horizon_s": 100.0},
    }


def _preset_table1() -> dict:
    return {
        "name": "paper-table1",
        "topology": {"kind": "ring", "n": 50, "spacing": 250.0, "tx_range": 250.0},
        "traffic": {"flows": [
            {"src": 0, "dst": 25, "kind": "voip"},
            {"src": 12, "dst": 37, "kind": "voip"},
            {"src": 25, "dst": 0, "kind": "vod"},
        ]},
        "algorithm": {},
        "sim": {"horizon_s": 100.0},
    }


PRESETS = {"paper-ring-4": _preset_ring4, "paper-table1": _preset_table1}

# Nominal rate/size per flow kind, applied when a flow omits them.
_KIND_DEFAULTS = {f.kind: {"rate_bps": f.rate_bps, "packet_bytes": f.packet_bytes}
                  for f in (voip_flow(0, 1), vod_flow(0, 1))}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioValidationError(message)


def _object(where: str, value) -> dict:
    _require(isinstance(value, dict), f"{where}: must be an object, got {value!r}")
    return value


def _list(where: str, value) -> list:
    _require(isinstance(value, list), f"{where}: must be a list, got {value!r}")
    return value


def _known(where: str, doc, allowed) -> dict:
    unknown = set(_object(where, doc)) - set(allowed)
    _require(not unknown, f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")
    return doc


def _build(cls, where: str, doc, **defaults):
    """cls(**doc) over the keys cls declares, with every failure re-raised
    as a ScenarioValidationError naming the section and field."""
    doc = {**defaults, **_known(where, doc, [f.name for f in fields(cls)])}
    for f in fields(cls):
        _require(f.name in doc or f.default is not MISSING or f.default_factory is not MISSING,
                 f"{where}.{f.name}: required")
    try:
        return cls(**doc)
    except ValueError as e:
        raise ScenarioValidationError(f"{where}.{e}") from e


def _parse_topology(doc) -> TopologySpec:
    if "nodes" in _object("topology", doc):
        nodes = tuple(_build(MeshNode, f"topology.nodes[{i}]", nd)
                      for i, nd in enumerate(_list("topology.nodes", doc["nodes"])))
        doc = {**doc, "nodes": nodes}
    return _build(TopologySpec, "topology", doc)


def _parse_traffic(doc, n_nodes: int) -> TrafficProfile:
    flows = []
    for i, fd in enumerate(_list("traffic.flows", _object("traffic", doc).get("flows"))):
        where = f"traffic.flows[{i}]"
        kind = _object(where, fd).get("kind")
        flow = _build(Flow, where, fd, **(_KIND_DEFAULTS.get(kind, {})
                                          if isinstance(kind, str) else {}))
        for end in ("src", "dst"):
            node = getattr(flow, end)
            _require(0 <= node < n_nodes,
                     f"{where}.{end}: node {node} not in topology (0..{n_nodes - 1})")
        flows.append(flow)
    _require(bool(flows), "traffic.flows: must not be empty")
    return _build(TrafficProfile, "traffic", {**doc, "flows": tuple(flows)})


def scenario_from_dict(doc: dict) -> Scenario:
    _known("scenario", doc, ["preset"] + [f.name for f in fields(Scenario)])
    if "preset" in doc:
        name = doc["preset"]
        _require(isinstance(name, str) and name in PRESETS,
                 f"unknown preset {name!r}; available: {sorted(PRESETS)}")
        base = PRESETS[name]()
        for section in ("topology", "traffic", "algorithm", "sim"):
            if section in doc:
                base[section] = {**base[section], **_object(section, doc[section])}
        if "name" in doc:
            base["name"] = doc["name"]
        doc = base

    for section in ("topology", "traffic"):
        _require(section in doc, f"scenario.{section}: required")
    topo = _parse_topology(doc["topology"])
    return _build(Scenario, "scenario", {
        "name": doc.get("name", "scenario"),
        "topology": topo,
        "traffic": _parse_traffic(doc["traffic"], topo.n_nodes),
        "algorithm": _build(AlgorithmParams, "algorithm", doc.get("algorithm", {})),
        "sim": _build(SimConfig, "sim", doc.get("sim", {}))})


def parse_scenario(path: str | FsPath) -> Scenario:
    """Load and validate a scenario file."""
    p = FsPath(path)
    if not p.exists():
        raise FileNotFoundError(f"scenario file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ScenarioParseError(f"{p}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    return scenario_from_dict(doc)


def load_scenario(ref: str) -> Scenario:
    """Resolve a preset name or fall back to reading a file."""
    if ref in PRESETS:
        return scenario_from_dict({"preset": ref})
    return parse_scenario(ref)
