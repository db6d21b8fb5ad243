"""The benchmark's workloads: scenario generators and the operations run on them.

Every input is a pure function of the workload seed, so the same seed gives
the same scenario documents and sweep seed lists. The library only
ever sees the generated scenario and the arguments of the public call.

Three workloads time one operation as ``run_pipeline(scenario, protocol)``
followed by ``render_report(result, "json")``. Their inputs are a list of
cases, each a whole scenario document: the cases of a workload differ in sim
seed and, on the grid, in flow placement. A round runs both protocols on one
case, and rounds cycle through the cases, so each run averages over inputs
whose outcome depends on a random draw. ``ring4-sweep`` times
``sweep_channels(...)`` followed by ``render_report(rows, "csv")``.

This module imports nothing from meshplan at import time, so bench/run.py can
list workloads in a checkout that lacks the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PROTOCOLS = ("ccmca", "baseline")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str        # "run": one pipeline per op; "sweep": one sweep per op
    params: dict     # generator parameters at full size
    tiny: dict       # overrides for the self-test


WORKLOADS = {w.name: w for w in (
    Workload(
        "table1-100s",
        "paper-table1 (50-node ring, 3 flows), 3 channels, 100 s, 4 sim seeds: "
        "simulation is >99% of an op, 100k step() calls for ~5k packets; per-slot cost "
        "and the ccmca delay gap",
        "run",
        {"preset": "paper-table1", "n_channels": 3, "horizon_s": 100.0, "cases": 4},
        {"horizon_s": 2.0, "cases": 2}),
    Workload(
        "chain-saturated",
        "8-node chain, 200 m, one 5.3 Mbps CBR flow of 64 B packets, 10 s, 24 sim "
        "seeds: every slot backlogged, ~103k packets in 10k slots; per-packet cost, "
        "idle-slot skipping saves nothing",
        "run",
        # The baseline's outcome here hinges on one random channel draw
        # (pdr 0.31 to 0.94 over sim seeds 1..12), so a run averages it over
        # many sim seeds.
        {"nodes": 8, "spacing_m": 200.0, "rate_bps": 5.3e6, "packet_bytes": 64,
         "horizon_s": 10.0, "cases": 24},
        {"horizon_s": 0.3, "cases": 2}),
    Workload(
        "grid400-plan",
        "20x20 grid, 200 m pitch, 250 m range (760 links), 8 seeded sets of 20 "
        "4+4-hop flows (voip:vod 2:1), 1 s: planning dominates, the O(L^2) "
        "interference map most",
        "run",
        # Every flow spans 4 rows and 4 columns so each has many shortest
        # paths to route over and flow sets differ in placement, not in path
        # length. vod uses 1500-byte packets because one 64 KiB packet holds
        # a link for ~0.3 s, which makes a 1 s delay depend on which flows
        # happen to share that link. ccmca builds 5 frames for some flow sets
        # and 6 for others, which moves its delay by a fifth, so a run
        # averages over several flow sets.
        {"side": 20, "spacing_m": 200.0, "flows": 20, "vod_every": 3,
         "rows": 4, "cols": 4, "vod_packet_bytes": 1500, "horizon_s": 1.0,
         "cases": 8},
        {"side": 6, "flows": 4, "rows": 2, "cols": 2, "horizon_s": 0.2, "cases": 2}),
    Workload(
        "ring4-sweep",
        "paper-ring-4 over channels 1..5, both protocols, 3 seeded sim seeds, 100 s "
        "each: 30 small pipelines per op; per-run fixed cost and cross-run redundancy",
        "sweep",
        {"preset": "paper-ring-4", "channels": [1, 2, 3, 4, 5], "seeds": 3,
         "horizon_s": 100.0},
        {"channels": [1, 2], "seeds": 2, "horizon_s": 2.0}),
)}


def params(name: str, tiny: bool = False) -> dict:
    w = WORKLOADS[name]
    return {**w.params, **w.tiny} if tiny else dict(w.params)


def _sim_seeds(rng: random.Random, n: int) -> list[int]:
    return rng.sample(range(1, 2 ** 31), n)


def generate(name: str, seed: int, tiny: bool = False) -> dict:
    """The workload's inputs for one seed: the scenario documents of its
    cases, or, for the sweep, one scenario document, the channel counts and
    the sweep's seed list."""
    p = params(name, tiny)
    rng = random.Random(seed)
    if name == "ring4-sweep":
        doc = {"preset": p["preset"], "sim": {"horizon_s": p["horizon_s"]}}
        return {"scenario": doc, "channels": list(p["channels"]),
                "seeds": _sim_seeds(rng, p["seeds"])}
    cases = []
    for sim_seed in _sim_seeds(rng, p["cases"]):
        sim = {"horizon_s": p["horizon_s"], "seed": sim_seed}
        if name == "table1-100s":
            doc = {"preset": p["preset"], "algorithm": {"n_channels": p["n_channels"]},
                   "sim": sim}
        elif name == "chain-saturated":
            doc = {"name": name,
                   "topology": {"kind": "chain", "n": p["nodes"], "spacing": p["spacing_m"]},
                   "traffic": {"flows": [{"src": 0, "dst": p["nodes"] - 1,
                                          "rate_bps": p["rate_bps"],
                                          "packet_bytes": p["packet_bytes"]}]},
                   "sim": sim}
        elif name == "grid400-plan":
            doc = {"name": name,
                   "topology": {"kind": "grid", "n": p["side"] ** 2,
                                "spacing": p["spacing_m"]},
                   "traffic": {"flows": _grid_flows(rng, p)},
                   "sim": sim}
        else:
            raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
        cases.append(doc)
    return {"cases": cases}


def _grid_flows(rng: random.Random, p: dict) -> list[dict]:
    """Distinct (src, dst) pairs `rows` rows and `cols` columns apart, in a
    random one of the four diagonal directions that fits in the grid."""
    side, dr, dc = p["side"], p["rows"], p["cols"]
    flows: list[dict] = []
    pairs: set[tuple[int, int]] = set()
    while len(flows) < p["flows"]:
        r, c = rng.randrange(side), rng.randrange(side)
        ends = [(r + sr * dr, c + sc * dc) for sr in (1, -1) for sc in (1, -1)
                if 0 <= r + sr * dr < side and 0 <= c + sc * dc < side]
        tr, tc = rng.choice(ends)
        pair = (r * side + c, tr * side + tc)
        if pair in pairs:
            continue
        pairs.add(pair)
        flow = {"src": pair[0], "dst": pair[1]}
        if len(flows) % p["vod_every"] == p["vod_every"] - 1:
            flow.update(kind="vod", packet_bytes=p["vod_packet_bytes"])
        else:
            flow["kind"] = "voip"
        flows.append(flow)
    return flows
