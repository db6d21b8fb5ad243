"""One workload in a fresh process: set up, warm up, measure, check.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--setup-only] [--tiny]

Prints one JSON object on stdout. ``bench/run.py`` starts this process and
turns the object into the benchmark's result; run it directly only to debug.

Set-up is measured from the first statement of this file: importing meshplan
before anything else here, then building the workload's scenarios from their
documents.

Host speed on a shared machine drifts by tens of percent between processes and
over minutes. Every host time reported is therefore scaled towards a
reference host by (CAL_REF_S / c) ** CAL_EXPONENT, where c is the time a fixed
pure-Python loop takes in the same process: the median of timings taken after
each timed op, or one timing right after set-up. The raw times go out beside
them, in the run's detail.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
from meshplan import pipeline, report, scenario_from_dict  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from collections import deque  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_LOADS = 5   # scenario.load_s is the median of this many loads
MAX_PROBLEMS = 20    # problems reported verbatim; the rest are only counted
CAL_ITEMS = 3000
CAL_PASSES = 12
CAL_REF_S = 0.008    # the calibration loop's time on the reference host
# Across some 50 runs on a shared 2-vCPU host, the loop's time swung about
# twice as far as the ops' (log-log slope ~0.5); a full correction overshot.
CAL_EXPONENT = 0.5

# Per-layer self-time metrics, keyed by span name. "op" is the benchmark's
# own span around one operation; its self time is what no layer span covers.
SELF_TIME_METRICS = {
    "op": "trace.unattributed_s",
    "report.render": "report.render_s",
    "pipeline.sweep": "pipeline.sweep_s",
    "pipeline.run": "pipeline.self_s",
    "topology.build": "topology.build_s",
    "topology.interference": "topology.interference_s",
    "routing.fixed_point": "routing.fixed_point_self_s",
    "loads.capacities": "loads.capacities_s",
    "loads.paths": "loads.paths_s",
    "loads.estimate": "loads.estimate_s",
    "routing.cost": "routing.cost_s",
    "routing.select": "routing.select_s",
    "routing.routed_loads": "routing.routed_loads_s",
    "channels.assign": "channels.assign_s",
    "sim.run": "sim.run_s",
    "loads.goodput": "loads.goodput_s",
}
# Counts averaged per pipeline run; every other count is per operation.
PER_PIPELINE = ("topology.links", "topology.interferer_pairs", "loads.paths",
                "routing.iterations", "routing.converged", "channels.frames",
                "channels.frames_used")
PER_OP = ("pipeline.run_calls", "sim.run_calls", "sim.slots", "sim.steps",
          "sim.delivered_hops", "sim.dropped")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _Item:
    __slots__ = ("key", "value", "total")

    def __init__(self, key: int, value: float):
        self.key = key
        self.value = value
        self.total = 0.0


def _calibration_loop() -> None:
    # The kinds of work meshplan's planner and simulator do: objects with
    # slots, dicts keyed by tuples, set comprehensions, a FIFO deque.
    items = [_Item(i, (i * 7919 % 1000) / 1000.0) for i in range(CAL_ITEMS)]
    index = {(it.key, it.key * 7 % 101): it for it in items}
    fifo: deque[_Item] = deque()
    for _ in range(CAL_PASSES):
        active = {it.key for it in items if it.value > 0.5}
        for pair in index:
            it = index[pair]
            if it.key in active:
                it.total += it.value * 0.5
                fifo.append(it)
        while fifo:
            it = fifo.popleft()
            it.value = (it.value * 1.1) % 1.0


def calibration_s() -> float:
    """Best of three timings of the calibration loop: the host's current speed."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def _scale(calibration: float) -> float:
    return (CAL_REF_S / calibration) ** CAL_EXPONENT


def _cpu_s() -> float:
    """CPU time of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class RunBench:
    """One op is ``run_pipeline(scenario, protocol)`` plus its JSON report. A
    round runs both protocols on one case; rounds cycle through the cases."""

    def __init__(self, scenarios: list):
        self.scenarios = scenarios
        self.digests: dict[str, dict] = {}
        self.metrics: dict[tuple[str, int], object] = {}

    def round(self, r: int, fixed_case: bool) -> list[tuple[str, int]]:
        case = 0 if fixed_case else r % len(self.scenarios)
        return [(protocol, case) for protocol in workloads.PROTOCOLS]

    def op(self, key):
        protocol, case = key
        result = pipeline.run_pipeline(self.scenarios[case], protocol)
        return result, report.render_report(result, "json")

    @staticmethod
    def sim_seconds(out) -> float:
        return out[0].config.horizon_s

    def check(self, key, out) -> list[str]:
        result, text = out
        problems = checks.check_result(result, self.scenarios[key[1]], text)
        digest = {"csv": _sha(report.render_report(result, "csv")), "json": _sha(text),
                  "json_bytes": len(text.encode())}
        label = f"{key[0]}@case{key[1]}"
        if self.digests.setdefault(label, digest) != digest:
            problems.append(f"{label}: report differs from an earlier op on the same inputs")
        self.metrics.setdefault(key, result.metrics)
        return problems

    def pending(self) -> list[tuple[str, int]]:
        """Inputs the timed rounds did not reach; they run once, untimed, so
        the simulated metrics cover every case whatever the host speed."""
        return [(p, c) for c in range(len(self.scenarios)) for p in workloads.PROTOCOLS
                if (p, c) not in self.metrics]

    def json_bytes(self, key) -> int:
        return self.digests[f"{key[0]}@case{key[1]}"]["json_bytes"]

    def outcome(self) -> dict[str, float]:
        def mean(protocol, field):
            return fmean(getattr(self.metrics[(protocol, c)], field)
                         for c in range(len(self.scenarios)))
        return {"ccmca.avg_delay_s": mean("ccmca", "avg_delay_s"),
                "ccmca.pdr": mean("ccmca", "pdr"),
                "ccmca.throughput_bps": mean("ccmca", "throughput_bps"),
                "ccmca_vs_baseline.delay_ratio":
                    mean("ccmca", "avg_delay_s") / mean("baseline", "avg_delay_s")}


class SweepBench:
    """One op is ``sweep_channels(scenario, channels, seeds=seeds)`` plus its
    CSV report. Every sweep row of ccmca is also checked against a direct
    ``run_pipeline`` call, which gives the throughput the rows lack."""

    def __init__(self, scenario, channels: list[int], seeds: list[int]):
        self.scenario = scenario
        self.channels = channels
        self.seeds = seeds
        self.digests: dict[str, dict] = {}
        self.rows = None
        self.direct: dict[tuple[str, int, int], object] = {}

    def round(self, r: int, fixed_case: bool) -> list[str]:
        return ["sweep"]

    def op(self, key):
        if key == "sweep":
            rows = pipeline.sweep_channels(self.scenario, self.channels, seeds=self.seeds)
            return rows, report.render_report(rows, "csv")
        protocol, channels, seed = key  # a direct run, to cross-check one row
        result = pipeline.run_pipeline(self.scenario, protocol, n_channels=channels,
                                       seed=seed)
        return result, report.render_report(result, "json")

    @staticmethod
    def sim_seconds(out) -> float:
        return sum(r.horizon_s for r in out[0] if r.seed != "mean")

    def check(self, key, out) -> list[str]:
        if isinstance(key, tuple):
            return self._check_direct(key, out)
        rows, text = out
        problems = checks.check_sweep(rows, text, self.channels, self.seeds)
        json_text = report.render_report(rows, "json")
        digest = {"csv": _sha(text), "json": _sha(json_text),
                  "json_bytes": len(json_text.encode())}
        if self.digests.setdefault(key, digest) != digest:
            problems.append("sweep report differs from an earlier op on the same inputs")
        if self.rows is None:
            self.rows = rows
        return problems

    def pending(self) -> list[tuple[str, int, int]]:
        return [("ccmca", c, s) for c in self.channels for s in self.seeds
                if ("ccmca", c, s) not in self.direct]

    def _check_direct(self, key, out) -> list[str]:
        result, text = out
        self.direct[key] = result.metrics
        problems = checks.check_result(result, self.scenario, text)
        rows = [r for r in self.rows or () if (r.protocol, r.channels, r.seed) == key]
        if len(rows) != 1:
            return problems + [f"no single sweep row for {key}"]
        return problems + checks.check_sweep_row(rows[0], result)

    def json_bytes(self, key) -> int:
        return self.digests[key]["json_bytes"]

    def outcome(self) -> dict[str, float]:
        def mean_rows(protocol, field):
            return fmean(getattr(r, field) for r in self.rows
                         if r.protocol == protocol and r.seed == "mean")
        return {"ccmca.avg_delay_s": mean_rows("ccmca", "avg_delay_s"),
                "ccmca.pdr": mean_rows("ccmca", "pdr"),
                "ccmca.throughput_bps": fmean(m.throughput_bps for m in self.direct.values()),
                "ccmca_vs_baseline.delay_ratio":
                    mean_rows("ccmca", "avg_delay_s") / mean_rows("baseline", "avg_delay_s")}


class Run:
    """The measured loop: a warm-up round, then timed rounds until the
    deadline, then, untraced runs only, the pending inputs. Every op's output
    is checked outside the timed region; a failed check counts the op as
    failed and the run goes on. Traced runs alternate untraced and traced
    rounds on the first case, so counts repeat exactly and the two kinds of
    rounds time the same work."""

    def __init__(self, bench, tracer: Tracer | None):
        self.bench = bench
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds: list[dict] = []
        self.next_op = 0
        self.calibrations: list[float] = []

    def _op(self, key, traced: bool) -> tuple[float, float, object]:
        """Run, time and check one op; returns wall s, CPU s and its output
        (None if it raised)."""
        self.attempted += 1
        op_id = self.next_op
        self.next_op += 1
        if traced:  # wrappers stay off while the output is checked
            self.tracer.install()
            self.tracer.op = op_id
            self.tracer.begin("op")
        c0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            out = self.bench.op(key)
        except Exception:  # an op that raises is a failed op; the run goes on
            self._fail([traceback.format_exc(limit=3)])
            out = None
        finally:
            t1 = time.perf_counter()
            c1 = _cpu_s()
            if traced:
                self.tracer.end()
                self.tracer.uninstall()
        if out is not None:
            self._fail(self.bench.check(key, out))
        return t1 - t0, c1 - c0, out

    def _fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])

    def _round(self, r: int, traced: bool) -> None:
        keys = self.bench.round(r, fixed_case=self.tracer is not None)
        first = self.next_op
        times = []
        for key in keys:
            times.append(self._op(key, traced))
            self.calibrations.append(calibration_s())
        self.rounds.append({"traced": traced, "ops": len(keys),
                            "op_ids": list(range(first, self.next_op)), "keys": keys,
                            "wall_s": sum(t[0] for t in times),
                            "cpu_s": sum(t[1] for t in times),
                            "sim_s": sum(self.bench.sim_seconds(out)
                                         for _, _, out in times if out is not None)})

    def execute(self, seconds: float) -> None:
        for key in self.bench.round(0, fixed_case=self.tracer is not None):
            self._op(key, False)
        self.calibrations.append(calibration_s())
        deadline = time.perf_counter() + seconds
        r = 1
        while time.perf_counter() < deadline or (
                self.tracer is not None
                and {x["traced"] for x in self.rounds} != {False, True}):
            self._round(r, traced=self.tracer is not None and r % 2 == 0)
            r += 1
        if self.tracer is None:
            for key in self.bench.pending():
                self._op(key, False)

    def timed(self, traced: bool) -> list[dict]:
        return [x for x in self.rounds if x["traced"] == traced]

    def scale(self) -> float:
        """Factor from this run's host seconds to reference-host seconds."""
        return _scale(median(self.calibrations))


def _per_op(x: dict, field: str = "wall_s") -> float:
    return x[field] / x["ops"]


def end_to_end(run: Run) -> dict[str, float]:
    rounds = run.timed(False)
    scale = run.scale()
    out = {"op_s.p50": median(_per_op(x) for x in rounds) * scale,
           "op_cpu_s.p50": median(_per_op(x, "cpu_s") for x in rounds) * scale,
           "sim_s_per_host_s": (sum(x["sim_s"] for x in rounds)
                                / sum(x["wall_s"] for x in rounds) / scale),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    out.update(run.bench.outcome())
    return out


def raw_times(run: Run) -> dict[str, float]:
    """Unscaled host times, for the run's detail. A traced run adds its
    traced op time and the sum of its layers' self times per op, which
    should match the untraced op time within the tracing overhead."""
    rounds = run.timed(False)
    out = {"op_s.p50": median(_per_op(x) for x in rounds),
           "op_cpu_s.p50": median(_per_op(x, "cpu_s") for x in rounds),
           "calibration_s.p50": median(run.calibrations)}
    if run.tracer is not None:
        traced = run.timed(True)
        out["traced_op_s.p50"] = median(_per_op(x) for x in traced)
        out["layer_self_s.p50"] = median(
            sum(v for op in x["op_ids"] for k, v in run.tracer.self_times(op).items()
                if k != "op") / x["ops"] for x in traced)
    return out


def per_layer(run: Run, scenario_doc: dict) -> dict[str, float]:
    tracer = run.tracer
    traced = run.timed(True)
    ops = [op for x in traced for op in x["op_ids"]]
    scale = run.scale()
    self_times = {op: tracer.self_times(op) for op in ops}
    out = {}
    for name, metric in SELF_TIME_METRICS.items():
        out[metric] = median(sum(self_times[op].get(name, 0.0) for op in x["op_ids"])
                             / x["ops"] for x in traced) * scale
    out["trace.overhead_s"] = (median(_per_op(x) for x in traced)
                               - median(_per_op(x) for x in run.timed(False))) * scale
    counts = tracer.counts
    for name in PER_OP:
        out[name] = counts[name] / len(ops)
    for name in PER_PIPELINE:
        out[name] = counts[name] / counts["pipeline.run_calls"]
    sim_run = sum(tracer.total_time(op, "sim.run") for op in ops) * scale
    out["sim.steps_per_slot"] = counts["sim.steps"] / counts["sim.slots"]
    out["sim.step_us"] = sim_run / counts["sim.steps"] * 1e6
    out["sim.us_per_delivered_hop"] = (sim_run / counts["sim.delivered_hops"] * 1e6
                                       if counts["sim.delivered_hops"] else 0.0)
    out["report.json_bytes"] = fmean(run.bench.json_bytes(k) for k in traced[0]["keys"])
    loads = []
    for _ in range(SCENARIO_LOADS):
        t0 = time.perf_counter()
        scenario_from_dict(scenario_doc)
        loads.append(time.perf_counter() - t0)
    out["scenario.load_s"] = median(loads) * scale
    return out


def write_spans(tracer: Tracer, workload: str, seed: int) -> None:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps([s.to_dict() for s in tracer.spans]) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="shrink the workload (self-test)")
    args = ap.parse_args(argv)

    inputs = workloads.generate(args.workload, args.seed, args.tiny)
    docs = inputs.get("cases") or [inputs["scenario"]]
    t0 = time.perf_counter()
    scenarios = [scenario_from_dict(doc) for doc in docs]
    setup_s = _IMPORT_S + time.perf_counter() - t0
    if args.setup_only:
        cal = calibration_s()
        print(json.dumps({"setup_s": setup_s * _scale(cal), "raw_setup_s": setup_s,
                          "calibration_s": cal}))
        return 0

    if workloads.WORKLOADS[args.workload].kind == "sweep":
        bench = SweepBench(scenarios[0], inputs["channels"], inputs["seeds"])
    else:
        bench = RunBench(scenarios)
    tracer = Tracer() if args.trace else None
    run = Run(bench, tracer)
    run.execute(args.seconds)

    correct = run.failed == 0
    try:
        metrics = per_layer(run, docs[0]) if tracer else end_to_end(run)
        raw = raw_times(run)
    except (KeyError, ZeroDivisionError, TypeError, ValueError):
        # outputs missing because ops failed; the failures are already counted
        metrics, raw, correct = {}, {}, False
        run.problems.append(traceback.format_exc(limit=2))
    if tracer:
        write_spans(tracer, args.workload, args.seed)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics, "raw_host_times": raw,
                      "op_n": sum(x["ops"] for x in run.rounds),
                      "problems": run.problems, "digests": bench.digests,
                      "inputs": inputs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
