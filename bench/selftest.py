"""Fast self-test of the benchmark, at tiny workload sizes.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that a
seed always generates the same workload, simulated metrics and report
digests, that span self-times add up to no more than the op time, and that a
directory without the library makes the benchmark fail without printing a
result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402


def _bench(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_metric_emitted_with_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench(name, trace, ROOT)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, proc.stdout
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == {m["name"]: m["unit"] for m in spec[section]}
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values())


def test_same_seed_same_workload():
    from meshplan import scenario_from_dict

    for name in workloads.WORKLOADS:
        for tiny in (False, True):
            first, again = (workloads.generate(name, 7, tiny) for _ in range(2))
            assert first == again
            docs = [first.get("cases") or [first["scenario"]],
                    again.get("cases") or [again["scenario"]]]
            assert ([scenario_from_dict(d) for d in docs[0]]
                    == [scenario_from_dict(d) for d in docs[1]])
        assert workloads.generate(name, 7) != workloads.generate(name, 8)


def test_simulated_metrics_and_digests_repeat():
    simulated = ("ccmca.avg_delay_s", "ccmca.pdr", "ccmca.throughput_bps",
                 "ccmca_vs_baseline.delay_ratio")
    for name in workloads.WORKLOADS:
        runs = []
        for _ in range(2):
            lines = _bench(name, 0, ROOT).stdout.splitlines()
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append(([result["metrics"][m]["value"] for m in simulated],
                         detail["digests"]))
        assert runs[0] == runs[1]


def test_span_self_times_within_op_time():
    import worker
    from meshplan import pipeline, scenario_from_dict
    from spans import Tracer

    original = pipeline.run_pipeline
    for name, w in workloads.WORKLOADS.items():
        inputs = workloads.generate(name, 3, tiny=True)
        if w.kind == "sweep":
            bench = worker.SweepBench(scenario_from_dict(inputs["scenario"]),
                                      inputs["channels"], inputs["seeds"])
        else:
            bench = worker.RunBench([scenario_from_dict(d) for d in inputs["cases"]])
        run = worker.Run(bench, Tracer())
        run.execute(0.0)
        assert run.failed == 0, run.problems
        assert pipeline.run_pipeline is original  # wrappers removed after each op
        tracer = run.tracer
        traced_ops = [op for x in run.timed(True) for op in x["op_ids"]]
        assert traced_ops
        for op in traced_ops:
            (root,) = [s for s in tracer.spans if s.op == op and s.name == "op"]
            duration = root.end - root.start
            self_times = tracer.self_times(op)
            layers = sum(v for k, v in self_times.items() if k != "op")
            assert 0.0 < layers <= duration
            assert abs(sum(self_times.values()) - duration) <= 1e-9
            assert all(s.self_s >= -1e-9 for s in tracer.spans if s.op == op)


def test_missing_library_fails_without_result():
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("table1-100s", 0, bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    tests = [f for n, f in sorted(globals().items()) if n.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
