"""meshplan benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``. Each
workload runs in a fresh child process (bench/worker.py), one at a time, so at
most two processes run at once. ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json, ``--trace 1`` its per-layer metrics. Every output is
checked; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 9          # setup_s is the median over this many fresh processes
RUN_LIMIT_S = 175.0     # one workload, set-up included, must finish within this
# A fixed hash seed keeps dict and set layouts, and so timings, alike across
# processes; meshplan's output does not depend on it.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time limit reached before {' '.join(args)}")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise BenchError(f"worker {' '.join(args)} printed no result:\n{proc.stderr}") from e


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool,
                 spec: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setup = []
    if not trace:
        setup = [_child(common + ["--setup-only"], deadline) for _ in range(SETUP_RUNS)]
    out = _child(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    values = dict(out["metrics"])
    raw = dict(out["raw_host_times"])
    if setup:
        values["setup_s"] = median(s["setup_s"] for s in setup)
        raw["setup_s"] = median(s["raw_setup_s"] for s in setup)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    attempted, failed = out["attempted"], out["failed"]
    detail = {"workload": name, "seed": seed, "trace": trace, "tiny": tiny,
              "why": workloads.WORKLOADS[name].why,
              "params": workloads.params(name, tiny), "inputs": out["inputs"],
              "op.n": out["op_n"], "ops_failed_ratio": failed / attempted,
              "raw_host_times": raw, "digests": out["digests"],
              "missing_metrics": missing, "problems": out["problems"]}
    result = {"correct": out["correct"] and not missing, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return {"detail": detail, "result": result}


def summary(detail: dict, result: dict) -> str:
    lines = [f"{detail['workload']} seed={detail['seed']} trace={detail['trace']}: "
             f"op.n {detail['op.n']} count, {result['attempted']} attempted, "
             f"{result['failed']} failed, ops_failed_ratio {detail['ops_failed_ratio']:g}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    for name in detail["missing_metrics"]:
        lines.append(f"  {name:32s} {'MISSING':>16s}")
    lines.extend(f"  problem: {p.strip()}" for p in detail["problems"])
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="one of %s, or 'all'" % ", ".join(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every workload (self-test)")
    args = ap.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "meshplan" / "__init__.py").is_file():
        print(f"no meshplan sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2

    for name in names:
        try:
            out = run_workload(name, args.seed, args.seconds, args.trace, args.tiny, spec)
        except BenchError as e:
            print(f"{name}: {e}", file=sys.stderr)
            return 1
        print(summary(out["detail"], out["result"]))
        print(json.dumps(out["detail"]))
        print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
