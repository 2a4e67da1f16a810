"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --seeds 1-10 --seconds 20 [--workload W ...]
        [--trace-seeds 1-3] [--out perfbench/baseline.json]

For every workload and metric it prints the median, and the spread: the
distance between the quartiles (as ``statistics.quantiles(values, n=4)``
gives them) as a share of the median, which should stay below a third of
the metric's bound in BENCHMARK.json.  ``--out`` writes the summary with
the environment, each workload's config and reason, and the end-to-end
metric and workloads each per-layer metric should move; baseline.json is
such a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    result = json.loads(out.stdout.splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}, result {result}")
    result["wall_s"] = time.perf_counter() - start
    return result


def summarise(runs: list) -> dict:
    out = {}
    for key, entry in runs[0]["metrics"].items():
        values = [r["metrics"][key]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[key] = {"unit": entry["unit"], "median": median, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}
    return out


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from run import environment
    from workloads import LAYER_METRICS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace-seeds", type=seeds_arg, default=[])
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    workloads = {}
    for name in args.workload or list(WORKLOADS):
        runs = [run_once(name, seed, args.seconds, 0) for seed in args.seeds]
        e2e = summarise(runs)
        for key, s in e2e.items():
            flag = "" if s["spread"] < bounds[key] / 3 else "  <-- spread above bound/3"
            print(f"{name:16s} {key:24s} median {s['median']:12.6g} spread {s['spread']:.4f}"
                  f"{flag}", flush=True)
        wall = [r["wall_s"] for r in runs]
        print(f"{name:16s} wall per run {statistics.median(wall):.1f} s (max {max(wall):.1f})",
              flush=True)
        traced = [run_once(name, seed, args.seconds, 1) for seed in args.trace_seeds]
        wl = WORKLOADS[name]
        workloads[name] = {"why": wl.why, "config": wl.config,
                           "reference_first_step_loss": wl.reference_loss,
                           "end_to_end": e2e, "per_layer": summarise(traced) if traced else {},
                           "wall_s_median": statistics.median(wall)}
    if args.out:
        summary = {
            "environment": environment(), "run_seconds": args.seconds,
            "seeds": args.seeds, "trace_seeds": args.trace_seeds,
            "workloads": workloads,
            "per_layer_targets": {m.name: {"moves": m.moves, "workloads": list(m.workloads)}
                                  for m in LAYER_METRICS if m.moves},
        }
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
