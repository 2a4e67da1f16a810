"""Training-path benchmark of the sharedworkspace package.

Runs the real ``batch_loss -> backward -> Adam.step`` path, evaluation and
checkpointing of one host per workload (see workloads.py), checks that the
outputs are correct (gate.py), and prints every metric by name with its
unit.  The last line of stdout is the result as one JSON object.

    python3 perfbench/run.py --workload tri_pairwise --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

A workload runs in PROCESSES child processes (worker.py), one after the
other, each measuring for an equal share of ``--seconds``, with BLAS and
OpenMP pinned to one thread.  On this kind of shared machine the speed of a
process stays within a few per cent over its life but differs by up to a
quarter between processes, so the durations are pooled over processes.
``setup_s`` runs from starting a process to the end of its set-up (imports,
data, model, optimizer, warm-up step); its median over the processes is
reported.  ``--trace 1`` reports per-layer metrics (tracer.py), each the
median over the processes, instead of the end-to-end ones.

Run from the repository root.  Exits non-zero without a result when the
package sources are missing, and with ``"correct": false`` when a
correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROCESSES = 6
# A run must end within 180 s; a process normally takes a few seconds.
CHILD_TIMEOUT_S = 30


def environment() -> dict:
    """What the numbers depend on: cores, numpy and BLAS build, commit."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "commit": commit}


def run_process(name: str, seed: int, seconds: float, trace: int):
    """Result of one worker process, with its set-up time measured from
    the moment it was started; None if it printed no result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", str(WORK_DIR)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    started = time.time()
    try:
        out = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: a worker gave no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    try:
        result = json.loads(out.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        print(f"{name}: a worker exited with {out.returncode} and no result", file=sys.stderr)
        return None
    if "setup_end" in result:
        result["setup_s"] = result["setup_end"] - started
    return result


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple:
    """(result in the output format or None, note lines) of one workload."""
    import gate
    from worker import end_to_end
    from workloads import E2E_UNITS, LAYER_UNITS, WORKLOADS

    wl = WORKLOADS[name]
    try:
        gate.check_host(wl.model_config().host)
        gate.check_first_loss(wl)
    except gate.GateFailure as exc:
        print(f"{name}: correctness gate failed: {exc}", file=sys.stderr)
        # The output format needs attempted >= 1: count the gate itself.
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}, []

    results = []
    for _ in range(PROCESSES):
        result = run_process(name, seed, seconds / PROCESSES, trace)
        if result is None:
            return None, []
        results.append(result)
    correct = all(r["correct"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    notes = [f"failed_ratio = {failed / attempted} fraction ({failed} of {attempted} "
             f"operations: train steps and eval batches)"]
    metrics, units = {}, LAYER_UNITS if trace else E2E_UNITS
    if correct and trace:
        metrics = {key: statistics.median(r["layers"][key] for r in results) for key in units}
        notes.append(f"per-layer values are medians over {len(results)} processes, "
                     "each tracing every second train step")
    elif correct:
        metrics, more = end_to_end(results, wl)
        notes.extend(more)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics}}, notes


def main(argv=None) -> int:
    if not (SRC / "sharedworkspace" / "__init__.py").is_file():
        print(f"package sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Before numpy loads here, and inherited by every worker.
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("# environment " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, notes = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        for key, entry in result["metrics"].items():
            print(f"{name}  {key} = {entry['value']!r} {entry['unit']}")
        for note in notes:
            print(f"{name}  {note}")
        results[name] = result

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": entry for name, r in results.items()
                        for key, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
