"""One measuring process of the training-path benchmark.

``run.py`` starts this script several times per workload, with BLAS/OpenMP
pinned to one thread and the package on PYTHONPATH.  It makes the same
public calls, in the same order, as ``train.run_training``, with the
workload seed choosing only the data:

- set-up, once: ``train.dataset_pair`` (generate, save and memory-map),
  ``models.build_model``, ``optim.Adam`` and one warm-up step;
- closed-loop training steps: batch assembly from the memory map,
  ``train.batch_loss``, ``Adam.zero_grad``, ``Tensor.backward``,
  ``Adam.step``;
- ``train.evaluate`` over the test split;
- ``serialization.save_checkpoint``/``load_checkpoint`` round trips of the
  model and Adam state.

After the set-up the generated data is checked against its oracle; then the
last three operations are measured, interleaved, for ``--seconds``.  The
last line of stdout is one JSON object with the raw durations, which
run.py pools over processes, and with ``--trace 1`` this process's
per-layer metrics (tracer.py).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from sharedworkspace import models, optim, serialization, train

import gate
from tracer import Tracer
from workloads import WORKLOADS, Workload

# Shares of --seconds spent training and evaluating; checkpoints get the rest.
TRAIN_SHARE, EVAL_SHARE = 0.65, 0.25
TAIL_BEYOND = 10


class Session:
    """A workload's data, model and optimizer, stepped as run_training does."""

    def __init__(self, wl: Workload, seed: int, data_root: Path):
        self.cfg = cfg = wl.model_config()
        self.seed = seed
        self.train_d, self.test_d = train.dataset_pair(wl.data_config(seed), data_root)
        self.model = models.build_model(cfg)
        self.params = self.model.parameters()
        self.opt = optim.Adam(self.params, lr=cfg.lr)
        self.n_train = train.n_examples(cfg, self.train_d)
        self.n_test = train.n_examples(cfg, self.test_d)
        self.steps_done = 0
        self.epoch = -1
        self._start_epoch()

    def _start_epoch(self):
        cfg = self.cfg
        self.epoch += 1
        self.lo = 0
        self.order = np.random.default_rng([self.seed, self.epoch]).permutation(self.n_train)
        self.drop_rng = (np.random.default_rng([self.seed, self.epoch, 1])
                         if cfg.dropout > 0 else None)
        self.lr = optim.cosine_lr(cfg.lr, self.epoch, cfg.epochs) if cfg.cosine else cfg.lr

    def step(self) -> float:
        """One training step; a non-finite loss skips the update, as
        run_training stops before it."""
        cfg = self.cfg
        if self.lo >= self.n_train:
            self._start_epoch()
        idx = self.order[self.lo:self.lo + cfg.batch_size]
        self.lo += cfg.batch_size
        self.steps_done += 1
        batch = train._batch_arrays(cfg, self.train_d, idx)
        loss, _ = train.batch_loss(self.model, cfg, batch, rng=self.drop_rng)
        value = float(loss.data)
        if math.isfinite(value):
            self.opt.zero_grad()
            loss.backward()
            self.opt.step(self.lr)
        return value

    def evaluate(self) -> float:
        return train.evaluate(self.model, self.cfg, self.test_d)["loss"]

    def eval_batches(self) -> int:
        return -(-self.n_test // self.cfg.batch_size)


class Operations:
    """Attempted and failed operations (train steps and eval batches).
    An operation fails if it raises or gives a non-finite loss."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.losses = []

    def run(self, fn, weight: int = 1) -> float:
        self.attempted += weight
        try:
            value = fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            value = math.nan
        if not math.isfinite(value):
            self.failed += weight
        self.losses.append(value)
        return value


def _timed(fn, tracer=None, label=None) -> float:
    """Duration of ``fn()``.  With a tracer, it is installed around this call
    only, so untraced calls run the package unwrapped."""
    if tracer is not None:
        tracer.install()
        tracer.step = label
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()


class Benchmark:
    """The measured operations of one process and the durations they record.

    ``measure`` interleaves training steps, evaluations and checkpoint round
    trips, so every metric samples the whole window.  With a tracer, every
    second training step is traced, so traced and untraced steps share the
    window and their difference is the tracing overhead.
    """

    def __init__(self, wl: Workload, seed: int, run_dir: Path, tracer=None):
        self.wl, self.seed, self.run_dir, self.tracer = wl, seed, run_dir, tracer
        self.ops = Operations()
        self.sess = None
        self.samples = {"train": [], "train_traced": [], "eval": [], "checkpoint": []}
        self.traced_steps = []
        self.ckpt_path = run_dir / "bench.ckpt"

    def set_up(self):
        def body():
            self.sess = Session(self.wl, self.seed, self.run_dir / "data")
            self.ops.run(self.sess.step)

        _timed(body, self.tracer, "setup")

    def train_step(self):
        sess = self.sess
        traced = (self.tracer is not None
                  and len(self.samples["train"]) > len(self.samples["train_traced"]))
        step_id = sess.steps_done + 1
        if traced:
            self.traced_steps.append(step_id)
        duration = _timed(lambda: self.ops.run(sess.step),
                          self.tracer if traced else None, step_id)
        self.samples["train_traced" if traced else "train"].append(duration)

    def evaluate(self):
        sess = self.sess
        label = f"eval{len(self.samples['eval'])}"
        self.samples["eval"].append(_timed(
            lambda: self.ops.run(sess.evaluate, sess.eval_batches()), self.tracer, label))

    def checkpoint(self):
        sess = self.sess
        meta = {"epoch": sess.epoch, "step": sess.steps_done, "best_test_accuracy": -1.0,
                "config": dataclasses.asdict(sess.cfg)}
        pair = []

        def roundtrip():
            saved = train._checkpoint_tensors(sess.params, sess.opt)
            serialization.save_checkpoint(self.ckpt_path, saved, meta)
            pair.extend((saved, serialization.load_checkpoint(self.ckpt_path)[0]))

        label = f"ckpt{len(self.samples['checkpoint'])}"
        self.samples["checkpoint"].append(_timed(roundtrip, self.tracer, label))
        gate.check_roundtrip(*pair)

    def measure(self, seconds: float):
        """Run the phases until they have taken ``seconds`` together, each
        time picking the one furthest below its share of the time."""
        phases = ((TRAIN_SHARE, self.train_step), (EVAL_SHARE, self.evaluate),
                  (1.0 - TRAIN_SHARE - EVAL_SHARE, self.checkpoint))
        spent = [0.0] * len(phases)
        while sum(spent) < seconds or not all(spent):
            i = min(range(len(phases)), key=lambda j: spent[j] / phases[j][0])
            start = time.perf_counter()
            phases[i][1]()
            spent[i] += time.perf_counter() - start


def tail(times: list) -> tuple:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(results: list, wl: Workload) -> tuple:
    """End-to-end metrics from the results of several processes: durations
    are pooled; set-up time and peak memory are medians over processes."""
    cfg = wl.model_config()
    pooled = {key: [d for r in results for d in r["samples"][key]]
              for key in ("train", "eval", "checkpoint")}
    step_s = pooled["train"]
    tail_s, tail_pct = tail(step_s)
    metrics = {
        "train_examples_per_s": cfg.batch_size * len(step_s) / sum(step_s),
        "train_step_p50_ms": statistics.median(step_s) * 1e3,
        "train_step_tail_ms": tail_s * 1e3,
        "eval_examples_per_s": cfg.test_n / statistics.median(pooled["eval"]),
        "checkpoint_ms": statistics.median(pooled["checkpoint"]) * 1e3,
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    notes = [f"train_step_tail_ms is p{tail_pct:.1f} of {len(step_s)} steps "
             f"({min(TAIL_BEYOND, len(step_s) - 1)} beyond)",
             f"samples from {len(results)} processes: {len(step_s)} steps, "
             f"{len(pooled['eval'])} evaluations, {len(pooled['checkpoint'])} checkpoint "
             f"round trips, {len(results)} set-ups"]
    return metrics, notes


def per_layer(bench: Benchmark) -> dict:
    tracer, samples = bench.tracer, bench.samples
    ckpt_ids = [f"ckpt{i}" for i in range(len(samples["checkpoint"]))]
    metrics = tracer.step_metrics(bench.traced_steps)
    metrics.update(tracer.setup_metrics(["setup"]))
    metrics["tensor.eval_grad_ops"] = tracer.eval_grad_ops / tracer.eval_calls
    metrics["serialization.save_ms"] = statistics.median(
        tracer.span_ms("serialization.save", ckpt_ids))
    metrics["serialization.load_ms"] = statistics.median(
        tracer.span_ms("serialization.load", ckpt_ids))
    metrics["serialization.checkpoint_mb"] = bench.ckpt_path.stat().st_size / 2**20
    metrics["trace.overhead_ms"] = (statistics.median(samples["train_traced"])
                                    - statistics.median(samples["train"])) * 1e3
    return metrics


def run(wl: Workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    """Set up, check the data, measure.  result["correct"] is False when a
    check fails or an operation failed."""
    run_dir = work_dir / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = Benchmark(wl, seed, run_dir, Tracer() if trace else None)
    ops = bench.ops
    result = {"correct": True}
    try:
        bench.set_up()
        result["setup_end"] = time.time()
        cfg = bench.sess.cfg
        gate.check_data(cfg.task, bench.sess.train_d)
        gate.check_data(cfg.task, bench.sess.test_d)
        bench.measure(seconds)
        gate.check_losses(ops.losses)
        if trace:
            bench.tracer.write_spans(work_dir / f"spans-{wl.name}-seed{seed}.jsonl")
            result["layers"] = per_layer(bench)
    except gate.GateFailure as exc:
        result["correct"] = False
        print(f"correctness gate failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result.update(correct=result["correct"] and ops.failed == 0, attempted=ops.attempted,
                  failed=ops.failed, samples=bench.samples,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                 args.work_dir)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
