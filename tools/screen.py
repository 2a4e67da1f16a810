"""Screen a change for per-step cost against its parent in one process.

    python3 tools/screen.py --parent DIR --change DIR --workload NAME --steps N --evals M \
        [--checkpoints K]

DIR is a checkout of this repository.  The two checkouts' ``src/`` packages
are imported side by side (under the names ``screen_parent`` and
``screen_change``) with BLAS pinned to one thread.  Each side builds its
model from the workload's config in this checkout's ``perfbench/workloads.py``
and an Adam optimizer at ``lr = 0``, so the parameters never move.  Both
sides then take one untimed warm-up step and ``N`` timed steps in turns, on
the same batches and with the same dropout streams, and switch which side
goes first at every step.  Since a change that moves only gradients leaves
the losses alone at ``lr = 0``, every parameter's gradient bytes are
compared between the sides after each step, outside the timed region.
Then ``M`` evaluates over the test split, alternating the same way; then
``K`` checkpoint round trips, alternating the same way.  A step is
``batch_loss``, ``Adam.zero_grad``, ``backward`` and ``Adam.step``, as in
``perfbench/worker.py``, over the epoch order and dropout streams the worker
draws; the data comes from the change side's generator with the benchmark's
reference seed.  A checkpoint round trip is the worker's too:
``save_checkpoint`` of the parameters and the Adam state, then
``load_checkpoint`` of the same file, each side with its own file in one
temp directory.

Separate processes running the same code can differ by 1.5x on a shared VM;
steps alternated in one process see the same machine state, so the medians
and per-step win counts resolve much smaller moves.  This screens what is
worth building; a speed claim still needs ``perfbench/run.py`` pairs.  The
heap policy that importing ``tensor`` sets is process-wide, so a change to it
does not show here.

Prints each side's median step, evaluate and round-trip time and how many
of them the change won.  Exits 1 at the first step (or evaluate) whose loss
bytes differ between the sides, the first step after which a parameter's
gradient bytes differ (naming the first such parameter), or the first round
trip whose checkpoint files differ in any byte, 0 otherwise.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy loads its BLAS

import argparse
import dataclasses
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402


def load_side(alias: str, checkout: Path) -> SimpleNamespace:
    """The ``sharedworkspace`` package of ``checkout``, imported as ``alias``."""
    pkg_dir = Path(checkout).resolve() / "src" / "sharedworkspace"
    spec = importlib.util.spec_from_file_location(
        alias, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[alias] = pkg
    spec.loader.exec_module(pkg)
    return SimpleNamespace(**{name: importlib.import_module(f"{alias}.{name}")
                              for name in ("config", "models", "optim", "serialization",
                                           "train")})


class Side:
    """One checkout's model and optimizer, stepped as the benchmark worker
    steps them but without moving the parameters."""

    def __init__(self, label: str, pkg: SimpleNamespace, config: dict, seed: int):
        self.label, self.pkg, self.seed = label, pkg, seed
        self.cfg = pkg.train.resolve_task_fields(pkg.config.ModelConfig(**config))
        self.model = pkg.models.build_model(self.cfg)
        self.params = self.model.parameters()
        self.opt = pkg.optim.Adam(self.params, lr=0.0)
        self.drop_rng = None
        self.step_s, self.eval_s, self.ckpt_s = [], [], []

    def start_epoch(self, epoch: int):
        if self.cfg.dropout > 0:
            self.drop_rng = np.random.default_rng([self.seed, epoch, 1])

    def step(self, batch: dict) -> np.ndarray:
        start = time.perf_counter()
        loss, _ = self.pkg.train.batch_loss(self.model, self.cfg, batch, rng=self.drop_rng)
        self.opt.zero_grad()
        loss.backward()
        self.opt.step(0.0)
        self.step_s.append(time.perf_counter() - start)
        return loss.data

    def evaluate(self, test: dict) -> float:
        start = time.perf_counter()
        loss = self.pkg.train.evaluate(self.model, self.cfg, test)["loss"]
        self.eval_s.append(time.perf_counter() - start)
        return loss

    def checkpoint(self, path: Path) -> bytes:
        """One save and load of ``path``; returns the file's bytes."""
        meta = {"epoch": 0, "step": self.opt.step_count, "best_test_accuracy": -1.0,
                "config": dataclasses.asdict(self.cfg)}
        start = time.perf_counter()
        self.pkg.serialization.save_checkpoint(
            path, self.pkg.train._checkpoint_tensors(self.params, self.opt), meta)
        self.pkg.serialization.load_checkpoint(path)
        self.ckpt_s.append(time.perf_counter() - start)
        return path.read_bytes()


def first_grad_difference(parent: Side, change: Side) -> str | None:
    """The name of the first parameter whose gradient bytes differ between
    the sides, or that only one side has; None when all agree."""
    def grad_bytes(p):
        return None if p.grad is None else p.grad.tobytes()
    for name in dict.fromkeys([*parent.params, *change.params]):
        p, c = parent.params.get(name), change.params.get(name)
        if p is None or c is None or grad_bytes(p) != grad_bytes(c):
            return name
    return None


def in_turns(i: int, parent: Side, change: Side):
    return (parent, change) if i % 2 == 0 else (change, parent)


def report(what: str, parent_s: list, change_s: list) -> str:
    p_ms, c_ms = statistics.median(parent_s) * 1e3, statistics.median(change_s) * 1e3
    wins = sum(c < p for p, c in zip(parent_s, change_s))
    return (f"{what}: parent {p_ms:.2f} ms, change {c_ms:.2f} ms "
            f"({(c_ms / p_ms - 1.0) * 100:+.1f} %), change faster in {wins} of {len(parent_s)}")


def screen(parent_dir: Path, change_dir: Path, workload: str, steps: int, evals: int,
           checkpoints: int) -> int:
    wl = WORKLOADS[workload]
    seed = REFERENCE_SEED
    parent = Side("parent", load_side("screen_parent", parent_dir), wl.config, seed)
    change = Side("change", load_side("screen_change", change_dir), wl.config, seed)
    cfg = change.cfg
    train_d, test_d = change.pkg.train.dataset_pair(dataclasses.replace(cfg, seed=seed))
    n_train = change.pkg.train.n_examples(cfg, train_d)

    epoch, lo, order = -1, n_train, None
    for i in range(steps + 1):   # step 0 warms both sides up and is not timed
        if lo + cfg.batch_size > n_train:
            epoch, lo = epoch + 1, 0
            order = np.random.default_rng([seed, epoch]).permutation(n_train)
            for side in (parent, change):
                side.start_epoch(epoch)
        batch = change.pkg.train._batch_arrays(cfg, train_d, order[lo:lo + cfg.batch_size])
        lo += cfg.batch_size
        losses = {side.label: side.step(batch) for side in in_turns(i, parent, change)}
        if losses["parent"].tobytes() != losses["change"].tobytes():
            print(f"step {i}: loss bytes differ: parent {float(losses['parent'])!r}, "
                  f"change {float(losses['change'])!r}", file=sys.stderr)
            return 1
        differ = first_grad_difference(parent, change)
        if differ is not None:
            print(f"step {i}: gradient bytes of {differ!r} differ", file=sys.stderr)
            return 1
        if i == 0:
            for side in (parent, change):
                side.step_s.clear()
    for i in range(evals):
        losses = {side.label: side.evaluate(test_d) for side in in_turns(i, parent, change)}
        if losses["parent"] != losses["change"]:
            print(f"evaluate {i}: losses differ: parent {losses['parent']!r}, "
                  f"change {losses['change']!r}", file=sys.stderr)
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(checkpoints):
            files = {side.label: side.checkpoint(Path(tmp) / f"{side.label}.ckpt")
                     for side in in_turns(i, parent, change)}
            if files["parent"] != files["change"]:
                print(f"checkpoint {i}: file bytes differ", file=sys.stderr)
                return 1

    print(f"{workload}: {steps} steps, {evals} evaluates and {checkpoints} checkpoint "
          f"round trips per side, losses, gradients and files identical")
    if steps:
        print(report("step", parent.step_s, change.step_s))
    if evals:
        print(report("evaluate", parent.eval_s, change.eval_s))
    if checkpoints:
        print(report("checkpoint", parent.ckpt_s, change.ckpt_s))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--steps", type=int, required=True, help="timed steps per side")
    parser.add_argument("--evals", type=int, required=True, help="evaluates per side")
    parser.add_argument("--checkpoints", type=int, default=0,
                        help="checkpoint round trips per side, after the steps")
    args = parser.parse_args(argv)
    return screen(args.parent, args.change, args.workload, args.steps, args.evals,
                  args.checkpoints)


if __name__ == "__main__":
    sys.exit(main())
