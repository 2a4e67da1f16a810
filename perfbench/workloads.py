"""Workloads and metric definitions of the training-path benchmark.

Each workload pins one host on one task.  The model config never depends on
the workload seed: the seed only picks the generated inputs (train and test
sets, shuffle order and dropout masks), so two seeds run the same program on
different data.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from sharedworkspace import train
from sharedworkspace.config import ModelConfig

# Data seed of the first-step loss check (see gate.check_first_loss).
REFERENCE_SEED = 0
# Relative tolerance of that check: it absorbs last-digit differences between
# BLAS builds, far below what a changed forward moves the loss by.
REFERENCE_REL_TOL = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    # Loss of the first training step on the REFERENCE_SEED data, recorded at
    # the commit that introduced the benchmark.
    reference_loss: float

    def model_config(self) -> ModelConfig:
        return train.resolve_task_fields(ModelConfig(**self.config))

    def data_config(self, seed: int) -> ModelConfig:
        """The model config with the data seed swapped in; dataset_pair keys
        its train/test streams by cfg.seed."""
        return dataclasses.replace(self.model_config(), seed=seed)


_TRI = dict(task="triangles", image_size=64, patch_size=8, n_h=64, n_layers=4,
            batch_size=64, train_n=1024, test_n=256)

WORKLOADS = {w.name: w for w in (
    Workload(
        "tri_pairwise",
        "Pairwise self-attention at O(n^2) over 65 tokens does all communication: "
        "the bypass for workspace changes, the heavy case for self-attention, FFN and GEMM.",
        dict(_TRI, host="tr"),
        reference_loss=0.7158586978912354),
    Workload(
        "tri_workspace",
        "Same data as tri_pairwise but tokens talk through write, gate and read with one "
        "memory per example; the pair shows the linear-vs-quadratic claim end to end.",
        dict(_TRI, host="tr_hsw", n_m=8, topk=15),
        reference_loss=0.7211124897003174),
    Workload(
        "copy_workspace",
        "Causal LM with one memory per position, so writes cost O(T^2 n_m) and state "
        "O(T n_m n_l): the backward-bound, memory-heavy use of the workspace.",
        dict(task="copy", host="tr_hsw", copy_len=12, n_m=4, topk=3, batch_size=32,
             train_n=1024, test_n=128),
        reference_loss=2.2969675064086914),
    Workload(
        "copy_mechanisms",
        "The only TimsModel path: per-mechanism attention and competition record ~850 "
        "tape ops per forward, so per-op dispatch cost in tensor shows.",
        dict(task="copy", host="tims_sw", copy_len=5, n_s=4, n_sel=2, n_m=2,
             batch_size=64, train_n=2048, test_n=256),
        reference_loss=2.1246535778045654),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""            # end-to-end metric a change here should move
    workloads: tuple = ()      # where it should move it


E2E_METRICS = (
    Metric("train_examples_per_s", "examples/s", "higher"),
    Metric("train_step_p50_ms", "ms", "lower"),
    Metric("train_step_tail_ms", "ms", "lower"),
    Metric("eval_examples_per_s", "examples/s", "higher"),
    Metric("checkpoint_ms", "ms", "lower"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MiB", "lower"),
)

_ALL = tuple(WORKLOADS)
_TRI_WL = ("tri_pairwise", "tri_workspace")
_WS_WL = ("tri_workspace", "copy_workspace", "copy_mechanisms")

LAYER_METRICS = (
    Metric("tasks.generate_s", "s", "lower", "setup_s", _TRI_WL),
    Metric("tasks.load_s", "s", "lower", "setup_s", _ALL),
    Metric("models.build_s", "s", "lower", "setup_s", _ALL),
    Metric("train.batch_ms", "ms", "lower", "train_step_p50_ms", _ALL),
    Metric("train.forward_ms", "ms", "lower", "train_step_p50_ms", _ALL),
    Metric("tensor.backward_ms", "ms", "lower", "train_step_p50_ms",
           ("copy_workspace", "copy_mechanisms")),
    Metric("optim.step_ms", "ms", "lower", "train_step_p50_ms", ("copy_mechanisms",)),
    Metric("attention.self_ms", "ms", "lower", "train_step_p50_ms",
           ("tri_pairwise", "copy_mechanisms")),
    Metric("attention.topk_ms", "ms", "lower", "train_step_p50_ms", _WS_WL),
    Metric("workspace.write_ms", "ms", "lower", "train_step_p50_ms", _WS_WL),
    Metric("workspace.gate_ms", "ms", "lower", "train_step_p50_ms", _WS_WL),
    Metric("workspace.read_ms", "ms", "lower", "train_step_p50_ms", _WS_WL),
    Metric("workspace.memory_mb", "MiB-computed", "lower", "peak_rss_mb", ("copy_workspace",)),
    Metric("models.ffn_ms", "ms", "lower", "train_step_p50_ms",
           ("tri_pairwise", "tri_workspace", "copy_workspace")),
    Metric("models.mechanisms_ms", "ms", "lower", "train_step_p50_ms", ("copy_mechanisms",)),
    Metric("tensor.op_calls", "count", "lower", "train_step_p50_ms", ("copy_mechanisms",)),
    Metric("tensor.matmul_ms", "ms", "lower", "train_step_p50_ms", _ALL),
    Metric("tensor.matmul_gflop", "GFLOP-computed", "lower", "train_step_p50_ms", _ALL),
    Metric("tensor.eval_grad_ops", "count", "lower", "eval_examples_per_s", _ALL),
    Metric("serialization.save_ms", "ms", "lower", "checkpoint_ms", _ALL),
    Metric("serialization.load_ms", "ms", "lower", "checkpoint_ms", _ALL),
    Metric("serialization.checkpoint_mb", "MiB", "lower", "checkpoint_ms", _ALL),
    Metric("trace.overhead_ms", "ms", "lower"),
)

E2E_UNITS = {m.name: m.unit for m in E2E_METRICS}
LAYER_UNITS = {m.name: m.unit for m in LAYER_METRICS}
