"""Correctness gate of the benchmark.

A run is correct only if the host passes its end-to-end gradient check, the
generated data agrees with the task's independent oracle, the first-step
loss on the reference data matches the recorded value, every step's loss is
finite and a checkpoint round trip restores what was saved.  Each check
raises ``GateFailure`` with the reason.
"""

from __future__ import annotations

import math

import numpy as np

from sharedworkspace import hostcheck, models, tasks, train
from sharedworkspace.tensor import Tensor

from workloads import REFERENCE_REL_TOL, REFERENCE_SEED, Workload


class GateFailure(RuntimeError):
    pass


def check_host(host: str) -> None:
    report = hostcheck.host_grad_check(host)
    if not report.passed:
        raise GateFailure(f"hostcheck failed for {host}: max relative error "
                          f"{report.max_rel_err:.3g} > {report.tol:.3g}")


def check_data(task: str, data: dict) -> None:
    """Re-derive every target from the stored metadata."""
    if task == "triangles":
        tol = tasks.TriangleParams().tol_eq
        labels = np.asarray(data["labels"])
        for i, mids in enumerate(np.asarray(data["midpoints"])):
            expected = int(tasks.triangle_spread(mids) <= tol)
            if labels[i] != expected:
                raise GateFailure(f"triangle {i}: label {labels[i]} but the midpoint "
                                  f"spread says {expected}")
    elif task == "copy":
        tokens = np.asarray(data["tokens"])
        half = (tokens.shape[1] - 1) // 2
        if not (tokens[:, half] == 0).all():
            raise GateFailure("copy: delimiter missing")
        bad = np.flatnonzero((tokens[:, half + 1:] != tokens[:, :half]).any(axis=1))
        if bad.size:
            raise GateFailure(f"copy: echo differs from the prefix in sequence {bad[0]}")
    else:
        raise GateFailure(f"no oracle for task {task!r}")


def first_loss(wl: Workload) -> float:
    """Loss of a fresh model's first training step on the first batch of the
    reference data, with the epoch-0 dropout stream."""
    cfg = wl.model_config()
    data = train.generate_dataset(wl.data_config(REFERENCE_SEED), cfg.batch_size,
                                  REFERENCE_SEED)
    batch = train._batch_arrays(cfg, data, np.arange(cfg.batch_size))
    rng = np.random.default_rng([REFERENCE_SEED, 0, 1]) if cfg.dropout > 0 else None
    loss, _ = train.batch_loss(models.build_model(cfg), cfg, batch, rng=rng)
    return float(loss.data)


def check_first_loss(wl: Workload) -> float:
    value = first_loss(wl)
    if not math.isclose(value, wl.reference_loss, rel_tol=REFERENCE_REL_TOL):
        raise GateFailure(f"{wl.name}: first-step loss {value!r} differs from the "
                          f"recorded {wl.reference_loss!r}")
    return value


def check_losses(losses) -> None:
    bad = [i for i, v in enumerate(losses) if not math.isfinite(v)]
    if bad:
        raise GateFailure(f"{len(bad)} of {len(losses)} steps had a non-finite loss "
                          f"(first at step {bad[0]})")


def check_roundtrip(saved: dict, loaded: dict) -> None:
    if saved.keys() != loaded.keys():
        raise GateFailure("checkpoint round trip changed the tensor names")
    # Values are compared flat: save_checkpoint stores 0-d arrays (the Adam
    # step) as one-element arrays.
    for name, value in saved.items():
        data = value.data if isinstance(value, Tensor) else value
        if not np.array_equal(np.ravel(data), np.ravel(loaded[name])):
            raise GateFailure(f"checkpoint round trip changed {name}")
