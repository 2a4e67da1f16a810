"""Tests of the benchmark itself: metric names, numerics under tracing,
seed handling, the correctness gate and the tracer's layer attribution.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sharedworkspace import tensor as T
from sharedworkspace import train

import gate
import worker
from tracer import Tracer
from workloads import E2E_METRICS, LAYER_METRICS, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_are_well_formed():
    spec = _spec()
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in spec[key]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
    assert [e["name"] for e in spec["workloads"]] == list(WORKLOADS)
    assert [(e["name"], e["unit"], e["better"]) for e in spec["end_to_end"]] == \
        [(m.name, m.unit, m.better) for m in E2E_METRICS]
    assert [(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in LAYER_METRICS]
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])


def _steps(tmp_path, trace, n_steps=2, name="copy_mechanisms", seed=3):
    """Losses of n_steps training steps and one evaluation, plus the tracer."""
    tracer = Tracer().install() if trace else None
    try:
        sess = worker.Session(WORKLOADS[name], seed, tmp_path / f"data-{trace}")
        losses = []
        for _ in range(n_steps):
            if tracer is not None:
                tracer.step = sess.steps_done + 1
            losses.append(sess.step())
        if tracer is not None:
            tracer.step = "eval0"
        losses.append(sess.evaluate())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return losses, tracer


def test_tracing_does_not_perturb_numerics_and_counts_repeat(tmp_path):
    plain, _ = _steps(tmp_path / "a", trace=False)
    traced, first = _steps(tmp_path / "b", trace=True)
    again, second = _steps(tmp_path / "c", trace=True)
    assert all(math.isfinite(v) for v in plain)
    assert traced == plain and again == plain        # bitwise: float equality
    steps = [1, 2]
    a, b = first.step_metrics(steps), second.step_metrics(steps)
    for key in ("tensor.op_calls", "tensor.matmul_gflop", "workspace.memory_mb"):
        assert a[key] == b[key] > 0
    assert first.op_calls[1] == first.op_calls[2]
    assert first.eval_grad_ops == second.eval_grad_ops > 0


def test_tracer_restores_every_patched_name():
    before = (train.batch_loss, T.matmul, T.Tensor.backward, train.gen_triangles)
    with Tracer():
        assert train.batch_loss is not before[0]
        assert train.gen_triangles is not before[3]
    assert (train.batch_loss, T.matmul, T.Tensor.backward, train.gen_triangles) == before


def test_seed_changes_inputs_not_config(tmp_path):
    wl = WORKLOADS["copy_mechanisms"]
    assert wl.data_config(1).seed != wl.data_config(2).seed
    one = train.dataset_pair(wl.data_config(1), tmp_path / "1")
    two = train.dataset_pair(wl.data_config(2), tmp_path / "2")
    assert not np.array_equal(one[0]["tokens"], two[0]["tokens"])
    assert not np.array_equal(one[1]["tokens"], two[1]["tokens"])
    a = worker.Session(wl, 1, tmp_path / "s1")
    b = worker.Session(wl, 2, tmp_path / "s2")
    assert a.cfg == b.cfg == wl.model_config()
    assert all(np.array_equal(a.params[k].data, b.params[k].data) for k in a.params)
    assert not np.array_equal(a.order, b.order)


@pytest.mark.parametrize("name", ["tri_pairwise", "copy_workspace"])
def test_gate_rejects_corrupted_data(name):
    wl = WORKLOADS[name]
    cfg = wl.model_config()
    data = train.generate_dataset(cfg, 16, seed=5)
    gate.check_data(cfg.task, data)
    if cfg.task == "triangles":
        data["labels"][3] = 1 - data["labels"][3]
    else:
        half = cfg.copy_len
        data["tokens"][3, half + 2] = data["tokens"][3, 1] % (cfg.vocab_size - 1) + 1
    with pytest.raises(gate.GateFailure):
        gate.check_data(cfg.task, data)


def test_gate_rejects_a_nan_loss(tmp_path, monkeypatch):
    # Poison the first timed step; call 1 is the warm-up step of the set-up.
    real, calls = train.batch_loss, []

    def poisoned(*args, **kwargs):
        loss, correct = real(*args, **kwargs)
        calls.append(1)
        return (T.mul(loss, math.nan) if len(calls) == 2 else loss), correct

    monkeypatch.setattr(train, "batch_loss", poisoned)
    result = worker.run(WORKLOADS["tri_pairwise"], 1, 1.0, False, tmp_path)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] > 1
    with pytest.raises(gate.GateFailure):
        gate.check_losses([1.0, math.nan])


def test_gate_rejects_a_changed_forward(monkeypatch):
    wl = WORKLOADS["copy_mechanisms"]
    gate.check_first_loss(wl)
    monkeypatch.setattr(T, "relu", T.tanh)
    with pytest.raises(gate.GateFailure):
        gate.check_first_loss(wl)


def test_traced_layers_match_each_host(tmp_path):
    """Bypass predictions: no workspace work without a workspace, no
    self-attention in the workspace transformers."""
    zero = {"tri_pairwise": ("workspace.write_ms", "workspace.gate_ms", "workspace.read_ms",
                             "attention.topk_ms", "models.mechanisms_ms", "workspace.memory_mb"),
            "tri_workspace": ("attention.self_ms", "models.mechanisms_ms"),
            "copy_workspace": ("attention.self_ms", "models.mechanisms_ms")}
    for name, zeros in zero.items():
        _, tracer = _steps(tmp_path / name, trace=True, n_steps=1, name=name)
        metrics = tracer.step_metrics([1])
        for key in zeros:
            assert metrics[key] == 0, (name, key)
        busy = set(metrics) - set(zeros)
        assert all(metrics[key] > 0 for key in busy), (name, metrics)
        assert tracer.eval_grad_ops > 0


def test_tail_has_ten_samples_beyond_it():
    times = list(range(1, 41))
    value, pct = worker.tail(times)
    assert sum(t > value for t in times) == 10 and pct == 75.0
    assert worker.tail([3, 1, 2]) == (3, 100.0)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tri_pairwise",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
