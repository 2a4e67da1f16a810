import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sharedworkspace
from sharedworkspace import tensor as T
from sharedworkspace.config import ModelConfig, from_dict
from sharedworkspace.errors import ConfigError
from sharedworkspace.models import build_model
from sharedworkspace.optim import NumericError
from sharedworkspace.serialization import (CheckpointError, load_checkpoint, read_metrics,
                                           save_checkpoint)
from sharedworkspace.tasks import save_dataset
from sharedworkspace.train import (_batch_arrays, _dataset_name, batch_loss, dataset,
                                   dataset_pair, evaluate, generate_dataset, load_model,
                                   n_examples, resolve_task_fields, run_training)


def small_cfg(**kw):
    base = dict(host="tr_ssw", task="triangles", n_layers=2, n_h=16, ffn_dim=32,
                n_heads=2, mem_heads=2, key_dim=8, value_dim=8, n_m=2,
                image_size=32, patch_size=8, dropout=0.0, epochs=2,
                batch_size=32, train_n=96, test_n=32, lr=3e-4, seed=0)
    base.update(kw)
    return ModelConfig(**base)


# Config keys that checkpoints written before their removal still carry, at
# the values run_training wrote for small_cfg.
RETIRED = {"rims_steps": 4, "include_memory_rows": False, "n_write_iters": 1,
           "share_layer_params": None, "tims_mono_layers": 1, "n_classes": 2,
           "n_channels": 1}


def stripped_metrics(path):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in read_metrics(path)]


# ---- task binding ------------------------------------------------------------


def test_task_fields_resolved():
    cfg = resolve_task_fields(small_cfg(task="soc"))
    assert cfg.n_classes == 12 and cfg.n_channels == 3
    cfg = resolve_task_fields(small_cfg(task="triangles"))
    assert cfg.n_classes == 2 and cfg.n_channels == 1


def test_host_task_bindings_enforced():
    with pytest.raises(ConfigError):
        resolve_task_fields(small_cfg(host="rims_sw", task="copy"))
    with pytest.raises(ConfigError):
        resolve_task_fields(small_cfg(host="tims_sw", task="triangles",
                                      n_h=16, n_s=4))


def test_importing_train_leaves_yaml_unloaded():
    # Training and the benchmark workers never read a YAML file; only
    # config.from_yaml and the CLI import the parser.
    src = str(Path(sharedworkspace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c",
                          "import sys, sharedworkspace.train; print('yaml' in sys.modules)"],
                         env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["False"]


# ---- datasets ----------------------------------------------------------------


def test_dataset_pair_cached_on_disk(tmp_path):
    cfg = small_cfg(train_n=20, test_n=10)
    train_a, test_a = dataset_pair(cfg, data_root=tmp_path)
    files = sorted(p.name for p in tmp_path.glob("*.swds"))
    assert len(files) == 2
    train_b, _ = dataset_pair(cfg, data_root=tmp_path)   # loads the cache
    np.testing.assert_array_equal(np.asarray(train_a["images"]),
                                  np.asarray(train_b["images"]))
    in_mem, _ = dataset_pair(cfg, data_root=None)
    np.testing.assert_array_equal(in_mem["images"], np.asarray(train_a["images"]))


def test_triangle_batches_are_uint8_zeros_and_ones(tmp_path):
    cfg = resolve_task_fields(small_cfg(train_n=20, test_n=10))
    for data in (dataset(cfg, "train"), dataset(cfg, "train", tmp_path)):
        batch = _batch_arrays(cfg, data, np.arange(8))
        assert batch["images"].dtype == np.uint8
        assert set(np.unique(batch["images"])) == {0, 1}


@pytest.mark.parametrize("host,kw", [("tr_hsw", {"topk": 2}), ("rims_sw", {})])
def test_uint8_images_give_the_float32_logits_and_gradients(host, kw):
    # The hosts cast the images to their dtype, so the bytes of a 0/1 uint8
    # batch and of the same batch in float32 are one input.
    cfg = resolve_task_fields(small_cfg(host=host, dropout=0.1, train_n=8, **kw))
    batch = _batch_arrays(cfg, dataset(cfg, "train"), np.arange(8))
    runs = []
    for images in (batch["images"], batch["images"].astype(np.float32)):
        model = build_model(cfg)
        loss, _ = batch_loss(model, cfg, {**batch, "images": images},
                             rng=np.random.default_rng(5))
        logits = model.forward(images).data.tobytes()
        loss.backward()
        runs.append((loss.data.tobytes(), logits,
                     [p.grad.tobytes() for p in model.parameters().values()]))
    assert runs[0] == runs[1]


def test_float32_triangle_file_loads_and_gives_the_same_first_loss(tmp_path):
    # Dataset files written while the images were float32 keep their dtype
    # and train on the same inputs, so the cache needs no new version.
    cfg = resolve_task_fields(small_cfg(dropout=0.1, train_n=40))
    data = generate_dataset(cfg, cfg.train_n, cfg.seed)
    save_dataset(tmp_path / _dataset_name(cfg, cfg.train_n, cfg.seed),
                 {**data, "images": data["images"].astype(np.float32)})
    old = dataset(cfg, "train", tmp_path)
    assert old["images"].dtype == np.float32
    losses = []
    for d in (data, old):
        batch = _batch_arrays(cfg, d, np.arange(cfg.batch_size))
        loss, _ = batch_loss(build_model(cfg), cfg, batch, rng=np.random.default_rng(3))
        losses.append(loss.data.tobytes())
    assert losses[0] == losses[1]


def test_train_and_test_sets_disjoint_seeds():
    cfg = small_cfg(train_n=20, test_n=20)
    train_d, test_d = dataset_pair(cfg)
    assert train_d["images"].tobytes() != test_d["images"].tobytes()


def test_n_examples_counts_question_pairs():
    cfg = small_cfg(task="soc", train_n=3, test_n=2)
    cfg = resolve_task_fields(cfg)
    train_d, _ = dataset_pair(cfg)
    assert n_examples(cfg, train_d) == 3 * 20


# ---- training loop -----------------------------------------------------------


def test_smoke_run_writes_metrics_and_checkpoints(tmp_path):
    s = run_training(small_cfg(), tmp_path)
    recs = read_metrics(tmp_path / "metrics.jsonl")
    assert [r["split"] for r in recs] == ["train", "test"] * 2
    assert (tmp_path / "last.ckpt").exists()
    assert (tmp_path / "best.ckpt").exists()
    _, meta = load_checkpoint(tmp_path / "best.ckpt")
    assert meta["best_test_accuracy"] == s["best_test_accuracy"]
    assert s["best_test_accuracy"] == max(r["test_accuracy"] for r in s["history"])


def test_identical_seeds_identical_metrics(tmp_path):
    run_training(small_cfg(dropout=0.1), tmp_path / "a")
    run_training(small_cfg(dropout=0.1), tmp_path / "b")
    assert stripped_metrics(tmp_path / "a" / "metrics.jsonl") == \
           stripped_metrics(tmp_path / "b" / "metrics.jsonl")


def test_resume_reproduces_uninterrupted_run(tmp_path):
    cfg = small_cfg(epochs=4, dropout=0.1)
    run_training(cfg, tmp_path / "full")
    run_training(cfg, tmp_path / "split", stop_epoch=2)
    run_training(cfg, tmp_path / "split", resume=True)
    assert stripped_metrics(tmp_path / "full" / "metrics.jsonl") == \
           stripped_metrics(tmp_path / "split" / "metrics.jsonl")


def test_resume_from_checkpoint_with_retired_keys(tmp_path):
    cfg = small_cfg(epochs=3, dropout=0.1)
    run_training(cfg, tmp_path / "full")
    run_training(cfg, tmp_path / "split", stop_epoch=1)
    last = tmp_path / "split" / "last.ckpt"
    tensors, meta = load_checkpoint(last)
    meta["config"].update(RETIRED)
    save_checkpoint(last, tensors, meta)
    run_training(cfg, tmp_path / "split", resume=True)
    assert stripped_metrics(tmp_path / "full" / "metrics.jsonl") == \
           stripped_metrics(tmp_path / "split" / "metrics.jsonl")


def test_resume_rejects_mismatched_config(tmp_path):
    run_training(small_cfg(), tmp_path, stop_epoch=1)
    with pytest.raises(ConfigError, match="does not match"):
        run_training(small_cfg(n_h=32, key_dim=8), tmp_path, resume=True)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_aborts_and_keeps_checkpoint(tmp_path):
    cfg = small_cfg(epochs=6, lr=1e12)   # divergent step size
    with pytest.raises(NumericError):
        run_training(cfg, tmp_path)
    assert (tmp_path / "last.ckpt").exists()
    tensors, meta = load_checkpoint(tmp_path / "last.ckpt")
    assert all(np.isfinite(t).all() for t in tensors.values())


def test_load_model_restores_exact_weights(tmp_path):
    run_training(small_cfg(), tmp_path)
    model, cfg = load_model(tmp_path / "best.ckpt")
    tensors, _ = load_checkpoint(tmp_path / "best.ckpt")
    for name, p in model.parameters().items():
        np.testing.assert_array_equal(p.data, tensors[name])


def test_checkpoint_with_retired_keys_gives_same_logits(tmp_path):
    cfg = resolve_task_fields(small_cfg())
    model = build_model(cfg)
    rng = np.random.default_rng(0)
    for p in model.parameters().values():   # distinguish the weights from a fresh init
        p.data += rng.normal(scale=0.1, size=p.shape).astype(p.dtype)
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, model.parameters(),
                    {"config": {**dataclasses.asdict(cfg), **RETIRED}})
    loaded, loaded_cfg = load_model(path)
    assert loaded_cfg == cfg
    images = rng.random((3, cfg.image_size, cfg.image_size))
    np.testing.assert_array_equal(loaded.forward(images).data, model.forward(images).data)


@pytest.mark.parametrize("value", [0, 2])
def test_n_write_iters_other_than_one_rejected(value):
    with pytest.raises(ConfigError, match="n_write_iters"):
        from_dict({"host": "tr", "n_write_iters": value})


def test_retired_task_values_are_ignored():
    # Every checkpoint written while these were fields holds the task's value
    # or, for the copy hosts, an unread one.
    cfg = from_dict({"host": "tr", "task": "copy", "n_classes": 2, "n_channels": 1})
    assert cfg == ModelConfig(host="tr", task="copy") and cfg.n_classes == cfg.vocab_size


def test_checkpoint_bytes_pinned(tmp_path):
    # Covers the big-endian, non-contiguous and 0-d (stored as [1]) cases.
    w = np.arange(6, dtype=np.float32).reshape(2, 3)
    tensors = {"w": w, "w.T": w.T, "b": np.array([1.5, -2.0], dtype=">f8"),
               "step": np.array(3, dtype=np.int64)}
    path = tmp_path / "pin.ckpt"
    save_checkpoint(path, tensors, {"epoch": 1, "config": {"host": "tr"}})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "9bba19784957f0eeadd85f7f988c2e3045614778ebd036e8fbc05f48903eac2a"
    loaded, meta = load_checkpoint(path)
    assert meta == {"epoch": 1, "config": {"host": "tr"}}
    for name, arr in tensors.items():
        np.testing.assert_array_equal(loaded[name].reshape(np.shape(arr)), arr)
        assert loaded[name].flags.owndata and loaded[name].flags.writeable


@pytest.mark.parametrize("meta,entry", [
    ({}, {"name": "o", "dtype": "|O", "shape": [1]}),
    ({}, {"name": "neg", "dtype": "<f4", "shape": [-1]}),
    ({}, {"name": "huge", "dtype": "<f4", "shape": [2 ** 40, 2 ** 40]}),
    ({}, {"name": "no_shape", "dtype": "<f4"}),
    ([], {"name": "w", "dtype": "<f4", "shape": [1]}),
], ids=["object_dtype", "negative_shape", "huge_shape", "missing_shape", "meta_not_object"])
def test_malformed_manifest_rejected(tmp_path, meta, entry):
    manifest = json.dumps({"meta": meta, "tensors": [entry]}).encode()
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"SWCK" + struct.pack("<II", 1, len(manifest)) + manifest + bytes(64))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


# ---- evaluation --------------------------------------------------------------


def test_random_init_triangles_accuracy_near_chance():
    cfg = resolve_task_fields(small_cfg(test_n=400))
    _, test_d = dataset_pair(cfg)
    model = build_model(cfg)
    ev = evaluate(model, cfg, test_d)
    assert abs(ev["accuracy"] - 0.5) <= 0.05


def test_soc_split_consistent_with_overall():
    cfg = resolve_task_fields(small_cfg(task="soc", test_n=30))
    _, test_d = dataset_pair(cfg)
    model = build_model(cfg)
    ev = evaluate(model, cfg, test_d)
    # equal counts of relational / non-relational questions per scene
    overall = 0.5 * (ev["accuracy_relational"] + ev["accuracy_nonrelational"])
    assert abs(ev["accuracy"] - overall) < 1e-12


def test_memorizes_tiny_training_set(tmp_path):
    cfg = small_cfg(host="tr", task="copy", vocab_size=5, copy_len=3,
                    train_n=50, test_n=16, epochs=40, lr=3e-3, batch_size=16,
                    n_layers=2, n_h=32, ffn_dim=64, cosine=True)
    run_training(cfg, tmp_path)
    model, rcfg = load_model(tmp_path / "best.ckpt")
    train_d, _ = dataset_pair(rcfg)
    ev = evaluate(model, rcfg, train_d)
    assert ev["accuracy"] == 1.0


def test_copy_accuracy_counts_echo_tokens_only():
    cfg = resolve_task_fields(small_cfg(host="tr", task="copy", vocab_size=5,
                                        copy_len=3, train_n=8, test_n=8))
    _, test_d = dataset_pair(cfg)
    model = build_model(cfg)
    batch = {"tokens": np.asarray(test_d["tokens"][:4])}
    _, correct = batch_loss(model, cfg, batch)
    assert correct.shape == (4 * cfg.copy_len,)
