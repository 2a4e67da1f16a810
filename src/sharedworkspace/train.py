"""Minibatch training: Adam with optional cosine annealing, JSON-lines
metrics, best-by-test-accuracy checkpointing, and exact resume.

Every run is reproducible from (config, seed): datasets regenerate from
recorded seeds, the shuffle and dropout streams are keyed by (seed, epoch),
and resuming from the rolling checkpoint replays the remaining epochs
bit-for-bit.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import ModelConfig, from_dict, validate
from .errors import ConfigError
from .models import build_model
from .optim import Adam, NumericError, cosine_lr
from .serialization import CheckpointError, MetricsWriter, load_checkpoint, save_checkpoint
from .tasks import (SOC_RELATIONAL_BIT, copy_loss_mask, gen_copy, gen_sort_of_clevr,
                    gen_triangles, load_dataset, save_dataset)

# Offset separating the test-set seed stream from the train-set stream.
TEST_SEED_OFFSET = 100_003


# ``config.validate`` under the name callers have used for it.
resolve_task_fields = validate


def _dataset_name(cfg: ModelConfig, n: int, seed: int) -> str:
    if cfg.task == "copy":
        tag = f"v{cfg.vocab_size}-l{cfg.copy_len}"
    else:
        tag = f"is{cfg.image_size}"
    return f"{cfg.task}-{tag}-n{n}-seed{seed}.swds"


def generate_dataset(cfg: ModelConfig, n: int, seed: int) -> dict:
    if cfg.task == "triangles":
        return gen_triangles(n, image_size=cfg.image_size, seed=seed)
    if cfg.task == "soc":
        return gen_sort_of_clevr(n, seed=seed, image_size=cfg.image_size)
    return gen_copy(n, vocab=cfg.vocab_size, seq_len=2 * cfg.copy_len, seed=seed)


def dataset(cfg: ModelConfig, split: str, data_root=None) -> dict:
    """The ``"train"`` or ``"test"`` set of the configured task, cached when a
    data root is given (files are keyed by task parameters, size and seed)."""
    n, seed = {"train": (cfg.train_n, cfg.seed),
               "test": (cfg.test_n, cfg.seed + TEST_SEED_OFFSET)}[split]
    if data_root is None:
        return generate_dataset(cfg, n, seed)
    path = Path(data_root) / _dataset_name(cfg, n, seed)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        save_dataset(path, generate_dataset(cfg, n, seed))
    return load_dataset(path)


def dataset_pair(cfg: ModelConfig, data_root=None) -> tuple[dict, dict]:
    """Train and test sets of the configured task (see ``dataset``)."""
    return dataset(cfg, "train", data_root), dataset(cfg, "test", data_root)


def n_examples(cfg: ModelConfig, data: dict) -> int:
    if cfg.task == "triangles":
        return len(data["labels"])
    if cfg.task == "soc":
        return data["questions"].shape[0] * data["questions"].shape[1]
    return len(data["tokens"])


def _batch_arrays(cfg: ModelConfig, data: dict, idx: np.ndarray) -> dict:
    if cfg.task == "triangles":
        return {"images": np.asarray(data["images"][idx]),
                "labels": np.asarray(data["labels"][idx])}
    if cfg.task == "soc":
        n_q = data["questions"].shape[1]
        s, q = idx // n_q, idx % n_q
        return {"images": np.asarray(data["images"][s]),
                "questions": np.asarray(data["questions"][s, q]),
                "answers": np.asarray(data["answers"][s, q])}
    return {"tokens": np.asarray(data["tokens"][idx])}


def batch_loss(model, cfg: ModelConfig, batch: dict, rng=None):
    """Loss tensor plus a per-unit correctness vector (units: examples for
    the classifiers, echo-region tokens for the copy task)."""
    if cfg.task == "copy":
        tokens = batch["tokens"]
        inp, tgt = tokens[:, :-1], tokens[:, 1:]
        logits = model.forward(inp, rng=rng)
        mask = copy_loss_mask(tgt.shape[1])
        loss = T.cross_entropy(logits, tgt, weights=mask)
        pred = logits.data.argmax(axis=-1)
        correct = (pred == tgt)[:, mask == 1].reshape(-1)
        return loss, correct
    if cfg.task == "soc":
        targets = batch["answers"]
        logits = model.forward(batch["images"], question=batch["questions"], rng=rng)
    else:
        targets = batch["labels"]
        logits = model.forward(batch["images"], rng=rng)
    loss = T.cross_entropy(logits, targets)
    correct = logits.data.argmax(axis=-1) == targets
    return loss, correct


def evaluate(model, cfg: ModelConfig, data: dict, max_examples: int | None = None) -> dict:
    """Test-mode loss/accuracy in batches of ``cfg.batch_size``; for the
    scene task also the accuracy over the relational and over the
    non-relational questions, each reported only when some were evaluated.

    Each batch's forward records a tape that no backward consumes; it is
    released before the next batch is built, so one tape is alive at a time.
    """
    n = n_examples(cfg, data)
    if max_examples is not None:
        n = min(n, max_examples)
    if n <= 0:
        raise ConfigError(f"evaluation over no examples (max_examples={max_examples})")
    total_loss, n_units = 0.0, 0
    correct_all, rel_all = [], []
    for lo in range(0, n, cfg.batch_size):
        idx = np.arange(lo, min(lo + cfg.batch_size, n))
        batch = _batch_arrays(cfg, data, idx)
        loss, correct = batch_loss(model, cfg, batch, rng=None)
        total_loss += float(loss.data) * len(correct)
        del loss
        n_units += len(correct)
        correct_all.append(correct)
        if cfg.task == "soc":
            rel_all.append(batch["questions"][:, SOC_RELATIONAL_BIT] == 1)
    correct = np.concatenate(correct_all)
    out = {"loss": total_loss / n_units, "accuracy": float(correct.mean())}
    if cfg.task == "soc":
        rel = np.concatenate(rel_all)
        for key, split in (("accuracy_relational", rel), ("accuracy_nonrelational", ~rel)):
            if split.any():
                out[key] = float(correct[split].mean())
    return out


# ---- checkpoint plumbing -----------------------------------------------------


def _checkpoint_tensors(params: dict, opt: Adam) -> dict:
    tensors = dict(params)
    for name in params:
        tensors[f"adam.m/{name}"] = opt.m[name]
        tensors[f"adam.v/{name}"] = opt.v[name]
    tensors["adam.step"] = np.array(opt.step_count, dtype=np.int64)
    return tensors


def _restore(params: dict, opt: Adam | None, tensors: dict) -> None:
    """Copy checkpoint tensors into the parameters and, given ``opt``, the
    Adam state.  A missing tensor or one of the wrong shape raises
    CheckpointError before anything is written."""
    expected = {name: p.data.shape for name, p in params.items()}
    if opt is not None:
        for name, p in params.items():
            expected[f"adam.m/{name}"] = expected[f"adam.v/{name}"] = p.data.shape
        expected["adam.step"] = (1,)   # saved 1-d by save_checkpoint
    for name, shape in expected.items():
        if name not in tensors:
            raise CheckpointError(f"checkpoint lacks tensor '{name}'")
        got = np.shape(tensors[name])
        if got != shape:
            raise CheckpointError(f"checkpoint tensor '{name}' has shape {got}, expected {shape}")
    for name, p in params.items():
        p.data[...] = tensors[name]
    if opt is not None:
        for name in params:
            opt.m[name][...] = tensors[f"adam.m/{name}"]
            opt.v[name][...] = tensors[f"adam.v/{name}"]
        opt.step_count = int(np.asarray(tensors["adam.step"]).reshape(-1)[0])


def load_model(checkpoint_path):
    """Rebuild the model recorded in a checkpoint; returns (model, config)."""
    tensors, meta = load_checkpoint(checkpoint_path)
    cfg = from_dict(meta.get("config"))
    model = build_model(cfg)
    _restore(model.parameters(), None, tensors)
    return model, cfg


# ---- training loop -----------------------------------------------------------


def run_training(cfg: ModelConfig, out_dir, data_root=None, resume: bool = False,
                 stop_epoch: int | None = None, log=None) -> dict:
    """Train to cfg.epochs, returning a summary with the per-epoch history.

    ``stop_epoch`` ends the run early (after that many total epochs) without
    shortening the learning-rate schedule; a later resume continues exactly
    where an uninterrupted run would have been.

    Writes metrics.jsonl (started afresh unless resuming, then appended to),
    last.ckpt (rolling, every epoch) and best.ckpt (highest test accuracy)
    under ``out_dir``.  A non-finite loss raises NumericError; the rolling
    checkpoint of the last completed epoch stays on disk.
    """
    cfg = validate(cfg)
    # Data first: a task parameter the generator rejects fails before the
    # run directory exists.
    train_d, test_d = dataset_pair(cfg, data_root)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    model = build_model(cfg)
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr)
    meta_cfg = dataclasses.asdict(cfg)
    last_path, best_path = out / "last.ckpt", out / "best.ckpt"

    def checkpoint(path, epoch, step, best_acc):
        save_checkpoint(path, _checkpoint_tensors(params, opt),
                        {"epoch": epoch, "step": step, "best_test_accuracy": best_acc,
                         "config": meta_cfg})

    start_epoch, step, best_acc = 0, 0, -1.0
    if resume:
        if not last_path.exists():
            raise ConfigError(f"cannot resume: {last_path} does not exist")
        tensors, meta = load_checkpoint(last_path)
        # The epoch budget may be extended on resume; everything else must match.
        saved = dataclasses.replace(from_dict(meta.get("config")), epochs=cfg.epochs)
        if saved != cfg:
            raise ConfigError("checkpoint config does not match the requested config")
        for key in ("epoch", "step", "best_test_accuracy"):
            if key not in meta:
                raise CheckpointError(f"{last_path}: checkpoint meta lacks '{key}'")
        _restore(params, opt, tensors)
        start_epoch = meta["epoch"]
        step = meta["step"]
        best_acc = meta["best_test_accuracy"]
    else:
        checkpoint(last_path, 0, 0, best_acc)
        (out / "metrics.jsonl").unlink(missing_ok=True)

    n_train = n_examples(cfg, train_d)
    end_epoch = cfg.epochs if stop_epoch is None else min(cfg.epochs, stop_epoch)
    history = []
    with MetricsWriter(out / "metrics.jsonl") as metrics:
        for epoch in range(start_epoch, end_epoch):
            lr = cosine_lr(cfg.lr, epoch, cfg.epochs) if cfg.cosine else cfg.lr
            order = np.random.default_rng([cfg.seed, epoch]).permutation(n_train)
            drop_rng = (np.random.default_rng([cfg.seed, epoch, 1])
                        if cfg.dropout > 0 else None)
            run_loss, run_correct, run_units = 0.0, 0, 0
            for lo in range(0, n_train, cfg.batch_size):
                batch = _batch_arrays(cfg, train_d, order[lo:lo + cfg.batch_size])
                loss, correct = batch_loss(model, cfg, batch, rng=drop_rng)
                if not np.isfinite(loss.data):
                    raise NumericError(f"non-finite loss at epoch {epoch}, step {step}")
                opt.zero_grad()
                loss.backward()
                opt.step(lr)
                step += 1
                run_loss += float(loss.data) * len(correct)
                run_correct += int(correct.sum())
                run_units += len(correct)

            train_loss = run_loss / run_units
            train_acc = run_correct / run_units
            metrics.log(step, epoch, "train", train_loss, train_acc)
            ev = evaluate(model, cfg, test_d)
            record = {"epoch": epoch, "train_loss": train_loss,
                      "train_accuracy": train_acc, "test_loss": ev["loss"]}
            # "accuracy", then on the scene task its relational split.
            for key, acc in ev.items():
                if key.startswith("accuracy"):
                    metrics.log(step, epoch, key.replace("accuracy", "test"), ev["loss"], acc)
                    record[f"test_{key}"] = acc
            history.append(record)

            if ev["accuracy"] > best_acc:
                best_acc = ev["accuracy"]
                checkpoint(best_path, epoch + 1, step, best_acc)
            checkpoint(last_path, epoch + 1, step, best_acc)
            if log is not None:
                log(f"epoch {epoch:3d}  lr {lr:.2e}  "
                    f"train loss {train_loss:.4f} acc {train_acc:.4f}  "
                    f"test loss {ev['loss']:.4f} acc {ev['accuracy']:.4f}")

    return {
        "best_test_accuracy": best_acc,
        "history": history,
        "metrics_path": str(out / "metrics.jsonl"),
        "checkpoints": {"last": str(last_path), "best": str(best_path)},
    }

