"""Checkpoint container and metrics stream.

Checkpoint layout: magic b"SWCK", format version u32 (little-endian),
manifest length u32, JSON manifest listing (name, dtype, shape) per tensor
plus free-form metadata, then the raw little-endian buffers in manifest
order.
"""

from __future__ import annotations

import json
import struct
import time
from pathlib import Path

import numpy as np

from .tensor import Tensor

MAGIC = b"SWCK"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


def _le_dtype(dtype: np.dtype) -> str:
    return np.dtype(dtype).newbyteorder("<").str


def save_checkpoint(path, tensors: dict, meta: dict | None = None):
    path = Path(path)
    entries = []
    buffers = []
    for name, t in tensors.items():
        arr = t.data if isinstance(t, Tensor) else np.asarray(t)
        arr = np.ascontiguousarray(arr.astype(arr.dtype.newbyteorder("<")))
        entries.append({"name": name, "dtype": _le_dtype(arr.dtype), "shape": list(arr.shape)})
        buffers.append(arr)
    manifest = json.dumps({"meta": meta or {}, "tensors": entries}).encode()
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(manifest)))
        fh.write(manifest)
        for arr in buffers:
            fh.write(arr.tobytes())
    tmp.replace(path)


def load_checkpoint(path):
    """Returns (tensors: dict[str, np.ndarray], meta: dict).

    A truncated or malformed file raises CheckpointError.
    """
    with open(path, "rb") as fh:
        def read(n, what):
            buf = fh.read(n)
            if len(buf) != n:
                raise CheckpointError(f"{path}: truncated in {what}")
            return buf

        if fh.read(4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint")
        (version,) = struct.unpack("<I", read(4, "header"))
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        (mlen,) = struct.unpack("<I", read(4, "header"))
        manifest = read(mlen, "manifest")
        try:
            manifest = json.loads(manifest)
            entries = [(e["name"], np.dtype(e["dtype"]), tuple(e["shape"]))
                       for e in manifest["tensors"]]
            meta = manifest["meta"]
        except (ValueError, TypeError, KeyError) as e:
            raise CheckpointError(f"{path}: malformed manifest: {e}") from e
        tensors = {}
        for name, dtype, shape in entries:
            buf = read(int(np.prod(shape)) * dtype.itemsize, f"tensor {name!r}")
            tensors[name] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
    return tensors, meta


class MetricsWriter:
    """Append-only JSON-lines metrics stream, parseable mid-run."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a")
        self._t0 = time.perf_counter()

    def log(self, step, epoch, split, loss, accuracy):
        rec = {
            "step": int(step),
            "epoch": int(epoch),
            "split": split,
            "loss": float(loss),
            "accuracy": float(accuracy),
            "wall_ms": round((time.perf_counter() - self._t0) * 1000.0, 3),
        }
        self._fh.write(json.dumps(rec) + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_metrics(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
