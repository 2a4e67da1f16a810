"""On-disk container for checkpoints and datasets, and the metrics stream.

Container layout: 4-byte magic, format version u32 (little-endian),
manifest length u32, JSON manifest ``{"meta": ..., "tensors": [{"name",
"dtype", "shape"}, ...]}``, then the raw little-endian buffers in manifest
order.  Checkpoints use magic b"SWCK"; datasets (``tasks.save_dataset``) use
b"SWDS" with their generator parameters as the meta.  A damaged container of
either kind raises CheckpointError.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
from pathlib import Path

import numpy as np

from .tensor import Tensor

MAGIC = b"SWCK"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


def _write_container(path, magic: bytes, version: int, tensors: dict, meta: dict) -> None:
    """Write to a temp file, then atomically replace ``path``.

    Arrays that are already C-contiguous little-endian are written through
    their buffer, without a copy; 0-d arrays are stored with shape [1].
    """
    path = Path(path)
    entries = []
    buffers = []
    for name, t in tensors.items():
        arr = t.data if isinstance(t, Tensor) else np.asarray(t)
        arr = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
        entries.append({"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)})
        buffers.append(arr)
    manifest = json.dumps({"meta": meta, "tensors": entries}).encode()
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", version, len(manifest)))
        fh.write(manifest)
        for arr in buffers:
            fh.write(arr.data)
    tmp.replace(path)


def _read_container(path, magic: bytes, version: int, kind: str, mmap: bool):
    """Returns (tensors, meta).  With ``mmap`` the tensors are read-only
    memory maps of the file, otherwise owned arrays.

    A wrong magic or version, a truncated file or a malformed manifest raises
    CheckpointError naming ``path``.
    """
    with open(path, "rb") as fh:
        def read(n, what):
            buf = fh.read(n)
            if len(buf) != n:
                raise CheckpointError(f"{path}: truncated in {what}")
            return buf

        if fh.read(4) != magic:
            raise CheckpointError(f"{path}: bad magic, not a {kind}")
        (got,) = struct.unpack("<I", read(4, "header"))
        if got != version:
            raise CheckpointError(f"{path}: unsupported {kind} version {got}")
        (mlen,) = struct.unpack("<I", read(4, "header"))
        manifest = read(mlen, "manifest")
        try:
            manifest = json.loads(manifest)
            entries = [(e["name"], np.dtype(e["dtype"]), tuple(int(n) for n in e["shape"]))
                       for e in manifest["tensors"]]
            meta = manifest["meta"]
            if not isinstance(meta, dict):
                raise TypeError(f"meta is a {type(meta).__name__}, not an object")
            for name, dtype, shape in entries:
                if dtype.hasobject or any(n < 0 for n in shape):
                    raise ValueError(f"tensor {name!r} has dtype {dtype} and shape {shape}")
        except (ValueError, TypeError, KeyError) as e:
            raise CheckpointError(f"{path}: malformed manifest: {e}") from e

        offset, size = fh.tell(), os.fstat(fh.fileno()).st_size
        tensors = {}
        for name, dtype, shape in entries:
            nbytes = math.prod(shape) * dtype.itemsize
            if offset + nbytes > size:
                raise CheckpointError(f"{path}: truncated in tensor {name!r}")
            if mmap:
                tensors[name] = np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=shape)
            else:
                tensors[name] = arr = np.empty(shape, dtype)
                fh.readinto(arr.reshape(-1).view(np.uint8))
            offset += nbytes
    return tensors, meta


def save_checkpoint(path, tensors: dict, meta: dict | None = None):
    _write_container(path, MAGIC, FORMAT_VERSION, tensors, meta or {})


def load_checkpoint(path):
    """Returns (tensors: dict[str, np.ndarray], meta: dict).

    A truncated or malformed file raises CheckpointError.
    """
    return _read_container(path, MAGIC, FORMAT_VERSION, "checkpoint", mmap=False)


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
