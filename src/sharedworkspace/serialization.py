"""On-disk container for checkpoints and datasets, and the metrics stream.

Container layout: 4-byte magic, format version u32 (little-endian),
manifest length u32, JSON manifest ``{"meta": ..., "tensors": [{"name",
"dtype", "shape"}, ...]}``, then the raw little-endian buffers in manifest
order.  Checkpoints use magic b"SWCK"; datasets (``tasks.save_dataset``) use
b"SWDS" with their generator parameters as the meta.  A damaged container of
either kind raises CheckpointError, and the writer refuses a tensor the
reader would refuse before it touches the disk.

Saving is one vectored write and loading into owned arrays one vectored
read: the header, the manifest and every tensor's buffer go out through
``os.writev`` and come back through ``os.readv``, at most IOV_MAX buffers a
call, so the number of system calls does not grow with the tensor count.
Datasets are memory-mapped on load instead.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
import sys
import time
from pathlib import Path

import numpy as np

from .tensor import Tensor

MAGIC = b"SWCK"
FORMAT_VERSION = 1

_IOV_MAX = max(16, os.sysconf("SC_IOV_MAX"))   # POSIX guarantees at least 16
_LITTLE_ENDIAN = sys.byteorder == "little"


class CheckpointError(RuntimeError):
    pass


@functools.lru_cache(maxsize=256)
def _stored_dtype(s: str) -> np.dtype:
    """The dtype a manifest string names; one that holds Python objects
    raises ValueError."""
    dtype = np.dtype(s)
    if dtype.hasobject:
        raise ValueError(f"dtype {s} holds Python objects")
    return dtype


def _manifest_dtype(path, name: str, dtype: np.dtype) -> str:
    """``dtype``'s manifest string; CheckpointError naming the tensor if the
    reader would refuse it."""
    try:
        if dtype.hasobject:
            raise ValueError(f"dtype {dtype} holds Python objects")
        _stored_dtype(dtype.str)
    except (ValueError, TypeError) as e:
        raise CheckpointError(f"{path}: cannot store tensor {name!r}: {e}") from e
    return dtype.str


def _vectored(call, fd: int, buffers: list, sizes: list, short: str) -> None:
    """Move every buffer (``sizes[i]`` bytes each) through ``call``,
    ``os.writev`` or ``os.readv`` on ``fd``, at most IOV_MAX buffers a call.
    A call that stops inside its batch is resumed where it stopped; one that
    moves no bytes (a file that shrank under a read) raises
    CheckpointError(``short``).  ``buffers`` and ``sizes`` are consumed."""
    i = 0
    while i < len(buffers):
        j = i + _IOV_MAX
        want = sum(sizes[i:j])
        done = call(fd, buffers[i:j])
        if done == want:
            i = j
            continue
        if done <= 0:
            raise CheckpointError(short)
        while done >= sizes[i]:
            done -= sizes[i]
            i += 1
        buffers[i] = np.frombuffer(buffers[i], np.uint8)[done:]
        sizes[i] -= done


def _write_container(path, magic: bytes, version: int, tensors: dict, meta: dict) -> None:
    """Write to a temp file, then atomically replace ``path``.

    Arrays that are already C-contiguous little-endian go out through their
    own buffer, without a copy; others are converted first, and 0-d arrays
    are stored with shape [1].  A tensor whose dtype the reader refuses
    raises CheckpointError before the temp file exists, and a write that
    fails removes the temp file and leaves ``path`` as it was.
    """
    path = Path(path)
    entries, buffers, sizes = [], [None], [0]
    dtypes = {}   # each dtype is checked and named once per save
    for name, t in tensors.items():
        arr = t.data if isinstance(t, Tensor) else np.asarray(t)
        if not (arr.ndim and arr.flags.c_contiguous and arr.dtype.isnative and _LITTLE_ENDIAN):
            arr = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
        dtype = dtypes.get(arr.dtype)
        if dtype is None:
            dtype = dtypes[arr.dtype] = _manifest_dtype(path, name, arr.dtype)
        entries.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
        buffers.append(arr)
        sizes.append(arr.nbytes)
    # Nothing in a manifest refers to itself, so the encoder skips that check.
    manifest = json.dumps({"meta": meta, "tensors": entries}, check_circular=False).encode()
    buffers[0] = magic + struct.pack("<II", version, len(manifest)) + manifest
    sizes[0] = len(buffers[0])
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "wb", buffering=0) as fh:
            _vectored(os.writev, fh.fileno(), buffers, sizes, f"{tmp}: short write")
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_container(path, magic: bytes, version: int, kind: str, mmap: bool):
    """Returns (tensors, meta).  With ``mmap`` the tensors are read-only
    memory maps of the file, otherwise owned arrays filled by one vectored
    read.

    A wrong magic or version, a truncated file or a malformed manifest raises
    CheckpointError naming ``path``.
    """
    with open(path, "rb", buffering=0) as fh:
        head = fh.read(12)
        if head[:4] != magic:
            raise CheckpointError(f"{path}: bad magic, not a {kind}")
        if len(head) < 8:
            raise CheckpointError(f"{path}: truncated in header")
        (got,) = struct.unpack_from("<I", head, 4)
        if got != version:
            raise CheckpointError(f"{path}: unsupported {kind} version {got}")
        if len(head) < 12:
            raise CheckpointError(f"{path}: truncated in header")
        (mlen,) = struct.unpack_from("<I", head, 8)
        offset, size = 12 + mlen, os.fstat(fh.fileno()).st_size
        if offset > size:   # checked first, so a damaged length allocates nothing
            raise CheckpointError(f"{path}: truncated in manifest")
        manifest = fh.read(mlen)
        try:
            manifest = json.loads(manifest)
            entries = [(e["name"], _stored_dtype(e["dtype"]), tuple(map(int, e["shape"])))
                       for e in manifest["tensors"]]
            meta = manifest["meta"]
            if not isinstance(meta, dict):
                raise TypeError(f"meta is a {type(meta).__name__}, not an object")
            for name, dtype, shape in entries:
                if shape and min(shape) < 0:
                    raise ValueError(f"tensor {name!r} has shape {shape}")
        except (ValueError, TypeError, KeyError) as e:
            raise CheckpointError(f"{path}: malformed manifest: {e}") from e

        tensors, buffers, sizes = {}, [], []
        for name, dtype, shape in entries:
            nbytes = math.prod(shape) * dtype.itemsize
            if offset + nbytes > size:
                raise CheckpointError(f"{path}: truncated in tensor {name!r}")
            if mmap:
                tensors[name] = np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=shape)
            else:
                tensors[name] = arr = np.empty(shape, dtype)
                buffers.append(arr)
                sizes.append(nbytes)
            offset += nbytes
        _vectored(os.readv, fh.fileno(), buffers, sizes, f"{path}: short read, file changed")
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
