"""The checkpoint container's write and read paths: exact bytes, vectored
I/O in IOV_MAX batches, short transfers, and what the writer refuses."""

import errno
import hashlib
import os

import numpy as np
import pytest

from sharedworkspace import serialization
from sharedworkspace.serialization import CheckpointError, load_checkpoint, save_checkpoint


def golden_tensors():
    return {
        "noncontig_f32": np.arange(24, dtype=np.float32).reshape(4, 6)[:, ::2].T,
        "be_f64": np.array([1.5, -0.0, np.inf, 3.25e-300], dtype=">f8"),
        "scalar_i64": np.array(-7, dtype=np.int64),
        "u8": np.arange(5, dtype=np.uint8).reshape(1, 5),
    }


GOLDEN_META = {"epoch": 3, "note": "golden"}
# Recorded from the writer that issued one write per tensor, before the
# container went vectored; any drift in the format changes it.
GOLDEN_SHA = "bb850ba99d82d1c4ae340b62f7548d1afdf90ed9c367d28912c6acbe5de9b119"


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_bytes_and_round_trip(tmp_path):
    path = tmp_path / "golden.ckpt"
    save_checkpoint(path, golden_tensors(), GOLDEN_META)
    assert sha(path) == GOLDEN_SHA
    loaded, meta = load_checkpoint(path)
    assert meta == GOLDEN_META
    for name, arr in golden_tensors().items():
        got = loaded[name]
        assert got.flags.owndata and got.flags.writeable and got.flags.c_contiguous
        assert got.dtype == arr.dtype.newbyteorder("<")
        assert got.shape == (arr.shape or (1,))
        assert got.tobytes() == np.ascontiguousarray(arr, dtype=got.dtype).tobytes()


def test_writes_resumed_after_short_writes_give_the_same_bytes(tmp_path, monkeypatch):
    calls = []

    def dribble(fd, buffers):   # at most 7 bytes per call, wherever they fall
        calls.append(len(buffers))
        head = b"".join(np.frombuffer(b, np.uint8).tobytes() for b in buffers)[:7]
        return os.write(fd, head)

    monkeypatch.setattr(os, "writev", dribble)
    path = tmp_path / "dribble.ckpt"
    save_checkpoint(path, golden_tensors(), GOLDEN_META)
    assert sha(path) == GOLDEN_SHA
    assert len(calls) == -(-path.stat().st_size // 7)


def counting(monkeypatch, name):
    real, calls = getattr(os, name), []

    def call(fd, buffers):
        calls.append(len(buffers))
        return real(fd, buffers)

    monkeypatch.setattr(os, name, call)
    return calls


def test_more_tensors_than_iov_max_round_trip_in_batches(tmp_path, monkeypatch):
    n = 1100
    assert n > serialization._IOV_MAX >= 16
    tensors = {f"t{i}": np.full(i % 3, i, dtype=np.int32 if i % 2 else np.float32)
               for i in range(n)}
    writes, reads = counting(monkeypatch, "writev"), counting(monkeypatch, "readv")
    path = tmp_path / "many.ckpt"
    save_checkpoint(path, tensors, {"n": n})
    loaded, meta = load_checkpoint(path)
    assert meta == {"n": n} and list(loaded) == list(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype and loaded[name].tobytes() == arr.tobytes()
    iov_max = serialization._IOV_MAX
    assert writes == [min(iov_max, n + 1 - lo) for lo in range(0, n + 1, iov_max)]
    assert reads == [min(iov_max, n - lo) for lo in range(0, n, iov_max)]


def test_a_vectored_read_that_comes_back_short_raises(tmp_path, monkeypatch):
    path = tmp_path / "shrinks.ckpt"
    save_checkpoint(path, golden_tensors(), GOLDEN_META)
    real = os.readv

    def shrink_then_read(fd, buffers):   # the file shrinks after the size check
        os.truncate(path, path.stat().st_size - 3)
        return real(fd, buffers)

    monkeypatch.setattr(os, "readv", shrink_then_read)
    with pytest.raises(CheckpointError, match="short read"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [
    np.array([object(), 1], dtype=object),
    np.zeros(2, dtype=[("a", "<f4"), ("o", "O")]),
], ids=["object", "struct_with_object"])
def test_save_refuses_what_load_refuses_and_keeps_the_old_file(tmp_path, bad):
    path = tmp_path / "keep.ckpt"
    save_checkpoint(path, golden_tensors(), GOLDEN_META)
    with pytest.raises(CheckpointError, match="'b'"):
        save_checkpoint(path, {"a": np.ones(3, np.float32), "b": bad}, {})
    assert sha(path) == GOLDEN_SHA
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.ckpt"]


def test_a_write_that_fails_partway_removes_its_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "keep.ckpt"
    save_checkpoint(path, golden_tensors(), GOLDEN_META)
    real = os.writev

    def fail_after_some(fd, buffers):
        if os.fstat(fd).st_size:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(fd, buffers[:1])

    monkeypatch.setattr(os, "writev", fail_after_some)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, {"w": np.ones((64, 64), np.float32)}, {"epoch": 9})
    assert sha(path) == GOLDEN_SHA
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.ckpt"]
