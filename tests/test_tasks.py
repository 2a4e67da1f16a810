import json
import struct

import numpy as np
import pytest

from sharedworkspace.errors import ConfigError
from sharedworkspace.serialization import CheckpointError
from sharedworkspace.tasks import (SOC_ANSWERS, answer_question, copy_echo_rows,
                                   decode_question, encode_question, gen_copy,
                                   gen_sort_of_clevr, gen_triangles, load_dataset,
                                   save_dataset, triangle_spread)


# ---- triangles ---------------------------------------------------------------


def test_triangles_balanced_and_in_range():
    d = gen_triangles(200, image_size=32, seed=0)
    assert d["images"].shape == (200, 32, 32)
    assert abs(d["labels"].mean() - 0.5) <= 0.02
    assert d["images"].min() >= 0.0 and d["images"].max() <= 1.0


def test_triangles_geometric_oracle():
    # Independent recheck: labels must be recomputable from the stored
    # midpoints, and no sample may sit inside the ambiguity band.
    d = gen_triangles(300, image_size=64, seed=1)
    tol = d["params"]["tol_eq"]
    for mids, label in zip(d["midpoints"], d["labels"]):
        spread = triangle_spread(mids)
        if label == 1:
            assert spread <= tol
        else:
            assert spread >= 2 * tol
        assert not (tol < spread < 2 * tol)


def test_triangles_points_cluster_around_midpoints():
    d = gen_triangles(20, image_size=64, seed=2)
    sigma = d["params"]["sigma"]
    for img, mids in zip(d["images"], d["midpoints"]):
        ys, xs = np.nonzero(img)
        pts = np.stack([xs, ys], axis=-1)
        for p in pts:
            dist = np.linalg.norm(mids - p, axis=-1).min()
            assert dist <= 5 * sigma + 1.5


def test_triangle_images_are_uint8_zeros_and_ones_on_disk_too(tmp_path):
    d = gen_triangles(20, image_size=32, seed=3)
    path = tmp_path / "tri.swds"
    save_dataset(path, d)
    mapped = load_dataset(path)["images"]
    assert isinstance(mapped, np.memmap)
    for images in (d["images"], mapped):
        assert images.dtype == np.uint8
        assert set(np.unique(images)) == {0, 1}
    assert np.asarray(mapped).tobytes() == d["images"].tobytes()


def test_triangles_determinism_bytes():
    a = gen_triangles(50, image_size=32, seed=7)
    b = gen_triangles(50, image_size=32, seed=7)
    assert a["images"].tobytes() == b["images"].tobytes()
    assert (a["labels"] == b["labels"]).all()


def test_triangles_rejects_bad_size():
    with pytest.raises(ConfigError):
        gen_triangles(10, image_size=48)
    with pytest.raises(ConfigError):
        gen_triangles(0)


# ---- sort-of-clevr -----------------------------------------------------------


def soc_oracle(shapes, centers, image_size, q):
    """Second, loop-style answering implementation for cross-checking."""
    color, relational, subtype = decode_question(q)
    x, y = int(centers[color][0]), int(centers[color][1])
    if not relational:
        if subtype == 0:
            return "square" if shapes[color] == 0 else "circle"
        if subtype == 1:
            return "left" if x < image_size / 2 else "right"
        return "up" if y < image_size / 2 else "down"
    best = None
    if subtype in (0, 1):
        for j in range(6):
            if subtype == 0 and j == color:
                continue
            dd = (centers[j][0] - x) ** 2 + (centers[j][1] - y) ** 2
            if best is None:
                best = (dd, j)
            elif subtype == 0 and dd < best[0]:
                best = (dd, j)
            elif subtype == 1 and dd > best[0]:
                best = (dd, j)
        return "square" if shapes[best[1]] == 0 else "circle"
    total = 0
    for j in range(6):
        if shapes[j] == shapes[color]:
            total += 1
    return str(total)


def test_soc_shapes_and_counts():
    d = gen_sort_of_clevr(5, seed=0)
    assert d["images"].shape == (5, 75, 75, 3)
    assert d["questions"].shape == (5, 20, 11)
    assert d["answers"].shape == (5, 20)
    # one-hot structure of every question code
    q = d["questions"]
    assert (q[..., :6].sum(-1) == 1).all()
    assert (q[..., 6:8].sum(-1) == 1).all()
    assert (q[..., 8:].sum(-1) == 1).all()


def test_soc_objects_do_not_overlap():
    d = gen_sort_of_clevr(10, seed=1)
    r = d["params"]["radius"]
    for c in d["centers"]:
        for i in range(6):
            for j in range(i + 1, 6):
                assert ((c[i] - c[j]) ** 2).sum() >= (2 * r) ** 2


def test_soc_answers_match_independent_oracle():
    d = gen_sort_of_clevr(150, seed=2)
    for i in range(150):
        for j in range(20):
            got = SOC_ANSWERS[d["answers"][i, j]]
            expect = soc_oracle(d["shapes"][i], d["centers"][i], 75,
                                d["questions"][i, j])
            assert got == expect, (i, j, got, expect)


def test_soc_left_half_scene_answers_left():
    shapes = np.zeros(6, dtype=np.uint8)
    centers = np.array([[5, 10 * k + 5] for k in range(6)])  # all x=5 (left)
    for color in range(6):
        a = answer_question(shapes, centers, 75, color, False, 1)
        assert SOC_ANSWERS[a] == "left"


def test_soc_rerender_invariance_and_determinism():
    a = gen_sort_of_clevr(5, seed=3)
    b = gen_sort_of_clevr(5, seed=3)
    assert a["images"].tobytes() == b["images"].tobytes()
    assert (a["answers"] == b["answers"]).all()


def test_soc_question_roundtrip():
    for color in range(6):
        for rel in (False, True):
            for sub in range(3):
                q = encode_question(color, rel, sub)
                assert decode_question(q) == (color, rel, sub)


# ---- copy --------------------------------------------------------------------


def test_copy_structure():
    d = gen_copy(30, vocab=8, seq_len=10, seed=0)
    toks = d["tokens"]
    assert toks.shape == (30, 11)
    assert (toks[:, 5] == 0).all()                      # delimiter
    assert (toks[:, :5] == toks[:, 6:]).all()           # echo of prefix
    assert (toks[:, :5] >= 1).all()                     # content symbols only


def test_copy_single_symbol_vocab_is_trivial():
    d = gen_copy(10, vocab=2, seq_len=6, seed=1)
    assert (d["tokens"][:, :3] == 1).all()


def test_copy_echo_rows_select_the_echo_targets():
    toks = gen_copy(6, vocab=7, seq_len=10, seed=4)["tokens"]
    targets = toks[:, 1:]                       # next-token targets, 10 per row
    echo = targets[:, copy_echo_rows(10)]
    np.testing.assert_array_equal(echo, toks[:, :5])
    np.testing.assert_array_equal(echo, toks[:, 6:])


def test_copy_unigram_baseline_near_chance():
    # A predictor drawing from the unigram distribution scores sum(p^2) on
    # the echo region, which is ~1/(vocab-1) for uniform symbols.
    d = gen_copy(2000, vocab=6, seq_len=8, seed=2)
    echo = d["tokens"][:, 5:]
    freqs = np.bincount(echo.ravel(), minlength=6)[1:] / echo.size
    assert abs((freqs ** 2).sum() - 1 / 5) < 0.01


def test_copy_validation():
    with pytest.raises(ConfigError):
        gen_copy(5, vocab=1)
    with pytest.raises(ConfigError):
        gen_copy(5, seq_len=7)
    # --copy-len 0 and -2 on the command line: no prefix to echo.
    for seq_len in (0, -4):
        with pytest.raises(ConfigError, match="seq_len must be >= 2"):
            gen_copy(5, seq_len=seq_len)


# ---- on-disk format ----------------------------------------------------------


def test_dataset_roundtrip(tmp_path):
    d = gen_triangles(20, image_size=32, seed=4)
    path = tmp_path / "tri.swds"
    save_dataset(path, d)
    loaded = load_dataset(path)
    assert loaded["params"]["task"] == "triangles"
    np.testing.assert_array_equal(np.asarray(loaded["images"]), d["images"])
    np.testing.assert_array_equal(np.asarray(loaded["labels"]), d["labels"])
    assert isinstance(loaded["images"], np.memmap)


def test_dataset_bad_magic_rejected(tmp_path):
    p = tmp_path / "junk.swds"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="not a dataset"):
        load_dataset(p)


@pytest.mark.parametrize("region", ["empty", "header", "manifest", "buffer"])
def test_truncated_dataset_rejected(tmp_path, region):
    full = tmp_path / "full.swds"
    save_dataset(full, gen_copy(4, vocab=5, seq_len=8, seed=1))
    data = full.read_bytes()
    (manifest_len,) = struct.unpack("<I", data[8:12])
    cut = {"empty": 0, "header": 10, "manifest": 12 + manifest_len // 2,
           "buffer": len(data) - 5}[region]
    p = tmp_path / "cut.swds"
    p.write_bytes(data[:cut])
    with pytest.raises(CheckpointError, match="not a dataset" if cut == 0 else "truncated"):
        load_dataset(p)


def test_version_1_dataset_rejected(tmp_path):
    # The version-1 layout: its own JSON header schema, then the raw arrays.
    tokens = np.zeros((2, 3), dtype=np.int64)
    header = json.dumps({"params": {"task": "copy"}, "arrays": {
        "tokens": {"dtype": "int64", "shape": [2, 3]}}}, sort_keys=True).encode()
    p = tmp_path / "stale.swds"
    p.write_bytes(b"SWDS" + struct.pack("<II", 1, len(header)) + header + tokens.tobytes())
    with pytest.raises(CheckpointError, match="stale.swds.*version 1"):
        load_dataset(p)


def test_dataset_identical_bytes_across_runs(tmp_path):
    p1, p2 = tmp_path / "a.swds", tmp_path / "b.swds"
    save_dataset(p1, gen_copy(40, vocab=5, seq_len=8, seed=9))
    save_dataset(p2, gen_copy(40, vocab=5, seq_len=8, seed=9))
    assert p1.read_bytes() == p2.read_bytes()
