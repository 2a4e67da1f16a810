"""Procedural datasets with recomputable answers.

Three generators, each storing enough metadata to re-derive every target
independently of the rendered input:

- triangles: three point clusters; positive iff the cluster midpoints form an
  (approximately) equilateral triangle.
- sort-of-clevr style scenes: six colored shapes, twenty questions per image
  (ten relational, ten non-relational), 11-bit question codes.
- copy: prefix + delimiter + echo, for the autoregressive hosts.

Datasets are deterministic in (seed, params): sample i draws from a generator
seeded by (master seed, i), so generation order or parallelism cannot change
the bytes.  On disk they use the checkpoint container (see serialization),
and loaders memory-map the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .serialization import _read_container, _write_container

DATASET_MAGIC = b"SWDS"
# Raised with every layout change, so a stale cache file fails to load.
DATASET_VERSION = 2

# Sort-of-clevr answer vocabulary (class indices).
SOC_ANSWERS = ("square", "circle", "left", "right", "up", "down",
               "1", "2", "3", "4", "5", "6")
SOC_COLORS = ("red", "green", "blue", "orange", "gray", "yellow")
SOC_RGB = np.array([
    [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
    [1.0, 0.5, 0.0], [0.5, 0.5, 0.5], [1.0, 1.0, 0.0],
], dtype=np.float32)
SOC_QUESTION_BITS = 11   # 6 color + 2 type + 3 subtype
SOC_RELATIONAL_BIT = 7   # type one-hot: bit 6 non-relational, bit 7 relational
SOC_QUESTIONS_PER_TYPE = 10   # per scene: this many non-relational, then relational

# Placement attempts per sample before a generator gives up.
MAX_RETRIES = 1000


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-style per-sample stream: independent of generation order."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


# ---- triangles ---------------------------------------------------------------


def triangle_spread(midpoints: np.ndarray) -> float:
    """Max minus min of the three pairwise midpoint distances."""
    m = np.asarray(midpoints, dtype=np.float64)
    d = [np.linalg.norm(m[i] - m[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    return float(max(d) - min(d))


@dataclass
class TriangleParams:
    image_size: int = 64
    points_per_cluster: int = 5
    # Layout quantities are in pixels at 64x64 and scale proportionally.
    # The equality tolerance does NOT scale: the midpoint-estimation noise
    # floor is set by pixel quantization (absolute) and the point jitter, so
    # shrinking the ambiguity band with the image would leave the two classes
    # statistically inseparable at low resolution.
    tol_eq: float = 1.5
    sigma: float = 1.5
    min_separation: float = 12.0
    margin: float = 5.0

    def scaled(self):
        s = self.image_size / 64.0
        return (self.tol_eq, self.sigma * s, self.min_separation * s,
                self.margin * s)


def gen_triangles(n: int, image_size: int = 64, seed: int = 0) -> dict:
    """Balanced triangle-midpoint dataset.

    Positives place cluster midpoints on an exact equilateral triangle;
    negatives are rejection-sampled so their midpoint-distance spread is at
    least twice the equality tolerance — no sample sits inside the
    (tol_eq, 2 tol_eq) dead zone.

    The images hold exactly 0 and 1, so they are ``uint8``: a quarter of the
    bytes of float32 in memory, on disk and in every batch.  The hosts cast
    them to their float dtype, which gives the same inputs as float32 images,
    so a dataset file that holds float32 images trains the same.
    """
    if n < 1:
        raise ConfigError("need n >= 1")
    if image_size not in (32, 64):
        raise ConfigError(f"image_size must be 32 or 64, got {image_size}")
    params = TriangleParams(image_size=image_size)
    tol, sigma, min_sep, margin = params.scaled()
    size = image_size
    images = np.zeros((n, size, size), dtype=np.uint8)
    labels = np.zeros(n, dtype=np.int64)
    midpoints = np.zeros((n, 3, 2), dtype=np.float32)

    for i in range(n):
        rng = _sample_rng(seed, i)
        positive = i % 2 == 0
        mids = None
        for _ in range(MAX_RETRIES):
            if positive:
                side = rng.uniform(min_sep, (size - 2 * margin) / 1.6)
                radius = side / np.sqrt(3.0)
                lo, hi = margin + radius, size - margin - radius
                if hi <= lo:
                    continue
                center = rng.uniform(lo, hi, size=2)
                theta = rng.uniform(0, 2 * np.pi)
                angles = theta + np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
                cand = center + radius * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
            else:
                cand = rng.uniform(margin, size - margin, size=(3, 2))
                dists = [np.linalg.norm(cand[a] - cand[b])
                         for a, b in ((0, 1), (0, 2), (1, 2))]
                if min(dists) < min_sep or triangle_spread(cand) < 2 * tol:
                    continue
            if (cand >= margin - 1e-9).all() and (cand <= size - margin + 1e-9).all():
                mids = cand
                break
        if mids is None:
            raise ConfigError(f"could not place clusters for sample {i} "
                              f"after {MAX_RETRIES} retries")
        midpoints[i] = mids
        labels[i] = int(positive)
        pts = mids[:, None, :] + rng.normal(0.0, sigma,
                                            size=(3, params.points_per_cluster, 2))
        ij = np.clip(np.rint(pts), 0, size - 1).astype(int).reshape(-1, 2)
        images[i, ij[:, 1], ij[:, 0]] = 1

    return {
        "images": images, "labels": labels, "midpoints": midpoints,
        "params": {"task": "triangles", "n": n, "image_size": image_size,
                   "seed": seed, "tol_eq": tol, "min_separation": min_sep,
                   "sigma": sigma, "points_per_cluster": params.points_per_cluster},
    }


# ---- sort-of-clevr -----------------------------------------------------------


def encode_question(color: int, relational: bool, subtype: int) -> np.ndarray:
    """11-bit code: 6 color one-hot, 2 type one-hot, 3 subtype one-hot."""
    q = np.zeros(SOC_QUESTION_BITS, dtype=np.uint8)
    q[color] = 1
    q[SOC_RELATIONAL_BIT if relational else SOC_RELATIONAL_BIT - 1] = 1
    q[8 + subtype] = 1
    return q


def decode_question(q: np.ndarray):
    q = np.asarray(q)
    return int(q[:6].argmax()), bool(q[SOC_RELATIONAL_BIT]), int(q[8:11].argmax())


def answer_question(shapes: np.ndarray, centers: np.ndarray, image_size: int,
                    color: int, relational: bool, subtype: int) -> int:
    """Answer class from the scene graph.

    Shapes: 0 square / 1 circle, indexed by color.  Distance ties (possible
    with integer centers) break toward the lowest object index.
    """
    cx, cy = centers[color]
    if not relational:
        if subtype == 0:
            return int(shapes[color])           # square/circle
        if subtype == 1:
            return 2 if cx < image_size / 2 else 3   # left/right
        return 4 if cy < image_size / 2 else 5       # up/down
    d2 = ((centers - centers[color]) ** 2).sum(axis=1)
    if subtype == 0:
        d2[color] = np.iinfo(np.int64).max if d2.dtype.kind == "i" else np.inf
        return int(shapes[int(d2.argmin())])
    if subtype == 1:
        return int(shapes[int(d2.argmax())])
    count = int((shapes == shapes[color]).sum())     # includes the object itself
    return 5 + count                                  # classes 6..11


def _render_scene(shapes, centers, image_size, radius) -> np.ndarray:
    img = np.zeros((image_size, image_size, 3), dtype=np.float32)
    yy, xx = np.mgrid[0:image_size, 0:image_size]
    for idx in range(len(shapes)):
        cx, cy = centers[idx]
        if shapes[idx] == 0:
            mask = (np.abs(xx - cx) <= radius) & (np.abs(yy - cy) <= radius)
        else:
            mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius ** 2
        img[mask] = SOC_RGB[idx]
    return img


def gen_sort_of_clevr(n: int, seed: int = 0, image_size: int = 75) -> dict:
    """Scenes of six uniquely colored squares/circles with paired questions.

    Non-relational subtypes: shape of the colored object, horizontal half,
    vertical half.  Relational: shape of nearest, shape of farthest, count of
    same-shape objects.  Object centers are integers with a minimum pairwise
    separation so shapes never overlap.  The images stay float32, unlike the
    triangles': gray (``SOC_RGB``) holds 0.5, which no 0/1 byte can.
    """
    if n < 1:
        raise ConfigError("need n >= 1")
    radius = max(2, int(round(image_size / 15)))
    min_dist = 2.5 * radius
    n_q = 2 * SOC_QUESTIONS_PER_TYPE
    images = np.zeros((n, image_size, image_size, 3), dtype=np.float32)
    shapes = np.zeros((n, 6), dtype=np.uint8)
    centers = np.zeros((n, 6, 2), dtype=np.int64)
    questions = np.zeros((n, n_q, SOC_QUESTION_BITS), dtype=np.uint8)
    answers = np.zeros((n, n_q), dtype=np.int64)

    for i in range(n):
        rng = _sample_rng(seed, i)
        pts = []
        for _ in range(MAX_RETRIES):
            cand = rng.integers(radius, image_size - radius, size=2)
            if all(((cand - p) ** 2).sum() >= min_dist ** 2 for p in pts):
                pts.append(cand)
            if len(pts) == 6:
                break
        if len(pts) < 6:
            raise ConfigError(f"could not place 6 objects for scene {i}")
        centers[i] = np.stack(pts)
        shapes[i] = rng.integers(0, 2, size=6)
        images[i] = _render_scene(shapes[i], centers[i], image_size, radius)
        for j in range(n_q):
            relational = j >= SOC_QUESTIONS_PER_TYPE
            color = int(rng.integers(0, 6))
            subtype = int(rng.integers(0, 3))
            questions[i, j] = encode_question(color, relational, subtype)
            answers[i, j] = answer_question(shapes[i], centers[i], image_size,
                                            color, relational, subtype)

    return {
        "images": images, "shapes": shapes, "centers": centers,
        "questions": questions, "answers": answers,
        "params": {"task": "soc", "n": n, "image_size": image_size,
                   "seed": seed, "radius": radius,
                   "questions_per_type": SOC_QUESTIONS_PER_TYPE},
    }


# ---- copy --------------------------------------------------------------------


def gen_copy(n: int, vocab: int = 8, seq_len: int = 10, seed: int = 0) -> dict:
    """Echo task: prefix, delimiter, then the prefix again.

    ``vocab`` counts all tokens; token 0 is the delimiter, content symbols are
    1..vocab-1.  ``seq_len`` is the combined prefix+echo length (even); the
    emitted sequences have seq_len+1 tokens.  Loss applies to the echo region
    only (see ``copy_echo_rows``).
    """
    if n < 1:
        raise ConfigError("need n >= 1")
    if vocab < 2:
        raise ConfigError("vocab must be >= 2 (token 0 is the delimiter)")
    if seq_len < 2:
        raise ConfigError(f"seq_len must be >= 2 (a copy_len of at least 1), got {seq_len}")
    if seq_len % 2:
        raise ConfigError("seq_len must be even (prefix + echo)")
    half = seq_len // 2
    tokens = np.zeros((n, seq_len + 1), dtype=np.int64)
    for i in range(n):
        rng = _sample_rng(seed, i)
        prefix = rng.integers(1, vocab, size=half)
        tokens[i, :half] = prefix
        tokens[i, half] = 0
        tokens[i, half + 1:] = prefix
    return {
        "tokens": tokens,
        "params": {"task": "copy", "n": n, "vocab": vocab,
                   "seq_len": seq_len, "seed": seed},
    }


def copy_echo_rows(seq_len: int) -> slice:
    """The positions of the echo among the ``seq_len`` next-token targets."""
    return slice(seq_len // 2, seq_len)


# ---- on-disk format ----------------------------------------------------------


def save_dataset(path, data: dict) -> None:
    """The arrays (in name order) with ``params`` as the meta, in the
    serialization container under the dataset magic."""
    arrays = {k: data[k] for k in sorted(data) if k != "params"}
    _write_container(path, DATASET_MAGIC, DATASET_VERSION, arrays, data["params"])


def load_dataset(path) -> dict:
    """Memory-mapped arrays plus ``params``; a damaged or stale file raises
    CheckpointError."""
    arrays, params = _read_container(path, DATASET_MAGIC, DATASET_VERSION, "dataset",
                                     mmap=True)
    return {"params": params, **arrays}
