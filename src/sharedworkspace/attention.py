"""Scaled dot-product attention, multi-head wrapper, and top-k competition.

Top-k competition computes the full softmax and then zeroes the non-selected
entries without renormalizing: selected entries keep their original soft
score, and k == n reproduces the soft path bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import MASK_VALUE, Tensor


@dataclass
class AttentionOutput:
    values: Tensor          # (..., n_queries, value_dim)
    weights: Tensor         # (..., n_queries, n_keys)


@dataclass
class SelectionResult:
    keep_mask: np.ndarray   # boolean, shape of the scores
    k: int

    @cached_property
    def indices(self) -> np.ndarray:
        """(..., k), ascending within each row; read off the mask on first
        use, since most callers need only the mask."""
        flat = np.flatnonzero(self.keep_mask) % self.keep_mask.shape[-1]
        return flat.reshape(self.keep_mask.shape[:-1] + (self.k,))


class SelectionPin:
    """Records top-k routing decisions and replays them on later forwards.

    Hard selection makes the loss piecewise smooth; finite-difference
    verification needs the routing frozen so that it differentiates a single
    smooth branch.  Run each forward inside ``with pin:``, which installs the
    pin and rewinds it: the first forward records every selection in call
    order, and later forwards get the recorded ones back.
    """

    def __init__(self):
        self._recorded = []
        self._cursor = 0

    def __enter__(self):
        global _active_pin
        self._prev, _active_pin = _active_pin, self
        self._cursor = 0
        return self

    def __exit__(self, *exc):
        global _active_pin
        _active_pin = self._prev
        return False

    def select(self, compute) -> SelectionResult:
        if self._cursor == len(self._recorded):
            self._recorded.append(compute())
        self._cursor += 1
        return self._recorded[self._cursor - 1]


_active_pin: SelectionPin | None = None


def topk_select(scores, k: int) -> SelectionResult:
    """The k largest scores along the last axis; ties go to the lowest index.

    One row sort gives the k-th largest as a threshold; only rows where it ties
    a score left out, or that hold a NaN, are redone by stable argsort.  It
    skips argpartition and per-row counts, slow on the workspace's short rows.
    """
    raw = scores.data if isinstance(scores, Tensor) else np.asarray(scores)
    n = raw.shape[-1]
    if not 1 <= k <= n:
        raise ConfigError(f"top-k k={k} out of range for {n} scores")

    def compute():
        s = np.sort(raw, axis=-1)                  # NaN sorts last
        keep = raw >= s[..., n - k, None]
        redo = np.isnan(s[..., -1])
        if k < n:
            redo |= s[..., n - k - 1] >= s[..., n - k]
        if redo.any():
            rank = np.argsort(np.argsort(-raw[redo], axis=-1, kind="stable"), axis=-1)
            keep[redo] = rank < k
        return SelectionResult(keep, k)

    return compute() if _active_pin is None else _active_pin.select(compute)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, mask=None,
                         topk: int | None = None) -> AttentionOutput:
    """softmax(q k^T / sqrt(d)) v with optional boolean mask and top-k.

    ``mask`` broadcasts to (..., n_queries, n_keys); zero/False entries are
    pushed to the -1e9 sentinel before the softmax.  In top-k mode selection
    happens on the pre-softmax scores, after masking.
    """
    d = q.shape[-1]
    if d == 0:
        raise ConfigError("attention key dimension must be positive")
    if k.shape[-1] != d:
        raise ConfigError(f"query/key dims disagree: {q.shape} vs {k.shape}")
    scores = T.mul(T.matmul(q, T.swapaxes(k, -1, -2)), 1.0 / np.sqrt(d))
    if mask is not None:
        m = np.asarray(mask, dtype=scores.dtype)
        scores = T.add(scores, (1.0 - m) * MASK_VALUE)
    keep = None if topk is None else topk_select(scores.data, topk).keep_mask
    weights = T.softmax(scores, axis=-1, keep=keep)
    out = T.matmul(weights, v)
    return AttentionOutput(values=out, weights=weights)


class ProjectionSet(T.Module):
    """Per-head query/key/value projections plus the output projection."""

    def __init__(self, rng: np.random.Generator, q_dim: int, kv_dim: int, out_dim: int,
                 n_heads: int, key_dim: int, value_dim: int, dtype=np.float32, prefix="mha"):
        if n_heads < 1:
            raise ConfigError("need at least one attention head")
        self.n_heads = n_heads
        self.key_dim = key_dim
        self.value_dim = value_dim
        self.out_dim = out_dim
        self.w_q = T.linear_init(rng, q_dim, n_heads * key_dim, dtype, f"{prefix}.w_q")
        self.w_e = T.linear_init(rng, kv_dim, n_heads * key_dim, dtype, f"{prefix}.w_e")
        self.w_v = T.linear_init(rng, kv_dim, n_heads * value_dim, dtype, f"{prefix}.w_v")
        self.w_o = T.linear_init(rng, n_heads * value_dim, out_dim, dtype, f"{prefix}.w_o")


def _split_heads(x: Tensor, n_heads: int, head_dim: int) -> Tensor:
    # (..., n, H*hd) -> (..., H, n, hd)
    new_shape = x.shape[:-1] + (n_heads, head_dim)
    return T.swapaxes(T.reshape(x, new_shape), -2, -3)


def _merge_heads(x: Tensor) -> Tensor:
    # (..., H, n, hd) -> (..., n, H*hd)
    x = T.swapaxes(x, -2, -3)
    new_shape = x.shape[:-2] + (x.shape[-2] * x.shape[-1],)
    return T.reshape(x, new_shape)


def multihead(q_src: Tensor, kv_src: Tensor, proj: ProjectionSet, mask=None,
              topk: int | None = None) -> AttentionOutput:
    """Multi-head scaled dot-product attention over projected inputs.

    Queries come from ``q_src`` (..., n_q, q_dim) and keys/values from
    ``kv_src`` (..., n_k, kv_dim).  Head outputs are concatenated and
    projected to ``proj.out_dim``.  Returned weights have shape
    (..., H, n_q, n_k), and ``mask`` broadcasts to that shape.  Weights with
    a leading stack axis pair it with the inputs' last batch axis.
    """
    q = _split_heads(T.matmul(q_src, proj.w_q), proj.n_heads, proj.key_dim)
    k = _split_heads(T.matmul(kv_src, proj.w_e), proj.n_heads, proj.key_dim)
    v = _split_heads(T.matmul(kv_src, proj.w_v), proj.n_heads, proj.value_dim)
    att = scaled_dot_attention(q, k, v, mask=mask, topk=topk)
    out = T.matmul(_merge_heads(att.values), proj.w_o)
    return AttentionOutput(values=out, weights=att.weights)
