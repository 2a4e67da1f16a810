"""Scaled dot-product attention, multi-head wrapper, and top-k competition.

Top-k competition computes the full softmax and then zeroes the non-selected
entries without renormalizing: selected entries keep their original soft
score, and k == n reproduces the soft path bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    indices: np.ndarray     # (..., k), ascending within each row
    keep_mask: np.ndarray   # 0/1 mask, shape of input


class SelectionPin:
    """Records top-k routing decisions and replays them on later forwards.

    Hard selection makes the loss piecewise smooth; finite-difference
    verification needs the routing frozen so that it differentiates a single
    smooth branch.  Use ``pinned_selections`` around the forwards and call
    ``restart()`` at the start of each one; selections are replayed in call
    order.
    """

    def __init__(self):
        self._recorded = []
        self._cursor = 0

    def restart(self):
        self._cursor = 0

    def next_indices(self, compute):
        if self._cursor < len(self._recorded):
            idx = self._recorded[self._cursor]
        else:
            idx = compute()
            self._recorded.append(idx)
        self._cursor += 1
        return idx


_active_pin: SelectionPin | None = None


class pinned_selections:
    def __init__(self, pin: SelectionPin):
        self.pin = pin

    def __enter__(self):
        global _active_pin
        self._prev = _active_pin
        _active_pin = self.pin
        return self.pin

    def __exit__(self, *exc):
        global _active_pin
        _active_pin = self._prev
        return False


def topk_select(scores, k: int) -> SelectionResult:
    """Indices of the k largest scores along the last axis, ascending.

    Ties break toward the lowest index, as in a stable sort; the result is
    deterministic.  A partition finds the k largest, and only rows whose
    k-th score is tied fall back to a full stable sort.
    """
    raw = scores.data if isinstance(scores, Tensor) else np.asarray(scores)
    n = raw.shape[-1]
    if not 1 <= k <= n:
        raise ConfigError(f"top-k k={k} out of range for {n} scores")

    def compute():
        neg = -raw
        idx = np.argpartition(neg, k - 1, axis=-1)[..., :k]
        kth = np.take_along_axis(neg, idx[..., k - 1:], axis=-1)
        # Where the k-th score ties with one left out (or is NaN), the
        # partition may have kept the wrong one of the tie: only those rows
        # are redone by stable sort, which keeps the lowest indices.
        tied = np.count_nonzero(neg <= kth, axis=-1) != k
        if tied.any():
            idx[tied] = np.argsort(neg[tied], axis=-1, kind="stable")[..., :k]
        return np.sort(idx, axis=-1)

    idx = compute() if _active_pin is None else _active_pin.next_indices(compute)
    mask = np.zeros_like(raw)
    np.put_along_axis(mask, idx, 1.0, axis=-1)
    return SelectionResult(indices=idx, keep_mask=mask)


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
    if topk is not None:
        keep = topk_select(scores.data, topk).keep_mask
        weights = T.masked_softmax_retain(scores, keep, axis=-1)
    else:
        weights = T.softmax(scores, axis=-1)
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
    (..., H, n_q, n_k).
    """
    q = _split_heads(T.matmul(q_src, proj.w_q), proj.n_heads, proj.key_dim)
    k = _split_heads(T.matmul(kv_src, proj.w_e), proj.n_heads, proj.key_dim)
    v = _split_heads(T.matmul(kv_src, proj.w_v), proj.n_heads, proj.value_dim)
    if mask is not None:
        mask = np.asarray(mask)
        if mask.ndim == 3:
            # (batch, n_q, n_k): insert the head axis.  Masks with more dims
            # are taken as-is; the caller has already placed the head axis.
            mask = np.expand_dims(mask, -3)
    att = scaled_dot_attention(q, k, v, mask=mask, topk=topk)
    out = T.matmul(_merge_heads(att.values), proj.w_o)
    return AttentionOutput(values=out, weights=att.weights)
