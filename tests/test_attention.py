import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharedworkspace import tensor as T
from sharedworkspace.attention import (ProjectionSet, SelectionPin, multihead,
                                       pinned_selections, scaled_dot_attention, topk_select)
from sharedworkspace.errors import ConfigError
from sharedworkspace.tensor import Tensor


def t64(a, **kw):
    return Tensor(np.asarray(a, dtype=np.float64), **kw)


def loop_attention_oracle(q, k, v):
    """Independent two-loop transcription: softmax(q k^T / sqrt(d)) v."""
    nq, d = q.shape
    nk = k.shape[0]
    out = np.zeros((nq, v.shape[1]))
    weights = np.zeros((nq, nk))
    for i in range(nq):
        scores = [sum(q[i, a] * k[j, a] for a in range(d)) / math.sqrt(d) for j in range(nk)]
        mx = max(scores)
        exps = [math.exp(s - mx) for s in scores]
        z = sum(exps)
        for j in range(nk):
            weights[i, j] = exps[j] / z
            for b in range(v.shape[1]):
                out[i, b] += weights[i, j] * v[j, b]
    return out, weights


def test_single_key_returns_value_for_any_query():
    rng = np.random.default_rng(0)
    q = t64(rng.normal(size=(4, 3)))
    k = t64(rng.normal(size=(1, 3)))
    v = t64(rng.normal(size=(1, 5)))
    out = scaled_dot_attention(q, k, v)
    for i in range(4):
        np.testing.assert_allclose(out.values.data[i], v.data[0], atol=1e-12)


def test_identical_keys_give_uniform_mean():
    rng = np.random.default_rng(1)
    key = rng.normal(size=3)
    q = t64(rng.normal(size=(2, 3)))
    k = t64(np.tile(key, (5, 1)))
    v = t64(rng.normal(size=(5, 4)))
    out = scaled_dot_attention(q, k, v)
    np.testing.assert_allclose(out.values.data, np.tile(v.data.mean(axis=0), (2, 1)), atol=1e-12)


def test_attention_matches_loop_oracle():
    q = t64([[1.0, 2.0], [0.0, -1.0]])
    k = t64([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]])
    v = t64([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [-1.0, 0.0, 1.0]])
    expect, expect_w = loop_attention_oracle(q.data, k.data, v.data)
    out = scaled_dot_attention(q, k, v)
    assert np.abs(out.values.data - expect).max() < 1e-12
    assert np.abs(out.weights.data - expect_w).max() < 1e-12


def test_zero_key_dim_rejected():
    with pytest.raises(ConfigError):
        scaled_dot_attention(t64(np.zeros((1, 0))), t64(np.zeros((1, 0))), t64(np.zeros((1, 1))))


# ---- top-k -------------------------------------------------------------------


def test_topk_five_of_ten():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=10)
    sel = topk_select(scores, 5)
    assert sel.indices.shape == (5,)
    assert len(set(sel.indices.tolist())) == 5
    assert set(sel.indices.tolist()) == set(np.argsort(-scores)[:5].tolist())


def test_topk_equals_soft_at_k_n_bitwise():
    rng = np.random.default_rng(3)
    q = t64(rng.normal(size=(3, 4)))
    k = t64(rng.normal(size=(6, 4)))
    v = t64(rng.normal(size=(6, 5)))
    soft = scaled_dot_attention(q, k, v)
    hard = scaled_dot_attention(q, k, v, topk=6)
    assert (soft.values.data == hard.values.data).all()
    assert (soft.weights.data == hard.weights.data).all()


def test_topk_tie_breaks_to_lowest_index():
    sel = topk_select(np.array([3.0, 3.0, 1.0]), 1)
    assert sel.indices.tolist() == [0]


def stable_sort_topk(raw, k):
    """Reference selection: the first k of a stable descending sort."""
    return np.sort(np.argsort(-raw, axis=-1, kind="stable")[..., :k], axis=-1)


def _topk_scores(kind, rng):
    if kind == "random":
        return rng.normal(size=(6, 4, 9)).astype(np.float32)
    if kind == "integer-ties":
        return rng.integers(0, 3, size=(6, 4, 9)).astype(np.float64)
    if kind == "causal":
        # (batch, query, slot, head, key) with keys after the query masked,
        # so the early rows tie at the sentinel.
        raw = rng.normal(size=(3, 7, 2, 2, 7))
        causal = np.tril(np.ones((7, 7), dtype=bool))[None, :, None, None, :]
        return np.where(causal, raw, T.MASK_VALUE)
    return rng.normal(size=11)   # 1-D


@pytest.mark.parametrize("kind", ["random", "integer-ties", "causal", "1-d"])
def test_topk_matches_stable_sort(kind):
    raw = _topk_scores(kind, np.random.default_rng(12))
    n = raw.shape[-1]
    for k in range(1, n + 1):
        sel = topk_select(raw, k)
        expect = stable_sort_topk(raw, k)
        np.testing.assert_array_equal(sel.indices, expect)
        mask = np.zeros_like(raw)
        np.put_along_axis(mask, expect, 1.0, axis=-1)
        np.testing.assert_array_equal(sel.keep_mask, mask)
    assert (topk_select(raw, n).keep_mask == 1.0).all()


def test_topk_replays_pinned_selection():
    rng = np.random.default_rng(13)
    first, second = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    pin = SelectionPin()
    with pinned_selections(pin):
        recorded = topk_select(first, 2).indices
        pin.restart()
        replayed = topk_select(second, 2)
    np.testing.assert_array_equal(recorded, stable_sort_topk(first, 2))
    np.testing.assert_array_equal(replayed.indices, recorded)
    assert (replayed.keep_mask.sum(axis=-1) == 2).all()


def test_topk_out_of_range_rejected():
    with pytest.raises(ConfigError):
        topk_select(np.zeros(3), 0)
    with pytest.raises(ConfigError):
        topk_select(np.zeros(3), 4)


def test_topk_weights_sum_to_retained_soft_mass():
    rng = np.random.default_rng(4)
    q = t64(rng.normal(size=(2, 4)))
    k = t64(rng.normal(size=(7, 4)))
    v = t64(rng.normal(size=(7, 3)))
    soft = scaled_dot_attention(q, k, v)
    hard = scaled_dot_attention(q, k, v, topk=3)
    selected = topk_select(q.data @ k.data.T / np.sqrt(4), 3).indices
    for i in range(2):
        kept = selected[i]
        np.testing.assert_allclose(hard.weights.data[i].sum(),
                                   soft.weights.data[i, kept].sum(), atol=1e-12)


# ---- masking -----------------------------------------------------------------


def test_masked_positions_receive_tiny_weight():
    rng = np.random.default_rng(5)
    q = t64(rng.normal(size=(2, 4)))
    k = t64(rng.normal(size=(5, 4)))
    v = t64(rng.normal(size=(5, 3)))
    mask = np.array([[1, 1, 0, 1, 1], [1, 0, 1, 1, 1]])
    out = scaled_dot_attention(q, k, v, mask=mask)
    assert out.weights.data[0, 2] < 1e-30
    assert out.weights.data[1, 1] < 1e-30


def test_fully_masked_value_row_gets_zero_grad():
    rng = np.random.default_rng(6)
    q = t64(rng.normal(size=(2, 4)))
    k = t64(rng.normal(size=(3, 4)), requires_grad=True)
    v = t64(rng.normal(size=(3, 3)), requires_grad=True)
    mask = np.array([[1, 1, 0], [1, 1, 0]])
    out = scaled_dot_attention(q, k, v, mask=mask)
    T.tsum(out.values).backward()
    np.testing.assert_array_equal(v.grad[2], 0.0)
    np.testing.assert_array_equal(k.grad[2], 0.0)


# ---- multihead ---------------------------------------------------------------


def test_multihead_one_head_reduces_to_scaled_dot():
    rng = np.random.default_rng(7)
    proj = ProjectionSet(rng, 6, 6, 6, n_heads=1, key_dim=4, value_dim=5, dtype=np.float64)
    x = t64(rng.normal(size=(3, 6)))
    out = multihead(x, x, proj)
    q = x.data @ proj.w_q.data
    k = x.data @ proj.w_e.data
    v = x.data @ proj.w_v.data
    inner = scaled_dot_attention(t64(q), t64(k), t64(v))
    expect = inner.values.data @ proj.w_o.data
    np.testing.assert_allclose(out.values.data, expect, atol=1e-12)


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_multihead_output_shape_law(n_heads):
    rng = np.random.default_rng(8)
    proj = ProjectionSet(rng, 8, 8, 12, n_heads=n_heads, key_dim=3, value_dim=3)
    q = Tensor(rng.normal(size=(2, 5, 8)).astype(np.float32))
    kv = Tensor(rng.normal(size=(2, 7, 8)).astype(np.float32))
    out = multihead(q, kv, proj)
    assert out.values.shape == (2, 5, 12)
    assert out.weights.shape == (2, n_heads, 5, 7)


def test_multihead_two_heads_vs_per_head_oracle():
    rng = np.random.default_rng(9)
    proj = ProjectionSet(rng, 4, 4, 6, n_heads=2, key_dim=3, value_dim=2, dtype=np.float64)
    x = rng.normal(size=(5, 4))
    heads = []
    for h in range(2):
        wq = proj.w_q.data[:, h * 3:(h + 1) * 3]
        we = proj.w_e.data[:, h * 3:(h + 1) * 3]
        wv = proj.w_v.data[:, h * 2:(h + 1) * 2]
        out_h, _ = loop_attention_oracle(x @ wq, x @ we, x @ wv)
        heads.append(out_h)
    expect = np.concatenate(heads, axis=-1) @ proj.w_o.data
    out = multihead(t64(x), t64(x), proj)
    assert np.abs(out.values.data - expect).max() < 1e-12


# ---- permutation invariance ---------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_attention_permutation_invariance_f32(seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(3, 4)).astype(np.float32)
    k = rng.normal(size=(6, 4)).astype(np.float32)
    v = rng.normal(size=(6, 5)).astype(np.float32)
    perm = rng.permutation(6)
    a = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v)).values.data
    b = scaled_dot_attention(Tensor(q), Tensor(k[perm]), Tensor(v[perm])).values.data
    assert np.abs(a - b).max() <= 1e-5
