import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sharedworkspace
from sharedworkspace import tensor as T
from sharedworkspace.gradcheck import NonDeterministicError, grad_check
from sharedworkspace.optim import Adam, NumericError, cosine_lr
from sharedworkspace.tensor import ShapeError, Tensor


def t64(a, requires_grad=False, name=None):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=requires_grad, name=name)


# ---- matmul ------------------------------------------------------------------


def test_matmul_identity():
    a = np.arange(9.0).reshape(3, 3)
    out = T.matmul(t64(np.eye(3)), t64(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_zero_grads():
    a = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
    z = t64(np.zeros((3, 2)))
    out = T.matmul(a, z)
    np.testing.assert_array_equal(out.data, 0.0)
    T.tsum(out).backward()
    np.testing.assert_array_equal(a.grad, 0.0)


def test_matmul_against_triple_loop_oracle():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    # Independent brute-force oracle: explicit triple loop.
    expect = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            acc = 0.0
            for k in range(4):
                acc += a[i, k] * b[k, j]
            expect[i, j] = acc
    out = T.matmul(t64(a), t64(b))
    assert np.abs(out.data - expect).max() < 1e-12


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 2))))


def test_batched_matmul_gradcheck():
    rng = np.random.default_rng(3)
    a = t64(rng.normal(size=(2, 3, 4)), requires_grad=True, name="a")
    b = t64(rng.normal(size=(2, 4, 5)), requires_grad=True, name="b")
    def f(p):
        return T.tsum(T.mul(T.matmul(p["a"], p["b"]), 0.5))
    rep = grad_check(f, {"a": a, "b": b}, max_entries_per_param=None)
    assert rep.passed, rep.per_param


def _reference_matmul_grads(a, b, g):
    """Per-batch matmul backward: one product per broadcast batch element,
    then summed by ``_unbroadcast``.  Kept as the reference that the folded
    one-GEMM backward must reproduce."""
    if b.ndim == 1:
        ga = T._unbroadcast(np.multiply.outer(g, b) if g.ndim else g * b, a.shape)
        gb = T._unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g[..., None])[..., 0]
                            if a.ndim > 1 else a * g, b.shape)
        return ga, gb
    ga = T._unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape)
    gb = T._unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape)
    return ga, gb


# Tolerances follow from the dtype alone.  Each entry is a sum
# whose order changed, so its error scales with the sum of the absolute terms
# (the reference evaluated on |a|, |b|, |g|), not with the entry itself.
_MATMUL_GRAD_TOL = {np.float64: (1e-12, 0.0), np.float32: (1e-4, 1e-6)}


def _check_matmul_grads_against_reference(a_shape, b_shape, dtype, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=a_shape).astype(dtype)
    b = rng.normal(size=b_shape).astype(dtype)
    g = rng.normal(size=np.matmul(a, b).shape).astype(dtype)
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    T.matmul(ta, tb).backward(g)
    rtol, atol = _MATMUL_GRAD_TOL[dtype]
    expect = _reference_matmul_grads(a, b, g)
    scale = _reference_matmul_grads(np.abs(a), np.abs(b), np.abs(g))
    for got, ref, mag in zip((ta.grad, tb.grad), expect, scale):
        assert got.shape == ref.shape and got.dtype == dtype
        assert (np.abs(got - ref) <= rtol * mag + atol).all(), np.abs(got - ref).max()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("a_shape,b_shape", [
    ((4, 7, 6), (6, 5)),                 # 2-D weight against (B, T, d)
    ((3, 4, 2, 1, 6), (2, 6, 5)),        # per-mechanism (n_b, dm, f) weights
    ((7, 7), (3, 7, 5)),                 # (T, T) prefix mean against (B, T, n)
    ((2, 5, 2, 3, 4), (2, 1, 2, 4, 5)),  # scores against (B, 1, H, dk, T) writers
    ((2, 5, 2, 3, 5), (2, 1, 2, 5, 4)),  # weights against (B, 1, H, T, dv) values
    ((3, 4, 1, 6), (4, 6, 5)),           # per-specialist RIMs weights
    ((3, 4, 6), (6,)),                   # 1-D right operand
    ((2, 3, 4), (2, 4, 5)),              # equal batch axes
])
def test_matmul_grads_match_per_batch_reference(a_shape, b_shape, dtype):
    _check_matmul_grads_against_reference(a_shape, b_shape, dtype, seed=0)


@st.composite
def _broadcastable_matmul_shapes(draw):
    a_batch, b_batch = [], []
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.integers(1, 3))
        owner = draw(st.sampled_from(["both", "a", "b"]))
        a_batch.append(size if owner != "b" else 1)
        b_batch.append(size if owner != "a" else 1)
    # Broadcasting also lets an operand leave out leading size-1 axes.
    for batch in (a_batch, b_batch):
        while batch and batch[0] == 1 and draw(st.booleans()):
            batch.pop(0)
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    b_shape = (k,) if draw(st.booleans()) else tuple(b_batch) + (k, n)
    return tuple(a_batch) + (m, k), b_shape


@settings(max_examples=200, deadline=None)
@given(_broadcastable_matmul_shapes(), st.sampled_from([np.float64, np.float32]),
       st.integers(0, 2**32 - 1))
def test_matmul_grads_match_reference_on_random_broadcasts(shapes, dtype, seed):
    _check_matmul_grads_against_reference(*shapes, dtype, seed)


@pytest.mark.parametrize("a_shape,b_shape", [
    ((2, 3, 4), (4, 5)),           # 2-D weight against a 3-D input
    ((3, 4), (2, 4, 5)),           # 2-D left operand against a batched right one
    ((2, 3, 2, 1, 4), (2, 4, 3)),  # (n_b, dm, f) weight against (B, T, n_b, 1, dm)
    ((4,), (2, 4, 3)),             # 1-D left operand against a batched right one
])
def test_broadcast_matmul_gradcheck(a_shape, b_shape):
    rng = np.random.default_rng(4)
    a = t64(rng.normal(size=a_shape), requires_grad=True, name="a")
    b = t64(rng.normal(size=b_shape), requires_grad=True, name="b")
    w = rng.normal(size=np.matmul(a.data, b.data).shape)
    def f(p):
        return T.tsum(T.mul(T.matmul(p["a"], p["b"]), w))
    rep = grad_check(f, {"a": a, "b": b}, max_entries_per_param=None)
    assert rep.passed, rep.per_param


def test_gradients_never_share_memory():
    rng = np.random.default_rng(6)
    a = t64(rng.normal(size=(2, 3)), requires_grad=True)
    b = t64(rng.normal(size=(2, 3)), requires_grad=True)
    T.tsum(T.add(a, b)).backward()
    assert not np.shares_memory(a.grad, b.grad)

    # ``add`` hands one array to both operands; an aliased first gradient
    # would take the second contribution to ``a`` into ``b`` as well.
    a.zero_grad()
    b.zero_grad()
    g = rng.normal(size=(2, 3))
    T.add(T.add(a, b), a).backward(g)
    assert not np.shares_memory(a.grad, b.grad)
    np.testing.assert_array_equal(a.grad, 2.0 * g)
    np.testing.assert_array_equal(b.grad, g)

    a.zero_grad()
    c = t64(rng.normal(size=(3, 2)), requires_grad=True)
    T.add(T.swapaxes(T.reshape(a, (3, 2)), 0, 1), T.reshape(c, (2, 3))).backward(g)
    assert not np.shares_memory(a.grad, c.grad)
    assert not np.shares_memory(a.grad, g) and not np.shares_memory(c.grad, g)
    np.testing.assert_array_equal(a.grad, g.T.reshape(2, 3))
    np.testing.assert_array_equal(c.grad, g.reshape(3, 2))


def test_constant_operands_get_no_gradient():
    rng = np.random.default_rng(8)
    patches = Tensor(rng.normal(size=(4, 3)).astype(np.float32))
    w = Tensor(rng.normal(size=(3, 3)).astype(np.float32), requires_grad=True)
    y = T.add(T.mul(T.matmul(patches, w), patches), patches)
    T.tsum(T.mul(y, 0.5)).backward()
    assert patches.grad is None
    assert w.grad is not None and w.grad.shape == (3, 3)


def test_broadcast_matmul_backward_builds_no_per_batch_stack():
    # tracemalloc sees numpy buffers.  A per-batch (B, d, e) stack of weight
    # gradients, summed afterwards, would lift the peak past this bound.
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(64, 65, 64)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(64, 128)).astype(np.float32), requires_grad=True)
    out = T.matmul(x, w)
    g = rng.normal(size=out.shape).astype(np.float32)
    tracemalloc.start()
    try:
        out.backward(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = x.grad.nbytes + 64 * 64 * 128 * g.itemsize
    assert peak < bound, (peak, bound)


def test_backward_consumes_interior_nodes_and_leaves_own_their_gradients():
    rng = np.random.default_rng(10)
    x = t64(rng.normal(size=(3, 4)), requires_grad=True)
    w = t64(rng.normal(size=(4, 2)), requires_grad=True)
    h = T.tanh(T.matmul(x, w))
    y = T.add(T.reshape(h, (2, 3)), 1.0)
    closures = {id(n): n._backward for n in (h, y)}
    g = rng.normal(size=(2, 3))
    y.backward(g)
    for node in (h, y):
        assert node.grad is None and node._prev == ()
        assert node._backward is not closures[id(node)]
    for leaf in (x, w):
        assert leaf.grad.flags.owndata and leaf.grad.flags.c_contiguous
        assert not np.shares_memory(leaf.grad, g)


def test_second_backward_through_consumed_graph_raises():
    x = t64([1.0, 2.0], requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    loss.backward()
    first = x.grad.copy()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    # A new graph over a consumed node is refused too, before any gradient moves.
    mid = T.mul(x, 3.0)
    T.tsum(mid).backward()
    with pytest.raises(RuntimeError, match="consumed"):
        T.tsum(T.add(mid, x)).backward()
    np.testing.assert_array_equal(x.grad, first + 3.0)


@pytest.mark.parametrize("second", ["take", "mul"])
def test_borrowed_gradient_is_copied_before_a_write(second):
    # ``add`` hands one gradient array to ``h`` and ``c``.  A second
    # contribution to ``h`` (``take``'s scatter-add or an in-place sum) must
    # not reach ``c``'s gradient, which is read after it because ``h`` is
    # computed from ``c``.  Which consumer of ``h`` runs first depends on the
    # operand orders, so all four are tried.  Integer values keep sums exact.
    w = np.array([1.0, 2.0, 3.0, 4.0])
    idx = np.array([0, 2, 2])
    expect = 2.0 * w
    if second == "take":
        np.add.at(expect, idx, 10.0)
    else:
        expect += 10.0
    for swap_add, swap_loss in ((False, False), (True, False), (False, True), (True, True)):
        z = t64(np.zeros(4), requires_grad=True)
        c = T.mul(z, 1.0)
        h = T.mul(c, 1.0)
        s = T.add(c, h) if swap_add else T.add(h, c)
        other = T.take(h, idx) if second == "take" else h
        terms = [T.tsum(T.mul(s, w)), T.tsum(T.mul(other, 10.0))]
        T.add(*(terms[::-1] if swap_loss else terms)).backward()
        np.testing.assert_array_equal(z.grad, expect)


def test_backward_through_elementwise_chain_peaks_at_a_few_arrays():
    # Each interior gradient is freed once its closure has run, so the peak
    # does not grow with the length of the chain.
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(256, 256)), requires_grad=True)
    y = x
    for _ in range(16):
        y = T.tanh(T.mul(y, 0.9))
    g = np.ones(y.shape)
    tracemalloc.start()
    try:
        y.backward(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 5 * g.nbytes
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_select_form(dtype):
    rng = np.random.default_rng(22)
    x = np.concatenate([rng.normal(size=400) * s for s in (1.0, 30.0, 1e3)]
                       + [[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e3, -1e3]]).astype(dtype)
    e = np.exp(-np.abs(x))
    expect = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    got = T.sigmoid(Tensor(x)).data
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, expect)           # values and NaN positions
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expect))


# ---- softmax -----------------------------------------------------------------


def test_softmax_uniform_on_equal_inputs():
    out = T.softmax(t64([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-12)


def test_softmax_shift_invariance():
    x = np.array([0.3, -1.2, 2.5, 0.0])
    a = T.softmax(t64(x)).data
    b = T.softmax(t64(x + 17.5)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_frozen_values():
    # Expected values evaluated independently at extended precision.
    e = [math.exp(v) for v in (1.0, 2.0, 3.0)]
    s = sum(e)
    expect = [v / s for v in e]
    np.testing.assert_allclose(expect, [0.09003057, 0.24472847, 0.66524096], atol=5e-9)
    out = T.softmax(t64([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_softmax_all_masked_row_is_zero():
    out = T.softmax(t64([T.MASK_VALUE, T.MASK_VALUE, T.MASK_VALUE]))
    np.testing.assert_array_equal(out.data, 0.0)


def test_softmax_zeroes_only_the_all_masked_rows():
    x = np.array([[T.MASK_VALUE, T.MASK_VALUE, T.MASK_VALUE],
                  [0.5, T.MASK_VALUE, -1.0]])
    out = T.softmax(t64(x)).data
    np.testing.assert_array_equal(out[0], 0.0)
    assert (out[1] == T.softmax(t64(x[1])).data).all() and out[1].sum() > 0.99


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_softmax_dead_rows_are_rows_entirely_at_the_sentinel():
    m, nan = T.MASK_VALUE, np.nan
    x = np.array([[m, m, m], [m, 0.0, m], [m, nan, m], [nan, nan, nan], [m, m, 2 * m]])
    for axis in (-1, 0):
        sums = T.softmax(t64(x), axis=axis).data.sum(axis=axis)
        dead = (x <= m / 2).all(axis=axis)
        assert (sums[dead] == 0.0).all()
        assert not (sums[~dead] == 0.0).any()   # 1, or NaN for a row holding NaN


def _softmax_by_full_max(x):
    top = x.max(axis=-1, keepdims=True)
    y = x - top
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    np.copyto(y, 0.0, where=top <= T.MASK_VALUE / 2)
    shifted = x - top
    return y, shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("width", [T._SHORT_ROW, T._SHORT_ROW + 1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_row_max_is_bitwise_the_full_max(width, dtype):
    """Rows as long as the column-wise max's cutoff and one longer, with an
    all-masked row and a NaN row, give the bits of the ``x.max`` formula."""
    x = np.random.default_rng(23).normal(size=(3, 5, width)).astype(dtype)
    x[0, :2] = T.MASK_VALUE
    x[0, 1, width // 2] = np.nan                  # a NaN among masked scores
    x[1, 2, :width // 2] = T.MASK_VALUE
    soft, log_soft = _softmax_by_full_max(x)
    for got, expect in ((T.softmax(Tensor(x)).data, soft),
                        (T.log_softmax(Tensor(x)).data, log_soft)):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.view(np.uint8), expect.view(np.uint8))
    assert (soft[0, 0] == 0.0).all() and np.isnan(soft[0, 1]).all()


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, (4, 5), elements=st.floats(-1e4, 1e4)))
def test_softmax_rows_sum_to_one_no_nan(x):
    out = T.softmax(t64(x), axis=-1).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)


def test_masked_softmax_retain_all_ones_is_softmax_bitwise():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 6))
    soft = T.softmax(t64(x)).data
    kept = T.softmax(t64(x), keep=np.ones((3, 6))).data
    assert (soft == kept).all()


def test_softmax_keep_gradcheck_every_entry():
    # Rows: a partial keep, a partial keep over masked scores, a row entirely
    # at the sentinel (zeros out, zero gradient) and an all-ones keep.
    rng = np.random.default_rng(24)
    x = rng.normal(size=(4, 6))
    x[1, :2] = T.MASK_VALUE
    x[2] = T.MASK_VALUE
    keep = np.array([[1, 0, 1, 1, 0, 0], [0, 1, 1, 0, 1, 0],
                     [1, 1, 0, 0, 0, 1], [1, 1, 1, 1, 1, 1]])
    w = rng.normal(size=(4, 6))
    a = t64(x, requires_grad=True, name="a")

    def f(p):
        return T.tsum(T.mul(T.softmax(p["a"], keep=keep), w))
    rep = grad_check(f, {"a": a}, max_entries_per_param=None)
    assert rep.max_rel_err < 1e-8, rep.per_param
    assert (a.grad[2] == 0.0).all()      # left by grad_check's backward
    out = T.softmax(a, keep=keep).data
    assert (out[keep == 0] == 0.0).all() and (out[2] == 0.0).all()


# ---- grad_check --------------------------------------------------------------


def test_gradcheck_sum_of_squares():
    x = t64(np.linspace(-2, 2, 7), requires_grad=True, name="x")
    def f(p):
        return T.tsum(T.mul(p["x"], p["x"]))
    rep = grad_check(f, {"x": x}, max_entries_per_param=None)
    assert rep.max_rel_err < 1e-10
    f(dict(x=x)).backward()


def test_gradcheck_rejects_float32():
    x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="float64"):
        grad_check(lambda p: T.tsum(p["x"]), {"x": x})


def test_gradcheck_detects_nondeterminism():
    state = {"n": 0}
    x = t64([1.0], requires_grad=True)
    def f(p):
        state["n"] += 1
        return T.tsum(T.mul(p["x"], float(state["n"])))
    with pytest.raises(NonDeterministicError):
        grad_check(f, {"x": x})


def test_gradcheck_detects_corrupted_backward():
    # Negative control: an op with a deliberately wrong backward rule.
    x = t64([0.5, -1.5, 2.0], requires_grad=True, name="x")
    def bad_square(t):
        out = T.Tensor(t.data * t.data)
        out.requires_grad = True
        out._prev = (t,)
        def _bw(g):
            T._accum(t, g * 3.0 * t.data)  # wrong: should be 2x
        out._backward = _bw
        return out
    def f(p):
        return T.tsum(bad_square(p["x"]))
    rep = grad_check(f, {"x": x}, max_entries_per_param=None)
    assert not rep.passed


def test_gradcheck_layer_norm_and_composites():
    rng = np.random.default_rng(5)
    # Rows with one gain, and a 4-D interior input with a gain per mechanism.
    for x_shape, g_shape in (((4, 6), (6,)), ((2, 3, 4, 5), (4, 5))):
        params = {
            "x": t64(rng.normal(size=x_shape), requires_grad=True, name="x"),
            "g": t64(rng.normal(size=g_shape), requires_grad=True, name="g"),
            "b": t64(rng.normal(size=g_shape), requires_grad=True, name="b"),
        }
        def f(p):
            y = T.layer_norm(p["x"], p["g"], p["b"])
            return T.tsum(T.mul(T.sigmoid(y), T.tanh(y)))
        rep = grad_check(f, params, max_entries_per_param=None)
        assert rep.passed, (x_shape, rep.per_param)


def _power(a, p):
    """``a ** p`` as a tape node, for the composite reference below."""
    out = T._make(a.data ** p, (a,))
    if out.requires_grad:
        out._backward = lambda g: T._accum(a, g * p * a.data ** (p - 1.0), fresh=True)
    return out


def composite_layer_norm(x, gain, bias, eps=1e-5):
    """Layer norm composed from engine ops, in the arithmetic order that
    ``T.layer_norm`` keeps."""
    mu = T.tmean(x, axis=-1, keepdims=True)
    centered = T.add(x, T.mul(mu, -1.0))
    var = T.tmean(T.mul(centered, centered), axis=-1, keepdims=True)
    inv = _power(T.add(var, eps), -0.5)
    return T.add(T.mul(T.mul(centered, inv), gain), bias)


@pytest.mark.parametrize("x_shape,g_shape", [((3, 7, 64), (64,)), ((5, 48), (48,)),
                                             ((2, 6, 3, 10), (3, 10)), ((4, 1), (1,))])
def test_layer_norm_is_one_node_with_composite_forward_bits(x_shape, g_shape):
    rng = np.random.default_rng(8)
    x = rng.normal(loc=3.0, scale=2.0, size=x_shape)
    g, b = rng.normal(size=g_shape), rng.normal(size=g_shape)
    for dt in (np.float32, np.float64):
        args = [Tensor(a.astype(dt), requires_grad=True) for a in (x, g, b)]
        fused, composed = T.layer_norm(*args), composite_layer_norm(*args)
        assert fused.dtype == dt and fused._prev == tuple(args)
        assert fused.data.tobytes() == composed.data.tobytes()
    # float64 gradients of one upstream gradient through both versions.
    up = rng.normal(size=x_shape)
    grads = []
    for ln in (T.layer_norm, composite_layer_norm):
        args = [t64(a, requires_grad=True) for a in (x, g, b)]
        ln(*args).backward(up)
        grads.append([a.grad for a in args])
    for fused_g, composed_g in zip(*grads):
        assert np.abs(fused_g - composed_g).max() <= 1e-9 * np.abs(composed_g).max()


def test_layer_norm_without_tape_records_nothing():
    x = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
    g, b = t64(np.ones(3), requires_grad=True), t64(np.zeros(3), requires_grad=True)
    with T.no_grad():
        y = T.layer_norm(x, g, b)
    assert not y.requires_grad and y._backward is None and y._prev == ()
    y = T.layer_norm(Tensor(x.data), Tensor(g.data), Tensor(b.data))
    assert not y.requires_grad and y._backward is None


def test_cross_entropy_matches_manual_oracle():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(5, 4))
    targets = rng.integers(0, 4, size=5)
    # Straight-line oracle.
    expect = 0.0
    for i in range(5):
        row = logits[i]
        lse = math.log(sum(math.exp(v - row.max()) for v in row)) + row.max()
        expect -= (row[targets[i]] - lse)
    expect /= 5
    loss = T.cross_entropy(t64(logits), targets)
    assert abs(loss.item() - expect) < 1e-12


def test_cross_entropy_gradcheck():
    rng = np.random.default_rng(2)
    x = t64(rng.normal(size=(3, 5)), requires_grad=True, name="x")
    targets = np.array([0, 3, 2])
    def f(p):
        return T.cross_entropy(p["x"], targets)
    rep = grad_check(f, {"x": x}, max_entries_per_param=None)
    assert rep.passed


def test_weighted_cross_entropy_gradcheck_every_entry():
    rng = np.random.default_rng(3)
    x = t64(rng.normal(size=(2, 4, 3)), requires_grad=True, name="x")
    targets = rng.integers(0, 3, size=(2, 4))
    weights = np.array([0, 1, 1, 0])      # broadcast over the batch axis
    def f(p):
        return T.cross_entropy(p["x"], targets, weights=weights)
    rep = grad_check(f, {"x": x}, max_entries_per_param=None)
    assert rep.max_rel_err < 1e-8, rep.per_param
    lp = x.data - np.log(np.exp(x.data).sum(-1, keepdims=True))
    nll = -np.take_along_axis(lp, targets[..., None], -1)[..., 0]
    assert abs(f({"x": x}).item() - nll[:, 1:3].mean()) < 1e-12


# ---- Adam ---------------------------------------------------------------------


def test_adam_zero_gradients_leave_params_unchanged():
    p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.zeros_like(p.data)
    before = p.data.copy()
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adam_single_step_hand_recurrence():
    # Hand-evaluated Adam recurrence for one scalar step, g=1, lr=0.1.
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    m = (1 - b1) * 1.0
    v = (1 - b2) * 1.0
    mhat = m / (1 - b1)
    vhat = v / (1 - b2)
    expect_delta = lr * mhat / (math.sqrt(vhat) + eps)
    p = Tensor(np.array([0.5], dtype=np.float64), requires_grad=True)
    opt = Adam({"p": p}, lr=lr)
    p.grad = np.array([1.0])
    opt.step()
    assert abs((0.5 - p.data[0]) - expect_delta) < 1e-12
    assert abs(expect_delta - 0.1) < 1e-8  # bias-corrected first step moves ~lr


def test_adam_determinism_bitwise():
    def run():
        rng = np.random.default_rng(42)
        p = Tensor(rng.normal(size=8).astype(np.float32), requires_grad=True)
        opt = Adam({"p": p}, lr=1e-3)
        for _ in range(10):
            loss = T.tsum(T.mul(p, p))
            opt.zero_grad()
            loss.backward()
            opt.step()
        return p.data.copy()
    a, b = run(), run()
    assert (a == b).all()


def test_adam_nan_grad_aborts_naming_param():
    p = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    opt = Adam({"theta": p})
    p.grad = np.array([np.nan, 0.0], dtype=np.float32)
    before = p.data.copy()
    with pytest.raises(NumericError, match="theta"):
        opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_cosine_lr_endpoints():
    assert cosine_lr(1e-3, 0, 100) == pytest.approx(1e-3)
    assert cosine_lr(1e-3, 99, 100) == pytest.approx(0.0, abs=1e-12)


# ---- misc ops ------------------------------------------------------------------


def test_concat_and_take_gradients():
    a = t64(np.arange(4.0), requires_grad=True, name="a")
    b = t64(np.arange(3.0), requires_grad=True, name="b")
    def f(p):
        c = T.concat([p["a"], p["b"]])
        return T.tsum(T.mul(c[2:6], c[2:6]))
    rep = grad_check(f, {"a": a, "b": b}, max_entries_per_param=None)
    assert rep.passed


def test_dropout_eval_mode_is_identity():
    x = t64(np.ones(10))
    assert (T.dropout(x, 0.5, None).data == x.data).all()


def test_no_grad_blocks_tape():
    x = t64([1.0], requires_grad=True)
    with T.no_grad():
        y = T.mul(x, 2.0)
    assert not y.requires_grad


# ---- heap policy ---------------------------------------------------------------

# Each round allocates ~38 MiB of float32 arrays of mixed sizes, as a forward
# fills its tape, and frees them together, as dropping the loss does.
_TAPE_ROUND_SIZES = (200_000, 300_000, 50_000, 700_000)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap policy")
def test_freed_tape_buffers_are_reused_without_page_faults():
    child = textwrap.dedent(f"""
        import resource
        import numpy as np
        from sharedworkspace import tensor

        def tape_round():
            arrays = [np.ones(n, np.float32) for _ in range(8) for n in {_TAPE_ROUND_SIZES}]
            del arrays

        for _ in range(3):
            tape_round()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            tape_round()
        print(tensor._KEEPS_FREED_MEMORY,
              resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    src = str(Path(sharedworkspace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.split()
    kept, faults = out[0] == "True", int(out[1])
    pages_per_round = sum(_TAPE_ROUND_SIZES) * 8 * 4 // os.sysconf("SC_PAGE_SIZE")
    # Faulting one round's pages in again would cost ~9.7k faults per round;
    # ten rounds together must take fewer than one such round.
    assert faults < pages_per_round, (faults, pages_per_round)
    assert kept
