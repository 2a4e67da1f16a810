import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
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
    a.grad = None
    b.grad = None
    g = rng.normal(size=(2, 3))
    T.add(T.add(a, b), a).backward(g)
    assert not np.shares_memory(a.grad, b.grad)
    np.testing.assert_array_equal(a.grad, 2.0 * g)
    np.testing.assert_array_equal(b.grad, g)

    a.grad = None
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


# Every public op of ``tensor`` applied to one (4, 6) input; any other operand
# is a constant.
_OPS = {
    "add": lambda x: T.add(x, 1.0),
    "mul": lambda x: T.mul(x, 2.0),
    "relu": T.relu,
    "tanh": T.tanh,
    "sigmoid": T.sigmoid,
    "reshape": lambda x: T.reshape(x, (6, 4)),
    "swapaxes": lambda x: T.swapaxes(x, 0, 1),
    "concat": lambda x: T.concat([x, np.ones((4, 2))], axis=1),
    "take": lambda x: x[1:3],
    "take-advanced": lambda x: x[np.array([0, 2, 0])],
    "tsum": lambda x: T.tsum(x, axis=1),
    "tmean": T.tmean,
    "matmul": lambda x: T.matmul(x, np.ones((6, 3))),
    "softmax": T.softmax,
    "softmax-keep": lambda x: T.softmax(x, keep=np.arange(6) % 2),
    "log_softmax": T.log_softmax,
    "cross_entropy": lambda x: T.cross_entropy(x, np.arange(4)),
    "layer_norm": lambda x: T.layer_norm(x, np.full(6, 1.5), np.zeros(6)),
    "dropout": lambda x: T.dropout(x, 0.5, np.random.default_rng(0)),
}


def test_every_public_op_is_in_the_op_table():
    public = {name for name, fn in vars(T).items()
              if callable(fn) and getattr(fn, "__module__", None) == T.__name__
              and not name.startswith("_") and not isinstance(fn, type)}
    builders = {"uniform_init", "linear_init", "zeros", "ones"}
    assert public - builders == {case.split("-")[0] for case in _OPS}


@pytest.mark.parametrize("op", list(_OPS))
def test_an_op_output_has_a_node_exactly_when_it_records_a_gradient(op):
    data = np.random.default_rng(16).normal(size=(4, 6))
    assert _OPS[op](t64(data))._node is None
    x = t64(data, requires_grad=True)
    with T.no_grad():
        assert _OPS[op](x)._node is None
    out = _OPS[op](x)
    assert out._node is not None and callable(out._node._backward)
    T.tsum(out).backward()
    assert x.grad.shape == x.shape


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
    nodes = (h._node, y._node)
    closures = {id(n): n._backward for n in nodes}
    g = rng.normal(size=(2, 3))
    y.backward(g)
    for node in nodes:
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


def test_backward_through_a_tensor_without_gradient_raises():
    # Without a tape there is nothing to differentiate: a silent backward
    # would leave the parameters' gradients at None, and Adam would then step
    # on its stale momentum alone.
    w = t64(np.eye(2), requires_grad=True)
    with T.no_grad():
        loss = T.tsum(T.matmul(w, w))
    with pytest.raises(RuntimeError, match="records no gradient"):
        loss.backward()
    assert w.grad is None and loss.grad is None
    constant = T.tsum(T.mul(t64([1.0, 2.0]), 3.0))
    with pytest.raises(RuntimeError, match="records no gradient"):
        constant.backward()
    assert constant.grad is None


def test_backward_of_a_non_scalar_needs_its_gradient():
    x = t64([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar loss"):
        T.mul(x, 2.0).backward()
    assert x.grad is None


def test_backward_from_a_leaf_owns_and_then_adds_its_gradient():
    x = t64(np.zeros((2, 3)), requires_grad=True)
    g = np.arange(6.0).reshape(3, 2).T   # not C-contiguous
    x.backward(g)
    assert x.grad.flags.owndata and x.grad.flags.c_contiguous
    assert not np.shares_memory(x.grad, g)
    np.testing.assert_array_equal(x.grad, g)
    x.backward(g)
    np.testing.assert_array_equal(x.grad, 2.0 * g)


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


# ---- what the tape retains ----------------------------------------------------


def _interior(rng, shape=(4, 6)):
    """An op output over a float64 leaf that only the caller holds."""
    return T.mul(t64(rng.normal(size=shape), requires_grad=True), 1.0)


def _captured(out, name):
    """The value that the backward closure of op output ``out`` captured as
    ``name``: for arrays the caller never gets a handle on."""
    fn = out._node._backward
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


def _weighted_sum(out):
    """A scalar loss over ``out`` whose tape captures only a constant."""
    return T.tsum(T.mul(out, np.random.default_rng(14).normal(size=out.shape)))


# Ops whose gradient formulas do not read their input h (4, 6).
_DROPS_INPUT = {
    "add": lambda h: T.add(h, 1.0),
    "mul-by-constant": lambda h: T.mul(h, 3.0),
    "dropout": lambda h: T.dropout(h, 0.5, np.random.default_rng(0)),
    "relu": T.relu,
    "tanh": T.tanh,
    "sigmoid": T.sigmoid,
    "softmax": T.softmax,
    "softmax-keep": lambda h: T.softmax(h, keep=np.arange(6) % 2),
    "log_softmax": T.log_softmax,
    "layer_norm": lambda h: T.layer_norm(h, t64(np.full(6, 1.5), requires_grad=True),
                                         t64(np.zeros(6), requires_grad=True)),
    "matmul-by-constant": lambda h: T.matmul(h, t64(np.ones((6, 3)))),
    "reshape": lambda h: T.reshape(h, (6, 4)),
    "swapaxes": lambda h: T.swapaxes(h, 0, 1),
    "concat": lambda h: T.concat([h, h], axis=1),
    "take": lambda h: h[1:3],
    "take-advanced": lambda h: h[np.array([0, 2, 0])],
    "tsum": lambda h: T.tsum(h, axis=1),
}


@pytest.mark.parametrize("op", list(_DROPS_INPUT))
def test_tape_frees_what_no_gradient_formula_reads(op):
    # The input's buffer goes with the caller's handles (the output's too,
    # which a view op shares), and backward still gives the gradient bytes
    # of a run that held them.
    grads = []
    for drop in (False, True):
        rng = np.random.default_rng(12)
        w = t64(rng.normal(size=(4, 6)), requires_grad=True)
        h = T.mul(w, 1.0)
        held = weakref.ref(h.data)
        out = _DROPS_INPUT[op](h)
        loss = _weighted_sum(out)
        if drop:
            del h, out
            assert held() is None
        loss.backward()
        grads.append(w.grad.tobytes())
    assert grads[0] == grads[1]


def _kept_matmul_operands(rng):
    a, b = _interior(rng, (4, 6)), _interior(rng, (6, 3))
    return T.matmul(a, b), [a.data, b.data]


def _kept_output(op):
    def case(rng):
        out = op(_interior(rng))
        return out, [out.data]
    return case


def _kept_layer_norm_xh(rng):
    out = T.layer_norm(_interior(rng), t64(np.full(6, 1.5), requires_grad=True),
                       t64(np.zeros(6), requires_grad=True))
    return out, [_captured(out, "xh")]


def _kept_dropout_mask(rng):
    out = T.dropout(_interior(rng), 0.5, np.random.default_rng(0))
    keep = _captured(out, "keep")
    assert keep.dtype == bool
    return out, [keep]


def _kept_topk_keep(rng):
    out = T.softmax(_interior(rng), keep=np.arange(6) % 2 == 1)
    keep = _captured(out, "keep")
    assert keep.dtype == bool
    return out, [keep]


_KEEPS = {
    "matmul-operands": _kept_matmul_operands,
    "softmax-output": _kept_output(T.softmax),
    "tanh-output": _kept_output(T.tanh),
    "sigmoid-output": _kept_output(T.sigmoid),
    "layer-norm-xh": _kept_layer_norm_xh,
    "dropout-mask": _kept_dropout_mask,
    "topk-keep": _kept_topk_keep,
}


@pytest.mark.parametrize("case", list(_KEEPS))
def test_tape_keeps_what_a_gradient_formula_reads_until_backward(case):
    out, arrays = _KEEPS[case](np.random.default_rng(13))
    refs = [weakref.ref(a) for a in arrays]
    loss = _weighted_sum(out)
    del out, arrays
    assert all(r() is not None for r in refs)
    loss.backward()
    assert all(r() is None for r in refs)   # consumed with the tape


# ---- outputs rebuilt in backward ------------------------------------------------


def _ln_params(rng, n, dtype):
    gain = Tensor((rng.normal(size=n) + 1.0).astype(dtype), requires_grad=True)
    bias = Tensor(rng.normal(size=n).astype(dtype), requires_grad=True)
    return gain, bias


# Ops whose output is a cheap function of what their closure keeps, on an
# input (4, 6) that takes a gradient.
_REBUILT = {
    "layer_norm": lambda h: T.layer_norm(h, *_ln_params(np.random.default_rng(15), 6, h.dtype)),
    "softmax-keep": lambda h: T.softmax(h, keep=np.arange(6) % 3 != 1),
}
_VIEWS = {
    "": lambda t: t,
    "reshape": lambda t: T.reshape(t, (3, 8)),
    "swapaxes": lambda t: T.swapaxes(t, 0, 1),
    "take": lambda t: t[1:3, ::2],
}


@pytest.mark.parametrize("view", list(_VIEWS))
@pytest.mark.parametrize("op", list(_REBUILT))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rebuilt_output_has_the_forward_bytes(op, view, dtype):
    # NaN, +-inf, -0 and subnormals in the input.
    h = Tensor(_special_values(dtype, (4, 6), 40), requires_grad=True)
    with np.errstate(invalid="ignore", over="ignore"):
        out = _VIEWS[view](_REBUILT[op](h))
        rebuilt = out._node._rebuild()
    assert rebuilt is not out.data
    assert rebuilt.dtype == out.data.dtype and rebuilt.shape == out.data.shape
    assert rebuilt.strides == out.data.strides
    assert rebuilt.tobytes() == out.data.tobytes()


def test_layer_norm_rebuild_keeps_signed_zeros_and_specials():
    # A constant row normalizes to +0, and +0 * -0 + -0 is -0; NaN and inf
    # rows are NaN.
    for dt in (np.float32, np.float64):
        x = Tensor(np.array([[1.0, 1.0, 1.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 1.0]], dt),
                   requires_grad=True)
        gain = Tensor(np.array([-0.0, 2.0, np.inf], dt), requires_grad=True)
        bias = Tensor(np.array([-0.0, -0.0, 1.0], dt), requires_grad=True)
        with np.errstate(invalid="ignore"):
            out = T.layer_norm(x, gain, bias)
            rebuilt = out._node._rebuild()
        assert np.signbit(out.data[0, 0]) and np.isnan(out.data[1:]).all()
        assert rebuilt.tobytes() == out.data.tobytes()


def test_views_of_other_outputs_and_advanced_take_are_not_rebuilt():
    h = _interior(np.random.default_rng(16))
    ln = _REBUILT["layer_norm"](h)
    assert T.mul(h, 2.0)._node._rebuild is None
    assert T.softmax(h)._node._rebuild is None   # its closure holds the output itself
    assert T.reshape(T.mul(h, 2.0), (24,))._node._rebuild is None
    assert ln[np.array([0, 0])]._node._rebuild is None
    assert T.concat([ln, ln], axis=0)._node._rebuild is None
    with T.no_grad():
        assert T.layer_norm(h, *_ln_params(np.random.default_rng(15), 6, h.dtype))._node is None


# A consumer that reads a rebuilt output in backward, as (producer, view,
# consumer); the consumer's other operand takes a gradient.
_READERS = {
    "layer_norm-matmul": ("layer_norm", "", lambda o, w: T.matmul(o, w[:6, :3])),
    "layer_norm-take-matmul": ("layer_norm", "take", lambda o, w: T.matmul(o, w[:3, :2])),
    "layer_norm-reshape-matmul-right": ("layer_norm", "reshape",
                                        lambda o, w: T.matmul(w[:2, :3], o)),
    "layer_norm-mul": ("layer_norm", "", lambda o, w: T.mul(o, w[:4, :6])),
    "softmax-keep-matmul": ("softmax-keep", "", lambda o, w: T.matmul(o, w[:6, :3])),
    "softmax-keep-swapaxes-mul": ("softmax-keep", "swapaxes", lambda o, w: T.mul(w[:6, :4], o)),
}


@pytest.mark.parametrize("case", list(_READERS))
def test_a_reader_of_a_rebuilt_output_does_not_keep_it_alive(case):
    # The reader keeps the output's node, not its array, so the output goes
    # with the caller's handle.  Backward gives the bytes of a run whose
    # reader held a copy (the output times 1.0, which nothing rebuilds).
    op, view, reader = _READERS[case]
    grads = []
    for rebuilt in (True, False):
        rng = np.random.default_rng(17)
        h = t64(rng.normal(size=(4, 6)), requires_grad=True)
        w = t64(rng.normal(size=(6, 6)), requires_grad=True)
        out = _REBUILT[op](T.mul(h, 1.0))
        if not rebuilt:
            out = T.mul(out, 1.0)
        out = _VIEWS[view](out)
        held = weakref.ref(out.data.base if out.data.base is not None else out.data)
        loss = _weighted_sum(reader(out, w))
        del out
        assert (held() is None) == rebuilt
        loss.backward()
        grads.append((h.grad.tobytes(), w.grad.tobytes()))
    assert grads[0] == grads[1]


def test_a_rebuild_runs_once_per_backward_and_goes_with_its_producer():
    rng = np.random.default_rng(18)
    h = t64(rng.normal(size=(4, 6)), requires_grad=True)
    ws = [t64(rng.normal(size=shape), requires_grad=True) for shape in ((6, 3), (6, 3), (2, 6))]
    ln = _REBUILT["layer_norm"](T.mul(h, 1.0))
    node, rebuild, built = ln._node, ln._node._rebuild, []

    def counted():
        data = rebuild()
        built.append(weakref.ref(data))
        return data
    node._rebuild = counted
    # Three readers, one of them through a view.
    loss = T.add(T.add(_weighted_sum(T.matmul(ln, ws[0])), _weighted_sum(T.matmul(ln, ws[1]))),
                 _weighted_sum(T.mul(ln[1:3], ws[2])))
    del ln
    assert not built   # nothing is rebuilt before backward
    loss.backward()
    assert len(built) == 1
    assert built[0]() is None
    assert node._rebuild is None and node._memo is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_mask_from_its_output_has_the_input_mask_bytes(dtype):
    # relu's backward masks with relu(x) > 0, which holds exactly where
    # x > 0: for negatives, both zeros, NaNs of either sign and infinities.
    rng = np.random.default_rng(23)
    tiny = np.finfo(dtype).smallest_subnormal
    x = np.concatenate([rng.normal(size=64), [-0.0, 0.0, np.nan, -np.nan, -np.inf, np.inf,
                                              -tiny, tiny]]).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    g[::3] *= -1.0
    from_input = g * (x > 0)
    assert (g * (np.maximum(x, 0.0) > 0)).tobytes() == from_input.tobytes()
    t = Tensor(x, requires_grad=True)
    T.relu(t).backward(g)
    assert t.grad.tobytes() == from_input.tobytes()


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


def test_gradcheck_rejects_a_constant_naming_it():
    x, c = t64([1.0, 2.0], requires_grad=True), t64([3.0])
    with pytest.raises(ValueError, match="'c'"):
        grad_check(lambda p: T.tsum(T.mul(p["x"], p["c"])), {"x": x, "c": c})


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
        nt = t._node
        # wrong: should be 2x
        return T._op(t.data * t.data, (t,), lambda g: T._accum(nt, g * 3.0 * t.data))
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
    na = a._node
    return T._op(a.data ** p, (a,),
                 lambda g: T._accum(na, g * p * a.data ** (p - 1.0), fresh=True))


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
        assert fused.dtype == dt and fused._node._prev == tuple(a._node for a in args)
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
    assert y._node is None
    y = T.layer_norm(Tensor(x.data), Tensor(g.data), Tensor(b.data))
    assert y._node is None


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


# ---- Adam ---------------------------------------------------------------------


def test_adam_zero_gradients_leave_params_unchanged():
    p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.zeros_like(p.data)
    before = p.data.copy()
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adam_steps_a_parameter_no_loss_reaches_as_with_a_zero_gradient():
    runs = []
    for reached in (False, True):
        p = t64([1.0, -2.0], requires_grad=True)
        q = t64([0.5, 0.25], requires_grad=True)
        opt = Adam({"p": p, "q": q}, lr=0.1)
        p.grad = np.array([0.5, -1.0])   # moments that later steps carry on
        opt.step()
        for _ in range(2):
            opt.zero_grad()
            loss = T.tsum(T.mul(q, q))
            if reached:   # a zero gradient for p
                loss = T.add(loss, T.tsum(T.mul(p, 0.0)))
            loss.backward()
            assert (p.grad is None) is not reached
            opt.step()
        runs.append([a.tobytes() for a in (p.data, opt.m["p"], opt.v["p"], q.data)])
    assert runs[0] == runs[1]


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


def test_adam_rejects_a_constant_naming_it():
    p = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="'frozen'"):
        Adam({"p": p, "frozen": Tensor(np.zeros(2, dtype=np.float32))})


def test_setting_the_gradient_of_a_constant_says_why():
    c = Tensor(np.zeros(2), name="c")
    with pytest.raises(RuntimeError, match="'c'.*takes no gradient"):
        c.grad = np.ones(2)
    with T.no_grad():
        y = T.mul(t64([1.0], requires_grad=True), 2.0)
    with pytest.raises(RuntimeError, match="takes no gradient"):
        y.grad = None
    assert c.grad is None and y.grad is None


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


@pytest.mark.parametrize("idx", [(slice(None), slice(0, 1)), (Ellipsis, 2, slice(None)),
                                 1, np.int64(2), (slice(1, None, 2), 0),
                                 (np.array([0, 2, 0]), slice(None))],
                         ids=["slice", "ellipsis-int", "int", "np-int", "step-int", "repeats"])
@pytest.mark.parametrize("held", [False, True], ids=["fresh", "held"])
def test_take_backward_has_the_scatter_bytes(idx, held):
    # A basic index takes the in-place path, an advanced one (which may
    # repeat an element) the scatter; both must give the np.add.at bytes,
    # the sign of every zero included.
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4, 5)).astype(np.float32), requires_grad=True)
    prior = np.where(rng.random(a.shape) < 0.3, -0.0, rng.standard_normal(a.shape))
    prior = prior.astype(np.float32)
    out = T.take(a, idx)
    g = rng.standard_normal(out.shape).astype(np.float32)
    g[rng.random(g.shape) < 0.3] = -0.0
    g.flat[0] = 0.0
    expected = prior.copy() if held else np.zeros_like(a.data)
    np.add.at(expected, idx, g)
    if held:
        a.grad = prior.copy()
    out.backward(g)
    assert a.grad.tobytes() == expected.tobytes()


def test_dropout_of_some_rows_draws_the_full_width_mask():
    x = Tensor(np.random.default_rng(0).standard_normal((2, 5, 3)).astype(np.float32))
    full_rng, rows_rng = np.random.default_rng(7), np.random.default_rng(7)
    full = T.dropout(x, 0.4, full_rng)
    part = T.dropout(x[:, 1:3], 0.4, rows_rng, slice(1, 3), 5)
    assert part.data.tobytes() == full.data[:, 1:3].tobytes()
    assert rows_rng.bit_generator.state == full_rng.bit_generator.state


def _special_values(dtype, shape, seed):
    """Normal draws with +-0, NaN, +-inf, subnormals and the largest finite
    values of ``dtype`` mixed in."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(dtype)
    tiny, big = np.finfo(dtype).smallest_subnormal, np.finfo(dtype).max
    specials = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                         3 * tiny, big, -big], dtype=dtype)
    flat = x.reshape(-1)
    flat[rng.choice(flat.size, specials.size, replace=False)] = specials
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [None, slice(1, 3)])
def test_dropout_has_the_bytes_of_mul_by_its_scale_mask(dtype, rows):
    # dropout is one op that keeps a bool mask; it must give the forward and
    # gradient bytes of the mul by the float scale mask it replaced.
    # At 0.45, 1 / (1 - rate) rounded once to float32 and the float32
    # quotient 1 / float32(1 - rate) differ in the last bit.
    rate, n_rows = 0.45, 5
    shape = (2, n_rows if rows is None else 2, 8)
    x_data = _special_values(dtype, shape, 30)
    g = _special_values(dtype, shape, 31)
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)

    x, xr = (Tensor(x_data.copy(), requires_grad=True) for _ in range(2))
    ref_keep = ref_rng.random(shape[:-2] + (n_rows, shape[-1])) >= rate
    if rows is not None:
        ref_keep = ref_keep[..., rows, :]
    with np.errstate(invalid="ignore", over="ignore"):   # inf * 0, max / (1 - rate)
        out = T.dropout(x, rate, rng, rows, n_rows)
        ref = T.mul(xr, ref_keep.astype(dtype) / (1 - rate))
        assert out.data.dtype == dtype
        assert out.data.tobytes() == ref.data.tobytes()
        keep = _captured(out, "keep")
        assert keep.dtype == bool and keep.shape == shape
        assert keep.flags.c_contiguous and keep.base is None   # not a view of the draw
        out.backward(g)
        ref.backward(g)
    assert x.grad.tobytes() == xr.grad.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("rows", [None, slice(3, 150)])
def test_dropout_mask_drawn_in_chunks_is_the_whole_draw(rows):
    # 2 x 200 x 200 uniforms span two chunks and part of a third.
    rate, n_rows, shape = 0.3, 200, (2, 200, 200)
    assert np.prod(shape) > 2 * T._DRAW_CHUNK
    x = Tensor(np.ones(shape, np.float32), requires_grad=True)
    if rows is not None:
        x = x[:, rows]
    rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
    out = T.dropout(x, rate, rng, rows, n_rows)
    ref = ref_rng.random(shape) >= rate
    if rows is not None:
        ref = ref[..., rows, :]
    assert (_captured(out, "keep") == ref).all()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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
