"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap contiguous numpy buffers (float32 for training, float64 for
gradient checking) and record a tape of backward closures as operations are
applied.  Backward traverses the tape in reverse topological order and
accumulates gradients into every reachable tensor with ``requires_grad``.
One backward consumes the tape: each interior node drops its gradient, its
closure and its inputs as soon as its closure has run, so a second backward
through the same graph raises ``RuntimeError``.  Leaves (tensors created with
``requires_grad=True``) keep their gradients, each in an owned C-order array.
Reductions use numpy's fixed sequential order, so forward passes are
bit-reproducible on a given build.  The gradient of a matmul operand that
broadcasts over batch axes is reduced inside one GEMM, with those axes folded
into the contraction, so its last bits differ from a per-batch product summed
afterwards.
"""

from __future__ import annotations

import numpy as np

# Additive mask sentinel: masked logits are pushed to -1e9 before softmax so
# masking composes with top-k and causal masks.  An all-masked row yields an
# all-zero softmax row rather than NaN.
MASK_VALUE = -1e9

_grad_enabled = True


class no_grad:
    """Context manager that disables tape construction (evaluation mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def grad_enabled() -> bool:
    return _grad_enabled


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name", "_owns_grad")

    def __init__(self, data, requires_grad=False, dtype=None, name=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._prev = ()
        self.name = name
        # False while ``grad`` is an array borrowed from another node's
        # gradient (see ``_accum``); it is then copied before any write.
        self._owns_grad = True

    # ---- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def astype(self, dtype) -> "Tensor":
        out = _make(self.data.astype(dtype), (self,))
        if out.requires_grad:
            def _bw(g):
                _accum(self, g.astype(self.data.dtype), fresh=True)
            out._backward = _bw
        return out

    # ---- autodiff ------------------------------------------------------------

    def backward(self, grad=None):
        """Accumulate the gradient of this tensor into every leaf below it.

        The pass consumes the tape: once a node's closure has run, the node
        drops its gradient, its closure and its inputs, so the memory they
        hold is freed while backward proceeds.  Leaves keep their gradients.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar loss")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        topo, visited = [], set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _consumed:
                _consumed()   # refuse before any gradient moves
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))

        if self.grad is not None:
            grad = self.grad + grad
        elif self._backward is None:
            grad = np.array(grad, order="C")   # a leaf owns its gradient
        self.grad = grad
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = _consumed
            node._prev = ()

    def zero_grad(self):
        self.grad = None

    # ---- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, power(other, -1.0))
        return mul(self, 1.0 / other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, ax1, ax2):
        return swapaxes(self, ax1, ax2)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _astensor(x, like=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data, prev) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in prev):
        out.requires_grad = True
        out._prev = tuple(prev)
    return out


def _consumed(g=None):
    """Stands in for the closure of a node whose backward has already run."""
    raise RuntimeError("backward through a graph that an earlier backward consumed")


def _accum(t: Tensor, g, fresh=False):
    """Add the contribution ``g`` to ``t.grad``.

    ``fresh`` says that the caller has just computed ``g`` and nothing else
    references it: an interior node adopts it and adds later contributions
    in place.  Any other ``g`` (a view of the consumer's gradient, or the one
    array ``add`` hands to both operands) is borrowed: the node reads it and
    copies before its first write.  A leaf, and a ``g`` that is not a
    C-contiguous array of the node's dtype, always get an owned C-order copy,
    so every gradient has the layout, and later reductions the bits, that a
    copy gives.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        if (t._backward is not None and isinstance(g, np.ndarray)
                and g.dtype == t.data.dtype and g.flags.c_contiguous):
            t.grad = g
            t._owns_grad = fresh
        else:
            t.grad = np.array(g, dtype=t.data.dtype, order="C")
            t._owns_grad = True
    elif t._owns_grad:
        t.grad += g
    else:
        t.grad = np.add(t.grad, g, out=np.empty_like(t.grad))
        t._owns_grad = True


def _unbroadcast(g, shape):
    """Sum gradient ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---- elementwise ops --------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _astensor(a), _astensor(b, like=a)
    out = _make(a.data + b.data, (a, b))
    if out.requires_grad:
        def _bw(g):
            # A summed-down gradient is fresh; an unreduced one is ``g`` itself.
            if a.requires_grad:
                _accum(a, _unbroadcast(g, a.data.shape), fresh=g.shape != a.data.shape)
            if b.requires_grad:
                _accum(b, _unbroadcast(g, b.data.shape), fresh=g.shape != b.data.shape)
        out._backward = _bw
    return out


def mul(a, b) -> Tensor:
    a, b = _astensor(a), _astensor(b, like=a)
    out = _make(a.data * b.data, (a, b))
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                _accum(a, _unbroadcast(g * b.data, a.data.shape), fresh=True)
            if b.requires_grad:
                _accum(b, _unbroadcast(g * a.data, b.data.shape), fresh=True)
        out._backward = _bw
    return out


def power(a, p: float) -> Tensor:
    a = _astensor(a)
    out = _make(a.data ** p, (a,))
    if out.requires_grad:
        def _bw(g):
            _accum(a, g * p * a.data ** (p - 1.0), fresh=True)
        out._backward = _bw
    return out


def exp(a) -> Tensor:
    a = _astensor(a)
    y = np.exp(a.data)
    out = _make(y, (a,))
    if out.requires_grad:
        def _bw(g):
            _accum(a, g * y, fresh=True)
        out._backward = _bw
    return out


def log(a) -> Tensor:
    a = _astensor(a)
    out = _make(np.log(a.data), (a,))
    if out.requires_grad:
        def _bw(g):
            _accum(a, g / a.data, fresh=True)
        out._backward = _bw
    return out


def relu(a) -> Tensor:
    a = _astensor(a)
    out = _make(np.maximum(a.data, 0.0), (a,))
    if out.requires_grad:
        # The mask is made here, not at forward time: a forward that is never
        # differentiated (evaluation) still records the tape.
        def _bw(g):
            _accum(a, g * (a.data > 0), fresh=True)
        out._backward = _bw
    return out


def tanh(a) -> Tensor:
    a = _astensor(a)
    y = np.tanh(a.data)
    out = _make(y, (a,))
    if out.requires_grad:
        def _bw(g):
            _accum(a, g * (1.0 - y * y), fresh=True)
        out._backward = _bw
    return out


def sigmoid(a) -> Tensor:
    a = _astensor(a)
    # Stable in both tails.
    e = np.exp(-np.abs(a.data))
    y = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if y.dtype != a.data.dtype:
        y = y.astype(a.data.dtype)
    out = _make(y, (a,))
    if out.requires_grad:
        def _bw(g):
            _accum(a, g * y * (1.0 - y), fresh=True)
        out._backward = _bw
    return out


# ---- shape ops --------------------------------------------------------------


def reshape(a, *shape) -> Tensor:
    a = _astensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    old = a.data.shape
    out = _make(a.data.reshape(shape), (a,))
    if out.requires_grad:
        def _bw(g):
            _accum(a, g.reshape(old))
        out._backward = _bw
    return out


def swapaxes(a, ax1, ax2) -> Tensor:
    a = _astensor(a)
    out = _make(np.swapaxes(a.data, ax1, ax2), (a,))
    if out.requires_grad:
        def _bw(g):
            _accum(a, np.swapaxes(g, ax1, ax2))
        out._backward = _bw
    return out


def concat(tensors, axis=0) -> Tensor:
    tensors = [_astensor(t) for t in tensors]
    out = _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def _bw(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accum(t, g[tuple(idx)])
        out._backward = _bw
    return out


def take(a, idx) -> Tensor:
    """Advanced/basic indexing with gradient scatter-add on backward."""
    a = _astensor(a)
    out = _make(a.data[idx], (a,))
    if out.requires_grad:
        def _bw(g):
            if not a.requires_grad:
                return
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            elif not a._owns_grad:
                a.grad = a.grad.copy()
            a._owns_grad = True
            np.add.at(a.grad, idx, g)
        out._backward = _bw
    return out


# ---- reductions -------------------------------------------------------------


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _astensor(a)
    out = _make(a.data.sum(axis=axis, keepdims=keepdims), (a,))
    if out.requires_grad:
        def _bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, a.data.shape).copy(), fresh=True)
        out._backward = _bw
    return out


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = _astensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---- matmul -----------------------------------------------------------------


def _matmul_sum(x, y, shape):
    """``np.matmul(x, y)`` summed down to ``shape`` in one GEMM.

    Batch axes that ``shape`` broadcasts over (size 1 or missing) are moved
    next to the contracted axis of both operands and merged into it, so the
    sum over them happens inside the product instead of over a per-batch
    stack.  Along those axes both operands must be full size, which holds for
    the two products of a matmul backward.
    """
    nb = max(x.ndim, y.ndim) - 2
    x = x.reshape((1,) * (nb + 2 - x.ndim) + x.shape)
    y = y.reshape((1,) * (nb + 2 - y.ndim) + y.shape)
    target = (1,) * (nb + 2 - len(shape)) + tuple(shape)
    red = [i for i in range(nb) if target[i] == 1 and max(x.shape[i], y.shape[i]) > 1]
    if red:
        keep = [i for i in range(nb) if i not in red]
        inner = x.shape[-1] * int(np.prod([x.shape[i] for i in red]))
        x = x.transpose(keep + [nb] + red + [nb + 1])
        x = x.reshape(x.shape[:len(keep) + 1] + (inner,))
        y = y.transpose(keep + red + [nb, nb + 1])
        y = y.reshape(y.shape[:len(keep)] + (inner, y.shape[-1]))
    return np.matmul(x, y).reshape(shape)


def matmul(a, b) -> Tensor:
    a, b = _astensor(a), _astensor(b, like=a)
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    out = _make(np.matmul(a.data, b.data), (a, b))
    if out.requires_grad:
        # 1-D operands take part as a (1, k) row or a (k, 1) column.
        a2 = a.data if a.data.ndim > 1 else a.data[None, :]
        b2 = b.data if b.data.ndim > 1 else b.data[:, None]
        g_shape = np.broadcast_shapes(a2.shape[:-2], b2.shape[:-2]) + (a2.shape[-2], b2.shape[-1])
        def _bw(g):
            g = g.reshape(g_shape)
            if a.requires_grad:
                _accum(a, _matmul_sum(g, np.swapaxes(b2, -1, -2), a2.shape).reshape(a.data.shape),
                       fresh=True)
            if b.requires_grad:
                _accum(b, _matmul_sum(np.swapaxes(a2, -1, -2), g, b2.shape).reshape(b.data.shape),
                       fresh=True)
        out._backward = _bw
    return out


# ---- softmax family ---------------------------------------------------------


def _softmax_forward(x, axis):
    y = x - x.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    # Rows where every entry sits at the mask sentinel produce exp-sums that
    # would still normalize to a uniform row; force them to zero instead.
    if x.min() <= MASK_VALUE / 2:
        dead = (x <= MASK_VALUE / 2).all(axis=axis, keepdims=True)
        if dead.any():
            np.copyto(y, 0.0, where=dead)
    return y


def softmax(a, axis=-1) -> Tensor:
    """Numerically stabilized softmax; all-masked rows return zeros."""
    a = _astensor(a)
    y = _softmax_forward(a.data, axis)
    out = _make(y, (a,))
    if out.requires_grad:
        def _bw(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            _accum(a, y * (g - dot), fresh=True)
        out._backward = _bw
    return out


def masked_softmax_retain(a, keep_mask, axis=-1, grad_to_dropped=True) -> Tensor:
    """Full softmax, then zero non-kept entries without renormalizing.

    ``keep_mask`` is a constant 0/1 array broadcastable to ``a``.  Kept
    entries retain their soft score from the full softmax, so with an
    all-ones mask this is bitwise identical to ``softmax``.

    With ``grad_to_dropped`` (default) the backward pass is the exact
    derivative of the computed function: dropped scores still receive
    gradient through the shared softmax normalizer, which keeps the op
    compatible with finite-difference verification.  Setting it False
    truncates the backward at the mask, giving dropped scores exactly
    zero gradient (straight-through routing semantics).
    """
    a = _astensor(a)
    m = np.asarray(keep_mask, dtype=a.data.dtype)
    y = _softmax_forward(a.data, axis)
    out_data = y * m
    out = _make(out_data, (a,))
    if out.requires_grad:
        def _bw(g):
            gk = g * m
            dot = (gk * y).sum(axis=axis, keepdims=True)
            ds = y * (gk - dot)
            if not grad_to_dropped:
                ds = ds * m
            _accum(a, ds, fresh=True)
        out._backward = _bw
    return out


def log_softmax(a, axis=-1) -> Tensor:
    a = _astensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    out = _make(y, (a,))
    if out.requires_grad:
        def _bw(g):
            _accum(a, g - np.exp(y) * g.sum(axis=axis, keepdims=True), fresh=True)
        out._backward = _bw
    return out


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``logits``.

    ``logits`` has shape (..., n_classes); ``targets`` the matching integer
    shape.  Fused log-softmax keeps the op stable for large logits.
    """
    targets = np.asarray(targets)
    lp = log_softmax(logits, axis=-1)
    flat = reshape(lp, (-1, logits.data.shape[-1]))
    picked = take(flat, (np.arange(flat.data.shape[0]), targets.reshape(-1)))
    return mul(tsum(picked), -1.0 / picked.data.size)


# ---- composite layers -------------------------------------------------------


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with learned gain/bias."""
    mu = tmean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = tmean(mul(centered, centered), axis=-1, keepdims=True)
    inv = power(add(var, eps), -0.5)
    return add(mul(mul(centered, inv), gain), bias)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate==0 or rng is None (eval mode)."""
    if rate <= 0.0 or rng is None:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return mul(x, keep)


# ---- parameter initialization ----------------------------------------------


def uniform_init(rng: np.random.Generator, shape, scale, dtype=np.float32, name=None) -> Tensor:
    """Weight tensor ~ uniform(-scale, +scale) with requires_grad set."""
    data = rng.uniform(-scale, scale, size=shape).astype(dtype)
    t = Tensor(data, requires_grad=True, name=name)
    return t


def linear_init(rng: np.random.Generator, fan_in, fan_out, dtype=np.float32, name=None) -> Tensor:
    """Linear weight ~ uniform(+-1/sqrt(fan_in))."""
    return uniform_init(rng, (fan_in, fan_out), 1.0 / np.sqrt(fan_in), dtype=dtype, name=name)


def zeros(shape, dtype=np.float32, requires_grad=False, name=None) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad, name=name)


def ones(shape, dtype=np.float32, requires_grad=False, name=None) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad, name=name)
