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
afterwards.  Layer norm is one tape node with the analytic backward; its
forward keeps the bits of the composed mean/variance arithmetic.  Two
numpy paths that cost several times their arithmetic are kept off the hot
ops, with unchanged bits: a per-row reduction over short rows (the softmax
row max is taken column by column instead) and ``np.where`` with a
data-dependent mask (sigmoid uses one formula for both signs).  Layers
that own parameters derive from ``Module``, which finds them by walking the
layer's attributes.

A forward holds tens of MiB of tape buffers that are all freed together when
the loss is dropped.  Left to its defaults, glibc would give that heap top
back to the kernel (and serve buffers above its dynamic threshold by mmap),
so every step and evaluation faulted the same pages in again, and how many
it faulted depended on the heap layout, not on the ops.  So importing this
module sets glibc's mmap threshold to its 64-bit ceiling of 32 MiB and its
trim threshold above any step's working set: freed buffers stay in the heap
and the next step reuses them.  Both are set because setting either one
turns glibc's dynamic threshold off.  Without a glibc ``mallopt`` (another
C library) nothing is set.
"""

from __future__ import annotations

import ctypes

import numpy as np

# mallopt parameters from glibc's malloc.h.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> bool:
    """Set the heap policy above; True when glibc took both thresholds."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    # The trim threshold alone would leave the 128 KiB mmap default, which
    # faults more than glibc's dynamic threshold, so it follows only a
    # successful mmap threshold (mallopt returns 1 on success).
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 1 << 30) == 1)


_KEEPS_FREED_MEMORY = _keep_freed_memory()

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


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name", "_owns_grad")

    def __init__(self, data, requires_grad=False, name=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
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

    def __getitem__(self, idx):
        return take(self, idx)


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
    # exp(min(x, 0)) / (1 + exp(-|x|)) is 1/(1+e) for x >= 0 and e/(1+e)
    # below, e = exp(-|x|): stable in both tails, with no select on the sign
    # of x.  fmin turns a NaN into 0, so the NaN reaches the quotient through
    # the denominator alone and keeps the sign bit of the select form.
    y = np.exp(np.fmin(a.data, 0))
    d = np.abs(a.data)
    np.negative(d, out=d)
    np.exp(d, out=d)
    d += 1.0
    y /= d
    out = _make(y, (a,))
    if out.requires_grad:
        def _bw(g):
            _accum(a, g * y * (1.0 - y), fresh=True)
        out._backward = _bw
    return out


# ---- shape ops --------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _astensor(a)
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


def _transposed(x):
    """``x`` with its last two axes swapped; a 2-D result is copied to C
    order, since a batched product against a transposed 2-D view takes
    numpy's slow path and the copy (one weight matrix) costs less."""
    x = np.swapaxes(x, -1, -2)
    return np.ascontiguousarray(x) if x.ndim == 2 else x


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
                _accum(a, _matmul_sum(g, _transposed(b2), a2.shape).reshape(a.data.shape),
                       fresh=True)
            if b.requires_grad:
                _accum(b, _matmul_sum(_transposed(a2), g, b2.shape).reshape(b.data.shape),
                       fresh=True)
        out._backward = _bw
    return out


# ---- softmax family ---------------------------------------------------------


# Rows at most this long take their max column by column (_row_max).  On
# float32 arrays of 1024 and of 12288 rows the loop beat ``x.max`` at every
# width up to 32 (24 wide, 12288 rows: 0.18 vs 0.93 ms); from 33 on it lost
# at 1024 rows, and at 64 wide it was 2.7x slower.
_SHORT_ROW = 32


def _row_max(x, axis):
    """``x.max(axis, keepdims=True)``.  numpy reduces each short row at several
    times the cost of its arithmetic, so up to _SHORT_ROW columns an
    elementwise maximum over the columns is faster.  Max is exact, so the
    softmax built on either keeps its bits."""
    cols = np.moveaxis(x, axis, 0)
    if not 1 <= len(cols) <= _SHORT_ROW:
        return x.max(axis=axis, keepdims=True)
    top = np.array(cols[0])
    for col in cols[1:]:
        np.maximum(top, col, out=top)
    return np.expand_dims(top, axis)


def _softmax_forward(x, axis):
    top = _row_max(x, axis)
    y = x - top
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    # Rows where every entry sits at the mask sentinel produce exp-sums that
    # would still normalize to a uniform row; force them to zero instead.  A
    # row is all at the sentinel exactly when its max is (NaN rows are not).
    dead = top <= MASK_VALUE / 2
    if dead.any():
        np.copyto(y, 0.0, where=dead)
    return y


def softmax(a, axis=-1, keep=None) -> Tensor:
    """Numerically stabilized softmax; all-masked rows return zeros.

    ``keep`` is an optional constant 0/1 array broadcastable to ``a``: the
    entries outside it are zeroed after the full softmax, without
    renormalizing, so the kept entries retain their soft scores (top-k
    competition).  An all-ones ``keep`` gives the bits of no ``keep``.
    """
    a = _astensor(a)
    y = _softmax_forward(a.data, axis)
    if keep is not None:
        keep = np.asarray(keep, dtype=y.dtype)
    out = _make(y if keep is None else y * keep, (a,))
    if out.requires_grad:
        def _bw(g):
            if keep is not None:
                g = g * keep
            dot = (g * y).sum(axis=axis, keepdims=True)
            _accum(a, y * (g - dot), fresh=True)
        out._backward = _bw
    return out


def log_softmax(a) -> Tensor:
    """Log-softmax over the last axis."""
    a = _astensor(a)
    shifted = a.data - _row_max(a.data, -1)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse
    out = _make(y, (a,))
    if out.requires_grad:
        def _bw(g):
            _accum(a, g - np.exp(y) * g.sum(axis=-1, keepdims=True), fresh=True)
        out._backward = _bw
    return out


def cross_entropy(logits: Tensor, targets, weights=None) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``logits``.

    ``logits`` has shape (..., n_classes); ``targets`` the matching integer
    shape.  Fused log-softmax keeps the op stable for large logits.  With
    ``weights``, a constant broadcastable to ``targets`` (the copy task's
    0/1 echo-region mask), the mean is over the weighted positions:
    ``sum(w * nll) / max(sum(w), 1)``.
    """
    targets = np.asarray(targets)
    lp = log_softmax(logits)
    flat = reshape(lp, (-1, logits.data.shape[-1]))
    picked = take(flat, (np.arange(flat.data.shape[0]), targets.reshape(-1)))
    if weights is None:
        return mul(tsum(picked), -1.0 / picked.data.size)
    w = np.broadcast_to(weights, targets.shape).reshape(-1).astype(flat.data.dtype)
    return mul(tsum(mul(picked, w)), -1.0 / max(float(w.sum()), 1.0))


# ---- composite layers -------------------------------------------------------


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer normalization over the last axis with learned gain/bias.

    One tape node.  The forward does the arithmetic of the composition
    mean -> centre -> mean square -> ``(var + 1e-5) ** -0.5`` -> scale, in
    that order, so its bits equal those of the composed ops.  The backward
    is the analytic one (Ba et al. 2016): with ``xh`` the normalized input
    and ``gx = g * gain``, ``dx = inv * (gx - mean(gx) - xh * mean(gx * xh))``.
    """
    x, gain, bias = _astensor(x), _astensor(gain, like=x), _astensor(bias, like=x)
    dt = x.data.dtype
    rn = np.asarray(1.0 / x.data.shape[-1], dtype=dt)
    xh = x.data - x.data.sum(axis=-1, keepdims=True) * rn
    var = (xh * xh).sum(axis=-1, keepdims=True) * rn
    inv = (var + np.asarray(1e-5, dtype=dt)) ** -0.5
    xh *= inv
    y = xh * gain.data
    y += bias.data
    out = _make(y, (x, gain, bias))
    if out.requires_grad:
        def _bw(g):
            gxh = g * xh
            if gain.requires_grad:
                _accum(gain, _unbroadcast(gxh, gain.data.shape), fresh=True)
            if bias.requires_grad:
                _accum(bias, _unbroadcast(g, bias.data.shape), fresh=g.shape != bias.data.shape)
            if x.requires_grad:
                # Row means of gx and gx * xh as dot products with the gain,
                # without a full-size product.
                def row_mean(a):
                    m = np.einsum("...i,...i->...", a, gain.data)[..., None]
                    m *= rn
                    return m
                gx = g * gain.data
                gx -= row_mean(g)
                gx -= xh * row_mean(gxh)
                gx *= inv
                _accum(x, _unbroadcast(gx, x.data.shape), fresh=True)
        out._backward = _bw
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate==0 or rng is None (eval mode)."""
    if rate <= 0.0 or rng is None:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return mul(x, keep)


# ---- parameters -------------------------------------------------------------


class Module:
    """Base of every layer that owns parameters.

    ``parameters()`` finds them rather than keeping a list: it walks the
    instance's attributes in assignment order, recursing into Modules, lists,
    tuples and dicts, and returns each leaf tensor with ``requires_grad``
    once, keyed by its name.  Checkpoints and the optimizer key parameters by
    name, so two different tensors with one name raise ``ValueError``.
    """

    def parameters(self) -> dict[str, Tensor]:
        found = {}

        def visit(x):
            if isinstance(x, Tensor):
                if x.requires_grad and x._backward is None \
                        and found.setdefault(x.name, x) is not x:
                    raise ValueError(f"two different parameters are named {x.name!r}")
                return
            if isinstance(x, Module):
                x = vars(x).values()
            elif isinstance(x, dict):
                x = x.values()
            elif not isinstance(x, (list, tuple)):
                return
            for item in x:
                visit(item)

        visit(self)
        return found


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
