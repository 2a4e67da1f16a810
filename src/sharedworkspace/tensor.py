"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap contiguous numpy buffers (float32 for training, float64 for
gradient checking) and record a tape of backward closures as operations are
applied.  Backward traverses the tape in reverse topological order and
accumulates gradients into every reachable tensor with ``requires_grad``.
One backward consumes the tape: each interior node drops its gradient, its
closure and its inputs as soon as its closure has run, so a second backward
through the same graph raises ``RuntimeError``.  Leaves (tensors created with
``requires_grad=True``) keep their gradients, each in an owned C-order array.

The tape holds only what backward reads.  A tensor holds its data, its name
and ``_node``; every tensor that takes a gradient has a ``_Node`` (gradient,
closure, ``_prev``, ``_owns_grad``, shape and dtype, no data), and the tape is
made of these alone.  A parameter's node, built with the tensor, is a leaf;
an op output that records a gradient gets its node from ``_make``; a
constant, and any output made under ``no_grad`` or from constants only, has
none.  A tensor's ``grad`` is its node's and ``requires_grad`` says it has
one.  Consumers' ``_prev`` and closures hold nodes, never input tensors, and
each closure captures exactly the arrays its formula reads, at the width its
data has: matmul the other operand (only when this side takes a gradient),
mul the other factor, dropout its bool keep mask, softmax, log-softmax, tanh,
sigmoid and relu their output (softmax also its ``keep``, as bool), layer norm
``xh``, ``inv`` and the gain; add, reshape, swapaxes, concat, take and tsum
only shapes and indices.  Any other buffer, such as raw attention scores,
pre-bias products or residual sums, is freed when the caller drops its
tensor.  A new op follows the same rule: its closure names the inputs'
``_node``s and the arrays it reads, and no input tensor.  It returns
through ``_op``, which records the closure and any rebuild on the output's
node, and names that node nowhere else.

Rebuild, don't hold.  Two outputs are cheap, exact functions of arrays their
own closures keep: layer norm's ``xh * gain + bias`` and top-k softmax's
``y * keep``.  Their op computes the output through that function and
hands it to ``_op`` as the node's ``_rebuild``; reshape, swapaxes and a
basic-index take pass it on as the same view (``_pass_view``).  When mul or
matmul reads such an input, its closure keeps the input's node instead of
the array (``_held``), and backward reads the data through the node's
``_memo`` (``_read``): the first reader rebuilds it, and the memo and the
rebuild go with the producer's closure, so an output is rebuilt at most
once per backward and its array is freed with the caller's handle.  The
rebuild reads only what the closure already keeps, plus the bias
parameter's array.

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

A forward still holds tens of MiB of tape buffers that are all freed together
when the loss is dropped.  Left to its defaults, glibc would give that heap
top back to the kernel (and serve buffers above its dynamic threshold by
mmap), so every step and evaluation faulted the same pages in again, and how
many it faulted depended on the heap layout, not on the ops.  So importing
this module sets glibc's mmap threshold to its 64-bit ceiling of 32 MiB and
its trim threshold above any step's working set: freed buffers stay in the
heap and the next step reuses them.  Both are set because setting either one
turns glibc's dynamic threshold off.  Without a glibc ``mallopt`` (another C
library) nothing is set.
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
    __slots__ = ("data", "name", "_node")

    def __init__(self, data, requires_grad=False, name=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.name = name
        # A parameter's node is a leaf of every tape that reads it.
        self._node = _Node(arr, ()) if requires_grad else None

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

    @property
    def requires_grad(self):
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        if self._node is None:
            raise RuntimeError(f"cannot set the gradient of {self.name or 'a tensor'!r}: it "
                               "takes no gradient (a constant, or made under no_grad)")
        self._node.grad = value

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
        A tensor that records no gradient (made under ``no_grad``, or from
        constants only) raises ``RuntimeError``.
        """
        root = self._node
        if root is None:
            raise RuntimeError("backward() through a tensor that records no gradient "
                               "(made under no_grad, or from constants only)")
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar loss")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        topo, visited = [], set()
        stack = [(root, False)]
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

        if root.grad is not None:
            grad = root.grad + grad
        elif root._backward is None:
            grad = np.array(grad, order="C")   # a leaf owns its gradient
        root.grad = grad
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = _consumed
            node._prev = ()
            node._rebuild = node._memo = None

    # ---- operator sugar ------------------------------------------------------

    def __getitem__(self, idx):
        return take(self, idx)


class _Node:
    """The tape's record of a tensor that takes a gradient: everything of it
    except its data.  A parameter's node is a leaf (no closure, no inputs);
    an op output's node holds its closure and, in ``_prev``, its inputs'
    nodes."""

    __slots__ = ("grad", "_backward", "_prev", "_owns_grad", "shape", "dtype",
                 "_rebuild", "_memo")

    def __init__(self, data, prev):
        self.grad = None
        self._backward = None
        self._prev = prev
        # An output that its producer can compute again from what the
        # producer's closure keeps has ``_rebuild``, and consumers read it
        # through ``_memo`` (see ``_held``).
        self._rebuild = None
        self._memo = None
        # False while ``grad`` is an array borrowed from another node's
        # gradient (see ``_accum``); it is then copied before any write.
        self._owns_grad = True
        self.shape = data.shape
        self.dtype = data.dtype


def _astensor(x, like=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data, prev) -> Tensor:
    """The output of an op on the tensors ``prev``.  It records a gradient,
    with a node whose ``_prev`` holds the inputs' nodes, when the tape is on
    and some input has a node; otherwise it has no node."""
    out = Tensor(data)
    if _grad_enabled:
        nodes = tuple(p._node for p in prev if p._node is not None)
        if nodes:
            out._node = _Node(out.data, nodes)
    return out


def _consumed(g=None):
    """Stands in for the closure of a node whose backward has already run."""
    raise RuntimeError("backward through a graph that an earlier backward consumed")


def _held(t: Tensor):
    """What a consumer's closure keeps to read ``t``'s data in backward: the
    node of an output that its producer rebuilds, else the array itself."""
    n = t._node
    return n if n is not None and n._rebuild is not None else t.data


def _read(held):
    """The array that ``held`` (from ``_held``) stands for.  The first read
    of a node in a backward rebuilds its data into ``_memo``; later reads
    take the memo, which the backward drops with the node's closure."""
    if type(held) is not _Node:
        return held
    if held._memo is None:
        held._memo = held._rebuild()
    return held._memo


def _op(data, prev, backward, rebuild=None) -> Tensor:
    """The output ``data`` of an op on the tensors ``prev``.  When it records
    a gradient (see ``_make``), its node takes the closure ``backward`` and
    ``rebuild``; no op touches its output's node itself."""
    # Through the module global: perfbench/tracer.py rebinds ``_make``.
    out = _make(data, prev)
    if out._node is not None:
        out._node._backward = backward
        out._node._rebuild = rebuild
    return out


def _pass_view(na: _Node | None, view):
    """The rebuild of the view ``view(data)`` of an input with node ``na``:
    the same view of the input's rebuild, when it has one."""
    if na is not None and na._rebuild is not None:
        return lambda: view(_read(na))
    return None


def _accum(node: _Node, g, fresh=False):
    """Add the contribution ``g`` to ``node.grad``.

    ``fresh`` says that the caller has just computed ``g`` and nothing else
    references it: an interior node adopts it and adds later contributions
    in place.  Any other ``g`` (a view of the consumer's gradient, or the one
    array ``add`` hands to both operands) is borrowed: the node reads it and
    copies before its first write.  A leaf, and a ``g`` that is not a
    C-contiguous array of the node's dtype, always get an owned C-order copy,
    so every gradient has the layout, and later reductions the bits, that a
    copy gives.
    """
    if node.grad is None:
        if (node._backward is not None and isinstance(g, np.ndarray)
                and g.dtype == node.dtype and g.flags.c_contiguous):
            node.grad = g
            node._owns_grad = fresh
        else:
            node.grad = np.array(g, dtype=node.dtype, order="C")
            node._owns_grad = True
    elif node._owns_grad:
        node.grad += g
    else:
        node.grad = np.add(node.grad, g, out=np.empty_like(node.grad))
        node._owns_grad = True


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
    na, nb = a._node, b._node
    def _bw(g):
        # A summed-down gradient is fresh; an unreduced one is ``g`` itself.
        if na is not None:
            _accum(na, _unbroadcast(g, na.shape), fresh=g.shape != na.shape)
        if nb is not None:
            _accum(nb, _unbroadcast(g, nb.shape), fresh=g.shape != nb.shape)
    return _op(a.data + b.data, (a, b), _bw)


def mul(a, b) -> Tensor:
    a, b = _astensor(a), _astensor(b, like=a)
    na, nb = a._node, b._node
    # Each factor's gradient reads the other factor only.
    ad = _held(a) if nb is not None else None
    bd = _held(b) if na is not None else None
    def _bw(g):
        if na is not None:
            _accum(na, _unbroadcast(g * _read(bd), na.shape), fresh=True)
        if nb is not None:
            _accum(nb, _unbroadcast(g * _read(ad), nb.shape), fresh=True)
    return _op(a.data * b.data, (a, b), _bw)


def relu(a) -> Tensor:
    a = _astensor(a)
    y = np.maximum(a.data, 0.0)
    na = a._node
    # relu(x) > 0 exactly where x > 0 (for +-0 and NaN too), so the mask
    # reads the output.  It is made in backward, not at forward time: a
    # forward that is never differentiated (evaluation) still records the tape.
    return _op(y, (a,), lambda g: _accum(na, g * (y > 0), fresh=True))


def tanh(a) -> Tensor:
    a = _astensor(a)
    y = np.tanh(a.data)
    na = a._node
    return _op(y, (a,), lambda g: _accum(na, g * (1.0 - y * y), fresh=True))


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
    na = a._node
    return _op(y, (a,), lambda g: _accum(na, g * y * (1.0 - y), fresh=True))


# ---- shape ops --------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _astensor(a)
    na = a._node
    return _op(a.data.reshape(shape), (a,), lambda g: _accum(na, g.reshape(na.shape)),
               _pass_view(na, lambda d: d.reshape(shape)))


def swapaxes(a, ax1, ax2) -> Tensor:
    a = _astensor(a)
    na = a._node
    return _op(np.swapaxes(a.data, ax1, ax2), (a,),
               lambda g: _accum(na, np.swapaxes(g, ax1, ax2)),
               _pass_view(na, lambda d: np.swapaxes(d, ax1, ax2)))


def concat(tensors, axis=0) -> Tensor:
    tensors = [_astensor(t) for t in tensors]
    nodes = [t._node for t in tensors]
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
    def _bw(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accum(n, g[tuple(idx)])
    return _op(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), _bw)


def _is_basic_index(idx) -> bool:
    """True when ``idx`` holds only ints, slices and ``...``, so it selects
    no element twice."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is Ellipsis or isinstance(p, (int, np.integer, slice)) for p in parts)


def take(a, idx) -> Tensor:
    """Advanced/basic indexing with gradient scatter-add on backward.

    A basic index selects each element at most once, so backward adds in
    place, with the bits of the ``np.add.at`` scatter that advanced indices
    (which may repeat) need.
    """
    a = _astensor(a)
    na, basic = a._node, _is_basic_index(idx)
    def _bw(g):
        if na.grad is None:
            na.grad = np.zeros(na.shape, na.dtype)
        elif not na._owns_grad:
            na.grad = na.grad.copy()
        na._owns_grad = True
        if basic:
            na.grad[idx] += g
        else:
            np.add.at(na.grad, idx, g)
    return _op(a.data[idx], (a,), _bw, _pass_view(na, lambda d: d[idx]) if basic else None)


# ---- reductions -------------------------------------------------------------


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _astensor(a)
    na = a._node
    def _bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(na, np.broadcast_to(g, na.shape).copy(), fresh=True)
    return _op(a.data.sum(axis=axis, keepdims=keepdims), (a,), _bw)


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
    na, nb = a._node, b._node
    # 1-D operands take part as a (1, k) row or a (k, 1) column.
    a2_shape = a.data.shape if a.data.ndim > 1 else (1,) + a.data.shape
    b2_shape = b.data.shape if b.data.ndim > 1 else b.data.shape + (1,)
    g_shape = np.broadcast_shapes(a2_shape[:-2], b2_shape[:-2]) + (a2_shape[-2], b2_shape[-1])
    # Each operand's gradient reads the other operand only.
    ha = _held(a) if nb is not None else None
    hb = _held(b) if na is not None else None
    def _bw(g):
        g = g.reshape(g_shape)
        if na is not None:
            b2 = _read(hb)
            b2 = b2 if b2.ndim > 1 else b2[:, None]
            _accum(na, _matmul_sum(g, _transposed(b2), a2_shape).reshape(na.shape),
                   fresh=True)
        if nb is not None:
            a2 = _read(ha)
            a2 = a2 if a2.ndim > 1 else a2[None, :]
            _accum(nb, _matmul_sum(_transposed(a2), g, b2_shape).reshape(nb.shape),
                   fresh=True)
    return _op(np.matmul(a.data, b.data), (a, b), _bw)


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
    competition).  An all-ones ``keep`` gives the bits of no ``keep``.  The
    closure keeps it as bool: a product with a bool array has the bytes of
    the product with the same 0.0/1.0 mask in the float dtype.  With
    ``keep`` the output is ``y * keep`` of two arrays the closure keeps, so
    consumers rebuild it rather than hold it.
    """
    a = _astensor(a)
    y = _softmax_forward(a.data, axis)
    rebuild = None
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        rebuild = lambda: y * keep   # noqa: E731
    na = a._node
    def _bw(g):
        if keep is not None:
            g = g * keep
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(na, y * (g - dot), fresh=True)
    return _op(y if keep is None else rebuild(), (a,), _bw, rebuild)


def log_softmax(a) -> Tensor:
    """Log-softmax over the last axis."""
    a = _astensor(a)
    shifted = a.data - _row_max(a.data, -1)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse
    na = a._node
    return _op(y, (a,),
               lambda g: _accum(na, g - np.exp(y) * g.sum(axis=-1, keepdims=True), fresh=True))


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``logits``.

    ``logits`` has shape (..., n_classes); ``targets`` the matching integer
    shape.  Fused log-softmax keeps the op stable for large logits.
    """
    targets = np.asarray(targets)
    lp = log_softmax(logits)
    flat = reshape(lp, (-1, logits.data.shape[-1]))
    picked = take(flat, (np.arange(flat.data.shape[0]), targets.reshape(-1)))
    return mul(tsum(picked), -1.0 / picked.data.size)


# ---- composite layers -------------------------------------------------------


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer normalization over the last axis with learned gain/bias.

    One tape node.  The forward does the arithmetic of the composition
    mean -> centre -> mean square -> ``(var + 1e-5) ** -0.5`` -> scale, in
    that order, so its bits equal those of the composed ops.  The backward
    is the analytic one (Ba et al. 2016): with ``xh`` the normalized input
    and ``gx = g * gain``, ``dx = inv * (gx - mean(gx) - xh * mean(gx * xh))``.
    The output ``xh * gain + bias`` is computed by the node's rebuild, so
    consumers that read it in backward compute it again instead of holding it.
    """
    x, gain, bias = _astensor(x), _astensor(gain, like=x), _astensor(bias, like=x)
    dt = x.data.dtype
    rn = np.asarray(1.0 / x.data.shape[-1], dtype=dt)
    xh = x.data - x.data.sum(axis=-1, keepdims=True) * rn
    var = (xh * xh).sum(axis=-1, keepdims=True) * rn
    inv = (var + np.asarray(1e-5, dtype=dt)) ** -0.5
    xh *= inv
    gd, bd = gain.data, bias.data

    def rebuild():
        y = xh * gd
        y += bd
        return y
    nx, ng, nbias = x._node, gain._node, bias._node
    def _bw(g):
        gxh = g * xh
        if ng is not None:
            _accum(ng, _unbroadcast(gxh, ng.shape), fresh=True)
        if nbias is not None:
            _accum(nbias, _unbroadcast(g, nbias.shape), fresh=g.shape != nbias.shape)
        if nx is not None:
            # Row means of gx and gx * xh as dot products with the gain,
            # without a full-size product.
            def row_mean(a):
                m = np.einsum("...i,...i->...", a, gd)[..., None]
                m *= rn
                return m
            gx = g * gd
            gx -= row_mean(g)
            gx -= xh * row_mean(gxh)
            gx *= inv
            _accum(nx, _unbroadcast(gx, nx.shape), fresh=True)
    return _op(rebuild(), (x, gain, bias), _bw, rebuild)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None,
            rows=None, n_rows: int | None = None) -> Tensor:
    """Inverted dropout; identity when rate==0 or rng is None (eval mode).

    ``rows`` says that ``x`` holds only those rows (an index into axis -2)
    of an output ``n_rows`` rows long: the mask is drawn for the whole
    output and cut to ``rows``, so the generator ends where the full-width
    draw leaves it and every later mask is unchanged.

    One tape node, whose closure keeps only the bool keep mask (with
    ``rows``, a copy of the kept rows, so the full draw is freed): one byte
    per element on the tape.  Forward and backward have the bits of
    ``mul(x, keep.astype(dtype) / (1 - rate))``, and the mask is that of
    ``rng.random(shape) >= rate``.
    """
    if rate <= 0.0 or rng is None:
        return x
    if rows is None:
        keep = _keep_mask(rng, x.data.shape, rate)
    else:
        keep = _keep_mask(rng, x.shape[:-2] + (n_rows, x.shape[-1]), rate)[..., rows, :].copy()
    # 1 / (1 - rate) rounded as the kept entries of that float mask were.
    scale = np.ones((), x.data.dtype)
    scale /= 1.0 - rate
    nx = x._node
    return _op(_masked_scale(x.data, keep, scale), (x,),
               lambda g: _accum(nx, _masked_scale(g, keep, scale), fresh=True))


# Uniforms a dropout mask draws at a time.  One float64 draw of a whole
# (64, 65, 64) mask is 2 MiB, and the forward's memory peak sits at a dropout.
_DRAW_CHUNK = 1 << 15


def _keep_mask(rng, shape, rate):
    """``rng.random(shape) >= rate``, drawn into the bool mask _DRAW_CHUNK
    uniforms at a time: the same stream, so the same mask and the same
    generator state after it."""
    keep = np.empty(shape, dtype=bool)
    flat = keep.reshape(-1)
    draw = np.empty(min(flat.size, _DRAW_CHUNK))
    for lo in range(0, flat.size, _DRAW_CHUNK):
        u = draw[:flat.size - lo]
        rng.random(out=u)
        np.greater_equal(u, rate, out=flat[lo:lo + u.size])
    return keep


def _masked_scale(a, keep, scale):
    """``a * (keep * scale)`` with its bits, but no float mask: ``a * keep``
    is ``a`` where kept and, elsewhere, the signed zero or NaN that ``a * 0``
    is, so scaling it after masking rounds as scaling by the mask did."""
    out = keep.astype(a.dtype)
    out *= a
    out *= scale
    return out


# ---- parameters -------------------------------------------------------------


class Module:
    """Base of every layer that owns parameters.

    ``parameters()`` finds them rather than keeping a list: it walks the
    instance's attributes in assignment order, recursing into Modules, lists,
    tuples and dicts, and returns once, keyed by its name, each tensor whose
    node is a leaf (a node without a closure).  Checkpoints and the optimizer
    key parameters by name, so two different tensors with one name raise
    ``ValueError``.
    """

    def parameters(self) -> dict[str, Tensor]:
        found = {}

        def visit(x):
            if isinstance(x, Tensor):
                if x._node is not None and x._node._backward is None \
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
