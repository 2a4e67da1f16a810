"""Runtime tracing of the training path, installed from outside the package.

``Tracer.install`` replaces the public functions and methods of each layer
with timing wrappers, in every ``sharedworkspace`` module that holds a
reference to them (``from .attention import multihead`` makes a second
reference in ``models`` and ``workspace``).  ``uninstall`` puts the
originals back.  Nothing under ``src/`` changes.

Layer calls become spans (name, start, end, parent span, step id) kept in
memory.  Tensor ops are too many and too small for spans; their wrappers
only count calls per step (nested calls such as ``layer_norm`` -> ``tmean``
included), and ``matmul`` also adds its forward time and a FLOP count
computed from the shapes.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

from sharedworkspace import (attention, models, optim, serialization, tasks,
                             tensor, train, workspace)

PACKAGE = "sharedworkspace"

# Public tensor functions that are not ops: they build tensors or flags.
_NOT_OPS = {"grad_enabled", "uniform_init", "linear_init", "zeros", "ones"}

# Span name -> metric bucket.  Phase spans are reported inclusive; the layer
# parts inside a forward are reported as self time (duration minus children).
PHASES = {
    "train.batch": "train.batch_ms",
    "train.forward": "train.forward_ms",
    "tensor.backward": "tensor.backward_ms",
    "optim.step": "optim.step_ms",
}
PARTS = {
    "attention.self": "attention.self_ms",
    "attention.topk": "attention.topk_ms",
    "workspace.write": "workspace.write_ms",
    "workspace.gate": "workspace.gate_ms",
    "workspace.read": "workspace.read_ms",
    "models.ffn": "models.ffn_ms",
    "models.mechanisms": "models.mechanisms_ms",
}
SETUP = {
    "tasks.generate": "tasks.generate_s",
    "tasks.load": "tasks.load_s",
    "models.build": "models.build_s",
}


def _tensor_ops():
    return [name for name, fn in vars(tensor).items()
            if callable(fn) and getattr(fn, "__module__", None) == tensor.__name__
            and not name.startswith("_") and not isinstance(fn, type)
            and name not in _NOT_OPS]


class Tracer:
    """Spans and counters of one traced run.  ``step`` labels everything
    recorded until it is changed; the benchmark sets it per phase."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, step]
        self.step = None
        self.op_calls = defaultdict(int)
        self.matmul_s = defaultdict(float)
        self.matmul_flop = defaultdict(int)
        self.slot_bytes = defaultdict(int)
        self.eval_grad_ops = 0
        self.eval_calls = 0
        self._stack = []
        self._in_eval = False
        self._patches = []
        # Workspace projections by id; the workspaces are kept alive so that
        # no other ProjectionSet can reuse their ids.
        self._workspaces = []
        self._ws_proj = {}

    # ---- installation ---------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        span = self._spanned
        for fn_name in ("gen_triangles", "gen_copy", "gen_sort_of_clevr"):
            self._rebind(tasks, fn_name, span("tasks.generate"))
        for fn_name in ("save_dataset", "load_dataset"):
            self._rebind(tasks, fn_name, span("tasks.load"))
        self._rebind(models, "build_model", span("models.build"))
        self._rebind(models, "tims_sw_layer", span("models.mechanisms"))
        self._rebind(train, "_batch_arrays", span("train.batch"))
        self._rebind(train, "batch_loss", span("train.forward"))
        self._rebind(train, "evaluate", self._evaluate_wrapper)
        self._rebind(attention, "multihead", span(self._multihead_kind))
        self._rebind(attention, "topk_select", span("attention.topk"))
        self._rebind(serialization, "save_checkpoint", span("serialization.save"))
        self._rebind(serialization, "load_checkpoint", span("serialization.load"))

        ws = workspace.SharedWorkspace
        self._patch(tensor.Tensor, "backward", span("tensor.backward"))
        self._patch(optim.Adam, "zero_grad", span("optim.step"))
        self._patch(optim.Adam, "step", span("optim.step"))
        self._patch(ws, "__init__", self._register_workspace)
        self._patch(ws, "write_step", span("workspace.write"))
        self._patch(ws, "gated_update", span("workspace.gate"))
        self._patch(ws, "gated_update_from_pooled", span("workspace.gate", self._count_slots))
        self._patch(ws, "broadcast_step", span("workspace.read"))
        self._patch(ws, "reset", self._counted_reset)
        self._patch(models.FeedForward, "__call__", span("models.ffn"))

        for name in _tensor_ops():
            wrap = self._timed_matmul if name == "matmul" else self._counted_op
            self._rebind(tensor, name, wrap)
        self._rebind(tensor, "_make", self._make_wrapper)
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _rebind(self, module, name, make_wrapper):
        """Replace module.name in every package module that references it."""
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")) \
                    and getattr(mod, name, None) is original:
                self._patches.append((mod, name, original))
                setattr(mod, name, wrapper)

    def _patch(self, cls, name, make_wrapper):
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))

    # ---- wrappers ------------------------------------------------------------

    def _spanned(self, name, after=None):
        """Wrapper factory recording one span per call.  ``name`` may be a
        function of the call's arguments."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                label = name(*args, **kwargs) if callable(name) else name
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                record = [label, 0.0, 0.0, parent, self.step]
                self.spans.append(record)
                self._stack.append(index)
                start = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    record[1] = start
                    self._stack.pop()
                if after is not None:
                    after(out)
                return out
            return wrapper
        return make

    def _multihead_kind(self, q_src, kv_src, proj, *args, **kwargs):
        return self._ws_proj.get(id(proj), "attention.self")

    def _register_workspace(self, init):
        @functools.wraps(init)
        def wrapper(ws, *args, **kwargs):
            init(ws, *args, **kwargs)
            self._workspaces.append(ws)
            self._ws_proj[id(ws.write_proj)] = "workspace.write"
            self._ws_proj[id(ws.read_proj)] = "workspace.read"
        return wrapper

    def _count_slots(self, state):
        self.slot_bytes[self.step] += state.memory.data.nbytes

    def _counted_reset(self, reset):
        @functools.wraps(reset)
        def wrapper(*args, **kwargs):
            state = reset(*args, **kwargs)
            self._count_slots(state)
            return state
        return wrapper

    def _evaluate_wrapper(self, evaluate):
        spanned = self._spanned("train.evaluate")(evaluate)

        @functools.wraps(evaluate)
        def wrapper(*args, **kwargs):
            self._in_eval = True
            self.eval_calls += 1
            try:
                return spanned(*args, **kwargs)
            finally:
                self._in_eval = False
        return wrapper

    def _counted_op(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.op_calls[self.step] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed_matmul(self, fn):
        @functools.wraps(fn)
        def wrapper(a, b):
            self.op_calls[self.step] += 1
            start = time.perf_counter()
            out = fn(a, b)
            self.matmul_s[self.step] += time.perf_counter() - start
            inner = a.shape[-1]
            self.matmul_flop[self.step] += 2 * out.data.size * inner
            return out
        return wrapper

    def _make_wrapper(self, make):
        @functools.wraps(make)
        def wrapper(data, prev):
            out = make(data, prev)
            if self._in_eval and out.requires_grad:
                self.eval_grad_ops += 1
            return out
        return wrapper

    # ---- results -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, step in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "step": step}) + "\n")

    def per_step(self, steps, seconds=False) -> dict:
        """Per-step sums of phase (inclusive) and part (self) times, keyed by
        metric name, one list entry per step in ``steps``."""
        wanted = set(steps)
        child = defaultdict(float)
        for name, start, end, parent, step in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, parent, step) in enumerate(self.spans):
            if step not in wanted:
                continue
            if name in PHASES:
                totals[PHASES[name]][step] += end - start
            elif name in PARTS:
                totals[PARTS[name]][step] += end - start - child[index]
            elif name in SETUP:
                totals[SETUP[name]][step] += end - start
        scale = 1.0 if seconds else 1e3
        names = list(SETUP.values()) if seconds else list(PHASES.values()) + list(PARTS.values())
        return {m: [totals[m][s] * scale for s in steps] for m in names}

    def step_metrics(self, steps) -> dict:
        """Medians over the traced train steps ``steps``."""
        out = {m: statistics.median(v) for m, v in self.per_step(steps).items()}
        out["tensor.op_calls"] = statistics.median(self.op_calls[s] for s in steps)
        out["tensor.matmul_ms"] = statistics.median(self.matmul_s[s] * 1e3 for s in steps)
        out["tensor.matmul_gflop"] = statistics.median(self.matmul_flop[s] / 1e9 for s in steps)
        out["workspace.memory_mb"] = statistics.median(self.slot_bytes[s] / 2**20 for s in steps)
        return out

    def setup_metrics(self, steps) -> dict:
        return {m: statistics.median(v) for m, v in self.per_step(steps, seconds=True).items()}

    def span_ms(self, name, steps) -> list:
        wanted = set(steps)
        return [(end - start) * 1e3 for n, start, end, parent, step in self.spans
                if n == name and step in wanted]
