"""The shared workspace: competitive write, gated memory update, broadcast read.

Specialists (rows of R) compete to write into a small slot memory M via
attention with queries from the current memory; the updated memory is then
blended with the previous one through input/forget gates and finally
broadcast back to every specialist as a residual read.  ``communicate`` is
the one place that composes these three steps into a round.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionOutput, ProjectionSet, multihead
from .errors import ConfigError
from .optim import NumericError
from .tensor import Tensor


@dataclass
class WorkspaceState:
    """Slot memory with arbitrary leading batch dims: (..., n_m, n_l).

    For autoregressive hosts the leading dims include the position axis, one
    independent memory per position.
    """
    memory: Tensor

# "unit": a gate per slot unit; "memory": one gate per slot.
GATE_STYLES = ("unit", "memory")


class SharedWorkspace(T.Module):
    """Parameters and operations of one shared workspace instance."""

    def __init__(self, rng: np.random.Generator, n_s: int, n_h: int, n_m: int,
                 n_heads: int = 4, key_dim: int = 32, value_dim: int | None = None,
                 gate_style: str = "unit", include_memory_rows: bool = False,
                 read_q_dim: int | None = None, dtype=np.float32):
        if n_m >= n_s:
            warnings.warn(
                f"n_m={n_m} >= n_s={n_s}: the workspace is no longer a bandwidth "
                "bottleneck relative to the specialists", stacklevel=2)
        # Slots are as wide as the specialists, so a write over memory rows
        # can stack [M; A].
        n_l = n_h
        value_dim = key_dim if value_dim is None else value_dim
        self.n_s, self.n_h, self.n_m, self.n_l = n_s, n_h, n_m, n_l
        self.n_heads = n_heads
        self.key_dim, self.value_dim = key_dim, value_dim
        self.gate_style = gate_style
        self.include_memory_rows = include_memory_rows
        self.dtype = dtype

        # Readers may be narrower than the slots (TIMs mechanisms read from
        # wide slots); they read back at their own width.
        read_q_dim = n_h if read_q_dim is None else read_q_dim
        self.write_proj = ProjectionSet(rng, n_l, n_h, n_l, n_heads, key_dim, value_dim,
                                        dtype, "ws.write")
        self.read_proj = ProjectionSet(rng, read_q_dim, n_l, read_q_dim, n_heads,
                                       key_dim, value_dim, dtype, "ws.read")
        # Gating per the input/forget construction; W1 is shared across all
        # specialists (a single instance regardless of n_s).
        gate_out = n_l if gate_style == "unit" else 1
        self.w1 = T.linear_init(rng, n_h, n_l, dtype, "ws.gate.w1")
        self.w_i = T.linear_init(rng, n_l, gate_out, dtype, "ws.gate.w_i")
        self.w_f = T.linear_init(rng, n_l, gate_out, dtype, "ws.gate.w_f")
        self.b_i = T.zeros((gate_out,), dtype, requires_grad=True, name="ws.gate.b_i")
        self.b_f = T.zeros((gate_out,), dtype, requires_grad=True, name="ws.gate.b_f")
        self.init_memory = T.uniform_init(rng, (n_m, n_l), 0.01, dtype, "ws.init_memory")

    # ---- operations ---------------------------------------------------------

    def reset(self, batch_shape: tuple) -> WorkspaceState:
        """Fresh state: learned initial memory broadcast over the batch dims."""
        full = batch_shape + (self.n_m, self.n_l)
        base = T.zeros(full, dtype=self.dtype)
        return WorkspaceState(memory=T.add(base, self.init_memory))

    def write_step(self, ws: WorkspaceState, specialists: Tensor,
                   topk: int | None = None, write_mask=None) -> tuple[Tensor, AttentionOutput]:
        """Candidate memory from the write competition.

        ``specialists``: (..., n_s, n_h) rows of R.  ``topk`` selects hard
        competition with k specialist writers; None is soft competition.
        Only ``tr_hsw`` sets ``topk`` (``config.validate``), and its
        workspace has no memory rows; ``topk_select`` bounds k.
        ``write_mask`` optionally hides specialist columns (e.g. causal
        masking), broadcastable to (..., n_m, n_keys).
        Returns (candidate memory M_tilde, attention output for logging).
        """
        if specialists.shape[-2] == 0:
            raise ConfigError("write_step needs at least one specialist")
        if not np.isfinite(specialists.data).all():
            raise NumericError("non-finite specialist state entering workspace write")
        kv = T.concat([ws.memory, specialists], axis=-2) if self.include_memory_rows else specialists
        att = multihead(ws.memory, kv, self.write_proj, mask=write_mask, topk=topk)
        return att.values, att

    def gated_update(self, ws: WorkspaceState, candidate: Tensor,
                     specialist_inputs: Tensor) -> WorkspaceState:
        """Input/forget-gated blend of the candidate with the previous memory."""
        if candidate.shape != ws.memory.shape:
            raise ConfigError(
                f"candidate memory shape {candidate.shape} != {ws.memory.shape}")
        x_bar = T.tmean(T.relu(T.matmul(specialist_inputs, self.w1)), axis=-2, keepdims=True)
        return self.gated_update_from_pooled(ws, candidate, x_bar)

    def gated_update_from_pooled(self, ws: WorkspaceState, candidate: Tensor,
                                 x_bar: Tensor) -> WorkspaceState:
        """Gated blend with a caller-supplied pooled input summary.

        ``x_bar`` broadcasts against the memory (..., 1, n_l); the causal
        round passes each copy's mean over its masked writers instead of the
        full specialist mean.
        """
        prev = ws.memory
        k = T.add(x_bar, T.tanh(prev))
        gate_i = T.sigmoid(T.add(T.matmul(k, self.w_i), self.b_i))
        gate_f = T.sigmoid(T.add(T.matmul(k, self.w_f), self.b_f))
        new = T.add(T.mul(gate_i, T.tanh(candidate)), T.mul(gate_f, prev))
        return WorkspaceState(memory=new)

    def broadcast_step(self, ws: WorkspaceState,
                       specialists: Tensor) -> tuple[Tensor, AttentionOutput]:
        """Residual read: every specialist attends over the memory slots."""
        att = multihead(specialists, ws.memory, self.read_proj)
        return T.add(specialists, att.values), att

    def communicate(self, ws: WorkspaceState, writers: Tensor, readers: Tensor,
                    topk: int | None = None, mask=None,
                    rows=None) -> tuple[WorkspaceState, Tensor, AttentionOutput]:
        """Write, gated update, then read: (new state, read values shaped like
        ``readers`` without the residual, write attention).

        Writers (..., n_s, n_h) share one memory (..., n_m, n_l).  With
        ``mask``, the (T, T) 0/1 keep mask of a causal host, writers and
        readers are (B, T, d) and the memory (B, T, n_m, n_l): copy t takes
        writes from the positions that row t of the mask keeps, its gate
        pools their mean, and position t reads copy t.  ``rows``, a slice,
        names the writer positions that ``readers`` holds (None: every
        position in a masked round; readers that are not positions
        otherwise).  A masked round builds only those positions' memory
        copies: the incoming memory and the mask are cut to them, and the
        new state holds only them.
        """
        positions = range(writers.shape[-2])
        if rows is not None:
            positions = positions[rows]
        if (mask is not None or rows is not None) and readers.shape[-2] != len(positions):
            raise ConfigError(f"{readers.shape[-2]} readers for the {len(positions)} "
                              f"writer positions {rows or 'all'}")
        if mask is None:
            cand, att = self.write_step(ws, writers, topk)
            ws = self.gated_update(ws, cand, writers)
            return ws, multihead(readers, ws.memory, self.read_proj).values, att
        b, n_t, n_h = writers.shape
        n_r = len(positions)
        if rows is not None:
            ws = WorkspaceState(memory=ws.memory[:, rows])
            mask = mask[rows]
        # Write-mask axes: memory copy (axis -4), heads, slots, writer position.
        cand, att = self.write_step(ws, T.reshape(writers, (b, 1, n_t, n_h)), topk,
                                    mask.reshape(n_r, 1, 1, n_t))
        # Each copy's gate input is the mean of the writers its row keeps,
        # divided in the workspace's dtype.  Pool from ``writers``, not the
        # view above: it fixes the order in which gradients add up.
        keep = np.asarray(mask, dtype=self.dtype)
        pooled = T.matmul(Tensor(keep / keep.sum(-1, keepdims=True)),
                          T.relu(T.matmul(writers, self.w1)))
        ws = self.gated_update_from_pooled(ws, cand, T.reshape(pooled, (b, n_r, 1, self.n_l)))
        read = multihead(T.reshape(readers, (b, n_r, 1, readers.shape[-1])),
                         ws.memory, self.read_proj)
        return ws, T.reshape(read.values, readers.shape), att


def write_broadcast_flops(n_s: int, n_m: int, n_h: int, n_l: int, n_heads: int,
                          key_dim: int, value_dim: int) -> dict:
    """Analytic multiply-add counts for one write + broadcast stage.

    Every term is linear in n_s; the pairwise-attention n_s**2 term has no
    counterpart here.  Counts are multiply-adds (one fused op), per batch
    element, excluding softmax exponentials.
    """
    hk = n_heads * key_dim
    hv = n_heads * value_dim
    write = {
        "proj_q": n_m * n_l * hk,
        "proj_k": n_s * n_h * hk,
        "proj_v": n_s * n_h * hv,
        "scores": n_heads * n_m * n_s * key_dim,
        "mix": n_heads * n_m * n_s * value_dim,
        "proj_out": n_m * hv * n_l,
    }
    read = {
        "proj_q": n_s * n_h * hk,
        "proj_k": n_m * n_l * hk,
        "proj_v": n_m * n_l * hv,
        "scores": n_heads * n_s * n_m * key_dim,
        "mix": n_heads * n_s * n_m * value_dim,
        "proj_out": n_s * hv * n_h,
    }
    total = sum(write.values()) + sum(read.values())
    return {"write": write, "read": read, "total": total}

