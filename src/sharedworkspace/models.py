"""Host architectures built around the shared workspace.

Seven hosts share one communication contract: at every computational stage the
specialists either talk pairwise (self-attention baselines) or through the
slot memory through one ``SharedWorkspace.communicate`` round (write
competition, gated update, broadcast), which no host assembles itself:

- ``tr``        transformer, pairwise self-attention, layer params shared
- ``tr_hc``     transformer, pairwise self-attention, per-layer params
- ``tr_ssw``    transformer, soft workspace competition
- ``tr_hsw``    transformer, hard top-k workspace competition
- ``tr_2xsa``   transformer, self-attention applied twice per layer
- ``rims_sw``   recurrent specialists (GRU cells) with a shared workspace
- ``tims_sw``   mechanism-partitioned transformer with a shared workspace

The five transformer hosts and ``tims_sw`` run one pre-norm transformer
body.  ``TransformerClassifier`` embeds image patches (plus a question token
for the relational task), keeps one workspace memory per example and reads
out the CLS row.  ``CausalTransformerLM`` embeds the copy task's tokens and
reads out the positions its caller names, every one by default; its class
attribute ``causal`` makes the stack mask attention and run the workspace
round with one memory per position.  Each host passes the rows it reads to
the stack, which computes only those rows after the last layer's last
token-mixing step (TIMs: after its last block).
``TimsModel`` is that LM with a modular stack between two monolithic blocks.
``RimsModel`` has its own recurrent loop.  ``build_model`` dispatches on the
config.

Every layer is a ``tensor.Module``: its parameters are found by walking its
attributes in assignment order, not listed by hand.  A host assigns its
embedding first, so the embedding is listed first.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import ProjectionSet, multihead, scaled_dot_attention, topk_select
from .config import ModelConfig, validate
from .errors import ConfigError
from .tasks import SOC_QUESTION_BITS
from .tensor import Tensor
from .workspace import SharedWorkspace, WorkspaceState


def causal_mask(n: int) -> np.ndarray:
    """(n, n) lower-triangular keep mask: row t keeps keys at positions <= t."""
    return np.tril(np.ones((n, n), dtype=np.float32))


# ---- building blocks ---------------------------------------------------------


class Dense(T.Module):
    def __init__(self, rng, fan_in, fan_out, dtype=np.float32, prefix="dense"):
        self.w = T.linear_init(rng, fan_in, fan_out, dtype, f"{prefix}.w")
        self.b = T.zeros((fan_out,), dtype, requires_grad=True, name=f"{prefix}.b")

    def __call__(self, x):
        return T.add(T.matmul(x, self.w), self.b)


class LayerNorm(T.Module):
    def __init__(self, dim, dtype=np.float32, prefix="ln"):
        # ``dim`` may be a tuple for per-mechanism norms (n_b, dm).
        self.g = T.ones(dim, dtype, requires_grad=True, name=f"{prefix}.g")
        self.b = T.zeros(dim, dtype, requires_grad=True, name=f"{prefix}.b")

    def __call__(self, x):
        return T.layer_norm(x, self.g, self.b)


class FeedForward(T.Module):
    def __init__(self, rng, dim, hidden, dtype=np.float32, prefix="ffn"):
        self.d1 = Dense(rng, dim, hidden, dtype, f"{prefix}.1")
        self.d2 = Dense(rng, hidden, dim, dtype, f"{prefix}.2")

    def __call__(self, x):
        return self.d2(T.relu(self.d1(x)))


def patchify(images: np.ndarray, patch: int) -> np.ndarray:
    """Non-overlapping patches in row-major order, pixels flattened per patch.

    ``images``: (B, H, W) or (B, H, W, C) -> (B, n_patches, patch*patch*C).
    """
    if images.ndim == 3:
        images = images[..., None]
    b, h, w, c = images.shape
    if h % patch or w % patch:
        raise ConfigError(f"patch size {patch} does not divide image {h}x{w}")
    x = images.reshape(b, h // patch, patch, w // patch, patch, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return x.reshape(b, (h // patch) * (w // patch), patch * patch * c)


def _checked_rng(cfg: ModelConfig):
    """``validate(cfg)``, then the init generator seeded by ``cfg.seed``.  No
    layer re-checks a config rule: ``build_model`` picks the host class, and
    ``validate`` binds hosts to tasks."""
    validate(cfg)
    return np.random.default_rng(cfg.seed)


# ---- transformer hosts -------------------------------------------------------


def _rows(x: Tensor, rows) -> Tensor:
    """The token rows ``rows`` of ``x`` (..., T, d); all of them for None."""
    return x if rows is None else x[..., rows, :]


def _self_attention(h: Tensor, ln: LayerNorm, proj: ProjectionSet, mask, drop,
                    rows=None) -> Tensor:
    """Pre-norm residual self-attention sublayer.  With ``rows`` only those
    token rows query, a causal ``mask`` is cut to them, and the output holds
    only them."""
    xn = ln(h)
    if rows is not None and mask is not None:
        mask = mask[rows]
    att = multihead(_rows(xn, rows), xn, proj, mask=mask)
    return T.add(_rows(h, rows), drop(att.values, rows))


def _feed_forward(h: Tensor, blk: dict, drop, rows=None) -> Tensor:
    """Pre-norm residual feed-forward sublayer of block ``blk``; ``rows`` says
    that ``h`` holds only those token rows, for the dropout draw."""
    return T.add(h, drop(blk["ffn"](blk["ln2"](h)), rows))


def _workspace(cfg: ModelConfig, rng, dtype, n_s: int, **shape) -> SharedWorkspace:
    """The host's workspace, sized by ``cfg``, over ``n_s`` specialists."""
    return SharedWorkspace(rng, n_s=n_s, n_h=cfg.n_h, n_m=cfg.n_m, n_heads=cfg.mem_heads,
                           key_dim=cfg.key_dim, value_dim=cfg.value_dim,
                           gate_style=cfg.gate_style, dtype=dtype, **shape)


class _TransformerStack(T.Module):
    """Pre-norm transformer body shared by the transformer hosts and TIMs.

    It adds the position embedding, checks the length, builds the causal
    mask and the dropout, and ends in ``final_ln`` and the readout ``head``;
    ``_build_layers`` and ``_layers`` build and run the layers between.  By
    default each layer talks pairwise (``tr``/``tr_hc``; twice for
    ``tr_2xsa``) or through one ``SharedWorkspace.communicate`` round
    (``tr_ssw``/``tr_hsw``, after a pairwise sublayer with ``sw_plus_sa``),
    then runs the FFN.  ``causal`` picks one memory per example, or one per
    position with masked self-attention.  The ``rows`` a host passes to
    ``_run_layers`` (a slice; None: every position) are the token rows it
    reads.  The last layer's last mixing sublayer takes queries, or
    workspace readers, from those rows only, and everything after it runs
    on them; keys, values and writers stay full width, and a causal round
    builds only those rows' memory copies.  Dropout there still draws
    full-width masks, so the generator stream does not depend on ``rows``.
    A subclass sets ``max_tokens`` and assigns its embedding, ``pos`` among
    it, before calling ``__init__``, so the embedding is drawn and listed
    first.
    """

    causal = False

    def __init__(self, cfg: ModelConfig, rng, dtype, n_out: int):
        self.cfg = cfg
        self.dtype = dtype
        self._build_layers(rng)
        self.final_ln = LayerNorm(cfg.n_h, dtype, "final_ln")
        self.head = Dense(rng, cfg.n_h, n_out, dtype, "head")

    def _build_layers(self, rng) -> None:
        cfg, dtype, n_h = self.cfg, self.dtype, self.cfg.n_h
        attention = lambda name: ProjectionSet(rng, n_h, n_h, n_h, cfg.n_heads, cfg.key_dim,
                                               cfg.value_dim, dtype, name)
        # Layers share one block's parameters, except on the high-capacity
        # host.
        n_unique = cfg.n_layers if cfg.host == "tr_hc" else 1
        self.blocks = []
        for i in range(n_unique):
            p = f"layer{i}"
            blk = {
                "ln1": LayerNorm(n_h, dtype, f"{p}.ln1"),
                "ln2": LayerNorm(n_h, dtype, f"{p}.ln2"),
                "ffn": FeedForward(rng, n_h, cfg.ffn_dim, dtype, f"{p}.ffn"),
            }
            if cfg.host in ("tr", "tr_hc", "tr_2xsa") or cfg.sw_plus_sa:
                blk["sa"] = attention(f"{p}.sa")
            if cfg.host == "tr_2xsa" or cfg.sw_plus_sa:
                blk["ln1b"] = LayerNorm(n_h, dtype, f"{p}.ln1b")
            if cfg.host == "tr_2xsa":
                blk["sa2"] = attention(f"{p}.sa2")
            self.blocks.append(blk)
        self.workspace = (_workspace(cfg, rng, dtype, cfg.n_writers)
                          if cfg.host in ("tr_ssw", "tr_hsw") else None)

    def _run_layers(self, h: Tensor, rng, rows=None) -> Tensor:
        """Final-normed states (B, R, n_h) of the token rows ``rows`` of the
        embedded tokens ``h`` (B, T, n_h), after the position embedding and
        every layer; all T rows for None."""
        n_t = h.shape[-2]
        if n_t > self.max_tokens:
            raise ConfigError(f"sequence of {n_t} tokens exceeds maximum {self.max_tokens}")
        h = T.add(h, self.pos[:n_t])
        mask = causal_mask(n_t) if self.causal else None
        drop = lambda x, rows=None: T.dropout(x, self.cfg.dropout, rng, rows, n_t)
        return self.final_ln(self._layers(h, mask, drop, rows))

    def _layers(self, h: Tensor, mask, drop, rows) -> Tensor:
        cfg = self.cfg
        memory_batch = h.shape[:-1] if self.causal else h.shape[:-2]
        state = self.workspace.reset(memory_batch) if self.workspace is not None else None
        # Per stage, the head-mean write map of example 0: (n_m, T), or
        # (R, n_m, T) with one memory per read position.
        self.last_attention = []
        for layer in range(cfg.n_layers):
            blk = self.blocks[layer % len(self.blocks)]
            # The last layer's last mixing sublayer (the workspace round, else
            # sa2, else sa) and the FFN after it run on the read rows.
            cut = rows if layer == cfg.n_layers - 1 else None
            if "sa" in blk:
                last = "sa2" not in blk and self.workspace is None
                h = _self_attention(h, blk["ln1"], blk["sa"], mask, drop, cut if last else None)
            if "sa2" in blk:
                h = _self_attention(h, blk["ln1b"], blk["sa2"], mask, drop, cut)
            if self.workspace is not None:
                if not cfg.persistent_memory:
                    state = self.workspace.reset(memory_batch)
                xn = blk["ln1b" if "sa" in blk else "ln1"](h)
                state, read, write = self.workspace.communicate(state, xn, _rows(xn, cut),
                                                                cfg.topk, mask, cut)
                self.last_attention.append(write.weights.data[0].mean(axis=-3))
                h = T.add(_rows(h, cut), drop(read, cut))
            h = _feed_forward(h, blk, drop, cut)
        return h


class TransformerClassifier(_TransformerStack):
    """Patch transformer with a CLS readout (vision tasks).

    One workspace memory per example: all tokens compete to write into it
    and all read from it, except at the last layer, where only the CLS row
    (the one the head reads) queries or reads, as in CaiT's class attention.
    """

    def __init__(self, cfg: ModelConfig, dtype=np.float32):
        rng = _checked_rng(cfg)
        n_h = cfg.n_h
        patch_dim = cfg.patch_size * cfg.patch_size * cfg.n_channels
        self.max_tokens = cfg.n_writers
        self.embed = Dense(rng, patch_dim, n_h, dtype, "embed")
        self.pos = T.uniform_init(rng, (self.max_tokens, n_h), 0.02, dtype, "pos")
        self.cls = T.uniform_init(rng, (1, n_h), 0.02, dtype, "cls")
        self.q_embed = Dense(rng, SOC_QUESTION_BITS, n_h, dtype, "question") \
            if cfg.task == "soc" else None
        super().__init__(cfg, rng, dtype, cfg.n_classes)

    def forward(self, images: np.ndarray, question: np.ndarray | None = None,
                rng=None) -> Tensor:
        """Logits (B, n_classes).  ``rng`` enables dropout (training mode)."""
        cfg = self.cfg
        if self.q_embed is not None and question is None:
            raise ConfigError("this task binding requires a question vector")
        patches = patchify(np.asarray(images, dtype=self.dtype), cfg.patch_size)
        b = patches.shape[0]
        cls = T.add(T.zeros((b, 1, cfg.n_h), self.dtype), self.cls)
        parts = [cls, self.embed(Tensor(patches))]
        if self.q_embed is not None:
            q = self.q_embed(Tensor(np.asarray(question, dtype=self.dtype)))
            parts.append(T.reshape(q, (b, 1, cfg.n_h)))
        h = self._run_layers(T.concat(parts, axis=-2), rng, rows=slice(0, 1))
        return self.head(h[:, 0])


class CausalTransformerLM(_TransformerStack):
    """Next-token transformer; workspace hosts keep one memory per position.

    Position t's memory only accumulates writes from positions <= t, and the
    broadcast at t reads t's own memory, so future tokens cannot influence
    past logits.  A caller that reads only some positions names them, and
    the last layer computes only those (see ``_TransformerStack``).
    """

    causal = True

    def __init__(self, cfg: ModelConfig, dtype=np.float32):
        rng = _checked_rng(cfg)
        self.max_tokens = cfg.seq_len
        self.embed = T.uniform_init(rng, (cfg.vocab_size, cfg.n_h), 0.02, dtype, "embed")
        self.pos = T.uniform_init(rng, (self.max_tokens, cfg.n_h), 0.02, dtype, "pos")
        super().__init__(cfg, rng, dtype, cfg.vocab_size)

    def forward(self, tokens: np.ndarray, rng=None, rows=None) -> Tensor:
        """Next-token logits (B, R, vocab) at the positions ``rows`` (a slice;
        None: all T) of integer ``tokens`` (B, T).  ``rng`` enables dropout
        (training mode)."""
        return self.head(self._run_layers(self.embed[np.asarray(tokens)], rng, rows))


# ---- recurrent specialists (RIMs host) ---------------------------------------


class RimsCell(T.Module):
    """Per-specialist GRU cells plus the null-augmented input attention."""

    def __init__(self, rng, n_s, n_h, in_dim, n_sel, key_dim=16, dtype=np.float32):
        self.n_s, self.n_h, self.in_dim, self.n_sel = n_s, n_h, in_dim, n_sel
        self.key_dim = key_dim
        self.dtype = dtype
        s = 1.0 / np.sqrt(n_h)
        g = lambda shape, name: T.uniform_init(rng, shape, s, dtype, f"rims.{name}")
        # Stacked per-specialist GRU weights: (n_s, in, n_h) / (n_s, n_h, n_h).
        self.w_z = g((n_s, n_h, n_h), "gru.w_z")
        self.w_r = g((n_s, n_h, n_h), "gru.w_r")
        self.w_n = g((n_s, n_h, n_h), "gru.w_n")
        self.u_z = g((n_s, n_h, n_h), "gru.u_z")
        self.u_r = g((n_s, n_h, n_h), "gru.u_r")
        self.u_n = g((n_s, n_h, n_h), "gru.u_n")
        self.b_z = T.zeros((n_s, n_h), dtype, requires_grad=True, name="rims.gru.b_z")
        self.b_r = T.zeros((n_s, n_h), dtype, requires_grad=True, name="rims.gru.b_r")
        self.b_n = T.zeros((n_s, n_h), dtype, requires_grad=True, name="rims.gru.b_n")
        # Input attention: per-specialist queries, shared keys/values over
        # [z_t; null].  Values are specialist-state sized.
        self.w_q = g((n_s, n_h, key_dim), "inp.w_q")
        self.w_e = T.linear_init(rng, in_dim, key_dim, dtype, "rims.inp.w_e")
        self.w_v = T.linear_init(rng, in_dim, n_h, dtype, "rims.inp.w_v")
        self.null_row = T.uniform_init(rng, (1, in_dim), 0.02, dtype, "rims.inp.null")

    def _per_specialist_matmul(self, x: Tensor, w: Tensor) -> Tensor:
        # x (B, n_s, d) with stacked weights w (n_s, d, e) -> (B, n_s, e)
        b = x.shape[0]
        y = T.matmul(T.reshape(x, (b, self.n_s, 1, x.shape[-1])), w)
        return T.reshape(y, (b, self.n_s, w.shape[-1]))

    def input_attention(self, z: Tensor, h_prev: Tensor):
        """Attend over [z; null] with per-specialist queries.

        Returns (attended input a (B, n_s, n_h), weights (B, n_s, rows),
        null weight (B, n_s)); the null row is the last key row.
        """
        b = z.shape[0]
        zn = T.concat([z, T.add(T.zeros((b, 1, self.in_dim), self.dtype), self.null_row)],
                      axis=-2)
        q = self._per_specialist_matmul(h_prev, self.w_q)
        att = scaled_dot_attention(q, T.matmul(zn, self.w_e), T.matmul(zn, self.w_v))
        return att.values, att.weights, att.weights.data[..., -1]

    def gru(self, x: Tensor, h: Tensor) -> Tensor:
        pm = self._per_specialist_matmul
        z = T.sigmoid(T.add(T.add(pm(x, self.w_z), pm(h, self.u_z)), self.b_z))
        r = T.sigmoid(T.add(T.add(pm(x, self.w_r), pm(h, self.u_r)), self.b_r))
        n = T.tanh(T.add(T.add(pm(x, self.w_n), T.mul(r, pm(h, self.u_n))), self.b_n))
        return T.add(T.mul(T.add(T.mul(z, -1.0), 1.0), n), T.mul(z, h))


def rims_sw_step(cell: RimsCell, ws: SharedWorkspace, state: WorkspaceState,
                 z_t: Tensor, h_prev: Tensor, broadcast: bool = True):
    """One recurrent step: input competition, selective GRU update, workspace
    write from the activated specialists, gated update, broadcast to all.

    Returns (h_next, new workspace state, selection result).
    Non-selected specialists keep their previous state bitwise, modified only
    by the broadcast residual (omit with ``broadcast=False``).
    """
    b = z_t.shape[0]
    a, _, null_w = cell.input_attention(z_t, h_prev)
    sel = topk_select(1.0 - null_w, cell.n_sel)
    active = Tensor(sel.keep_mask[..., None].astype(cell.dtype))

    gru_out = cell.gru(a, h_prev)
    h_bar = T.add(T.mul(gru_out, active), T.mul(h_prev, T.add(T.mul(active, -1.0), 1.0)))

    rows = T.take(a, (np.arange(b)[:, None], sel.indices))   # (B, n_sel, n_h)
    state, read, _ = ws.communicate(state, rows, h_bar)
    return (T.add(h_bar, read) if broadcast else h_bar), state, sel


class RimsModel(T.Module):
    """Image classifier: the image is read as a sequence of patch rows, one
    time step per row of patches, and an input projection feeds recurrent
    specialists that communicate through the shared workspace at every step."""

    def __init__(self, cfg: ModelConfig, dtype=np.float32):
        rng = _checked_rng(cfg)
        self.cfg = cfg
        self.dtype = dtype
        patch_dim = cfg.patch_size * cfg.patch_size * cfg.n_channels
        self.encoder = Dense(rng, patch_dim, cfg.n_h, dtype, "encoder")
        self.cell = RimsCell(rng, cfg.n_s, cfg.n_h, cfg.n_h, cfg.n_sel,
                             key_dim=cfg.key_dim, dtype=dtype)
        self.workspace = _workspace(cfg, rng, dtype, cfg.n_s, include_memory_rows=True)
        self.h0 = T.uniform_init(rng, (cfg.n_s, cfg.n_h), 0.02, dtype, "h0")
        self.head = Dense(rng, cfg.n_s * cfg.n_h, cfg.n_classes, dtype, "head")

    def forward(self, images: np.ndarray, rng=None) -> Tensor:
        """Logits (B, n_classes).  ``rng`` enables dropout (training mode)."""
        cfg = self.cfg
        side = cfg.image_size // cfg.patch_size
        p = patchify(np.asarray(images, dtype=self.dtype), cfg.patch_size)
        b = p.shape[0]
        frames = p.reshape(b, side, side, p.shape[-1])
        h = T.add(T.zeros((b, cfg.n_s, cfg.n_h), self.dtype), self.h0)
        state = self.workspace.reset((b,))
        for t in range(side):
            z = self.encoder(Tensor(frames[:, t]))
            h, state, _ = rims_sw_step(self.cell, self.workspace, state, z, h)
        flat = T.reshape(h, (b, cfg.n_s * cfg.n_h))
        return self.head(T.dropout(flat, cfg.dropout, rng))


# ---- mechanism-partitioned transformer (TIMs host) ---------------------------


class TimsLayer(T.Module):
    """One modular layer: mechanisms compete per position, the winners
    self-attend (scaled by their retained competition score) and write one
    combined row per position into that position's workspace."""

    def __init__(self, rng, n_b, dm, n_sel, n_l, ffn_dim, n_heads=2,
                 key_dim=8, value_dim=8, dtype=np.float32, prefix="tims"):
        self.n_b, self.dm, self.n_sel, self.n_l = n_b, dm, n_sel, n_l
        si = 1.0 / np.sqrt(dm)
        self.w_c = T.uniform_init(rng, (n_b, dm), si, dtype, f"{prefix}.w_c")
        # Each mechanism's projections are drawn in turn, then stacked into
        # one set with (n_b, ., .) weights that runs them side by side.
        mechs = [ProjectionSet(rng, dm, dm, dm, n_heads, key_dim, value_dim, dtype)
                 for _ in range(n_b)]
        self.sa = mechs[0]
        for w in ("w_q", "w_e", "w_v", "w_o"):
            setattr(self.sa, w, Tensor(np.stack([getattr(m, w).data for m in mechs]),
                                       requires_grad=True, name=f"{prefix}.sa.{w}"))
        self.ln1 = LayerNorm((n_b, dm), dtype, f"{prefix}.ln1")
        self.ln2 = LayerNorm((n_b, dm), dtype, f"{prefix}.ln2")
        self.w_a = T.linear_init(rng, n_b * dm, n_l, dtype, f"{prefix}.w_a")
        self.ffn_w1 = T.uniform_init(rng, (n_b, dm, ffn_dim), si, dtype, f"{prefix}.ffn.w1")
        self.ffn_w2 = T.uniform_init(rng, (n_b, ffn_dim, dm),
                                     1.0 / np.sqrt(ffn_dim), dtype, f"{prefix}.ffn.w2")


def tims_sw_layer(layer: TimsLayer, ws: SharedWorkspace, state: WorkspaceState,
                  h: Tensor, mask, drop):
    """One modular layer pass: (B, T, D) -> (B, T, D) plus new workspace state.

    The position axis carries one workspace memory per position
    (state.memory: (B, T, n_m, n_l)).  ``mask`` (the stack's causal mask, or
    None) masks the mechanisms' self-attention and ``drop`` is the stack's
    dropout.
    """
    b, n_t, d = h.shape
    n_b, dm = layer.n_b, layer.dm
    hm = T.reshape(h, (b, n_t, n_b, dm))

    # Step 1: competition. c holds the per-position soft scores over
    # mechanisms; non-selected scores are zeroed but not renormalized.
    scores = T.tsum(T.mul(hm, layer.w_c), axis=-1)      # (B, T, n_b)
    sel = topk_select(scores.data, layer.n_sel)
    c_star = T.softmax(scores, axis=-1, keep=sel.keep_mask)

    # Step 2: selected mechanisms self-attend over positions, residual.  All
    # mechanisms run in one call on the mechanism-major view (B, n_b, T, dm).
    xs = T.swapaxes(layer.ln1(hm), 1, 2)
    att = T.swapaxes(multihead(xs, xs, layer.sa, mask=mask).values, 1, 2)
    scale = T.reshape(c_star, (b, n_t, n_b, 1))
    h_bar = T.add(hm, drop(T.mul(scale, att)))

    # Steps 3 and 4: each position writes one combined row, built from the
    # score-scaled mechanism states, into its own memory, and each mechanism
    # reads from its position's memory; positions fold into the batch.
    a = T.reshape(T.mul(scale, h_bar), (b, n_t, n_b * dm))
    rows = T.reshape(T.matmul(a, layer.w_a), (b, n_t, 1, layer.n_l))
    state, read, _ = ws.communicate(state, rows, h_bar)   # read: (B, T, n_b, dm)
    h_out = T.add(h_bar, drop(read))

    # Per-mechanism feed-forward on the same view, pre-norm residual.
    y = T.swapaxes(layer.ln2(h_out), 1, 2)
    y = T.matmul(T.relu(T.matmul(y, layer.ffn_w1)), layer.ffn_w2)
    h_out = T.add(h_out, drop(T.swapaxes(y, 1, 2)))
    return T.reshape(h_out, (b, n_t, d)), state, sel


class TimsModel(CausalTransformerLM):
    """Autoregressive LM whose causal transformer body is monolithic layers
    sandwiching a modular stack; its mechanisms communicate through a
    per-position shared workspace.  Every position runs to the end of
    ``mono_out``; only then are the read ``rows`` cut out."""

    def _build_layers(self, rng) -> None:
        cfg, dtype, d, n_b = self.cfg, self.dtype, self.cfg.n_h, self.cfg.n_s
        dm = d // n_b

        def mono_block(prefix):
            return {
                "ln1": LayerNorm(d, dtype, f"{prefix}.ln1"),
                "ln2": LayerNorm(d, dtype, f"{prefix}.ln2"),
                "sa": ProjectionSet(rng, d, d, d, cfg.n_heads, cfg.key_dim,
                                    cfg.value_dim, dtype, f"{prefix}.sa"),
                "ffn": FeedForward(rng, d, cfg.ffn_dim, dtype, f"{prefix}.ffn"),
            }

        self.mono_in = mono_block("mono_in")      # before the modular stack
        self.mono_out = mono_block("mono_out")    # after it
        self.modular = TimsLayer(rng, n_b, dm, cfg.n_sel, d,
                                 max(cfg.ffn_dim // n_b, 4), n_heads=cfg.n_heads,
                                 key_dim=cfg.key_dim, value_dim=cfg.value_dim,
                                 dtype=dtype, prefix="modular")
        self.workspace = _workspace(cfg, rng, dtype, n_b, read_q_dim=dm)

    def _layers(self, h: Tensor, mask, drop, rows) -> Tensor:
        mono = lambda blk, h: _feed_forward(
            _self_attention(h, blk["ln1"], blk["sa"], mask, drop), blk, drop)
        h = mono(self.mono_in, h)
        state = self.workspace.reset(h.shape[:-1])
        self.last_selection = []
        for _ in range(self.cfg.n_layers):
            h, state, sel = tims_sw_layer(self.modular, self.workspace, state, h, mask, drop)
            self.last_selection.append(sel.indices)
        return _rows(mono(self.mono_out, h), rows)


# ---- dispatch ----------------------------------------------------------------


def build_model(cfg: ModelConfig, dtype=np.float32):
    """The host ``cfg`` names, with parameters drawn from ``cfg.seed``."""
    if cfg.host == "rims_sw":
        return RimsModel(cfg, dtype)
    if cfg.host == "tims_sw":
        return TimsModel(cfg, dtype)
    if cfg.task == "copy":
        return CausalTransformerLM(cfg, dtype)
    return TransformerClassifier(cfg, dtype)
