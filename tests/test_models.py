import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from sharedworkspace import models, workspace
from sharedworkspace import tensor as T
from sharedworkspace.attention import multihead
from sharedworkspace.config import HOSTS, ModelConfig, validate
from sharedworkspace.errors import ConfigError
from sharedworkspace.gradcheck import grad_check
from sharedworkspace.hostcheck import toy_batch, toy_config
from sharedworkspace.tasks import copy_echo_rows
from sharedworkspace.models import (CausalTransformerLM, RimsCell, RimsModel,
                                    TimsLayer, TimsModel, TransformerClassifier,
                                    _feed_forward, _self_attention, build_model,
                                    causal_mask, patchify, rims_sw_step, tims_sw_layer)
from sharedworkspace.tensor import Tensor
from sharedworkspace.train import batch_loss, resolve_task_fields
from sharedworkspace.workspace import SharedWorkspace

from test_host_pinning import CASES, pin_batch, pin_config, tape_size


def toy(host, task="triangles", **kw):
    base = dict(host=host, task=task, n_layers=2, n_h=8, ffn_dim=16, n_heads=2,
                mem_heads=2, key_dim=4, value_dim=4, n_m=2, n_s=4, n_sel=2,
                image_size=16, patch_size=8, dropout=0.0,
                vocab_size=5, copy_len=3, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def softmax_np(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


# ---- config validation -------------------------------------------------------


def test_hsw_requires_topk():
    with pytest.raises(ConfigError, match="topk"):
        validate(toy("tr_hsw"))


@pytest.mark.parametrize("task,n_writers", [("triangles", 5), ("soc", 6), ("copy", 6)])
def test_topk_bounded_by_writer_count(task, n_writers):
    # CLS + 4 patches (+ the scene question); 2·copy_len fed positions.
    assert toy("tr_hsw", task=task, topk=1).n_writers == n_writers
    validate(toy("tr_hsw", task=task, topk=n_writers))
    for k in (0, n_writers + 1):
        with pytest.raises(ConfigError, match="topk"):
            validate(toy("tr_hsw", task=task, topk=k))


def test_nsel_bounded_by_ns():
    with pytest.raises(ConfigError):
        validate(toy("rims_sw", n_sel=9))


def test_lm_bandwidth_warning_counts_the_fed_positions():
    # copy_len=3: the LM is fed 2·copy_len = 6 positions, its writers, not
    # the seq_len = 7 its position table holds.
    with pytest.warns(UserWarning, match="bottleneck"):
        build_model(toy("tr_ssw", task="copy", n_m=6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_model(toy("tr_ssw", task="copy", n_m=5))


# The settable surface of a run.  Every field is a value some caller sets;
# what the task fixes is a property and a removed key goes to config.RETIRED.
# Adding or removing a knob therefore edits this tuple, a reviewed change
# that CHANGES.md names.
CONFIG_FIELDS = (
    "host", "task", "seed", "version",
    "n_layers", "n_h", "ffn_dim", "n_heads", "mem_heads", "key_dim", "value_dim",
    "dropout", "n_m", "topk", "gate_style", "persistent_memory", "sw_plus_sa",
    "n_s", "n_sel", "image_size", "patch_size", "vocab_size", "copy_len",
    "epochs", "batch_size", "lr", "cosine", "train_n", "test_n",
)


def test_config_fields_pinned():
    assert tuple(f.name for f in dataclasses.fields(ModelConfig)) == CONFIG_FIELDS


@pytest.mark.parametrize("task,derived", [("triangles", (2, 1)), ("soc", (12, 3)),
                                          ("copy", (5, 1))])
def test_task_derived_values(task, derived):
    cfg = toy("tr", task=task)   # unresolved: the values follow from the task alone
    assert (cfg.n_classes, cfg.n_channels) == derived


# ---- patchify ----------------------------------------------------------------


def test_patchify_row_major_order():
    img = np.arange(16.0).reshape(1, 4, 4)
    p = patchify(img, 2)
    assert p.shape == (1, 4, 4)
    np.testing.assert_array_equal(p[0, 0], [0, 1, 4, 5])     # top-left patch
    np.testing.assert_array_equal(p[0, 1], [2, 3, 6, 7])     # top-right next
    np.testing.assert_array_equal(p[0, 3], [10, 11, 14, 15])


# ---- shape laws --------------------------------------------------------------


@pytest.mark.parametrize("host", ["tr", "tr_hc", "tr_ssw", "tr_2xsa"])
def test_classifier_shape_law(host):
    m = build_model(toy(host))
    rng = np.random.default_rng(0)
    out = m.forward(rng.random((3, 16, 16), dtype=np.float32))
    assert out.shape == (3, 2)


def test_sequence_longer_than_max_rejected():
    m = build_model(toy("tr", task="copy"))
    with pytest.raises(ConfigError, match="exceeds"):
        m.forward(np.zeros((2, 20), dtype=np.int64))


def test_question_token_required_for_relational_task():
    m = build_model(toy("tr", task="soc"))
    with pytest.raises(ConfigError, match="question"):
        m.forward(np.zeros((2, 16, 16), dtype=np.float32))


# ---- hard/soft equivalence ---------------------------------------------------


def test_hsw_topk_equals_ns_matches_ssw_bitwise():
    rng = np.random.default_rng(1)
    imgs = rng.random((4, 16, 16)).astype(np.float32)
    soft = build_model(toy("tr_ssw"))
    n_tokens = soft.max_tokens
    hard = build_model(toy("tr_hsw", topk=n_tokens))
    for _ in range(5):
        a = soft.forward(imgs).data
        b = hard.forward(imgs).data
        assert (a == b).all()


def test_hsw_topk_changes_output():
    rng = np.random.default_rng(2)
    imgs = rng.random((2, 16, 16)).astype(np.float32)
    soft = build_model(toy("tr_ssw"))
    hard = build_model(toy("tr_hsw", topk=1))
    assert not np.allclose(soft.forward(imgs).data, hard.forward(imgs).data)


# ---- workspace-ablated reduction ---------------------------------------------


def test_zero_read_values_reduce_to_per_position_mlp():
    # With the broadcast value path zeroed the classifier's CLS row evolves as
    # a pure MLP stack, independent of image content.
    m = build_model(toy("tr_ssw"), dtype=np.float64)
    m.workspace.read_proj.w_v.data[:] = 0.0
    rng = np.random.default_rng(3)
    a = m.forward(rng.random((2, 16, 16)))
    b = m.forward(rng.random((2, 16, 16)))
    np.testing.assert_array_equal(a.data, b.data)

    # Position-isolated oracle: iterate the residual MLP on the CLS row alone.
    h = m.cls.data + m.pos.data[0]          # (1, n_h)
    for layer in range(m.cfg.n_layers):
        blk = m.blocks[0]
        y = T.layer_norm(Tensor(h), blk["ln2"].g, blk["ln2"].b)
        h = h + blk["ffn"](y).data
    y = T.layer_norm(Tensor(h), m.final_ln.g, m.final_ln.b)
    logits = (y.data @ m.head.w.data + m.head.b.data)[0]
    np.testing.assert_allclose(a.data[0], logits, atol=1e-10)


def test_2xsa_reduces_to_tr_when_second_value_zeroed():
    m2 = build_model(toy("tr_2xsa"), dtype=np.float64)
    m2.blocks[0]["sa2"].w_v.data[:] = 0.0
    m1 = build_model(toy("tr"), dtype=np.float64)
    # Copy the shared components so only the extra attention differs.
    p1, p2 = m1.parameters(), m2.parameters()
    for name in p1:
        p1[name].data[:] = p2[name].data
    rng = np.random.default_rng(4)
    imgs = rng.random((2, 16, 16))
    np.testing.assert_allclose(m1.forward(imgs).data, m2.forward(imgs).data, atol=1e-12)


def test_2xsa_parameter_count_near_ssw():
    dims = dict(n_h=256, ffn_dim=512, key_dim=32, value_dim=64, n_heads=4,
                mem_heads=4, n_m=8, image_size=64, patch_size=4,
                gate_style="memory")
    ssw = build_model(toy("tr_ssw", **dims))
    sa2 = build_model(toy("tr_2xsa", **dims))
    n_ssw, n_sa2 = (sum(p.size for p in m.parameters().values()) for m in (ssw, sa2))
    assert abs(n_ssw - n_sa2) / n_ssw < 0.10, (n_ssw, n_sa2)


# ---- CLS-only last layer -----------------------------------------------------


def full_width_logits(model, batch, rng):
    """Oracle of ``TransformerClassifier.forward``: every layer, the last one
    too, runs on all tokens, and the head reads row 0 of the final norm."""
    cfg, dtype = model.cfg, model.dtype
    patches = patchify(np.asarray(batch["images"], dtype=dtype), cfg.patch_size)
    b = patches.shape[0]
    parts = [T.add(T.zeros((b, 1, cfg.n_h), dtype), model.cls), model.embed(Tensor(patches))]
    if cfg.task == "soc":
        q = model.q_embed(Tensor(np.asarray(batch["questions"], dtype=dtype)))
        parts.append(T.reshape(q, (b, 1, cfg.n_h)))
    h = T.concat(parts, axis=-2)
    h = T.add(h, model.pos[:h.shape[-2]])
    drop = lambda x, rows=None: T.dropout(x, cfg.dropout, rng)
    ws = model.workspace
    state = ws.reset((b,)) if ws is not None else None
    for layer in range(cfg.n_layers):
        blk = model.blocks[layer % len(model.blocks)]
        if "sa" in blk:
            h = _self_attention(h, blk["ln1"], blk["sa"], None, drop)
        if "sa2" in blk:
            h = _self_attention(h, blk["ln1b"], blk["sa2"], None, drop)
        if ws is not None:
            if not cfg.persistent_memory:
                state = ws.reset((b,))
            xn = blk["ln1b" if "sa" in blk else "ln1"](h)
            state, read, _ = ws.communicate(state, xn, xn, cfg.topk)
            h = T.add(h, drop(read))
        h = _feed_forward(h, blk, drop)
    return model.head(model.final_ln(h)[:, 0])


def _logits_and_grads(model, forward, batch, train):
    """Logits, every parameter's gradient of a fixed projection of them, and
    the dropout generator's state after the forward."""
    rng = np.random.default_rng(2) if train else None
    logits = forward(model, batch, rng)
    state = None if rng is None else rng.bit_generator.state
    proj = np.random.default_rng(3).standard_normal(logits.shape).astype(model.dtype)
    T.tsum(T.mul(logits, proj)).backward()
    grads = {}
    for name, p in model.parameters().items():
        grads[name], p.grad = p.grad, None
    return logits.data, grads, state


def _model_logits(model, batch, rng):
    question = {"question": batch["questions"]} if model.cfg.task == "soc" else {}
    return model.forward(batch["images"], rng=rng, **question)


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("task,host,variant", [c for c in CASES if c[0] != "copy"])
def test_classifier_cls_only_last_layer_matches_full_width_oracle(task, host, variant, train):
    cfg = pin_config(task, host, variant)   # dropout 0.1
    batch = pin_batch(cfg)
    runs = {}
    for dtype in (np.float64, np.float32):
        model = build_model(cfg, dtype=dtype)
        got = _logits_and_grads(model, _model_logits, batch, train)
        want = _logits_and_grads(model, full_width_logits, batch, train)
        assert got[2] == want[2]   # the same dropout draws
        runs[dtype] = {"logits": (got[0], want[0]),
                       **{name: (got[1][name], g) for name, g in want[1].items()}}
    # float64 agrees to a few ulps.  float32 rounds differently (the one-row
    # products run as GEMV, not GEMM), so it is held to the float64 values:
    # no further off than the full-width float32 forward, which loses ~1e-4
    # of the largest read-projection gradient to cancellation.
    for name, (got64, want64) in runs[np.float64].items():
        got32, want32 = runs[np.float32][name]
        scale = np.abs(want64).max()
        assert scale > 0, name
        assert np.abs(got64 - want64).max() <= 1e-12 * scale, name
        err32 = lambda x: np.abs(x - want64).max() / scale
        assert err32(got32) <= 4 * err32(want32) + 1e-5, name


@pytest.mark.parametrize("host", ["tr", "tr_hsw"])
def test_classifier_last_layer_attends_from_the_cls_row_only(host, monkeypatch):
    cfg = toy(host, n_layers=3, **({"topk": 2} if host == "tr_hsw" else {}))
    shapes = []

    def recording(*args, **kwargs):
        out = multihead(*args, **kwargs)
        shapes.append(out.weights.shape)
        return out

    monkeypatch.setattr(models, "multihead", recording)
    monkeypatch.setattr(workspace, "multihead", recording)
    build_model(cfg).forward(np.zeros((3, 16, 16)))
    b, h, n_t, n_m = 3, 2, 5, 2     # 4 patches + CLS; toy n_heads = mem_heads = 2
    if host == "tr":
        assert shapes == [(b, h, n_t, n_t)] * 2 + [(b, h, 1, n_t)]
    else:   # a full write, then a read, per layer
        assert shapes == [(b, h, n_m, n_t), (b, h, n_t, n_m)] * 2 + [
            (b, h, n_m, n_t), (b, h, 1, n_m)]


# ---- echo-rows-only last layer of the language model --------------------------


def _echo_logits(model, batch, rng):
    """The logits ``batch_loss`` reads: the model computes only the echo rows."""
    inp = batch["tokens"][:, :-1]
    return model.forward(inp, rng=rng, rows=copy_echo_rows(inp.shape[1]))


def _full_width_echo_logits(model, batch, rng):
    """Oracle: every position runs through every layer, the last one too, and
    the echo rows are cut from the logits."""
    inp = batch["tokens"][:, :-1]
    return model.forward(inp, rng=rng)[:, copy_echo_rows(inp.shape[1])]


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("task,host,variant", [c for c in CASES if c[0] == "copy"])
def test_lm_echo_only_last_layer_matches_full_width_oracle(task, host, variant, train):
    cfg = pin_config(task, host, variant)   # dropout 0.1
    batch = pin_batch(cfg)
    runs = {}
    for dtype in (np.float64, np.float32):
        model = build_model(cfg, dtype=dtype)
        got = _logits_and_grads(model, _echo_logits, batch, train)
        want = _logits_and_grads(model, _full_width_echo_logits, batch, train)
        assert got[2] == want[2]   # the same dropout draws
        runs[dtype] = {"logits": (got[0], want[0]),
                       **{name: (got[1][name], g) for name, g in want[1].items()}}
    # Shorter sums round differently; float32 is held to the float64 values,
    # no further off than the full-width float32 forward.
    for name, (got64, want64) in runs[np.float64].items():
        got32, want32 = runs[np.float32][name]
        scale = np.abs(want64).max()
        assert scale > 0, name
        assert np.abs(got64 - want64).max() <= 1e-12 * scale, name
        err32 = lambda x: np.abs(x - want64).max() / scale
        assert err32(got32) <= 4 * err32(want32) + 1e-5, name


@pytest.mark.parametrize("host", ["tr", "tr_hsw"])
def test_lm_last_layer_computes_only_the_read_rows(host, monkeypatch):
    cfg = toy(host, task="copy", n_layers=3, **({"topk": 2} if host == "tr_hsw" else {}))
    shapes = []

    def recording(*args, **kwargs):
        out = multihead(*args, **kwargs)
        shapes.append(out.weights.shape)
        return out

    monkeypatch.setattr(models, "multihead", recording)
    monkeypatch.setattr(workspace, "multihead", recording)
    logits = build_model(cfg).forward(np.zeros((3, 6), dtype=int), rows=slice(2, 6))
    b, h, n_t, r, n_m = 3, 2, 6, 4, 2     # toy n_heads = mem_heads = 2
    assert logits.shape == (b, r, cfg.vocab_size)
    if host == "tr":
        assert shapes == [(b, h, n_t, n_t)] * 2 + [(b, h, r, n_t)]
    else:   # per layer a write into each memory copy, then a read from it
        assert shapes == [(b, n_t, h, n_m, n_t), (b, n_t, h, 1, n_m)] * 2 + [
            (b, r, h, n_m, n_t), (b, r, h, 1, n_m)]


# ---- autoregressive host -----------------------------------------------------


@pytest.mark.parametrize("host", ["tr", "tr_ssw"])
def test_causality_future_perturbation_bitwise(host):
    m = build_model(toy(host, task="copy"))
    rng = np.random.default_rng(5)
    toks = rng.integers(0, 5, size=(2, 7))
    base = m.forward(toks).data
    for _ in range(20):
        t = int(rng.integers(1, 7))
        other = toks.copy()
        other[:, t:] = rng.integers(0, 5, size=other[:, t:].shape)
        out = m.forward(other).data
        assert (out[:, :t] == base[:, :t]).all()


def test_teacher_forced_matches_prefix_recompute_oracle():
    m = build_model(toy("tr_ssw", task="copy"))
    rng = np.random.default_rng(6)
    toks = rng.integers(0, 5, size=(2, 7))
    full = m.forward(toks).data
    for t in range(7):
        prefix = m.forward(toks[:, :t + 1]).data
        assert (prefix[:, t] == full[:, t]).all()


def test_causal_t1_equals_batch_workspace_path():
    cfg = toy("tr_ssw", task="copy")
    m = CausalTransformerLM(cfg, dtype=np.float64)
    toks = np.array([[3], [1]])
    got = m.forward(toks).data            # (2, 1, vocab)

    # Oracle: the same parameters run through the plain batch workspace path
    # (no position axis) on the single token.
    from sharedworkspace.attention import multihead
    ws = m.workspace
    h = T.add(Tensor(m.embed.data[toks.reshape(-1)][:, None, :]), m.pos[:1])
    state = ws.reset((2,))
    for layer in range(cfg.n_layers):
        blk = m.blocks[0]
        xn = blk["ln1"](h)
        cand, _ = ws.write_step(state, xn)
        state = ws.gated_update(state, cand, xn)
        read = multihead(xn, state.memory, ws.read_proj)
        h = T.add(h, read.values)
        h = T.add(h, blk["ffn"](blk["ln2"](h)))
    expect = m.head(m.final_ln(h)).data
    np.testing.assert_allclose(got, expect, atol=1e-12)


# ---- recurrent specialists ---------------------------------------------------


def rims_setup(n_sel, dtype=np.float64, seed=7):
    rng = np.random.default_rng(seed)
    n_s, n_h, n_m, in_dim = 4, 6, 2, 5
    cell = RimsCell(rng, n_s, n_h, in_dim, n_sel, key_dim=4, dtype=dtype)
    ws = SharedWorkspace(rng, n_s=n_s, n_h=n_h, n_m=n_m, n_heads=1,
                         key_dim=4, value_dim=4, include_memory_rows=True, dtype=dtype)
    b = 3
    z = Tensor(rng.normal(size=(b, in_dim + 2, in_dim)).astype(dtype))
    h = Tensor(rng.normal(size=(b, n_s, n_h)).astype(dtype))
    return cell, ws, z, h


def test_rims_inactive_specialists_carry_state_bitwise():
    cell, ws, z, h = rims_setup(n_sel=2)
    state = ws.reset((3,))
    h_next, _, sel = rims_sw_step(cell, ws, state, z, h, broadcast=False)
    for bi in range(3):
        active = set(sel.indices[bi].tolist())
        assert len(active) == 2
        for k in range(4):
            if k not in active:
                assert (h_next.data[bi, k] == h.data[bi, k]).all()
            else:
                assert not (h_next.data[bi, k] == h.data[bi, k]).all()


def test_rims_nsel_equals_ns_updates_every_specialist():
    cell, ws, z, h = rims_setup(n_sel=4)
    state = ws.reset((3,))
    h_next, _, sel = rims_sw_step(cell, ws, state, z, h, broadcast=False)
    assert sel.indices.shape == (3, 4)
    assert not np.isclose(h_next.data, h.data).any(axis=-1).all()


def test_rims_broadcast_adds_only_residual_to_inactive():
    cell, ws, z, h = rims_setup(n_sel=2)
    state = ws.reset((3,))
    off, st_off, sel = rims_sw_step(cell, ws, state, z, h, broadcast=False)
    state = ws.reset((3,))
    on, st_on, _ = rims_sw_step(cell, ws, state, z, h, broadcast=True)
    assert (st_off.memory.data == st_on.memory.data).all()
    from sharedworkspace.attention import multihead
    residual = multihead(off, st_off.memory, ws.read_proj).values.data
    np.testing.assert_allclose(on.data, off.data + residual, atol=1e-12)


def test_rims_step_matches_straight_line_oracle():
    """Independent transcription: input competition, selective GRU update,
    write over [M; A], gated blend, broadcast — all in plain numpy."""
    cell, ws, z, h = rims_setup(n_sel=2)
    state = ws.reset((3,))
    h_next, st_next, sel = rims_sw_step(cell, ws, state, z, h, broadcast=True)

    b, n_s, n_h = h.shape
    zn = np.concatenate([z.data, np.tile(cell.null_row.data, (b, 1, 1))], axis=1)
    keys = zn @ cell.w_e.data
    vals = zn @ cell.w_v.data
    a = np.zeros((b, n_s, n_h))
    null_w = np.zeros((b, n_s))
    for bi in range(b):
        for k in range(n_s):
            q = h.data[bi, k] @ cell.w_q.data[k]
            s = softmax_np(keys[bi] @ q / math.sqrt(cell.key_dim))
            a[bi, k] = s @ vals[bi]
            null_w[bi, k] = s[-1]
    order = np.argsort(-(1.0 - null_w), axis=-1, kind="stable")
    f_t = np.sort(order[:, :2], axis=-1)
    np.testing.assert_array_equal(f_t, sel.indices)

    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    h_bar = h.data.copy()
    for bi in range(b):
        for k in f_t[bi]:
            x, hp = a[bi, k], h.data[bi, k]
            zg = sig(x @ cell.w_z.data[k] + hp @ cell.u_z.data[k] + cell.b_z.data[k])
            r = sig(x @ cell.w_r.data[k] + hp @ cell.u_r.data[k] + cell.b_r.data[k])
            n = np.tanh(x @ cell.w_n.data[k] + r * (hp @ cell.u_n.data[k]) + cell.b_n.data[k])
            h_bar[bi, k] = (1 - zg) * n + zg * hp

    prev = state.memory.data
    rows = np.stack([a[bi, f_t[bi]] for bi in range(b)])
    expect_mem = np.zeros_like(prev)
    wp = ws.write_proj
    for bi in range(b):
        big_r = np.concatenate([prev[bi], rows[bi]], axis=0)
        q = prev[bi] @ wp.w_q.data
        s = softmax_np(q @ (big_r @ wp.w_e.data).T / math.sqrt(wp.key_dim), axis=-1)
        cand = (s @ (big_r @ wp.w_v.data)) @ wp.w_o.data
        x_bar = np.maximum(rows[bi] @ ws.w1.data, 0.0).mean(axis=0)
        kk = x_bar + np.tanh(prev[bi])
        gi = sig(kk @ ws.w_i.data + ws.b_i.data)
        gf = sig(kk @ ws.w_f.data + ws.b_f.data)
        expect_mem[bi] = gi * np.tanh(cand) + gf * prev[bi]
    np.testing.assert_allclose(st_next.memory.data, expect_mem, atol=1e-10)

    rp = ws.read_proj
    expect_h = np.zeros_like(h_bar)
    for bi in range(b):
        q = h_bar[bi] @ rp.w_q.data
        s = softmax_np(q @ (expect_mem[bi] @ rp.w_e.data).T / math.sqrt(rp.key_dim), axis=-1)
        expect_h[bi] = h_bar[bi] + (s @ (expect_mem[bi] @ rp.w_v.data)) @ rp.w_o.data
    np.testing.assert_allclose(h_next.data, expect_h, atol=1e-10)


# ---- mechanism-partitioned layer ---------------------------------------------


def tims_setup(n_sel, dtype=np.float64, seed=8):
    rng = np.random.default_rng(seed)
    n_b, dm, n_l, n_m = 3, 4, 5, 2
    layer = TimsLayer(rng, n_b, dm, n_sel, n_l, ffn_dim=6, n_heads=1,
                      key_dim=3, value_dim=3, dtype=dtype)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ws = SharedWorkspace(rng, n_s=n_b, n_h=n_l, n_m=n_m, n_heads=1,
                             key_dim=3, value_dim=3, include_memory_rows=True,
                             read_q_dim=dm, dtype=dtype)
    h = Tensor(rng.normal(size=(2, 5, n_b * dm)).astype(dtype))
    return layer, ws, h


def test_tims_nonselected_mechanism_keeps_residual_bitwise():
    layer, ws, h = tims_setup(n_sel=1)
    state = ws.reset((2, 5))
    _, _, sel = tims_sw_layer(layer, ws, state, h, causal_mask(5), lambda x: x)
    assert sel.indices.shape == (2, 5, 1)
    # Recompute h_bar exactly as the layer does and check the c*=0 rows.
    hm = h.data.reshape(2, 5, 3, 4)
    scores = (hm * layer.w_c.data).sum(-1)
    keep = np.zeros_like(scores)
    np.put_along_axis(keep, sel.indices, 1.0, axis=-1)
    # Non-selected: contribution is exactly the residual, i.e. scale is 0.
    c_star = softmax_np(scores) * keep
    assert (c_star[keep == 0] == 0.0).all()


def test_tims_nsel_equals_nb_all_active():
    layer, ws, h = tims_setup(n_sel=3)
    state = ws.reset((2, 5))
    _, _, sel = tims_sw_layer(layer, ws, state, h, causal_mask(5), lambda x: x)
    assert (np.sort(sel.indices, axis=-1) == np.arange(3)).all()


def test_tims_layer_matches_straight_line_oracle():
    layer, ws, h = tims_setup(n_sel=2)
    state = ws.reset((2, 5))
    out, st, sel = tims_sw_layer(layer, ws, state, h, None, lambda x: x)

    b, n_t, n_b, dm = 2, 5, 3, 4
    hm = h.data.reshape(b, n_t, n_b, dm)
    scores = (hm * layer.w_c.data).sum(-1)
    c = softmax_np(scores)
    keep = np.zeros_like(scores)
    np.put_along_axis(keep, sel.indices, 1.0, axis=-1)
    c_star = c * keep

    # layer norm helper over the last axis with per-mechanism gains
    def ln(x, g, bias):
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * g + bias

    xn = ln(hm, layer.ln1.g.data, layer.ln1.b.data)
    att = np.zeros_like(hm)
    p = layer.sa
    for k in range(n_b):
        for bi in range(b):
            q = xn[bi, :, k] @ p.w_q.data[k]
            kk = xn[bi, :, k] @ p.w_e.data[k]
            v = xn[bi, :, k] @ p.w_v.data[k]
            s = softmax_np(q @ kk.T / math.sqrt(p.key_dim), axis=-1)
            att[bi, :, k] = (s @ v) @ p.w_o.data[k]
    h_bar = hm + c_star[..., None] * att

    a = (c_star[..., None] * h_bar).reshape(b, n_t, n_b * dm)
    rows = a @ layer.w_a.data
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    wp, rp = ws.write_proj, ws.read_proj
    mem = np.zeros((b, n_t, ws.n_m, ws.n_l))
    out_expect = np.zeros_like(h_bar)
    for bi in range(b):
        for t in range(n_t):
            prev = state.memory.data[bi, t]
            big_r = np.concatenate([prev, rows[bi, t][None]], axis=0)
            q = prev @ wp.w_q.data
            s = softmax_np(q @ (big_r @ wp.w_e.data).T / math.sqrt(wp.key_dim), axis=-1)
            cand = (s @ (big_r @ wp.w_v.data)) @ wp.w_o.data
            x_bar = np.maximum(rows[bi, t] @ ws.w1.data, 0.0)
            kk = x_bar + np.tanh(prev)
            gi = sig(kk @ ws.w_i.data + ws.b_i.data)
            gf = sig(kk @ ws.w_f.data + ws.b_f.data)
            mem[bi, t] = gi * np.tanh(cand) + gf * prev
            for k in range(n_b):
                q2 = h_bar[bi, t, k] @ rp.w_q.data
                s2 = softmax_np(q2 @ (mem[bi, t] @ rp.w_e.data).T / math.sqrt(rp.key_dim))
                out_expect[bi, t, k] = h_bar[bi, t, k] + \
                    (s2 @ (mem[bi, t] @ rp.w_v.data)) @ rp.w_o.data
    np.testing.assert_allclose(st.memory.data, mem, atol=1e-10)

    y = ln(out_expect, layer.ln2.g.data, layer.ln2.b.data)
    for k in range(n_b):
        out_expect[:, :, k] += np.maximum(y[:, :, k] @ layer.ffn_w1.data[k], 0.0) \
            @ layer.ffn_w2.data[k]
    np.testing.assert_allclose(out.data, out_expect.reshape(b, n_t, -1), atol=1e-10)


def test_tims_layer_at_the_host_workspace_matches_straight_line_oracle():
    """The modular layer and workspace as ``TimsModel`` builds them: slots as
    wide as the model, no memory rows in the write, mechanisms reading at
    their own width, two heads everywhere, causal self-attention."""
    m = build_model(toy("tims_sw", task="copy", n_h=12, n_s=3, n_sel=2), dtype=np.float64)
    layer, ws = m.modular, m.workspace
    assert not ws.include_memory_rows and ws.n_l == 12 and ws.read_proj.w_q.shape[0] == 4
    rng = np.random.default_rng(10)
    ws.init_memory.data[:] = rng.normal(scale=0.5, size=ws.init_memory.shape)
    b, n_t, n_b, dm = 2, 5, 3, 4
    h = Tensor(rng.normal(size=(b, n_t, n_b * dm)))
    state = ws.reset((b, n_t))
    out, st, sel = tims_sw_layer(layer, ws, state, h, causal_mask(5), lambda x: x)

    def mha(xq, xkv, w_q, w_e, w_v, w_o, n_heads, mask=None):
        dk, dv = w_q.shape[-1] // n_heads, w_v.shape[-1] // n_heads
        q, k, v = xq @ w_q, xkv @ w_e, xkv @ w_v
        heads = []
        for j in range(n_heads):
            sk, sv = slice(j * dk, (j + 1) * dk), slice(j * dv, (j + 1) * dv)
            s = q[:, sk] @ k[:, sk].T / math.sqrt(dk)
            if mask is not None:
                s = np.where(mask, s, -np.inf)
            heads.append(softmax_np(s) @ v[:, sv])
        return np.concatenate(heads, axis=-1) @ w_o

    def ln(x, g, bias):
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * g + bias

    hm = h.data.reshape(b, n_t, n_b, dm)
    scores = (hm * layer.w_c.data).sum(-1)
    top = np.sort(np.argsort(-scores, axis=-1, kind="stable")[..., :2], axis=-1)
    np.testing.assert_array_equal(top, sel.indices)
    keep = np.zeros_like(scores)
    np.put_along_axis(keep, top, 1.0, axis=-1)
    c_star = softmax_np(scores) * keep

    xn = ln(hm, layer.ln1.g.data, layer.ln1.b.data)
    p = layer.sa
    att = np.zeros_like(hm)
    causal = np.tril(np.ones((n_t, n_t), dtype=bool))
    for k in range(n_b):
        for bi in range(b):
            x = xn[bi, :, k]
            att[bi, :, k] = mha(x, x, p.w_q.data[k], p.w_e.data[k], p.w_v.data[k],
                                p.w_o.data[k], p.n_heads, causal)
    h_bar = hm + c_star[..., None] * att

    rows = (c_star[..., None] * h_bar).reshape(b, n_t, n_b * dm) @ layer.w_a.data
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    wp, rp = ws.write_proj, ws.read_proj
    mem = np.zeros((b, n_t, ws.n_m, ws.n_l))
    out_expect = np.zeros_like(h_bar)
    for bi in range(b):
        for t in range(n_t):
            prev = state.memory.data[bi, t]
            cand = mha(prev, rows[bi, t][None], wp.w_q.data, wp.w_e.data, wp.w_v.data,
                       wp.w_o.data, wp.n_heads)
            kk = np.maximum(rows[bi, t] @ ws.w1.data, 0.0) + np.tanh(prev)
            gi = sig(kk @ ws.w_i.data + ws.b_i.data)
            gf = sig(kk @ ws.w_f.data + ws.b_f.data)
            mem[bi, t] = gi * np.tanh(cand) + gf * prev
            out_expect[bi, t] = h_bar[bi, t] + mha(h_bar[bi, t], mem[bi, t], rp.w_q.data,
                                                   rp.w_e.data, rp.w_v.data, rp.w_o.data,
                                                   rp.n_heads)
    np.testing.assert_allclose(st.memory.data, mem, rtol=0, atol=1e-10)

    y = ln(out_expect, layer.ln2.g.data, layer.ln2.b.data)
    for k in range(n_b):
        out_expect[:, :, k] += np.maximum(y[:, :, k] @ layer.ffn_w1.data[k], 0.0) \
            @ layer.ffn_w2.data[k]
    np.testing.assert_allclose(out.data, out_expect.reshape(b, n_t, -1), rtol=0, atol=1e-10)


def test_tims_causality_bitwise():
    m = build_model(toy("tims_sw", task="copy", n_h=8, n_s=4, n_sel=2))
    rng = np.random.default_rng(9)
    toks = rng.integers(0, 5, size=(2, 7))
    base = m.forward(toks).data
    for _ in range(10):
        t = int(rng.integers(1, 7))
        other = toks.copy()
        other[:, t:] = rng.integers(0, 5, size=other[:, t:].shape)
        assert (m.forward(other).data[:, :t] == base[:, :t]).all()


def test_tims_layer_gradcheck_every_entry():
    # The host check probes 4 entries per tensor, so it sees only a few of
    # the stacked mechanisms' projection weights; this one probes them all.
    from sharedworkspace.attention import SelectionPin

    layer, ws, h = tims_setup(n_sel=2)
    params = {**layer.parameters(), **ws.parameters()}
    rng = np.random.default_rng(3)
    # Away from the near-zero initial memory, where the read-path gradients
    # sit below finite-difference roundoff.
    ws.init_memory.data[:] = rng.normal(scale=0.5, size=ws.init_memory.shape)
    w_out = Tensor(rng.normal(size=h.shape))
    w_mem = Tensor(rng.normal(size=(2, 5, ws.n_m, ws.n_l)))
    pin = SelectionPin()

    def f(p):
        with pin:
            out, st, _ = tims_sw_layer(layer, ws, ws.reset((2, 5)), h, causal_mask(5),
                                       lambda x: x)
        return T.add(T.tsum(T.mul(out, w_out)), T.tsum(T.mul(st.memory, w_mem)))

    rep = grad_check(f, params, max_entries_per_param=None)
    assert rep.passed, sorted(rep.per_param.items(), key=lambda kv: -kv[1])[:5]


# ---- parameter discovery -----------------------------------------------------


TAPE_CASES = [pytest.param(host, {}, id=host) for host in HOSTS] + [
    pytest.param("tims_sw", {"n_sel": 2}, id="tims_sw-n_sel2")]


@pytest.mark.parametrize("host,kw", TAPE_CASES)
def test_parameters_are_exactly_the_tape_leaves(host, kw):
    cfg = toy_config(host, **kw)
    model = build_model(cfg)
    batch = toy_batch(cfg)
    loss = T.cross_entropy(model.forward(*batch[:-1]), batch[-1])
    # Walked before any backward, which would consume the tape.  Every entry
    # is a node, never a tensor, and the leaves are the parameters' nodes.
    leaves, seen, stack = set(), set(), [loss._node]
    while stack:
        node = stack.pop()
        assert isinstance(node, T._Node) and not isinstance(node, T.Tensor)
        if node not in seen:
            seen.add(node)
            if node._backward is None:
                leaves.add(node)
            stack.extend(node._prev)
    assert leaves == {p._node for p in model.parameters().values()}


def test_two_parameters_with_one_name_rejected():
    class Pair(T.Module):
        def __init__(self):
            self.a = T.zeros((2,), requires_grad=True, name="w")
            self.parts = [T.ones((2,), requires_grad=True, name="w")]

    with pytest.raises(ValueError, match="'w'"):
        Pair().parameters()


def test_each_leaf_parameter_listed_once():
    class Tied(T.Module):
        def __init__(self):
            self.w = T.zeros((2,), requires_grad=True, name="w")
            self.again = {"w": self.w}
            self.fixed = T.zeros((2,), name="fixed")
            self.activation = T.mul(self.w, 2.0)   # on the tape, not a leaf

    assert list(Tied().parameters()) == ["w"]


# SHA-256 over "name shape dtype" and the init bytes of every parameter in
# name order: the same as before the listing order of these hosts changed.
INIT_BY_NAME = {
    "rims_sw": "d97da51afce6a0c45707fe043e3528cdcbbabf45a6505fbc14f5e89e8b08f717",
    "tims_sw": "6ce8af6e7cd9906b6513dc9f28642f1dfcfda5735d980d0fbbec15dde140361e",
}

# Backward closures recorded by one forward and cross-entropy on the host's
# toy config and batch: the transformer hosts' tape guard in
# test_host_pinning.py, extended to the two modular hosts.
TAPE_BY_HOST = {"rims_sw": 216, "tims_sw": 248}


@pytest.mark.parametrize("host", sorted(INIT_BY_NAME))
def test_recurrent_and_mechanism_host_init_pinned_by_name(host):
    params = build_model(resolve_task_fields(toy_config(host))).parameters()
    digest = hashlib.sha256()
    for name in sorted(params):
        p = params[name]
        digest.update(f"{name} {p.shape} {p.dtype}\n".encode())
        digest.update(np.ascontiguousarray(p.data).tobytes())
    assert digest.hexdigest() == INIT_BY_NAME[host]


@pytest.mark.parametrize("host", sorted(TAPE_BY_HOST))
def test_recurrent_and_mechanism_host_tape_pinned(host):
    cfg = resolve_task_fields(toy_config(host))
    batch = toy_batch(cfg)
    loss = T.cross_entropy(build_model(cfg).forward(*batch[:-1]), batch[-1])
    assert tape_size(loss) == TAPE_BY_HOST[host]


# One training-mode batch_loss (dropout 0.1) and backward on the toy rims_sw
# config over a 16x16 triangles batch: the float32 loss bytes, and SHA-256
# over "name" and the gradient bytes of every parameter in name order.
RIMS_LOSS_BYTES = "4b0d313f"
RIMS_GRAD_SHA = "fe53b76d44f00873dc495fffc485c9d2392b03b32c19d8d3d3bae8b163d3fa30"


def test_rims_training_loss_and_gradients_pinned():
    cfg = resolve_task_fields(toy_config("rims_sw", dropout=0.1))
    model = build_model(cfg)
    rng = np.random.default_rng(1)
    batch = {"images": rng.random((3, cfg.image_size, cfg.image_size)),
             "labels": rng.integers(0, cfg.n_classes, size=3)}
    loss, _ = batch_loss(model, cfg, batch, rng=np.random.default_rng(2))
    loss.backward()
    digest = hashlib.sha256()
    for name, p in sorted(model.parameters().items()):
        digest.update(name.encode())
        digest.update(p.grad.tobytes())
    assert loss.data.tobytes().hex() == RIMS_LOSS_BYTES
    assert digest.hexdigest() == RIMS_GRAD_SHA


# The same on the toy tr_hsw config over a copy batch: the causal LM with one
# workspace memory per position.  The gradient bytes depend on the order in
# which the write, gate and read contributions are summed into the normed
# states, so a refactor of the workspace round that moves them shows here.
LM_LOSS_BYTES = "becaf53f"
LM_GRAD_SHA = "b6278e5c623d9e3432c4d2bcedb82dd63dcd3cc78987d727c7cb2c4d43c2e12a"


def test_causal_lm_training_loss_and_gradients_pinned():
    cfg = resolve_task_fields(toy_config("tr_hsw", dropout=0.1))
    model = build_model(cfg)
    rng = np.random.default_rng(1)
    batch = {"tokens": rng.integers(0, cfg.vocab_size, size=(3, cfg.seq_len + 1))}
    loss, _ = batch_loss(model, cfg, batch, rng=np.random.default_rng(2))
    loss.backward()
    digest = hashlib.sha256()
    for name, p in sorted(model.parameters().items()):
        digest.update(name.encode())
        digest.update(p.grad.tobytes())
    assert loss.data.tobytes().hex() == LM_LOSS_BYTES
    assert digest.hexdigest() == LM_GRAD_SHA


# The same training-mode batch_loss on the toy tims_sw config (all
# mechanisms active, and n_sel=2) over a copy batch: the float32 loss bytes.
# Forward bytes only: the gradients' last bits depend on how the mechanisms'
# products are batched.
TIMS_LOSS_BYTES = {"all": "a0ffcf3f", "n_sel2": "7be2cc3f"}


@pytest.mark.parametrize("case,kw", [("all", {}), ("n_sel2", {"n_sel": 2})])
def test_tims_training_loss_pinned(case, kw):
    cfg = resolve_task_fields(toy_config("tims_sw", dropout=0.1, **kw))
    rng = np.random.default_rng(1)
    batch = {"tokens": rng.integers(0, cfg.vocab_size, size=(3, cfg.seq_len + 1))}
    loss, _ = batch_loss(build_model(cfg), cfg, batch, rng=np.random.default_rng(2))
    assert loss.data.tobytes().hex() == TIMS_LOSS_BYTES[case]
