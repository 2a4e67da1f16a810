import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharedworkspace import tensor as T
from sharedworkspace.errors import ConfigError
from sharedworkspace.gradcheck import grad_check
from sharedworkspace.models import causal_mask
from sharedworkspace.optim import NumericError
from sharedworkspace.tensor import Tensor
from sharedworkspace.workspace import (SharedWorkspace, WorkspaceState,
                                       write_broadcast_flops)


def make_ws(rng, dtype=np.float64, **kw):
    defaults = dict(n_s=5, n_h=8, n_m=2, n_heads=2, key_dim=4, value_dim=4)
    defaults.update(kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SharedWorkspace(rng, dtype=dtype, **defaults)


def t64(a, **kw):
    return Tensor(np.asarray(a, dtype=np.float64), **kw)


def loop_multihead_oracle(q_src, kv_src, proj):
    """Independent loop transcription of projected multi-head attention."""
    H, dk, dv = proj.n_heads, proj.key_dim, proj.value_dim
    heads = []
    for h in range(H):
        q = q_src @ proj.w_q.data[:, h * dk:(h + 1) * dk]
        k = kv_src @ proj.w_e.data[:, h * dk:(h + 1) * dk]
        v = kv_src @ proj.w_v.data[:, h * dv:(h + 1) * dv]
        out = np.zeros((q.shape[0], dv))
        for i in range(q.shape[0]):
            scores = [float(q[i] @ k[j]) / math.sqrt(dk) for j in range(k.shape[0])]
            mx = max(scores)
            exps = [math.exp(s - mx) for s in scores]
            z = sum(exps)
            for j in range(k.shape[0]):
                out[i] += (exps[j] / z) * v[j]
        heads.append(out)
    return np.concatenate(heads, axis=-1) @ proj.w_o.data


def gating_oracle(ws, m_prev, candidate, x):
    """Straight-line transcription of the input/forget gate equations."""
    x_bar = np.mean(np.maximum(x @ ws.w1.data, 0.0), axis=0)
    k = x_bar + np.tanh(m_prev)
    gate_i = 1.0 / (1.0 + np.exp(-(k @ ws.w_i.data + ws.b_i.data)))
    gate_f = 1.0 / (1.0 + np.exp(-(k @ ws.w_f.data + ws.b_f.data)))
    return gate_i * np.tanh(candidate) + gate_f * m_prev


# ---- write -------------------------------------------------------------------


def test_write_single_specialist_single_slot_value_path():
    rng = np.random.default_rng(0)
    ws = make_ws(rng, n_s=1, n_m=1, n_heads=1)
    r = t64(rng.normal(size=(1, 1, 8)))
    cand, att = ws.write_step(ws.reset((1,)), r)
    # softmax over one key is exactly 1: candidate is the pure value path.
    expect = (r.data[0] @ ws.write_proj.w_v.data) @ ws.write_proj.w_o.data
    np.testing.assert_allclose(cand.data[0], expect, atol=1e-14)
    np.testing.assert_array_equal(att.weights.data, 1.0)


def test_write_matches_loop_oracle():
    rng = np.random.default_rng(1)
    ws = make_ws(rng, n_s=3, n_m=2)
    spec = rng.normal(size=(3, 8))
    state = ws.reset(())
    cand, _ = ws.write_step(state, t64(spec))
    expect = loop_multihead_oracle(state.memory.data, spec, ws.write_proj)
    assert np.abs(cand.data - expect).max() < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_write_permutation_invariant_f32(seed):
    rng = np.random.default_rng(seed)
    ws = make_ws(rng, dtype=np.float32, n_s=6)
    spec = rng.normal(size=(6, 8)).astype(np.float32)
    perm = rng.permutation(6)
    state = ws.reset(())
    a, _ = ws.write_step(state, Tensor(spec))
    b, _ = ws.write_step(state, Tensor(spec[perm]))
    assert np.abs(a.data - b.data).max() <= 1e-5


def test_write_empty_specialists_rejected():
    rng = np.random.default_rng(2)
    ws = make_ws(rng)
    with pytest.raises(ConfigError):
        ws.write_step(ws.reset(()), t64(np.zeros((0, 8))))


def test_write_nan_specialists_rejected():
    rng = np.random.default_rng(3)
    ws = make_ws(rng)
    bad = np.zeros((5, 8))
    bad[2, 1] = np.nan
    with pytest.raises(NumericError, match="specialist"):
        ws.write_step(ws.reset(()), t64(bad))


def test_include_memory_rows_concatenates_memory_keys():
    rng = np.random.default_rng(4)
    ws = make_ws(rng, include_memory_rows=True)
    spec = rng.normal(size=(5, 8))
    state = ws.reset(())
    cand, att = ws.write_step(state, t64(spec))
    assert att.weights.shape[-1] == ws.n_m + ws.n_s
    stacked = np.concatenate([state.memory.data, spec], axis=0)
    expect = loop_multihead_oracle(state.memory.data, stacked, ws.write_proj)
    assert np.abs(cand.data - expect).max() < 1e-12


def test_topk_write_rejected_with_memory_rows():
    # config.validate refuses topk on every host but tr_hsw, whose workspace
    # has no memory rows; a workspace with memory rows runs soft competition.
    rng = np.random.default_rng(6)
    ws = make_ws(rng, include_memory_rows=True)
    state = ws.reset(())
    spec = t64(rng.normal(size=(5, 8)))
    cand, _ = ws.write_step(state, spec)   # soft competition still runs
    assert cand.shape == (ws.n_m, ws.n_l)


# ---- gating ------------------------------------------------------------------


def test_gate_forget_limit_keeps_previous_memory():
    rng = np.random.default_rng(7)
    ws = make_ws(rng)
    ws.b_i.data[...] = -50.0   # I -> 0
    ws.b_f.data[...] = 50.0    # F -> 1
    ws.w_i.data[...] = 0.0
    ws.w_f.data[...] = 0.0
    state = ws.reset(())
    cand = t64(rng.normal(size=(2, 8)))
    x = t64(rng.normal(size=(5, 8)))
    new = ws.gated_update(state, cand, x)
    np.testing.assert_allclose(new.memory.data, state.memory.data, atol=1e-6)


def test_gate_overwrite_limit_takes_tanh_candidate():
    rng = np.random.default_rng(8)
    ws = make_ws(rng)
    ws.b_i.data[...] = 50.0    # I -> 1
    ws.b_f.data[...] = -50.0   # F -> 0
    ws.w_i.data[...] = 0.0
    ws.w_f.data[...] = 0.0
    state = ws.reset(())
    cand = t64(rng.normal(size=(2, 8)))
    x = t64(rng.normal(size=(5, 8)))
    new = ws.gated_update(state, cand, x)
    np.testing.assert_allclose(new.memory.data, np.tanh(cand.data), atol=1e-6)


def test_gated_update_matches_equation_oracle():
    rng = np.random.default_rng(9)
    ws = make_ws(rng)
    ws.b_i.data[...] = rng.normal(size=ws.b_i.shape)
    ws.b_f.data[...] = rng.normal(size=ws.b_f.shape)
    state = ws.reset(())
    cand = t64(rng.normal(size=(2, 8)))
    x = t64(rng.normal(size=(5, 8)))
    new = ws.gated_update(state, cand, x)
    expect = gating_oracle(ws, state.memory.data, cand.data, x.data)
    assert np.abs(new.memory.data - expect).max() < 1e-12


def test_gated_update_memory_style_scalar_gates():
    rng = np.random.default_rng(10)
    ws = make_ws(rng, gate_style="memory")
    assert ws.w_i.shape == (8, 1)
    state = ws.reset(())
    new = ws.gated_update(state, t64(rng.normal(size=(2, 8))), t64(rng.normal(size=(5, 8))))
    assert new.memory.shape == (2, 8)


def test_gated_update_shape_mismatch_rejected():
    rng = np.random.default_rng(11)
    ws = make_ws(rng)
    with pytest.raises(ConfigError):
        ws.gated_update(ws.reset(()), t64(np.zeros((3, 8))), t64(np.zeros((5, 8))))


# ---- broadcast ---------------------------------------------------------------


def test_broadcast_zero_value_projection_is_identity():
    rng = np.random.default_rng(12)
    ws = make_ws(rng)
    ws.read_proj.w_v.data[...] = 0.0
    spec = t64(rng.normal(size=(5, 8)))
    out, _ = ws.broadcast_step(ws.reset(()), spec)
    np.testing.assert_array_equal(out.data, spec.data)


def test_broadcast_single_slot_same_read_for_all():
    rng = np.random.default_rng(13)
    ws = make_ws(rng, n_m=1)
    spec = t64(rng.normal(size=(5, 8)))
    state = ws.reset(())
    out, att = ws.broadcast_step(state, spec)
    np.testing.assert_array_equal(att.weights.data, 1.0)
    read = (state.memory.data @ ws.read_proj.w_v.data) @ ws.read_proj.w_o.data
    for k in range(5):
        np.testing.assert_allclose(out.data[k] - spec.data[k], read[0], atol=1e-14)


def test_broadcast_matches_loop_oracle():
    rng = np.random.default_rng(14)
    ws = make_ws(rng, n_s=3)
    spec = rng.normal(size=(3, 8))
    state = ws.reset(())
    out, _ = ws.broadcast_step(state, t64(spec))
    expect = spec + loop_multihead_oracle(spec, state.memory.data, ws.read_proj)
    assert np.abs(out.data - expect).max() < 1e-12


# ---- one round -----------------------------------------------------------------


def test_causal_round_matches_plain_round_over_each_prefix():
    # Memory copy t of the causal round, and the read at t, are what the
    # plain one-memory round gives for the writers at positions <= t.
    rng = np.random.default_rng(18)
    ws = make_ws(rng, n_s=6)
    b, n_t = 2, 6
    writers = rng.normal(size=(b, n_t, 8))
    readers = rng.normal(size=(b, n_t, 8))
    memory = rng.normal(size=(b, n_t, ws.n_m, ws.n_l))   # a distinct memory per position
    state, read, _ = ws.communicate(WorkspaceState(t64(memory)), t64(writers),
                                    t64(readers), mask=causal_mask(n_t))
    assert state.memory.shape == memory.shape and read.shape == readers.shape
    for t in range(n_t):
        st_t, read_t, _ = ws.communicate(WorkspaceState(t64(memory[:, t])),
                                         t64(writers[:, :t + 1]), t64(readers[:, t:t + 1]))
        assert np.abs(state.memory.data[:, t] - st_t.memory.data).max() < 1e-12
        assert np.abs(read.data[:, t] - read_t.data[:, 0]).max() < 1e-12


def test_causal_round_over_rows_builds_only_those_memory_copies():
    # Naming the read positions cuts the state and the reads of the full
    # round to them; every position still writes.
    rng = np.random.default_rng(19)
    ws = make_ws(rng, n_s=6)
    b, n_t, rows = 2, 6, slice(2, 5)
    writers = t64(rng.normal(size=(b, n_t, 8)))
    readers = t64(rng.normal(size=(b, n_t, 8)))
    memory = t64(rng.normal(size=(b, n_t, ws.n_m, ws.n_l)))
    full, read, _ = ws.communicate(WorkspaceState(memory), writers, readers,
                                   mask=causal_mask(n_t))
    cut, read_r, write = ws.communicate(WorkspaceState(memory), writers, readers[:, rows],
                                        mask=causal_mask(n_t), rows=rows)
    assert cut.memory.shape == (b, 3, ws.n_m, ws.n_l) and read_r.shape == (b, 3, 8)
    assert write.weights.shape == (b, 3, ws.n_heads, ws.n_m, n_t)
    assert np.abs(cut.memory.data - full.memory.data[:, rows]).max() < 1e-12
    assert np.abs(read_r.data - read.data[:, rows]).max() < 1e-12


@pytest.mark.parametrize("causal", [True, False])
def test_readers_must_be_the_named_rows(causal):
    rng = np.random.default_rng(20)
    ws = make_ws(rng, n_s=6)
    writers, readers = t64(rng.normal(size=(2, 6, 8))), t64(rng.normal(size=(2, 6, 8)))
    memory_batch = (2, 6) if causal else (2,)
    cases = [(readers[:, 2:], slice(3, 6)), (readers, slice(3, 6))]
    if causal:   # no rows: every position reads
        cases.append((readers[:, 3:], None))
    for got, rows in cases:
        with pytest.raises(ConfigError, match="readers"):
            ws.communicate(ws.reset(memory_batch), writers, got,
                           mask=causal_mask(6) if causal else None, rows=rows)


# ---- reset / persistence ------------------------------------------------------


def test_reset_idempotent_and_input_independent():
    rng = np.random.default_rng(15)
    ws = make_ws(rng)
    a = ws.reset((4,))
    # run an episode, then reset again
    spec = t64(rng.normal(size=(4, 5, 8)))
    cand, _ = ws.write_step(a, spec)
    _ = ws.gated_update(a, cand, spec)
    b = ws.reset((4,))
    c = ws.reset((4,))
    assert (a.memory.data == b.memory.data).all()
    assert (b.memory.data == c.memory.data).all()


def test_reset_broadcasts_learned_init():
    rng = np.random.default_rng(16)
    ws = make_ws(rng)
    st = ws.reset((3,))
    for b in range(3):
        np.testing.assert_array_equal(st.memory.data[b], ws.init_memory.data)


def test_bandwidth_warning_when_slots_exceed_specialists():
    rng = np.random.default_rng(17)
    with pytest.warns(UserWarning, match="bottleneck"):
        SharedWorkspace(rng, n_s=2, n_h=8, n_m=4, n_heads=1, key_dim=4)


# ---- complexity accounting ----------------------------------------------------


def test_flops_linear_in_specialists():
    base = write_broadcast_flops(8, 4, 64, 64, 2, 16, 16)
    # communication + per-specialist projection terms all scale linearly
    f1 = write_broadcast_flops(16, 4, 64, 64, 2, 16, 16)
    f2 = write_broadcast_flops(32, 4, 64, 64, 2, 16, 16)
    d1 = f1["total"] - base["total"]
    d2 = f2["total"] - f1["total"]
    assert d2 == 2 * d1  # second differences double => no constant curvature
    # exact linearity: total(n_s) = a*n_s + b
    a = d1 / 8
    b = base["total"] - a * 8
    assert f2["total"] == a * 32 + b


def test_flops_hand_derived_example():
    n_s, n_m, d = 8, 4, 64
    f = write_broadcast_flops(n_s, n_m, d, d, 1, d, d)
    comm = (f["write"]["scores"] + f["write"]["mix"]
            + f["read"]["scores"] + f["read"]["mix"])
    assert comm == 2 * (n_m * n_s * d + n_s * n_m * d)


def test_composite_gradcheck_write_gate_broadcast():
    rng = np.random.default_rng(18)
    ws = make_ws(rng)
    spec = t64(rng.normal(size=(2, 5, 8)), requires_grad=True, name="spec")
    params = ws.parameters()
    params["spec"] = spec
    def f(p):
        state = ws.reset((2,))
        cand, _ = ws.write_step(state, spec)
        state = ws.gated_update(state, cand, spec)
        out, _ = ws.broadcast_step(state, spec)
        return T.tmean(T.mul(out, out))
    rep = grad_check(f, params, eps=1e-5, tol=1e-4, max_entries_per_param=16)
    assert rep.passed, rep.per_param

