"""End-to-end gradient verification for every host architecture.

Each host gets one toy-dimension configuration and a fixed random batch; the
full forward (input to cross-entropy loss) is compared against central finite
differences at 64-bit.  Hard top-k routing is frozen via a selection pin so
the check differentiates a single smooth branch, and the learned initial
memory is moved to a non-degenerate point — at the near-zero init the
read-path gradients sit below finite-difference roundoff.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import SelectionPin
from .config import HOSTS, ModelConfig
from .errors import ConfigError
from .gradcheck import GradCheckReport, grad_check
from .models import build_model

HOST_TASKS = {
    "tr": "triangles",
    "tr_hc": "triangles",
    "tr_ssw": "triangles",
    "tr_2xsa": "triangles",
    "tr_hsw": "copy",        # exercises the causal per-position workspace
    "rims_sw": "triangles",
    "tims_sw": "copy",
}


def toy_config(host: str, **kw) -> ModelConfig:
    if host not in HOSTS:
        raise ConfigError(f"unknown host {host!r}, expected one of {HOSTS}")
    base = dict(host=host, task=HOST_TASKS[host], n_layers=2, n_h=8, ffn_dim=16,
                n_heads=2, mem_heads=2, key_dim=4, value_dim=4, n_m=2, n_s=4,
                n_sel=2, image_size=16, patch_size=8, dropout=0.0,
                vocab_size=5, copy_len=3, seed=0)
    if host == "tr_hsw":
        base["topk"] = 3
    if host == "tims_sw":
        # All mechanisms active: a never-selected mechanism's attention
        # projections have exactly-zero gradient, which finite differences
        # cannot resolve against roundoff.  Hard selection gradients are
        # covered by tr_hsw and by the competition unit tests.
        base["n_sel"] = base["n_s"]
    base.update(kw)
    return ModelConfig(**base)


def toy_batch(cfg: ModelConfig) -> tuple:
    """(forward inputs..., integer targets) for the host's toy config, drawn
    from seed 10."""
    rng = np.random.default_rng(10)
    if cfg.task == "copy":
        n_t = cfg.seq_len
        tokens = rng.integers(0, cfg.vocab_size, size=(2, n_t))
        return (tokens, rng.integers(0, cfg.vocab_size, size=(2, n_t)))
    images = rng.random((2, cfg.image_size, cfg.image_size))
    return (images, rng.integers(0, cfg.n_classes, size=2))


def host_grad_check(host: str) -> GradCheckReport:
    """Gradient check of ``host``'s toy model on its toy batch, probing four
    entries of each parameter."""
    cfg = toy_config(host)
    model = build_model(cfg, dtype=np.float64)
    params = model.parameters()
    # Check at a generic non-degenerate parameter point.  Near the tiny
    # default init several gradient paths (workspace reads, score-scaled
    # mechanism updates) carry magnitudes below finite-difference roundoff.
    prng = np.random.default_rng(99)
    for p in params.values():
        p.data += prng.normal(scale=0.1, size=p.shape)
    if getattr(model, "workspace", None) is not None:
        model.workspace.init_memory.data[:] = prng.normal(
            scale=0.5, size=model.workspace.init_memory.shape)
    batch = toy_batch(cfg)
    pin = SelectionPin()

    def f(p):
        with pin:
            logits = model.forward(*batch[:-1])
        return T.cross_entropy(logits, batch[-1])

    return grad_check(f, params, max_entries_per_param=4)


def check_all_hosts() -> dict[str, GradCheckReport]:
    return {host: host_grad_check(host) for host in HOSTS}
