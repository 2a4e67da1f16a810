"""Pinned parameter layout, initial values, tape size and tape bytes of the
transformer hosts.

Checkpoints store parameters by name, and every initial value comes from one
seeded numpy Generator in construction order, so a refactor of the host code
must keep the names, the shapes, the draw order and the recorded op sequence.
None of these depends on the BLAS build: the init bytes come straight from the
Generator, and the tape size and the bytes it holds from the op sequence and
the shapes, so the pins hold on any machine.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from sharedworkspace.config import ModelConfig
from sharedworkspace.models import build_model
from sharedworkspace.train import batch_loss, resolve_task_fields

HOSTS = ("tr", "tr_hc", "tr_ssw", "tr_hsw", "tr_2xsa")
TASKS = ("triangles", "soc", "copy")
VARIANTS = {"": {}, "sw_plus_sa": {"sw_plus_sa": True},
            "no_persistence": {"persistent_memory": False}}
CASES = [(task, host, variant) for task in TASKS for host in HOSTS
         for variant in VARIANTS
         if not variant or host in ("tr_ssw", "tr_hsw")]

# (task, host, variant): (number of parameter tensors, number of backward
# closures recorded by one batch_loss, SHA-256 of the "name shape dtype" lines
# in order, SHA-256 of the concatenated init bytes).
PINS = {
    ('triangles', 'tr', ''): (20, 73,
        "33bcb08020bc54e21ffa46f97560c457efd831808b1edc33a05ed73c2a961ee3",
        "aa6a7c20235a0d67c72c7706c82598fd0dad805218ef74548bbc16b8e14fea7c"),
    ('triangles', 'tr_hc', ''): (32, 73,
        "b43a837f69d6ae2efaacc60929f7d0266f4c8548c7de96bcf3f4c1a2a419a6fa",
        "40230affcf19e0e1316dc0565e3f950c5f1481cf5af41277a766ed9b842a435e"),
    ('triangles', 'tr_ssw', ''): (30, 140,
        "172e4e110dc888275ea728ff914579ab9c6f5b00f3908ae55dc9bea67607e732",
        "70ab57327e445b887ad92931c71e9c5285cba0245422ec76dd49b87c84298cc8"),
    ('triangles', 'tr_ssw', 'sw_plus_sa'): (36, 180,
        "fdcd8eaf0f8cf21060448a5a931047c2d606962e60ce58488ce2f96384f16edf",
        "156bcad584142416058508152692cccf7b8fbf20d35946c6cd8b7579b2e99440"),
    ('triangles', 'tr_ssw', 'no_persistence'): (30, 141,
        "172e4e110dc888275ea728ff914579ab9c6f5b00f3908ae55dc9bea67607e732",
        "70ab57327e445b887ad92931c71e9c5285cba0245422ec76dd49b87c84298cc8"),
    ('triangles', 'tr_hsw', ''): (30, 140,
        "172e4e110dc888275ea728ff914579ab9c6f5b00f3908ae55dc9bea67607e732",
        "70ab57327e445b887ad92931c71e9c5285cba0245422ec76dd49b87c84298cc8"),
    ('triangles', 'tr_hsw', 'sw_plus_sa'): (36, 180,
        "fdcd8eaf0f8cf21060448a5a931047c2d606962e60ce58488ce2f96384f16edf",
        "156bcad584142416058508152692cccf7b8fbf20d35946c6cd8b7579b2e99440"),
    ('triangles', 'tr_hsw', 'no_persistence'): (30, 141,
        "172e4e110dc888275ea728ff914579ab9c6f5b00f3908ae55dc9bea67607e732",
        "70ab57327e445b887ad92931c71e9c5285cba0245422ec76dd49b87c84298cc8"),
    ('triangles', 'tr_2xsa', ''): (26, 113,
        "87c03410a6f3cd5d60fc33e135646a63754bdd6fd8cf8b80a628140daeed4d9b",
        "8add0f86d6eedd675c9a8443a8ab5a91018520111b839c68080d501e95d54979"),
    ('soc', 'tr', ''): (22, 76,
        "85e565e50c9a513a8f22c414f0c580059e11f2720cffff5d95037e155305467b",
        "c22e8913e3f40e8dce1fc43b602b94f7637e11b5f57f05ee69a37d056a01de9a"),
    ('soc', 'tr_hc', ''): (34, 76,
        "cef2e974dcef354d4bcc8cff19407b9c73fd60a9d97f8213e52943997926648d",
        "acf047847bf35d98a06bbbedd5211a6cf0a839f418207edd4f2c97bdf057927e"),
    ('soc', 'tr_ssw', ''): (32, 143,
        "3760fe73dc78284c785c5ecf2f222f0e09d9c5c4e902932e1e1cb98219df2e12",
        "bba28d7507110963f4c7101ac4cba4a9b00f8002803ba08687fba536c868bfee"),
    ('soc', 'tr_ssw', 'sw_plus_sa'): (38, 183,
        "8a3626c93ca2cf4bb0b12683f1b749b19837d9e4b5ca020369832a309de86bfb",
        "c96539826e36932b809a731f68c81bfebd0a2f29fde5e300d3a6b2cde0af402b"),
    ('soc', 'tr_ssw', 'no_persistence'): (32, 144,
        "3760fe73dc78284c785c5ecf2f222f0e09d9c5c4e902932e1e1cb98219df2e12",
        "bba28d7507110963f4c7101ac4cba4a9b00f8002803ba08687fba536c868bfee"),
    ('soc', 'tr_hsw', ''): (32, 143,
        "3760fe73dc78284c785c5ecf2f222f0e09d9c5c4e902932e1e1cb98219df2e12",
        "bba28d7507110963f4c7101ac4cba4a9b00f8002803ba08687fba536c868bfee"),
    ('soc', 'tr_hsw', 'sw_plus_sa'): (38, 183,
        "8a3626c93ca2cf4bb0b12683f1b749b19837d9e4b5ca020369832a309de86bfb",
        "c96539826e36932b809a731f68c81bfebd0a2f29fde5e300d3a6b2cde0af402b"),
    ('soc', 'tr_hsw', 'no_persistence'): (32, 144,
        "3760fe73dc78284c785c5ecf2f222f0e09d9c5c4e902932e1e1cb98219df2e12",
        "bba28d7507110963f4c7101ac4cba4a9b00f8002803ba08687fba536c868bfee"),
    ('soc', 'tr_2xsa', ''): (28, 116,
        "570de8775a8fba662bbc024db6e68f09bd5cfad02fb8e6b68b5bf7a2a2edce45",
        "5fc09af1e518fd0f90f05c8f12ad31ffae45df5a30985c4556362972cda23ce7"),
    ('copy', 'tr', ''): (18, 71,
        "6395123cad7c5d57c80bb021b3131edf91a96fc06cb41ab9193196803cbdd1b7",
        "e961fa361ea0c01a8af2516cbfa5a8b836171929d8f02cf69f405af6a92e541d"),
    ('copy', 'tr_hc', ''): (30, 71,
        "d30cfa21efb78cab435f31df060afdfde2ed005932adcd11abd5ea0fd2d56bc5",
        "332f658caef30d756d2982efc95a23be76f3060d3f0679e7876ef7f3c050c4bc"),
    ('copy', 'tr_ssw', ''): (28, 145,
        "39e6c64ede66b169b904d78b457f91a0a135b93c02accd917a65028f76d5a679",
        "17aa1b6de2d76f6f006067379dcda24fbc6c01af721d562250b1db683046c4d3"),
    ('copy', 'tr_ssw', 'sw_plus_sa'): (34, 187,
        "0c8029dc1038760f5530bdc3abc83fce71fc769f5cfc32a56008b5b32d6ca6e1",
        "e7eb6d9c7db3b413b150dfda7c90e1641f2263c47fb358fe316fbf7eac52352f"),
    ('copy', 'tr_ssw', 'no_persistence'): (28, 146,
        "39e6c64ede66b169b904d78b457f91a0a135b93c02accd917a65028f76d5a679",
        "17aa1b6de2d76f6f006067379dcda24fbc6c01af721d562250b1db683046c4d3"),
    ('copy', 'tr_hsw', ''): (28, 145,
        "39e6c64ede66b169b904d78b457f91a0a135b93c02accd917a65028f76d5a679",
        "17aa1b6de2d76f6f006067379dcda24fbc6c01af721d562250b1db683046c4d3"),
    ('copy', 'tr_hsw', 'sw_plus_sa'): (34, 187,
        "0c8029dc1038760f5530bdc3abc83fce71fc769f5cfc32a56008b5b32d6ca6e1",
        "e7eb6d9c7db3b413b150dfda7c90e1641f2263c47fb358fe316fbf7eac52352f"),
    ('copy', 'tr_hsw', 'no_persistence'): (28, 146,
        "39e6c64ede66b169b904d78b457f91a0a135b93c02accd917a65028f76d5a679",
        "17aa1b6de2d76f6f006067379dcda24fbc6c01af721d562250b1db683046c4d3"),
    ('copy', 'tr_2xsa', ''): (24, 113,
        "25f471d6f44e5f2faad63cbd61aa3d37c7f9caf2e19049f145cd67d2c3f838cf",
        "322456a1f6702b73701b5c81395af6f8c102ae945eaa4b1cf9ae4729aff57278"),
}


# (task, host, variant): bytes of numpy buffers still held after one
# training-mode batch_loss, before its backward, traced by tracemalloc (the
# tape's captured arrays, the loss, and what the model keeps for its probes).
# Only numpy's domain is counted: the interpreter's own allocations depend on
# its free lists, and so on what ran before.  A change that keeps an
# intermediate alive again raises these; one that frees more lowers them.
HELD_BYTES = {
    ('triangles', 'tr', ''): 10267,
    ('triangles', 'tr_hc', ''): 10267,
    ('triangles', 'tr_ssw', ''): 15403,
    ('triangles', 'tr_ssw', 'sw_plus_sa'): 21787,
    ('triangles', 'tr_ssw', 'no_persistence'): 15595,
    ('triangles', 'tr_hsw', ''): 15523,
    ('triangles', 'tr_hsw', 'sw_plus_sa'): 21907,
    ('triangles', 'tr_hsw', 'no_persistence'): 15715,
    ('triangles', 'tr_2xsa', ''): 16651,
    ('soc', 'tr', ''): 18099,
    ('soc', 'tr_hc', ''): 18099,
    ('soc', 'tr_ssw', ''): 23299,
    ('soc', 'tr_ssw', 'sw_plus_sa'): 31243,
    ('soc', 'tr_ssw', 'no_persistence'): 23491,
    ('soc', 'tr_hsw', ''): 23443,
    ('soc', 'tr_hsw', 'sw_plus_sa'): 31387,
    ('soc', 'tr_hsw', 'no_persistence'): 23635,
    ('soc', 'tr_2xsa', ''): 26043,
    ('copy', 'tr', ''): 12916,
    ('copy', 'tr_hc', ''): 12916,
    ('copy', 'tr_ssw', ''): 40116,
    ('copy', 'tr_ssw', 'sw_plus_sa'): 49716,
    ('copy', 'tr_ssw', 'no_persistence'): 41460,
    ('copy', 'tr_hsw', ''): 41040,
    ('copy', 'tr_hsw', 'sw_plus_sa'): 50640,
    ('copy', 'tr_hsw', 'no_persistence'): 42384,
    ('copy', 'tr_2xsa', ''): 22516,
}


def pin_config(task, host, variant):
    base = dict(host=host, task=task, n_layers=2, n_h=8, ffn_dim=16, n_heads=2,
                mem_heads=2, key_dim=4, value_dim=4, n_m=2, image_size=16,
                patch_size=8, dropout=0.1, vocab_size=5, copy_len=3, seed=0)
    if host == "tr_hsw":
        base["topk"] = 2
    base.update(VARIANTS[variant])
    return resolve_task_fields(ModelConfig(**base))


def pin_batch(cfg, b=3):
    rng = np.random.default_rng(1)
    if cfg.task == "copy":
        return {"tokens": rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_len + 1))}
    shape = (b, cfg.image_size, cfg.image_size) + ((3,) if cfg.task == "soc" else ())
    batch = {"images": rng.random(shape)}
    if cfg.task == "soc":
        batch["questions"] = rng.integers(0, 2, size=(b, 11))
        batch["answers"] = rng.integers(0, cfg.n_classes, size=b)
    else:
        batch["labels"] = rng.integers(0, cfg.n_classes, size=b)
    return batch


def tape_size(loss):
    seen, stack, count = set(), [loss._node], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node._backward is not None
        stack.extend(node._prev)
    return count


def fingerprint(task, host, variant):
    cfg = pin_config(task, host, variant)
    model = build_model(cfg)
    params = model.parameters()
    layout = "".join(f"{name} {p.shape} {p.dtype}\n" for name, p in params.items())
    init = hashlib.sha256()
    for p in params.values():
        init.update(np.ascontiguousarray(p.data).tobytes())
    loss, _ = batch_loss(model, cfg, pin_batch(cfg), rng=np.random.default_rng(2))
    return (len(params), tape_size(loss), hashlib.sha256(layout.encode()).hexdigest(),
            init.hexdigest())


def test_cases_cover_every_transformer_host_and_ablation():
    assert len(CASES) == 27
    assert set(PINS) == set(CASES)


@pytest.mark.parametrize("task,host,variant", CASES)
def test_transformer_host_pinned(task, host, variant):
    assert fingerprint(task, host, variant) == PINS[(task, host, variant)]


def held_bytes(cfg):
    model, batch = build_model(cfg), pin_batch(cfg)
    tracemalloc.start()
    try:
        loss, _ = batch_loss(model, cfg, batch, rng=np.random.default_rng(2))
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    numpy_only = snap.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sum(trace.size for trace in numpy_only.traces)


@pytest.mark.parametrize("task,host,variant", CASES)
def test_tape_holds_what_backward_reads_and_no_more(task, host, variant):
    held, recorded = held_bytes(pin_config(task, host, variant)), HELD_BYTES[(task, host, variant)]
    assert held <= 1.05 * recorded, (held, recorded)
