"""Model/training configuration: a versioned, human-readable key-value file.

Configs load from YAML files and from checkpoint metadata through
``from_dict``, which checks each value against its field's declared type.
``validate`` is the one config check: it enforces every range and cross-field
rule the hosts rely on before any compute is spent, and no layer re-checks one.

A field exists only for a value some caller sets.  What the task fixes (the
class count, the image channels) is a read-only property derived from
``task``.  Keys removed from the config are listed in ``RETIRED`` with the
one value every model ran with, or ``ANY`` when no model read them: files
and checkpoints written before a removal still load when they hold that
value, and any other value is a ``ConfigError``.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from pathlib import Path

from . import tasks
from .errors import ConfigError
from .workspace import GATE_STYLES

CONFIG_VERSION = 1

HOSTS = ("tr", "tr_hc", "tr_ssw", "tr_hsw", "tr_2xsa", "rims_sw", "tims_sw")
TASKS = ("triangles", "soc", "copy")

ANY = object()   # a retired key that no model read: any stored value loads

# Keys removed from ModelConfig, mapped to the value every model ran with:
# the workspace writes once, layer sharing follows the host, TIMs runs one
# monolithic block on each side, the task sets classes and channels, and the
# slots are as wide as the specialists (n_l = n_h).
RETIRED = {"rims_steps": ANY, "include_memory_rows": ANY, "n_write_iters": 1,
           "share_layer_params": None, "tims_mono_layers": 1,
           "n_classes": ANY, "n_channels": ANY, "n_l": None}


@dataclass
class ModelConfig:
    host: str = "tr_ssw"
    task: str = "triangles"
    seed: int = 0
    version: int = CONFIG_VERSION

    # architecture
    n_layers: int = 4
    n_h: int = 64
    ffn_dim: int = 128
    n_heads: int = 4          # pairwise self-attention heads
    mem_heads: int = 4        # workspace read/write heads
    key_dim: int = 16
    value_dim: int = 16
    dropout: float = 0.1

    # shared workspace
    n_m: int = 4
    topk: int | None = None
    gate_style: str = "unit"
    persistent_memory: bool = True   # False: re-initialize at every stage
    sw_plus_sa: bool = False

    # modular hosts
    n_s: int = 4              # RIMs specialists / TIMs mechanisms
    n_sel: int = 2

    # vision tasks
    image_size: int = 32
    patch_size: int = 8

    # copy task
    vocab_size: int = 8
    copy_len: int = 5

    # training
    epochs: int = 50
    batch_size: int = 64
    lr: float = 1e-4
    cosine: bool = True
    train_n: int = 10000
    test_n: int = 2000

    @property
    def n_classes(self) -> int:
        """Output width: the task's classes, or the copy LM's vocabulary."""
        return {"triangles": 2, "soc": len(tasks.SOC_ANSWERS)}.get(self.task, self.vocab_size)

    @property
    def n_channels(self) -> int:
        return tasks.SOC_RGB.shape[1] if self.task == "soc" else 1

    @property
    def seq_len(self) -> int:
        # delimiter + prefix echo
        return 2 * self.copy_len + 1

    @property
    def n_writers(self) -> int:
        """Tokens that compete to write into a transformer host's workspace:
        the CLS token, the patches and the scene question on the vision
        tasks; the ``seq_len - 1`` positions a copy LM is fed."""
        if self.task == "copy":
            return 2 * self.copy_len
        return 1 + (self.image_size // self.patch_size) ** 2 + (1 if self.task == "soc" else 0)


# Sizes and counts: each must be at least 1 before any rule divides by one.
_SIZES = ("n_layers", "n_h", "ffn_dim", "n_heads", "mem_heads", "key_dim", "value_dim",
          "n_m", "n_s", "n_sel", "image_size", "patch_size", "copy_len", "batch_size",
          "train_n", "test_n")


def validate(cfg: ModelConfig) -> ModelConfig:
    if cfg.host not in HOSTS:
        raise ConfigError(f"unknown host {cfg.host!r}, expected one of {HOSTS}")
    if cfg.task not in TASKS:
        raise ConfigError(f"unknown task {cfg.task!r}, expected one of {TASKS}")
    if cfg.version != CONFIG_VERSION:
        raise ConfigError(f"config version {cfg.version} unsupported (expected {CONFIG_VERSION})")
    for key in _SIZES:
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be at least 1, got {getattr(cfg, key)}")
    if cfg.host == "rims_sw" and cfg.task != "triangles":
        raise ConfigError("the recurrent-specialist host is bound to the triangles task")
    if cfg.host == "tims_sw" and cfg.task != "copy":
        raise ConfigError("the mechanism-partitioned host is bound to the copy task")
    if cfg.host == "tr_hsw" and cfg.topk is None:
        raise ConfigError("tr_hsw requires topk")
    # Ablation values a host would ignore are rejected, so that a run's
    # recorded config is the one it ran.
    if cfg.topk is not None and cfg.host != "tr_hsw":
        raise ConfigError(f"topk applies only to tr_hsw, not {cfg.host}")
    if (not cfg.persistent_memory or cfg.sw_plus_sa) and cfg.host not in ("tr_ssw", "tr_hsw"):
        raise ConfigError(f"persistent_memory=False and sw_plus_sa apply only to "
                          f"tr_ssw and tr_hsw, not {cfg.host}")
    if cfg.gate_style not in GATE_STYLES:
        raise ConfigError(f"unknown gate_style {cfg.gate_style!r}, expected one of {GATE_STYLES}")
    if cfg.host in ("rims_sw", "tims_sw") and cfg.n_sel > cfg.n_s:
        raise ConfigError(f"n_sel={cfg.n_sel} exceeds n_s={cfg.n_s}")
    if cfg.host == "tims_sw" and cfg.n_h % cfg.n_s != 0:
        raise ConfigError(f"tims_sw needs n_h divisible by n_s ({cfg.n_h} % {cfg.n_s})")
    if not isinstance(cfg.lr, (int, float)) or not math.isfinite(cfg.lr) or cfg.lr <= 0:
        raise ConfigError(f"lr must be a positive finite number, got {cfg.lr!r}")
    if cfg.task in ("triangles", "soc") and cfg.image_size % cfg.patch_size != 0:
        raise ConfigError(f"patch_size {cfg.patch_size} must divide image_size {cfg.image_size}")
    if cfg.topk is not None and not 1 <= cfg.topk <= cfg.n_writers:
        raise ConfigError(f"topk={cfg.topk} out of range for the host's {cfg.n_writers} writers")
    if cfg.task == "copy" and cfg.vocab_size < 2:
        raise ConfigError("copy task needs vocab_size >= 2 (one symbol is the delimiter)")
    if not 0.0 <= cfg.dropout < 1.0:
        raise ConfigError(f"dropout {cfg.dropout} out of range")
    return cfg


# The values each declared field type admits; a bool is no number here.
_TYPES = {"str": str, "bool": bool, "int": int, "float": (int, float),
          "int | None": (int, type(None))}
# YAML 1.1 reads a float with no dot or an unsigned exponent ("3e-4") as text.
_FLOAT_TEXT = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+")


def from_dict(data, overrides: dict | None = None) -> ModelConfig:
    """Build and validate a config from a mapping, applying overrides last.

    Retired keys holding their run value are dropped; a retired key holding
    another value, any other unknown key, or a value not of its field's
    type is a ConfigError.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping")
    for key, run_value in RETIRED.items():
        if key in data and run_value is not ANY and data[key] != run_value:
            raise ConfigError(f"{key}={data[key]!r} is not supported: every model "
                              f"runs with {run_value!r}")
    data = {k: v for k, v in data.items() if k not in RETIRED}
    known = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if overrides:
        bad = set(overrides) - set(known)
        if bad:
            raise ConfigError(f"unknown override keys: {sorted(bad)}")
        data.update(overrides)
    for key, value in data.items():
        kind = known[key]
        if kind == "float" and isinstance(value, str) and _FLOAT_TEXT.fullmatch(value):
            data[key] = value = float(value)
        if not isinstance(value, _TYPES[kind]) or isinstance(value, bool) and kind != "bool":
            raise ConfigError(f"{key} must be of type {kind}, got {value!r}")
    return validate(ModelConfig(**data))


def from_yaml(path, overrides: dict | None = None) -> ModelConfig:
    """Load a config from a YAML file, applying overrides last."""
    # Imported here: training and the benchmark workers never read YAML.
    import yaml
    return from_dict(yaml.safe_load(Path(path).read_text()), overrides)
