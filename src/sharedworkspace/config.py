"""Model/training configuration: a versioned, human-readable key-value file.

Configs load from YAML files and from checkpoint metadata through
``from_dict``.  ``validate`` enforces the cross-field rules the hosts rely on;
it runs before any compute is spent.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigError

CONFIG_VERSION = 1

HOSTS = ("tr", "tr_hc", "tr_ssw", "tr_hsw", "tr_2xsa", "rims_sw", "tims_sw")
TASKS = ("triangles", "soc", "copy")

# Keys that no model ever read, removed from ModelConfig; checkpoints and
# config files written before their removal still carry them.
RETIRED_KEYS = ("include_memory_rows", "rims_steps")


@dataclass
class ModelConfig:
    host: str = "tr_ssw"
    task: str = "triangles"
    seed: int = 0
    version: int = CONFIG_VERSION

    # architecture
    n_layers: int = 4
    share_layer_params: bool | None = None   # None: host default
    n_h: int = 64
    ffn_dim: int = 128
    n_heads: int = 4          # pairwise self-attention heads
    mem_heads: int = 4        # workspace read/write heads
    key_dim: int = 16
    value_dim: int = 16
    dropout: float = 0.1

    # shared workspace
    n_m: int = 4
    n_l: int | None = None    # None: n_l = n_h
    topk: int | None = None
    gate_style: str = "unit"
    persistent_memory: bool = True   # False: re-initialize at every stage
    sw_plus_sa: bool = False

    # modular hosts
    n_s: int = 4              # RIMs specialists / TIMs mechanisms
    n_sel: int = 2
    tims_mono_layers: int = 1  # monolithic layers before and after the modular stack

    # vision tasks
    image_size: int = 32
    patch_size: int = 8
    n_channels: int = 1
    n_classes: int = 2

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

    def resolved_share_layers(self) -> bool:
        if self.share_layer_params is not None:
            return self.share_layer_params
        return self.host != "tr_hc"   # high-capacity variant has per-layer parameters

    @property
    def slot_dim(self) -> int:
        return self.n_h if self.n_l is None else self.n_l

    @property
    def n_patches(self) -> int:
        side = self.image_size // self.patch_size
        return side * side

    @property
    def seq_len(self) -> int:
        # delimiter + prefix echo
        return 2 * self.copy_len + 1


def validate(cfg: ModelConfig) -> ModelConfig:
    if cfg.host not in HOSTS:
        raise ConfigError(f"unknown host {cfg.host!r}, expected one of {HOSTS}")
    if cfg.task not in TASKS:
        raise ConfigError(f"unknown task {cfg.task!r}, expected one of {TASKS}")
    if cfg.version != CONFIG_VERSION:
        raise ConfigError(f"config version {cfg.version} unsupported (expected {CONFIG_VERSION})")
    if cfg.host == "tr_hsw" and cfg.topk is None:
        raise ConfigError("tr_hsw requires topk")
    if cfg.host == "rims_sw" and cfg.n_sel > cfg.n_s:
        raise ConfigError(f"n_sel={cfg.n_sel} exceeds n_s={cfg.n_s}")
    if cfg.host == "tims_sw" and cfg.n_h % cfg.n_s != 0:
        raise ConfigError(f"tims_sw needs n_h divisible by n_s ({cfg.n_h} % {cfg.n_s})")
    if cfg.host == "tims_sw" and cfg.n_sel > cfg.n_s:
        raise ConfigError(f"n_sel={cfg.n_sel} exceeds n_s={cfg.n_s}")
    if cfg.n_m < 1:
        raise ConfigError("n_m must be at least 1")
    if cfg.task in ("triangles", "soc") and cfg.image_size % cfg.patch_size != 0:
        raise ConfigError(f"patch_size {cfg.patch_size} must divide image_size {cfg.image_size}")
    if cfg.task == "copy" and cfg.vocab_size < 2:
        raise ConfigError("copy task needs vocab_size >= 2 (one symbol is the delimiter)")
    if not 0.0 <= cfg.dropout < 1.0:
        raise ConfigError(f"dropout {cfg.dropout} out of range")
    return cfg


def from_dict(data, overrides: dict | None = None) -> ModelConfig:
    """Build and validate a config from a mapping, applying overrides last.

    Retired keys are dropped; any other unknown key is a ConfigError.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping")
    data = {k: v for k, v in data.items() if k not in RETIRED_KEYS}
    # Configs saved before n_write_iters was removed carry it as 1, the only
    # value any model ran; the workspace now always writes once.
    n_write_iters = data.pop("n_write_iters", 1)
    if n_write_iters != 1:
        raise ConfigError(f"n_write_iters={n_write_iters!r} is not supported: "
                          "the workspace writes once")
    known = {f.name for f in dataclasses.fields(ModelConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if overrides:
        bad = set(overrides) - known
        if bad:
            raise ConfigError(f"unknown override keys: {sorted(bad)}")
        data.update(overrides)
    return validate(ModelConfig(**data))


def from_yaml(source, overrides: dict | None = None) -> ModelConfig:
    """Load a config from a path or YAML string, applying overrides last."""
    if isinstance(source, (str, Path)) and Path(str(source)).exists():
        data = yaml.safe_load(Path(source).read_text())
    else:
        data = yaml.safe_load(source)
    return from_dict(data, overrides)
