"""Declarative experiment configuration.

One YAML document drives every CLI command.  Defaults live here and only
here; `tokmri show-config` prints them.  Configurations round-trip through
serialization unchanged.
"""

from __future__ import annotations

import math
import types
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import yaml

from .errors import ConfigError
from .policies import POLICIES


@dataclass
class DataConfig:
    size: int = 64
    n_train: int = 200
    n_val: int = 20
    n_test: int = 50
    n_ellipses: int = 8
    intensity_lo: float = 0.2
    intensity_hi: float = 1.0
    phase_mode: str = "smooth-random"
    master_seed: int = 1234


@dataclass
class TokenizerSection:
    K: int = 256
    D: int = 16
    p: int = 8
    kmeans_iters: int = 50


@dataclass
class ModelSection:
    layers: int = 2
    heads: int = 4
    embed_dim: int = 64
    ffn_dim: int = 128


@dataclass
class TrainSection:
    epochs: int = 30
    batch_size: int = 8
    lr: float = 1.0e-3
    accel_lo: float = 1.2
    accel_hi: float = 24.0
    noise_sigma: float = 0.0
    seed: int = 0
    resume_from: str | None = None


@dataclass
class AcquisitionSection:
    rho_c: float = 0.04
    accelerations: list[int] = field(default_factory=lambda: [4, 8])
    T: int = 4
    lines_per_step: int | None = None
    policies: list[str] = field(default_factory=lambda: list(POLICIES))
    noise_sigma: float = 0.0
    noise_seed: int = 0
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])


@dataclass
class MetricsSection:
    psnr_cap: float = 100.0


@dataclass
class BenchSection:
    accel: int = 8
    T: int = 8
    min_steps: int = 20


@dataclass
class ExperimentConfig:
    out_dir: str = "runs/default"
    data: DataConfig = field(default_factory=DataConfig)
    tokenizer: TokenizerSection = field(default_factory=TokenizerSection)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    acquisition: AcquisitionSection = field(default_factory=AcquisitionSection)
    metrics: MetricsSection = field(default_factory=MetricsSection)
    bench: BenchSection = field(default_factory=BenchSection)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a mapping")
        cfg = cls()
        sections = {f.name: f for f in fields(cls)}
        for key, value in doc.items():
            if key not in sections:
                raise ConfigError(f"unknown config section {key!r}")
            current = getattr(cfg, key)
            if hasattr(current, "__dataclass_fields__"):
                if not isinstance(value, dict):
                    raise ConfigError(f"config section {key!r} must be a mapping")
                hints = get_type_hints(type(current))
                for sub, sub_val in value.items():
                    if sub not in hints:
                        raise ConfigError(f"unknown config key {key}.{sub}")
                    setattr(current, sub,
                            _typed(f"{key}.{sub}", sub_val, hints[sub]))
            else:
                setattr(cfg, key, _typed(key, value, get_type_hints(cls)[key]))
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh) or {}
        return cls.from_dict(doc)

    def validate(self) -> None:
        d, t = self.data, self.tokenizer
        for section, key in (("data", "size"), ("tokenizer", "K"),
                             ("tokenizer", "D"), ("tokenizer", "p"),
                             ("train", "epochs"), ("train", "batch_size")):
            if getattr(getattr(self, section), key) < 1:
                raise ConfigError(f"{section}.{key} must be >= 1")
        if not (math.isfinite(self.train.lr) and self.train.lr > 0):
            raise ConfigError(
                f"train.lr must be finite and > 0, got {self.train.lr}")
        if d.size % t.p:
            raise ConfigError(
                f"patch size {t.p} does not divide image size {d.size}"
            )
        if d.phase_mode not in ("zero", "smooth-random"):
            raise ConfigError(f"unknown phase mode {d.phase_mode!r}")
        if not 0.0 <= self.acquisition.rho_c <= 1.0:
            raise ConfigError("rho_c must lie in [0, 1]")
        if self.model.embed_dim % self.model.heads:
            raise ConfigError("embed_dim must be divisible by heads")
        for pol in self.acquisition.policies:
            if pol not in POLICIES:
                raise ConfigError(f"unknown policy {pol!r}")
        for R in self.acquisition.accelerations:
            if R < 1:
                raise ConfigError("accelerations must be >= 1")
        for key in ("accel", "T", "min_steps"):
            value = getattr(self.bench, key)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"bench.{key} must be an integer >= 1")
        if not self.acquisition.seeds:
            raise ConfigError("at least one acquisition seed is required")


def _conforms(value, tp) -> bool:
    """Whether a YAML value has the declared type of a config key: int,
    float (an int is accepted), str, bool, None, a list of these, or a union."""
    origin = get_origin(tp)
    if origin is list:
        (item,) = get_args(tp)
        return isinstance(value, list) and all(_conforms(v, item) for v in value)
    if origin in (Union, types.UnionType):
        return any(_conforms(value, arg) for arg in get_args(tp))
    if tp is type(None):
        return value is None
    if isinstance(value, bool):
        return tp is bool
    if tp is float:
        return isinstance(value, (int, float))
    return isinstance(value, tp)


def _type_name(tp) -> str:
    origin = get_origin(tp)
    if origin is list:
        return f"a list of {_type_name(get_args(tp)[0])}"
    if origin in (Union, types.UnionType):
        return " or ".join(_type_name(arg) for arg in get_args(tp))
    return "null" if tp is type(None) else tp.__name__


def _typed(name: str, value, tp):
    """`value` checked against the declared type; an int becomes a float
    where a float is declared."""
    if not _conforms(value, tp):
        raise ConfigError(f"config key {name} must be {_type_name(tp)}, "
                          f"got {value!r}")
    return float(value) if tp is float else value


def default_config() -> ExperimentConfig:
    return ExperimentConfig()
