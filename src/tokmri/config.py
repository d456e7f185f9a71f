"""Declarative experiment configuration.

One YAML document drives every CLI command.  A run's defaults are the
section defaults here, which `tokmri show-config` prints; the objects and
functions the sections feed keep defaults of their own for direct callers.
Configurations round-trip through serialization unchanged.  A section's
values are checked by the object it feeds (`PhantomSpec`,
`TransformerConfig`, `RandomMaskSampler`, `AcquisitionConfig`), built at
load time by the same methods the commands use.
"""

from __future__ import annotations

import math
import types
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import yaml

from .errors import ConfigError
from .fourier import NoiseSpec
from .model import RandomMaskSampler, TransformerConfig
from .phantoms import PhantomSpec
from .policies import POLICIES, AcquisitionConfig


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

    def phantom(self, seed: int = 0) -> PhantomSpec:
        return PhantomSpec(size=self.size, n_ellipses=self.n_ellipses,
                           intensity_lo=self.intensity_lo,
                           intensity_hi=self.intensity_hi,
                           phase_mode=self.phase_mode, seed=seed)


@dataclass
class TokenizerSection:
    K: int = 256
    D: int = 16
    p: int = 8
    kmeans_iters: int = 50


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

    def corruption(self, rho_c: float) -> tuple[RandomMaskSampler, NoiseSpec]:
        """The mask sampler and the measurement noise of training examples."""
        return (RandomMaskSampler(rho_c, self.accel_lo, self.accel_hi),
                NoiseSpec(self.noise_sigma))


@dataclass
class AcquisitionSection:
    rho_c: float = 0.04
    accelerations: list[int] = field(default_factory=lambda: [4, 8])
    T: int = 4
    lines_per_step: int | None = None
    policies: list[str] = field(default_factory=lambda: [*POLICIES, "oracle"])
    noise_sigma: float = 0.0
    noise_seed: int = 0
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])

    def trajectory(self, policy: str, R: int, seed: int = 0) -> AcquisitionConfig:
        """Settings of one trajectory."""
        return AcquisitionConfig(
            R=R, rho_c=self.rho_c, T=self.T, lines_per_step=self.lines_per_step,
            policy=policy, seed=seed, noise=NoiseSpec(self.noise_sigma),
            noise_seed=self.noise_seed)


@dataclass
class MetricsSection:
    psnr_cap: float = 100.0


@dataclass
class BenchSection:
    min_steps: int = 20


@dataclass
class ExperimentConfig:
    out_dir: str = "runs/default"
    data: DataConfig = field(default_factory=DataConfig)
    tokenizer: TokenizerSection = field(default_factory=TokenizerSection)
    model: TransformerConfig = field(default_factory=TransformerConfig)
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
                typed = {}
                for sub, sub_val in value.items():
                    if sub not in hints:
                        raise ConfigError(f"unknown config key {key}.{sub}")
                    typed[sub] = _typed(f"{key}.{sub}", sub_val, hints[sub])
                setattr(cfg, key,
                        _built(key, lambda: replace(current, **typed)))
            else:
                setattr(cfg, key, _typed(key, value, get_type_hints(cls)[key]))
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = yaml.safe_load(fh)
        # a bad !!int, !!float, !!timestamp or !!bool value raises a plain
        # ValueError, LookupError or AttributeError; UnicodeDecodeError is a
        # ValueError
        except (yaml.YAMLError, ValueError, LookupError, AttributeError,
                RecursionError) as exc:
            raise ConfigError(f"{path}: not a valid YAML document: "
                              f"{type(exc).__name__}: {exc}") from None
        doc = {} if doc is None else doc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config document must be a mapping, "
                              f"got {type(doc).__name__}")
        return cls.from_dict(doc)

    def validate(self) -> None:
        d, t, acq = self.data, self.tokenizer, self.acquisition
        for section, key in (("tokenizer", "K"), ("tokenizer", "D"),
                             ("tokenizer", "p"), ("tokenizer", "kmeans_iters"),
                             ("train", "epochs"), ("train", "batch_size")):
            if getattr(getattr(self, section), key) < 1:
                raise ConfigError(f"{section}.{key} must be >= 1")
        if t.D > t.p * t.p:
            raise ConfigError(f"tokenizer.D {t.D} exceeds the patch "
                              f"dimension tokenizer.p² = {t.p * t.p}")
        for key in ("n_train", "n_val", "n_test"):
            count = getattr(d, key)
            if count < 0:
                raise ConfigError(f"data.{key} must be >= 0, got {count}")
        for section, key in (("train", "lr"), ("metrics", "psnr_cap")):
            value = getattr(getattr(self, section), key)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(
                    f"{section}.{key} must be finite and > 0, got {value}")
        if not isinstance(self.bench.min_steps, int) or self.bench.min_steps < 1:
            raise ConfigError("bench.min_steps must be an integer >= 1")
        _built("data", d.phantom)
        if d.size % t.p:
            raise ConfigError(
                f"patch size {t.p} does not divide image size {d.size}"
            )
        if not acq.seeds:
            raise ConfigError("at least one acquisition seed is required")
        for key, seed in [("data.master_seed", d.master_seed),
                          ("train.seed", self.train.seed),
                          ("acquisition.noise_seed", acq.noise_seed),
                          *(("acquisition.seeds", s) for s in acq.seeds)]:
            # keeps seed * 1_000_003 + image index inside a uint64
            if not isinstance(seed, int) or not 0 <= seed < 2**32:
                raise ConfigError(
                    f"{key} must be an integer in [0, 2**32), got {seed!r}")
        for key in ("seeds", "accelerations", "policies"):
            values = getattr(acq, key)
            if len(set(values)) != len(values):
                # a repeated entry runs its trajectories again, writing each
                # metrics row twice and weighting it twice in the summary
                raise ConfigError(
                    f"acquisition.{key} holds a duplicate entry: {values}")
        for policy in acq.policies:
            if policy not in (*POLICIES, "oracle"):
                raise ConfigError(f"acquisition.policies holds unknown policy "
                                  f"{policy!r}; known: {(*POLICIES, 'oracle')}")
        _built("train", lambda: self.train.corruption(acq.rho_c))
        # the plan does not depend on the policy; `bench` runs LES and GEO
        # whatever `acquisition.policies` holds
        for R in acq.accelerations:
            _built("acquisition", lambda: acq.trajectory("les", R).plan(d.size))


def _built(section: str, build):
    """`build()`, with the config section named in a ConfigError it raises."""
    try:
        return build()
    except ConfigError as exc:
        raise ConfigError(f"{section}: {exc}") from None


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
    try:
        return float(value) if tp is float else value
    except OverflowError:
        raise ConfigError(f"config key {name} is beyond the float range") from None


def default_config() -> ExperimentConfig:
    return ExperimentConfig()
