"""Run configuration: one JSON document drives every pipeline stage.

``_LAYOUT`` declares the document once: each JSON section, the
``RunConfig`` field that holds it and its JSON key -> field name pairs.
``RunConfig.to_dict`` and ``config_from_dict`` both walk it, so every field
is written to and read from exactly one section. The schema is exhaustive;
unknown sections or keys, and values of the wrong JSON type, are rejected so
a typo cannot silently fall back to a default. The effective configuration
is echoed into every report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .aggregate import AggregationConfig
from .errors import ConfigurationError
from .evaluation import ExperimentSpec
from .features import PatchGridSpec
from .fileio import atomic_write
from .rnn import TrainConfig


@dataclass
class SyntheticSpec:
    num_persons: int = 20
    frames_per_camera: int = 30
    appearance_seed: int = 0
    jitter: float = 0.02
    camera_gain: tuple[float, ...] = (1.0, 1.0, 1.0)
    camera_offset: tuple[float, ...] = (0.05, 0.0, -0.05)
    noise_pool_size: int = 20


@dataclass
class PathsConfig:
    manifest: str | None = None
    model: str | None = None
    out_dir: str | None = None


@dataclass
class RunConfig:
    image_w: int = 64
    image_h: int = 128
    grid: PatchGridSpec = field(default_factory=PatchGridSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    agg: AggregationConfig = field(default_factory=AggregationConfig)
    scorer: str = "cosine"
    ranksvm_C: float = 1.0
    ranksvm_iters: int = 2000
    experiment: ExperimentSpec = field(default_factory=ExperimentSpec)
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    paths: PathsConfig = field(default_factory=PathsConfig)

    @property
    def feature_dim(self):
        return self.grid.feature_dim(self.image_h, self.image_w)

    @property
    def embedding_dim(self):
        return self.train.hidden_dim * self.train.subseq_len

    def validate(self):
        self.grid.validate_for(self.image_h, self.image_w)
        self.train.validate()
        self.agg.validate()
        if self.agg.subseq_len != self.train.subseq_len:
            raise ConfigurationError(
                f"aggregation L ({self.agg.subseq_len}) must equal training L "
                f"({self.train.subseq_len})"
            )
        if self.scorer not in ("cosine", "ranksvm"):
            raise ConfigurationError(f"unknown scorer {self.scorer!r}")
        if not (math.isfinite(self.ranksvm_C) and self.ranksvm_C > 0):
            raise ConfigurationError(f"ranksvm_C must be finite and > 0, got {self.ranksvm_C}")
        if self.ranksvm_iters < 1:
            raise ConfigurationError("ranksvm_iters must be >= 1")
        self.experiment.validate(self.train.subseq_len)
        seeds = {"train.seed": self.train.seed, "aggregation.seed": self.agg.seed,
                 "synthetic.appearance_seed": self.synthetic.appearance_seed}
        for name, seed in seeds.items():
            if seed < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {seed}")
        syn = self.synthetic
        if syn.num_persons < 2:
            raise ConfigurationError("synthetic dataset needs at least 2 persons")
        if syn.frames_per_camera < self.train.subseq_len:
            raise ConfigurationError("frames_per_camera must be >= subseq_len")
        for name in ("camera_gain", "camera_offset"):
            values = getattr(syn, name)
            if len(values) != 3 or not all(map(math.isfinite, values)):
                raise ConfigurationError(f"synthetic.{name} must be 3 finite values, got {values}")
        if not (math.isfinite(syn.jitter) and syn.jitter >= 0):
            raise ConfigurationError(f"synthetic.jitter must be finite and >= 0, got {syn.jitter}")
        if syn.noise_pool_size < 0:
            raise ConfigurationError("synthetic.noise_pool_size must be >= 0")
        for f in fields(self.paths):
            if "\0" in (getattr(self.paths, f.name) or ""):
                raise ConfigurationError(f"paths.{f.name} contains a NUL byte")
        return self

    def to_dict(self):
        """The JSON document, section by section as ``_LAYOUT`` lays it out."""
        out = {}
        for section, (owner, keys) in _LAYOUT.items():
            holder = getattr(self, owner) if owner else self
            out[section] = {key: getattr(holder, name) for key, name in keys.items()}
        return out


def desk_scale(**overrides):
    """Small configuration exercising every code path in seconds."""
    cfg = RunConfig(
        image_w=16,
        image_h=32,
        grid=PatchGridSpec(patch_h=8, patch_w=4, stride_v=4, stride_h=2),
        train=TrainConfig(
            subseq_len=5,
            epochs=40,
            lr_initial=0.001,
            lr_after=0.0001,
            lr_switch_epoch=20,
            dropout_rate=0.5,
            batch_size=16,
            seed=0,
            hidden_dim=16,
        ),
        agg=AggregationConfig(subseq_len=5, num_subsequences=10, seed=0),
        experiment=ExperimentSpec(trials=5, master_seed=0),
        synthetic=SyntheticSpec(num_persons=20, frames_per_camera=30),
    )
    return _apply_overrides(cfg, overrides)


def full_scale(**overrides):
    """The full-scale configuration (128x64 frames, H=512, L=10, 400 epochs)."""
    cfg = RunConfig()
    return _apply_overrides(cfg, overrides)


def _apply_overrides(cfg, overrides):
    for key, value in overrides.items():
        if not hasattr(cfg, key):
            raise ConfigurationError(f"unknown RunConfig field {key!r}")
        setattr(cfg, key, value)
    return cfg


# ---------------------------------------------------------------------------
# JSON layout
# ---------------------------------------------------------------------------

def _same(*names):
    return {name: name for name in names}


def _all_fields(cls, *but):
    return _same(*(f.name for f in fields(cls) if f.name not in but))


# JSON section -> (the RunConfig field that holds it, "" for RunConfig itself,
# {JSON key: field name}). The hidden size and peephole form of TrainConfig
# are the [model] section; the aggregation L is train.subseq_len, not a key
_LAYOUT = {
    "image": ("", {"width": "image_w", "height": "image_h"}),
    "grid": ("grid", _all_fields(PatchGridSpec)),
    "model": ("train", _same("hidden_dim", "peephole")),
    "train": ("train", _all_fields(TrainConfig, "hidden_dim", "peephole")),
    "aggregation": ("agg", _all_fields(AggregationConfig, "subseq_len")),
    "matching": ("", _same("scorer", "ranksvm_C", "ranksvm_iters")),
    "experiment": ("experiment", _all_fields(ExperimentSpec)),
    "synthetic": ("synthetic", _all_fields(SyntheticSpec)),
    "paths": ("paths", _all_fields(PathsConfig)),
}

# the JSON values accepted for each field annotation
_JSON_TYPES = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "None": lambda v: v is None,
    "tuple[int, ...]": lambda v: isinstance(v, (list, tuple)) and all(map(_JSON_TYPES["int"], v)),
    "tuple[float, ...]": lambda v: (
        isinstance(v, (list, tuple)) and all(map(_JSON_TYPES["float"], v))
    ),
}


def config_from_dict(data):
    """The validated RunConfig of a JSON document laid out as ``_LAYOUT``;
    absent sections and keys keep their defaults."""
    unknown = set(data) - set(_LAYOUT)
    if unknown:
        raise ConfigurationError(f"unknown config sections: {sorted(unknown)}")
    defaults = RunConfig()
    top, parts = {}, {}  # RunConfig's own fields; each section object's fields
    for section, (owner, keys) in _LAYOUT.items():
        values = data.get(section, {})
        if not isinstance(values, dict):
            raise ConfigurationError(f"[{section}] must be a JSON object, not {values!r}")
        unknown = set(values) - set(keys)
        if unknown:
            raise ConfigurationError(f"unknown keys in [{section}]: {sorted(unknown)}")
        types = {f.name: f.type for f in fields(getattr(defaults, owner) if owner else defaults)}
        target = parts.setdefault(owner, {}) if owner else top
        for key, value in values.items():
            expected = types[keys[key]]
            if not any(_JSON_TYPES[t.strip()](value) for t in expected.split("|")):
                raise ConfigurationError(f"[{section}] {key} must be {expected}, not {value!r}")
            target[keys[key]] = tuple(value) if isinstance(value, list) else value
    parts["agg"]["subseq_len"] = parts["train"].get("subseq_len", defaults.train.subseq_len)
    sections = {owner: replace(getattr(defaults, owner), **kw) for owner, kw in parts.items()}
    return replace(defaults, **top, **sections).validate()


def load_config(path):
    try:  # the decoder raises RecursionError on arrays or objects nested too deep
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    return config_from_dict(data)


def save_config(path, cfg):
    """Write the configuration as JSON, atomically."""
    with atomic_write(path) as fh:
        fh.write((json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n").encode())
