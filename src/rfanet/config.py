"""Run configuration: one JSON document drives every pipeline stage.

The schema is exhaustive; unknown sections or keys are rejected so a typo
cannot silently fall back to a default. Scalar fields may be overridden by
CLI flags. The effective configuration is echoed into every report.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
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
        if self.grid.patch_h < 3 or self.grid.patch_w < 3:
            raise ConfigurationError("patches need at least one interior pixel (>= 3x3)")
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
        if self.synthetic.num_persons < 2:
            raise ConfigurationError("synthetic dataset needs at least 2 persons")
        if self.synthetic.frames_per_camera < self.train.subseq_len:
            raise ConfigurationError("frames_per_camera must be >= subseq_len")
        return self

    def to_dict(self):
        return {
            "image": {"width": self.image_w, "height": self.image_h},
            "grid": asdict(self.grid),
            "model": {"hidden_dim": self.train.hidden_dim, "peephole": self.train.peephole},
            "train": {
                k: v
                for k, v in asdict(self.train).items()
                if k not in ("hidden_dim", "peephole")
            },
            "aggregation": {
                "num_subsequences": self.agg.num_subsequences,
                "seed": self.agg.seed,
            },
            "matching": {
                "scorer": self.scorer,
                "ranksvm_C": self.ranksvm_C,
                "ranksvm_iters": self.ranksvm_iters,
            },
            "experiment": {
                "kind": self.experiment.kind,
                "trials": self.experiment.trials,
                "master_seed": self.experiment.master_seed,
                "noise_levels": list(self.experiment.noise_levels),
                "depths": list(self.experiment.depths) if self.experiment.depths else None,
                "subseq_counts": list(self.experiment.subseq_counts),
            },
            "synthetic": {
                **asdict(self.synthetic),
                "camera_gain": list(self.synthetic.camera_gain),
                "camera_offset": list(self.synthetic.camera_offset),
            },
            "paths": asdict(self.paths),
        }


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
# JSON loading
# ---------------------------------------------------------------------------

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


def _field_types(cls, *names):
    """Field name -> annotation, for the named fields of a dataclass (all by
    default)."""
    return {f.name: f.type for f in fields(cls) if not names or f.name in names}


def _section(data, section, types):
    """``data[section]`` (empty if absent), checked to be a JSON object whose
    keys are in ``types`` (key -> annotation) and whose values have those
    types."""
    values = data.get(section, {})
    if not isinstance(values, dict):
        raise ConfigurationError(f"[{section}] must be a JSON object, not {values!r}")
    unknown = set(values) - set(types)
    if unknown:
        raise ConfigurationError(f"unknown keys in [{section}]: {sorted(unknown)}")
    for key, value in values.items():
        if not any(_JSON_TYPES[t.strip()](value) for t in types[key].split("|")):
            raise ConfigurationError(f"[{section}] {key} must be {types[key]}, not {value!r}")
    return values


def _build_section(cls, data, section, **overrides):
    values = {**_section(data, section, _field_types(cls)), **overrides}
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


def config_from_dict(data):
    known = {
        "image", "grid", "model", "train", "aggregation",
        "matching", "experiment", "synthetic", "paths",
    }
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown config sections: {sorted(unknown)}")

    image = _section(data, "image", {"width": "int", "height": "int"})
    model = _section(data, "model", _field_types(TrainConfig, "hidden_dim", "peephole"))
    matching = _section(
        data, "matching", _field_types(RunConfig, "scorer", "ranksvm_C", "ranksvm_iters")
    )
    train = _build_section(TrainConfig, data, "train", **model)
    aggregation = _section(data, "aggregation", _field_types(AggregationConfig))
    agg = _build_section(
        AggregationConfig, data, "aggregation",
        subseq_len=aggregation.get("subseq_len", train.subseq_len),
    )

    cfg = RunConfig(
        image_w=image.get("width", 64),
        image_h=image.get("height", 128),
        grid=_build_section(PatchGridSpec, data, "grid"),
        train=train,
        agg=agg,
        experiment=_build_section(ExperimentSpec, data, "experiment"),
        synthetic=_build_section(SyntheticSpec, data, "synthetic"),
        paths=_build_section(PathsConfig, data, "paths"),
        **matching,
    )
    return cfg.validate()


def load_config(path):
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    return config_from_dict(data)


def save_config(path, cfg):
    """Write the configuration as JSON, atomically."""
    with atomic_write(path) as fh:
        fh.write((json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n").encode())
