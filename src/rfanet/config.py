"""Run configuration: one JSON document drives every pipeline stage.

``_LAYOUT`` declares the document once: each JSON section, the
``RunConfig`` field that holds it and its JSON key -> field name pairs.
``RunConfig.to_dict`` and ``config_from_dict`` both walk it, so every field
is written to and read from exactly one section. The schema is exhaustive:
unknown sections or keys are rejected, so a typo cannot silently fall back
to a default. ``RunConfig.validate`` holds every value to the rules of the
code that owns it, the rules a RunConfig built in Python meets too, and each
error names the key as ``section.key``. The effective configuration is
echoed into every report.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .aggregate import AggregationConfig
from .errors import ConfigurationError, DataError, require_int
from .evaluation import ExperimentSpec, _check_synthetic_args
from .features import PatchGridSpec, check_frame_size
from .fileio import atomic_write
from .matching import _check_ranksvm_args
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
        for section, values in self.to_dict().items():
            for key, value in values.items():
                for number in value if isinstance(value, tuple) else (value,):
                    # beyond an array index, and 10**400 is no float either
                    if isinstance(number, int) and abs(number) > sys.maxsize:
                        raise ConfigurationError(f"{section}.{key} is out of range: an integer "
                                                 f"in a config must be below 2**63 in magnitude")
        require_int(self.image_w, "image.width")
        require_int(self.image_h, "image.height")
        _as_config_error("[image] ", check_frame_size, self.image_w, self.image_h)
        self.grid.validate_for(self.image_h, self.image_w)
        self.train.validate()
        self.agg.validate()
        if self.agg.subseq_len != self.train.subseq_len:
            raise ConfigurationError(
                f"aggregation L ({self.agg.subseq_len}) must equal training L "
                f"({self.train.subseq_len})"
            )
        if self.scorer not in ("cosine", "ranksvm"):
            raise ConfigurationError(f"unknown matching.scorer {self.scorer!r}")
        _as_config_error("matching.ranksvm_", _check_ranksvm_args, self.ranksvm_C,
                         self.ranksvm_iters)
        self.experiment.validate(self.train.subseq_len)
        syn = self.synthetic
        _as_config_error("synthetic.", _check_synthetic_args, **asdict(syn),
                         width=self.image_w, height=self.image_h)
        require_int(syn.num_persons, "synthetic.num_persons", low=2)
        require_int(syn.frames_per_camera, "synthetic.frames_per_camera",
                    low=self.train.subseq_len)
        frames = 2 * syn.num_persons * syn.frames_per_camera + syn.noise_pool_size
        if frames * self.image_w * self.image_h * 3 > sys.maxsize:
            # generate_synthetic holds every uint8 RGB frame before any is written
            raise ConfigurationError(
                f"[synthetic] {frames} frames of {self.image_w}x{self.image_h} are larger "
                f"than any array"
            )
        for key, path in asdict(self.paths).items():
            if not (path is None or isinstance(path, str)):
                raise ConfigurationError(f"paths.{key} must be a string or None, got {path!r}")
            if "\0" in (path or ""):
                raise ConfigurationError(f"paths.{key} contains a NUL byte")
        return self

    def to_dict(self):
        """The JSON document, section by section as ``_LAYOUT`` lays it out."""
        out = {}
        for section, (owner, keys) in _LAYOUT.items():
            holder = getattr(self, owner) if owner else self
            out[section] = {key: getattr(holder, name) for key, name in keys.items()}
        return out


def _as_config_error(prefix, check, *args, **kwargs):
    """Run a library function's own argument check. Its DataError, whose
    message starts with the argument's name, becomes a ConfigurationError
    naming the config key: ``prefix`` and that name."""
    try:
        check(*args, **kwargs)
    except DataError as exc:
        raise ConfigurationError(f"{prefix}{exc}") from exc


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
        target = parts.setdefault(owner, {}) if owner else top
        for key, value in values.items():
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
