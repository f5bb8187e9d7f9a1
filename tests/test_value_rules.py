"""One set of value rules for the config file and the Python API.

A config file holds each value to the rules of the code that owns it, the
rules a call from Python meets. Every key of the layout, given a value of
the wrong type, is a ConfigurationError that names it as ``section.key``;
the same values given to each Python entry point that takes a real number,
a count or a level list are RfaErrors; and seeded mutations of a desk
config either load or end in a ConfigurationError, through the loader and
through the CLI.
"""

import json
import random
import sys

import numpy as np
import pytest

import rfanet as rf
from rfanet.aggregate import sample_starts
from rfanet.cli import main
from rfanet.config import _LAYOUT
from rfanet.errors import ConfigurationError, RfaError
from rfanet.features import check_frame_size

# each of the JSON value kinds, wrong for most keys, and numbers no float holds
BAD_VALUES = {
    "str": "x", "true": True, "null": None, "list": [1], "object": {"a": 1},
    "nan": float("nan"), "inf": float("inf"), "401-digits": 10**400,
}

# the bad values that are valid for a key: None where the key may be unset,
# a one-level list where the key is a level list, any string for a path
VALID = {
    ("train", "clip_norm"): {"null"},
    ("experiment", "noise_levels"): {"list"},
    ("experiment", "depths"): {"null", "list"},
    ("experiment", "subseq_counts"): {"list"},
    **{("paths", key): {"str", "null"} for key in ("manifest", "model", "out_dir")},
}

CASES = [(section, key, kind) for section, (_, keys) in _LAYOUT.items() for key in keys
         for kind in BAD_VALUES if kind not in VALID.get((section, key), ())]


def _desk_dict():
    return json.loads(json.dumps(rf.desk_scale().to_dict()))


@pytest.mark.parametrize("section,key,kind", CASES,
                         ids=[f"{s}.{k}-{kind}" for s, k, kind in CASES])
def test_config_file_refuses_a_wrong_typed_value_naming_the_key(section, key, kind):
    data = _desk_dict()
    data[section][key] = BAD_VALUES[kind]
    with pytest.raises(ConfigurationError) as exc:
        rf.config_from_dict(data)
    assert f"{section}.{key}" in str(exc.value)


@pytest.mark.parametrize("section,key", list(VALID), ids=[f"{s}.{k}" for s, k in VALID])
def test_config_file_takes_the_values_valid_for_a_key(section, key):
    for kind in VALID[(section, key)]:
        data = _desk_dict()
        data[section][key] = BAD_VALUES[kind]
        rf.config_from_dict(data)


def _entry_points():
    """Each Python entry point that takes a real number, a count or a level
    list, as a call of the value, with the bad values valid for it."""
    model = rf.init_model(3, 2, 2, 0)
    frames = [rf.RawImage(16, 32, np.zeros((32, 16, 3))) for _ in range(2)]
    grid = rf.PatchGridSpec(8, 4, 4, 2)
    probes = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    ax = rf.project(model, np.ones((4, 3)))
    calls = {
        "init_model-init_bound": lambda v: rf.init_model(3, 2, 2, 0, init_bound=v),
        "forward-dropout_rate": lambda v: rf.forward(model, np.zeros((1, 2, 3)), [0],
                                                     dropout_rate=v,
                                                     rng=np.random.default_rng(0)),
        "grad_check-eps": lambda v: rf.grad_check(eps=v),
        "train_ranksvm-C": lambda v: rf.train_ranksvm(probes, probes, C=v, iters=1),
        "inject_noise-fraction": lambda v: rf.inject_noise(frames, v, frames, 0),
        "embed_projected-num_subsequences": lambda v: rf.embed_projected(
            model, ax, {(0, 0): range(4)}, rf.AggregationConfig(2, v, 0)),
        "sample_starts-num_subsequences": lambda v: sample_starts(4, 2, v, 0),
        "resize_bilinear-out_w": lambda v: rf.resize_bilinear(frames[0], v, 4),
        "resize_bilinear-out_h": lambda v: rf.resize_bilinear(frames[0], 4, v),
        "describe_frames-frame_w": lambda v: rf.describe_frames(frames, grid, v, 32),
        "describe_frames-frame_h": lambda v: rf.describe_frames(frames, grid, 16, v),
        "paths-manifest": lambda v: rf.desk_scale(paths=rf.PathsConfig(manifest=v)).validate(),
    }
    for name in ("lr_initial", "lr_after", "init_bound", "dropout_rate", "clip_norm"):
        calls[f"TrainConfig-{name}"] = lambda v, name=name: rf.TrainConfig(**{name: v}).validate()
    for name in ("jitter", "camera_gain", "camera_offset"):
        calls[f"generate_synthetic-{name}"] = (
            lambda v, name=name: rf.generate_synthetic(2, 2, **{name: v}))
    calls["generate_synthetic-camera_gain-value"] = (
        lambda v: rf.generate_synthetic(2, 2, camera_gain=(1.0, v, 1.0)))
    for name in ("noise_levels", "depths", "subseq_counts"):
        calls[f"ExperimentSpec-{name}"] = (
            lambda v, name=name: rf.ExperimentSpec("depth", **{name: v}).validate(5))
        calls[f"ExperimentSpec-{name}-level"] = (
            lambda v, name=name: rf.ExperimentSpec("depth", **{name: (v,)}).validate(5))
    valid = {"TrainConfig-clip_norm": {"null"}, "ExperimentSpec-noise_levels": {"list"},
             "ExperimentSpec-depths": {"null", "list"}, "ExperimentSpec-subseq_counts": {"list"},
             "paths-manifest": {"str", "null"}}
    return [(name, kind, call) for name, call in calls.items()
            for kind in BAD_VALUES if kind not in valid.get(name, ())]


API_CASES = _entry_points()


@pytest.mark.parametrize("case", range(len(API_CASES)),
                         ids=[f"{name}-{kind}" for name, kind, _ in API_CASES])
def test_python_api_refuses_a_wrong_typed_value(case):
    _, kind, call = API_CASES[case]
    with pytest.raises(RfaError):
        call(BAD_VALUES[kind])


def test_python_api_refuses_a_scalar_gain_and_an_unrepresentable_C():
    with pytest.raises(rf.DataError, match=r"^camera_gain must be 3 finite values, got 5$"):
        rf.generate_synthetic(2, 2, camera_gain=5)
    probes = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    with pytest.raises(rf.DataError, match=r"^C must be finite and > 0, got 1000"):
        rf.train_ranksvm(probes, probes, C=10**400)


@pytest.mark.parametrize("call,error,message", [
    (lambda: rf.resize_bilinear(rf.RawImage(2, 2, np.zeros((2, 2, 3))), 10**40, 4), rf.DataError,
     f"a {10**40}x4 frame is larger than any array"),
    (lambda: rf.describe_frames([], rf.PatchGridSpec(8, 4, 4, 2), 16, 2**62), rf.DataError,
     f"a 16x{2**62} frame is larger than any array"),
    (lambda: sample_starts(10, 5, 2**62, 0), rf.DataError,
     f"num_subsequences must be <= {sys.maxsize // 8}, got {2**62}"),
    (lambda: rf.AggregationConfig(5, 2**62).validate(), ConfigurationError,
     f"aggregation.num_subsequences must be <= {sys.maxsize // 8}, got {2**62}"),
    (lambda: rf.ExperimentSpec("subseq", subseq_counts=(2**62,)).validate(5),
     ConfigurationError, f"each of experiment.subseq_counts must be <= {sys.maxsize // 8}"),
], ids=["resize_bilinear", "describe_frames", "sample_starts",
        "AggregationConfig", "ExperimentSpec-subseq_counts"])
def test_sizes_and_counts_no_array_holds_are_refused(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value).startswith(message)


def test_frame_size_rule_bound():
    # the seven float64 planes of the largest frame take sys.maxsize bytes at most
    check_frame_size(1, sys.maxsize // 56)
    with pytest.raises(rf.DataError, match="larger than any array"):
        check_frame_size(1, sys.maxsize // 56 + 1)


# JSON values a mutation puts in place of a key's value
MUTANT_VALUES = [*BAD_VALUES.values(), 0, -1, 1, 2, 0.5, -0.5, 1.5, 1e308, -1e-300, 2**63,
                 "", "full", "ranksvm", "depth", [], [0.1, 0.1], [1.0, 2.0, 3.0], [[1]],
                 {"": None}]


def _mutants(seed, count):
    rnd = random.Random(seed)
    for _ in range(count):
        data = _desk_dict()
        for _ in range(rnd.randint(1, 3)):
            section = rnd.choice(sorted(data))
            values = data[section]
            op = rnd.random()
            if op < 0.05:
                data[section] = rnd.choice(MUTANT_VALUES)
            elif not isinstance(values, dict):
                continue
            elif op < 0.1:
                values[rnd.choice(["lbp_bins", "hidden_dim", "x"])] = 1
            elif op < 0.15 and values:
                del values[rnd.choice(sorted(values))]
            elif values:
                values[rnd.choice(sorted(values))] = rnd.choice(MUTANT_VALUES)
        yield data


def test_mutated_configs_load_or_end_in_a_configuration_error(tmp_path, capsys):
    refused = 0
    for k, data in enumerate(_mutants(seed=34, count=300)):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(data))
        try:
            cfg = rf.load_config(path)
        except ConfigurationError:
            refused += 1
            if refused <= 6:  # a few also through the command line
                out = tmp_path / f"synth-{k}"
                assert main(["synth", "--config", str(path), "--out", str(out)]) == 1
                err = capsys.readouterr().err
                assert err.startswith("error: ") and "Traceback" not in err
                assert not out.exists()
            continue
        assert rf.config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
    assert 200 < refused < 300  # most mutants are refused, and some load
