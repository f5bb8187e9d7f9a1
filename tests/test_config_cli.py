import json
import re
import struct
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import rfanet as rf
import rfanet.cli as cli
from rfanet.cli import main
from rfanet.errors import ConfigurationError, RfaError
from rfanet.rnn import PARAM_ORDER

from conftest import _fail_writes_after


def tiny_config_dict(**paths):
    return {
        "image": {"width": 16, "height": 32},
        "grid": {"patch_h": 8, "patch_w": 4, "stride_v": 4, "stride_h": 2},
        "model": {"hidden_dim": 8, "peephole": "full"},
        "train": {
            "subseq_len": 5, "epochs": 4, "lr_initial": 0.01, "lr_after": 0.001,
            "lr_switch_epoch": 2, "dropout_rate": 0.0, "batch_size": 4, "seed": 0,
        },
        "aggregation": {"num_subsequences": 3, "seed": 0},
        "matching": {"scorer": "cosine"},
        "experiment": {"kind": "standard", "trials": 2, "master_seed": 0},
        "synthetic": {
            "num_persons": 6, "frames_per_camera": 10, "appearance_seed": 2,
            "jitter": 0.02, "camera_gain": [1.05, 1.0, 0.95],
            "camera_offset": [0.05, 0.0, -0.05], "noise_pool_size": 4,
        },
        "paths": paths,
    }


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

def test_config_roundtrip(tmp_path):
    cfg = rf.desk_scale()
    path = tmp_path / "cfg.json"
    rf.save_config(path, cfg)
    back = rf.load_config(path)
    assert back.to_dict() == cfg.to_dict()


def test_config_unknown_section(tmp_path):
    data = tiny_config_dict()
    data["extras"] = {}
    with pytest.raises(ConfigurationError, match="unknown config sections"):
        rf.config_from_dict(data)


def test_config_unknown_key(tmp_path):
    data = tiny_config_dict()
    data["train"]["momentum"] = 0.9
    with pytest.raises(ConfigurationError, match="unknown keys"):
        rf.config_from_dict(data)


def test_config_mismatched_subseq_len():
    # the aggregation L is train.subseq_len: JSON has no key for it, and a
    # RunConfig built in code must agree
    assert rf.config_from_dict(tiny_config_dict()).agg.subseq_len == 5
    data = tiny_config_dict()
    data["aggregation"]["subseq_len"] = 7
    with pytest.raises(ConfigurationError, match=r"unknown keys in \[aggregation\]"):
        rf.config_from_dict(data)
    cfg = rf.desk_scale()
    cfg.agg = replace(cfg.agg, subseq_len=7)
    with pytest.raises(ConfigurationError, match="must equal"):
        cfg.validate()


@pytest.mark.parametrize("key", ["manifest", "model", "out_dir"])
def test_config_rejects_nul_in_paths(key):
    paths = rf.PathsConfig(**{key: "run/m\u0000.rfanet"})
    with pytest.raises(ConfigurationError, match=f"paths.{key} contains a NUL byte"):
        rf.desk_scale(paths=paths).validate()
    with pytest.raises(ConfigurationError, match=f"paths.{key} contains a NUL byte"):
        rf.config_from_dict(tiny_config_dict(**{key: "run/m\u0000.rfanet"}))


def test_config_grid_must_cover():
    data = tiny_config_dict()
    data["image"]["height"] = 33
    with pytest.raises(ConfigurationError, match="cover"):
        rf.config_from_dict(data)


def test_config_bad_scorer():
    data = tiny_config_dict()
    data["matching"]["scorer"] = "euclid"
    with pytest.raises(ConfigurationError, match="scorer"):
        rf.config_from_dict(data)


@pytest.mark.parametrize("C", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_config_rejects_non_finite_ranksvm_C(C):
    with pytest.raises(ConfigurationError, match="ranksvm_C must be finite"):
        rf.desk_scale(ranksvm_C=C).validate()
    data = tiny_config_dict()
    data["matching"]["ranksvm_C"] = C
    with pytest.raises(ConfigurationError, match="ranksvm_C must be finite"):
        rf.config_from_dict(data)


@pytest.mark.parametrize("name,value", [
    ("lr_initial", float("nan")), ("lr_after", float("inf")), ("lr_initial", float("-inf")),
    ("init_bound", float("nan")), ("init_bound", float("inf")),
], ids=["lr_initial-nan", "lr_after-inf", "lr_initial--inf", "init_bound-nan", "init_bound-inf"])
def test_config_rejects_non_finite_train_values(name, value):
    message = f"train.{name} must be finite"
    with pytest.raises(ConfigurationError, match=message):
        rf.TrainConfig(**{name: value}).validate()
    cfg = rf.desk_scale()
    setattr(cfg.train, name, value)
    with pytest.raises(ConfigurationError, match=message):
        cfg.validate()
    data = tiny_config_dict()
    data["train"][name] = value
    with pytest.raises(ConfigurationError, match=message):
        rf.config_from_dict(data)


def _api_calls():
    """Python API calls with a count, dimension or seed that the config
    loader would refuse, each with the argument its error must name."""
    frames = [rf.RawImage(2, 2, np.zeros((2, 2, 3))) for _ in range(4)]
    calls = {f"train-{name}": (lambda name=name: rf.train([], rf.TrainConfig(**{name: 1.5})),
                               f"{section}.{name}")
             for section, name in (("train", "seed"), ("train", "epochs"),
                                   ("train", "batch_size"), ("model", "hidden_dim"),
                                   ("train", "subseq_len"))}
    calls.update({
        "aggregation-K": (lambda: rf.embed_sequence(rf.init_model(2, 2, 2, 0), np.ones((4, 2)),
                                                    rf.AggregationConfig(3, 2.5, 0)),
                          "aggregation.num_subsequences"),
        "experiment-trials": (lambda: rf.ExperimentSpec(trials=1.5).validate(5),
                              "experiment.trials"),
        "experiment-depths": (lambda: rf.ExperimentSpec("depth", depths=(1.5,)).validate(5),
                              "experiment.depths"),
        "splits-seed": (lambda: rf.make_splits(range(4), 1, 1.5), "master_seed"),
        "splits-float-trials": (lambda: rf.make_splits(range(4), 1.5, 0), "num_trials"),
        "splits-negative-trials": (lambda: rf.make_splits(range(4), -1, 0), "num_trials"),
        "noise-float-seed": (lambda: rf.inject_noise(frames, 0.5, frames, seed=1.5), "seed"),
        "noise-bool-seed": (lambda: rf.inject_noise(frames, 0.5, frames, seed=True), "seed"),
        "gradcheck-seed": (lambda: rf.grad_check(seed=1.5), "seed"),
        "init-dim": (lambda: rf.init_model(2.5, 2, 2, 0), "input_dim"),
        "init-bound": (lambda: rf.init_model(3, 2, 2, 0, init_bound=float("inf")), "init_bound"),
        "synthetic-persons": (lambda: rf.generate_synthetic(1.5, 2), "num_persons"),
    })
    return calls


@pytest.mark.parametrize("case", list(_api_calls()))
def test_python_api_refuses_non_integer_counts_and_seeds(case):
    call, name = _api_calls()[case]
    with pytest.raises(RfaError, match=f"^{re.escape(name)} must be|of {re.escape(name)} must"):
        call()


@pytest.mark.parametrize("data", [
    {"train": {"hidden_dim": 64}, "model": {"hidden_dim": 16}},
    {"train": {"peephole": "diagonal"}},
], ids=["hidden_dim", "peephole"])
def test_config_rejects_model_keys_under_train(data):
    # they belong to [model]: each field is read from one section only
    with pytest.raises(ConfigurationError, match=r"unknown keys in \[train\]"):
        rf.config_from_dict(data)


def _leaf_fields(cfg):
    """(holder name, field name) of every field of the RunConfig and of its
    section dataclasses; "" names the RunConfig itself."""
    leaves = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            leaves += [(f.name, g.name) for g in fields(value)]
        else:
            leaves.append(("", f.name))
    return leaves


def _holder(cfg, holder):
    return getattr(cfg, holder) if holder else cfg


def test_config_writes_every_field_in_one_section():
    cfg = rf.desk_scale()
    for holder, name in _leaf_fields(cfg):
        setattr(_holder(cfg, holder), name, f"{holder}.{name}")
    written = [value for section in cfg.to_dict().values() for value in section.values()]
    expected = [f"{h}.{n}" for h, n in _leaf_fields(cfg) if (h, n) != ("agg", "subseq_len")]
    assert sorted(written) == sorted(expected)


def _off_default_config():
    return rf.RunConfig(
        image_w=16, image_h=32,
        grid=rf.PatchGridSpec(patch_h=8, patch_w=4, stride_v=6, stride_h=3),
        train=rf.TrainConfig(
            subseq_len=4, epochs=7, lr_initial=0.02, lr_after=0.003, lr_switch_epoch=3,
            dropout_rate=0.25, batch_size=5, seed=11, init_bound=0.05, hidden_dim=6,
            peephole="diagonal", clip_norm=2.5,
        ),
        agg=rf.AggregationConfig(subseq_len=4, num_subsequences=7, seed=13),
        scorer="ranksvm", ranksvm_C=0.5, ranksvm_iters=321,
        experiment=rf.ExperimentSpec(kind="depth", trials=3, master_seed=17,
                                     noise_levels=(0.2, 0.4), depths=(2, 4),
                                     subseq_counts=(2, 3)),
        synthetic=rf.SyntheticSpec(num_persons=5, frames_per_camera=8, appearance_seed=19,
                                   jitter=0.1, camera_gain=(0.9, 1.1, 1.2),
                                   camera_offset=(0.0, 0.1, 0.2), noise_pool_size=3),
        paths=rf.PathsConfig(manifest="data/manifest.json", model="m.rfanet", out_dir="out"),
    )


def test_config_roundtrips_every_field_off_its_default(tmp_path):
    cfg = _off_default_config().validate()
    default = rf.RunConfig()
    for holder, name in _leaf_fields(cfg):
        value = getattr(_holder(cfg, holder), name)
        assert value != getattr(_holder(default, holder), name), f"{holder}.{name} at default"
    assert rf.config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
    rf.save_config(tmp_path / "cfg.json", cfg)
    assert rf.load_config(tmp_path / "cfg.json") == cfg


@pytest.mark.parametrize("kind,name", [
    ("noise", "noise_levels"), ("depth", "depths"), ("subseq", "subseq_counts"),
])
def test_config_rejects_empty_sweep(tmp_path, kind, name):
    message = f"the {kind} sweep has no levels: {name} is empty"
    spec = rf.ExperimentSpec(kind=kind, trials=1, **{name: ()})
    with pytest.raises(ConfigurationError, match=message):
        spec.validate(5)
    cfg = rf.desk_scale(experiment=spec)
    # a saved empty sweep reloads as empty, not as the default levels
    with pytest.raises(ConfigurationError, match=message):
        rf.config_from_dict(cfg.to_dict())
    data = tiny_config_dict()
    data["experiment"].update(kind=kind, **{name: []})
    with pytest.raises(ConfigurationError, match=message):
        rf.config_from_dict(data)
    # an empty list of another kind is not in use, and is kept
    data["experiment"]["kind"] = "standard"
    assert getattr(rf.config_from_dict(data).experiment, name) == ()


def test_config_not_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError, match="valid JSON"):
        rf.load_config(path)


def test_config_dims_properties():
    cfg = rf.config_from_dict(tiny_config_dict())
    assert cfg.feature_dim == 49 * 262
    assert cfg.embedding_dim == 8 * 5


def test_full_scale_dims():
    cfg = rf.full_scale()
    assert cfg.feature_dim == 58950
    assert cfg.embedding_dim == 5120


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth + train once; downstream CLI tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    model_path = root / "model.rfanet"
    cfg = tiny_config_dict(
        manifest=str(data_dir / "manifest.json"),
        model=str(model_path),
        out_dir=str(root / "out"),
    )
    cfg_path = write_config(root, cfg)
    assert main(["synth", "--config", cfg_path, "--out", str(data_dir)]) == 0
    assert main(["train", "--config", cfg_path]) == 0
    return {"root": root, "cfg_path": cfg_path, "model": model_path, "data": data_dir}


def test_cli_synth_writes_manifest(pipeline):
    manifest = json.loads((pipeline["data"] / "manifest.json").read_text())
    assert len(manifest["persons"]) == 6
    assert len(manifest["noise_pool"]) == 4


def test_cli_synth_refuses_overwrite(pipeline, capsys):
    code = main(["synth", "--config", pipeline["cfg_path"], "--out", str(pipeline["data"])])
    assert code == 1
    assert "--force" in capsys.readouterr().err


def test_cli_synth_force_overwrites(pipeline):
    code = main(
        ["synth", "--config", pipeline["cfg_path"], "--out", str(pipeline["data"]), "--force"]
    )
    assert code == 0


def test_cli_train_outputs(pipeline):
    model = rf.load_model(pipeline["model"])
    assert model.hidden_dim == 8
    assert model.num_classes == 6
    loss_csv = pipeline["model"].with_suffix(".loss.csv")
    lines = loss_csv.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_loss"
    assert len(lines) == 5


def test_cli_train_loss_csv_bytes(pipeline, tmp_path, monkeypatch):
    # a header, then one "epoch,loss" row per epoch with 12 decimals, CRLF line ends
    model_path = tmp_path / "model.rfanet"
    cfg_path = write_config(tmp_path, tiny_config_dict(
        manifest=str(pipeline["data"] / "manifest.json"), model=str(model_path)))
    train = cli.train
    monkeypatch.setattr(cli, "train",
                        lambda seqs, cfg: (train(seqs, cfg)[0], [1.0, 0.5, 1 / 3, 2.0**-40]))
    assert main(["train", "--config", cfg_path]) == 0
    assert model_path.with_suffix(".loss.csv").read_bytes() == (
        b"epoch,mean_loss\r\n0,1.000000000000\r\n1,0.500000000000\r\n"
        b"2,0.333333333333\r\n3,0.000000000001\r\n"
    )


def test_cli_train_refuses_overwrite(pipeline, capsys):
    assert main(["train", "--config", pipeline["cfg_path"]]) == 1
    assert "--force" in capsys.readouterr().err


def test_cli_embed(pipeline):
    out = pipeline["root"] / "embs.rfaemb"
    code = main([
        "embed", "--config", pipeline["cfg_path"],
        "--model", str(pipeline["model"]), "--out", str(out),
    ])
    assert code == 0
    embs = rf.read_embeddings(out)
    assert len(embs) == 12
    assert embs[0].values.size == 40
    assert sorted({e.source_id for e in embs}) == list(range(6))


def test_cli_embed_records_equal_embed_sequence(pipeline):
    # the library's one-sequence call draws the windows that the command
    # draws for the same (id, camera)
    out = pipeline["root"] / "embs-alone.rfaemb"
    assert main(["embed", "--config", pipeline["cfg_path"],
                 "--model", str(pipeline["model"]), "--out", str(out)]) == 0
    cfg = rf.load_config(pipeline["cfg_path"])
    model = rf.load_model(pipeline["model"])
    dataset = rf.load_dataset(cfg.paths.manifest)
    records = {(e.source_id, e.camera): e.values for e in rf.read_embeddings(out)}
    assert len(records) == 2 * len(dataset.persons)
    for person in dataset.persons:
        for cam, frames in ((0, person.frames_a), (1, person.frames_b)):
            feats = rf.sequence_features(frames, cfg.grid, cfg.image_w, cfg.image_h)
            alone = rf.embed_sequence(model, feats, cfg.agg, source_id=person.person_id,
                                      camera=cam)
            want = alone.values.astype(np.float32).tobytes()
            assert records[(person.person_id, cam)].astype(np.float32).tobytes() == want


def _model_file_edits():
    def header(D, H, N):
        return b"RFANET01" + struct.pack("<IIIB", D, H, N, 0)

    return {
        "short-header": (lambda data: b"RFANET01" + bytes(4), "truncated model header"),
        "trailing-bytes": (lambda data: data + bytes(3), "3 trailing bytes"),
        "zero-D": (lambda data: header(0, 8, 6) + data[21:], "dimension D is 0"),
        "zero-H": (lambda data: header(40, 0, 6) + data[21:], "dimension H is 0"),
        "zero-N": (lambda data: header(40, 8, 0) + data[21:], "dimension N is 0"),
    }


@pytest.mark.parametrize("case", list(_model_file_edits()))
def test_cli_embed_rejects_malformed_model(pipeline, tmp_path, capsys, case):
    edit, message = _model_file_edits()[case]
    bad = tmp_path / "bad.rfanet"
    bad.write_bytes(edit(pipeline["model"].read_bytes()))
    out = tmp_path / "embs.rfaemb"
    code = main([
        "embed", "--config", pipeline["cfg_path"], "--model", str(bad), "--out", str(out),
    ])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_embed_rejects_non_finite_model(pipeline, tmp_path, capsys):
    model = rf.load_model(pipeline["model"])
    shapes = model.param_shapes()
    offset = 21 + 8 * sum(np.prod(shapes[n]) for n in PARAM_ORDER[: PARAM_ORDER.index("W_y")])
    data = bytearray(pipeline["model"].read_bytes())
    data[offset : offset + 8] = struct.pack("<d", np.nan)
    bad = tmp_path / "nan.rfanet"
    bad.write_bytes(data)
    out = tmp_path / "embs.rfaemb"
    code = main([
        "embed", "--config", pipeline["cfg_path"], "--model", str(bad), "--out", str(out),
    ])
    assert code == 1
    assert f"tensor W_y has non-finite entries (byte offset {offset})" in capsys.readouterr().err
    assert not out.exists()


def test_cli_embed_missing_frame_exit_code(pipeline, tmp_path, capsys):
    data_dir = tmp_path / "data"
    manifest = rf.save_dataset(rf.generate_synthetic(6, 10, width=16, height=32), data_dir)
    frame = data_dir / "p0002/cam_a/frame_0003.ppm"
    frame.unlink()
    cfg_path = write_config(tmp_path, tiny_config_dict(manifest=str(manifest)))
    out = tmp_path / "embs.rfaemb"
    code = main(["embed", "--config", cfg_path, "--model", str(pipeline["model"]),
                 "--out", str(out)])
    assert code == 1
    assert f"person 2 camera_a: cannot read frame {frame}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_embed_checks_model_dimension_before_reading_frames(
    pipeline, tmp_path, capsys, monkeypatch
):
    def forbidden(path):
        raise AssertionError(f"frame {path} read before the model was checked")

    monkeypatch.setattr(rf.evaluation, "read_image", forbidden)
    other_grid = tmp_path / "other.rfanet"
    rf.save_model(other_grid, rf.init_model(262, 8, 6, seed=0))
    out = tmp_path / "embs.rfaemb"
    code = main(["embed", "--config", pipeline["cfg_path"], "--model", str(other_grid),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "262" in err and "12838" in err
    assert not out.exists()


def test_cli_train_loss_history_write_failing_keeps_earlier_file(
    pipeline, tmp_path, monkeypatch, capsys
):
    model_path = tmp_path / "model.rfanet"
    cfg = tiny_config_dict(manifest=str(pipeline["data"] / "manifest.json"),
                           model=str(model_path))
    cfg_path = write_config(tmp_path, cfg)
    loss_csv = tmp_path / "model.loss.csv"
    loss_csv.write_bytes(b"earlier loss history")
    _fail_writes_after(monkeypatch, 0, only=".loss.csv")
    assert main(["train", "--config", cfg_path]) == 2
    assert "No space left" in capsys.readouterr().err
    assert loss_csv.read_bytes() == b"earlier loss history"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "model.loss.csv", "model.rfanet",
    ]


def test_cli_eval(pipeline, capsys):
    assert main(["eval", "--config", pipeline["cfg_path"]]) == 0
    out = capsys.readouterr().out
    assert "mean rank-1" in out
    assert (pipeline["root"] / "out" / "report.csv").exists()
    assert (pipeline["root"] / "out" / "report.txt").exists()


@pytest.mark.parametrize("level", [
    {"kind": "noise", "noise_levels": [0.0, 5.0]},
    {"kind": "depth", "depths": [0]},
    {"kind": "subseq", "subseq_counts": [0]},
    {"kind": "noise", "noise_levels": [0.3, 0.3]},
    {"kind": "noise", "noise_levels": []},
], ids=["noise", "depth", "subseq", "noise-repeated", "noise-empty"])
def test_cli_eval_rejects_bad_sweep_level(pipeline, tmp_path, capsys, monkeypatch, level):
    def forbidden(*args, **kwargs):
        raise AssertionError("training started before the sweep levels were checked")

    monkeypatch.setattr(rf.evaluation, "train", forbidden)
    cfg = tiny_config_dict(manifest=str(pipeline["data"] / "manifest.json"),
                           out_dir=str(tmp_path / "out"))
    cfg["experiment"].update(level)
    assert main(["eval", "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "report.txt").exists()


@pytest.mark.parametrize("command,section,key,value,message", [
    ("synth", "synthetic", "camera_gain", [1.0, 1.0], "camera_gain must be 3 finite values"),
    ("synth", "synthetic", "camera_offset", [0.1], "camera_offset must be 3 finite values"),
    ("synth", "synthetic", "camera_gain", [1.0, float("nan"), 1.0],
     "camera_gain[1] must be finite, got nan"),
    ("synth", "synthetic", "appearance_seed", -1, "synthetic.appearance_seed must be >= 0"),
    ("synth", "synthetic", "jitter", -0.1, "jitter must be finite and >= 0"),
    ("synth", "synthetic", "jitter", float("inf"), "jitter must be finite and >= 0"),
    ("synth", "synthetic", "noise_pool_size", -2, "noise_pool_size must be >= 0"),
    ("eval", "experiment", "master_seed", -1, "master_seed must be >= 0"),
    ("train", "train", "seed", -3, "train.seed must be >= 0"),
    ("train", "aggregation", "seed", -1, "aggregation.seed must be >= 0"),
], ids=["gain-2", "offset-1", "gain-nan", "appearance-seed", "jitter-negative",
        "jitter-inf", "pool-negative", "master-seed", "train-seed", "aggregation-seed"])
def test_cli_rejects_bad_seed_or_synthetic_value(
    pipeline, tmp_path, capsys, command, section, key, value, message
):
    run = tmp_path / "run"
    run.mkdir()
    data = tiny_config_dict(manifest=str(pipeline["data"] / "manifest.json"),
                            model=str(run / "model.rfanet"), out_dir=str(run / "out"))
    data[section][key] = value
    argv = [command, "--config", write_config(tmp_path, data)]
    if command == "synth":
        argv += ["--out", str(run / "data")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "Traceback" not in err
    assert list(run.iterdir()) == []
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        rf.config_from_dict(data)


# numbers no array or float can hold: 10**400 overflowed float() in
# math.isfinite, and an image width of 2**62 or 2**63 reached numpy as an
# array too big or a non-integer index
@pytest.mark.parametrize("section,key,value,message", [
    ("matching", "ranksvm_C", 10**400, r"matching\.ranksvm_C is out of range"),
    ("train", "lr_initial", 10**400, r"train\.lr_initial is out of range"),
    ("synthetic", "jitter", 10**400, r"synthetic\.jitter is out of range"),
    ("synthetic", "camera_gain", [1.0, -10**400, 1.0],
     r"synthetic\.camera_gain is out of range"),
    ("image", "width", 2**62, r"\[image\] a 4611686018427387904x32 frame is larger"),
    ("image", "width", 2**63, r"image\.width is out of range"),
    ("synthetic", "num_persons", 2**62, r"\[synthetic\] \d+ frames of 16x32 are larger"),
], ids=["C-1e400", "lr-1e400", "jitter-1e400", "gain-minus-1e400", "width-2e62", "width-2e63",
        "persons-2e62"])
def test_cli_rejects_number_no_array_can_hold(tmp_path, capsys, section, key, value, message):
    data = tiny_config_dict()
    data[section][key] = value
    # checked first: an accepted 2**62 persons makes synth grow until it is killed
    with pytest.raises(ConfigurationError, match=message):
        rf.config_from_dict(data)
    out = tmp_path / "d"
    assert main(["synth", "--config", write_config(tmp_path, data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("error:") == 1 and "Traceback" not in err
    assert not out.exists()


def test_config_built_in_code_rejects_out_of_range_number():
    with pytest.raises(ConfigurationError, match="ranksvm_C is out of range"):
        rf.desk_scale(ranksvm_C=10**400).validate()


def test_cli_eval_rejects_nan_ranksvm_C(pipeline, tmp_path, capsys):
    cfg = tiny_config_dict(manifest=str(pipeline["data"] / "manifest.json"),
                           out_dir=str(tmp_path / "out"))
    cfg["matching"] = {"scorer": "ranksvm", "ranksvm_C": float("nan")}
    path = write_config(tmp_path, cfg)
    assert "NaN" in Path(path).read_text()
    assert main(["eval", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "ranksvm_C must be finite" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "report.txt").exists()


def test_cli_train_rejects_nan_learning_rate(pipeline, tmp_path, capsys):
    model_path = tmp_path / "model.rfanet"
    cfg = tiny_config_dict(manifest=str(pipeline["data"] / "manifest.json"),
                           model=str(model_path))
    cfg["train"]["lr_initial"] = float("nan")
    path = write_config(tmp_path, cfg)
    assert "NaN" in Path(path).read_text()
    assert main(["train", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command,key", [("train", "model"), ("eval", "out_dir")])
def test_cli_rejects_nul_in_output_path(pipeline, tmp_path, capsys, monkeypatch, command, key):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{command} started work before its paths were checked")

    monkeypatch.setattr(cli, "train", forbidden)
    monkeypatch.setattr(cli, "run_experiment", forbidden)
    paths = {"manifest": str(pipeline["data"] / "manifest.json"),
             key: str(tmp_path / "m\u0000.rfanet")}
    assert main([command, "--config", write_config(tmp_path, tiny_config_dict(**paths))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: paths.{key} contains a NUL byte")
    assert err.count("error:") == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


# each request is far above the 128 TiB of a user address space, so it is
# refused at once, whatever the host's overcommit policy
@pytest.mark.parametrize("command,section,key,value", [
    ("train", "model", "hidden_dim", 10**9),  # W alone is 374 TiB
    ("embed", "aggregation", "num_subsequences", 10**14),  # window starts: 728 TiB
], ids=["train-hidden_dim", "embed-num_subsequences"])
def test_cli_config_too_large_for_memory(pipeline, tmp_path, capsys, command, section, key,
                                         value):
    out = tmp_path / "out.bin"
    cfg = tiny_config_dict(manifest=str(pipeline["data"] / "manifest.json"), model=str(out))
    cfg[section][key] = value
    argv = [command, "--config", write_config(tmp_path, cfg)]
    if command == "embed":
        argv += ["--model", str(pipeline["model"]), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


# a window count whose K int64 window starts no array holds (2**62 is below
# the 2**63 config range) is refused when the config is read, not in a draw
@pytest.mark.parametrize("section,key,value,kind", [
    ("experiment", "subseq_counts", [2**62], "subseq"),
    ("aggregation", "num_subsequences", 2**62, "standard"),
], ids=["subseq_counts", "num_subsequences"])
def test_cli_eval_refuses_window_count_no_array_holds(pipeline, tmp_path, capsys, section, key,
                                                      value, kind):
    cfg = tiny_config_dict(manifest=str(pipeline["data"] / "manifest.json"),
                           out_dir=str(tmp_path / "out"))
    cfg["experiment"]["kind"] = kind
    cfg[section][key] = value
    assert main(["eval", "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{section}.{key} must be <= " in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_cli_gradcheck_too_large_for_memory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gradcheck", "--n", str(10**14)]) == 2  # W_y alone is 2.84 PiB
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# the rfanet console script is cli.entry: it exits with main's code
@pytest.mark.parametrize("args,code", [
    (["gradcheck", "--d", "3", "--h", "2", "--n", "2", "--l", "2"], 0),
    (["gradcheck", "--d", "0"], 1),
], ids=["passes", "bad-dimension"])
def test_cli_entry_exits_with_main_code(monkeypatch, capsys, args, code):
    assert main(args) == code
    monkeypatch.setattr(cli.sys, "argv", ["rfanet", *args])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code


def test_cli_embed_rejects_model_header_larger_than_file(tmp_path, capsys):
    # a 21-byte file whose header claims W_i alone is 2^20 x 2^31 doubles
    model_path = tmp_path / "huge.rfanet"
    model_path.write_bytes(b"RFANET01" + struct.pack("<IIIB", 2**31, 2**20, 3, 0))
    cfg = write_config(tmp_path, tiny_config_dict(manifest=str(tmp_path / "manifest.json")))
    out = tmp_path / "embs.rfaemb"
    assert main(["embed", "--config", cfg, "--model", str(model_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "truncated tensor W_i" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_eval_has_no_model_flag(pipeline, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--config", pipeline["cfg_path"], "--model", str(pipeline["model"])])
    assert exc.value.code == 2
    assert "unrecognized arguments: --model" in capsys.readouterr().err


def test_cli_bad_config_exit_code(tmp_path, capsys):
    data = tiny_config_dict()
    data["train"]["epochs"] = -1
    cfg_path = write_config(tmp_path, data)
    assert main(["synth", "--config", cfg_path, "--out", str(tmp_path / "d")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("section,value,message", [
    ("image", 5, r"\[image\] must be a JSON object"),
    ("train", [1], r"\[train\] must be a JSON object"),
    ("grid", None, r"\[grid\] must be a JSON object"),
    ("image", {"width": "a"}, r"image\.width must be an integer, got 'a'"),
    ("train", {"epochs": "x"}, r"train\.epochs must be an integer, got 'x'"),
    ("train", {"clip_norm": True}, r"train\.clip_norm must be finite and > 0, got True"),
    ("model", {"peephole": 1}, r"unknown model\.peephole 1"),
    ("matching", {"ranksvm_C": "high"}, r"matching\.ranksvm_C must be finite and > 0, got 'high'"),
    ("experiment", {"noise_levels": [0.1, "x"]},
     r"each of experiment\.noise_levels must be finite and >= 0 and <= 1, got 'x'"),
    ("experiment", {"depths": [1.5]}, r"each of experiment\.depths must be an integer, got 1\.5"),
    ("matching", {"ranksvm_X": 1}, r"unknown keys in \[matching\]"),
    ("train", {"clip_norm": -1.0}, r"train\.clip_norm must be finite and > 0, got -1\.0"),
    ("train", {"clip_norm": 0}, r"train\.clip_norm must be finite and > 0, got 0"),
    ("grid", {"lbp_bins": 256}, r"unknown keys in \[grid\]"),
    ("matching", {"ranksvm_seed": 0}, r"unknown keys in \[matching\]"),
    ("train", {"loss_mode": "per_timestep"}, r"unknown keys in \[train\]"),
    ("paths", {"model": "\ud800.rfanet"},
     r"paths\.model has a character the file system cannot encode"),
], ids=["image-int", "train-list", "grid-null", "width-str", "epochs-str", "clip-bool",
        "peephole-int", "C-str", "noise-level-str", "depth-float", "unknown-matching-key",
        "clip-negative", "clip-zero", "lbp-bins-key", "ranksvm-seed-key", "loss-mode-key",
        "model-path-surrogate"])
def test_cli_invalid_config_exit_code(tmp_path, capsys, section, value, message):
    data = tiny_config_dict()
    data[section] = value if not isinstance(value, dict) else {**data[section], **value}
    cfg_path = write_config(tmp_path, data)
    assert main(["synth", "--config", cfg_path, "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    with pytest.raises(ConfigurationError, match=message):
        rf.config_from_dict(data)


# text that is not a JSON document: bytes that are not UTF-8, and arrays
# nested deeper than the JSON decoder recurses
BAD_TEXT = {
    "not-utf8": b'{"persons": "\xff\xfe"}',
    "nested": b"[" * 200_000 + b"]" * 200_000,
}


@pytest.mark.parametrize("case", list(BAD_TEXT))
def test_cli_config_not_json_text_exit_code(tmp_path, capsys, case):
    path = tmp_path / "config.json"
    path.write_bytes(BAD_TEXT[case])
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path} is not valid JSON") and "Traceback" not in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("case", list(BAD_TEXT))
def test_cli_manifest_not_json_text_exit_code(tmp_path, capsys, case):
    manifest = rf.save_dataset(rf.generate_synthetic(2, 5, width=16, height=32), tmp_path / "d")
    manifest.write_bytes(BAD_TEXT[case])
    cfg = tiny_config_dict(manifest=str(manifest), model=str(tmp_path / "model.rfanet"))
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read manifest {manifest}") and "Traceback" not in err
    assert not (tmp_path / "model.rfanet").exists()


def test_cli_manifest_frame_path_with_nul_exit_code(tmp_path, capsys):
    manifest = rf.save_dataset(rf.generate_synthetic(2, 5, width=16, height=32), tmp_path / "d")
    content = json.loads(manifest.read_text())
    content["persons"][1]["camera_b"][2] = "p0001/cam_b/frame\u0000.ppm"
    manifest.write_text(json.dumps(content))
    cfg = tiny_config_dict(manifest=str(manifest), model=str(tmp_path / "model.rfanet"))
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: person 1 camera_b: cannot read frame") and "NUL" in err
    assert "frame\\x00.ppm" in err and "Traceback" not in err
    assert not (tmp_path / "model.rfanet").exists()


def test_save_config_write_failing_keeps_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    rf.save_config(path, rf.desk_scale())
    before = path.read_bytes()
    _fail_writes_after(monkeypatch, 0)
    with pytest.raises(OSError):
        rf.save_config(path, rf.full_scale())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_cli_missing_manifest_no_model_file(tmp_path, capsys):
    cfg = tiny_config_dict(
        manifest=str(tmp_path / "missing" / "manifest.json"),
        model=str(tmp_path / "model.rfanet"),
    )
    cfg_path = write_config(tmp_path, cfg)
    assert main(["train", "--config", cfg_path]) == 1
    assert not (tmp_path / "model.rfanet").exists()


def test_cli_corrupt_manifest(tmp_path, capsys):
    data_dir = tmp_path / "data"
    cfg = tiny_config_dict(manifest=str(data_dir / "manifest.json"))
    cfg_path = write_config(tmp_path, cfg)
    assert main(["synth", "--config", cfg_path, "--out", str(data_dir)]) == 0
    (data_dir / "manifest.json").write_text("{]")
    assert main(["train", "--config", cfg_path]) == 1


def _drop_id(m):
    del m["persons"][0]["id"]


def _set(key, value, person=None):
    def edit(m):
        (m if person is None else m["persons"][person])[key] = value
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _drop_id,
        _set("id", "1", person=0),
        _set("id", 1.5, person=0),
        _set("id", True, person=0),
        _set("persons", {"0": {"id": 0}}),
        _set("persons", ["p0000"]),
        _set("camera_a", "p0000/cam_a/frame_0000.ppm", person=0),
        _set("camera_b", [0, 1], person=1),
        _set("noise_pool", "noise"),
    ],
    ids=[
        "missing-id", "string-id", "float-id", "bool-id", "persons-not-list",
        "entry-not-object", "camera-a-string", "camera-b-ints", "noise-pool-string",
    ],
)
def test_cli_malformed_manifest_exit_code(tmp_path, capsys, edit):
    data_dir = tmp_path / "data"
    manifest = rf.save_dataset(rf.generate_synthetic(2, 5, width=16, height=32), data_dir)
    content = json.loads(manifest.read_text())
    edit(content)
    manifest.write_text(json.dumps(content))
    cfg = tiny_config_dict(manifest=str(manifest), model=str(tmp_path / "model.rfanet"))
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 1
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "model.rfanet").exists()


def test_cli_gradcheck_pass(capsys):
    code = main(["gradcheck", "--d", "4", "--h", "3", "--n", "2", "--l", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_cli_gradcheck_rejects_negative_seed(capsys):
    assert main(["gradcheck", "--seed", "-1"]) == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_cli_gradcheck_size_cap(capsys):
    assert main(["gradcheck", "--d", "5000", "--h", "10"]) == 1


def test_gradcheck_corrupt_hook_fails(monkeypatch):
    backward = rf.rnn.backward

    def corrupt(model, trace):
        grads = backward(model, trace)
        grads["b_c"] += 0.05
        return grads

    monkeypatch.setattr(rf.rnn, "backward", corrupt)
    report = rf.grad_check(4, 3, 2, 3, seed=1)
    assert not report.passed
    assert report.per_tensor["b_c"] >= report.threshold


def test_gradcheck_nan_gradient_fails(monkeypatch):
    backward = rf.rnn.backward

    def nan_head(model, trace):
        grads = backward(model, trace)
        grads["W_y"] = np.nan
        return grads

    monkeypatch.setattr(rf.rnn, "backward", nan_head)
    report = rf.grad_check(4, 3, 2, 3, seed=1)
    assert not report.passed
    assert np.isnan(report.per_tensor["W_y"]) and np.isnan(report.max_rel_error)


@pytest.mark.parametrize("eps", [0.0, -1e-5, float("nan"), float("inf")])
def test_gradcheck_rejects_bad_eps(eps):
    with pytest.raises(ConfigurationError, match="eps must be finite and > 0"):
        rf.grad_check(eps=eps)


def test_cli_determinism(tmp_path):
    outputs = []
    for run in ("r1", "r2"):
        root = tmp_path / run
        root.mkdir()
        data_dir = root / "data"
        model_path = root / "model.rfanet"
        cfg = tiny_config_dict(
            manifest=str(data_dir / "manifest.json"),
            model=str(model_path),
            out_dir=str(root / "out"),
        )
        cfg_path = write_config(root, cfg)
        assert main(["synth", "--config", cfg_path, "--out", str(data_dir)]) == 0
        assert main(["train", "--config", cfg_path]) == 0
        emb_path = root / "embs.rfaemb"
        assert main([
            "embed", "--config", cfg_path, "--model", str(model_path),
            "--out", str(emb_path),
        ]) == 0
        assert main(["eval", "--config", cfg_path]) == 0
        outputs.append({
            "model": model_path.read_bytes(),
            "embs": emb_path.read_bytes(),
            "csv": (root / "out" / "report.csv").read_bytes(),
        })
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("call,name", [
    (lambda tmp: rf.desk_scale(ranksvm_iters=0).validate(), "ranksvm_iters"),
    (lambda tmp: rf.desk_scale(synthetic=rf.SyntheticSpec(num_persons=1)).validate(),
     "persons"),
    (lambda tmp: rf.desk_scale(synthetic=rf.SyntheticSpec(frames_per_camera=3)).validate(),
     "frames_per_camera"),
    (lambda tmp: rf.desk_scale(ranksvm_gamma=1), "ranksvm_gamma"),
    (lambda tmp: rf.load_config(tmp / "missing.json"), "missing.json"),
    (lambda tmp: rf.load_config(tmp / "list.json"), "list.json"),
], ids=["ranksvm-iters-0", "one-person", "frames-below-L", "unknown-field", "missing-file",
        "not-an-object"])
def test_config_refuses_bad_input(tmp_path, call, name):
    (tmp_path / "list.json").write_text("[1]")
    with pytest.raises(ConfigurationError, match=name):
        call(tmp_path)


@pytest.mark.parametrize("command,paths,code,name", [
    ("train", {}, 1, "paths.manifest"),
    ("eval", {"manifest": "data/manifest.json"}, 1, "paths.out_dir"),
    ("synth", {}, 2, "blocker"),
], ids=["train-no-manifest", "eval-no-out-dir", "synth-unwritable-out"])
def test_cli_refuses_bad_input(tmp_path, capsys, command, paths, code, name):
    (tmp_path / "blocker").write_text("a file, not a directory")
    argv = [command, "--config", write_config(tmp_path, tiny_config_dict(**paths))]
    if command == "synth":
        argv += ["--out", str(tmp_path / "blocker" / "data")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]
