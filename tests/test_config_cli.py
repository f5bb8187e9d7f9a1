import json
import struct

import numpy as np
import pytest

import rfanet as rf
from rfanet.cli import main
from rfanet.errors import ConfigurationError

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
    data = tiny_config_dict()
    data["aggregation"]["subseq_len"] = 7
    with pytest.raises(ConfigurationError, match="must equal"):
        rf.config_from_dict(data)


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
], ids=["noise", "depth", "subseq"])
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
    ("image", {"width": "a"}, r"\[image\] width must be int"),
    ("train", {"epochs": "x"}, r"\[train\] epochs must be int"),
    ("train", {"clip_norm": True}, r"\[train\] clip_norm must be float \| None"),
    ("model", {"peephole": 1}, r"\[model\] peephole must be str"),
    ("matching", {"ranksvm_C": "high"}, r"\[matching\] ranksvm_C must be float"),
    ("experiment", {"noise_levels": [0.1, "x"]},
     r"\[experiment\] noise_levels must be tuple\[float, \.\.\.\]"),
    ("experiment", {"depths": [1.5]}, r"\[experiment\] depths must be tuple\[int, \.\.\.\] \| None"),
    ("matching", {"ranksvm_X": 1}, r"unknown keys in \[matching\]"),
    ("train", {"clip_norm": -1.0}, r"clip_norm must be > 0"),
    ("train", {"clip_norm": 0}, r"clip_norm must be > 0"),
    ("grid", {"lbp_bins": 256}, r"unknown keys in \[grid\]"),
    ("matching", {"ranksvm_seed": 0}, r"unknown keys in \[matching\]"),
], ids=["image-int", "train-list", "grid-null", "width-str", "epochs-str", "clip-bool",
        "peephole-int", "C-str", "noise-level-str", "depth-float", "unknown-matching-key",
        "clip-negative", "clip-zero", "lbp-bins-key", "ranksvm-seed-key"])
def test_cli_invalid_config_exit_code(tmp_path, capsys, section, value, message):
    data = tiny_config_dict()
    data[section] = value if not isinstance(value, dict) else {**data[section], **value}
    cfg_path = write_config(tmp_path, data)
    assert main(["synth", "--config", cfg_path, "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    with pytest.raises(ConfigurationError, match=message):
        rf.config_from_dict(data)


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


def test_cli_gradcheck_size_cap(capsys):
    assert main(["gradcheck", "--d", "5000", "--h", "10"]) == 1


def test_gradcheck_corrupt_hook_fails():
    def corrupt(grads):
        grads["W_c"] += 0.05

    report = rf.grad_check(4, 3, 2, 3, seed=1, corrupt=corrupt)
    assert not report.passed
    assert report.per_tensor["W_c"] >= report.threshold


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
