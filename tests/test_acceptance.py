"""End-to-end acceptance checks. Each test prints one PASS/FAIL line."""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rfanet as rf
from rfanet.evaluation import report_csv_rows
from rfanet.matching import pair_difference_features
from rfanet.rnn import _softmax

from matching_reference import hinge_objective
from test_config_cli import tiny_config_dict, write_config
from test_features import _naive_lbp


def _verdict(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


# 1. analytic BPTT gradients match finite differences across random shapes

def test_acceptance_01_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 9))
        h = int(rng.integers(2, 7))
        n = int(rng.integers(2, 5))
        l = int(rng.integers(2, 7))
        peephole = ("full", "diagonal")[int(rng.integers(2))]
        rng.integers(2)  # unused, but the later shapes, seeds and modes follow this draw
        report = rf.grad_check(d, h, n, l, seed=int(rng.integers(2**31)), peephole=peephole)
        worst = max(worst, report.max_rel_error)
    elapsed = time.perf_counter() - t0
    _verdict(1, "gradient-check", worst < 1e-4 and elapsed < 60.0)


# 2. full-scale dimensions: 225 patches x 262 channels, embedding 512 * 10

def test_acceptance_02_dimension_fidelity(rng):
    img = rf.RawImage(64, 128, rng.integers(0, 256, (128, 64, 3), dtype=np.uint8))
    grid = rf.PatchGridSpec()
    feat = rf.sequence_features([img], grid)[0]
    cfg = rf.full_scale()
    model = rf.init_model(6, 3, 2, seed=0)
    emb = rf.embed_sequence(model, rng.standard_normal((5, 6)), rf.AggregationConfig(5, 1)).values
    ok = (
        feat.shape == (58950,)
        and grid.num_patches(128, 64) == 225
        and 58950 == 225 * 262
        and cfg.feature_dim == 58950
        and cfg.embedding_dim == 5120
        and emb.shape == (3 * 5,)
    )
    _verdict(2, "dimension-fidelity", ok)


# 3. vectorized texture codes equal the per-pixel reference implementation

def test_acceptance_03_texture_codes():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(1000):
        plane = rng.random((5, 7))
        codes = rf.lbp_codes(plane)
        for r in range(1, 4):
            for c in range(1, 6):
                ok = ok and codes[r - 1, c - 1] == _naive_lbp(plane, r, c)
    _verdict(3, "texture-code-oracle", ok)


# 4. property-based invariants: softmax simplex / shift invariance, CMC shape

@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=8),
    st.floats(-50, 50),
)
def _softmax_properties(logits, shift):
    z = np.array(logits)
    y = _softmax(z)
    assert y.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(y > 0.0)
    assert _softmax(z + shift) == pytest.approx(y, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 8))
def _cmc_properties(seed, n):
    rng = np.random.default_rng(seed)
    gallery = [rf.SequenceEmbedding(rng.standard_normal(4) + 0.01, i, 1) for i in range(n)]
    probes = [rf.SequenceEmbedding(rng.standard_normal(4) + 0.01, i, 0) for i in range(n)]
    curve = rf.compute_cmc(probes, gallery, "cosine")
    assert np.all(np.diff(curve.rates) >= -1e-12)
    assert curve.rates[-1] == pytest.approx(1.0)


def test_acceptance_04_property_invariants():
    _softmax_properties()
    _cmc_properties()
    _verdict(4, "property-invariants", True)


# 5. end-to-end synthetic benchmark reaches near-perfect rank-1 quickly

def test_acceptance_05_end_to_end_rank1():
    t0 = time.perf_counter()
    cfg = rf.desk_scale()
    assert cfg.train.epochs <= 100
    s = cfg.synthetic
    dataset = rf.generate_synthetic(
        s.num_persons, s.frames_per_camera,
        width=cfg.image_w, height=cfg.image_h,
        appearance_seed=s.appearance_seed,
        camera_gain=s.camera_gain, camera_offset=s.camera_offset,
        jitter=s.jitter, noise_pool_size=s.noise_pool_size,
    )
    report = rf.run_experiment(dataset, cfg)
    rank1 = report.mean_curves["standard"].rate(1)
    elapsed = time.perf_counter() - t0
    print(f"  rank-1 {rank1:.4f} in {elapsed:.1f}s over {cfg.experiment.trials} trials")
    _verdict(5, "end-to-end-rank1", rank1 >= 0.95 and elapsed < 300.0)


def _sweep_config(kind, **ex_kw):
    return rf.desk_scale(
        train=rf.TrainConfig(
            subseq_len=5, epochs=20, lr_initial=0.001, lr_after=0.0001,
            lr_switch_epoch=10, dropout_rate=0.5, batch_size=16, seed=0,
            hidden_dim=16,
        ),
        agg=rf.AggregationConfig(subseq_len=5, num_subsequences=10, seed=0),
        experiment=rf.ExperimentSpec(kind=kind, trials=5, master_seed=0, **ex_kw),
    )


# 6. deeper aggregation is at least as accurate as the first node alone

def test_acceptance_06_fusion_depth(small_dataset):
    report = rf.run_experiment(small_dataset, _sweep_config("depth"))
    shallow = report.mean_curves[1].rate(1)
    deep = report.mean_curves[5].rate(1)
    print(f"  rank-1 depth-1 {shallow:.4f}, depth-5 {deep:.4f}")
    _verdict(6, "fusion-depth", deep >= shallow)


# 7. accuracy degrades gracefully as corrupted frames are injected

def test_acceptance_07_noise_robustness(small_dataset):
    report = rf.run_experiment(
        small_dataset, _sweep_config("noise", noise_levels=(0.0, 0.3, 0.5))
    )
    r = {lv: report.mean_curves[lv].rate(1) for lv in (0.0, 0.3, 0.5)}
    terminal_ok = all(
        curve.rates[-1] == pytest.approx(1.0)
        for lv in (0.0, 0.3, 0.5)
        for curve in report.curves[lv]
    )
    print(f"  rank-1 clean {r[0.0]:.4f}, 30% {r[0.3]:.4f}, 50% {r[0.5]:.4f}")
    _verdict(7, "noise-robustness", r[0.0] >= r[0.3] >= r[0.5] and terminal_ok)


# 8. averaging many sampled windows beats a single window

def test_acceptance_08_subsequence_count(small_dataset):
    report = rf.run_experiment(
        small_dataset, _sweep_config("subseq", subseq_counts=(1, 10))
    )
    one = report.mean_curves[1].rate(1)
    ten = report.mean_curves[10].rate(1)
    print(f"  rank-1 K=1 {one:.4f}, K=10 {ten:.4f}")
    _verdict(8, "subsequence-count", ten >= one)


# 9. the ranking solver solves separable instances to near-optimality

def test_acceptance_09_ranksvm_solver():
    rng = np.random.default_rng(9)
    probes, gallery = [], []
    for i in range(5):
        base = np.abs(rng.normal(0.0, 2.0, 2)) + 2.0 * i
        probes.append(base + 0.05 * rng.standard_normal(2))
        gallery.append(base - 0.05 * rng.standard_normal(2))
    model = rf.train_ranksvm(probes, gallery, C=5.0, iters=10000)
    diffs = pair_difference_features(probes, gallery)
    hinge = float(np.maximum(0.0, 1.0 - diffs @ model.w).sum())
    accuracy = rf.ranking_accuracy(model, probes, gallery)
    hist = np.array(model.objective_history)
    span = max(3.0 * np.abs(model.w).max(), 1.0)
    axis = np.linspace(-span, span, 1201)
    grid_best = min(
        hinge_objective(np.array([u, v]), diffs, 5.0) for u in axis for v in axis
    )
    ok = (
        hinge == pytest.approx(0.0, abs=1e-9)
        and accuracy == 1.0
        and np.all(np.diff(hist) <= 0.0)
        and model.objective_history[-1] <= grid_best * 1.01
    )
    print(f"  objective {model.objective_history[-1]:.6f} vs grid {grid_best:.6f}, "
          f"accuracy {accuracy:.2f}")
    _verdict(9, "ranksvm-solver", ok)


# 10. the CLI pipeline is byte-for-byte reproducible

def test_acceptance_10_cli_determinism(tmp_path):
    from rfanet.cli import main

    outputs = []
    for run in ("first", "second"):
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
        outputs.append((
            model_path.read_bytes(),
            emb_path.read_bytes(),
            (root / "out" / "report.csv").read_bytes(),
            (data_dir / "manifest.json").read_bytes(),
        ))
    _verdict(10, "cli-determinism", outputs[0] == outputs[1])
