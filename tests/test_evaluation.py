import hashlib
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import rfanet as rf
import rfanet.aggregate as aggregate
import rfanet.evaluation as evaluation
from rfanet.aggregate import _derive_seed, _unroll, _window_means
from rfanet.errors import ConfigurationError, DataError
from rfanet.evaluation import (
    describe_dataset,
    make_splits,
    mean_cmc,
    project_store,
    report_csv_rows,
    report_text,
    training_set,
    write_report_csv,
)

from conftest import random_image


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def test_splits_partition_ids():
    splits = make_splits(range(10), 4, master_seed=0)
    assert len(splits) == 4
    for split in splits:
        assert len(split.train_ids) == 5 and len(split.test_ids) == 5
        assert sorted(split.train_ids + split.test_ids) == list(range(10))


def test_splits_deterministic_and_distinct():
    a = make_splits(range(12), 5, master_seed=7)
    b = make_splits(range(12), 5, master_seed=7)
    assert [s.train_ids for s in a] == [s.train_ids for s in b]
    assert len({s.train_ids for s in a}) > 1


def test_splits_odd_count():
    split = make_splits(range(7), 1, master_seed=0)[0]
    assert len(split.train_ids) == 3 and len(split.test_ids) == 4


def test_splits_need_two_ids():
    with pytest.raises(DataError):
        make_splits([1], 1, master_seed=0)


# ---------------------------------------------------------------------------
# CMC
# ---------------------------------------------------------------------------

def _emb(vec, pid, cam=0):
    return rf.SequenceEmbedding(np.asarray(vec, float), pid, cam)


def _scorers(dim, w=-1.0):
    """Cosine, and a RankSVM scoring w * |p - g|_1 (the negated L1 distance
    by default)."""
    return ["cosine", rf.RankSvmScorer(rf.RankSvmModel(np.full(dim, w), 1.0, 1))]


def test_cmc_perfect_scorer():
    # one-hot rows: each probe scores highest against its own gallery row only
    gallery = [_emb(np.eye(4)[i], i, 1) for i in range(4)]
    probes = [_emb(np.eye(4)[i], i, 0) for i in range(4)]
    for scorer in _scorers(4):
        curve = rf.compute_cmc(probes, gallery, scorer)
        assert curve.rates == pytest.approx([1.0, 1.0, 1.0, 1.0])
        assert curve.rate(1) == 1.0


def test_cmc_constant_scorer_staircase():
    # identical gallery rows tie exactly, so ranks follow gallery order:
    # probe i lands at rank i+1
    gallery = [_emb([1.0, 0.5], i, 1) for i in range(4)]
    probes = [_emb([0.5, 1.0], i, 0) for i in range(4)]
    for scorer in _scorers(2):
        curve = rf.compute_cmc(probes, gallery, scorer)
        assert curve.rates == pytest.approx([0.25, 0.5, 0.75, 1.0])


def test_cmc_no_probes():
    with pytest.raises(DataError, match="no probes"):
        rf.compute_cmc([], [_emb([1.0, 0.0], 0), _emb([0.0, 1.0], 1)], "cosine")


def test_cmc_two_probe_example():
    # probe 0 matches at rank 1, probe 1 at rank 2: rates (0.5, 1.0)
    gallery = [_emb([1.0, 0.0], 0, 1), _emb([0.0, 1.0], 1, 1)]
    probes = [_emb([1.0, 0.0], 0, 0), _emb([0.9, 0.5], 1, 0)]
    curve = rf.compute_cmc(probes, gallery, "cosine")
    assert curve.rates == pytest.approx([0.5, 1.0])


def test_cmc_monotone_terminal_one(rng):
    gallery = [_emb(rng.standard_normal(4), i, 1) for i in range(6)]
    probes = [_emb(rng.standard_normal(4), i, 0) for i in range(6)]
    curve = rf.compute_cmc(probes, gallery, "cosine")
    assert np.all(np.diff(curve.rates) >= 0.0)
    assert curve.rates[-1] == pytest.approx(1.0)


def test_cmc_duplicate_gallery_id():
    gallery = [_emb([1.0], 0, 1), _emb([2.0], 0, 1)]
    with pytest.raises(DataError):
        rf.compute_cmc([_emb([1.0], 0, 0)], gallery, "cosine")


def test_cmc_probe_missing_from_gallery():
    gallery = [_emb([1.0], 0, 1)]
    with pytest.raises(DataError):
        rf.compute_cmc([_emb([1.0], 9, 0)], gallery, "cosine")


@pytest.mark.parametrize("role,pid,value", [("probe", 2, np.nan), ("gallery", 1, np.inf)])
def test_cmc_rejects_non_finite_embedding(role, pid, value):
    gallery = [_emb([1.0, i], i, 1) for i in range(4)]
    probes = [_emb([1.0, i], i, 0) for i in range(4)]
    # SequenceEmbedding refuses non-finite values, so poison one in place
    (probes if role == "probe" else gallery)[pid].values[1] = value
    for scorer in ("cosine", rf.RankSvmScorer(rf.RankSvmModel(np.ones(2), 1.0, 1))):
        with pytest.raises(DataError, match=f"{role} id {pid} has a non-finite embedding"):
            rf.compute_cmc(probes, gallery, scorer)


def test_cmc_rejects_mixed_dimensions():
    gallery = [_emb([1.0, 0.0], 0, 1), _emb([1.0], 1, 1)]
    with pytest.raises(DataError, match="gallery id 1"):
        rf.compute_cmc([_emb([1.0, 0.0], 0, 0)], gallery, "cosine")


def test_cmc_rejects_non_finite_scores():
    # finite embeddings and weights whose products overflow: the cosine
    # norms and dot products are inf, and so is w * |p - g|; the overflow is
    # a DataError, with no numpy warning ahead of it
    gallery = [_emb([1e300, 1e300 * (i + 1)], i, 1) for i in range(2)]
    for scorer in _scorers(2, w=1e300):
        with pytest.raises(DataError, match="non-finite scores"):
            rf.compute_cmc([_emb([1e300, 1e300], 0, 0)], gallery, scorer)


def _masked_seed(*parts):
    """The seed of parts masked to 31 bits, as every part in [0, 2**31) keeps."""
    return int(np.random.SeedSequence([p & (2**31 - 1) for p in parts]).generate_state(1)[0])


# the trial (seed, trial), window (seed, pid, cam) and noise
# (seed, trial, level, pid, cam) seeds
@pytest.mark.parametrize("parts", [(1,), (7, 1), (1, 2, 7, 1)], ids=["trial", "window", "noise"])
def test_derived_seeds_tell_every_part_apart(parts):
    rng = np.random.default_rng(len(parts))
    for low in [(0, *parts), (2**31 - 1, *parts), *rng.integers(0, 2**31, (5, len(parts) + 1))]:
        assert _derive_seed(*low) == _masked_seed(*map(int, low))
    # seeds 2**31 apart, and a negative person id against its 31-bit mask
    seeds = [_derive_seed(seed, *parts) for seed in (0, 2**31, 2**32, 2**62, 2**63 - 1)]
    seeds += [_derive_seed(0, *parts[:-2], pid, 1) for pid in (-1, 2**31 - 1, -(2**31 + 1))]
    assert len(set(seeds)) == len(seeds)


def test_mean_cmc():
    a = rf.CmcCurve([0.5, 1.0])
    b = rf.CmcCurve([1.0, 1.0])
    assert mean_cmc([a, b]).rates == pytest.approx([0.75, 1.0])


# ---------------------------------------------------------------------------
# noise injection
# ---------------------------------------------------------------------------

@pytest.fixture
def frame_list(rng):
    return [random_image(rng, 4, 6) for _ in range(10)]


@pytest.fixture
def pool(rng):
    return [random_image(rng, 4, 6) for _ in range(5)]


@pytest.mark.parametrize("call", [
    lambda: make_splits([1, 2, 3, 4], 1, -1),
    lambda: rf.inject_noise([1, 2, 3], 0.5, [9], -1),
    lambda: rf.generate_synthetic(2, 2, appearance_seed=-1),
], ids=["make_splits", "inject_noise", "generate_synthetic"])
def test_negative_seed_is_a_data_error(call):
    with pytest.raises(DataError, match="seed must be >= 0, got -1"):
        call()


@pytest.mark.parametrize("argument, value, message", [
    ("jitter", -1.0, "jitter must be finite and >= 0, got -1.0"),
    ("jitter", float("nan"), "jitter must be finite and >= 0, got nan"),
    ("camera_gain", (1.0, 1.0), r"camera_gain must be 3 finite values, got \(1.0, 1.0\)"),
    ("camera_offset", (0.0, float("inf"), 0.0), r"camera_offset\[1\] must be finite, got inf"),
    ("noise_pool_size", -1, "noise_pool_size must be >= 0, got -1"),
], ids=["jitter-negative", "jitter-nan", "gain-2", "offset-inf", "pool-negative"])
def test_generate_synthetic_rejects_bad_argument(argument, value, message):
    with pytest.raises(DataError, match=message):
        rf.generate_synthetic(2, 2, width=8, height=12, **{argument: value})


def test_inject_noise_zero_fraction(frame_list, pool):
    out = rf.inject_noise(frame_list, 0.0, pool, seed=1)
    assert all(a is b for a, b in zip(out, frame_list))


def test_inject_noise_full_replacement(frame_list, pool):
    out = rf.inject_noise(frame_list, 1.0, pool, seed=1)
    pool_ids = {id(p) for p in pool}
    assert all(id(f) in pool_ids for f in out)


def test_inject_noise_half(frame_list, pool):
    out = rf.inject_noise(frame_list, 0.5, pool, seed=3)
    original = sum(1 for a, b in zip(out, frame_list) if a is b)
    assert original == 5
    assert len(out) == 10


def test_inject_noise_rounds_up(frame_list, pool):
    out = rf.inject_noise(frame_list, 0.01, pool, seed=3)
    replaced = sum(1 for a, b in zip(out, frame_list) if a is not b)
    assert replaced == 1


@pytest.mark.parametrize("fraction,T,count", [
    (0.07, 100, 7), (0.14, 50, 7), (0.28, 25, 7),  # products just above an integer
    (0.1, 10, 1), (0.3, 10, 3), (0.5, 10, 5), (0.3, 7, 3),
])
def test_inject_noise_count_is_exact(fraction, T, count):
    out = rf.inject_noise(list(range(T)), fraction, [-1], seed=4)
    assert out.count(-1) == count


def test_inject_noise_seed_controls_positions(frame_list, pool):
    a = rf.inject_noise(frame_list, 0.3, pool, seed=1)
    b = rf.inject_noise(frame_list, 0.3, pool, seed=1)
    c = rf.inject_noise(frame_list, 0.3, pool, seed=2)
    assert all(x is y for x, y in zip(a, b))
    assert any(x is not y for x, y in zip(a, c))


def test_inject_noise_validation(frame_list, pool):
    with pytest.raises(DataError):
        rf.inject_noise(frame_list, 1.5, pool, seed=0)
    with pytest.raises(DataError):
        rf.inject_noise(frame_list, 0.5, [], seed=0)


# ---------------------------------------------------------------------------
# synthetic generation and manifests
# ---------------------------------------------------------------------------

def test_synthetic_shapes_and_determinism():
    ds1 = rf.generate_synthetic(3, 4, width=8, height=12, appearance_seed=5, noise_pool_size=2)
    ds2 = rf.generate_synthetic(3, 4, width=8, height=12, appearance_seed=5, noise_pool_size=2)
    assert ds1.ids() == [0, 1, 2]
    assert len(ds1.noise_pool) == 2
    for p1, p2 in zip(ds1.persons, ds2.persons):
        assert len(p1.frames_a) == len(p1.frames_b) == 4
        for f1, f2 in zip(p1.frames_a + p1.frames_b, p2.frames_a + p2.frames_b):
            assert np.array_equal(f1.pixels, f2.pixels)


def test_synthetic_zero_jitter_constant_frames():
    ds = rf.generate_synthetic(2, 3, width=8, height=12, jitter=0.0)
    for person in ds.persons:
        for frames in (person.frames_a, person.frames_b):
            for f in frames[1:]:
                assert np.array_equal(f.pixels, frames[0].pixels)


def test_synthetic_identity_cameras_match_without_shift():
    ds = rf.generate_synthetic(2, 1, width=8, height=12, jitter=0.0)
    for person in ds.persons:
        assert np.array_equal(person.frames_a[0].pixels, person.frames_b[0].pixels)


def test_synthetic_camera_offset_shifts_channel():
    ds = rf.generate_synthetic(
        1, 1, width=8, height=12, jitter=0.0, camera_offset=(0.2, 0.0, 0.0)
    )
    a = ds.persons[0].frames_a[0].pixels.astype(int)
    b = ds.persons[0].frames_b[0].pixels.astype(int)
    unsaturated = a[..., 0] <= 255 - 51
    assert np.all(b[..., 0][unsaturated] - a[..., 0][unsaturated] == 51)
    assert np.array_equal(a[..., 1:], b[..., 1:])


def test_synthetic_prototypes_distinct():
    ds = rf.generate_synthetic(4, 1, width=8, height=12, jitter=0.0)
    flat = [p.frames_a[0].pixels.tobytes() for p in ds.persons]
    assert len(set(flat)) == 4


def test_dataset_roundtrip(tmp_path):
    ds = rf.generate_synthetic(2, 3, width=8, height=12, appearance_seed=1, noise_pool_size=2)
    manifest = rf.save_dataset(ds, tmp_path / "data")
    back = rf.load_dataset(manifest)
    assert back.ids() == ds.ids()
    assert len(back.noise_pool) == 2
    for p_in, p_out in zip(ds.persons, back.persons):
        for f_in, f_out in zip(p_in.frames_a + p_in.frames_b, p_out.frames_a + p_out.frames_b):
            assert np.array_equal(f_in.pixels, f_out.pixels)


def test_manifest_write_failing_keeps_earlier_file(tmp_path, disk_full_at_once):
    manifest = tmp_path / "data" / "manifest.json"
    manifest.parent.mkdir()
    manifest.write_bytes(b"earlier manifest")
    ds = rf.generate_synthetic(2, 1, width=8, height=12)
    with pytest.raises(OSError):
        rf.save_dataset(ds, tmp_path / "data")
    assert manifest.read_bytes() == b"earlier manifest"
    assert not [p for p in manifest.parent.iterdir() if p.suffix == ".tmp"]


@pytest.mark.parametrize("frames_written", [0, 1, 5])
def test_interrupted_resave_leaves_no_manifest(tmp_path, monkeypatch, frames_written):
    # the manifest is the commit point: a re-save cut short after k frames
    # must not leave the earlier manifest next to frames it does not describe
    out = tmp_path / "data"
    rf.save_dataset(rf.generate_synthetic(3, 2, width=8, height=12, appearance_seed=1), out)
    encode = evaluation.encode_ppm
    calls = []

    def failing_encode(img):
        calls.append(img)
        if len(calls) > frames_written:
            raise OSError(5, "Input/output error")
        return encode(img)

    monkeypatch.setattr(evaluation, "encode_ppm", failing_encode)
    with pytest.raises(OSError):
        rf.save_dataset(rf.generate_synthetic(3, 2, width=8, height=12, appearance_seed=2), out)
    with pytest.raises(rf.RfaError):
        rf.load_dataset(out / "manifest.json")


def test_load_dataset_missing_manifest(tmp_path):
    with pytest.raises(DataError):
        rf.load_dataset(tmp_path / "nope" / "manifest.json")


def test_load_dataset_manifest_path_with_nul(tmp_path):
    with pytest.raises(DataError, match="cannot read manifest"):
        rf.load_dataset(tmp_path / "mani\0fest.json")


@pytest.mark.parametrize("frame,owner", [
    ("p0001/cam_b/frame_0000.ppm", "person 1 camera_b"),
    ("noise/frame_0001.ppm", "noise_pool"),
])
def test_load_dataset_names_unreadable_frame(tmp_path, frame, owner):
    ds = rf.generate_synthetic(2, 2, width=8, height=12, noise_pool_size=2)
    manifest = rf.save_dataset(ds, tmp_path / "data")
    (manifest.parent / frame).unlink()
    with pytest.raises(DataError, match=f"{owner}: cannot read frame .*{frame}"):
        rf.load_dataset(manifest)


def test_load_dataset_names_truncated_frame(tmp_path):
    ds = rf.generate_synthetic(2, 2, width=8, height=12)
    manifest = rf.save_dataset(ds, tmp_path / "data")
    frame = manifest.parent / "p0000/cam_a/frame_0001.ppm"
    frame.write_bytes(frame.read_bytes()[:30])
    with pytest.raises(rf.FormatError) as exc:
        rf.load_dataset(manifest)
    assert str(frame) in str(exc.value) and "truncated pixel payload" in str(exc.value)
    assert "person 0 camera_a" in str(exc.value)


def test_load_dataset_duplicate_ids(tmp_path):
    ds = rf.generate_synthetic(2, 1, width=8, height=12)
    manifest = rf.save_dataset(ds, tmp_path / "data")
    text = manifest.read_text().replace('"id": 1', '"id": 0')
    manifest.write_text(text)
    with pytest.raises(DataError, match="duplicate"):
        rf.load_dataset(manifest)


# ---------------------------------------------------------------------------
# experiment harness and reports
# ---------------------------------------------------------------------------

def _tiny_config():
    return rf.desk_scale(
        synthetic=rf.SyntheticSpec(num_persons=6, frames_per_camera=10),
        experiment=rf.ExperimentSpec(trials=2, master_seed=0),
        train=rf.TrainConfig(
            subseq_len=5, epochs=4, lr_initial=0.01, lr_after=0.001,
            lr_switch_epoch=2, dropout_rate=0.0, batch_size=4, seed=0, hidden_dim=8,
        ),
        agg=rf.AggregationConfig(subseq_len=5, num_subsequences=3, seed=0),
    )


@pytest.fixture(scope="module")
def tiny_dataset():
    return rf.generate_synthetic(
        6, 10, width=16, height=32, appearance_seed=2, noise_pool_size=4
    )


def test_run_experiment_standard(tiny_dataset):
    report = rf.run_experiment(tiny_dataset, _tiny_config())
    assert report.levels == ["standard"]
    assert len(report.curves["standard"]) == 2
    for curve in report.curves["standard"]:
        assert len(curve.rates) == 3  # test split has 3 identities
        assert curve.rates[-1] == pytest.approx(1.0)
    assert set(report.timings) == {"feature_extraction", "training", "evaluation"}


def test_run_experiment_deterministic(tiny_dataset):
    r1 = rf.run_experiment(tiny_dataset, _tiny_config())
    r2 = rf.run_experiment(tiny_dataset, _tiny_config())
    assert report_csv_rows(r1) == report_csv_rows(r2)


def test_run_experiment_noise_levels(tiny_dataset):
    cfg = _tiny_config()
    ex = rf.ExperimentSpec(kind="noise", trials=1, noise_levels=(0.0, 0.5))
    report = rf.run_experiment(tiny_dataset, cfg, ex)
    assert report.levels == [0.0, 0.5]
    assert len(report.curves[0.5]) == 1


def test_run_experiment_noise_needs_pool():
    ds = rf.generate_synthetic(6, 10, width=16, height=32, noise_pool_size=0)
    with pytest.raises(DataError, match="noise pool"):
        rf.run_experiment(ds, _tiny_config(), rf.ExperimentSpec(kind="noise", trials=1))


def test_run_experiment_depth_defaults(tiny_dataset):
    report = rf.run_experiment(
        tiny_dataset, _tiny_config(), rf.ExperimentSpec(kind="depth", trials=1)
    )
    assert report.levels == [1, 5]


def test_run_experiment_depth_default_at_l1_is_one_level(tiny_dataset):
    cfg = _tiny_config()
    cfg.train = replace(cfg.train, subseq_len=1)
    cfg.agg = replace(cfg.agg, subseq_len=1)
    report = rf.run_experiment(tiny_dataset, cfg, rf.ExperimentSpec(kind="depth", trials=1))
    assert report.levels == [1]
    assert len(report.curves[1]) == 1


@pytest.mark.parametrize("spec", [
    rf.ExperimentSpec(kind="noise", trials=1, noise_levels=(0.0, 5.0)),
    rf.ExperimentSpec(kind="noise", trials=1, noise_levels=(-0.1,)),
    rf.ExperimentSpec(kind="depth", trials=1, depths=(0,)),
    rf.ExperimentSpec(kind="depth", trials=1, depths=(1, 6)),
    rf.ExperimentSpec(kind="subseq", trials=1, subseq_counts=(0,)),
    rf.ExperimentSpec(kind="noise", trials=1, noise_levels=(0.0, 0.0)),
    rf.ExperimentSpec(kind="depth", trials=1, depths=(1, 5, 1)),
    rf.ExperimentSpec(kind="subseq", trials=1, subseq_counts=(3, 3)),
    rf.ExperimentSpec(kind="noise", trials=1, noise_levels=()),
    rf.ExperimentSpec(kind="standard", trials=1, master_seed=-1),
], ids=["noise-above-1", "noise-negative", "depth-0", "depth-above-L", "subseq-0",
        "noise-repeated", "depth-repeated", "subseq-repeated", "noise-empty",
        "master-seed-negative"])
def test_run_experiment_checks_levels_before_any_work(tiny_dataset, monkeypatch, spec):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the sweep levels were checked")

    monkeypatch.setattr(evaluation, "describe_frames", forbidden)
    monkeypatch.setattr(evaluation, "train", forbidden)
    with pytest.raises(ConfigurationError):
        rf.run_experiment(tiny_dataset, _tiny_config(), spec)
    cfg = _tiny_config()
    cfg.experiment = spec
    with pytest.raises(ConfigurationError):
        cfg.validate()


def _grid_assigned(**fields):
    """The desk grid with fields assigned after construction."""
    grid = rf.PatchGridSpec(8, 4, 4, 2)
    for name, value in fields.items():
        setattr(grid, name, value)
    return grid


# configs built in code, which the JSON loader's type checks never see
@pytest.mark.parametrize("overrides,key", [
    ({"scorer": "ranksvm", "ranksvm_iters": 2.5}, "matching.ranksvm_iters"),
    ({"scorer": "ranksvm", "ranksvm_iters": True}, "matching.ranksvm_iters"),
    ({"scorer": "ranksvm", "ranksvm_C": True}, "matching.ranksvm_C"),
    ({"image_w": 16.0}, "image.width"),
    ({"image_h": 32.0}, "image.height"),
    ({"grid": _grid_assigned(stride_h=True)}, "grid.stride_h"),
    ({"grid": _grid_assigned(patch_w=4.0)}, "grid.patch_w"),
], ids=["iters-float", "iters-bool", "C-bool", "width-float", "height-float", "stride-bool",
        "patch-float"])
def test_run_experiment_checks_code_built_config_before_any_work(
    tiny_dataset, monkeypatch, overrides, key
):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    monkeypatch.setattr(evaluation, "describe_frames", forbidden)
    monkeypatch.setattr(evaluation, "train", forbidden)
    cfg = replace(_tiny_config(), **overrides)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(key)} must be"):
        rf.run_experiment(tiny_dataset, cfg)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(key)} must be"):
        cfg.validate()


def test_run_experiment_rejects_short_sequences():
    ds = rf.generate_synthetic(6, 3, width=16, height=32)
    with pytest.raises(DataError, match="need at least"):
        rf.run_experiment(ds, _tiny_config())


def test_explicit_experiment_is_the_one_checked_and_reported(tiny_dataset):
    cfg = _tiny_config()
    cfg.experiment = rf.ExperimentSpec(kind="depth", trials=0)  # invalid, and not run
    ex = rf.ExperimentSpec(kind="noise", trials=1, master_seed=3, noise_levels=(0.0, 0.5))
    report = rf.run_experiment(tiny_dataset, cfg, ex)
    assert report.config == replace(cfg, experiment=ex).to_dict()
    assert report.config["experiment"]["kind"] == "noise"
    assert json.dumps(report.config, indent=2, sort_keys=True) in report_text(report)
    assert cfg.experiment.trials == 0  # the caller's config is left as it was


# ---------------------------------------------------------------------------
# the descriptor store in the dataset pass
# ---------------------------------------------------------------------------

def test_store_backed_training_matches_dense(tiny_dataset):
    cfg = _tiny_config()
    store = describe_dataset(tiny_dataset, cfg)
    frames = {(p.person_id, 0): p.frames_a for p in tiny_dataset.persons}
    frames.update({(p.person_id, 1): p.frames_b for p in tiny_dataset.persons})
    assert set(store.rows) == set(frames)
    ids = sorted(tiny_dataset.ids())
    seqs = training_set(store, ids)
    dense = [rf.LabeledSequence(s.label, s.features[:], s.name) for s in seqs]
    for d, key in zip(dense, [(pid, cam) for pid in ids for cam in (0, 1)]):
        want = rf.sequence_features(frames[key], cfg.grid, cfg.image_w, cfg.image_h)
        assert d.features.tobytes() == want.tobytes()
    # one training loop: batches gathered from the store or from dense rows
    model, history = rf.train(seqs, cfg.train)
    model_dense, history_dense = rf.train(dense, cfg.train)
    assert history == history_dense
    for name in rf.rnn.PARAM_ORDER:
        assert model.params[name].tobytes() == model_dense.params[name].tobytes(), name


def test_project_store_matches_one_projection(tiny_dataset):
    cfg = _tiny_config()
    store = describe_dataset(tiny_dataset, cfg, with_pool=True)
    assert len(store) == 124 and list(store.rows["pool"]) == [120, 121, 122, 123]
    model = rf.init_model(store.dim, 8, 3, seed=0, init_bound=0.3)
    assert project_store(model, store).tobytes() == rf.project(model, store.expand()).tobytes()


def test_run_experiment_holds_no_float64_matrix_of_every_frame():
    # 420 frames at the desk geometry: their float64 (N, D) matrix alone is
    # 43.1 MB. tracemalloc peaks measured on this noise sweep: 61.5 MB when
    # every frame was held as such a matrix, 25.1 MB with the compact store
    cfg = rf.desk_scale()
    cfg.train = replace(cfg.train, epochs=2, lr_switch_epoch=1)
    dataset = rf.generate_synthetic(20, 10, width=16, height=32, appearance_seed=1,
                                    noise_pool_size=20)
    ex = rf.ExperimentSpec(kind="noise", trials=1, master_seed=0, noise_levels=(0.0, 0.5))
    tracemalloc.start()
    try:
        rf.run_experiment(dataset, cfg, ex)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak


def test_non_finite_descriptor_ends_as_a_data_error(tiny_dataset, monkeypatch):
    real = rf.features.to_frame_tensor

    def poisoned(pixels):
        planes = real(pixels)
        planes[..., 1, 5, 5] = np.nan  # the hue plane of every frame
        return planes

    monkeypatch.setattr(rf.features, "to_frame_tensor", poisoned)
    with pytest.raises(DataError, match="non-finite descriptor"):
        rf.run_experiment(tiny_dataset, _tiny_config())


def test_report_csv_layout(tiny_dataset, tmp_path):
    report = rf.run_experiment(tiny_dataset, _tiny_config())
    rows = report_csv_rows(report)
    assert rows[0] == ("experiment", "level", "trial", "rank", "rate")
    trials = {r[2] for r in rows[1:]}
    assert trials == {"0", "1", "mean"}
    txt_path, csv_path = rf.write_report(tmp_path / "out", report)
    assert txt_path.exists() and csv_path.exists()
    text = txt_path.read_text()
    assert "experiment: standard" in text
    assert "config:" in text and "timings" in text


def test_report_text_mean_matches_trials(tiny_dataset):
    report = rf.run_experiment(tiny_dataset, _tiny_config())
    expected = np.mean([c.rates for c in report.curves["standard"]], axis=0)
    assert report.mean_curves["standard"].rates == pytest.approx(expected)


def test_report_write_failing_keeps_earlier_files(tmp_path, disk_full_at_once):
    curve = rf.CmcCurve([0.5, 1.0])
    report = rf.ExperimentReport("standard", ["standard"], {"standard": [curve]},
                                 {"standard": curve}, {}, {})
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.txt").write_bytes(b"earlier text")
    (out / "report.csv").write_bytes(b"earlier csv")
    with pytest.raises(OSError):
        rf.write_report(out, report)
    with pytest.raises(OSError):
        write_report_csv(out / "report.csv", report)
    assert (out / "report.txt").read_bytes() == b"earlier text"
    assert (out / "report.csv").read_bytes() == b"earlier csv"
    assert sorted(p.name for p in out.iterdir()) == ["report.csv", "report.txt"]


# ---------------------------------------------------------------------------
# noise sweep: spliced descriptors and one RankSVM fit per trial
# ---------------------------------------------------------------------------

def _per_level_noise_sweep(dataset, cfg, ex):
    """The noise sweep as a per-level loop through the public per-sequence
    API: every level re-describes the noisy test frames, embeds each
    sequence with embed_sequence and refits the RankSVM."""
    grid, w, h = cfg.grid, cfg.image_w, cfg.image_h
    agg = rf.AggregationConfig(cfg.train.subseq_len, cfg.agg.num_subsequences, cfg.agg.seed)
    frames = {
        (p.person_id, cam): fr
        for p in dataset.persons
        for cam, fr in ((0, p.frames_a), (1, p.frames_b))
    }
    feats = {k: rf.sequence_features(v, grid, w, h) for k, v in frames.items()}

    def embed(model, level_feats, ids, cam):
        return [rf.embed_sequence(model, level_feats[(pid, cam)], agg, pid, cam) for pid in ids]

    curves = {level: [] for level in ex.noise_levels}
    for trial, split in enumerate(make_splits(dataset.ids(), ex.trials, ex.master_seed)):
        train_ids = list(split.train_ids)
        seqs = [
            rf.LabeledSequence(idx, feats[(pid, cam)])
            for idx, pid in enumerate(train_ids)
            for cam in (0, 1)
        ]
        model, _ = rf.train(seqs, replace(cfg.train, seed=_derive_seed(cfg.train.seed, trial)))
        for li, level in enumerate(ex.noise_levels):
            level_feats = dict(feats)
            for pid in split.test_ids:
                for cam in (0, 1):
                    noisy = rf.inject_noise(
                        frames[(pid, cam)], level, dataset.noise_pool,
                        _derive_seed(ex.master_seed, trial, li, pid, cam),
                    )
                    level_feats[(pid, cam)] = rf.sequence_features(noisy, grid, w, h)
            svm = rf.train_ranksvm(embed(model, feats, train_ids, 0),
                                   embed(model, feats, train_ids, 1),
                                   C=cfg.ranksvm_C, iters=cfg.ranksvm_iters)
            probes = embed(model, level_feats, split.test_ids, 0)
            gallery = embed(model, level_feats, split.test_ids, 1)
            curves[level].append(
                rf.compute_cmc(probes, gallery, rf.RankSvmScorer(svm)).rates
            )
    return curves


def test_noise_sweep_fits_ranksvm_once_per_trial(tiny_dataset, monkeypatch):
    cfg = _tiny_config()
    cfg.scorer = "ranksvm"
    cfg.ranksvm_iters = 200
    ex = rf.ExperimentSpec(kind="noise", trials=2, master_seed=5, noise_levels=(0.0, 0.3, 0.5))
    expected = _per_level_noise_sweep(tiny_dataset, cfg, ex)

    fits = []

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return rf.train_ranksvm(*args, **kwargs)

    monkeypatch.setattr(evaluation, "train_ranksvm", counting_fit)
    report = rf.run_experiment(tiny_dataset, cfg, ex)
    assert len(fits) == ex.trials
    for level in ex.noise_levels:
        got = [curve.rates for curve in report.curves[level]]
        assert np.array_equal(got, expected[level])


def test_noise_sweep_splices_redescribed_frames(tiny_dataset, monkeypatch):
    cfg = _tiny_config()
    ex = rf.ExperimentSpec(kind="noise", trials=1, master_seed=9, noise_levels=(0.0, 0.3, 1.0))
    projected, seen = [], []

    def recording_project(model, store):
        projected.append(store)
        return project_store(model, store)

    def recording_means(model, ax, rows, *rest):
        seen.append(rows)
        return _window_means(model, ax, rows, *rest)

    monkeypatch.setattr(evaluation, "project_store", recording_project)
    monkeypatch.setattr(evaluation, "_window_means", recording_means)
    report = rf.run_experiment(tiny_dataset, cfg, ex)
    assert len(projected) == ex.trials  # one projection of every row per model
    assert len(seen) == len(ex.noise_levels)  # the cosine scorer embeds no train set
    descriptors = projected[0].expand()
    frames = {(p.person_id, 0): p.frames_a for p in tiny_dataset.persons}
    frames.update({(p.person_id, 1): p.frames_b for p in tiny_dataset.persons})
    for li, (level, rows) in enumerate(zip(ex.noise_levels, seen)):
        for pid, cam in rows:  # both cameras of each test id
            noisy = rf.inject_noise(
                frames[(pid, cam)], level, tiny_dataset.noise_pool,
                _derive_seed(ex.master_seed, 0, li, pid, cam),
            )
            want = rf.sequence_features(noisy, cfg.grid, cfg.image_w, cfg.image_h)
            assert descriptors[rows[(pid, cam)]].tobytes() == want.tobytes()

    again = rf.run_experiment(tiny_dataset, cfg, ex)
    assert report_csv_rows(again) == report_csv_rows(report)


# ---------------------------------------------------------------------------
# the sweep loop: golden reports and RankSVM fits per kind
# ---------------------------------------------------------------------------

# sha256 of report.csv for each scorer and sweep kind at the default levels,
# 2 trials of _tiny_config() on a 12-identity dataset hard enough that the two
# scorers rank apart. Like the training digests, the bits are those of the
# BLAS build (recorded with OpenBLAS 0.3.31, x86-64)
REPORT_DIGESTS = {
    ("cosine", "standard"): "0d3172690e08f55e2504127b38acde2e3ced0053be4eb6d7c691a8bde863f1b9",
    ("cosine", "noise"): "1b0641c28eb6079c626d28ac13d95f1cef67a4b1f465c10e0e2c93c9be236f7a",
    ("cosine", "depth"): "37d783369ea4d8be3eacd6234349ef87bcf7d11e449f01b04cffda9ed12dd3e0",
    ("cosine", "subseq"): "cee248b59b1acf7d38a58e24ee8a5b35c50ddf12a8eea5863ba3aa58c95a2587",
    ("ranksvm", "standard"): "b0fef6f9f95287e57244627f89515b887aed977f48bc79654676ffa08dad3e97",
    ("ranksvm", "noise"): "98a3c1ce84ffb2b33b9e042926508917f5e2bacbbecb472abfa6d2a775c40baa",
    ("ranksvm", "depth"): "8133033599d9b63195f454d8469f22e399f2f9e417c516f82d569d8a8b7325db",
    ("ranksvm", "subseq"): "21dab4a771d0bce0d715c9e63d81380228f3950999f817dbb26410baea4f2454",
}


@pytest.fixture(scope="module")
def sweep_dataset():
    return rf.generate_synthetic(
        12, 10, width=16, height=32, appearance_seed=2, jitter=0.3, noise_pool_size=4,
        camera_gain=(1.4, 0.7, 1.0), camera_offset=(0.1, -0.1, 0.05),
    )


@pytest.mark.parametrize("scorer,kind", list(REPORT_DIGESTS))
def test_sweep_report_golden_digest(sweep_dataset, tmp_path, monkeypatch, scorer, kind):
    fits = []

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return rf.train_ranksvm(*args, **kwargs)

    monkeypatch.setattr(evaluation, "train_ranksvm", counting_fit)
    cfg = _tiny_config()
    cfg.scorer = scorer
    cfg.ranksvm_iters = 200
    ex = rf.ExperimentSpec(kind=kind, trials=2, master_seed=0)
    report = rf.run_experiment(sweep_dataset, cfg, ex)
    write_report_csv(tmp_path / "report.csv", report)
    digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
    assert digest == REPORT_DIGESTS[scorer, kind]
    # a fit depends on the window count and the depth, not on the noise level
    per_trial = len(report.levels) if kind in ("depth", "subseq") else 1
    assert len(fits) == (ex.trials * per_trial if scorer == "ranksvm" else 0)


@pytest.mark.parametrize("kind", ["depth", "subseq"])
@pytest.mark.parametrize("scorer", ["cosine", "ranksvm"])
def test_sweep_embeds_each_sequence_set_once_per_trial(sweep_dataset, monkeypatch, scorer,
                                                        kind):
    # every depth and subseq level reads the window means of one draw, so each
    # trial runs its test sequences through the recurrence once, and its
    # training sequences once for the RankSVM, over max(levels) windows each
    calls, windows = [], []

    def counting_means(model, ax, rows, cfg, counts):
        calls.append(tuple(sorted({pid for pid, _ in rows})))
        return _window_means(model, ax, rows, cfg, counts)

    def counting_unroll(model, ax):
        windows.append(len(ax))
        return _unroll(model, ax)

    monkeypatch.setattr(evaluation, "_window_means", counting_means)
    monkeypatch.setattr(aggregate, "_unroll", counting_unroll)
    cfg = _tiny_config()
    cfg.scorer = scorer
    cfg.ranksvm_iters = 20
    ex = rf.ExperimentSpec(kind=kind, trials=2, master_seed=0, depths=(1, 2, 3, 4, 5))
    levels = ex.levels(cfg.train.subseq_len)
    report = rf.run_experiment(sweep_dataset, cfg, ex)
    expected = []
    for split in make_splits(sweep_dataset.ids(), ex.trials, ex.master_seed):
        expected += [split.train_ids] if scorer == "ranksvm" else []
        expected.append(split.test_ids)
    assert calls == expected
    K = max(levels) if kind == "subseq" else cfg.agg.num_subsequences
    assert windows == [2 * len(ids) * K for ids in expected]  # one batch per id set
    assert all(len(report.curves[level]) == ex.trials for level in levels)


def _manifest(tmp_path, document):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(document))
    return path


@pytest.mark.parametrize("call,error,name", [
    (lambda tmp: rf.load_dataset(_manifest(tmp, {"persons": []})), DataError,
     "manifest.json"),
    (lambda tmp: rf.load_dataset(_manifest(tmp, {"persons": [
        {"id": 0, "camera_a": [], "camera_b": ["f.ppm"]}]})), DataError, "camera_a"),
    (lambda tmp: rf.generate_synthetic(0, 2), DataError, "num_persons"),
    (lambda tmp: rf.ExperimentSpec(kind="sweep").validate(5), ConfigurationError, "kind"),
    (lambda tmp: rf.ExperimentSpec(trials=0).validate(5), ConfigurationError, "trials"),
], ids=["no-persons", "no-camera-a-frames", "no-persons-generated", "unknown-kind",
        "no-trials"])
def test_evaluation_refuses_bad_input(tmp_path, call, error, name):
    with pytest.raises(error, match=name):
        call(tmp_path)


def _one_frame_dataset(*people):
    frame = rf.RawImage(2, 2, np.zeros((2, 2, 3)))
    return rf.Dataset([rf.PersonSequences(pid, [frame] * a, [frame] * b) for pid, a, b in people])


# each of these saved a manifest that load_dataset refuses, or (id 1.0) failed
# in the path format with a ValueError
@pytest.mark.parametrize("people,message", [
    ([(0, 1, 1), (0, 1, 1)], "duplicate person id 0 in dataset"),
    ([(0, 1, 1), (True, 1, 1)], "dataset person entry 1 has no integer id"),
    ([(1.0, 1, 1)], "dataset person entry 0 has no integer id"),
    ([(0, 1, 1), (1, 1, 0)], "person 1 has no camera_b frames"),
    ([], "dataset lists no persons"),
], ids=["duplicate-id", "bool-id", "float-id", "empty-camera", "no-persons"])
def test_save_dataset_refuses_what_load_dataset_refuses(tmp_path, people, message):
    with pytest.raises(DataError, match=message):
        rf.save_dataset(_one_frame_dataset(*people), tmp_path / "data")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("pool", [np.arange(100, 104), [100, 101, 102, 103]],
                         ids=["array", "list"])
def test_inject_noise_takes_an_array_pool(pool):
    out = rf.inject_noise(list(range(10)), 0.3, pool, 1)
    assert out == rf.inject_noise(list(range(10)), 0.3, [100, 101, 102, 103], 1)
    assert sum(v >= 100 for v in out) == 3


def test_inject_noise_refuses_an_empty_array_pool():
    with pytest.raises(DataError, match="noise pool is empty"):
        rf.inject_noise(list(range(10)), 0.3, np.arange(0), 1)
