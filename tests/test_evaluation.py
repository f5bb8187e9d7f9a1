from dataclasses import replace

import numpy as np
import pytest

import rfanet as rf
import rfanet.evaluation as evaluation
from rfanet.errors import ConfigurationError, DataError
from rfanet.evaluation import (
    _derive_seed,
    _embed_test_set,
    _make_scorer,
    make_splits,
    mean_cmc,
    report_csv_rows,
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

class IdentityScorer:
    """Scores 1.0 for the true match, 0.0 otherwise; an embedding's first
    value is its person id."""

    def scores(self, P, G):
        return (P[:, :1] == G[:, 0]).astype(float)


def _emb(vec, pid, cam=0):
    return rf.SequenceEmbedding(np.asarray(vec, float), pid, cam)


def test_cmc_perfect_scorer():
    gallery = [_emb([i, 1.0], i, 1) for i in range(4)]
    probes = [_emb([i, 1.0], i, 0) for i in range(4)]
    curve = rf.compute_cmc(probes, gallery, IdentityScorer())
    assert curve.rates == pytest.approx([1.0, 1.0, 1.0, 1.0])
    assert curve.rate(1) == 1.0


def test_cmc_constant_scorer_staircase():
    # all scores tie, so ranks follow gallery order: probe i lands at rank i+1
    class Constant:
        def scores(self, P, G):
            return np.full((len(P), len(G)), 0.5)

    gallery = [_emb([1.0], i, 1) for i in range(4)]
    probes = [_emb([1.0], i, 0) for i in range(4)]
    curve = rf.compute_cmc(probes, gallery, Constant())
    assert curve.rates == pytest.approx([0.25, 0.5, 0.75, 1.0])


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
    class Broken:
        def scores(self, P, G):
            return np.full((len(P), len(G)), np.nan)

    gallery = [_emb([1.0], i, 1) for i in range(2)]
    with pytest.raises(DataError, match="non-finite scores"):
        rf.compute_cmc([_emb([1.0], 0, 0)], gallery, Broken())


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


def test_load_dataset_missing_manifest(tmp_path):
    with pytest.raises(DataError):
        rf.load_dataset(tmp_path / "nope" / "manifest.json")


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


@pytest.mark.parametrize("spec", [
    rf.ExperimentSpec(kind="noise", trials=1, noise_levels=(0.0, 5.0)),
    rf.ExperimentSpec(kind="noise", trials=1, noise_levels=(-0.1,)),
    rf.ExperimentSpec(kind="depth", trials=1, depths=(0,)),
    rf.ExperimentSpec(kind="depth", trials=1, depths=(1, 6)),
    rf.ExperimentSpec(kind="subseq", trials=1, subseq_counts=(0,)),
], ids=["noise-above-1", "noise-negative", "depth-0", "depth-above-L", "subseq-0"])
def test_run_experiment_checks_levels_before_any_work(tiny_dataset, monkeypatch, spec):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the sweep levels were checked")

    monkeypatch.setattr(evaluation, "sequence_features", forbidden)
    monkeypatch.setattr(evaluation, "train", forbidden)
    with pytest.raises(ConfigurationError):
        rf.run_experiment(tiny_dataset, _tiny_config(), spec)
    cfg = _tiny_config()
    cfg.experiment = spec
    with pytest.raises(ConfigurationError):
        cfg.validate()


def test_run_experiment_rejects_short_sequences():
    ds = rf.generate_synthetic(6, 3, width=16, height=32)
    with pytest.raises(DataError, match="need at least"):
        rf.run_experiment(ds, _tiny_config())


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
    """The noise sweep as a per-level loop: every level re-describes the
    noisy test frames and refits the RankSVM."""
    grid, w, h = cfg.grid, cfg.image_w, cfg.image_h
    agg = rf.AggregationConfig(cfg.train.subseq_len, cfg.agg.num_subsequences, cfg.agg.seed)
    frames = {
        (p.person_id, cam): fr
        for p in dataset.persons
        for cam, fr in ((0, p.frames_a), (1, p.frames_b))
    }
    feats = {k: rf.sequence_features(v, grid, w, h) for k, v in frames.items()}
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
            scorer = _make_scorer(cfg, model, feats, train_ids, agg)
            probes, gallery = _embed_test_set(model, level_feats, list(split.test_ids), agg)
            curves[level].append(rf.compute_cmc(probes, gallery, scorer).rates)
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
    seen = []

    def recording_embed(model, feats, test_ids, *rest):
        seen.append((feats, list(test_ids)))
        return _embed_test_set(model, feats, test_ids, *rest)

    monkeypatch.setattr(evaluation, "_embed_test_set", recording_embed)
    report = rf.run_experiment(tiny_dataset, cfg, ex)
    assert len(seen) == len(ex.noise_levels)  # the cosine scorer embeds no train set
    frames = {(p.person_id, 0): p.frames_a for p in tiny_dataset.persons}
    frames.update({(p.person_id, 1): p.frames_b for p in tiny_dataset.persons})
    for li, (level, (feats, test_ids)) in enumerate(zip(ex.noise_levels, seen)):
        for pid in test_ids:
            for cam in (0, 1):
                noisy = rf.inject_noise(
                    frames[(pid, cam)], level, tiny_dataset.noise_pool,
                    _derive_seed(ex.master_seed, 0, li, pid, cam),
                )
                want = rf.sequence_features(noisy, cfg.grid, cfg.image_w, cfg.image_h)
                assert feats[(pid, cam)].tobytes() == want.tobytes()

    again = rf.run_experiment(tiny_dataset, cfg, ex)
    assert report_csv_rows(again) == report_csv_rows(report)
