import numpy as np
import pytest

import rfanet as rf
from rfanet.errors import DataError, DegenerateProblemError, FormatError
from rfanet.matching import hinge_objective, pair_difference_features, ranksvm_score


# ---------------------------------------------------------------------------
# cosine
# ---------------------------------------------------------------------------

def test_cosine_parallel_and_orthogonal():
    assert rf.cosine_score([1, 0], [2, 0]) == pytest.approx(1.0)
    assert rf.cosine_score([1, 0], [0, 3]) == pytest.approx(0.0)
    assert rf.cosine_score([1, 1], [-1, -1]) == pytest.approx(-1.0)


def test_cosine_worked_example():
    # (3,4).(4,3) / (5*5) = 24/25
    assert rf.cosine_score([3, 4], [4, 3]) == pytest.approx(24 / 25, abs=1e-12)


def test_cosine_scale_invariant(rng):
    a, b = rng.standard_normal(8), rng.standard_normal(8)
    assert rf.cosine_score(a, b) == pytest.approx(rf.cosine_score(3.7 * a, 0.2 * b), abs=1e-12)


def test_cosine_accepts_embeddings(rng):
    a, b = rng.standard_normal(5), rng.standard_normal(5)
    ea, eb = rf.SequenceEmbedding(a), rf.SequenceEmbedding(b)
    assert rf.cosine_score(ea, eb) == rf.cosine_score(a, b)


def test_cosine_zero_vector_rejected():
    with pytest.raises(DataError, match="zero-norm"):
        rf.cosine_score([0.0, 0.0], [1.0, 2.0])


def test_cosine_dimension_mismatch():
    with pytest.raises(DataError):
        rf.cosine_score([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def test_rank_gallery_descending():
    probe = np.array([1.0, 0.0])
    gallery = [np.array(v) for v in ([0.0, 1.0], [1.0, 0.1], [1.0, 1.0])]
    order = rf.rank_gallery(probe, gallery, "cosine")
    assert order.tolist() == [1, 2, 0]


def test_rank_gallery_stable_ties():
    class FixedScorer:
        def __init__(self, row):
            self.row = np.array([row])

        def scores(self, P, G):
            assert P.shape == (1, 1) and G.shape == (3, 1)
            return self.row

    order = rf.rank_gallery(np.zeros(1), np.zeros((3, 1)), FixedScorer([0.2, 0.9, 0.9]))
    assert order.tolist() == [1, 2, 0]


def test_rank_gallery_empty():
    with pytest.raises(DataError):
        rf.rank_gallery(np.ones(2), [], "cosine")


# ---------------------------------------------------------------------------
# pair features and objective
# ---------------------------------------------------------------------------

def test_pair_difference_count_and_values():
    probes = [np.array([0.0, 0.0]), np.array([2.0, 0.0])]
    gallery = [np.array([1.0, 0.0]), np.array([2.0, 2.0])]
    diffs = pair_difference_features(probes, gallery)
    assert diffs.shape == (2, 2)
    # row for probe 0: |0-1| - |0-2| on each axis
    assert diffs[0] == pytest.approx([1 - 2, 0 - 2])
    # probe 1: true pair |[2,0]-[2,2]| = [0,2], wrong pair |[2,0]-[1,0]| = [1,0]
    assert diffs[1] == pytest.approx([0 - 1, 2 - 0])


def test_pair_difference_degenerate():
    same = [np.array([1.0, 1.0])] * 3
    with pytest.raises(DegenerateProblemError):
        pair_difference_features(same, same)


def test_pair_difference_needs_two_persons():
    with pytest.raises(DataError):
        pair_difference_features([np.ones(2)], [np.ones(2)])


def test_hinge_objective_closed_form():
    w = np.array([1.0, -2.0])
    diffs = np.array([[3.0, 0.0], [0.0, 1.0]])
    # 0.5*5 + C*(max(0,1-3) + max(0,1+2)) = 2.5 + 3C
    assert hinge_objective(w, diffs, 2.0) == pytest.approx(2.5 + 6.0)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _separable_instance(rng, n=5, dim=2):
    # true pairs differ by small noise, wrong pairs by large offsets
    probes, gallery = [], []
    for i in range(n):
        base = np.abs(rng.normal(0.0, 2.0, dim)) + 2.0 * i
        probes.append(base + 0.05 * rng.standard_normal(dim))
        gallery.append(base - 0.05 * rng.standard_normal(dim))
    return probes, gallery


def test_ranksvm_separable_perfect_accuracy(rng):
    probes, gallery = _separable_instance(rng)
    model = rf.train_ranksvm(probes, gallery, C=5.0, iters=2000, seed=0)
    assert rf.ranking_accuracy(model, probes, gallery) == 1.0


def test_ranksvm_history_monotone(rng):
    probes, gallery = _separable_instance(rng)
    model = rf.train_ranksvm(probes, gallery, C=100.0, iters=1500, seed=0)
    hist = np.array(model.objective_history)
    assert len(hist) == 1500
    assert np.all(np.diff(hist) <= 0.0)
    assert model.final_objective == pytest.approx(
        hinge_objective(model.w, pair_difference_features(probes, gallery), 100.0)
    )


def test_ranksvm_matches_grid_search_oracle(rng):
    # exhaustive 2-D grid over the weight plane as an independent solver
    probes, gallery = _separable_instance(rng)
    diffs = pair_difference_features(probes, gallery)
    model = rf.train_ranksvm(probes, gallery, C=5.0, iters=10000, seed=0)
    span = max(3.0 * np.abs(model.w).max(), 1.0)
    axis = np.linspace(-span, span, 1201)
    best = min(
        hinge_objective(np.array([u, v]), diffs, 5.0) for u in axis for v in axis
    )
    assert model.final_objective <= best * 1.01


def test_ranksvm_tiny_c_shrinks_weights(rng):
    probes, gallery = _separable_instance(rng)
    model = rf.train_ranksvm(probes, gallery, C=1e-9, iters=200, seed=0)
    assert np.linalg.norm(model.w) < 1e-3


def test_ranksvm_one_dimensional_sign():
    # scalar embeddings where true pairs are closer: optimum has w < 0
    probes = [np.array([0.0]), np.array([10.0]), np.array([20.0])]
    gallery = [np.array([1.0]), np.array([11.0]), np.array([21.0])]
    model = rf.train_ranksvm(probes, gallery, C=10.0, iters=2000, seed=0)
    assert model.w[0] < 0.0
    assert rf.ranking_accuracy(model, probes, gallery) == 1.0


def test_ranksvm_deterministic(rng):
    probes, gallery = _separable_instance(rng)
    m1 = rf.train_ranksvm(probes, gallery, C=2.0, iters=300, seed=4)
    m2 = rf.train_ranksvm(probes, gallery, C=2.0, iters=300, seed=4)
    assert np.array_equal(m1.w, m2.w)
    assert m1.objective_history == m2.objective_history


def test_ranksvm_score_direction(rng):
    probes, gallery = _separable_instance(rng)
    model = rf.train_ranksvm(probes, gallery, C=5.0, iters=2000, seed=0)
    for i in range(len(probes)):
        own = ranksvm_score(model, probes[i], gallery[i])
        for j in range(len(gallery)):
            if j != i:
                assert own > ranksvm_score(model, probes[i], gallery[j])


def test_ranksvm_invalid_arguments(rng):
    probes, gallery = _separable_instance(rng)
    with pytest.raises(DataError):
        rf.train_ranksvm(probes, gallery, C=0.0)
    with pytest.raises(DataError):
        rf.train_ranksvm(probes, gallery, iters=0)


def test_ranksvm_roundtrip(tmp_path, rng):
    probes, gallery = _separable_instance(rng)
    model = rf.train_ranksvm(probes, gallery, C=3.5, iters=50, seed=12)
    path = tmp_path / "model.rfasvm"
    rf.save_ranksvm(path, model)
    back = rf.load_ranksvm(path)
    assert np.array_equal(back.w, model.w)
    assert (back.C, back.iters, back.seed) == (3.5, 50, 12)


def test_ranksvm_bad_magic(tmp_path):
    path = tmp_path / "bad.rfasvm"
    path.write_bytes(b"XXXXXXX" + bytes(32))
    with pytest.raises(FormatError):
        rf.load_ranksvm(path)


def test_ranksvm_write_failing_midway_keeps_earlier_file(tmp_path, disk_full):
    path = tmp_path / "model.rfasvm"
    path.write_bytes(b"earlier ranksvm")
    model = rf.RankSvmModel(np.ones(4), 1.0, 10, 0)
    with pytest.raises(OSError):
        rf.save_ranksvm(path, model)
    assert path.read_bytes() == b"earlier ranksvm"
    assert list(tmp_path.iterdir()) == [path]


def test_ranksvm_reader_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "model.rfasvm"
    rf.save_ranksvm(path, rf.RankSvmModel(np.arange(3.0), 1.0, 10, 0))
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(FormatError, match="trailing"):
        rf.load_ranksvm(path)


def test_ranksvm_reader_rejects_zero_dim(tmp_path):
    path = tmp_path / "model.rfasvm"
    rf.save_ranksvm(path, rf.RankSvmModel(np.zeros(0), 1.0, 10, 0))
    with pytest.raises(FormatError, match="dimension is 0"):
        rf.load_ranksvm(path)


def test_ranksvm_reader_rejects_truncated_header(tmp_path):
    path = tmp_path / "model.rfasvm"
    path.write_bytes(b"RFASVM1" + bytes(10))
    with pytest.raises(FormatError, match="header"):
        rf.load_ranksvm(path)
