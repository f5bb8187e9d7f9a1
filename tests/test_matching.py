import numpy as np
import pytest

import matching_reference as ref
import rfanet as rf
from rfanet.errors import DataError, DegenerateProblemError
from rfanet.matching import _objective, pair_difference_features


def _cosine(a, b):
    """The cosine score of one pair through the matrix path."""
    return float(rf.CosineScorer().scores([a], [b])[0, 0])


# ---------------------------------------------------------------------------
# cosine
# ---------------------------------------------------------------------------

def test_cosine_parallel_and_orthogonal():
    assert _cosine([1, 0], [2, 0]) == pytest.approx(1.0)
    assert _cosine([1, 0], [0, 3]) == pytest.approx(0.0)
    assert _cosine([1, 1], [-1, -1]) == pytest.approx(-1.0)


def test_cosine_worked_example():
    # (3,4).(4,3) / (5*5) = 24/25
    assert _cosine([3, 4], [4, 3]) == pytest.approx(24 / 25, abs=1e-12)


def test_cosine_scale_invariant(rng):
    a, b = rng.standard_normal(8), rng.standard_normal(8)
    assert _cosine(a, b) == pytest.approx(_cosine(3.7 * a, 0.2 * b), abs=1e-12)


def test_cosine_accepts_embeddings(rng):
    a, b = rng.standard_normal(5), rng.standard_normal(5)
    ea, eb = rf.SequenceEmbedding(a), rf.SequenceEmbedding(b)
    assert _cosine(ea.values, eb.values) == _cosine(a, b)


def test_cosine_zero_vector_rejected():
    with pytest.raises(DataError, match="zero-norm"):
        rf.CosineScorer().scores([[0.0, 0.0]], [[1.0, 2.0]])


def test_cosine_dimension_mismatch():
    with pytest.raises(DataError):
        rf.CosineScorer().scores([[1.0, 2.0]], [[1.0, 2.0, 3.0]])


# ---------------------------------------------------------------------------
# ranking: compute_cmc ranks the gallery by descending score, ties broken by
# ascending gallery index
# ---------------------------------------------------------------------------

def test_rank_gallery_descending():
    probe = np.array([1.0, 0.0])
    gallery = np.array([[0.0, 1.0], [1.0, 0.1], [1.0, 1.0]])
    order = np.argsort(-rf.CosineScorer().scores([probe], gallery)[0], kind="stable")
    assert order.tolist() == [1, 2, 0]


def test_rank_gallery_stable_ties():
    class FixedScorer:
        def scores(self, P, G):
            assert P.shape == (1, 1) and G.shape == (3, 1)
            return np.array([[0.2, 0.9, 0.9]])

    # the scores order the gallery as 1, 2, 0: true match k ranks 3, 1, 2
    gallery = [rf.SequenceEmbedding([0.0], k, 1) for k in range(3)]
    for k, rank in enumerate((3, 1, 2)):
        probe = [rf.SequenceEmbedding([0.0], k, 0)]
        rates = rf.compute_cmc(probe, gallery, FixedScorer()).rates
        assert rates.tolist() == [0.0] * (rank - 1) + [1.0] * (4 - rank)


def test_rank_gallery_empty():
    with pytest.raises(DataError, match="empty gallery"):
        rf.compute_cmc([rf.SequenceEmbedding(np.ones(2), 0, 0)], [], "cosine")


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
    assert _objective(w, diffs @ w, 2.0) == pytest.approx(2.5 + 6.0)


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
    model = rf.train_ranksvm(probes, gallery, C=5.0, iters=2000)
    assert rf.ranking_accuracy(model, probes, gallery) == 1.0


def test_ranksvm_history_monotone(rng):
    probes, gallery = _separable_instance(rng)
    model = rf.train_ranksvm(probes, gallery, C=100.0, iters=1500)
    hist = np.array(model.objective_history)
    assert len(hist) == 1500
    assert np.all(np.diff(hist) <= 0.0)
    assert model.objective_history[-1] == pytest.approx(
        ref.hinge_objective(model.w, pair_difference_features(probes, gallery), 100.0)
    )


def test_ranksvm_matches_grid_search_oracle(rng):
    # exhaustive 2-D grid over the weight plane as an independent solver
    probes, gallery = _separable_instance(rng)
    diffs = pair_difference_features(probes, gallery)
    model = rf.train_ranksvm(probes, gallery, C=5.0, iters=10000)
    span = max(3.0 * np.abs(model.w).max(), 1.0)
    axis = np.linspace(-span, span, 1201)
    best = min(
        ref.hinge_objective(np.array([u, v]), diffs, 5.0) for u in axis for v in axis
    )
    assert model.objective_history[-1] <= best * 1.01


def test_ranksvm_tiny_c_shrinks_weights(rng):
    probes, gallery = _separable_instance(rng)
    model = rf.train_ranksvm(probes, gallery, C=1e-9, iters=200)
    assert np.linalg.norm(model.w) < 1e-3


def test_ranksvm_one_dimensional_sign():
    # scalar embeddings where true pairs are closer: optimum has w < 0
    probes = [np.array([0.0]), np.array([10.0]), np.array([20.0])]
    gallery = [np.array([1.0]), np.array([11.0]), np.array([21.0])]
    model = rf.train_ranksvm(probes, gallery, C=10.0, iters=2000)
    assert model.w[0] < 0.0
    assert rf.ranking_accuracy(model, probes, gallery) == 1.0


def test_ranksvm_deterministic(rng):
    probes, gallery = _separable_instance(rng)
    m1 = rf.train_ranksvm(probes, gallery, C=2.0, iters=300)
    m2 = rf.train_ranksvm(probes, gallery, C=2.0, iters=300)
    assert np.array_equal(m1.w, m2.w)
    assert m1.objective_history == m2.objective_history


def test_ranksvm_score_direction(rng):
    probes, gallery = _separable_instance(rng)
    model = rf.train_ranksvm(probes, gallery, C=5.0, iters=2000)
    scores = rf.RankSvmScorer(model).scores(probes, gallery)
    for i in range(len(probes)):
        for j in range(len(gallery)):
            if j != i:
                assert scores[i, i] > scores[i, j]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("side,index", [("probe", 3), ("gallery", 1)])
def test_ranksvm_rejects_non_finite_embedding(rng, bad, side, index):
    probes, gallery = _separable_instance(rng)
    model = rf.train_ranksvm(probes, gallery, C=5.0, iters=50)
    (probes if side == "probe" else gallery)[index][1] = bad
    with pytest.raises(DataError, match=f"{side} embedding {index} has a non-finite"):
        rf.train_ranksvm(probes, gallery, C=5.0, iters=50)
    with pytest.raises(DataError, match=f"{side} embedding {index} has a non-finite"):
        rf.ranking_accuracy(model, probes, gallery)


def test_ranking_accuracy_checks_inputs(rng):
    probes, gallery = _separable_instance(rng)
    model = rf.train_ranksvm(probes, gallery, C=5.0, iters=50)
    with pytest.raises(DataError, match="aligned"):
        rf.ranking_accuracy(model, probes, gallery[:-1])
    with pytest.raises(DataError, match="at least 2"):
        rf.ranking_accuracy(model, probes[:1], gallery[:1])


def test_ranking_accuracy_builds_no_pair_matrix():
    import tracemalloc

    data = np.random.default_rng(60)
    n, dim = 60, 5120
    probes = list(data.standard_normal((n, dim)))
    gallery = [p + 0.1 * data.standard_normal(dim) for p in probes]
    model = rf.RankSvmModel(-np.ones(dim), 1.0, 1)
    tracemalloc.start()
    try:
        accuracy = rf.ranking_accuracy(model, probes, gallery)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert accuracy == 1.0
    # the stacked embeddings are 2.5 MB each; the n(n-1) x dim pair matrix
    # would be 145 MB
    assert peak < 16 * 2**20, peak


def test_ranksvm_invalid_arguments(rng):
    probes, gallery = _separable_instance(rng)
    with pytest.raises(DataError):
        rf.train_ranksvm(probes, gallery, C=0.0)
    with pytest.raises(DataError):
        rf.train_ranksvm(probes, gallery, iters=0)


@pytest.mark.parametrize("C", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_ranksvm_rejects_non_finite_C(rng, C):
    probes, gallery = _separable_instance(rng)
    with pytest.raises(DataError, match="C must be finite"):
        rf.train_ranksvm(probes, gallery, C=C)

