"""The carried-margin RankSVM solver and the score-matrix CMC against the
per-iteration loop and the per-pair ranking in matching_reference.py.
Summation order differs (carried and scaled margins against fresh mat-vecs,
GEMMs against per-pair dot products), so the solver agrees to a tolerance;
the CMC inputs are integer-valued, so every score is exact and ties are
compared exactly."""

import numpy as np
import pytest

import matching_reference as ref
import rfanet as rf
import rfanet.matching as matching

RTOL = 1e-10


def _instance(rng, n, dim, separable):
    # separable: identities sit 2 apart, far beyond the pair noise
    probes, gallery = [], []
    for i in range(n):
        base = np.abs(rng.normal(0.0, 2.0, dim)) + (2.0 * i if separable else 0.0)
        probes.append(base + 0.05 * rng.standard_normal(dim))
        gallery.append(base - 0.05 * rng.standard_normal(dim))
    return probes, gallery


@pytest.mark.parametrize("separable", [True, False], ids=["separable", "non-separable"])
@pytest.mark.parametrize("C", [0.01, 1.0, 5.0, 100.0])
@pytest.mark.parametrize("n,dim", [(5, 2), (12, 30)])
def test_ranksvm_matches_reference(separable, C, n, dim):
    rng = np.random.default_rng(n * dim)
    probes, gallery = _instance(rng, n, dim, separable)
    w, history = ref.train_ranksvm(probes, gallery, C, 1500)
    model = rf.train_ranksvm(probes, gallery, C=C, iters=1500)
    np.testing.assert_allclose(model.w, w, rtol=RTOL, atol=RTOL * np.abs(w).max())
    np.testing.assert_allclose(model.objective_history, history, rtol=RTOL)
    assert np.all(np.diff(model.objective_history) <= 0.0)


def test_ranksvm_objective_needs_no_pass_over_pairs(rng, monkeypatch):
    def forbidden(*args):
        raise AssertionError("hinge_objective called during training")

    monkeypatch.setattr(matching, "hinge_objective", forbidden)
    probes, gallery = _instance(rng, 6, 4, True)
    model = rf.train_ranksvm(probes, gallery, C=5.0, iters=200)
    monkeypatch.undo()
    diffs = matching.pair_difference_features(probes, gallery)
    assert model.final_objective == pytest.approx(
        matching.hinge_objective(model.w, diffs, 5.0), rel=1e-12
    )


def test_pair_difference_rows_match_per_pair_order(rng):
    probes = [rng.standard_normal(3) for _ in range(4)]
    gallery = [rng.standard_normal(3) for _ in range(4)]
    rows = [
        np.abs(probes[i] - gallery[i]) - np.abs(probes[i] - gallery[j])
        for i in range(4) for j in range(4) if j != i
    ]
    assert np.array_equal(matching.pair_difference_features(probes, gallery), np.stack(rows))


def _tied_set(rng, n, dim):
    """Small-integer embeddings: many exact score ties, gallery vectors
    repeated under other ids, probes equal to repeated gallery vectors."""
    gallery = rng.integers(-2, 3, (n, dim)).astype(float)
    gallery[gallery.sum(axis=1) == 0, 0] = 3.0  # keep every norm non-zero
    for dst, src in ((5, 2), (9, 2), (17, 40), (41, 40), (70, 3)):
        gallery[dst] = gallery[src]
    probes = rng.integers(-2, 3, (n, dim)).astype(float)
    probes[probes.sum(axis=1) == 0, 0] = -3.0
    probes[[2, 9, 41]] = gallery[[2, 2, 40]]
    ids = rng.permutation(1000)[:n]
    order = rng.permutation(n)
    return (
        [rf.SequenceEmbedding(probes[k], int(ids[k]), 0) for k in order],
        [rf.SequenceEmbedding(gallery[k], int(ids[k]), 1) for k in range(n)],
    )


# 80 probes span two probe blocks, 80 gallery entries five gallery blocks
@pytest.mark.parametrize("dim", [2, 3, 6])
def test_cmc_matches_per_pair_reference_with_ties(dim):
    rng = np.random.default_rng(dim)
    probes, gallery = _tied_set(rng, 80, dim)
    w = rng.integers(-3, 4, dim).astype(float)
    svm = rf.RankSvmModel(w, 1.0, 1, 0)
    for scorer, score in (
        ("cosine", ref.cosine_score),
        (rf.RankSvmScorer(svm), lambda a, b: ref.ranksvm_score(w, a, b)),
    ):
        expected = ref.compute_cmc(probes, gallery, score)
        assert np.array_equal(rf.compute_cmc(probes, gallery, scorer).rates, expected)


def test_rank_gallery_matches_per_pair_reference():
    rng = np.random.default_rng(5)
    probes, gallery = _tied_set(rng, 80, 3)
    values = [g.values for g in gallery]
    for probe in probes[:10]:
        scores = np.array([ref.cosine_score(probe.values, g) for g in values])
        expected = np.argsort(-scores, kind="stable")
        assert np.array_equal(rf.rank_gallery(probe, values, "cosine"), expected)


def test_score_matrices_match_per_pair_scores(rng):
    P, G = rng.standard_normal((5, 40)), rng.standard_normal((37, 40))
    w = rng.standard_normal(40)
    cos = rf.CosineScorer().scores(P, G)
    svm = rf.RankSvmScorer(rf.RankSvmModel(w, 1.0, 1, 0)).scores(P, G)
    assert cos.shape == svm.shape == (5, 37)
    for i in range(5):
        for j in range(37):
            assert cos[i, j] == pytest.approx(ref.cosine_score(P[i], G[j]), rel=1e-12)
            assert svm[i, j] == pytest.approx(ref.ranksvm_score(w, P[i], G[j]), rel=1e-12)


def test_ranksvm_scores_reject_model_dimension():
    scorer = rf.RankSvmScorer(rf.RankSvmModel(np.ones(3), 1.0, 1, 0))
    with pytest.raises(rf.DataError, match="dimension"):
        scorer.scores(np.ones((2, 4)), np.ones((3, 4)))
