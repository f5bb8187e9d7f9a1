"""The carried-margin RankSVM solver and the score-matrix CMC against the
per-iteration loop and the per-pair ranking in matching_reference.py.
Summation order differs (carried and scaled margins against fresh mat-vecs,
GEMMs against per-pair dot products), so the solver agrees to a tolerance;
the CMC inputs are integer-valued, so every score is exact and ties are
compared exactly."""

import math

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


def test_ranksvm_objective_needs_no_pass_over_pairs(rng):
    # the carried margins give the objective of the returned w
    probes, gallery = _instance(rng, 6, 4, True)
    model = rf.train_ranksvm(probes, gallery, C=5.0, iters=200)
    diffs = matching.pair_difference_features(probes, gallery)
    assert model.objective_history[-1] == pytest.approx(
        ref.hinge_objective(model.w, diffs, 5.0), rel=1e-12
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
    svm = rf.RankSvmModel(w, 1.0, 1)
    for scorer, score in (
        ("cosine", ref.cosine_score),
        (rf.RankSvmScorer(svm), lambda a, b: ref.ranksvm_score(w, a, b)),
    ):
        expected = ref.compute_cmc(probes, gallery, score)
        assert np.array_equal(rf.compute_cmc(probes, gallery, scorer).rates, expected)


def test_rank_gallery_matches_per_pair_reference():
    # a stable sort of a score-matrix row orders the gallery as per-pair scores do
    rng = np.random.default_rng(5)
    probes, gallery = _tied_set(rng, 80, 3)
    values = [g.values for g in gallery]
    S = rf.CosineScorer().scores([p.values for p in probes[:10]], values)
    for probe, row in zip(probes, S):
        scores = np.array([ref.cosine_score(probe.values, g) for g in values])
        expected = np.argsort(-scores, kind="stable")
        assert np.array_equal(np.argsort(-row, kind="stable"), expected)


def test_score_matrices_match_per_pair_scores(rng):
    P, G = rng.standard_normal((5, 40)), rng.standard_normal((37, 40))
    w = rng.standard_normal(40)
    cos = rf.CosineScorer().scores(P, G)
    svm = rf.RankSvmScorer(rf.RankSvmModel(w, 1.0, 1)).scores(P, G)
    assert cos.shape == svm.shape == (5, 37)
    for i in range(5):
        for j in range(37):
            assert cos[i, j] == pytest.approx(ref.cosine_score(P[i], G[j]), rel=1e-12)
            assert svm[i, j] == pytest.approx(ref.ranksvm_score(w, P[i], G[j]), rel=1e-12)


# 291 = 36 * 8 + 3 = 18 * 16 + 3: the last rows are edge rows of the cosine
# GEMM and of the RankSVM's last gallery block, where BLAS sums in another order
@pytest.mark.parametrize("dim", [7, 130, 5120])
def test_cmc_ranks_bit_identical_gallery_rows_as_ties(dim):
    rng = np.random.default_rng(dim)
    n = 291
    G = rng.standard_normal((n, dim))
    P = G + 0.5 * rng.standard_normal((n, dim))
    G[n - 3:] = G[:3]          # twins of rows 0-2 in the last rows
    G[10] = G[3, ::-1]         # same bit-sum fingerprint as row 3, not a twin
    probes = [rf.SequenceEmbedding(P[k], k, 0) for k in range(n)]
    gallery = [rf.SequenceEmbedding(G[k], k, 1) for k in range(n)]
    w = -rng.uniform(0.5, 1.5, dim)
    svm = rf.RankSvmModel(w, 1.0, 1)
    for scorer, score in (
        ("cosine", ref.cosine_score),
        (rf.RankSvmScorer(svm), lambda a, b: ref.ranksvm_score(w, a, b)),
    ):
        expected = ref.compute_cmc(probes, gallery, score)
        assert np.array_equal(rf.compute_cmc(probes, gallery, scorer).rates, expected)


# |S - exact| <= SCORE_ROUNDING * eps * sum_k |w_k| (|p_k| + |g_k|): the
# kernel's dot products and the fsum reference's rounded terms |p - g| * w
SCORE_ROUNDING = 8


@pytest.mark.parametrize("kind", ["normal", "offset", "equal"])
@pytest.mark.parametrize("dim", [7, 5120])
def test_ranksvm_scores_within_rounding_bound(kind, dim):
    rng = np.random.default_rng(dim)
    w = rng.standard_normal(dim)
    w[rng.random(dim) < 0.25] = 0.0
    w[0] = 0.0
    P, G = rng.standard_normal((20, dim)), rng.standard_normal((37, dim))
    if kind == "offset":       # a common offset 100x the spread
        P += 100.0
        G += 100.0
    if kind == "equal":        # p = g exactly: every diagonal score is 0
        G[:20] = P
    S = rf.RankSvmScorer(rf.RankSvmModel(w, 1.0, 1)).scores(P, G)
    for i in range(len(P)):
        for j in range(len(G)):
            exact = math.fsum(w * np.abs(P[i] - G[j]))
            bound = np.abs(w) @ (np.abs(P[i]) + np.abs(G[j]))
            assert abs(S[i, j] - exact) <= SCORE_ROUNDING * np.finfo(float).eps * bound


def test_ranksvm_scores_reject_model_dimension():
    scorer = rf.RankSvmScorer(rf.RankSvmModel(np.ones(3), 1.0, 1))
    with pytest.raises(rf.DataError, match="dimension"):
        scorer.scores(np.ones((2, 4)), np.ones((3, 4)))
