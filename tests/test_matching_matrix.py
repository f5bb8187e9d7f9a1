"""The stretch-form RankSVM solver and the score-matrix CMC against the
per-iteration loop and the per-pair ranking in matching_reference.py.
While the violated mask holds, the solver keeps w and w_avg as combinations
of three vectors and their margins as the same combinations of three
margin rows, with norms from a 3 x 3 Gram matrix; the reference recomputes
diffs @ w and w_avg's objective from the pair matrix every step. Summation
order differs (and GEMMs against per-pair dot products), so the solver
agrees to a tolerance; the CMC inputs are integer-valued, so every score is
exact and ties are compared exactly."""

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


def _assert_matches(probes, gallery, C, iters):
    """The fit's w and history against the reference's, which it returns."""
    w, history = ref.train_ranksvm(probes, gallery, C, iters)
    model = rf.train_ranksvm(probes, gallery, C=C, iters=iters)
    np.testing.assert_allclose(model.w, w, rtol=RTOL, atol=RTOL * np.abs(w).max())
    np.testing.assert_allclose(model.objective_history, history, rtol=RTOL)
    assert np.all(np.diff(model.objective_history) <= 0.0)
    return history


def _matches_reference(separable, C, n, dim):
    rng = np.random.default_rng(n * dim)
    _assert_matches(*_instance(rng, n, dim, separable), C, 1500)


_separable = pytest.mark.parametrize("separable", [True, False],
                                     ids=["separable", "non-separable"])
_C = pytest.mark.parametrize("C", [0.01, 1.0, 5.0, 100.0])
_size = pytest.mark.parametrize("n,dim", [(5, 2), (12, 30)])


# at the real block budget every instance here is one block of all its probes
@_separable
@_C
@_size
def test_ranksvm_matches_reference(separable, C, n, dim):
    _matches_reference(separable, C, n, dim)


# blocks of one probe, and of 3 and 5 probes, which leave a partial last
# block at n = 5 and at n = 12
@_separable
@_C
@_size
def test_streamed_ranksvm_matches_reference(probe_block, separable, C, n, dim):
    for k in (1, 3, 5):
        probe_block(k, n, dim)
        _matches_reference(separable, C, n, dim)


def _full_match(seed, n, dim):
    """full-match's training embeddings (bench/workloads.py FullMatch) at n
    ids and dimension dim: identity prototypes, one camera shift and
    per-dimension noise of scales from 0.5 to 6."""
    rng = np.random.default_rng(seed)
    shift = 0.5 * rng.standard_normal(dim)
    scale = rng.uniform(0.5, 6.0, dim)
    protos = rng.standard_normal((n, dim))
    probes, gallery = [], []
    for proto in protos:
        probes.append(proto + scale * rng.standard_normal(dim))
        gallery.append(proto + shift + scale * rng.standard_normal(dim))
    return probes, gallery


def _all_violated():
    # rows too short for any margin to reach 1 inside the ball: every pair
    # stays violated, w stays put after step 1 and so does the objective
    rng = np.random.default_rng(80)
    return list(0.005 * rng.standard_normal((10, 80))), list(0.005 * rng.standard_normal((10, 80)))


# the benchmark's two regimes: desk-noise's fit keeps one mask of every pair
# and is best at step 1; full-match's first step leaves no pair violated,
# and masks return one at a time as w shrinks (5 non-empty masks here, the
# last at step 1,239)
@pytest.mark.parametrize("instance,masks_made", [
    (_all_violated, 1), (lambda: _full_match(3, 8, 256), 5),
], ids=["all-violated", "stall"])
def test_ranksvm_regimes_match_reference(monkeypatch, instance, masks_made):
    probes, gallery = instance()
    masks, passes = [], []
    violated_sum, margins = matching._StreamedPairs.violated_sum, matching._StreamedPairs.margins

    def counted_sum(self, violated):
        masks.append(violated.tobytes())
        return violated_sum(self, violated)

    def counted_margins(self, w):
        passes.append(w.shape)
        return margins(self, w)

    monkeypatch.setattr(matching._StreamedPairs, "violated_sum", counted_sum)
    monkeypatch.setattr(matching._StreamedPairs, "margins", counted_margins)
    history = _assert_matches(probes, gallery, 1.0, 2000)
    # one violated sum and one margins pass per distinct violated mask
    assert len(passes) == len(masks) == len(set(masks)) == masks_made
    if masks_made == 1:
        assert history == [history[0]] * 2000


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


# 80 probes span two probe blocks, 80 gallery entries five gallery blocks;
# 83 gallery entries leave a last gallery block of 3 rows
@pytest.mark.parametrize("dim,n", [(2, 80), (3, 80), (6, 80), (6, 83)],
                         ids=["2", "3", "6", "6-83"])
def test_cmc_matches_per_pair_reference_with_ties(dim, n):
    rng = np.random.default_rng(dim)
    probes, gallery = _tied_set(rng, n, dim)
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
    assert np.array_equal(rf.RankSvmScorer(rf.RankSvmModel(list(w), 1.0, 1)).scores(P, G), svm)
    assert cos.shape == svm.shape == (5, 37)
    for i in range(5):
        for j in range(37):
            assert cos[i, j] == pytest.approx(ref.cosine_score(P[i], G[j]), rel=1e-12)
            assert svm[i, j] == pytest.approx(ref.ranksvm_score(w, P[i], G[j]), rel=1e-12)


def test_cosine_cmc_computes_gallery_norms_once(monkeypatch):
    # 150 probes make three probe blocks; the gallery's norms are one computation
    rng = np.random.default_rng(150)
    n, dim = 150, 8
    G = rng.standard_normal((n, dim))
    P = G + 0.5 * rng.standard_normal((n, dim))
    probes = [rf.SequenceEmbedding(P[k], k, 0) for k in range(n)]
    gallery = [rf.SequenceEmbedding(G[k], k, 1) for k in range(n)]
    expected = ref.compute_cmc(probes, gallery, ref.cosine_score)
    norm, shapes = np.linalg.norm, []

    def counted_norm(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    assert np.array_equal(rf.compute_cmc(probes, gallery, "cosine").rates, expected)
    assert shapes.count((n, dim)) == 1
    assert sorted(shapes) == [(22, dim), (64, dim), (64, dim), (n, dim)]


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
