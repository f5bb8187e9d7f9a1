import numpy as np
import pytest

import matching_reference as ref
import rfanet as rf
import rfanet.matching as matching
from rfanet.errors import DataError, DegenerateProblemError, RfaError
from rfanet.matching import _objective, pair_difference_features


def _cosine(a, b):
    """The cosine score of one pair through the matrix path."""
    return float(matching.bind_scorer("cosine", [b])([a])[0, 0])


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
        matching.bind_scorer("cosine", [[1.0, 2.0]])([[0.0, 0.0]])


def test_cosine_dimension_mismatch():
    with pytest.raises(DataError):
        matching.bind_scorer("cosine", [[1.0, 2.0, 3.0]])([[1.0, 2.0]])


# ---------------------------------------------------------------------------
# ranking: compute_cmc ranks the gallery by descending score, ties broken by
# ascending gallery index
# ---------------------------------------------------------------------------

def test_rank_gallery_descending():
    probe = np.array([1.0, 0.0])
    gallery = np.array([[0.0, 1.0], [1.0, 0.1], [1.0, 1.0]])
    order = np.argsort(-matching.bind_scorer("cosine", gallery)([probe])[0], kind="stable")
    assert order.tolist() == [1, 2, 0]


def test_rank_gallery_stable_ties():
    # cosine scores 0.2, 0.9, 0.9 (and the negated L1 distance the same
    # order), rows 1 and 2 bit-identical: the scores order the gallery as
    # 1, 2, 0, so true match k ranks 3, 1, 2
    rows = [[0.2, 0.96 ** 0.5], [0.9, 0.19 ** 0.5], [0.9, 0.19 ** 0.5]]
    gallery = [rf.SequenceEmbedding(row, k, 1) for k, row in enumerate(rows)]
    for scorer in ("cosine", rf.RankSvmScorer(rf.RankSvmModel(-np.ones(2), 1.0, 1))):
        for k, rank in enumerate((3, 1, 2)):
            probe = [rf.SequenceEmbedding([1.0, 0.0], k, 0)]
            rates = rf.compute_cmc(probe, gallery, scorer).rates
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


def _history_monotone(probes, gallery):
    model = rf.train_ranksvm(probes, gallery, C=100.0, iters=1500)
    hist = np.array(model.objective_history)
    assert len(hist) == 1500
    assert np.all(np.diff(hist) <= 0.0)
    assert model.objective_history[-1] == pytest.approx(
        ref.hinge_objective(model.w, pair_difference_features(probes, gallery), 100.0)
    )


def test_ranksvm_history_monotone(rng):
    _history_monotone(*_separable_instance(rng))


# blocks of one gallery row and of 3, which leave a partial last block of 2
def test_streamed_ranksvm_history_monotone(rng, gallery_block):
    probes, gallery = _separable_instance(rng)
    for k in (1, 3):
        gallery_block(k)
        _history_monotone(probes, gallery)


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
    scores = matching.bind_scorer(rf.RankSvmScorer(model), gallery)(probes)
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


@pytest.mark.parametrize("probes,gallery", [
    ([[1.0, 1.0]] * 3, [[1.0, 1.0]] * 3),
    ([[0.0], [0.0]], [[1.0], [-1.0]]),   # |p - g| is 1 for every pair
    ([[]] * 3, [[]] * 3),                 # no dimensions: no pair feature at all
], ids=["identical", "mirrored", "empty"])
def test_ranksvm_rejects_identical_pair_features(block_sizes, probes, gallery):
    probes, gallery = np.array(probes), np.array(gallery)
    for _ in block_sizes(len(probes)):
        with pytest.raises(DegenerateProblemError, match="all pair features are identical"):
            rf.train_ranksvm(probes, gallery, iters=5)


def test_ranksvm_accepts_a_last_probe_with_distinct_pairs(block_sizes):
    # probes 0 and 1 see |p - g| = 1 in every pair, probe 2 does not
    probes, gallery = np.array([[0.0], [0.0], [10.0]]), np.array([[1.0], [-1.0], [1.0]])
    for _ in block_sizes(3):
        assert rf.train_ranksvm(probes, gallery, iters=5).objective_history


# desk-noise's fit, one gallery block of all 10 rows, and full-match's fit,
# blocks of 16 and 14 rows: neither builds the n(n-1) x dim pair matrix
@pytest.mark.parametrize("n,dim", [(10, 80), (30, 5120)])
def test_fit_never_builds_the_pair_matrix(monkeypatch, n, dim):
    def built(*_args):
        raise AssertionError("the fit built the pair matrix")

    monkeypatch.setattr(matching, "pair_difference_features", built)
    data = np.random.default_rng(n)
    probes = data.standard_normal((n, dim))
    rf.train_ranksvm(probes, probes + data.standard_normal((n, dim)), iters=2)


def test_streamed_fit_memory_stays_bounded():
    import tracemalloc

    data = np.random.default_rng(150)
    n, dim = 150, 5120
    probes = list(data.standard_normal((n, dim)))
    gallery = [p + 0.5 * data.standard_normal(dim) for p in probes]
    tracemalloc.start()
    try:
        model = rf.train_ranksvm(probes, gallery, C=1.0, iters=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every pair violates at w = 0, where the objective is C n(n-1)
    assert model.objective_history[-1] < n * (n - 1)
    # the stacked embeddings are 6.1 MB each; the n(n-1) x dim pair matrix
    # would be 915 MB
    assert peak < 32 * 2**20, peak


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



# ---------------------------------------------------------------------------
# malformed embeddings and arguments: each entry point that reaches one ends
# in an RfaError, not a numpy traceback
# ---------------------------------------------------------------------------

_ROWS = [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 1.0, 0.0]]
_RAGGED = [[0.0, 1.0, 2.0], [1.0, 0.0], [2.0, 1.0, 0.0]]
_TWO_D = [np.eye(2) * k for k in range(1, 4)]
_WIDTH_4 = [row + [3.0] for row in _ROWS]
_STRINGS = [["a", "b", "c"]] * 3
_SVM = rf.RankSvmScorer(rf.RankSvmModel(np.ones(3), 1.0, 1))


def _accuracy(probes, gallery):
    return rf.ranking_accuracy(rf.RankSvmModel(np.ones(3), 1.0, 1), probes, gallery)


def _cmc(values=None, scorer="cosine"):
    """compute_cmc on 3 persons; gallery id k's values become (k + 1) * values
    after construction, which SequenceEmbedding would refuse."""
    probes = [rf.SequenceEmbedding([1.0, k], k, 0) for k in range(3)]
    gallery = [rf.SequenceEmbedding([1.0, k], k, 1) for k in range(3)]
    if values is not None:
        for k, g in enumerate(gallery):
            g.values = (k + 1) * values
    return rf.compute_cmc(probes, gallery, scorer)


_MALFORMED = {
    "train_ranksvm-ragged": lambda: rf.train_ranksvm(_RAGGED, _ROWS, iters=5),
    "train_ranksvm-2-D": lambda: rf.train_ranksvm(_TWO_D, _TWO_D, iters=5),
    "train_ranksvm-width-3-vs-4": lambda: rf.train_ranksvm(_ROWS, _WIDTH_4, iters=5),
    "train_ranksvm-strings": lambda: rf.train_ranksvm(_STRINGS, _ROWS, iters=5),
    "train_ranksvm-iters-2.5": lambda: rf.train_ranksvm(_ROWS, _ROWS[::-1], iters=2.5),
    "train_ranksvm-huge-int": lambda: rf.train_ranksvm([[10**400, 0.0]] + _ROWS[1:], _ROWS, iters=5),
    "pair_difference_features-ragged": lambda: pair_difference_features(_ROWS, _RAGGED),
    "pair_difference_features-2-D": lambda: pair_difference_features(_TWO_D, _TWO_D[::-1]),
    "pair_difference_features-width-3-vs-4": lambda: pair_difference_features(_ROWS, _WIDTH_4),
    "pair_difference_features-strings": lambda: pair_difference_features(_ROWS, _STRINGS),
    "ranking_accuracy-ragged": lambda: _accuracy(_RAGGED, _ROWS),
    "ranking_accuracy-strings": lambda: _accuracy(_ROWS, _STRINGS),
    "compute_cmc-0-d": lambda: _cmc(np.float64(1.0)),
    "compute_cmc-2-D": lambda: _cmc(np.eye(2)),
    "compute_cmc-scorer-ranksvm": lambda: _cmc(scorer="ranksvm"),
    "compute_cmc-scorer-None": lambda: _cmc(scorer=None),
    "compute_cmc-scorer-array": lambda: _cmc(scorer=np.ones(3)),
    "compute_cmc-bare-arrays": lambda: rf.compute_cmc(np.eye(3), np.eye(3), "cosine"),
    "compute_cmc-ranksvm-w-list": lambda: _cmc(scorer=rf.RankSvmScorer(
        rf.RankSvmModel([1.0, 1.0, 1.0], 1.0, 1))),
    "train_ranksvm-C-string": lambda: rf.train_ranksvm(_ROWS, _ROWS[::-1], C="1", iters=5),
    "train_ranksvm-C-True": lambda: rf.train_ranksvm(_ROWS, _ROWS[::-1], C=True, iters=5),
    "train_ranksvm-iters-True": lambda: rf.train_ranksvm(_ROWS, _ROWS[::-1], iters=True),
    "bind_scorer-gallery-strings": lambda: matching.bind_scorer("cosine", _STRINGS),
    "bind_scorer-gallery-ragged": lambda: matching.bind_scorer(_SVM, _RAGGED),
    "bind_scorer-probes-strings": lambda: matching.bind_scorer(_SVM, _ROWS)(_STRINGS),
    "bind_scorer-probes-ragged": lambda: matching.bind_scorer("cosine", _ROWS)(_RAGGED),
    "SequenceEmbedding-strings": lambda: rf.SequenceEmbedding(["a"]),
    "SequenceEmbedding-2-D": lambda: rf.SequenceEmbedding(np.eye(2)),
    "SequenceEmbedding-dim-0": lambda: rf.SequenceEmbedding(np.empty(0)),
    "SequenceEmbedding-huge-int": lambda: rf.SequenceEmbedding([10**400]),
}


@pytest.mark.parametrize("call", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_input_is_an_rfa_error(call):
    with pytest.raises(RfaError):
        call()


# a (2, 2) value was written flattened and read back with dimension 4, and a
# dimension-0, NaN or beyond-float32 value was written to a file that
# read_embeddings refuses; values replaced after the embedding was built were
# written unchecked, and a list of strings ended in AttributeError
@pytest.mark.parametrize("values,built", [
    (np.eye(2), True), (np.empty(0), True),
    (np.eye(2), False), (np.empty(0), False), (np.array([np.nan, 1.0]), False),
    (np.array([1e39, 1.0]), True), (["a", "b"], False),
], ids=["2-D-built", "dim-0-built", "2-D-replaced", "dim-0-replaced", "nan-replaced",
        "beyond-float32-built", "strings-replaced"])
def test_embedding_file_round_trip_refuses_unreadable_values(tmp_path, values, built):
    path = tmp_path / "one.emb"
    with pytest.raises(RfaError):
        emb = rf.SequenceEmbedding(values if built else [1.0, 2.0], 0, 0)
        emb.values = values
        rf.write_embeddings(path, [emb])
        rf.read_embeddings(path)
    assert not path.exists()


@pytest.mark.parametrize("call,name", [
    (lambda: matching.bind_scorer("cosine", np.zeros(3)), "gallery"),
], ids=["gallery-1-D"])
def test_matching_refuses_bad_input(call, name):
    with pytest.raises(DataError, match=name):
        call()
