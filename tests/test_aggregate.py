import re
import struct
import warnings

import numpy as np
import pytest

import rfanet as rf
import rfanet.aggregate as aggregate
from rfanet.aggregate import _derive_seed, _unroll, embed_projected, sample_starts
from rfanet.errors import ConfigurationError, DataError, FormatError


@pytest.fixture
def model():
    return rf.init_model(4, 3, 2, seed=7, init_bound=0.4)


def _embed_window(model, xs):
    """The embedding of the one window of xs: K=1 windows of length T."""
    return rf.embed_sequence(model, xs, rf.AggregationConfig(len(xs), 1, seed=0)).values


def test_subsequence_layout_is_time_major(model, rng):
    xs = rng.standard_normal((5, 4))
    hs = _unroll(model, rf.project(model, xs))
    emb = _embed_window(model, xs)
    assert emb.shape == (15,)
    for t in range(5):
        assert np.array_equal(emb[t * 3 : (t + 1) * 3], hs[t])


def test_hidden_states_prefix_consistency(model, rng):
    # the LSTM is causal: running a prefix gives the prefix of the states
    xs = rng.standard_normal((6, 4))
    full = _unroll(model, rf.project(model, xs))
    assert _unroll(model, rf.project(model, xs[:4])) == pytest.approx(full[:4], abs=1e-15)


def test_zero_model_zero_embedding(rng):
    model = rf.init_model(4, 3, 2, seed=0)
    for p in model.params.values():
        p[...] = 0.0
    emb = rf.embed_sequence(model, rng.standard_normal((8, 4)), rf.AggregationConfig(3, 4, 0))
    assert np.all(emb.values == 0.0)


def test_sample_starts_range_and_determinism():
    starts = sample_starts(20, 5, 50, seed=9)
    assert starts.min() >= 0 and starts.max() <= 15
    assert np.array_equal(starts, sample_starts(20, 5, 50, seed=9))
    assert not np.array_equal(starts, sample_starts(20, 5, 50, seed=10))


def test_sequence_shorter_than_window(model, rng):
    with pytest.raises(DataError, match="shorter"):
        rf.embed_sequence(model, rng.standard_normal((2, 4)), rf.AggregationConfig(3, 2, 0))


def test_embed_sequence_rejects_negative_seed(model, rng):
    with pytest.raises(ConfigurationError, match="aggregation.seed must be >= 0, got -1"):
        rf.embed_sequence(model, rng.standard_normal((8, 4)), rf.AggregationConfig(3, 2, -1))


@pytest.mark.parametrize("L,K", [(0, 2), (3, 0)])
def test_aggregation_config_rejects_empty_window_set(L, K):
    with pytest.raises(ConfigurationError, match="must be >= 1"):
        rf.AggregationConfig(L, K, 0).validate()


def test_degenerate_t_equals_l(model, rng):
    # only one possible window, so K draws all coincide with it
    xs = rng.standard_normal((3, 4))
    emb = rf.embed_sequence(model, xs, rf.AggregationConfig(3, 7, seed=2))
    assert emb.values == pytest.approx(_embed_window(model, xs), abs=1e-15)


def test_k_equals_one_single_window(model, rng):
    xs = rng.standard_normal((10, 4))
    cfg = rf.AggregationConfig(4, 1, seed=5)
    start = sample_starts(10, 4, 1, _derive_seed(5, -1, 0))[0]  # the default key (-1, 0)
    emb = rf.embed_sequence(model, xs, cfg)
    assert emb.values == pytest.approx(
        _embed_window(model, xs[start : start + 4]), abs=1e-15
    )


def test_mean_over_sampled_windows(model, rng):
    xs = rng.standard_normal((12, 4))
    cfg = rf.AggregationConfig(4, 3, seed=11)
    starts = sample_starts(12, 4, 3, _derive_seed(11, 6, 1))
    expected = np.mean(
        [_embed_window(model, xs[s : s + 4]) for s in starts], axis=0
    )
    emb = rf.embed_sequence(model, xs, cfg, source_id=6, camera=1)
    assert emb.values == pytest.approx(expected, abs=1e-12)
    assert emb.source_id == 6 and emb.camera == 1


def test_depth_slices_full_embedding(model, rng):
    # the depth-t embedding, the t-th H-block of the full one, is the mean of
    # h_t over the K windows
    xs = rng.standard_normal((9, 4))
    full = rf.embed_sequence(model, xs, rf.AggregationConfig(4, 5, seed=3)).values
    starts = sample_starts(9, 4, 5, _derive_seed(3, -1, 0))
    hs = np.array([_unroll(model, rf.project(model, xs[s : s + 4])) for s in starts])
    for depth in range(1, 5):
        assert full[(depth - 1) * 3 : depth * 3] == pytest.approx(
            hs[:, depth - 1].mean(axis=0), abs=1e-12
        )


@pytest.mark.parametrize("T,L,K", [(9, 4, 7), (30, 5, 15), (10, 10, 3), (2**33, 10, 12)])
@pytest.mark.parametrize("seed", [0, 5, 2**40])
def test_sample_starts_prefix_is_fewer_windows(T, L, K, seed):
    # a subseq sweep compares K windows with fewer: the first k of one draw
    starts = sample_starts(T, L, K, seed)
    for k in range(1, K):
        assert np.array_equal(sample_starts(T, L, k, seed), starts[:k])


def _max_scaled_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


# a BLAS may round a row of a product differently for another row count, and
# OpenBLAS 0.3.31 does at H = 32: there a batch is held to 1e-15 of the values'
# scale, and at H = 3 and the desk geometry (H = 16) to the bit
@pytest.mark.parametrize("hidden, exact", [(3, True), (32, False)], ids=["H3", "H32"])
@pytest.mark.parametrize("block", [aggregate._WINDOW_BLOCK, 1], ids=["one-batch", "per-sequence"])
def test_batched_embedding_matches_per_sequence(rng, monkeypatch, block, hidden, exact):
    # sequences of different lengths and keys, stacked into one descriptor
    # matrix and projected once, at several window counts; with a block of
    # 1 value every sequence runs as its own batch
    monkeypatch.setattr(aggregate, "_WINDOW_BLOCK", block)
    model = rf.init_model(4, hidden, 2, seed=7, init_bound=0.4)
    lengths = (9, 4, 12, 6, 4)
    seqs = [rng.standard_normal((T, 4)) for T in lengths]
    keys = [(7, 1), (3, 0), (12, 1), (-2, 0), (3, 1)]  # results follow this order
    starts = np.cumsum((0,) + lengths)
    rows = {key: np.arange(a, b) for key, a, b in zip(keys, starts[:-1], starts[1:])}
    ax = rf.project(model, np.concatenate(seqs))

    def assert_alone(got, xs, key):
        alone = rf.embed_sequence(model, xs, cfg, *key).values  # the sequence alone
        if exact:
            assert got.values.tobytes() == alone.tobytes()
        else:
            assert _max_scaled_error(got.values, alone) <= 1e-15

    for K in (3, 2, 5, 4, 7):
        cfg = rf.AggregationConfig(4, K, seed=10)
        embs = embed_projected(model, ax, rows, cfg)
        assert [(e.source_id, e.camera) for e in embs] == keys
        for xs, key, got in zip(seqs, keys, embs):
            assert got.values.shape == (4 * hidden,)
            assert_alone(got, xs, key)

    # rows may be any rows of ax, in any order: a reversed sequence
    back = embed_projected(model, ax, {keys[0]: rows[keys[0]][::-1]}, cfg)[0]
    assert_alone(back, seqs[0][::-1], keys[0])


@pytest.mark.parametrize("hidden, exact", [(16, True), (32, False)], ids=["desk", "H32"])
def test_prefix_means_equal_per_count_embeddings(rng, hidden, exact):
    # a subseq sweep reads level k as the mean of the first k windows of one
    # draw of max(levels); it is the embedding that a draw of k gives
    cfg = rf.desk_scale()
    model = rf.init_model(cfg.feature_dim, hidden, 10, seed=3)
    T = 30
    ax = rf.project(model, rng.random((6 * T, cfg.feature_dim)))
    rows = {(pid, cam): np.arange(2 * pid + cam, 6 * T, 6)[:T]
            for pid in range(3) for cam in (0, 1)}
    counts = (1, 5, 10, 15)
    means = aggregate._window_means(model, ax, rows, cfg.agg, counts)
    assert means.shape == (len(counts), len(rows), hidden * cfg.agg.subseq_len)
    for k, got in zip(counts, means):
        want = np.array([e.values for e in embed_projected(
            model, ax, rows, rf.AggregationConfig(cfg.agg.subseq_len, k, cfg.agg.seed))])
        if exact:
            assert got.tobytes() == want.tobytes()
        else:
            assert _max_scaled_error(got, want) <= 1e-15


def test_one_window_of_one_sequence(model, rng):
    # K_max = 1 and one sequence: the batch is a single window, whose product
    # numpy computes as a matrix-vector product, and its mean is that window
    ax = rf.project(model, rng.standard_normal((7, 4)))
    rows, cfg = {(4, 1): np.arange(7)}, rf.AggregationConfig(3, 1, seed=2)
    means = aggregate._window_means(model, ax, rows, cfg, [1])
    start = sample_starts(7, 3, 1, _derive_seed(2, 4, 1))[0]
    window = _unroll(model, ax[start : start + 3])
    assert means.shape == (1, 1, 9)
    assert means[0, 0].tobytes() == window.reshape(-1).tobytes()
    emb = embed_projected(model, ax, rows, cfg)[0]
    assert emb.values.tobytes() == means[0, 0].tobytes()


def test_batched_embedding_checks(model, rng):
    ax = rf.project(model, rng.standard_normal((8, 4)))
    rows, cfg = {(0, 0): np.arange(8)}, rf.AggregationConfig(3, 2)
    with pytest.raises(DataError, match="shorter"):
        embed_projected(model, ax, {(0, 0): np.arange(2)}, cfg)
    assert embed_projected(model, ax, {}, cfg) == []
    with pytest.raises(DataError, match=r"rows must be a dict of \(source_id, camera\) keys"):
        embed_projected(model, ax, [np.arange(8)], cfg)  # a list of rows has no keys


@pytest.mark.parametrize("key, bad_rows, message", [
    ((1, 0), np.arange(8.0), "sequence (1, 0): rows must be integer indices into ax's 8 rows"),
    ((1, 0), np.arange(-3, 5), "sequence (1, 0): rows must be integer indices into ax's 8 rows"),
    ((1.5, 0), np.arange(8), "sequence key (1.5, 0) is not an integer (source_id, camera) pair"),
    ((1, True), np.arange(8), "sequence key (1, True) is not an integer (source_id, camera) pair"),
    ((1,), np.arange(8), "sequence key (1,) is not an integer (source_id, camera) pair"),
], ids=["float-rows", "negative-rows", "float-id", "bool-camera", "short-key"])
def test_batched_embedding_rejects_bad_seed_or_rows(model, rng, monkeypatch, key, bad_rows,
                                                    message):
    # a key is the seed of its windows, so a bad key is a bad seed
    ax = rf.project(model, rng.standard_normal((8, 4)))

    def forbidden(*args):
        raise AssertionError("the recurrence ran before the check")

    monkeypatch.setattr(aggregate, "_unroll", forbidden)
    with pytest.raises(DataError, match=re.escape(message)):
        embed_projected(model, ax, {(0, 0): np.arange(8), key: bad_rows},
                        rf.AggregationConfig(3, 2))


def test_nonfinite_embedding_rejected():
    with pytest.raises(DataError, match="finite"):
        rf.SequenceEmbedding(np.array([1.0, np.nan]))


def test_embeddings_roundtrip(tmp_path, rng):
    embs = [
        rf.SequenceEmbedding(rng.standard_normal(6).astype(np.float32), i, i % 2)
        for i in range(4)
    ]
    path = tmp_path / "embs.rfaemb"
    rf.write_embeddings(path, embs)
    back = rf.read_embeddings(path)
    assert len(back) == 4
    for orig, got in zip(embs, back):
        assert got.source_id == orig.source_id and got.camera == orig.camera
        assert got.values == pytest.approx(orig.values, abs=1e-7)


def test_embeddings_bad_magic(tmp_path):
    path = tmp_path / "bad.rfaemb"
    path.write_bytes(b"WRONGMAG" + bytes(8))
    with pytest.raises(FormatError):
        rf.read_embeddings(path)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda data: data[:10], "truncated embedding header"),
        (lambda data: data + bytes(2), "2 trailing bytes"),
        (lambda data: data[:7] + struct.pack("<I", 0) + data[11:], "dimension is 0"),
    ],
    ids=["short-header", "trailing-bytes", "zero-dim"],
)
def test_read_embeddings_rejects_malformed_file(tmp_path, edit, message):
    path = tmp_path / "embs.rfaemb"
    rf.write_embeddings(path, [rf.SequenceEmbedding(np.ones(3), k, 0) for k in range(2)])
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FormatError, match=message):
        rf.read_embeddings(path)


@pytest.mark.parametrize("bits", [0x7F800001, 0xFF800001, 0x7FC00000, 0x7F800000, 0xFF800000],
                         ids=["signalling-nan", "negative-signalling-nan", "quiet-nan", "inf",
                              "negative-inf"])
def test_read_embeddings_rejects_non_finite_value_without_warning(tmp_path, bits):
    # record 1 starts at 15 + 17 and holds its values after a 5-byte id and camera
    path = tmp_path / "embs.rfaemb"
    rf.write_embeddings(path, [rf.SequenceEmbedding(np.ones(3), k, 0) for k in range(2)])
    data = bytearray(path.read_bytes())
    data[15 + 17 + 5 + 4 : 15 + 17 + 5 + 8] = struct.pack("<I", bits)
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="id 1 has a non-finite embedding value"):
            rf.read_embeddings(path)


def test_embeddings_inconsistent_dims(tmp_path, rng):
    embs = [
        rf.SequenceEmbedding(rng.standard_normal(4), 0, 0),
        rf.SequenceEmbedding(rng.standard_normal(5), 1, 0),
    ]
    with pytest.raises(DataError):
        rf.write_embeddings(tmp_path / "x.rfaemb", embs)


@pytest.mark.parametrize("source_id,camera", [(None, 0), (2**32, 0), (3, 256), (3, -1)])
def test_write_embeddings_rejects_out_of_range_ids(tmp_path, source_id, camera):
    emb = rf.SequenceEmbedding(np.ones(3), camera=camera)  # source_id defaults to -1
    if source_id is not None:
        emb.source_id = source_id
    path = tmp_path / "x.rfaemb"
    with pytest.raises(DataError, match="source_id" if camera == 0 else "camera"):
        rf.write_embeddings(path, [rf.SequenceEmbedding(np.ones(3), 0, 0), emb])
    assert not path.exists()


def test_embeddings_write_failing_midway_keeps_earlier_file(tmp_path, disk_full):
    path = tmp_path / "x.rfaemb"
    path.write_bytes(b"earlier embeddings")
    with pytest.raises(OSError):
        rf.write_embeddings(path, [rf.SequenceEmbedding(np.ones(3), 0, 0)])
    assert path.read_bytes() == b"earlier embeddings"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("call,name", [
    (lambda path: rf.write_embeddings(path, []), "no embeddings"),
], ids=["write-none"])
def test_aggregate_refuses_bad_input(tmp_path, call, name):
    with pytest.raises(DataError, match=name):
        call(tmp_path / "x.rfaemb")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source_id,camera,name", [(True, 0, "source_id"), (3, False, "camera")])
def test_write_embeddings_refuses_bool_ids(tmp_path, source_id, camera, name):
    # they were written as 1 and 0, keys that embed_projected refuses
    path = tmp_path / "x.rfaemb"
    with pytest.raises(DataError, match=f"embedding 0: {name}"):
        rf.write_embeddings(path, [rf.SequenceEmbedding(np.ones(3), source_id, camera)])
    assert not path.exists()
