import struct

import numpy as np
import pytest

import rfanet as rf
import rfanet.aggregate as aggregate
from rfanet.aggregate import _unroll, embed_projected, sample_starts
from rfanet.errors import DataError, FormatError


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


def test_degenerate_t_equals_l(model, rng):
    # only one possible window, so K draws all coincide with it
    xs = rng.standard_normal((3, 4))
    emb = rf.embed_sequence(model, xs, rf.AggregationConfig(3, 7, seed=2))
    assert emb.values == pytest.approx(_embed_window(model, xs), abs=1e-15)


def test_k_equals_one_single_window(model, rng):
    xs = rng.standard_normal((10, 4))
    cfg = rf.AggregationConfig(4, 1, seed=5)
    start = sample_starts(10, 4, 1, seed=5)[0]
    emb = rf.embed_sequence(model, xs, cfg)
    assert emb.values == pytest.approx(
        _embed_window(model, xs[start : start + 4]), abs=1e-15
    )


def test_mean_over_sampled_windows(model, rng):
    xs = rng.standard_normal((12, 4))
    cfg = rf.AggregationConfig(4, 3, seed=11)
    starts = sample_starts(12, 4, 3, seed=11)
    expected = np.mean(
        [_embed_window(model, xs[s : s + 4]) for s in starts], axis=0
    )
    emb = rf.embed_sequence(model, xs, cfg, source_id=6, camera=1)
    assert emb.values == pytest.approx(expected, abs=1e-12)
    assert emb.source_id == 6 and emb.camera == 1


def _embed_at_depth(model, xs, depth, cfg):
    """One sequence's mean h_depth, through the batched embedding."""
    return embed_projected(model, rf.project(model, xs), [np.arange(len(xs))], cfg, [cfg.seed],
                           depth)[0]


def test_depth_slices_full_embedding(model, rng):
    xs = rng.standard_normal((9, 4))
    cfg = rf.AggregationConfig(4, 5, seed=3)
    full = rf.embed_sequence(model, xs, cfg).values.reshape(4, 3)
    for depth in range(1, 5):
        assert _embed_at_depth(model, xs, depth, cfg) == pytest.approx(
            full[depth - 1], abs=1e-12
        )


def test_depth_out_of_range(model, rng):
    xs = rng.standard_normal((9, 4))
    cfg = rf.AggregationConfig(4, 2, seed=0)
    for bad in (0, 5):
        with pytest.raises(DataError, match="depth"):
            _embed_at_depth(model, xs, bad, cfg)


@pytest.mark.parametrize("block", [aggregate._WINDOW_BLOCK, 1], ids=["one-batch", "per-sequence"])
def test_batched_embedding_matches_per_sequence(model, rng, monkeypatch, block):
    # sequences of different lengths and seeds, stacked into one descriptor
    # matrix and projected once, at several window counts; with a block of
    # 1 value every sequence runs as its own batch
    monkeypatch.setattr(aggregate, "_WINDOW_BLOCK", block)
    lengths = (9, 4, 12, 6, 4)
    seqs = [rng.standard_normal((T, 4)) for T in lengths]
    seeds = [10 + s for s in range(len(seqs))]
    starts = np.cumsum((0,) + lengths)
    rows = [np.arange(a, b) for a, b in zip(starts[:-1], starts[1:])]
    ax = rf.project(model, np.concatenate(seqs))

    for K in (3, 2, 5, 4, 7):
        own = [rf.AggregationConfig(4, K, seed) for seed in seeds]  # each sequence alone
        means = embed_projected(model, ax, rows, rf.AggregationConfig(4, K), seeds)
        assert means.shape == (len(seqs), 12)
        for xs, cfg, got in zip(seqs, own, means):
            assert got.tobytes() == rf.embed_sequence(model, xs, cfg).values.tobytes()
        for depth in range(1, 5):
            at_depth = embed_projected(model, ax, rows, rf.AggregationConfig(4, K), seeds, depth)
            for xs, cfg, got in zip(seqs, own, at_depth):
                assert got.tobytes() == _embed_at_depth(model, xs, depth, cfg).tobytes()

    # rows may be any rows of ax, in any order: a reversed sequence
    cfg = rf.AggregationConfig(4, 3, seeds[0])
    back = embed_projected(model, ax, [rows[0][::-1]], cfg, seeds[:1])[0]
    assert back.tobytes() == rf.embed_sequence(model, seqs[0][::-1], cfg).values.tobytes()


def test_batched_embedding_checks(model, rng):
    ax = rf.project(model, rng.standard_normal((8, 4)))
    rows, cfg = [np.arange(8)], rf.AggregationConfig(3, 2)
    with pytest.raises(DataError, match="depth"):
        embed_projected(model, ax, rows, cfg, [0], depth=4)
    with pytest.raises(DataError, match="shorter"):
        embed_projected(model, ax, [np.arange(2)], cfg, [0])
    for seeds in ([0], [0, 1, 2]):  # one seed per sequence, or zip would drop some
        with pytest.raises(DataError, match=f"2 sequences but {len(seeds)} seeds"):
            embed_projected(model, ax, rows * 2, cfg, seeds)


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
