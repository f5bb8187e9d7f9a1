"""Sequence-level embeddings from trained hidden states.

A subsequence of L frames maps to the concatenation of its L hidden states
(dimension H*L); a full sequence maps to the element-wise mean over K
randomly sampled length-L windows. Per-depth embeddings expose the t-th
node's output for the fusion-depth analysis.

``embed_projected`` embeds many sequences from input pre-activations that
were projected beforehand (one ``project`` GEMM per model over every frame
of a dataset): the K seeded windows of every sequence run through the LSTM
recurrence as one batch, so each step is one GEMM over all windows. Every
command embeds through it, in the one dataset pass of ``evaluation``;
``embed_sequence`` is the only one-sequence wrapper: it projects a
sequence's frames and calls it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, FormatError
from .fileio import atomic_write
from .matching import _embedding_matrix, _embedding_row
from .rnn import lstm_step, project

EMBEDDING_MAGIC = b"RFAEMB1"


@dataclass
class AggregationConfig:
    subseq_len: int = 10
    num_subsequences: int = 10  # K
    seed: int = 0

    def validate(self):
        if self.subseq_len < 1 or self.num_subsequences < 1:
            raise ConfigurationError("subseq_len and num_subsequences must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"aggregation.seed must be >= 0, got {self.seed}")


@dataclass
class SequenceEmbedding:
    values: np.ndarray
    source_id: int = -1
    camera: int = 0

    def __post_init__(self):
        self.values = _embedding_row(self.values, f"id {self.source_id}")
        if not self.values.size:
            raise DataError(f"id {self.source_id}: embedding has dimension 0")


def _unroll(model, ax):
    """Hidden states (..., L, H) from input pre-activations (..., L, 4H),
    from zero state, dropout disabled."""
    hs = np.empty(ax.shape[:-1] + (model.hidden_dim,))
    h = c = np.zeros(hs.shape[:-2] + hs.shape[-1:])
    for t in range(ax.shape[-2]):
        (h, c), _ = lstm_step(model, ax[..., t, :], (h, c))
        hs[..., t, :] = h
    return hs


def sample_starts(num_frames, subseq_len, num_subsequences, seed):
    """K start indices drawn uniformly from [0, T-L] with replacement."""
    if num_frames < subseq_len:
        raise DataError(f"sequence of {num_frames} frames is shorter than L={subseq_len}")
    rng = np.random.default_rng(seed)
    return rng.integers(0, num_frames - subseq_len + 1, size=num_subsequences)


# pre-activation values gathered for one recurrence batch (32 MB of float64):
# every window of a desk-scale split, about 200 windows at the full geometry
_WINDOW_BLOCK = 1 << 22


def embed_projected(model, ax, rows, cfg, seeds, depth=None):
    """Embeddings of S sequences from pre-activations projected beforehand.

    ``ax`` (N, 4H) holds ``project`` output; ``rows[s]`` are the rows of ``ax``
    that hold sequence s's frames, in time order, and ``seeds[s]`` draws its
    ``cfg.num_subsequences`` windows of ``cfg.subseq_len`` frames (``cfg.seed``
    is not read). The K seeded windows of every sequence run through the
    recurrence together, in batches of whole sequences of at most
    ``_WINDOW_BLOCK`` gathered values.

    Returns (S, H*L) means of the K window embeddings, or with ``depth`` in
    1..L the (S, H) means of h_depth over the same windows. They equal each
    sequence embedded alone, bit for bit, unless a batch holds a single
    window: numpy computes a one-row product as a matrix-vector product,
    whose sums can differ in the last bit.
    """
    cfg.validate()
    L, K = cfg.subseq_len, cfg.num_subsequences
    if len(seeds) != len(rows):
        raise DataError(f"{len(rows)} sequences but {len(seeds)} seeds")
    if depth is not None and not 1 <= depth <= L:
        raise DataError(f"depth {depth} out of range 1..{L}")
    H = model.hidden_dim
    windows = []
    for s, (r, seed) in enumerate(zip(rows, seeds)):
        r = np.asarray(r)
        outside = r.size and (r.dtype.kind not in "iu" or r.min() < 0 or r.max() >= len(ax))
        if r.ndim != 1 or outside:
            raise DataError(f"sequence {s}: rows must be integer indices into ax's {len(ax)} rows")
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise DataError(f"sequence {s}: window seed must be an integer >= 0, got {seed!r}")
        windows.append(r[sample_starts(len(r), L, K, seed)[:, None] + np.arange(L)])
    out = np.empty((len(rows), H * L if depth is None else H))
    batch = max(1, _WINDOW_BLOCK // (K * L * 4 * H))  # whole sequences per recurrence
    for start in range(0, len(rows), batch):
        hs = _unroll(model, ax[np.concatenate(windows[start : start + batch])])
        hs = hs.reshape(-1, K, L, H)
        picked = hs.reshape(len(hs), K, L * H) if depth is None else hs[:, :, depth - 1]
        out[start : start + len(hs)] = picked.mean(axis=1)
    return out


def embed_sequence(model, frames, cfg, source_id=-1, camera=0):
    """Mean of K seeded-window subsequence embeddings; no post-normalization."""
    ax = project(model, frames)
    values = embed_projected(model, ax, [np.arange(len(ax))], cfg, [cfg.seed])[0]
    return SequenceEmbedding(values, source_id, camera)


# ---------------------------------------------------------------------------
# embedding file
# ---------------------------------------------------------------------------

# RFAEMB1: the magic, the dimension and the record count, then the records
_EMBEDDING_HEADER = struct.Struct("<7sII")


def _record_dtype(dim):
    return np.dtype([("source_id", "<u4"), ("camera", "u1"), ("values", "<f4", (dim,))])


def write_embeddings(path, embeddings):
    """Write RFAEMB1 records, atomically; every record is validated before
    the file is opened."""
    if not embeddings:
        raise DataError("no embeddings to write")
    values = _embedding_matrix(embeddings, "embedding", range(len(embeddings)))
    if not values.shape[1] or np.abs(values).max() > np.finfo(np.float32).max:
        raise DataError("embeddings of dimension 0 or beyond the float32 range cannot be written")
    for k, emb in enumerate(embeddings):
        for name, value, bits in (("source_id", emb.source_id, 32), ("camera", emb.camera, 8)):
            if not isinstance(value, (int, np.integer)) or not 0 <= value < 2**bits:
                raise DataError(f"embedding {k}: {name} {value!r} is not a u{bits}")
    records = np.array([(emb.source_id, emb.camera, row) for emb, row in zip(embeddings, values)],
                       _record_dtype(values.shape[1]))
    with atomic_write(path) as fh:
        fh.write(_EMBEDDING_HEADER.pack(EMBEDDING_MAGIC, *values.shape[::-1]))
        fh.write(records.tobytes())


def read_embeddings(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(EMBEDDING_MAGIC)] != EMBEDDING_MAGIC:
        raise FormatError("bad embedding magic", 0)
    if len(data) < _EMBEDDING_HEADER.size:
        raise FormatError("truncated embedding header", len(data))
    _, dim, count = _EMBEDDING_HEADER.unpack_from(data)
    if dim == 0:
        raise FormatError("embedding dimension is 0", len(EMBEDDING_MAGIC))
    # sized before the record dtype is built, as numpy refuses one over 2 GiB
    end = _EMBEDDING_HEADER.size + count * (_record_dtype(0).itemsize + 4 * dim)
    if len(data) < end:
        raise FormatError("truncated embedding record", len(data))
    if len(data) > end:
        raise FormatError(f"{len(data) - end} trailing bytes after embedding records", end)
    if not count:
        return []
    records = np.frombuffer(data, _record_dtype(dim), count, _EMBEDDING_HEADER.size)
    # checked before the cast, which warns on a signalling NaN
    finite = np.isfinite(records["values"]).all(axis=1)
    if not finite.all():
        source_id = records["source_id"][finite.argmin()]
        raise DataError(f"id {source_id} has a non-finite embedding value")
    values = records["values"].astype(np.float64)
    return [SequenceEmbedding(row, source_id, camera) for row, source_id, camera
            in zip(values, records["source_id"].tolist(), records["camera"].tolist())]
