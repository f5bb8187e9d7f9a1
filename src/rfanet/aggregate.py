"""Sequence-level embeddings from trained hidden states.

A subsequence of L frames maps to the concatenation of its L hidden states
(dimension H*L); a full sequence maps to the element-wise mean over K
randomly sampled length-L windows. The fusion-depth analysis reads the t-th
node's output: the depth-t embedding is the t-th H-block of the full one,
``values[(t-1)*H : t*H]``, the mean of h_t over the same K windows.

``embed_projected`` is the one embedding call. It embeds sequences keyed by
(source_id, camera) from input pre-activations that were projected
beforehand (one ``project`` GEMM per model over every frame of a dataset),
and draws each sequence's K windows from a seed derived from the
aggregation seed and its key. The windows of every sequence run through the
LSTM recurrence as one batch, so each step is one GEMM over all windows.
Every command embeds through it, in the one dataset pass of ``evaluation``;
``embed_sequence`` is its one-key case, so a sequence embedded alone gets
the windows and the values that the commands give it.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, FormatError, is_integer, require_int
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
        for name, low in (("subseq_len", 1), ("seed", 0)):
            require_int(getattr(self, name), f"aggregation.{name}", low=low)
        require_window_count(self.num_subsequences, "aggregation.num_subsequences")


def require_window_count(value, name, error=ConfigurationError):
    """The rule of a window count K: an integer >= 1 whose K int64 window
    starts fit in one array, which numpy caps at sys.maxsize bytes."""
    require_int(value, name, error, low=1, high=sys.maxsize // 8)


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
    """K start indices drawn uniformly from [0, T-L] with replacement. The
    first k of them are the k starts of the same seed, for any k <= K."""
    require_window_count(num_subsequences, "num_subsequences", DataError)
    if num_frames < subseq_len:
        raise DataError(f"sequence of {num_frames} frames is shorter than L={subseq_len}")
    rng = np.random.default_rng(seed)
    return rng.integers(0, num_frames - subseq_len + 1, size=num_subsequences)


# pre-activation values gathered for one recurrence batch (32 MB of float64):
# every window of a desk-scale split, about 200 windows at the full geometry
_WINDOW_BLOCK = 1 << 22


def _derive_seed(*parts):
    """A seed from integer parts; a part outside [0, 2**31) becomes a non-zero
    marker word (top bit, bit length, sign) and |part|, so parts never alias."""
    words = []
    for p in map(int, parts):
        words += [p] if 0 <= p < 2**31 else [2**31 | abs(p).bit_length() << 1 | (p < 0), abs(p)]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def embed_projected(model, ax, rows, cfg):
    """Embeddings of many sequences from pre-activations projected beforehand.

    ``ax`` (N, 4H) holds ``project`` output, and ``rows`` maps each sequence's
    (source_id, camera) key to the rows of ``ax`` that hold its frames, in
    time order. Its ``cfg.num_subsequences`` windows of ``cfg.subseq_len``
    frames are drawn from ``_derive_seed(cfg.seed, source_id, camera)``. The
    windows of every sequence run through the recurrence together, in batches
    of whole sequences of at most ``_WINDOW_BLOCK`` gathered values.

    Returns one SequenceEmbedding per key, in key order: the mean of the K
    window embeddings (H*L), whose t-th H-block is the depth-t embedding.
    They equal each sequence embedded alone, bit for bit, unless a batch
    holds a single window: numpy computes a one-row product as a
    matrix-vector product, whose sums can differ in the last bit.
    """
    cfg.validate()
    L, K = cfg.subseq_len, cfg.num_subsequences
    if not isinstance(rows, dict):
        raise DataError(f"rows must be a dict of (source_id, camera) keys, "
                        f"not a {type(rows).__name__}")
    H = model.hidden_dim
    windows = []
    for key, r in rows.items():
        if not (isinstance(key, tuple) and len(key) == 2 and all(map(is_integer, key))):
            raise DataError(f"sequence key {key!r} is not an integer (source_id, camera) pair")
        r = np.asarray(r)
        outside = r.size and (r.dtype.kind not in "iu" or r.min() < 0 or r.max() >= len(ax))
        if r.ndim != 1 or outside:
            raise DataError(f"sequence {key}: rows must be integer indices into "
                            f"ax's {len(ax)} rows")
        starts = sample_starts(len(r), L, K, _derive_seed(cfg.seed, *key))
        windows.append(r[starts[:, None] + np.arange(L)])
    out = np.empty((len(rows), H * L))
    batch = max(1, _WINDOW_BLOCK // (K * L * 4 * H))  # whole sequences per recurrence
    for start in range(0, len(rows), batch):
        hs = _unroll(model, ax[np.concatenate(windows[start : start + batch])])
        hs = hs.reshape(-1, K, L * H)
        out[start : start + len(hs)] = hs.mean(axis=1)
    return [SequenceEmbedding(values, *key) for values, key in zip(out, rows)]


def embed_sequence(model, frames, cfg, source_id=-1, camera=0):
    """Mean of K seeded-window subsequence embeddings, no post-normalization:
    ``embed_projected`` of one sequence, keyed (source_id, camera)."""
    ax = project(model, frames)
    return embed_projected(model, ax, {(source_id, camera): np.arange(len(ax))}, cfg)[0]


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
            if not is_integer(value) or not 0 <= value < 2**bits:
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
