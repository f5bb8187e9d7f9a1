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

from .errors import DataError, FormatError
from .fileio import atomic_write
from .rnn import LstmState, lstm_step, project

EMBEDDING_MAGIC = b"RFAEMB1"


@dataclass
class AggregationConfig:
    subseq_len: int = 10
    num_subsequences: int = 10  # K
    seed: int = 0

    def validate(self):
        if self.subseq_len < 1 or self.num_subsequences < 1:
            raise DataError("subseq_len and num_subsequences must be >= 1")


@dataclass
class SequenceEmbedding:
    values: np.ndarray
    source_id: int = -1
    camera: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise DataError("embedding contains non-finite entries")


def _unroll(model, ax):
    """Hidden states (..., L, H) from input pre-activations (..., L, 4H),
    from zero state, dropout disabled."""
    H, L = model.hidden_dim, ax.shape[-2]
    state = LstmState(np.zeros(ax.shape[:-2] + (H,)), np.zeros(ax.shape[:-2] + (H,)))
    hs = np.empty(ax.shape[:-1] + (H,))
    for t in range(L):
        state, _ = lstm_step(model, ax[..., t, :], state)
        hs[..., t, :] = state.h
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
    windows = [np.asarray(r)[sample_starts(len(r), L, K, seed)[:, None] + np.arange(L)]
               for r, seed in zip(rows, seeds)]
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

def write_embeddings(path, embeddings):
    """Write RFAEMB1 records (u32 source id, u8 camera, float32 values),
    atomically; every record is validated before the file is opened."""
    if not embeddings:
        raise DataError("no embeddings to write")
    dim = embeddings[0].values.size
    for k, emb in enumerate(embeddings):
        if emb.values.size != dim:
            raise DataError("embeddings have inconsistent dimensions")
        for name, value, bits in (("source_id", emb.source_id, 32), ("camera", emb.camera, 8)):
            if not isinstance(value, (int, np.integer)) or not 0 <= value < 2**bits:
                raise DataError(f"embedding {k}: {name} {value!r} is not a u{bits}")
    with atomic_write(path) as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<II", dim, len(embeddings)))
        for emb in embeddings:
            fh.write(struct.pack("<IB", emb.source_id, emb.camera))
            fh.write(np.ascontiguousarray(emb.values, dtype="<f4").tobytes())


def read_embeddings(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:7] != EMBEDDING_MAGIC:
        raise FormatError("bad embedding magic", 0)
    if len(data) < 15:
        raise FormatError("truncated embedding header", len(data))
    dim, count = struct.unpack_from("<II", data, 7)
    if dim == 0:
        raise FormatError("embedding dimension is 0", 7)
    pos = 15
    out = []
    for _ in range(count):
        if len(data) - pos < 5 + dim * 4:
            raise FormatError("truncated embedding record", len(data))
        source_id, camera = struct.unpack_from("<IB", data, pos)
        pos += 5
        values = np.frombuffer(data, "<f4", dim, pos).astype(np.float64)
        pos += dim * 4
        out.append(SequenceEmbedding(values, source_id, camera))
    if len(data) > pos:
        raise FormatError(f"{len(data) - pos} trailing bytes after embedding records", pos)
    return out
