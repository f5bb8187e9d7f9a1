"""Sequence-level embeddings from trained hidden states.

A subsequence of L frames maps to the concatenation of its L hidden states
(dimension H*L); a full sequence maps to the element-wise mean over K
randomly sampled length-L windows. Per-depth embeddings expose the t-th
node's output for the fusion-depth analysis.

The frames a sequence's windows use are projected once, and the K windows
then run as one (K, H) batch through the LSTM recurrence step.
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


def embed_subsequence(model, xs):
    """Concatenate h_1..h_L of one (L, D) subsequence in time order; dimension H*L."""
    return _unroll(model, project(model, xs)).ravel()


def sample_starts(num_frames, subseq_len, num_subsequences, seed):
    """K start indices drawn uniformly from [0, T-L] with replacement."""
    if num_frames < subseq_len:
        raise DataError(f"sequence of {num_frames} frames is shorter than L={subseq_len}")
    rng = np.random.default_rng(seed)
    return rng.integers(0, num_frames - subseq_len + 1, size=num_subsequences)


def _window_states(model, frames, cfg):
    """Hidden states (K, L, H) of the K seeded windows of a sequence. Each
    frame some window uses is projected once; the windows run as one batch."""
    cfg.validate()
    frames = np.asarray(frames, dtype=np.float64)
    starts = sample_starts(frames.shape[0], cfg.subseq_len, cfg.num_subsequences, cfg.seed)
    windows = starts[:, None] + np.arange(cfg.subseq_len)
    used, where = np.unique(windows, return_inverse=True)
    ax = project(model, frames[used])
    return _unroll(model, ax[where.reshape(windows.shape)])


def embed_sequence(model, frames, cfg, source_id=-1, camera=0):
    """Mean of K seeded-window subsequence embeddings; no post-normalization."""
    hs = _window_states(model, frames, cfg)
    return SequenceEmbedding(hs.reshape(len(hs), -1).mean(axis=0), source_id, camera)


def embed_at_depth(model, frames, depth, cfg):
    """Mean of h_depth over the same K sampled windows; depth in 1..L."""
    cfg.validate()
    if not 1 <= depth <= cfg.subseq_len:
        raise DataError(f"depth {depth} out of range 1..{cfg.subseq_len}")
    return _window_states(model, frames, cfg)[:, depth - 1].mean(axis=0)


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
