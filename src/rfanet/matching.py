"""Probe-gallery scoring: cosine similarity and a linear RankSVM trained on
element-wise absolute-difference pair features.

Both scorers return HIGHER values for more similar pairs, as a whole
(n_probes, n_gallery) matrix from ``scores(P, G)``; ranking sorts by
descending score with ties broken by ascending gallery index.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegenerateProblemError, FormatError
from .fileio import atomic_write

RANKSVM_MAGIC = b"RFASVM1"


def _vec(x):
    return np.asarray(getattr(x, "values", x), dtype=np.float64)


def _score_inputs(P, G, dim=None):
    """(n_p, d) probes and (n_g, d) gallery as float64, or DataError."""
    P = np.asarray(P, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    if P.ndim != 2 or G.ndim != 2 or P.shape[1] != G.shape[1]:
        raise DataError(f"dimension mismatch: probes {P.shape} vs gallery {G.shape}")
    if dim is not None and P.shape[1] != dim:
        raise DataError(f"dimension mismatch: embeddings of dim {P.shape[1]}, model of dim {dim}")
    return P, G


class CosineScorer:
    """(p . g) / (|p| |g|), in [-1, 1]; higher means more similar."""

    def scores(self, P, G):
        """(n_p, n_g) cosine similarities of every probe row with every gallery row."""
        P, G = _score_inputs(P, G)
        p_norm = np.linalg.norm(P, axis=1)
        g_norm = np.linalg.norm(G, axis=1)
        if not (p_norm.all() and g_norm.all()):
            raise DataError("cosine score undefined for a zero-norm vector")
        return (P @ G.T) / np.outer(p_norm, g_norm)


# gallery rows per |G_blk - p| block: 16 x 5,120 float64 is 640 kB, which
# stays in L2 while every probe of a call is scored against it
_GALLERY_BLOCK = 16


class RankSvmScorer:
    """w . |p - g| of a trained RankSvmModel; higher means more similar."""

    def __init__(self, model):
        self.model = model

    def scores(self, P, G):
        """(n_p, n_g) RankSVM scores of every probe row with every gallery row."""
        w = self.model.w
        P, G = _score_inputs(P, G, w.size)
        out = np.empty((len(P), len(G)))
        buf = np.empty((min(len(G), _GALLERY_BLOCK), G.shape[1]))
        for g0 in range(0, len(G), _GALLERY_BLOCK):
            block = G[g0:g0 + _GALLERY_BLOCK]
            absdiff = buf[:len(block)]
            for i, p in enumerate(P):
                np.abs(np.subtract(block, p, out=absdiff), out=absdiff)
                out[i, g0:g0 + len(block)] = absdiff @ w
        return out


def as_scorer(scorer):
    """The scorer itself, or a CosineScorer for the name ``"cosine"``."""
    return CosineScorer() if scorer == "cosine" else scorer


def _pair_score(scorer, a, b):
    va, vb = _vec(a), _vec(b)
    if va.shape != vb.shape:
        raise DataError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    return float(scorer.scores(va.reshape(1, -1), vb.reshape(1, -1))[0, 0])


def cosine_score(a, b):
    """(a . b) / (|a| |b|) of one pair, in [-1, 1]; higher means more similar."""
    return _pair_score(CosineScorer(), a, b)


@dataclass
class RankSvmModel:
    w: np.ndarray
    C: float
    iters: int
    seed: int
    objective_history: list = field(default_factory=list)

    @property
    def final_objective(self):
        return self.objective_history[-1] if self.objective_history else None


def ranksvm_score(model, probe, gallery_item):
    """w . |probe - gallery_item| of one pair; higher means more similar."""
    return _pair_score(RankSvmScorer(model), probe, gallery_item)


def rank_gallery(probe, gallery, scorer):
    """Gallery indices by descending score; ties broken by ascending index."""
    if len(gallery) == 0:
        raise DataError("empty gallery")
    G = np.stack([_vec(g) for g in gallery])
    scores = as_scorer(scorer).scores(_vec(probe).reshape(1, -1), G)[0]
    return np.argsort(-scores, kind="stable")


def pair_difference_features(probe_embeddings, gallery_embeddings):
    """Margin rows s+_i - s-_ij for every i and j != i, in that order.

    s+_i = |a_i - b_i| (true pair), s-_ij = |a_i - b_j| (wrong pair); the
    solver wants w . (s+_i - s-_ij) >= 1. The n(n-1) x dim matrix is filled
    in place, one block of n-1 rows per probe.
    """
    n = len(probe_embeddings)
    if n != len(gallery_embeddings):
        raise DataError("probe/gallery lists must be aligned per person")
    if n < 2:
        raise DataError("RankSVM training needs at least 2 persons")
    probes = np.stack([_vec(e) for e in probe_embeddings])
    gallery = np.stack([_vec(e) for e in gallery_embeddings])
    diffs = np.empty((n * (n - 1), probes.shape[1]))
    for i in range(n):
        block = diffs[i * (n - 1):(i + 1) * (n - 1)]
        np.subtract(probes[i], gallery[:i], out=block[:i])
        np.subtract(probes[i], gallery[i + 1:], out=block[i:])
        np.abs(block, out=block)
        np.subtract(np.abs(probes[i] - gallery[i]), block, out=block)
    if not diffs.any():
        raise DegenerateProblemError("all pair features are identical; nothing to rank")
    return diffs


def _objective(w, margins, C):
    return 0.5 * float(w @ w) + C * float(np.maximum(0.0, 1.0 - margins).sum())


def hinge_objective(w, diffs, C):
    """0.5 |w|^2 + C * sum max(0, 1 - w . d) over all constraint rows."""
    return _objective(w, diffs @ w, C)


def train_ranksvm(probe_embeddings, gallery_embeddings, C=1.0, iters=500, seed=0):
    """Deterministic averaged projected subgradient on the hinge objective.

    The constrained problem  min 0.5|w|^2 + C sum xi  s.t. w.(s+ - s-) >= 1 - xi
    is solved in its unconstrained hinge form, rescaled Pegasos-style with
    lambda = 1 / (C * num_constraints), step size 1/(lambda t), projection
    onto the ball of radius 1/sqrt(lambda), and t-weighted iterate averaging
    (later iterates weighted linearly, which drops the log factor from the
    convergence rate). Since subgradient steps are not descent steps, the
    best averaged iterate seen so far is tracked and returned; its objective
    is recorded each iteration and is non-increasing by construction.

    The margins diffs @ w are linear in w, so they are carried from one
    iteration to the next: a step with no violated row only scales w by
    1 - 1/t, which keeps it inside the ball, and the margins are scaled with
    it; diffs @ w is recomputed only after a step that adds violated rows.
    The averaged iterate's margins follow the same recurrence as w_avg, so
    its objective needs no pass over the pair matrix.
    """
    if C <= 0:
        raise DataError("C must be > 0")
    if iters < 1:
        raise DataError("iters must be >= 1")
    diffs = pair_difference_features(probe_embeddings, gallery_embeddings)
    m = diffs.shape[0]
    lam = 1.0 / (C * m)
    radius = 1.0 / np.sqrt(lam)

    w = np.zeros(diffs.shape[1])
    margins = np.zeros(m)  # diffs @ w
    w_avg = np.zeros_like(w)
    m_avg = np.zeros(m)    # diffs @ w_avg
    w_best = w_avg.copy()
    best = _objective(w_best, m_avg, C)
    weight_sum = 0.0
    history = []
    for t in range(1, iters + 1):
        # w - (lambda w - sum of violated rows / m) / (lambda t)
        violated = margins < 1.0
        scale = 1.0 - 1.0 / t
        w *= scale
        if violated.any():
            # one pass over the pair matrix, with no copy of the violated rows
            w += (violated @ diffs) / (lam * m * t)
            norm = np.linalg.norm(w)
            if norm > radius:
                w *= radius / norm
            margins = diffs @ w
        else:
            # w was inside the ball and only shrank, so no projection is due
            margins *= scale
        weight_sum += t
        w_avg += (w - w_avg) * t / weight_sum
        m_avg += (margins - m_avg) * t / weight_sum
        obj = _objective(w_avg, m_avg, C)
        if obj < best:
            best = obj
            w_best = w_avg.copy()
        history.append(best)
    return RankSvmModel(w_best, C, iters, seed, history)


def ranking_accuracy(model, probe_embeddings, gallery_embeddings):
    """Fraction of (i, j != i) pairs with F(s+_i) > F(s-_ij)."""
    diffs = pair_difference_features(probe_embeddings, gallery_embeddings)
    return float(np.mean(diffs @ model.w > 0.0))


# ---------------------------------------------------------------------------
# model file
# ---------------------------------------------------------------------------

def save_ranksvm(path, model):
    with atomic_write(path) as fh:
        fh.write(RANKSVM_MAGIC)
        fh.write(struct.pack("<IdIQ", model.w.size, model.C, model.iters, model.seed))
        fh.write(np.ascontiguousarray(model.w, dtype="<f8").tobytes())


def load_ranksvm(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:7] != RANKSVM_MAGIC:
        raise FormatError("bad RankSVM magic", 0)
    pos = 7 + struct.calcsize("<IdIQ")
    if len(data) < pos:
        raise FormatError("truncated RankSVM header", len(data))
    dim, C, iters, seed = struct.unpack_from("<IdIQ", data, 7)
    if dim == 0:
        raise FormatError("RankSVM weight dimension is 0", 7)
    if len(data) - pos < dim * 8:
        raise FormatError("truncated RankSVM weights", len(data))
    if len(data) - pos > dim * 8:
        raise FormatError(f"{len(data) - pos - dim * 8} trailing bytes after RankSVM weights",
                          pos + dim * 8)
    w = np.frombuffer(data, "<f8", dim, pos).astype(np.float64)
    return RankSvmModel(w, C, iters, seed)
