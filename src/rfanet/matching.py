"""Probe-gallery scoring: cosine similarity and a linear RankSVM trained on
element-wise absolute-difference pair features.

Both scorers return HIGHER values for more similar pairs; ranking sorts by
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


def cosine_score(a, b):
    """(a . b) / (|a| |b|), in [-1, 1]; higher means more similar."""
    va, vb = _vec(a), _vec(b)
    if va.shape != vb.shape:
        raise DataError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise DataError("cosine score undefined for a zero-norm vector")
    return float(va @ vb / (na * nb))


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
    """w . |probe - gallery_item|; higher means more similar."""
    vp, vg = _vec(probe), _vec(gallery_item)
    if vp.shape != vg.shape or vp.shape != model.w.shape:
        raise DataError("dimension mismatch between model and embeddings")
    return float(model.w @ np.abs(vp - vg))


class CosineScorer:
    def score(self, probe, gallery_item):
        return cosine_score(probe, gallery_item)


class RankSvmScorer:
    def __init__(self, model):
        self.model = model

    def score(self, probe, gallery_item):
        return ranksvm_score(self.model, probe, gallery_item)


def rank_gallery(probe, gallery, scorer):
    """Gallery indices by descending score; ties broken by ascending index."""
    if len(gallery) == 0:
        raise DataError("empty gallery")
    if scorer == "cosine":
        scorer = CosineScorer()
    scores = np.array([scorer.score(probe, g) for g in gallery])
    return np.argsort(-scores, kind="stable")


def pair_difference_features(probe_embeddings, gallery_embeddings):
    """Margin rows s+_i - s-_ij for every i and j != i.

    s+_i = |a_i - b_i| (true pair), s-_ij = |a_i - b_j| (wrong pair); the
    solver wants w . (s+_i - s-_ij) >= 1.
    """
    n = len(probe_embeddings)
    if n != len(gallery_embeddings):
        raise DataError("probe/gallery lists must be aligned per person")
    if n < 2:
        raise DataError("RankSVM training needs at least 2 persons")
    probes = np.stack([_vec(e) for e in probe_embeddings])
    gallery = np.stack([_vec(e) for e in gallery_embeddings])
    rows = []
    for i in range(n):
        pos = np.abs(probes[i] - gallery[i])
        for j in range(n):
            if j != i:
                rows.append(pos - np.abs(probes[i] - gallery[j]))
    diffs = np.stack(rows)
    if np.all(diffs == 0.0):
        raise DegenerateProblemError("all pair features are identical; nothing to rank")
    return diffs


def hinge_objective(w, diffs, C):
    """0.5 |w|^2 + C * sum max(0, 1 - w . d) over all constraint rows."""
    margins = diffs @ w
    return 0.5 * float(w @ w) + C * float(np.maximum(0.0, 1.0 - margins).sum())


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
    w_avg = np.zeros_like(w)
    w_best = w_avg.copy()
    best = hinge_objective(w_best, diffs, C)
    weight_sum = 0.0
    history = []
    for t in range(1, iters + 1):
        margins = diffs @ w
        violated = margins < 1.0
        subgrad = lam * w - diffs[violated].sum(axis=0) / m
        w = w - subgrad / (lam * t)
        norm = np.linalg.norm(w)
        if norm > radius:
            w *= radius / norm
        weight_sum += t
        w_avg += (w - w_avg) * t / weight_sum
        obj = hinge_objective(w_avg, diffs, C)
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
