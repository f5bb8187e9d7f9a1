"""Probe-gallery scoring: cosine similarity and a linear RankSVM trained on
element-wise absolute-difference pair features.

Both scorers return HIGHER values for more similar pairs, as a whole
(n_probes, n_gallery) matrix from ``scores(P, G)``; ranking sorts by
descending score with ties broken by ascending gallery index. BLAS sums
some rows of a product in another order than the rest, so two bit-identical
gallery rows can score a last bit apart; ``compute_cmc`` ranks such twins
on the score of the first of them, as the exact tie they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegenerateProblemError


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


# gallery rows per max(G_blk, p) block: 16 x 5,120 float64 is 640 kB, which
# stays in L2 while every probe of a call is scored against it. The last
# block's gemv, and G @ w, may sum their edge rows in another order, so
# bit-identical gallery rows need not score bit-identically (see compute_cmc).
_GALLERY_BLOCK = 16


class RankSvmScorer:
    """w . |p - g| of a trained RankSvmModel; higher means more similar."""

    def __init__(self, model):
        self.model = model

    def scores(self, P, G):
        """(n_p, n_g) RankSVM scores of every probe row with every gallery row.

        w . |p - g| = 2 w . max(p, g) - w . p - w . g, since |a - b| =
        2 max(a, b) - a - b exactly. ``np.maximum`` rounds nothing, so each
        (probe, gallery block) pair costs one elementwise pass and a gemv,
        and the error is that of the dot products: a few eps * sum_k |w_k|
        (|p_k| + |g_k|).
        """
        w = self.model.w
        P, G = _score_inputs(P, G, w.size)
        out = np.empty((len(P), len(G)))
        buf = np.empty((min(len(G), _GALLERY_BLOCK), G.shape[1]))
        for g0 in range(0, len(G), _GALLERY_BLOCK):
            block = G[g0:g0 + _GALLERY_BLOCK]
            larger = buf[:len(block)]
            for i, p in enumerate(P):
                out[i, g0:g0 + len(block)] = np.maximum(block, p, out=larger) @ w
        out *= 2.0
        out -= (P @ w)[:, None]
        out -= G @ w
        return out


@dataclass
class RankSvmModel:
    w: np.ndarray
    C: float
    iters: int
    objective_history: list = field(default_factory=list)


def _aligned_pairs(probe_embeddings, gallery_embeddings):
    """(n, dim) probe and gallery rows of n >= 2 aligned persons, or DataError
    naming the first probe or gallery index with a non-finite value."""
    n = len(probe_embeddings)
    if n != len(gallery_embeddings):
        raise DataError("probe/gallery lists must be aligned per person")
    if n < 2:
        raise DataError("RankSVM needs at least 2 persons")
    probes = np.stack([_vec(e) for e in probe_embeddings])
    gallery = np.stack([_vec(e) for e in gallery_embeddings])
    for role, X in (("probe", probes), ("gallery", gallery)):
        finite = np.isfinite(X).all(axis=1)
        if not finite.all():
            raise DataError(f"{role} embedding {int(np.argmin(finite))} has a non-finite value")
    return probes, gallery


def pair_difference_features(probe_embeddings, gallery_embeddings):
    """Margin rows s+_i - s-_ij for every i and j != i, in that order.

    s+_i = |a_i - b_i| (true pair), s-_ij = |a_i - b_j| (wrong pair); the
    solver wants w . (s+_i - s-_ij) >= 1. The n(n-1) x dim matrix is filled
    in place, one block of n-1 rows per probe.
    """
    probes, gallery = _aligned_pairs(probe_embeddings, gallery_embeddings)
    n = len(probes)
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
    """0.5 |w|^2 + C * sum max(0, 1 - m) over the constraint margins m = diffs @ w."""
    return 0.5 * float(w @ w) + C * float(np.maximum(0.0, 1.0 - margins).sum())


def train_ranksvm(probe_embeddings, gallery_embeddings, C=1.0, iters=500):
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
    if not (math.isfinite(C) and C > 0):
        raise DataError(f"C must be finite and > 0, got {C}")
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
    return RankSvmModel(w_best, C, iters, history)


def ranking_accuracy(model, probe_embeddings, gallery_embeddings):
    """Fraction of (i, j != i) pairs with F(s+_i) > F(s-_ij).

    F(s+_i) - F(s-_ij) = w . (|p_i - g_i| - |p_i - g_j|) = S[i, i] - S[i, j]
    for the score matrix S, so no pair matrix is built.
    """
    P, G = _aligned_pairs(probe_embeddings, gallery_embeddings)
    S = RankSvmScorer(model).scores(P, G)
    n = len(S)
    # the diagonal never beats itself, so the count is over j != i only
    return float((np.diag(S)[:, None] > S).sum() / (n * (n - 1)))
