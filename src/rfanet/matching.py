"""Probe-gallery scoring: cosine similarity and a linear RankSVM trained on
element-wise absolute-difference pair features.

``bind_scorer`` binds a scorer to the stacked gallery once and returns the
block scorer that ``compute_cmc`` calls for each block of probes. Scores are
HIGHER for more similar pairs; ranking sorts by descending score with ties
broken by ascending gallery index. BLAS sums some rows of a product in
another order than the rest, so two bit-identical gallery rows can score a
last bit apart; the block scorer gives each such twin the score of the
first of them, as the exact tie it is.

Every RankSVM pass over probe-gallery pairs, the scorer's and the fit's
margins and violated sums, reads max(p_i, g_j) from one generator,
``_pair_max``: blocks of _GALLERY_BLOCK gallery rows outside, probes inside
and one reused buffer, so the fit's margins are differences of the scorer's
scores, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, DataError, DegenerateProblemError, require_int,
                     require_real)


def _float64(x, message):
    """x as a float64 array (not copied if it is one), or DataError(message)."""
    try:
        return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise DataError(message) from None


def _embedding_row(x, what, shape=None):
    """An embedding's values, or a row, as a finite 1-D float64 array, of
    ``shape`` if given, or DataError naming ``what``. A float64 row is not copied."""
    row = _float64(getattr(x, "values", x), f"{what}: embedding is not numeric")
    if row.ndim != 1 or shape not in (None, row.shape):
        raise DataError(f"{what}: embedding shape {row.shape}, expected {shape or '1-D'}")
    if not np.isfinite(row).all():
        raise DataError(f"{what} has a non-finite embedding value")
    return row


def _embedding_matrix(items, role, names=None, shape=None):
    """(n, dim) stack of rows _embedding_row accepts, each of ``shape`` or else
    of the first one's; DataError names ``{role} {name}`` (``embedding k`` by default)."""
    names = [f"embedding {k}" for k in range(len(items))] if names is None else names
    rows = []
    for x, name in zip(items, names):
        rows.append(_embedding_row(x, f"{role} {name}", rows[0].shape if rows else shape))
    return np.stack(rows)


def _first_twins(G):
    """Each row's first bit-identical row: itself when it is the first.

    The wrapping uint64 sum of a row's bits is an exact, order-free
    fingerprint: rows with distinct fingerprints differ, so whole rows are
    compared only within a fingerprint group, and only with its first rows.
    """
    bits = G.view(np.uint64)
    _, group, counts = np.unique(bits.sum(axis=1), return_inverse=True, return_counts=True)
    first = np.arange(len(G))
    for k in np.flatnonzero(counts[group] > 1):
        for j in np.flatnonzero(group[:k] == group[k]):
            if first[j] == j and np.array_equal(bits[j], bits[k]):
                first[k] = j
                break
    return first


def bind_scorer(scorer, G):
    """The block scorer of ``scorer`` bound to the gallery rows G: P -> the
    (len(P), len(G)) score matrix of the probe rows P, checked. ``scorer`` is
    "cosine" or a RankSvmScorer, else ConfigurationError. The gallery terms
    (the norms, or the checked w and G @ w) are formed once, here. Rows that
    are not numbers of one length, probes of another dimension and
    non-finite scores (both scorers can overflow, without a numpy warning)
    raise DataError.
    """
    G = _float64(G, "gallery is not a numeric matrix")
    if G.ndim != 2:
        raise DataError(f"dimension mismatch: gallery of shape {G.shape}, expected 2-D")
    # overflow ends in the finite-score check below, not in a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(scorer, RankSvmScorer):
            w = _embedding_row(scorer.model.w, "RankSVM weights")
            if G.shape[1] != w.size:
                raise DataError(
                    f"dimension mismatch: gallery of dim {G.shape[1]}, model of dim {w.size}")
            g_w = G @ w

            def scores(P):
                return _ranksvm_scores(P, G, w, g_w)
        elif isinstance(scorer, str) and scorer == "cosine":
            g_norm = np.linalg.norm(G, axis=1)

            def scores(P):
                p_norm = np.linalg.norm(P, axis=1)
                if not (p_norm.all() and g_norm.all()):
                    raise DataError("cosine score undefined for a zero-norm vector")
                return (P @ G.T) / np.outer(p_norm, g_norm)
        else:
            raise ConfigurationError(f"unknown scorer {scorer!r}")
    twins = _first_twins(G)

    def score(P):
        P = _float64(P, "probes are not a numeric matrix")
        if P.ndim != 2 or P.shape[1] != G.shape[1]:
            raise DataError(f"dimension mismatch: probes {P.shape} vs gallery {G.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            S = scores(P)
        if not np.isfinite(S).all():
            raise DataError("scorer returned non-finite scores")
        return S[:, twins]

    return score


# gallery rows per max(G_blk, p) block: 16 x 5,120 float64 is 640 kB, which
# stays in L2 while every probe of a pass is taken against it
_GALLERY_BLOCK = 16

# bytes of the RankSVM fit's per-run block of margins, one row of n(n - 1)
# margins a step: 2 MiB is about one core's L2 cache
_PROBE_BLOCK_BYTES = 2 * 2**20


def _pair_max(P, G, rows=None):
    """Yield (i, cols, max(P[i], G[cols])) for each block ``cols`` of
    _GALLERY_BLOCK gallery rows and, inside it, each probe i of ``rows`` (all
    of P by default). The maximum is a view of one buffer that the next
    yield overwrites."""
    buf = np.empty((min(len(G), _GALLERY_BLOCK), G.shape[1]))
    rows = range(len(P)) if rows is None else rows
    for g0 in range(0, len(G), _GALLERY_BLOCK):
        cols = slice(g0, g0 + _GALLERY_BLOCK)
        block = G[cols]
        larger = buf[:len(block)]
        for i in rows:
            yield i, cols, np.maximum(block, P[i], out=larger)


def _ranksvm_scores(P, G, w, g_w):
    """w . |p - g| for every probe row p of P and gallery row g of G, with
    g_w = G @ w.

    w . |p - g| = 2 w . max(p, g) - w . p - w . g, since |a - b| =
    2 max(a, b) - a - b exactly. ``np.maximum`` rounds nothing, so each
    (probe, gallery block) pair costs one elementwise pass and a gemv,
    and the error is that of the dot products: a few eps * sum_k |w_k|
    (|p_k| + |g_k|).
    """
    out = np.empty((len(P), len(G)))
    for i, cols, larger in _pair_max(P, G):
        out[i, cols] = larger @ w
    out *= 2.0
    out -= (P @ w)[:, None]
    out -= g_w
    return out


@dataclass
class RankSvmScorer:
    """w . |p - g| of a trained RankSvmModel, for bind_scorer; higher is more similar."""

    model: RankSvmModel


@dataclass
class RankSvmModel:
    w: np.ndarray
    C: float
    iters: int
    objective_history: list = field(default_factory=list)


def _aligned_pairs(probe_embeddings, gallery_embeddings):
    """(n, dim) probe and gallery rows of n >= 2 aligned persons, or DataError."""
    n = len(probe_embeddings)
    if n != len(gallery_embeddings):
        raise DataError("probe/gallery lists must be aligned per person")
    if n < 2:
        raise DataError("RankSVM needs at least 2 persons")
    probes = _embedding_matrix(probe_embeddings, "probe")
    return probes, _embedding_matrix(gallery_embeddings, "gallery", shape=probes.shape[1:])


def pair_difference_features(probe_embeddings, gallery_embeddings):
    """Margin rows s+_i - s-_ij for every i and j != i, in that order.

    s+_i = |a_i - b_i| (true pair), s-_ij = |a_i - b_j| (wrong pair); the
    solver wants w . (s+_i - s-_ij) >= 1. train_ranksvm never builds this
    n(n-1) x dim matrix (see _StreamedPairs); the tests' reference solver does.
    """
    probes, gallery = _aligned_pairs(probe_embeddings, gallery_embeddings)
    diffs = np.abs(probes - gallery)[:, None] - np.abs(probes[:, None] - gallery)
    diffs = diffs[~np.eye(len(probes), dtype=bool)]
    if not diffs.any():
        raise DegenerateProblemError("all pair features are identical; nothing to rank")
    return diffs


class _StreamedPairs:
    """The rows a_i - |p_i - g_j| (j != i, a_i = |p_i - g_i|) of
    pair_difference_features as its two products, never stored.

    A row's product with w is S[i, i] - S[i, j] for the score matrix S of w
    (_ranksvm_scores). With |p - g| = 2 max(p, g) - p - g, a row is
    a_i + p_i + g_j - 2 max(p_i, g_j): the first three terms are (n, dim)
    vector algebra, and both products take max(p_i, g_j) from _pair_max.
    """

    def __init__(self, probes, gallery):
        self.probes, self.gallery = probes, gallery
        a = np.abs(probes - gallery)
        # pair_difference_features' all-zero test, stopped at the first
        # probe with a non-zero row (j = i gives a_i itself)
        if not any((np.abs(p - gallery) != a_i).any() for p, a_i in zip(probes, a)):
            raise DegenerateProblemError("all pair features are identical; nothing to rank")
        a += probes
        self.base = a  # a_i + p_i
        self.off = ~np.eye(len(probes), dtype=bool)

    def violated_sum(self, violated):
        """violated @ rows, for a boolean mask over the rows in their order."""
        V = np.zeros(self.off.shape)
        V[self.off] = violated
        larger = np.zeros(self.gallery.shape[1])
        for i, cols, block in _pair_max(self.probes, self.gallery, np.flatnonzero(V.any(axis=1))):
            larger += V[i, cols] @ block
        return V.sum(axis=1) @ self.base + V.sum(axis=0) @ self.gallery - 2.0 * larger

    def margins(self, w):
        """rows @ w."""
        S = _ranksvm_scores(self.probes, self.gallery, w, self.gallery @ w)
        return (np.diag(S)[:, None] - S)[self.off]


def _objective(w, margins, C):
    """0.5 |w|^2 + C * sum max(0, 1 - m) over the constraint margins m = diffs @ w."""
    return 0.5 * float(w @ w) + C * float(np.maximum(0.0, 1.0 - margins).sum())


def _check_ranksvm_args(C, iters):
    """The argument rules of ``train_ranksvm``, which ``RunConfig.validate``
    runs too. Each DataError's message starts with the argument's name."""
    require_real(C, "C", DataError, above=0)
    require_int(iters, "iters", DataError, low=1)


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

    The steps run in stretches that keep one violated mask. With T the sum
    of the mask's rows (zero for an empty mask), a step is
    w <- (1 - 1/t) w + T / (lambda m t) and then the projection, so within a
    stretch that starts from w = x0 and w_avg = R0, w stays a x0 + b T and
    w_avg stays rho R0 + alpha x0 + beta T. The fit carries x0, R0 and T and
    their margins rows @ x0, rows @ R0 and rows @ T, and a step is a few
    scalar recurrences: |w| and |w_avg| come from the 3 x 3 Gram matrix of
    the three vectors. Margins, violated test and hinge sums of a run of
    steps are one (steps, m) block of at most _PROBE_BLOCK_BYTES, and runs
    double in length while the mask holds; the stretch ends at the first
    step whose w violates another set of rows, and that step's w, w_avg and
    margins start the next one. A desk-size fit keeps one mask for all
    2,000 steps.

    A new non-empty mask makes two passes over _pair_max's gallery blocks
    (see _StreamedPairs): violated_sum for T, which skips probes without a
    violated row, and margins(T), from the scorer's score matrix of T. The
    fit holds O(n dim), one gallery block and one block of margins of at
    most _PROBE_BLOCK_BYTES, in place of the n(n-1) x dim pair matrix. A bad
    C or iters, fewer than 2 aligned persons and rows that _embedding_matrix
    refuses raise DataError.
    """
    _check_ranksvm_args(C, iters)
    probes, gallery = _aligned_pairs(probe_embeddings, gallery_embeddings)
    n, dim = probes.shape
    m = n * (n - 1)
    # Python floats: the per-step recurrences below are scalar arithmetic
    lam = 1.0 / (float(C) * m)
    radius = 1.0 / math.sqrt(lam)

    # R0 = w_avg and x0 = w at the start of a stretch and its violated sum T,
    # and rows @ each of them
    X = np.zeros((3, dim))
    M = np.zeros((3, m))
    # w_best outlives the fit: allocated once, before the fit's buffers, and
    # updated in place, it stays out of freed gallery-sized heap holes (a copy
    # in one made a 300-id ranking after a 30-id fit add 12 MB to peak RSS)
    w_best = np.zeros(dim)
    pairs = _StreamedPairs(probes, gallery)
    best = _objective(w_best, M[0], C)
    history = np.empty(iters)
    # the margins of a run of steps, one row a step, refilled for each run
    block = np.empty((min(max(1, _PROBE_BLOCK_BYTES // (m * 8)), iters), m))
    t = 1
    while t <= iters:
        # a stretch: the steps from t on that keep the violated mask of x0
        mask = M[1] < 1.0
        if mask.any():
            X[2] = pairs.violated_sum(mask)
            M[2] = pairs.margins(X[2])
        else:
            X[2] = 0.0
            M[2] = 0.0
        gram = X @ X.T
        gxx, gxt, gtt = map(float, (gram[1, 1], gram[1, 2], gram[2, 2]))
        a, b = 1.0, 0.0                    # w = a x0 + b T
        rho, alpha, beta = 1.0, 0.0, 0.0   # w_avg = rho R0 + alpha x0 + beta T
        run = 1
        while t <= iters:
            coef = []
            for s in range(t, t + min(run, len(block), iters + 1 - t)):
                scale = 1.0 - 1.0 / s
                a, b = a * scale, b * scale + 1.0 / (lam * m * s)
                # max: rounding can take the Gram form below 0 near w = 0
                norm = math.sqrt(max(a * a * gxx + 2.0 * a * b * gxt + b * b * gtt, 0.0))
                if norm > radius:
                    a, b = a * radius / norm, b * radius / norm
                f = s / (s * (s + 1) // 2)   # t / sum of the weights 1..t
                rho, alpha, beta = rho - rho * f, alpha + (a - alpha) * f, beta + (b - beta) * f
                coef.append((0.0, a, b, rho, alpha, beta))
            coef = np.array(coef).reshape(-1, 2, 3)
            margins = np.matmul(coef[:, 0], M, out=block[:len(coef)])
            changed = ((margins < 1.0) != mask).any(axis=1)
            ends = changed.any()
            # steps t .. t + k - 1 keep the mask; the last of them may leave it
            k = int(changed.argmax()) + 1 if ends else len(coef)
            x_margins = margins[k - 1].copy()
            hinge = np.matmul(coef[:k, 1], M, out=block[:k])  # w_avg's margins
            r_margins = hinge[k - 1].copy()
            np.subtract(1.0, hinge, out=hinge)
            np.maximum(hinge, 0.0, out=hinge)
            obj = 0.5 * np.einsum("ki,ij,kj->k", coef[:k, 1], gram, coef[:k, 1])
            obj += C * hinge.sum(axis=1)
            lowest = np.minimum.accumulate(np.concatenate(([best], obj)))
            improved = np.flatnonzero(obj < lowest[:-1])
            if improved.size:
                np.matmul(coef[improved[-1], 1], X, out=w_best)
            best = float(lowest[-1])
            history[t - 1:t - 1 + k] = lowest[1:]
            t += k
            if ends:
                X[:2] = coef[k - 1, ::-1] @ X
                M[0], M[1] = r_margins, x_margins
                break
            run *= 2
    return RankSvmModel(w_best, C, iters, history.tolist())


def ranking_accuracy(model, probe_embeddings, gallery_embeddings):
    """Fraction of (i, j != i) pairs with F(s+_i) > F(s-_ij).

    F(s+_i) - F(s-_ij) = w . (|p_i - g_i| - |p_i - g_j|) = S[i, i] - S[i, j]
    for the score matrix S, so no pair matrix is built.
    """
    P, G = _aligned_pairs(probe_embeddings, gallery_embeddings)
    S = bind_scorer(RankSvmScorer(model), G)(P)
    n = len(S)
    # the diagonal never beats itself, so the count is over j != i only
    return float((np.diag(S)[:, None] > S).sum() / (n * (n - 1)))
