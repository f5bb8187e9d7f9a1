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
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegenerateProblemError


def _embedding_row(x, what, shape=None):
    """An embedding's values, or a row, as a finite 1-D float64 array, of
    ``shape`` if given, or DataError naming ``what``. A float64 row is not copied."""
    try:
        row = np.asarray(getattr(x, "values", x), dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"{what}: embedding is not numeric") from None
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


def _score_inputs(P, G, dim=None):
    """(n_p, d) probes and (n_g, d) gallery as float64, or DataError."""
    P = np.asarray(P, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    if P.ndim != 2 or G.ndim != 2 or P.shape[1] != G.shape[1]:
        raise DataError(f"dimension mismatch: probes {P.shape} vs gallery {G.shape}")
    if dim is not None and P.shape[1] != dim:
        raise DataError(f"dimension mismatch: embeddings of dim {P.shape[1]}, model of dim {dim}")
    return P, G


def _cosine_scores(P, G, g_norm=None):
    """CosineScorer.scores; compute_cmc passes the gallery's row norms
    ``g_norm``, computed once for all of its probe blocks."""
    P, G = _score_inputs(P, G)
    p_norm = np.linalg.norm(P, axis=1)
    if g_norm is None:
        g_norm = np.linalg.norm(G, axis=1)
    if not (p_norm.all() and g_norm.all()):
        raise DataError("cosine score undefined for a zero-norm vector")
    return (P @ G.T) / np.outer(p_norm, g_norm)


class CosineScorer:
    """(p . g) / (|p| |g|), in [-1, 1]; higher means more similar."""

    def scores(self, P, G):
        """(n_p, n_g) cosine similarities of every probe row with every gallery row."""
        return _cosine_scores(P, G)


# gallery rows per max(G_blk, p) block: 16 x 5,120 float64 is 640 kB, which
# stays in L2 while every probe of a call is scored against it. The last
# block's gemv, and G @ w, may sum their edge rows in another order, so
# bit-identical gallery rows need not score bit-identically (see compute_cmc).
_GALLERY_BLOCK = 16

# bytes of one max(P_blk, G) block of the RankSVM fit: as many whole probes
# as fit, and at least one. 2 MiB is about one core's L2 cache: 30 ids at
# dim 5,120 (1.2 MB a probe) and 150 ids run one probe a block, which was
# faster than three, and a desk-size fit (10 ids, dim 80) is one block.
_PROBE_BLOCK_BYTES = 2 * 2**20


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
        w = _embedding_row(self.model.w, "RankSVM weights")
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

    With |p - g| = 2 max(p, g) - p - g, a row is a_i + p_i + g_j
    - 2 max(p_i, g_j): the first three terms are (n, dim) vector algebra and
    only max(p_i, g_j) is streamed, a block of whole probes at a time into
    one buffer of at most _PROBE_BLOCK_BYTES, or of one probe. max rounds
    nothing, so the error is that of the products: a few eps times
    sum_k |w_k| (|p_k| + |g_k|), as in RankSvmScorer.scores.
    """

    def __init__(self, probes, gallery):
        n, dim = probes.shape
        self.probes, self.gallery = probes, gallery
        step = max(1, _PROBE_BLOCK_BYTES // (n * max(dim, 1) * 8))
        buf = np.empty((min(step, n), n, dim))
        # each block's probe rows and its (rows, n, dim) view of the one buffer
        self.blocks = [(slice(i, i + step), buf[:min(step, n - i)]) for i in range(0, n, step)]
        a = np.abs(probes - gallery)
        # pair_difference_features' all-zero test, stopped at the first
        # block with a non-zero row (j = i gives a_i itself)
        for rows, block in self.blocks:
            np.abs(np.subtract(probes[rows, None], gallery, out=block), out=block)
            if (block != a[rows, None]).any():
                break
        else:
            raise DegenerateProblemError("all pair features are identical; nothing to rank")
        a += probes
        self.base = a  # a_i + p_i
        self.off = ~np.eye(n, dtype=bool)
        self.held = None  # the block whose max(p_i, g_j) the buffer holds

    def _larger(self, k):
        """max(p_i, g_j) for the probes i of block k, as (rows * n, dim) rows;
        it does not depend on w, so a one-block fit fills the buffer once."""
        rows, buf = self.blocks[k]
        if self.held != k:
            np.maximum(self.probes[rows, None], self.gallery, out=buf)
            self.held = k
        return buf.reshape(-1, buf.shape[2])

    def violated_sum(self, violated):
        """violated @ rows, for a boolean mask over the rows in their order."""
        V = np.zeros(self.off.shape)
        V[self.off] = violated
        larger = np.zeros(self.gallery.shape[1])
        for k, (rows, _) in enumerate(self.blocks):
            if np.count_nonzero(V[rows]):
                larger += V[rows].reshape(-1) @ self._larger(k)
        return V.sum(axis=1) @ self.base + V.sum(axis=0) @ self.gallery - 2.0 * larger

    def margins(self, w):
        """rows @ w."""
        S = np.empty(self.off.shape)
        for k, (rows, _) in enumerate(self.blocks):
            np.matmul(self._larger(k), w, out=S[rows].reshape(-1))
        S *= -2.0
        S += (self.base @ w)[:, None]
        S += self.gallery @ w
        return S[self.off]


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

    A new non-empty mask makes two streamed passes over the pairs (see
    _StreamedPairs): violated_sum for T, which skips probe blocks without a
    violated row, and margins(T). The fit holds O(n dim) plus one pair
    block of at most _PROBE_BLOCK_BYTES, in place of the n(n-1) x dim pair
    matrix. A bad C or iters, fewer than 2 aligned persons and rows that
    _embedding_matrix refuses raise DataError.
    """
    if not (isinstance(C, numbers.Real) and math.isfinite(C) and C > 0):
        raise DataError(f"C must be finite and > 0, got {C}")
    if not (isinstance(iters, (int, np.integer)) and iters >= 1):
        raise DataError(f"iters must be an integer >= 1, got {iters!r}")
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
    # w_best outlives the fit: allocated once, before the pair buffers, and
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
    S = RankSvmScorer(model).scores(P, G)
    n = len(S)
    # the diagonal never beats itself, so the count is over j != i only
    return float((np.diag(S)[:, None] > S).sum() / (n * (n - 1)))
