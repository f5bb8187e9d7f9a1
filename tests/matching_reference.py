"""Per-iteration RankSVM loop and per-pair CMC ranking kept as the reference
for the carried-margin solver and the score-matrix ranking in
``rfanet.matching`` and ``rfanet.evaluation``: every iteration recomputes
``diffs @ w`` and the averaged iterate's objective from the pair matrix, and
every probe-gallery pair is scored by its own call. The RankSVM's exact
optimum comes from dual coordinate descent on the same pair matrix.
"""

import numpy as np

from rfanet.matching import pair_difference_features


def hinge_objective(w, diffs, C):
    margins = diffs @ w
    return 0.5 * float(w @ w) + C * float(np.maximum(0.0, 1.0 - margins).sum())


def train_ranksvm(probes, gallery, C, iters):
    """(w, objective history) of the averaged projected subgradient solver."""
    diffs = pair_difference_features(probes, gallery)
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
    return w_best, history


def dual_coordinate_descent(probes, gallery, C, tol=1e-13, max_sweeps=100_000):
    """(w, primal, dual) of the hinge problem min 0.5|w|^2 + C sum max(0,
    1 - diffs @ w) solved in its dual by cyclic coordinate descent (Hsieh et
    al., ICML 2008): min 0.5 |alpha @ diffs|^2 - sum alpha over
    0 <= alpha <= C, with w = alpha @ diffs. Each coordinate step is exact;
    sweeps stop once the duality gap primal - dual is at most tol * primal.
    """
    diffs = pair_difference_features(probes, gallery)
    q = np.einsum("ij,ij->i", diffs, diffs)
    # a zero row's hinge term is 1 at every w, so its alpha sits at C
    alpha = np.where(q > 0.0, 0.0, C)
    w = alpha @ diffs
    for _ in range(max_sweeps):
        for i in np.flatnonzero(q):
            a = min(max(alpha[i] - (diffs[i] @ w - 1.0) / q[i], 0.0), C)
            w += (a - alpha[i]) * diffs[i]
            alpha[i] = a
        w = alpha @ diffs
        primal = hinge_objective(w, diffs, C)
        dual = float(alpha.sum()) - 0.5 * float(w @ w)
        if primal - dual <= tol * primal:
            break
    return w, primal, dual


def cosine_score(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def ranksvm_score(w, a, b):
    return float(w @ np.abs(a - b))


def compute_cmc(probes, gallery, score):
    """CMC rates from ``score(probe_values, gallery_values)`` per pair, ranked
    by a stable argsort of the negated scores."""
    gallery_ids = [g.source_id for g in gallery]
    counts = np.zeros(len(gallery))
    for probe in probes:
        scores = np.array([score(probe.values, g.values) for g in gallery])
        order = np.argsort(-scores, kind="stable")
        ranked_ids = [gallery_ids[i] for i in order]
        counts[ranked_ids.index(probe.source_id)] += 1
    return np.cumsum(counts) / len(probes)
