"""Per-iteration RankSVM loop and per-pair CMC ranking kept as the reference
for the carried-margin solver and the score-matrix ranking in
``rfanet.matching`` and ``rfanet.evaluation``: every iteration recomputes
``diffs @ w`` and the averaged iterate's objective from the pair matrix, and
every probe-gallery pair is scored by its own call.
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
