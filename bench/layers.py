"""The layers the traced run measures, and the per-layer metrics it reports.

The layers are the modules of ``rfanet`` that do measurable work: features,
rnn, aggregate, matching and evaluation (evaluation is also the
orchestration layer). ``config``, ``cli`` and ``errors`` do no measurable
work and are not traced.

Besides span counts and self times, hooks on a few functions count work
where it happens:

- ``features.useful_ratio``: distinct input frames over frames described,
  found by hashing the pixels of every frame passed to ``sequence_features``.
- ``rnn.flops_computed`` / ``rnn.weight_bytes_computed``: computed from
  array shapes, not measured. Each recurrence step does one multiply-add per
  weight and reads every weight once; each backward timestep forms every
  weight gradient as an outer product accumulated into the gradient (one
  multiply-add, four float64 touches per weight: the product is written,
  then read with the accumulator, which is written back) and reads the
  recurrent and head weights once more for the transposed products; an SGD
  update does two flops and five touches per parameter.
- ``matching.pair_difference_features.bytes_computed``: bytes of the
  returned n(n-1) x dim float64 pair matrix.
- ``matching.fit_repeat_ratio``: RankSVM fits whose inputs (embeddings, C,
  iterations) were already fitted in the traced scope, over all fits.
"""

from __future__ import annotations

import hashlib

import numpy as np

TRACED_MODULES = ("features", "rnn", "aggregate", "matching", "evaluation")


def _timed(function, extra=()):
    return [f"{function}.calls", f"{function}.self_s", *(f"{function}.{x}" for x in extra)]


# Self times are kept for the small functions that carry a layer's work:
# lstm_step holds the recurrence of forward and of every embedding window,
# lbp_codes most of a frame descriptor, hinge_objective half of each RankSVM
# iteration, and cosine_score / ranksvm_score the per-pair ranking.
PER_LAYER_METRICS = (
    *_timed("features.decode_image"),
    *_timed("features.resize_bilinear"),
    *_timed("features.to_frame_tensor"),
    *_timed("features.extract_frame_feature"),
    *_timed("features.sequence_features"),
    *_timed("features.lbp_codes"),
    "features.useful_ratio",
    *_timed("rnn.train"),
    *_timed("rnn.init_model"),
    *_timed("rnn.forward"),
    *_timed("rnn.backward"),
    *_timed("rnn.sgd_update"),
    *_timed("rnn.lstm_step"),
    "rnn.flops_computed",
    "rnn.weight_bytes_computed",
    *_timed("aggregate.embed_sequence"),
    *_timed("aggregate.embed_at_depth"),
    "aggregate.run_hidden_states.calls",
    *_timed("matching.pair_difference_features", ("bytes_computed",)),
    *_timed("matching.train_ranksvm", ("iters",)),
    *_timed("matching.hinge_objective"),
    *_timed("matching.cosine_score"),
    *_timed("matching.ranksvm_score"),
    *_timed("matching.rank_gallery"),
    "matching.fit_repeat_ratio",
    *_timed("evaluation.load_dataset"),
    *_timed("evaluation.inject_noise"),
    *_timed("evaluation.compute_cmc"),
    *_timed("evaluation.run_experiment"),
    "tracing.overhead_ratio",
)

UNITS = {"calls": "count", "self_s": "s", "bytes_computed": "B", "iters": "count"}
SPECIAL_UNITS = {
    "features.useful_ratio": "ratio",
    "rnn.flops_computed": "flop",
    "rnn.weight_bytes_computed": "B",
    "matching.fit_repeat_ratio": "ratio",
    "tracing.overhead_ratio": "ratio",
}


def _weights(model):
    H, D, N = model.hidden_dim, model.input_dim, model.num_classes
    peep = 3 * H * H if model.peephole == "full" else 3 * H
    return H, D, N, peep


class WorkCounters:
    """Hooks that count work at the traced functions, into ``tracer.counters``."""

    def __init__(self):
        self._frames_seen = set()
        self._fits_seen = set()

    def register(self, tracer):
        tracer.on_call("features.sequence_features", self.sequence_features)
        tracer.on_call("rnn.lstm_step", self.lstm_step)
        tracer.on_call("rnn.backward", self.backward)
        tracer.on_call("rnn.sgd_update", self.sgd_update)
        tracer.on_call("matching.pair_difference_features", self.pair_difference_features)
        tracer.on_call("matching.train_ranksvm", self.train_ranksvm)

    def sequence_features(self, tracer, args, _result):
        for img in args["images"]:
            digest = hashlib.blake2b(img.pixels.tobytes(), digest_size=16)
            digest.update(repr(img.pixels.shape).encode())
            self._frames_seen.add(digest.digest())
            tracer.count("frames_described")
        tracer.counters["frames_distinct"] = len(self._frames_seen)

    def lstm_step(self, tracer, args, _result):
        H, D, _, peep = _weights(args["model"])
        weights = 4 * H * D + 4 * H * H + peep
        tracer.count("rnn.flops_computed", 2 * weights)
        tracer.count("rnn.weight_bytes_computed", 8 * weights)

    def backward(self, tracer, args, _result):
        H, D, N, peep = _weights(args["model"])
        steps = args["trace"].h.shape[0]
        weights = 4 * H * D + 4 * H * H + peep + N * H
        reread = 4 * H * H + peep + N * H
        tracer.count("rnn.flops_computed", steps * (2 * weights + 2 * reread))
        tracer.count("rnn.weight_bytes_computed", steps * (32 * weights + 8 * reread))

    def sgd_update(self, tracer, args, _result):
        params = sum(int(np.size(g)) for g in args["grads"].values())
        tracer.count("rnn.flops_computed", 2 * params)
        tracer.count("rnn.weight_bytes_computed", 40 * params)

    def pair_difference_features(self, tracer, _args, result):
        tracer.count("matching.pair_difference_features.bytes_computed", int(result.nbytes))

    def train_ranksvm(self, tracer, args, _result):
        C, iters = args["C"], int(args["iters"])
        digest = hashlib.blake2b(repr((C, iters)).encode(), digest_size=16)
        for items in (args["probe_embeddings"], args["gallery_embeddings"]):
            for emb in items:
                digest.update(np.ascontiguousarray(getattr(emb, "values", emb)).tobytes())
        key = digest.digest()
        tracer.count("fits")
        tracer.count("fit_repeats", int(key in self._fits_seen))
        self._fits_seen.add(key)
        tracer.count("matching.train_ranksvm.iters", iters)


def per_layer_metrics(tracer, overhead_ratio):
    """Every name of PER_LAYER_METRICS -> (value, unit), plus the bases of the
    two waste ratios as text."""
    summary = tracer.summary()
    c = tracer.counters
    described, distinct = c.get("frames_described", 0), c.get("frames_distinct", 0)
    fits, repeats = c.get("fits", 0), c.get("fit_repeats", 0)
    special = {
        # no frames described wastes nothing: report the ratio as 1
        "features.useful_ratio": distinct / described if described else 1.0,
        "matching.fit_repeat_ratio": repeats / fits if fits else 0.0,
        "tracing.overhead_ratio": overhead_ratio,
    }
    out = {}
    for name in PER_LAYER_METRICS:
        function, stat = name.rsplit(".", 1)
        if name in special:
            value = special[name]
        elif stat in ("calls", "self_s"):
            value = summary.get(function, {}).get(stat, 0)
        else:
            value = c.get(name, 0)
        out[name] = (value, SPECIAL_UNITS.get(name) or UNITS[stat])
    bases = {
        "features.useful_ratio": (
            f"{described - distinct} of {described} frames described were repeats"
        ),
        "matching.fit_repeat_ratio": (
            f"{repeats} of {fits} RankSVM fits were on inputs already fitted"
        ),
    }
    return out, bases
