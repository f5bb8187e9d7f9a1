"""The benchmark's workloads. Each builds its inputs from the seed in
``setup`` and repeats one fixed unit of work in ``round``; the program sees
only the generated images, descriptors or embeddings.

A round returns a ``RoundResult``: the operations it attempted and failed
(an operation is a frame described, a training instance, a sequence
embedded, a RankSVM fit or a probe ranked), the output checks it ran, the
wall time of each call into the program, quality figures and a digest of
its outputs. The checks and the digest run outside the timed calls. A
round's inputs are the same every time, so every round of one seed must
give the same digest.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

import rfanet as rf


@dataclass
class RoundResult:
    ops: dict                                     # operation kind -> attempted
    failed: int = 0
    checks: list = field(default_factory=list)    # (name, passed, detail)
    stage_s: dict = field(default_factory=dict)   # program call -> wall seconds
    quality: dict = field(default_factory=dict)
    digest: str = ""

    def check(self, name, passed, detail="", ops_at_stake=0):
        self.checks.append((name, bool(passed), detail))
        if not passed:
            self.failed += ops_at_stake


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.data)  # hashes the buffer in place: the model is ~1 GB
    return h.hexdigest()[:32]


def _check_cmc(result, name, curve, probes):
    rates = curve.rates
    ok = (
        rates.size > 0
        and bool(np.all(np.isfinite(rates)))
        and bool(np.all(np.diff(rates) >= 0.0))
        and rates[-1] == 1.0
    )
    result.check(
        f"{name}: CMC non-decreasing and ends at 1.0", ok,
        f"rank-1 {rates[0]:.4f}, last {rates[-1]:.4f}", probes,
    )


# ---------------------------------------------------------------------------
# desk-noise: load a desk-scale dataset from disk and run the noise sweep
# ---------------------------------------------------------------------------

@dataclass
class DeskNoise:
    """Why: the only workload that exercises evaluation's orchestration, and
    features does repeated work there: every noise level re-describes the
    test sequences, most of whose frames are the unchanged clean ones, and
    the RankSVM is refitted per level on identical training embeddings.

    The camera shift and frame jitter are stronger than desk_scale()'s
    synthetic defaults (with those, rank-1 is 1.0 at every noise level, so
    an accuracy drop could not show). Trials, epochs and frames per camera
    are cut so one round takes seconds; three rounds give a steady median."""

    name: str = "desk-noise"
    min_rounds: int = 3
    persons: int = 20
    frames_per_camera: int = 10
    noise_pool: int = 20
    jitter: float = 0.15
    camera_offset: tuple = (0.2, 0.1, -0.2)
    epochs: int = 10
    ranksvm_iters: int = 2000
    levels: tuple = (0.0, 0.1, 0.3, 0.5)

    def config(self):
        cfg = rf.desk_scale(scorer="ranksvm", ranksvm_iters=self.ranksvm_iters)
        cfg.train = replace(cfg.train, epochs=self.epochs, lr_switch_epoch=self.epochs // 2)
        return cfg

    def setup(self, seed, workdir):
        cfg = self.config()
        dataset = rf.generate_synthetic(
            self.persons, self.frames_per_camera,
            width=cfg.image_w, height=cfg.image_h,
            appearance_seed=seed,
            camera_offset=self.camera_offset,
            jitter=self.jitter,
            noise_pool_size=self.noise_pool,
        )
        out = workdir / f"desk-noise-{seed}"
        shutil.rmtree(out, ignore_errors=True)
        manifest = rf.save_dataset(dataset, out)
        pixels = [img.pixels for p in dataset.persons for img in p.frames_a + p.frames_b]
        return {
            "seed": seed,
            "manifest": manifest,
            "input_digest": _digest(*pixels, *[img.pixels for img in dataset.noise_pool]),
        }

    def ops(self):
        test = self.persons - self.persons // 2
        train = self.persons // 2
        levels = len(self.levels)
        frames = self.frames_per_camera
        return {
            "frames": 2 * frames * (self.persons + levels * test),
            "instances": self.epochs * 2 * train,
            "sequences": levels * 2 * (train + test),
            "fits": levels,
            "probes": levels * test,
        }

    def round(self, state):
        ops = self.ops()
        result = RoundResult(ops)
        cfg = self.config()
        spec = rf.ExperimentSpec(kind="noise", trials=1, master_seed=state["seed"],
                                 noise_levels=self.levels)
        t0 = perf_counter()
        try:
            dataset = rf.load_dataset(state["manifest"])
            t1 = perf_counter()
            report = rf.run_experiment(dataset, cfg, spec)
        except rf.RfaError as exc:
            result.check("load_dataset and run_experiment raise no RfaError", False,
                         str(exc), sum(ops.values()))
            return result
        t2 = perf_counter()
        result.stage_s = {"load_dataset": t1 - t0, "run_experiment": t2 - t1}
        curves = []
        for level in self.levels:
            for curve in report.curves[level]:
                _check_cmc(result, f"noise {level}", curve, ops["probes"] // len(self.levels))
                curves.append(curve.rates)
        clean = report.mean_curves[self.levels[0]].rate(1)
        chance = 1.0 / (self.persons - self.persons // 2)
        result.check("rank-1 at the cleanest level above chance", clean > chance,
                     f"rank-1 {clean:.4f}")
        result.quality = {"rank1": clean,
                          "rank1_noisy": report.mean_curves[self.levels[-1]].rate(1)}
        result.digest = _digest(*curves)
        return result


# ---------------------------------------------------------------------------
# full-lstm: train and embed at the full geometry
# ---------------------------------------------------------------------------

@dataclass
class FullLstm:
    """Why: rnn and aggregate do nearly all of the timed work here, bound by
    BLAS and memory bandwidth: every recurrence step streams the four
    H x D input weight matrices (966 MB at D=58,950, H=512), several times
    the last-level cache. The inputs are full-scale descriptors of synthetic
    128x64 frames, built through features during set-up."""

    name: str = "full-lstm"
    min_rounds: int = 2           # one round alone is too noisy to gate on
    image_w: int = 64
    image_h: int = 128
    grid: tuple = (16, 8, 8, 4)   # patch_h, patch_w, stride_v, stride_h
    hidden_dim: int = 512
    subseq_len: int = 10
    frames: int = 12
    train_sequences: int = 2      # one instance each
    embed_sequences: int = 1
    windows: int = 10             # K
    jitter: float = 0.05

    def setup(self, seed, workdir):
        grid = rf.PatchGridSpec(*self.grid)
        persons = self.train_sequences + self.embed_sequences
        dataset = rf.generate_synthetic(
            persons, self.frames, width=self.image_w, height=self.image_h,
            appearance_seed=seed, jitter=self.jitter,
        )
        feats = [
            rf.sequence_features(p.frames_a, grid, self.image_w, self.image_h)
            for p in dataset.persons
        ]
        return {"seed": seed, "feats": feats, "input_digest": _digest(*feats)}

    def ops(self):
        return {"instances": self.train_sequences, "sequences": self.embed_sequences}

    def round(self, state):
        ops = self.ops()
        result = RoundResult(ops)
        feats = state["feats"]
        seqs = [rf.LabeledSequence(k, feats[k], f"p{k}") for k in range(self.train_sequences)]
        tcfg = rf.TrainConfig(
            subseq_len=self.subseq_len, epochs=1, lr_switch_epoch=1, dropout_rate=0.5,
            batch_size=16, seed=state["seed"], hidden_dim=self.hidden_dim, peephole="full",
        )
        t0 = perf_counter()
        try:
            model, history = rf.train(seqs, tcfg)
        except rf.RfaError as exc:
            result.check("train raises no RfaError", False, str(exc), sum(ops.values()))
            return result
        t1 = perf_counter()
        agg = rf.AggregationConfig(self.subseq_len, self.windows, state["seed"])
        embeddings, errors = [], []
        for k in range(self.train_sequences, self.train_sequences + self.embed_sequences):
            try:
                embeddings.append(rf.embed_sequence(model, feats[k], agg, source_id=k).values)
            except rf.RfaError as exc:
                errors.append(f"sequence {k}: {exc}")
        t2 = perf_counter()
        result.stage_s = {"train": t1 - t0, "embed": t2 - t1}
        params = [model.params[name] for name in sorted(model.params)]
        result.check("trained parameters are finite",
                     all(bool(np.all(np.isfinite(p))) for p in params), "", ops["instances"])
        result.check("training loss is finite", bool(np.all(np.isfinite(history))),
                     f"loss {history}", ops["instances"])
        result.check("embed_sequence raises no RfaError", not errors, "; ".join(errors),
                     len(errors))
        nonfinite = sum(not np.all(np.isfinite(e)) for e in embeddings)
        result.check("embeddings are finite", nonfinite == 0, "", nonfinite)
        result.quality = {"loss": float(history[-1])}
        result.digest = _digest(*params, history, *embeddings)
        return result


# ---------------------------------------------------------------------------
# full-match: fit a RankSVM and rank a large gallery at the full embedding dim
# ---------------------------------------------------------------------------

@dataclass
class FullMatch:
    """Why: no rnn work runs here; matching and evaluation.compute_cmc do all
    of it, in two uses: a RankSVM fit that streams the n(n-1) x dim pair
    matrix twice per iteration (870 x 5,120 float64, 36 MB, at 30 ids), and
    a ranking of every probe against every gallery entry by per-pair Python
    calls. At 60 ids (145 MB, half of a 300 MiB L3 shared with other
    tenants) one fit took from 16 s to 30 s on the same 2-core machine as the
    other tenants' cache use came and went; at 30 ids the matrix is a small
    share of that L3 and several rounds fit in a run. Embeddings are an identity prototype plus a fixed camera
    shift plus per-dimension noise of unequal scale, sized so that rank-1
    stays below 1.0 for both scorers."""

    name: str = "full-match"
    min_rounds: int = 1
    dim: int = 5120               # H * L at full scale
    train_ids: int = 30
    test_ids: int = 300
    C: float = 1.0
    iters: int = 2000
    shift: float = 0.5
    noise_low: float = 0.5
    noise_high: float = 6.0

    def _embeddings(self, rng, first_id, count, shift, scale):
        protos = rng.standard_normal((count, self.dim))
        probes, gallery = [], []
        for k in range(count):
            pid = first_id + k
            a = protos[k] + scale * rng.standard_normal(self.dim)
            b = protos[k] + shift + scale * rng.standard_normal(self.dim)
            probes.append(rf.SequenceEmbedding(a, pid, 0))
            gallery.append(rf.SequenceEmbedding(b, pid, 1))
        return probes, gallery

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        shift = self.shift * rng.standard_normal(self.dim)
        scale = rng.uniform(self.noise_low, self.noise_high, self.dim)
        train = self._embeddings(rng, 0, self.train_ids, shift, scale)
        test = self._embeddings(rng, self.train_ids, self.test_ids, shift, scale)
        values = [e.values for side in (*train, *test) for e in side]
        return {"train": train, "test": test, "input_digest": _digest(*values)}

    def ops(self):
        return {"fits": 1, "probes": 2 * self.test_ids}

    def round(self, state):
        ops = self.ops()
        result = RoundResult(ops)
        t0 = perf_counter()
        try:
            svm = rf.train_ranksvm(*state["train"], C=self.C, iters=self.iters)
        except rf.RfaError as exc:
            result.check("train_ranksvm raises no RfaError", False, str(exc), sum(ops.values()))
            return result
        t1 = perf_counter()
        history = np.asarray(svm.objective_history)
        result.check(
            "RankSVM weights and objective are finite, objective non-increasing",
            bool(np.all(np.isfinite(svm.w)) and np.all(np.isfinite(history))
                 and np.all(np.diff(history) <= 0.0)),
            f"final objective {history[-1]:.6g}", 1,
        )
        probes, gallery = state["test"]
        curves = {}
        stage = {"ranksvm_fit": t1 - t0}
        for scorer_name, scorer in (("cosine", "cosine"), ("ranksvm", rf.RankSvmScorer(svm))):
            t = perf_counter()
            try:
                curve = rf.compute_cmc(probes, gallery, scorer)
            except rf.RfaError as exc:
                result.check(f"{scorer_name} CMC raises no RfaError", False, str(exc),
                             self.test_ids)
                continue
            stage[f"rank.{scorer_name}"] = perf_counter() - t
            _check_cmc(result, scorer_name, curve, self.test_ids)
            result.check(f"{scorer_name} rank-1 above chance", curve.rate(1) > 1.0 / self.test_ids,
                         f"rank-1 {curve.rate(1):.4f}")
            curves[scorer_name] = curve.rates
        result.stage_s = stage
        result.quality = {f"rank1.{k}": float(v[0]) for k, v in curves.items()}
        result.digest = _digest(svm.w, history, *curves.values())
        return result


WORKLOADS = {w.name: w for w in (DeskNoise(), FullLstm(), FullMatch())}

# The same code paths at sizes that run in seconds, for the self-test.
TINY = {
    "desk-noise": DeskNoise(persons=6, frames_per_camera=6, noise_pool=4, epochs=2,
                            ranksvm_iters=50),
    "full-lstm": FullLstm(image_w=16, image_h=32, grid=(8, 4, 4, 2), hidden_dim=6,
                          subseq_len=3, frames=4, windows=2),
    "full-match": FullMatch(dim=24, train_ids=4, test_ids=6, iters=20, noise_high=1.0),
}

