"""Experiment harness: dataset manifests, identity splits, CMC curves,
noise-robustness / fusion-depth / subsequence-count sweeps, and a synthetic
dataset generator for desk-scale verification.

Camera a is the probe view, camera b the gallery view, throughout.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .aggregate import AggregationConfig, SequenceEmbedding, embed_at_depth, embed_sequence
from .errors import ConfigurationError, DataError
from .features import RawImage, encode_ppm, read_image, sequence_features
from .fileio import atomic_write
from .matching import CosineScorer, RankSvmScorer, train_ranksvm
from .rnn import LabeledSequence, train


# ---------------------------------------------------------------------------
# dataset containers and manifest
# ---------------------------------------------------------------------------

@dataclass
class PersonSequences:
    person_id: int
    frames_a: list  # ordered RawImage list, camera a
    frames_b: list  # ordered RawImage list, camera b


@dataclass
class Dataset:
    persons: list
    noise_pool: list = field(default_factory=list)

    def ids(self):
        return [p.person_id for p in self.persons]


def save_dataset(dataset, out_dir):
    """Materialize images as PPM files plus a JSON manifest; returns the
    manifest path. Paths in the manifest are relative to it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"persons": [], "noise_pool": []}
    for person in dataset.persons:
        entry = {"id": person.person_id, "camera_a": [], "camera_b": []}
        for cam, frames in (("a", person.frames_a), ("b", person.frames_b)):
            for k, img in enumerate(frames):
                rel = f"p{person.person_id:04d}/cam_{cam}/frame_{k:04d}.ppm"
                path = out / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(encode_ppm(img))
                entry[f"camera_{cam}"].append(rel)
        manifest["persons"].append(entry)
    for k, img in enumerate(dataset.noise_pool):
        rel = f"noise/frame_{k:04d}.ppm"
        path = out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(encode_ppm(img))
        manifest["noise_pool"].append(rel)
    manifest_path = out / "manifest.json"
    with atomic_write(manifest_path) as fh:
        fh.write((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    return manifest_path


def _string_list(value, what):
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise DataError(f"{what} must be a list of path strings")
    return value


def load_dataset(manifest_path):
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict) or not manifest.get("persons"):
        raise DataError(f"manifest {manifest_path} lists no persons")
    if not isinstance(manifest["persons"], list):
        raise DataError(f"manifest {manifest_path}: persons must be a list")
    root = manifest_path.parent
    persons = []
    seen = set()
    for k, entry in enumerate(manifest["persons"]):
        if not isinstance(entry, dict):
            raise DataError(f"manifest person entry {k} is not an object")
        pid = entry.get("id")
        if not isinstance(pid, int) or isinstance(pid, bool):
            raise DataError(f"manifest person entry {k} has no integer id (got {pid!r})")
        if pid in seen:
            raise DataError(f"duplicate person id {pid} in manifest")
        seen.add(pid)
        frames = {}
        for cam in ("a", "b"):
            paths = _string_list(entry.get(f"camera_{cam}", []), f"person {pid} camera_{cam}")
            if not paths:
                raise DataError(f"person {pid} has no camera_{cam} frames")
            frames[cam] = [read_image(root / rel) for rel in paths]
        persons.append(PersonSequences(pid, frames["a"], frames["b"]))
    pool_paths = _string_list(manifest.get("noise_pool", []), "noise_pool")
    pool = [read_image(root / rel) for rel in pool_paths]
    return Dataset(persons, pool)


# ---------------------------------------------------------------------------
# splits and CMC
# ---------------------------------------------------------------------------

@dataclass
class SplitSpec:
    trial_seed: int
    train_ids: tuple
    test_ids: tuple


def make_splits(person_ids, num_trials, master_seed):
    """num_trials independent half/half identity splits (train size N//2)."""
    ids = sorted(person_ids)
    if len(ids) < 2:
        raise DataError("need at least 2 persons to split")
    rng = np.random.default_rng(master_seed)
    splits = []
    for _ in range(num_trials):
        trial_seed = int(rng.integers(2**63))
        perm = np.random.default_rng(trial_seed).permutation(ids)
        k = len(ids) // 2
        splits.append(
            SplitSpec(trial_seed, tuple(sorted(perm[:k])), tuple(sorted(perm[k:])))
        )
    return splits


@dataclass
class CmcCurve:
    rates: np.ndarray

    def __post_init__(self):
        self.rates = np.asarray(self.rates, dtype=np.float64)

    def rate(self, k):
        return float(self.rates[k - 1])


# probes scored per scores() call: one block is 64 x dim float64 (2.6 MB at
# dim 5,120), where stacking every probe at once would add a full copy of them
_PROBE_BLOCK = 64


def _stack_values(embeddings, role):
    """(n, dim) float64 rows of the embeddings; DataError names the id of a
    row of another dimension or with a non-finite value."""
    rows = [np.asarray(e.values, dtype=np.float64) for e in embeddings]
    for e, row in zip(embeddings, rows):
        if row.shape != rows[0].shape:
            raise DataError(f"{role} id {e.source_id}: embedding shape {row.shape}, "
                            f"expected {rows[0].shape}")
    X = np.stack(rows)
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise DataError(f"{role} id {embeddings[int(np.argmin(finite))].source_id} "
                        "has a non-finite embedding")
    return X


def compute_cmc(probe_embeddings, gallery_embeddings, scorer):
    """rates[k-1] = fraction of probes whose true match ranks within top k.

    ``scorer`` is ``"cosine"`` or has ``scores(P, G)`` returning the
    (n_p, n_g) score matrix, higher meaning more similar. The gallery is
    stacked once and the probes are scored in blocks. The rank of the true
    match is the count of higher scores plus the count of equal scores at a
    lower gallery index: its place in a stable sort by descending score.
    """
    if len(gallery_embeddings) == 0:
        raise DataError("empty gallery")
    column = {}
    for k, g in enumerate(gallery_embeddings):
        if column.setdefault(g.source_id, k) != k:
            raise DataError(f"gallery contains duplicate person id {g.source_id}")
    truth = []
    for probe in probe_embeddings:
        if probe.source_id not in column:
            raise DataError(f"probe id {probe.source_id} not in gallery")
        truth.append(column[probe.source_id])
    truth = np.asarray(truth, dtype=np.intp)
    if scorer == "cosine":
        scorer = CosineScorer()
    G = _stack_values(gallery_embeddings, "gallery")
    n = len(gallery_embeddings)
    position = np.arange(n)
    counts = np.zeros(n)
    for start in range(0, len(probe_embeddings), _PROBE_BLOCK):
        P = _stack_values(probe_embeddings[start:start + _PROBE_BLOCK], "probe")
        own = truth[start:start + len(P)]
        S = scorer.scores(P, G)
        if not np.isfinite(S).all():
            raise DataError("scorer returned non-finite scores")
        s_own = S[np.arange(len(P)), own][:, None]
        rank = (S > s_own).sum(axis=1) + ((S == s_own) & (position < own[:, None])).sum(axis=1)
        counts += np.bincount(rank, minlength=n)
    return CmcCurve(np.cumsum(counts) / len(probe_embeddings))


def mean_cmc(curves):
    return CmcCurve(np.mean([c.rates for c in curves], axis=0))


# ---------------------------------------------------------------------------
# noise injection and synthetic data
# ---------------------------------------------------------------------------

def inject_noise(frames, fraction, pool, seed):
    """Replace ceil(fraction * T) frames (distinct seeded positions, chosen
    without replacement) by uniformly drawn pool frames; order preserved."""
    if not 0.0 <= fraction <= 1.0:
        raise DataError("noise fraction must be in [0, 1]")
    if not pool:
        raise DataError("noise pool is empty")
    out = list(frames)
    n = math.ceil(fraction * len(out))
    if n == 0:
        return out
    rng = np.random.default_rng(seed)
    positions = rng.choice(len(out), size=n, replace=False)
    for pos in positions:
        out[pos] = pool[int(rng.integers(len(pool)))]
    return out


def _block_prototype(rng, width, height, blocks_v=4, blocks_h=2):
    """Piecewise-constant random color image, (height, width, 3) float64."""
    bv = min(blocks_v, height)
    bh = min(blocks_h, width)
    colors = rng.integers(0, 256, size=(bv, bh, 3)).astype(np.float64)
    rows = np.minimum((np.arange(height) * bv) // height, bv - 1)
    cols = np.minimum((np.arange(width) * bh) // width, bh - 1)
    return colors[rows[:, None], cols[None, :]]


def _jittered(rng, proto, jitter, width, height):
    noise = rng.normal(0.0, jitter * 255.0, size=proto.shape) if jitter > 0 else 0.0
    return RawImage(width, height, np.clip(np.rint(proto + noise), 0, 255).astype(np.uint8))


def generate_synthetic(
    num_persons,
    frames_per_camera,
    width=16,
    height=32,
    appearance_seed=0,
    camera_gain=(1.0, 1.0, 1.0),
    camera_offset=(0.0, 0.0, 0.0),
    jitter=0.02,
    noise_pool_size=0,
):
    """Deterministic two-camera dataset of piecewise-constant person
    prototypes. Camera b applies a fixed per-channel gain/offset (on the
    [0, 1] scale) to simulate cross-view color inconsistency; every frame
    gets seeded per-pixel Gaussian jitter, clamped to [0, 255]."""
    if num_persons < 1 or frames_per_camera < 1:
        raise DataError("num_persons and frames_per_camera must be >= 1")
    rng = np.random.default_rng(appearance_seed)
    gain = np.asarray(camera_gain, dtype=np.float64)
    offset = np.asarray(camera_offset, dtype=np.float64)
    persons = []
    for pid in range(num_persons):
        proto = _block_prototype(rng, width, height)
        proto_b = np.clip((proto / 255.0) * gain + offset, 0.0, 1.0) * 255.0
        frames_a = [_jittered(rng, proto, jitter, width, height) for _ in range(frames_per_camera)]
        frames_b = [_jittered(rng, proto_b, jitter, width, height) for _ in range(frames_per_camera)]
        persons.append(PersonSequences(pid, frames_a, frames_b))
    pool = []
    for _ in range(noise_pool_size):
        proto = _block_prototype(rng, width, height)
        pool.append(_jittered(rng, proto, jitter, width, height))
    return Dataset(persons, pool)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass
class ExperimentSpec:
    kind: str = "standard"  # standard | noise | depth | subseq
    trials: int = 10
    master_seed: int = 0
    noise_levels: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5)
    depths: tuple[int, ...] | None = None  # None -> (1, L)
    subseq_counts: tuple[int, ...] = (1, 5, 10, 15)

    def validate(self, L):
        """Check the kind, the trial count and every sweep level against the
        subsequence length L, before any frame is described."""
        if self.kind not in ("standard", "noise", "depth", "subseq"):
            raise ConfigurationError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if not all(0.0 <= f <= 1.0 for f in self.noise_levels):
            raise ConfigurationError(f"noise levels must be in [0, 1], got {self.noise_levels}")
        if self.depths is not None and not all(1 <= d <= L for d in self.depths):
            raise ConfigurationError(f"depths must be in [1, {L}], got {self.depths}")
        if not all(k >= 1 for k in self.subseq_counts):
            raise ConfigurationError(f"subsequence counts must be >= 1, got {self.subseq_counts}")


@dataclass
class ExperimentReport:
    experiment: str
    levels: list
    curves: dict       # level -> list of per-trial CmcCurve
    mean_curves: dict  # level -> CmcCurve
    config: dict
    timings: dict


def _derive_seed(*parts):
    return int(np.random.SeedSequence([int(p) & (2**31 - 1) for p in parts]).generate_state(1)[0])


def _embed_test_set(model, feats, test_ids, agg_cfg, depth=None):
    probes, gallery = [], []
    for pid in test_ids:
        for cam, bucket in ((0, probes), (1, gallery)):
            cfg = replace(agg_cfg, seed=_derive_seed(agg_cfg.seed, pid, cam))
            if depth is None:
                bucket.append(embed_sequence(model, feats[(pid, cam)], cfg, pid, cam))
            else:
                vec = embed_at_depth(model, feats[(pid, cam)], depth, cfg)
                bucket.append(SequenceEmbedding(vec, pid, cam))
    return probes, gallery


def _make_scorer(run_config, model, feats, train_ids, agg_cfg, depth=None):
    if run_config.scorer == "cosine":
        return CosineScorer()
    probes, gallery = _embed_test_set(model, feats, train_ids, agg_cfg, depth)
    svm = train_ranksvm(probes, gallery, C=run_config.ranksvm_C, iters=run_config.ranksvm_iters)
    return RankSvmScorer(svm)


def _splice_noise(clean, pool_feats, fraction, seed):
    """Descriptors of ``inject_noise(frames, fraction, pool, seed)`` spliced
    from the clean rows and the pool rows.

    ``inject_noise`` runs on row indices, with the pool numbered after the T
    clean rows, so it makes the same draws and picks the same frames; the
    descriptor is per frame, so the rows equal re-described noisy frames.
    """
    T = len(clean)
    rows = np.asarray(
        inject_noise(list(range(T)), fraction, list(range(T, T + len(pool_feats))), seed)
    )
    noisy = rows >= T
    if not noisy.any():
        return clean
    out = clean.copy()
    out[noisy] = pool_feats[rows[noisy] - T]
    return out


def run_experiment(dataset, run_config, experiment=None):
    """Train per trial on the train split and evaluate CMC on the test split,
    once per factor level of the selected sweep. Returns an ExperimentReport
    whose mean curves are arithmetic means over trials."""
    rc = run_config
    ex = experiment if experiment is not None else rc.experiment
    rc.validate()
    grid = rc.grid
    L = rc.train.subseq_len
    ex.validate(L)
    agg_base = AggregationConfig(L, rc.agg.num_subsequences, rc.agg.seed)

    for person in dataset.persons:
        for cam, frames in (("a", person.frames_a), ("b", person.frames_b)):
            if len(frames) < L:
                raise DataError(
                    f"person {person.person_id} camera {cam} has {len(frames)} frames; "
                    f"need at least {L}"
                )

    if ex.kind == "standard":
        levels = ["standard"]
    elif ex.kind == "noise":
        levels = list(ex.noise_levels)
        if not dataset.noise_pool:
            raise DataError("noise sweep requires a dataset with a noise pool")
    elif ex.kind == "depth":
        levels = list(ex.depths) if ex.depths is not None else [1, L]
    else:
        levels = list(ex.subseq_counts)

    t0 = time.perf_counter()
    feats = {}
    for person in dataset.persons:
        for cam, frames in ((0, person.frames_a), (1, person.frames_b)):
            feats[(person.person_id, cam)] = sequence_features(
                frames, grid, rc.image_w, rc.image_h
            )
    if ex.kind == "noise":
        pool_feats = sequence_features(dataset.noise_pool, grid, rc.image_w, rc.image_h)
    timings = {"feature_extraction": time.perf_counter() - t0}

    splits = make_splits(dataset.ids(), ex.trials, ex.master_seed)
    curves = {lv: [] for lv in levels}
    t_train = t_eval = 0.0
    for trial, split in enumerate(splits):
        train_ids = list(split.train_ids)
        test_ids = list(split.test_ids)
        seqs = [
            LabeledSequence(idx, feats[(pid, cam)], f"trial{trial}/p{pid}/cam{cam}")
            for idx, pid in enumerate(train_ids)
            for cam in (0, 1)
        ]
        t1 = time.perf_counter()
        tcfg = replace(rc.train, seed=_derive_seed(rc.train.seed, trial))
        model, _ = train(seqs, tcfg)
        t_train += time.perf_counter() - t1

        t1 = time.perf_counter()
        if ex.kind in ("standard", "noise"):
            # the training embeddings do not depend on the level: fit once
            scorer = _make_scorer(rc, model, feats, train_ids, agg_base)
        for li, level in enumerate(levels):
            agg_cfg = agg_base
            depth = None
            level_feats = feats
            if ex.kind == "noise":
                level_feats = dict(feats)
                for pid in test_ids:
                    for cam in (0, 1):
                        level_feats[(pid, cam)] = _splice_noise(
                            feats[(pid, cam)], pool_feats, level,
                            _derive_seed(ex.master_seed, trial, li, pid, cam),
                        )
            elif ex.kind == "depth":
                depth = level
            elif ex.kind == "subseq":
                agg_cfg = replace(agg_base, num_subsequences=level)

            if ex.kind in ("depth", "subseq"):
                scorer = _make_scorer(rc, model, feats, train_ids, agg_cfg, depth)
            probes, gallery = _embed_test_set(model, level_feats, test_ids, agg_cfg, depth)
            curves[level].append(compute_cmc(probes, gallery, scorer))
        t_eval += time.perf_counter() - t1
    timings["training"] = t_train
    timings["evaluation"] = t_eval

    return ExperimentReport(
        experiment=ex.kind,
        levels=levels,
        curves=curves,
        mean_curves={lv: mean_cmc(curves[lv]) for lv in levels},
        config=rc.to_dict(),
        timings=timings,
    )


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

def report_csv_rows(report):
    """Flat rows (experiment, level, trial, rank, rate); trial 'mean' rows
    carry the trial-averaged curve. Timings are deliberately excluded."""
    rows = [("experiment", "level", "trial", "rank", "rate")]
    for level in report.levels:
        for trial, curve in enumerate(report.curves[level]):
            for k, rate in enumerate(curve.rates, start=1):
                rows.append((report.experiment, str(level), str(trial), str(k), f"{rate:.12f}"))
        for k, rate in enumerate(report.mean_curves[level].rates, start=1):
            rows.append((report.experiment, str(level), "mean", str(k), f"{rate:.12f}"))
    return rows


def write_report_csv(path, report):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(report_csv_rows(report))
    with atomic_write(path) as fh:
        fh.write(buf.getvalue().encode())


def report_text(report, include_timings=True):
    lines = [f"experiment: {report.experiment}", ""]
    for level in report.levels:
        lines.append(f"level: {level}")
        mean = report.mean_curves[level]
        header = "  rank:  " + "  ".join(f"{k:>6d}" for k in range(1, len(mean.rates) + 1))
        lines.append(header)
        for trial, curve in enumerate(report.curves[level]):
            lines.append(
                f"  t{trial:>4d}:  " + "  ".join(f"{r:6.4f}" for r in curve.rates)
            )
        lines.append("  mean:   " + "  ".join(f"{r:6.4f}" for r in mean.rates))
        lines.append("")
    lines.append("config:")
    lines.append(json.dumps(report.config, indent=2, sort_keys=True))
    if include_timings:
        lines.append("")
        lines.append("timings (seconds):")
        for name, value in report.timings.items():
            lines.append(f"  {name}: {value:.3f}")
    return "\n".join(lines) + "\n"


def write_report(out_dir, report):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with atomic_write(out / "report.txt") as fh:
        fh.write(report_text(report).encode())
    write_report_csv(out / "report.csv", report)
    return out / "report.txt", out / "report.csv"
