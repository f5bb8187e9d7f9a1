"""Experiment harness: dataset manifests, identity splits, CMC curves,
noise-robustness / fusion-depth / subsequence-count sweeps, and a synthetic
dataset generator for desk-scale verification.

Camera a is the probe view, camera b the gallery view, throughout.

``run_experiment`` and the train and embed commands run one dataset pass:
``describe_dataset`` describes every frame once, into one compact
``DescriptorStore`` whose row ranges are the sequences (and the noise pool
after them). Training expands only each batch's rows; each trained model
maps the store to gate pre-activations in blocks of rows
(``project_store``), and ``embed_split`` then embeds a split by one batched
``embed_projected`` call. No float64 matrix of every frame is built. A noisy
test sequence is a list of row indices, the pool rows spliced in where
``inject_noise`` puts them, so no descriptor is copied or described again.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .aggregate import SequenceEmbedding, embed_projected
from .errors import ConfigurationError, DataError, FormatError
from .features import DescriptorRows, RawImage, describe_frames, encode_ppm, read_image
from .fileio import atomic_write
from .matching import (
    CosineScorer,
    RankSvmScorer,
    _cosine_scores,
    _embedding_matrix,
    train_ranksvm,
)
from .rnn import LabeledSequence, project, train


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
    manifest path. Paths in the manifest are relative to it.

    The manifest is the commit point. It is written last and atomically, and
    an existing manifest is removed before the first frame that replaces an
    existing file, so a save cut short never leaves a manifest next to frames
    it does not describe."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"persons": [], "noise_pool": []}
    frames = []  # (path relative to the manifest, image)
    for person in dataset.persons:
        entry = {"id": person.person_id, "camera_a": [], "camera_b": []}
        for cam, images in (("a", person.frames_a), ("b", person.frames_b)):
            for k, img in enumerate(images):
                rel = f"p{person.person_id:04d}/cam_{cam}/frame_{k:04d}.ppm"
                entry[f"camera_{cam}"].append(rel)
                frames.append((rel, img))
        manifest["persons"].append(entry)
    for k, img in enumerate(dataset.noise_pool):
        rel = f"noise/frame_{k:04d}.ppm"
        manifest["noise_pool"].append(rel)
        frames.append((rel, img))
    manifest_path = out / "manifest.json"
    earlier = manifest_path.exists()  # once it is gone, frames need no check
    for rel, img in frames:
        path = out / rel
        if earlier and path.exists():
            manifest_path.unlink()
            earlier = False
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(encode_ppm(img))
    with atomic_write(manifest_path) as fh:
        fh.write((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    return manifest_path


def _string_list(value, what):
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise DataError(f"{what} must be a list of path strings")
    return value


def load_dataset(manifest_path):
    manifest_path = Path(manifest_path)
    # ValueError: not UTF-8, not JSON or a NUL in the path; RecursionError: nested too deep
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
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
            frames[cam] = [_read_frame(root / rel, f"person {pid} camera_{cam}")
                           for rel in paths]
        persons.append(PersonSequences(pid, frames["a"], frames["b"]))
    pool_paths = _string_list(manifest.get("noise_pool", []), "noise_pool")
    pool = [_read_frame(root / rel, "noise_pool") for rel in pool_paths]
    return Dataset(persons, pool)


def _read_frame(path, owner):
    if "\0" in str(path):  # open() would raise ValueError
        raise DataError(f"{owner}: cannot read frame {str(path)!r}: the path has a NUL byte")
    try:
        return read_image(path)
    except OSError as exc:
        raise DataError(f"{owner}: cannot read frame {path}: {exc.strerror or exc}") from exc
    except FormatError as exc:
        raise FormatError(f"{owner}: frame {path}: {exc}") from exc


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


def _first_twins(G):
    """Each row's first bit-identical row, or None when every row is unique.

    The wrapping uint64 sum of a row's bits is an exact, order-free
    fingerprint: rows with distinct fingerprints differ, so whole rows are
    compared only within a fingerprint group, and only with its first rows.
    """
    bits = G.view(np.uint64)
    _, group, counts = np.unique(bits.sum(axis=1), return_inverse=True, return_counts=True)
    if counts.max() == 1:
        return None
    first = np.arange(len(G))
    for k in np.flatnonzero(counts[group] > 1):
        for j in np.flatnonzero(group[:k] == group[k]):
            if first[j] == j and np.array_equal(bits[j], bits[k]):
                first[k] = j
                break
    return first


def _source_ids(embeddings, role):
    """Each embedding's source_id, or DataError for an entry without one."""
    try:
        return [e.source_id for e in embeddings]
    except AttributeError:
        raise DataError(f"{role} entries must be SequenceEmbeddings, with a source_id") from None


def compute_cmc(probe_embeddings, gallery_embeddings, scorer):
    """rates[k-1] = fraction of probes whose true match ranks within top k.

    ``scorer`` is ``"cosine"`` or has ``scores(P, G)`` returning the
    (n_p, n_g) score matrix, higher meaning more similar. The gallery is
    stacked once (with its norms, for cosine) and the probes are scored in
    blocks. The rank of the true
    match is the count of higher scores plus the count of equal scores at a
    lower gallery index: its place in a stable sort by descending score.
    With ``"cosine"`` or a ``RankSvmScorer``, whose scores are functions of
    the rows, bit-identical gallery rows tie exactly: each is ranked on the
    score of the first of them, since BLAS may round their scores apart.
    Any other scorer's matrix is ranked as it is. Entries without a
    ``source_id`` and embedding values that are not numeric, 1-D, finite and
    of one shape raise DataError; a scorer of another kind raises
    ConfigurationError.
    """
    if len(probe_embeddings) == 0:
        raise DataError("no probes")
    if len(gallery_embeddings) == 0:
        raise DataError("empty gallery")
    gallery_ids = _source_ids(gallery_embeddings, "gallery")
    probe_ids = _source_ids(probe_embeddings, "probe")
    column = {}
    for k, gid in enumerate(gallery_ids):
        if column.setdefault(gid, k) != k:
            raise DataError(f"gallery contains duplicate person id {gid}")
    truth = []
    for pid in probe_ids:
        if pid not in column:
            raise DataError(f"probe id {pid} not in gallery")
        truth.append(column[pid])
    truth = np.asarray(truth, dtype=np.intp)
    if isinstance(scorer, str) and scorer == "cosine":
        scorer = CosineScorer()
    elif not callable(getattr(scorer, "scores", None)):
        raise ConfigurationError(f"unknown scorer {scorer!r}")
    G = _embedding_matrix(gallery_embeddings, "gallery", [f"id {i}" for i in gallery_ids])
    scores = scorer.scores
    if isinstance(scorer, CosineScorer):
        # the gallery norms once for every probe block
        scores = partial(_cosine_scores, g_norm=np.linalg.norm(G, axis=1))
    twins = _first_twins(G) if isinstance(scorer, (CosineScorer, RankSvmScorer)) else None
    n = len(gallery_embeddings)
    position = np.arange(n)
    counts = np.zeros(n)
    for start in range(0, len(probe_embeddings), _PROBE_BLOCK):
        block = probe_embeddings[start:start + _PROBE_BLOCK]
        P = _embedding_matrix(block, "probe",
                              [f"id {i}" for i in probe_ids[start:start + _PROBE_BLOCK]])
        own = truth[start:start + len(P)]
        S = scores(P, G)
        if not np.isfinite(S).all():
            raise DataError("scorer returned non-finite scores")
        if twins is not None:
            S = S[:, twins]
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
    without replacement) by uniformly drawn pool frames; order preserved. A
    product within rounding of an integer is that integer: 0.07 * 100 is
    7.000000000000001, and replaces 7 frames."""
    if not 0.0 <= fraction <= 1.0:
        raise DataError("noise fraction must be in [0, 1]")
    if not pool:
        raise DataError("noise pool is empty")
    out = list(frames)
    product = fraction * len(out)
    n = round(product) if math.isclose(product, round(product)) else math.ceil(product)
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

# the field holding each sweep kind's levels; "standard" has one level
_SWEEPS = {"noise": "noise_levels", "depth": "depths", "subseq": "subseq_counts"}


@dataclass
class ExperimentSpec:
    kind: str = "standard"  # standard | noise | depth | subseq
    trials: int = 10
    master_seed: int = 0
    noise_levels: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5)
    depths: tuple[int, ...] | None = None  # None -> (1, L), or (1,) when L is 1
    subseq_counts: tuple[int, ...] = (1, 5, 10, 15)

    def validate(self, L):
        """Check the kind, the trial count and every sweep level against the
        subsequence length L, before any frame is described."""
        if self.kind not in ("standard", *_SWEEPS):
            raise ConfigurationError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")
        if not self.levels(L):
            raise ConfigurationError(f"the {self.kind} sweep has no levels: "
                                     f"{_SWEEPS[self.kind]} is empty")
        if not all(0.0 <= f <= 1.0 for f in self.noise_levels):
            raise ConfigurationError(f"noise levels must be in [0, 1], got {self.noise_levels}")
        if self.depths is not None and not all(1 <= d <= L for d in self.depths):
            raise ConfigurationError(f"depths must be in [1, {L}], got {self.depths}")
        if not all(k >= 1 for k in self.subseq_counts):
            raise ConfigurationError(f"subsequence counts must be >= 1, got {self.subseq_counts}")
        # curves are keyed by level: a repeated level would merge two sweeps
        for name in _SWEEPS.values():
            levels = getattr(self, name) or ()
            if len(set(levels)) != len(levels):
                raise ConfigurationError(f"{name} repeats a level: {tuple(levels)}")

    def levels(self, L):
        """The levels of the selected sweep, for subsequence length L."""
        if self.kind == "standard":
            return ["standard"]
        if self.kind == "depth" and self.depths is None:
            return sorted({1, L})
        return list(getattr(self, _SWEEPS[self.kind]))


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


def describe_dataset(dataset, run_config, with_pool=False):
    """The DescriptorStore of every frame of ``dataset``, each described once.

    Sequence (pid, cam), cam 0 for camera a, has the row indices
    ``store.rows[(pid, cam)]``; with ``with_pool`` the noise pool's rows come
    last, under the key "pool". The store keeps LBP counts and color means,
    not float64 rows, so it holds no (N, D) float64 matrix."""
    rc = run_config
    sequences = {
        (person.person_id, cam): frames
        for person in dataset.persons
        for cam, frames in ((0, person.frames_a), (1, person.frames_b))
    }
    if with_pool:
        sequences["pool"] = dataset.noise_pool
    frames = [frame for seq in sequences.values() for frame in seq]
    store = describe_frames(frames, rc.grid, rc.image_w, rc.image_h)
    start = 0
    for key, seq in sequences.items():
        store.rows[key] = np.arange(start, start + len(seq))
        start += len(seq)
    return store


def training_set(store, ids, prefix=""):
    """Training sequences of both cameras of the persons ``ids``, labelled by
    position in the sorted ids; each reads its rows of ``store`` through
    ``DescriptorRows``, so ``train`` expands only a batch's rows."""
    return [
        LabeledSequence(idx, DescriptorRows(store, store.rows[(pid, cam)]),
                        f"{prefix}p{pid}/cam{cam}")
        for idx, pid in enumerate(sorted(ids))
        for cam in (0, 1)
    ]


# descriptor rows expanded per projection GEMM: 6.6 MB of float64 at the desk
# geometry and 30 MB at the full one. A multiple of 8 rows keeps each row's
# products those of one GEMM over all rows (blocks of 7 rows moved full-scale
# products by 5.8e-15)
_PROJECT_ROWS = 64


def project_store(model, store):
    """``project`` output (N, 4H) for every row of ``store``, expanded and
    projected ``_PROJECT_ROWS`` rows at a time."""
    ax = np.empty((len(store), 4 * model.hidden_dim))
    for start in range(0, len(store), _PROJECT_ROWS):
        rows = slice(start, start + _PROJECT_ROWS)
        ax[rows] = project(model, store.expand(rows))
    return ax


def embed_split(model, ax, rows, ids, agg_cfg, depth=None):
    """Probe (camera 0) and gallery (camera 1) embeddings of the persons
    ``ids``, from the pre-activations ``ax`` of every store row
    (``project_store``), by one batched call. ``rows[(pid, cam)]`` are a
    sequence's rows of ``ax``: the store's own, or noisy ones with pool rows
    spliced in. Its windows are drawn from a seed derived from
    ``agg_cfg.seed``."""
    keys = [(pid, cam) for pid in ids for cam in (0, 1)]
    seeds = [_derive_seed(agg_cfg.seed, pid, cam) for pid, cam in keys]
    values = embed_projected(model, ax, [rows[key] for key in keys], agg_cfg, seeds, depth)
    embeddings = [SequenceEmbedding(v, pid, cam) for v, (pid, cam) in zip(values, keys)]
    return embeddings[0::2], embeddings[1::2]


def run_experiment(dataset, run_config, experiment=None):
    """Train per trial on the train split and evaluate CMC on the test split,
    once per factor level of the selected sweep. Returns an ExperimentReport
    whose mean curves are arithmetic means over trials.

    An explicit ``experiment`` takes the place of ``run_config.experiment``:
    only it is validated, and the report's config records it."""
    ex = experiment if experiment is not None else run_config.experiment
    rc = replace(run_config, experiment=ex)  # the effective config, checked and reported
    rc.validate()
    L = rc.train.subseq_len

    for person in dataset.persons:
        for cam, frames in (("a", person.frames_a), ("b", person.frames_b)):
            if len(frames) < L:
                raise DataError(
                    f"person {person.person_id} camera {cam} has {len(frames)} frames; "
                    f"need at least {L}"
                )

    levels = ex.levels(L)
    if ex.kind == "noise" and not dataset.noise_pool:
        raise DataError("noise sweep requires a dataset with a noise pool")

    t0 = time.perf_counter()
    store = describe_dataset(dataset, rc, with_pool=ex.kind == "noise")
    rows = store.rows
    pool_rows = list(rows.pop("pool", ()))
    timings = {"feature_extraction": time.perf_counter() - t0}

    curves = {lv: [] for lv in levels}
    t_train = t_eval = 0.0
    for trial, split in enumerate(make_splits(dataset.ids(), ex.trials, ex.master_seed)):
        t1 = time.perf_counter()
        tcfg = replace(rc.train, seed=_derive_seed(rc.train.seed, trial))
        model, _ = train(training_set(store, split.train_ids, f"trial{trial}/"), tcfg)
        t_train += time.perf_counter() - t1

        t1 = time.perf_counter()
        ax = project_store(model, store)
        # a RankSVM fit depends on the window count and the depth only, so
        # standard and noise sweeps fit once per trial, the others per level
        scorers = {}
        for li, level in enumerate(levels):
            agg_cfg = replace(rc.agg, num_subsequences=level) if ex.kind == "subseq" else rc.agg
            depth = level if ex.kind == "depth" else None
            level_rows = dict(rows)
            if ex.kind == "noise":
                # inject_noise on row indices draws as it does on frames, so
                # these rows hold the descriptors of the noisy frames
                for pid in split.test_ids:
                    for cam in (0, 1):
                        seed = _derive_seed(ex.master_seed, trial, li, pid, cam)
                        level_rows[(pid, cam)] = np.asarray(
                            inject_noise(list(rows[(pid, cam)]), level, pool_rows, seed))
            key = (agg_cfg.num_subsequences, depth)
            if rc.scorer == "ranksvm" and key not in scorers:
                probes, gallery = embed_split(model, ax, rows, split.train_ids, agg_cfg, depth)
                svm = train_ranksvm(probes, gallery, C=rc.ranksvm_C, iters=rc.ranksvm_iters)
                scorers[key] = RankSvmScorer(svm)
            probes, gallery = embed_split(model, ax, level_rows, split.test_ids, agg_cfg, depth)
            curves[level].append(compute_cmc(probes, gallery, scorers.get(key, "cosine")))
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


def report_text(report):
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
