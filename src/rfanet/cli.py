"""Command-line entry point.

Subcommands: synth, train, embed, eval, gradcheck. Exit codes: 0 success,
1 validation error, 2 runtime error. Every command validates its full
configuration before touching the filesystem, and all randomness flows from
config-declared seeds. train, embed and eval describe and embed through
the one batched dataset pass of ``evaluation``.

The BLAS worker count is fixed when numpy is first imported, which happens
as soon as the package loads; set OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS,
MKL_NUM_THREADS) in the environment that starts rfanet to cap it.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import asdict
from pathlib import Path

from .aggregate import write_embeddings
from .config import load_config
from .errors import ConfigurationError, DataError, FormatError, RfaError
from .evaluation import (
    describe_dataset,
    embed_split,
    generate_synthetic,
    load_dataset,
    project_store,
    run_experiment,
    save_dataset,
    training_set,
    write_report,
)
from .fileio import atomic_write
from .rnn import grad_check, load_model, save_model, train

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rfanet",
        description="Recurrent feature aggregation for multi-shot person re-identification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset on disk")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("train", help="train the aggregation network")
    p.add_argument("--config", required=True)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("embed", help="embed every sequence of a manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="run the configured experiment and write reports")
    p.add_argument("--config", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference check of the BPTT gradients")
    p.add_argument("--d", type=int, default=6, help="input dimension")
    p.add_argument("--h", type=int, default=4, help="hidden dimension")
    p.add_argument("--n", type=int, default=3, help="number of classes")
    p.add_argument("--l", type=int, default=5, help="subsequence length")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _require_manifest(cfg):
    if not cfg.paths.manifest:
        raise ConfigurationError("config paths.manifest is required for this command")
    return Path(cfg.paths.manifest)


def cmd_synth(args):
    cfg = load_config(args.config)
    out = Path(args.out)
    if (out / "manifest.json").exists() and not args.force:
        raise ConfigurationError(f"{out / 'manifest.json'} exists; pass --force to overwrite")
    dataset = generate_synthetic(**asdict(cfg.synthetic), width=cfg.image_w, height=cfg.image_h)
    try:
        manifest = save_dataset(dataset, out)
    except OSError as exc:
        raise RuntimeError(f"cannot write dataset under {out}: {exc}") from exc
    print(
        f"wrote {len(dataset.persons)} persons x 2 cameras "
        f"({2 * len(dataset.persons)} sequences, {cfg.synthetic.frames_per_camera} frames each) "
        f"and {len(dataset.noise_pool)} noise frames to {manifest}"
    )
    return EXIT_OK


def cmd_train(args):
    cfg = load_config(args.config)
    manifest = _require_manifest(cfg)
    model_path = Path(cfg.paths.model or "model.rfanet")
    if model_path.exists() and not args.force:
        raise ConfigurationError(f"{model_path} exists; pass --force to overwrite")
    dataset = load_dataset(manifest)
    seqs = training_set(describe_dataset(dataset, cfg), dataset.ids())
    model, history = train(seqs, cfg.train)
    save_model(model_path, model)
    loss_path = model_path.with_suffix(".loss.csv")
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(("epoch", "mean_loss"))
    for epoch, loss in enumerate(history):
        writer.writerow((epoch, f"{loss:.12f}"))
    with atomic_write(loss_path) as fh:
        fh.write(buf.getvalue().encode())
    print(f"trained on {len(seqs)} sequences ({len(dataset.persons)} identities); "
          f"model -> {model_path}, loss history -> {loss_path}")
    return EXIT_OK


def cmd_embed(args):
    cfg = load_config(args.config)
    manifest = _require_manifest(cfg)
    model = load_model(args.model)
    if model.input_dim != cfg.feature_dim:
        raise DataError(f"model {args.model} takes descriptors of dimension "
                        f"{model.input_dim}; the config's frames give {cfg.feature_dim}")
    dataset = load_dataset(manifest)
    store = describe_dataset(dataset, cfg)
    probes, gallery = embed_split(model, project_store(model, store), store.rows,
                                  sorted(dataset.ids()), cfg.agg)
    embeddings = [e for pair in zip(probes, gallery) for e in pair]
    write_embeddings(args.out, embeddings)
    print(f"wrote {len(embeddings)} embeddings of dimension "
          f"{embeddings[0].values.size} to {args.out}")
    return EXIT_OK


def cmd_eval(args):
    cfg = load_config(args.config)
    manifest = _require_manifest(cfg)
    if not cfg.paths.out_dir:
        raise ConfigurationError("config paths.out_dir is required for eval")
    dataset = load_dataset(manifest)
    report = run_experiment(dataset, cfg)
    text_path, csv_path = write_report(cfg.paths.out_dir, report)
    for level in report.levels:
        print(f"level {level}: mean rank-1 = {report.mean_curves[level].rate(1):.4f}")
    print(f"report -> {text_path}, CSV -> {csv_path}")
    return EXIT_OK


def cmd_gradcheck(args):
    dims = (args.d, args.h, args.n, args.l)
    if min(dims) < 1:
        raise ConfigurationError("all dimensions must be >= 1")
    if args.d * args.h > 4096:
        raise ConfigurationError(
            "gradcheck is a desk-scale oracle; keep d*h <= 4096"
        )
    report = grad_check(args.d, args.h, args.n, args.l, seed=args.seed)
    for name, err in report.per_tensor.items():
        print(f"{name:>4s}: worst relative error {err:.3e}")
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict}: max relative error {report.max_rel_error:.3e} "
          f"(threshold {report.threshold:.0e})")
    return EXIT_OK if report.passed else EXIT_RUNTIME


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {
        "synth": cmd_synth,
        "train": cmd_train,
        "embed": cmd_embed,
        "eval": cmd_eval,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except (ConfigurationError, DataError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RfaError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
