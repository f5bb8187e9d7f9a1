"""rfanet benchmark: runs one workload in-process through the public rfanet
API and prints its metrics.

    python3 bench/run.py --workload desk-noise --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

``all`` runs every workload one after another, each in its own process.
The program is imported from the ``src`` directory next to this one; there
is nothing to build. Every line but the last is for people: the machine,
each end-to-end metric with its unit, the output checks and, with
``--trace 1``, each per-layer metric. The last line is one JSON object
{"correct", "attempted", "failed", "metrics"} whose metrics are the
end-to-end ones listed in BENCHMARK.json (``--trace 0``) or the per-layer
ones (``--trace 1``).

A run sets up the workload's inputs from the seed three times (``setup_s``
is the median), then runs the workload's
round its minimum number of times and again while another round is expected
to end within ``--seconds``; ``run_s`` is the median over rounds of the time
spent inside the program's calls, which leaves out the benchmark's own
output checks. With ``--trace 1`` it
then sets up and runs one more round with every public function of the
traced layers wrapped, writes the spans to .bench_out/ and reports the
per-layer metrics and the tracing overhead against the untraced run.
"""

import os
import sys

# OpenBLAS reads its thread count when numpy is first imported, so the count
# is pinned here, before anything imports numpy.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUPS = 3
WORKLOAD_NAMES = ("desk-noise", "full-lstm", "full-match")
EXIT_NO_PROGRAM = 2


def load_program():
    """Import rfanet from ROOT/src, and nowhere else."""
    src = ROOT / "src"
    if not (src / "rfanet" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import rfanet

    if Path(rfanet.__file__).resolve().parent != (src / "rfanet").resolve():
        return None
    return rfanet


# ---------------------------------------------------------------------------
# machine
# ---------------------------------------------------------------------------

def _openblas():
    """The loaded OpenBLAS library, found in this process's memory map."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        if path.startswith("/"):
            try:
                return ctypes.CDLL(path)
            except OSError:
                continue
    return None


def _blas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def l3_cache():
    """Size of the last-level (L3) cache of CPU 0 as the kernel reports it."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return "unknown"


def machine_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    lib = _openblas()
    threads = _blas_call(
        lib,
        ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
         "openblas_get_num_threads"),
        ctypes.c_int,
    )
    config = _blas_call(
        lib,
        ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"),
        ctypes.c_char_p,
    )
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_cache": l3_cache(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": config.decode() if config else "unknown",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_effective": threads if threads is not None else "unknown",
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def median_and_tail(samples):
    """Median, and the highest percentile with at least ten samples above it
    (None when there are fewer than eleven samples)."""
    samples = sorted(samples)
    n = len(samples)
    if n < 11:
        return statistics.median(samples), None, None
    pct = 100 * (n - 10) // n
    return statistics.median(samples), pct, samples[max(0, -(-pct * n // 100) - 1)]


def source_hash():
    h = hashlib.blake2b(digest_size=16)
    for directory in (ROOT / "src" / "rfanet", HERE):
        for path in sorted(directory.glob("*.py")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_cross_run_digest(key, digest):
    """Compare with the digest recorded by an earlier run of the same code,
    workload, sizes and seed; record it if there is none. Returns
    (passed, detail)."""
    path = OUT / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known:
        return known[key] == digest, f"earlier run {known[key]}, this run {digest}"
    known[key] = digest
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True, f"first run of this code and seed, recorded {digest}"


def run_workload(name, seed, seconds, trace, tiny):
    import layers
    import workloads
    from tracer import Tracer

    workload = (workloads.TINY if tiny else workloads.WORKLOADS)[name]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checks = []  # (name, passed, detail)
    try:
        setup_times, input_digests = [], []
        for _ in range(SETUPS):
            t = perf_counter()
            state = workload.setup(seed, workdir)
            setup_times.append(perf_counter() - t)
            input_digests.append(state["input_digest"])
        checks.append(("set-up gives identical inputs every time",
                       len(set(input_digests)) == 1, input_digests[0]))

        rounds, round_walls = [], []
        start = perf_counter()
        while len(rounds) < workload.min_rounds or (
            perf_counter() - start + statistics.median(round_walls) <= seconds
        ):
            t = perf_counter()
            rounds.append(workload.round(state))
            round_walls.append(perf_counter() - t)
        walls = [sum(r.stage_s.values()) for r in rounds]

        traced = None
        if trace:
            tracer = Tracer()
            layers.WorkCounters().register(tracer)
            modules = [sys.modules[f"rfanet.{m}"] for m in layers.TRACED_MODULES]
            with tracer.install("rfanet", modules):
                t = perf_counter()
                traced_state = workload.setup(seed, workdir)
                traced_setup = perf_counter() - t
                traced_round = workload.round(traced_state)
            del traced_state
            traced_wall = traced_setup + sum(traced_round.stage_s.values())
            untraced = statistics.median(setup_times) + statistics.median(walls)
            traced = (tracer, traced_round, traced_wall / untraced - 1.0)
            tracer.write(OUT / f"spans-{name}-seed{seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # output checks, one line per check with the number of rounds it passed in
    checks = [(c, ok, 1, d) for c, ok, d in checks]
    per_round = {}
    for r in rounds:
        for c, ok, d in r.checks:
            entry = per_round.setdefault(c, [0, 0, d])
            entry[0] += ok
            entry[1] += 1
            if not ok:
                entry[2] = d
    checks.extend((c, passed == total, total, d) for c, (passed, total, d) in per_round.items())
    first = rounds[0].digest
    for r in rounds[1:]:
        if r.digest != first:
            r.failed = sum(r.ops.values())
    repeats = sum(r.digest == first for r in rounds[1:])
    checks.append(("every round gives the digest of round 0", repeats == len(rounds) - 1,
                   len(rounds), first))
    if traced is not None:
        checks.extend((f"traced round: {c}", ok, 1, d) for c, ok, d in traced[1].checks)
        checks.append(("traced round gives the untraced digest", traced[1].digest == first, 1,
                       traced[1].digest))
    key = f"{source_hash()}|{name}|{'tiny' if tiny else 'full'}|seed {seed}|" \
          f"threads {BLAS_THREADS}"
    ok, detail = check_cross_run_digest(key, first)
    checks.append(("digest equals earlier runs of the same code and seed", ok, 1, detail))

    attempted = sum(sum(r.ops.values()) for r in rounds)
    failed = min(attempted, sum(r.failed for r in rounds))
    if not ok:
        failed = attempted
    return {
        "workload": workload,
        "setup_times": setup_times,
        "walls": walls,
        "rounds": rounds,
        "traced": traced,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def end_to_end(res):
    """All end-to-end metrics of one run: name -> (value, unit, note).
    Only GATED appear in the JSON line; the rest are printed."""
    w = res["workload"]
    rounds = res["rounds"]
    med, pct, tail = median_and_tail(res["walls"])
    n = len(res["walls"])
    out = {
        "setup_s": (statistics.median(res["setup_times"]), "s",
                    f"median of {len(res['setup_times'])} set-ups"),
        "run_s": (med, "s", f"median over {n} rounds of the time inside program calls"),
        "run_s.tail": (
            tail if tail is not None else max(res["walls"]), "s",
            f"p{pct}, {n} samples" if tail is not None
            else f"max; no percentile has ten samples above it with {n} samples",
        ),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "ru_maxrss of this process"),
        "failed_ops_ratio": (
            res["failed"] / res["attempted"], "ratio",
            f"{res['failed']} of {res['attempted']} operations failed",
        ),
    }

    # a round that raised has no stage times or quality figures
    def stage(key):
        values = [r.stage_s[key] for r in rounds if key in r.stage_s]
        return statistics.median(values) if values else math.nan

    def quality(key):
        values = [r.quality[key] for r in rounds if key in r.quality]
        return statistics.mean(values) if values else math.nan

    if w.name == "desk-noise":
        out["rank1"] = (quality("rank1"), "ratio", f"mean CMC rank-1 at noise {w.levels[0]}")
        out["rank1_noisy"] = (quality("rank1_noisy"), "ratio",
                              f"mean CMC rank-1 at noise {w.levels[-1]}")
    elif w.name == "full-lstm":
        out["train_instances_per_s"] = (
            w.train_sequences / stage("train"), "1/s",
            f"{w.train_sequences} instances per train() call, median of {n}",
        )
        out["embed_sequences_per_s"] = (
            w.embed_sequences / stage("embed"), "1/s",
            f"{w.embed_sequences} sequences, K={w.windows}, median of {n}",
        )
        out["train_loss"] = (quality("loss"), "nats", "mean loss of the fixed instances")
    else:
        out["ranksvm_fit_s"] = (stage("ranksvm_fit"), "s",
                                f"C={w.C}, {w.iters} iterations, {w.train_ids} ids")
        for scorer in ("cosine", "ranksvm"):
            out[f"rank_probes_per_s.{scorer}"] = (
                w.test_ids / stage(f"rank.{scorer}"), "1/s",
                f"{w.test_ids} probes x {w.test_ids} gallery",
            )
        out["rank1"] = (quality("rank1.ranksvm"), "ratio", "RankSVM scorer")
        out["rank1.cosine"] = (quality("rank1.cosine"), "ratio", "cosine scorer")
        pairs = w.train_ids * (w.train_ids - 1)
        out["pair_matrix_mb"] = (
            pairs * w.dim * 8 / 1e6, "MB",
            f"{pairs} x {w.dim} float64 pair matrix; L3 cache {l3_cache()}",
        )
    return out


GATED = ("setup_s", "run_s", "peak_rss_mb")


def report(name, seed, trace, res, machine):
    print(f"workload {name} seed {seed} trace {int(trace)}")
    for key, value in machine.items():
        print(f"machine {key}: {value}")
    for check, ok, runs, detail in res["checks"]:
        times = f" [{runs} rounds]" if runs > 1 else ""
        detail = f" ({detail})" if detail else ""
        print(f"check {'PASS' if ok else 'FAIL'} {check}{times}{detail}")
    metrics = end_to_end(res)
    for key, (value, unit, note) in metrics.items():
        print(f"metric {name} {key} = {value:.6g} {unit}  ({note})")

    correct = all(ok for _, ok, _, _ in res["checks"]) and res["failed"] == 0
    if trace:
        import layers

        tracer, _, overhead = res["traced"]
        values, bases = layers.per_layer_metrics(tracer, overhead)
        for key, (value, unit) in values.items():
            note = f"  ({bases[key]})" if key in bases else ""
            print(f"layer {name} {key} = {value:.6g} {unit}{note}")
        out = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        out = {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in GATED}

    record = {
        "workload": name, "seed": seed, "trace": int(trace), "machine": machine,
        "end_to_end": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        "checks": res["checks"], "digest": res["rounds"][0].digest,
    }
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": out,
    }))


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        try:
            correct = json.loads(last[0]).get("correct") is True
        except ValueError:
            correct = False
        if proc.returncode != 0 or not correct:
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run every workload at sizes that take seconds (self-test)")
    args = parser.parse_args(argv)

    if load_program() is None:
        print(f"rfanet sources not found under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    report(args.workload, args.seed, bool(args.trace), res, machine_info())
    return 0


if __name__ == "__main__":
    sys.exit(main())
