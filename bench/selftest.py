"""Self-test of the benchmark, at tiny sizes; takes well under a minute.

    python3 bench/selftest.py

It checks the tracer's self-time arithmetic on a hand-built span tree; that
installing the tracer rebinds the functions the package's modules import
from each other and restores every rebound attribute afterwards, also when
the traced block raises; that tiny runs of every workload, untraced and
traced, pass their output checks, agree with an earlier run of the same
seed, and print every metric named in BENCHMARK.json and every end-to-end
metric of the workload; and that the benchmark exits non-zero without a
result when the program's sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracer import Tracer, self_times  # noqa: E402

PRINTED = {
    "desk-noise": ("rank1", "rank1_noisy"),
    "full-lstm": ("train_instances_per_s", "embed_sequences_per_s"),
    "full-match": ("ranksvm_fit_s", "rank_probes_per_s.cosine", "rank_probes_per_s.ranksvm",
                   "rank1"),
}
COMMON = ("setup_s", "run_s", "run_s.tail", "peak_rss_mb", "failed_ops_ratio")

failures = []


def expect(ok, what):
    print(f"selftest {'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def test_self_times():
    #   0 [0, 10]
    #   +- 1 [1, 4]
    #   |  +- 5 [3, 5]     reaches past its parent: only [3, 4] counts
    #   +- 2 [5, 9]
    #   |  +- 3 [6, 7]
    #   +- 4 [8, 9.5]      overlaps 2: the union [5, 9.5] counts once
    starts = [0.0, 1.0, 5.0, 6.0, 8.0, 3.0]
    ends = [10.0, 4.0, 9.0, 7.0, 9.5, 5.0]
    parents = [-1, 0, 0, 2, 0, 1]
    got = self_times(starts, ends, parents)
    expect(got == [2.5, 2.0, 3.0, 1.0, 1.5, 2.0], f"self times of a hand-built tree {got}")

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: (inner(), inner()))
    outer()  # outer [0, 5], inner [1, 2] and [3, 4]
    summary = tracer.summary()
    expect(
        summary == {"m.outer": {"calls": 1, "self_s": 3.0, "total_s": 5.0},
                    "m.inner": {"calls": 2, "self_s": 2.0, "total_s": 2.0}},
        f"wrapped calls give spans with parents {summary}",
    )


def _function_attrs():
    return {
        (name, attr): obj
        for name, mod in sys.modules.items()
        if name == "rfanet" or name.startswith("rfanet.")
        for attr, obj in vars(mod).items()
        if callable(obj)
    }


def test_install_restores():
    import rfanet
    import layers

    modules = [sys.modules[f"rfanet.{m}"] for m in layers.TRACED_MODULES]
    before = _function_attrs()
    tracer = Tracer()
    with tracer.install("rfanet", modules) as rebound:
        during = _function_attrs()
        expect(rfanet.evaluation.train is not before[("rfanet.evaluation", "train")],
               "evaluation's imported train is rebound")
        expect(rfanet.aggregate.lstm_step is not before[("rfanet.aggregate", "lstm_step")],
               "aggregate's imported lstm_step is rebound")
        expect(rfanet.train is not before[("rfanet", "train")], "the package's train is rebound")
        originals = {id(obj) for _, _, obj in rebound}
        left = [k for k, obj in during.items() if id(obj) in originals]
        expect(not left, f"no attribute still holds an unwrapped traced function {left}")
        rfanet.evaluation.inject_noise([1, 2], 0.0, [3], 0)
    expect(tracer.names == ["evaluation.inject_noise"],
           f"a traced call gives a span {tracer.names}")
    expect(_function_attrs() == before, f"all {len(rebound)} rebound attributes restored")

    try:
        with Tracer().install("rfanet", modules):
            raise KeyError("boom")
    except KeyError:
        pass
    expect(_function_attrs() == before, "attributes restored after the block raised")


def _run(args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def test_outputs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload in PRINTED:
        # the first run records the seed's digest; the later ones compare with it
        for run, trace in enumerate(("0", "1", "0")):
            proc = _run(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                         "--trace", trace, "--tiny"])
            what = f"{workload} trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what} exits 0: {proc.stderr[-2000:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what} result keys")
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{what} output checks pass")
            want = per_layer if trace == "1" else gated
            expect(set(result["metrics"]) == want, f"{what} reports every BENCHMARK.json metric")
            printed = {line.split()[2] for line in lines if line.startswith("metric ")}
            missing = set(COMMON + PRINTED[workload]) - printed
            expect(not missing, f"{what} prints every end-to-end metric {sorted(missing)}")
            compared = any(
                line.startswith("check PASS digest equals earlier runs") and "earlier run " in line
                for line in lines
            )
            if run > 0:
                expect(compared, f"{what} digest compared with an earlier run of the seed")


def test_no_program():
    bare = ROOT / ".bench_out" / f"selftest-bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(["--workload", "full-match", "--seed", "0", "--seconds", "1"], cwd=bare)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"without the program: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_self_times()
    test_install_restores()
    test_outputs()
    test_no_program()
    print(f"selftest {'FAILED: ' + str(len(failures)) if failures else 'passed'}")
    sys.exit(1 if failures else 0)
