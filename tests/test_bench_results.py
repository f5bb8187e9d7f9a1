"""Every checked-in benchmark result file, ``BENCH_*.json`` at the repository
root, holds what a speed claim rests on: the machine as ``bench/run.py``
prints it, and per workload and side (parent and change) the digest and the
median and quartiles of every printed metric, next to the runs they come
from."""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RESULTS = sorted(ROOT.glob("BENCH_*.json"))
GATED = ("setup_s", "run_s", "peak_rss_mb")
MACHINE = ("cores", "cpu_model", "l3_cache", "blas", "blas_threads_effective", "numpy",
           "python")


def test_results_are_checked_in():
    assert RESULTS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RESULTS, ids=[p.name for p in RESULTS])
def test_result_file_layout(path):
    data = json.loads(path.read_text())
    assert data["command"].startswith("python3 bench/run.py")
    assert set(MACHINE) <= set(data["machine"])
    assert data["workloads"]
    for workload, sides in data["workloads"].items():
        assert set(sides) == {"parent", "change"}, workload
        for side, result in sides.items():
            where = f"{workload} {side}"
            assert re.fullmatch(r"[0-9a-f]{32}", result["digest"]), where
            assert set(GATED) <= set(result["metrics"]), where
            for name, metric in result["metrics"].items():
                runs = metric["runs"]
                assert len(runs) == data["pairs"] >= 5, f"{where} {name}"
                assert isinstance(metric["unit"], str), f"{where} {name}"
                q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
                assert [metric["q1"], metric["median"], metric["q3"]] == pytest.approx(
                    [q1, median, q3], rel=1e-12, abs=0), f"{where} {name}"
