"""Self-tests of the benchmark, on tiny inputs (``--smoke``).

    python -m pytest perfbench/tests -q

They check that every metric BENCHMARK.json names is printed with its
unit, that the file keeps to its schema, that computed counts and error
metrics repeat exactly for a seed, that results with another BLAS thread
count or seed are refused, and that the benchmark fails cleanly without
the package sources. No test bounds a time.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload, trace, seed=3, cwd=ROOT):
    cmd = [sys.executable] + BENCH["command"][1:] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload, seed, trace):
    path = BENCH_DIR / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def test_benchmark_json_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= len(BENCH["paths"]) <= 16
    for path in BENCH["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
        assert not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert 1 <= len(BENCH["command"]) <= 32
    assert all(len(arg) <= 200 and not arg.startswith("/") for arg in BENCH["command"])
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    runs = 4 + 22 * len(BENCH["workloads"])
    assert runs * BENCH["run_seconds"] < 3420
    assert 2 <= len(BENCH["workloads"]) <= 8
    names = []
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
        names.append(w["name"])
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in BENCH["end_to_end"])} in BENCH["end_to_end"]
    assert 1 <= len(BENCH["per_layer"]) <= 128
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert m["better"] in ("lower", "higher")
        assert UNIT.fullmatch(m["unit"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_computed_counts_repeat_exactly():
    for workload in WORKLOADS:
        first = result_of(run_bench(workload, 1, seed=5))
        a = record(workload, 5, 1)
        second = result_of(run_bench(workload, 1, seed=5))
        b = record(workload, 5, 1)
        assert first["attempted"] == second["attempted"]
        assert a["computed"] == b["computed"], workload
        assert a["errors_mm"] == b["errors_mm"], workload
    # fit budgets of the default config and acceptance criteria 1 and 5,
    # over the two smoke frames or poses
    assert record("track", 5, 1)["computed"]["fit.stepwise_evals"] == 3321 * 2
    assert record("ik", 5, 1)["computed"]["fit.stepwise_evals"] == 8301 * 2
    assert record("ik_joint", 5, 1)["computed"]["fit.joint_evals"] == 8281 * 2


def test_traced_self_times_account_for_traced_time():
    for workload in WORKLOADS:
        result_of(run_bench(workload, 1, seed=6))
        rec = record(workload, 6, 1)
        spans = json.loads((ROOT / rec["spans"]).read_text())
        assert spans["fields"][:2] == ["name", "layer"]
        total = sum(rec["layer_self_ms"].values())
        assert total == pytest.approx(1e3 * rec["traced_s"], rel=1e-3)
        assert rec["unattributed_s"] <= 0.05 * rec["traced_s"]


def _fake(seed, threads, workload="track"):
    return {"workload": workload, "trace": 0, "smoke": False, "seed": seed,
            "env": {"blas": {"threads": threads}},
            "metrics": {"op_ms_p50": {"value": 100.0, "unit": "ms"}}}


def test_compare_refuses_other_blas_threads_or_seed():
    compare.check_comparable([_fake(1, 1)], [_fake(1, 1)])
    with pytest.raises(compare.NotComparable):
        compare.check_comparable([_fake(1, 1)], [_fake(1, 2)])
    with pytest.raises(compare.NotComparable):
        compare.check_comparable([_fake(1, 1)], [_fake(2, 1)])
    with pytest.raises(compare.NotComparable):
        compare.check_comparable([_fake(1, 1)], [_fake(1, 1, workload="ik")])


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
