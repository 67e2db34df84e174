"""Checks of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench
(about four minutes: qam16-regulated rebuilds its off-line half per run).
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as _f:
    SPEC = json.load(_f)


def _is_exact(name: str) -> bool:
    return name.endswith(".calls_per_frame") or name in {
        "gf2.rank_rows.calls_setup",
        "search.table_lookup.hit_ratio",
        "search.infeasible_tuples",
        "search.table.fallback_markers",
        "search.selection_infeasible",
    }


def _run(cwd: str, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    first = _result(_run(ROOT, workload, 7, 1))
    second = _result(_run(ROOT, workload, 7, 1))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert {n: m["unit"] for n, m in res["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    exact = [n for n in first["metrics"] if _is_exact(n)]
    assert exact
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_untraced_reports_end_to_end_metrics():
    res = _result(_run(ROOT, "baselines", 3, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert {n: m["unit"] for n, m in res["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(str(tmp_path), "qam4-live", 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
