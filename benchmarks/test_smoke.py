"""Smoke test of the benchmark: each workload briefly, untraced once and
traced twice. Takes a few minutes; run from the checkout root with

    python3 -m pytest benchmarks/test_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sixstate", "long-panel", "long-horizon", "cold-cli")
COUNTS = ("pipeline.cells", "pipeline.bytes_written")
# Names the table prints for people, with their units, where they apply.
TABLE = {
    "sixstate": {"setup_s": "s", "pipeline_s.p50": "s", "peak_rss_mb": "MB", "failed_share": "ratio"},
    "long-panel": {"setup_s": "s", "pipeline_s.p50": "s", "peak_rss_mb": "MB", "failed_share": "ratio"},
    "long-horizon": {"setup_s": "s", "pipeline_s.p50": "s", "peak_rss_mb": "MB", "failed_share": "ratio"},
    "cold-cli": {
        "setup_s": "s", "cold_run_s.p50": "s", "cold_stage_s.p50": "s", "peak_rss_mb": "MB",
        "failed_share": "ratio",
    },
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = out.stdout.strip().splitlines()
    table = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            table[parts[0]] = parts[2]
    details = json.loads(next(l for l in lines if l.startswith("details "))[len("details "):])
    return {"result": json.loads(lines[-1]), "table": table, "details": details}


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    w = request.param
    return w, bench(w, 0), bench(w, 1), bench(w, 1)


def test_metrics_named_with_units(runs):
    workload, untraced, traced, _ = runs
    for run, declared in ((untraced, BENCHMARK["end_to_end"]), (traced, BENCHMARK["per_layer"])):
        metrics = run["result"]["metrics"]
        assert set(metrics) == {m["name"] for m in declared}
        for m in declared:
            assert metrics[m["name"]]["unit"] == m["unit"]
    for name, unit in TABLE[workload].items():
        assert untraced["table"].get(name) == unit, name


def test_counts_repeat_between_runs(runs):
    _, _, first, second = runs
    a, b = first["result"]["metrics"], second["result"]["metrics"]
    names = [n for n in a if n.endswith(".calls") or n in COUNTS]
    assert names
    assert {n: a[n]["value"] for n in names} == {n: b[n]["value"] for n in names}
    assert first["details"]["counts_repeat"] and second["details"]["counts_repeat"]


def test_tracing_leaves_outputs_unchanged(runs):
    _, _, first, second = runs
    assert first["details"]["traced_ok"] and second["details"]["traced_ok"]


def test_no_operation_fails(runs):
    for run in runs[1:]:
        result = run["result"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert run["details"]["failures"] == []


def test_refuses_without_program(tmp_path):
    os.makedirs(tmp_path / "benchmarks")
    for name in os.listdir(os.path.join(ROOT, "benchmarks")):
        if name.endswith((".py", ".json")):
            with open(os.path.join(ROOT, "benchmarks", name), "rb") as src:
                (tmp_path / "benchmarks" / name).write_bytes(src.read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sixstate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0 and out.stdout == ""
