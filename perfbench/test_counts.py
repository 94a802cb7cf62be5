"""The benchmark's own checks.

Two ``cold-scan`` runs with the same seed and a fixed operation count
must report identical Meter totals, station stats and store counters,
and the metrics a run prints must be the ones ``BENCHMARK.json`` names.

    python3 -m pytest perfbench/test_counts.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload, seed, ops, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--ops", str(ops), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == ops * (1 + trace)
    return result


def _counts(seed, ops):
    _run("cold-scan", seed, ops, trace=0)
    path = os.path.join(HERE, "out", "report-cold-scan-seed%d-trace0.json" % seed)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["counts"]


def test_same_seed_cold_scan_counts_repeat():
    first = _counts(seed=7, ops=12)
    second = _counts(seed=7, ops=12)
    assert first["meter_view_misses"]["events"] > 0
    assert first["store"]["bytes_read"] > 0
    assert first == second


def test_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        metrics = _run("update-mix", seed=3, ops=10, trace=trace)["metrics"]
        expected = {entry["name"]: entry["unit"] for entry in spec[section]}
        assert {name: m["unit"] for name, m in metrics.items()} == expected
