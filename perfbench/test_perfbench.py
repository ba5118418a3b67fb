"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py

Checks that each run passes its output checks (on desk the tiny models
meet a known program failure, and nothing else may fail), prints every
end-to-end metric with its unit, and ends with the metrics
BENCHMARK.json lists; that span self times are non-negative; and that the
per-layer self times of the traced pass add up to its traced wall time.
Also checks that the command fails, without a result line, when the
program's sources are missing.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("desk", "phrase", "frontend")

# The end-to-end metrics every run prints by name and unit, applicable or not.
PRINTED = {
    "setup_s": "s", "setup_raw_s": "s", "wall_s": "s", "wall_raw_s": "s", "machine_speed": "x", "models_per_s": "models/s", "model_s_p50": "s",
    "model_s_tail": "s", "trials_per_s": "trials/s", "trial_ms_p50": "ms",
    "trial_ms_tail": "ms", "audio_x_realtime": "x", "utt_ms_p50": "ms", "utt_ms_tail": "ms",
    "utts_per_s": "utts/s", "ops_per_s": "1/s", "peak_rss_mb": "MB", "failed_ops_frac": "ratio",
}
LAYERS = ("features", "corpus", "models", "inference", "training", "speaker_id", "bench")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(workload, trace, cwd=ROOT, runner=RUN):
    return subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_line(workload, trace, proc):
    """The final JSON line, after checking the run's verdict. Tiny desk
    models meet the program's ImpossibleObservationError at frame 0 (its
    scaled forward pass, see README.md); that failure, and only that one,
    makes the desk run exit 1 with "correct": false."""
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    if workload != "desk":
        assert proc.returncode == 0 and result["correct"], proc.stdout[-3000:] + proc.stderr
        assert result["failed"] == 0
        return result
    assert proc.returncode == 1 and not result["correct"], proc.stdout[-3000:] + proc.stderr
    path = os.path.join(ROOT, ".bench_results", f"desk-tiny-seed3-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        problems = json.load(fh)["problems"]
    assert len(problems) == result["failed"] >= 1
    for line in problems:
        assert "ImpossibleObservationError" in line, line
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_metric(workload):
    proc = run(workload, 0)
    result = result_line(workload, 0, proc)
    lines = proc.stdout.splitlines()
    for name, unit in PRINTED.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines
                   if len(line.split()) >= 3), f"{name} [{unit}] not printed"
    for spec in contract()["end_to_end"]:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_spans_and_self_times(workload):
    result = result_line(workload, 1, run(workload, 1))
    metrics = result["metrics"]
    for spec in contract()["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"], spec["name"]

    path = os.path.join(ROOT, ".bench_results", f"{workload}-tiny-seed3-trace1-spans.json.gz")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        spans = json.load(fh)
    dur = np.asarray(spans["end"]) - np.asarray(spans["start"])
    parent = np.asarray(spans["parent"])
    child = np.zeros_like(dur)
    np.add.at(child, parent[parent >= 0], dur[parent >= 0])
    assert len(dur) == metrics["trace.spans"]["value"]
    # span times are written rounded to 1 ns
    assert np.all(dur - child >= -1e-9 * (1 + np.bincount(parent[parent >= 0], minlength=len(dur))))

    layer_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    for layer in LAYERS:
        assert metrics[f"{layer}.self_s"]["value"] >= 0.0
    assert layer_sum == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9, abs=1e-12)
    assert 0 < metrics["trace.overhead_s"]["value"] < metrics["trace.wall_s"]["value"]


def test_fails_without_program_sources():
    bare = os.path.join(ROOT, ".bench_work", f"selftest-bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("desk", 0, cwd=bare, runner=os.path.join(bare, "perfbench", "run.py"))
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
