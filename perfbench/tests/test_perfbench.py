"""Tests of the benchmark itself: corpora, checks, metric names, tracing."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import corpus, worker
from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _digest(workload: str, seed: int, hashseed: str) -> str:
    code = ("import hashlib, sys; from perfbench import corpus; "
            "sys.stdout.write(hashlib.sha256(corpus.dumps(corpus.generate(sys.argv[1], int(sys.argv[2])))).hexdigest())")
    env = dict(os.environ, PYTHONPATH=str(ROOT), PYTHONHASHSEED=hashseed)
    return subprocess.run([sys.executable, "-c", code, workload, str(seed)], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_same_seed_gives_byte_identical_corpus(workload):
    here = hashlib.sha256(corpus.dumps(corpus.generate(workload, 7))).hexdigest()
    assert _digest(workload, 7, "1") == here
    assert _digest(workload, 7, "2") == here
    assert hashlib.sha256(corpus.dumps(corpus.generate(workload, 8))).hexdigest() != here


def test_corrupted_result_counts_in_error_rate():
    wl = worker.WORKLOADS["kernel_small"](3, size=1)
    run = wl.run

    def corrupted(i):
        out = run(i)
        return out + 1 if i == 0 else out

    wl.run = corrupted
    wl.split()
    phase = worker.run_phase(wl, 0.002)
    assert phase.failures[0][0] >= 1
    assert "wrong value" in phase.failures[0][1]
    result = worker.untraced_result(wl, phase, worker.run_probes(wl))
    assert result["failed"] == phase.failures[0][0] > 0
    assert result["correct"] is False
    assert any("error_rate" in note and not note.startswith("error_rate = 0 ") for note in result["notes"])


def test_known_defect_inputs_run_untimed_and_are_told_apart_by_how_they_fail():
    wl = worker.WORKLOADS["script_batch"](3, size=5)
    wl.entries = [next(e for e in wl.entries if e[0] == "chain_long"),
                  ["edge", "grandi(0)", ["err", None, 3]],
                  ["chain", "1 + 2*G", ["num", [[1, 1, 1, 1, 0], [2, 1, 1, 1, 1]]]]]
    wl.split()
    assert (wl.probes, wl.timed) == ([0, 1], [2])
    probed = worker.run_probes(wl)
    assert "RecursionError" in probed[0][1] and probed[0][2]
    assert "ValueError" in probed[1][1] and probed[1][2]
    phase = worker.run_phase(wl, 0, whole=True)
    assert (phase.attempted, phase.failed) == (1, 0)
    result = worker.untraced_result(wl, phase, probed)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert sum("(known defect)" in note for note in result["notes"]) == 2

    run = wl.run
    wl.run = lambda i: '{"type": "number", "value": "1"}' if i < 2 else run(i)
    probed = worker.run_probes(wl)
    assert "wrong value" in probed[0][1] and not probed[0][2]
    assert "returned a number" in probed[1][1] and not probed[1][2]
    result = worker.untraced_result(wl, worker.run_phase(wl, 0, whole=True), probed)
    assert result["correct"] is False
    assert sum("UNEXPECTED" in note for note in result["notes"]) == 2


def test_every_metric_name_is_well_formed():
    for name in list(END_TO_END) + list(PER_LAYER) + list(WORKLOADS):
        assert NAME.fullmatch(name), name
    assert set(WORKLOADS) <= set(worker.WORKLOADS)


def _traced(workload: str, size: int) -> dict:
    code = ("import json, sys; from perfbench import worker; "
            "print(json.dumps(worker.measure(sys.argv[1], 5, 0.01, True, size=int(sys.argv[2]))))")
    env = dict(os.environ, PYTHONPATH=str(ROOT))
    out = subprocess.run([sys.executable, "-c", code, workload, str(size)], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


BYPASSED = {
    "kernel_small": ("exprlang.", "sets.", "series.", "paradoxes.", "cli.", "defects.", "gnum.pow_int."),
    "kernel_wide": ("exprlang.", "sets.", "series.", "paradoxes.", "cli.", "defects.", "gnum.eval_at.",
                    "gnum.format."),
    "script_batch": (),
}
USED = {
    "kernel_small": ("gnum.normalize.calls", "gnum.add.calls", "gnum.mul.calls", "gnum.cmp.calls",
                     "gnum.div_exact.calls", "gnum.eval_at.calls"),
    "kernel_wide": ("gnum.normalize.calls", "gnum.mul.calls", "gnum.cmp.calls", "gnum.div_exact.calls",
                    "gnum.pow_int.calls"),
    "script_batch": ("exprlang.tokenize.us", "exprlang.parse.us", "exprlang.eval.self_us",
                     "exprlang.format.us", "gnum.format.calls", "sets.calls", "series.calls",
                     "paradoxes.calls", "cli.interpreter_us", "cli.import_us"),
}
SIZES = {"kernel_small": 1, "kernel_wide": 1, "script_batch": 3}


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_layer_metrics_are_zero_where_the_layer_is_bypassed(workload):
    result = _traced(workload, SIZES[workload])
    metrics = result["metrics"]
    assert set(metrics) == set(PER_LAYER)
    assert all(NAME.fullmatch(name) for name in metrics)
    for name, value in metrics.items():
        if BYPASSED[workload] and name.startswith(BYPASSED[workload]):
            assert value == 0, name
    for name in USED[workload]:
        assert metrics[name] > 0, name
    assert not any("recorded no calls" in note or "no binding" in note for note in result["notes"])


def test_a_wrapper_with_no_calls_fails_the_traced_run(monkeypatch):
    monkeypatch.setattr(worker.KernelSmall, "expected_layers",
                        worker.KernelSmall.expected_layers + ("gnum.pow_int",))
    result = worker.measure("kernel_small", 2, 0.005, True, size=1)
    assert result["correct"] is False
    assert "wrapper gnum.pow_int recorded no calls" in result["notes"]
    gnum = worker.load("gnum")
    assert not hasattr(gnum.normalize, "__wrapped__")


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kernel_small", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                       timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
