"""Run one workload of the grossone benchmark and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Starts a worker process that imports grossone from ``src/``, builds the
seeded corpus, warms up, reports ready with the seconds that took, and
measures.  Untraced, it pauses ``PAUSES`` times at even shares of the
measured time; in each pause a fresh worker does the same set-up alone and
exits.  Each set-up is one sample, and ``setup_s`` is their median: the
samples are spread over the whole run, so they meet the same states of a
shared host as the measured operations do.  The report goes to stdout,
ending with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics untraced, the per-layer metrics with
``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.worker import WORKLOADS  # noqa: E402

PAUSES = 10
DEADLINE_S = 170


def worker_cmd(args, *extra) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


def ready_seconds(line: str) -> float:
    if not line.startswith("ready "):
        raise RuntimeError(f"worker said {line.strip()!r} before ready")
    return float(line.split()[1])


def setup_alone(args, deadline: float) -> float:
    """One set-up in a fresh worker that exits after it; its seconds."""
    budget = deadline - time.monotonic()
    try:
        p = subprocess.run(worker_cmd(args, "--setup-only"), stdout=subprocess.PIPE, text=True,
                           cwd=ROOT, timeout=max(budget, 1))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"set-up worker exceeded {budget:.0f} s") from None
    if p.returncode != 0:
        raise RuntimeError(f"set-up worker failed with exit code {p.returncode}")
    return ready_seconds(p.stdout)


def run_worker(args, deadline: float):
    """Run the measuring worker, timing a set-up alone in each of its pauses;
    return the set-up samples and the worker's result."""
    pauses = 0 if args.trace else PAUSES
    proc = subprocess.Popen(worker_cmd(args, "--pauses", str(pauses)), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1), proc.kill)
    watchdog.start()
    try:
        setups = [ready_seconds(proc.stdout.readline())]
        last = ""
        for line in proc.stdout:
            if line == "paused\n":
                setups.append(setup_alone(args, deadline))
                proc.stdin.write("go\n")
                proc.stdin.flush()
            else:
                last = line
        if proc.wait() != 0:
            raise RuntimeError(f"worker failed with exit code {proc.returncode}")
        return setups, json.loads(last)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stdin.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the grossone benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "grossone" / "__init__.py").is_file():
        print(f"error: no grossone package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setups, result = run_worker(args, time.monotonic() + DEADLINE_S)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if args.trace:
        table = PER_LAYER
    else:
        metrics["setup_s"] = statistics.median(setups)
        table = END_TO_END
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for name, unit in table.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(f"  setup samples (s): {' '.join(f'{s:.4f}' for s in setups)}")
    for note in result["notes"]:
        print(f"  {note}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
