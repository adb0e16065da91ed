"""One workload process: set up, say ``ready``, measure, print one JSON result.

``python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
[--setup-only | --pauses P]``, started by run.py.  Set-up imports grossone
from ``src/``, builds the seeded corpus and warms up; the first stdout line
is ``ready`` and the seconds set-up took, counted from ``STARTED``, after
the standard library imports.  The bare interpreter's start comes before it: no change to
this repository moves it, it varies with the host more than anything after
it, and the traced run reports it as ``cli.interpreter_us``.

Operations run one at a time in a closed loop.  Each is timed alone; its
output is checked after the clock stops.  An untraced run goes on until the
timed operations add up to the given seconds; with ``--pauses P`` it stops
P times at even shares of them, prints ``paused`` and waits for a line on
stdin, so that run.py can time further set-ups in between.  A traced run
gives half of the seconds to an untraced phase and half to a traced one;
both run whole passes over the corpus, so per-operation counts repeat
exactly.

Inputs that hit the known defects of ROADMAP item 4, picked by what the
oracle expects of them and not by how the code handles them, are kept out
of the timed loop: each runs once, untimed, after it, and is checked and
reported on its own, so ``attempted`` and ``failed`` count timed operations
only.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

STARTED = time.monotonic()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import checks, corpus, oracle  # noqa: E402
from perfbench.metrics import GNUM_LAYERS, LIBRARY_LAYERS, SRC_MODULES  # noqa: E402
from perfbench.tracer import Tracer, public_functions  # noqa: E402


# CLI processes timed per traced script_batch run, three per line.
CLI_PROBES = 25

# Standard percentiles, highest first; the tail is the highest with at least
# TAIL_BEYOND samples beyond it.
TAILS = (99, 95, 90)
TAIL_BEYOND = 10


def load(name: str):
    """A grossone module, imported from this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module(f"grossone.{name}")


def percentile(sorted_values: list, p: float):
    """Nearest-rank percentile and the number of samples above it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100 * n))
    return sorted_values[rank - 1], n - rank


def tail_percentile(n: int) -> int:
    return next((p for p in TAILS if n - math.ceil(p / 100 * n) >= TAIL_BEYOND), TAILS[-1])


def raised_name(exc) -> str:
    """The name of an exception's class as a traceback's last line gives it."""
    cls = type(exc)
    return cls.__qualname__ if cls.__module__ == "builtins" else f"{cls.__module__}.{cls.__qualname__}"


def count_nodes(root, module_name: str) -> int:
    """Nodes of a syntax tree, walked without recursion."""
    n = 0
    todo = [root]
    while todo:
        node = todo.pop()
        n += 1
        for value in vars(node).values():
            for child in value if isinstance(value, tuple) else (value,):
                if type(child).__module__ == module_name and hasattr(child, "__dict__"):
                    todo.append(child)
    return n


# -- workloads -------------------------------------------------------------------------

class Workload:
    """A corpus, how to run one entry, and how to check its outcome."""

    name = ""
    expected_layers: tuple = ()

    def __init__(self, seed: int, size=None):
        self.entries = corpus.generate(self.name, seed, size)
        self.memo: dict = {}
        self.timed: list = []
        self.probes: list = []

    def split(self):
        """Set apart the known-defect inputs; the rest are timed.  Run after
        set-up: deciding takes the oracle, not the code under test."""
        self.probes = [i for i in range(len(self.entries)) if self.defect_input(i)]
        kept = set(self.probes)
        self.timed = [i for i in range(len(self.entries)) if i not in kept]

    def defect_input(self, i) -> bool:
        """Whether entry i is an input of the shape ROADMAP item 4 lists."""
        return False

    def warm_up(self):
        for i in self.warmup_indices():
            try:
                self.run(i)
            except Exception:
                pass

    def warmup_indices(self):
        return range(min(len(self.entries), 64))

    def run(self, i):
        raise NotImplementedError

    def family(self, i) -> str:
        return self.entries[i][0]

    def text(self, i) -> str:
        return self.entries[i][1]

    def defect(self, i, raised: str) -> bool:
        """Whether entry i failing by raising ``raised`` (a name as given by
        :func:`raised_name`, or "" if nothing was raised) is one of the known
        defects of ROADMAP item 4."""
        return False

    def fingerprint(self, out):
        return out

    def verify(self, i, out, exc):
        raise NotImplementedError

    def check(self, i, out, exc):
        """None if the outcome is right, else a reason; full checks run once
        per distinct outcome of an entry."""
        fp = ("raised", type(exc).__name__) if exc is not None else self.fingerprint(out)
        prev = self.memo.get(i)
        if prev is not None and prev[0] == fp:
            return prev[1]
        reason = self.verify(i, out, exc)
        self.memo[i] = (fp, reason)
        return reason

    def roundtrip(self, text: str):
        """Whether a canonical string parses back to the same value.

        The terms are re-bracketed pairwise, ``((a + b) + (c + d))``, so a
        value of hundreds of terms parses back in n log n term merges rather
        than the n**2 of the flat left-associative sum."""
        exprlang = load("exprlang")
        parts = [f"{'-' if sign == '-' else ''}{term}" for sign, term in oracle.split_terms(text)]
        while len(parts) > 1:
            pairs = zip(parts[0::2], parts[1::2])
            parts = [f"({a}) + ({b})" for a, b in pairs] + parts[len(parts) & ~1:]
        try:
            obj = exprlang.value_json(exprlang.evaluate(parts[0]))
        except Exception as exc:
            return f"{checks.short(text)} does not parse back: {type(exc).__name__}"
        return None if obj == {"type": "number", "value": text} else f"{checks.short(text)} parses back as {obj}"

    def install(self, tracer: Tracer) -> list:
        """Patch the library layers; return the layers that found no binding."""
        gnum = load("gnum")
        number = gnum.GrossNumber
        counts, maxima = tracer.counts, tracer.maxima

        def shape(result):
            terms = getattr(result, "terms", None)
            if terms is None:
                return
            maxima["terms"] = max(maxima["terms"], len(terms))
            for t in terms:
                bits = max(t.coeff.numerator.bit_length(), t.coeff.denominator.bit_length())
                if bits > maxima["bits"]:
                    maxima["bits"] = bits

        def normalize_in(args):
            raw = args[0] if isinstance(args[0], (list, tuple)) else list(args[0])
            counts["normalize.in"] += len(raw)
            return (raw, *args[1:])

        def normalize_out(result):
            counts["normalize.out"] += len(result.terms)
            shape(result)

        def div_error(exc):
            if type(exc).__name__ == "NotExactlyDivisible":
                counts["div.inexact"] += 1

        def claims(result):
            for c in getattr(result, "claims", ()):
                counts["claims"] += 1
                counts["claims.ok"] += bool(c.ok)

        def methods(*names):
            return [number.__dict__[n] for n in names if n in number.__dict__]

        def functions(*names):
            return [getattr(gnum, n) for n in names if callable(getattr(gnum, n, None))]

        layers = {
            "gnum.normalize": (functions("normalize"), {"prepare": normalize_in, "observe": normalize_out}),
            "gnum.add": (methods("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")
                         + functions("add", "neg"), {"observe": shape}),
            "gnum.mul": (methods("__mul__", "__rmul__") + functions("mul"), {"observe": shape}),
            "gnum.cmp": (methods("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__")
                         + functions("compare"), {}),
            "gnum.div_exact": (methods("__truediv__", "__rtruediv__") + functions("div_exact"),
                               {"observe": shape, "on_error": div_error}),
            "gnum.pow_int": (methods("__pow__") + functions("pow_int"), {"observe": shape}),
            "gnum.eval_at": (methods("eval_at") + functions("eval_at"), {}),
            "gnum.format": (functions("format_number"), {}),
        }
        missing = []
        for layer, (originals, hooks) in layers.items():
            originals = list({id(f): f for f in originals}.values())
            if not originals or tracer.install(layer, originals, **hooks) == 0:
                missing.append(layer)
        for name in LIBRARY_LAYERS:
            hooks = {"observe": claims} if name == "paradoxes" else {}
            if tracer.install(name, public_functions(load(name)), **hooks) == 0:
                missing.append(name)
        return missing

    def cli_probe(self):
        """The cli.* metrics and the failing CLI runs; only script_batch probes."""
        return {"cli.interpreter_us": 0.0, "cli.import_us": 0.0, "cli.run_us": 0.0}, {}


class KernelWorkload(Workload):
    expected_layers = ("gnum.normalize", "gnum.add", "gnum.mul", "gnum.cmp", "gnum.div_exact")

    def __init__(self, seed: int, size=None):
        super().__init__(seed, size)
        self.gnum = load("gnum")
        self.errors = load("errors")
        g = self.gnum
        ops = {
            "add": lambda a, b: a + b,
            "sub": lambda a, b: a - b,
            "mul": lambda a, b: a * b,
            "lt": lambda a, b: a < b,
            "le": lambda a, b: a <= b,
            "gt": lambda a, b: a > b,
            "ge": lambda a, b: a >= b,
            "eq": lambda a, b: a == b,
            "compare": lambda a, b: g.compare(a, b),
            "div": lambda a, b: g.div_exact(a, b),
            "pow": lambda a, k: g.pow_int(a, k),
            "eval_at": lambda a, t: g.eval_at(a, t),
        }
        self.prepared = []
        for op in self.entries:
            y = op[2] if op[0] in ("pow", "eval_at") else self.number(op[2])
            self.prepared.append((ops[op[0]], self.number(op[1]), y))

    def number(self, spec):
        g = self.gnum
        return g.normalize([g.term(Fraction(cn, cd), Fraction(bn, bd), p) for cn, cd, bn, bd, p in spec])

    def run(self, i):
        fn, x, y = self.prepared[i]
        return fn(x, y)

    def text(self, i) -> str:
        return f"{self.entries[i][0]} #{i}"

    def fingerprint(self, out):
        # Repeats are compared by their terms: formatting every output would
        # take longer than many of the operations.
        return ("number", out.terms) if isinstance(out, self.gnum.GrossNumber) else (type(out).__name__, out)

    def verify(self, i, out, exc):
        want = checks.expected_kernel(self.entries[i])
        if exc is not None:
            return checks.check_exception(want, exc, self.errors)
        reason = checks.check_kernel(want, out, str)
        if reason is None and want[0] == "num":
            reason = self.roundtrip(str(out))
        return reason


class KernelSmall(KernelWorkload):
    name = "kernel_small"
    expected_layers = KernelWorkload.expected_layers + ("gnum.eval_at",)


class KernelWide(KernelWorkload):
    name = "kernel_wide"
    expected_layers = KernelWorkload.expected_layers + ("gnum.pow_int",)

    def warmup_indices(self):
        # The quotients and orderings of the first round: cheap, and the
        # same amount of work for every seed.
        return [i for i in range(3, 10) if i < len(self.entries)]


class ScriptBatch(Workload):
    name = "script_batch"
    expected_layers = tuple(f"gnum.{g}" for g in GNUM_LAYERS) + LIBRARY_LAYERS + (
        "exprlang.tokenize", "exprlang.parse", "exprlang.eval", "exprlang.format")

    def __init__(self, seed: int, size=None):
        super().__init__(seed, size)
        self.wants: dict = {}
        self.exprlang = load("exprlang")
        self.errors = load("errors")
        self.stages = (self.exprlang.tokenize, self.exprlang.parse,
                       self.exprlang.eval_expr, self.exprlang.value_json)

    def warmup_indices(self):
        return [i for i in range(min(len(self.entries), 60)) if not self.family(i).startswith("chain")]

    def run(self, i):
        tokenize, parse, eval_expr, value_json = self.stages
        return json.dumps(value_json(eval_expr(parse(tokenize(self.entries[i][1])))))

    def want(self, i) -> tuple:
        if i not in self.wants:
            self.wants[i] = checks.expected(self.entries[i][2])
        return self.wants[i]

    def defect_input(self, i) -> bool:
        """A chain of 1000+ operands, or a line of which some GrossoneError
        is expected: ``grandi(0)``, ``lamp(on, 0)`` and their kin."""
        return self.family(i) == "chain_long" or self.want(i) == ("err", None, 3)

    def defect(self, i, raised: str) -> bool:
        """A chain of 1000+ operands that overflows the recursion limit, or
        a bare ValueError where some GrossoneError is expected."""
        known = "RecursionError" if self.family(i) == "chain_long" else "ValueError"
        return raised == known and self.defect_input(i)

    def verify(self, i, out, exc):
        want = self.want(i)
        if exc is not None:
            return checks.check_exception(want, exc, self.errors)
        obj = json.loads(out)
        reason = checks.check_json(want, obj)
        if reason is None and want[0] == "num":
            reason = self.roundtrip(obj["value"])
        return reason

    def cli_probe(self):
        """Time CLI processes on the first CLI_PROBES lines that are not
        chains: the bare interpreter, the import alone, and the full
        ``--json --eval`` run, whose output is checked like any other."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        times: dict = {"interpreter": [], "import": [], "run": []}
        failures = {}
        picked = [i for i in range(len(self.entries)) if not self.family(i).startswith("chain")]
        for i in picked[:CLI_PROBES]:
            for key, args in (("interpreter", ["-c", "pass"]),
                              ("import", ["-c", "import grossone.cli"]),
                              ("run", ["-m", "grossone.cli", "--json", f"--eval={self.text(i)}"])):
                t0 = perf_counter_ns()
                p = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                                   capture_output=True, text=True, timeout=60)
                times[key].append(perf_counter_ns() - t0)
            reason = checks.check_cli(self.want(i),
                                      p.returncode, p.stdout, p.stderr)
            if reason is not None:
                # An uncaught exception exits with 1 and names itself last.
                tail = (p.stderr.strip().splitlines() or [""])[-1]
                raised = tail.split(":", 1)[0] if p.returncode == 1 else ""
                failures[i] = (1, f"CLI: {reason}", self.defect(i, raised))
        # The least of each kind: a process start varies by more than the few
        # milliseconds an evaluation takes, and a busy host only slows it.
        best = {k: min(v) / 1e3 for k, v in times.items()}
        return {
            "cli.interpreter_us": best["interpreter"],
            "cli.import_us": best["import"] - best["interpreter"],
            "cli.run_us": best["run"] - best["import"],
        }, failures

    def install(self, tracer: Tracer) -> list:
        missing = super().install(tracer)
        counts = tracer.counts
        module = self.exprlang.__name__

        def error(exc):
            counts["exprlang.errors"] += 1

        def tokens(result):
            counts["tokens"] += len(result)

        def nodes(result):
            counts["nodes"] += count_nodes(result, module)

        tokenize, parse, eval_expr, value_json = self.stages
        self.stages = (
            tracer.wrap("exprlang.tokenize", tokenize, observe=tokens, on_error=error),
            tracer.wrap("exprlang.parse", parse, observe=nodes, on_error=error),
            tracer.wrap("exprlang.eval", eval_expr, on_error=error),
            tracer.wrap("exprlang.format", value_json, on_error=error),
        )
        return missing


WORKLOADS = {w.name: w for w in (KernelSmall, KernelWide, ScriptBatch)}


# -- measurement -----------------------------------------------------------------------

class Phase:
    """Outcomes of one timed phase.

    Each entry keeps the least of its timings across passes: the operations
    are deterministic, and on a shared host interference only ever slows
    them, for seconds at a time.  Throughput and percentiles are computed
    over these per-entry times of the entries that came out right."""

    def __init__(self):
        self.best: dict = {}
        self.busy_ns = 0
        self.attempted = 0
        self.failures: dict = {}

    @property
    def failed(self) -> int:
        return sum(n for n, _, _ in self.failures.values())

    def add(self, j: int, ns: int, reason):
        self.attempted += 1
        self.busy_ns += ns
        if ns < self.best.get(j, ns + 1):
            self.best[j] = ns
        if reason is not None:
            # Known-defect inputs are never timed, so no failure here is known.
            self.failures[j] = (self.failures.get(j, (0,))[0] + 1, reason, False)

    def latencies(self) -> list:
        return sorted(ns for j, ns in self.best.items() if j not in self.failures)

    def throughput(self) -> float:
        """Entries done right per second of their best times, failures' included."""
        total = sum(self.best.values())
        return len(self.latencies()) / (total / 1e9) if total else 0.0


def run_phase(wl: Workload, seconds: float, tracer: Tracer | None = None, whole: bool = False,
              pause=None, pauses: int = 0) -> Phase:
    """Run the timed entries in order until the timed operations add up to
    ``seconds`` and, if ``whole``, the last pass over them is complete.
    ``pause`` is called each time they pass another of ``pauses + 1`` even
    shares of ``seconds``, the last share excepted."""
    ph = Phase()
    run = wl.run
    order = wl.timed
    n = len(order)
    budget_ns = seconds * 1e9
    paused = 0
    i = 0
    while True:
        j = order[i % n]
        if tracer is not None:
            tracer.on = True
        t0 = perf_counter_ns()
        try:
            out, exc = run(j), None
        except Exception as e:
            out, exc = None, e
        t1 = perf_counter_ns()
        if tracer is not None:
            tracer.on = False
            tracer.stack.clear()
        ph.add(j, t1 - t0, wl.check(j, out, exc))
        i += 1
        if ph.busy_ns >= budget_ns and (not whole or i % n == 0):
            return ph
        if paused < pauses and ph.busy_ns >= budget_ns * (paused + 1) / (pauses + 1):
            paused += 1
            pause()


def run_probes(wl: Workload) -> dict:
    """Run each known-defect input once, untimed; its failures as entry ->
    (1, reason, known defect)."""
    failures = {}
    for j in wl.probes:
        try:
            out, exc = wl.run(j), None
        except Exception as e:
            out, exc = None, e
        reason = wl.check(j, out, exc)
        if reason is not None:
            failures[j] = (1, reason, wl.defect(j, "" if exc is None else raised_name(exc)))
    return failures


def probe_note(wl: Workload, failures: dict) -> str:
    known = sum(known for _, _, known in failures.values())
    return (f"known-defect inputs, each run once untimed: {len(wl.probes)}, "
            f"of which {known} failed as the known defects")


def failure_notes(wl: Workload, failures) -> tuple:
    """Lines listing failing inputs by family, and whether any is unexpected;
    ``failures`` are dicts of entry -> (count, reason, known defect)."""
    merged: dict = {}
    for found in failures:
        for j, (count, reason, known) in found.items():
            before, _, was_known = merged.get(j, (0, reason, known))
            merged[j] = (before + count, reason, was_known and known)
    unexpected = False
    lines = []
    for j in sorted(merged, key=lambda j: (wl.family(j), j)):
        count, reason, known = merged[j]
        unexpected |= not known
        text = checks.short(wl.text(j), 50)
        tag = "known defect" if known else "UNEXPECTED"
        lines.append(f"failed [{wl.family(j)}] {text!r} x{count}: {reason} ({tag})")
    return lines, unexpected


def src_lines() -> dict:
    package = SRC / "grossone"
    out = {}
    total = 0
    for path in sorted(package.rglob("*.py")):
        lines = len(path.read_text(encoding="utf-8").splitlines())
        total += lines
        if path.parent == package and path.stem in SRC_MODULES:
            out[f"src.lines.{path.stem}"] = lines
    for module in SRC_MODULES:
        out.setdefault(f"src.lines.{module}", 0)
    out["src.lines.total"] = total
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced_result(wl: Workload, ph: Phase, probed: dict) -> dict:
    lat = ph.latencies()
    notes, unexpected = failure_notes(wl, [ph.failures, probed])
    metrics = {"throughput_ops_s": ph.throughput(), "peak_rss_mb": peak_rss_mb()}
    if lat:
        p50, _ = percentile(lat, 50)
        p = tail_percentile(len(lat))
        tail, beyond = percentile(lat, p)
        metrics["latency_p50_us"] = p50 / 1e3
        metrics["latency_tail_us"] = tail / 1e3
        notes.insert(0, f"latency_tail_us is p{p} of {len(lat)} distinct correct operations, "
                        f"{beyond} samples beyond it; {ph.attempted / len(ph.best):.1f} runs of each")
    else:
        metrics["latency_p50_us"] = metrics["latency_tail_us"] = 0.0
        notes.insert(0, "no operation completed correctly")
    notes.insert(1, f"error_rate = {ph.failed / ph.attempted:.6g} "
                    f"({ph.failed} failed of {ph.attempted} attempted)")
    notes.insert(2, probe_note(wl, probed))
    return {
        "correct": bool(lat) and not unexpected,
        "attempted": ph.attempted,
        "failed": ph.failed,
        "metrics": metrics,
        "notes": notes,
    }


def traced_result(wl: Workload, a: Phase, b: Phase, tr: Tracer, missing: list, cli: dict,
                  cli_failures: dict, probed: dict) -> dict:
    n = b.attempted
    m: dict = {}
    for g in GNUM_LAYERS:
        calls, self_ns, _ = tr.stats(f"gnum.{g}")
        m[f"gnum.{g}.calls"] = calls / n
        m[f"gnum.{g}.self_us"] = self_ns / 1e3 / n
    counts = tr.counts
    div_calls = tr.stats("gnum.div_exact")[0]
    m["gnum.normalize.keep_ratio"] = (
        counts["normalize.out"] / counts["normalize.in"] if counts["normalize.in"] else 0.0)
    m["gnum.div_exact.steps"] = tr.children[("gnum.div_exact", "gnum.mul")] / n
    m["gnum.div_exact.inexact_ratio"] = counts["div.inexact"] / div_calls if div_calls else 0.0
    m["gnum.result_terms.max"] = tr.maxima["terms"]
    m["gnum.coeff_bits.max"] = tr.maxima["bits"]
    tok_ns = tr.stats("exprlang.tokenize")[2]
    parse_ns = tr.stats("exprlang.parse")[2]
    m["exprlang.tokenize.us"] = tok_ns / 1e3 / n
    m["exprlang.tokenize.tokens_per_s"] = counts["tokens"] / (tok_ns / 1e9) if tok_ns else 0.0
    m["exprlang.parse.us"] = parse_ns / 1e3 / n
    m["exprlang.parse.nodes_per_s"] = counts["nodes"] / (parse_ns / 1e9) if parse_ns else 0.0
    m["exprlang.eval.self_us"] = tr.stats("exprlang.eval")[1] / 1e3 / n
    m["exprlang.format.us"] = tr.stats("exprlang.format")[2] / 1e3 / n
    m["exprlang.errors"] = counts["exprlang.errors"] / n
    for layer in LIBRARY_LAYERS:
        calls, self_ns, _ = tr.stats(layer)
        m[f"{layer}.calls"] = calls / n
        m[f"{layer}.self_us"] = self_ns / 1e3 / n
    m["paradoxes.claims_ok_ratio"] = counts["claims.ok"] / counts["claims"] if counts["claims"] else 0.0
    m["defects.known"] = sum(known for _, _, known in probed.values())
    m.update(cli)
    m.update(src_lines())
    ta, tb = a.throughput(), b.throughput()
    m["trace.throughput_untraced_ops_s"] = ta
    m["trace.throughput_traced_ops_s"] = tb
    m["trace.overhead_ratio"] = ta / tb if tb else 0.0

    notes, unexpected = failure_notes(wl, [a.failures, b.failures, probed, cli_failures])
    silent = [layer for layer in wl.expected_layers if tr.stats(layer)[0] == 0]
    if isinstance(wl, ScriptBatch) and not m["cli.interpreter_us"]:
        silent.append("cli probes")
    for layer in missing:
        notes.append(f"no binding found for {layer}")
    for layer in silent:
        notes.append(f"wrapper {layer} recorded no calls")
    notes.insert(0, f"traced {n} operations, untraced {a.attempted}; "
                    f"overhead {m['trace.overhead_ratio']:.3f}x")
    notes.insert(1, probe_note(wl, probed))
    attempted = a.attempted + b.attempted
    return {
        "correct": bool(a.latencies() and b.latencies()) and not (unexpected or missing or silent),
        "attempted": attempted,
        "failed": a.failed + b.failed,
        "metrics": m,
        "notes": notes,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size=None, ready=None,
            setup_only: bool = False, pause=None, pauses: int = 0) -> dict | None:
    """Set up ``workload``, call ``ready``, then measure; the result dict has
    ``correct``, ``attempted``, ``failed``, ``metrics`` and ``notes``.  An
    untraced run calls ``pause`` ``pauses`` times while it measures."""
    wl = WORKLOADS[workload](seed, size)
    wl.warm_up()
    if ready is not None:
        ready()
    if setup_only:
        return None
    wl.split()
    if not trace:
        ph = run_phase(wl, seconds, pause=pause, pauses=pauses)
        return untraced_result(wl, ph, run_probes(wl))
    a = run_phase(wl, seconds / 2, whole=True)
    tracer = Tracer()
    try:
        missing = wl.install(tracer)
        b = run_phase(wl, seconds / 2, tracer, whole=True)
    finally:
        tracer.restore()
    probed = run_probes(wl)
    cli, cli_failures = wl.cli_probe()
    return traced_result(wl, a, b, tracer, missing, cli, cli_failures, probed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pauses", type=int, default=0)
    args = parser.parse_args(argv)

    def ready():
        print("ready", time.monotonic() - STARTED, flush=True)

    def pause():
        print("paused", flush=True)
        sys.stdin.readline()

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), ready=ready,
                     setup_only=args.setup_only, pause=pause, pauses=args.pauses)
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
