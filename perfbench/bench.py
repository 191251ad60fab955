"""Timed runs, metrics and the result line; ``run.py`` is the entry point.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` wraps the package's layer boundaries (see ``tracing.py``),
reports the per-layer metrics and writes the spans to ``perfbench/out``.
Every input is checked by the probes in ``probes.py``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Each run also writes its result, with provenance, to ``perfbench/out``;
``compare.py`` summarises and compares those files.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import convexcodes
import probes
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
SETUP_CHILD = (
    "import json, time\n"
    "t = time.perf_counter()\n"
    "import convexcodes\n"
    "kernel = convexcodes.kernel_name()\n"
    "t = time.perf_counter() - t\n"
    "print(json.dumps({'s': t, 'kernel': kernel, 'file': convexcodes.__file__}))\n"
)

END_TO_END = {
    "inputs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "decided_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_oracle():
    """The test suite's independent reference implementations."""
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ROOT / "tests" / "oracles.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def measure_setup() -> tuple[float, str]:
    """Median time for a fresh interpreter to import the package and pick a kernel.

    One extra import runs first and is dropped: it may write bytecode caches.
    """
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    times, kernels = [], set()
    for attempt in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up import failed: {proc.stderr.strip()}")
        child = json.loads(proc.stdout)
        if Path(child["file"]).resolve().parent != SRC / "convexcodes":
            fail(f"set-up imported convexcodes from {child['file']}")
        kernels.add(child["kernel"])
        if attempt:
            times.append(child["s"])
    if len(kernels) != 1:
        fail(f"set-up imports chose different kernels: {sorted(kernels)}")
    return statistics.median(times), kernels.pop()


class Tally:
    """Outcome of one timed run over a workload's inputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.known = 0
        self.decided = 0
        self.timed_s = 0.0
        self.latencies: list[float] = []
        self.probes: dict[str, list[int]] = {}
        self.messages: list[str] = []

    def record(self, outcomes) -> None:
        bad = False
        for name, message in outcomes:
            counts = self.probes.setdefault(name, [0, 0])
            counts[0] += 1
            if message is None:
                continue
            counts[1] += 1
            bad = True
            if message.startswith(probes.KNOWN_DEFECT):
                self.known += 1
            else:
                self.unexpected += 1
            if len(self.messages) < 5:
                self.messages.append(f"input {self.attempted}: {name}: {message}")
        self.failed += bad


def run_inputs(wl, pool, pass_len, seconds, oracle, tracer=None) -> Tally:
    """Time inputs until ``seconds`` of timed work have passed, on a pass boundary.

    Only the workload's call is timed.  The probes run after it, untimed
    and, except the file round trip, untraced.  When a pass is the whole
    pool, an input met again in a later pass is not probed again: its
    result must equal the first one, whose probe outcomes it inherits.
    """
    clock = time.perf_counter
    tally = Tally()
    first: dict | None = {} if pass_len == len(pool) else None
    i = 0
    while tally.timed_s < seconds or i % pass_len:
        k = i % len(pool)
        code = pool[k]
        if tracer is not None:
            tracer.input_id = i
            tracer.active = True
        start = clock()
        try:
            result, error = wl.call(code), None
        except Exception as exc:  # a raising input is a failed input; the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
        tally.timed_s += elapsed
        outcomes = [("file-roundtrip", probes.roundtrip(code))]
        if tracer is not None:
            tracer.active = False
        if error is not None:
            outcomes.append(("call", error))
        else:
            tally.latencies.append(elapsed)
            tally.decided += wl.decided(result)
            if first is not None and k in first:
                earlier, checks = first[k]
                same = None if result == earlier else "result differs from the first pass"
                outcomes += checks + [("repeat-matches-first", same)]
            else:
                checks = wl.check(code, result, oracle)
                outcomes += checks
                if first is not None:
                    first[k] = (result, checks)
        tally.record(outcomes)
        tally.attempted += 1
        i += 1
    return tally


def replay_untraced(wl, pool, count: int) -> float:
    """Timed work of the first ``count`` inputs, with no wrapper active."""
    clock = time.perf_counter
    total = 0.0
    for i in range(count):
        start = clock()
        try:
            wl.call(pool[i % len(pool)])
        except Exception:  # already counted as failed by the traced pass
            pass
        total += clock() - start
    return total


def end_to_end(tally: Tally, setup_s: float) -> dict:
    lat = sorted(tally.latencies) or [0.0]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {
        "inputs_per_s": tally.attempted / tally.timed_s,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "decided_frac": tally.decided / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def report(args, provenance, tally, metrics, units, extra) -> None:
    """Print the human-readable lines, save the result file, print the JSON line."""
    print("perfbench " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    for line in extra:
        print("  " + line)
    print(f"  {'failed_frac':44s} {tally.failed / tally.attempted:14.6g} frac"
          f"  ({tally.failed} of {tally.attempted} inputs)")
    for name, (checked, bad) in tally.probes.items():
        print(f"  probe {name}: {checked} checked, {bad} failed")
    for message in tally.messages:
        print("  failure " + message)
    if tally.known:
        print(f"  {tally.known} failures are the recorded parse_code defect "
              "(see perfbench/README.md); they count in failed_frac")
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    saved = dict(result, provenance=provenance,
                 probes={k: {"checked": c, "failed": f} for k, (c, f) in tally.probes.items()})
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(saved, indent=1) + "\n")
    print(json.dumps(result))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description="convexcodes classification benchmark")
    ap.add_argument("--workload", required=True, choices=[*sorted(workloads.WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload == "all":
        # Each workload in its own process, one after another.
        codes = [subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in workloads.WORKLOADS]
        sys.exit(max(codes))
    oracle = load_oracle()
    wl = workloads.WORKLOADS[args.workload]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "budget": wl.budget,
        "kernel": convexcodes.kernel_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    if args.trace == 0:
        setup_s, kernel = measure_setup()
        if kernel != provenance["kernel"]:
            fail(f"set-up chose kernel {kernel}, this process {provenance['kernel']}")
    pool, pass_len = wl.inputs(args.seed)
    # The pool lives through the run; keep the collector from rescanning it.
    gc.collect()
    gc.freeze()

    if args.trace == 0:
        tally = run_inputs(wl, pool, pass_len, args.seconds, oracle)
        metrics = end_to_end(tally, setup_s)
        report(args, provenance, tally, metrics, END_TO_END,
               [f"latencies from {len(tally.latencies)} inputs"])
        return

    # Half the run traced, then the same inputs again untraced.
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, convexcodes)
    try:
        tally = run_inputs(wl, pool, pass_len, args.seconds / 2, oracle, tracer)
    finally:
        tracing.uninstall(undo)
    untraced_s = replay_untraced(wl, pool, tally.attempted)
    metrics = tracing.layer_metrics(tracer, tally.attempted, tally.timed_s, untraced_s)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.tsv.gz"
    kept = tracer.dump(spans_path)
    units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    report(args, provenance, tally, metrics, units,
           [f"spans: {tracer.spans} recorded, first {kept} written to "
            f"{spans_path.relative_to(ROOT)}"])
