"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload single-trace --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
separate traced run and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's provenance, sample counts, pinned work counters and any failure
messages.

``--pin SEED [SEED ...]`` instead recomputes the pinned work counters of
every workload for those seeds and the held-out seed, and rewrites
``perfbench/pinned.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "pinned.json"

#: setup_s is the median of at least SETUPS set-ups, repeated until
#: they have taken SETUP_SECONDS in all.  One set-up of a small circuit
#: takes tens of milliseconds and varies by a quarter, so it takes many.
SETUPS = 21
SETUP_SECONDS = 3.0

#: The pinned seed kept back from tuning, for confirming a claim on.
HOLDOUT_SEED = 1000


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)
    if args.pin is None and args.workload is None:
        parser.error("--workload is required")
    return args


def _pin_check(workload, counters):
    """Compare the run's work counters with the committed pins.

    Returns ``(problems, how the counters were checked)``.  A seed with
    no pin cannot be compared; its counters are sampled a second time
    and must repeat exactly, and the report says the pins were not
    consulted.
    """
    if not PINNED.exists():
        return ["pinned counters file missing"], "none"
    pins = json.loads(PINNED.read_text())["counters"].get(workload.name, {})
    expected = pins.get(str(workload.seed))
    if expected is None:
        print("perfbench: seed %d has no pinned counters; checking only "
              "that they repeat" % workload.seed, file=sys.stderr)
        again = workload.pin_sample()
        if again != counters:
            return ["work counters did not repeat"], "repeat-only"
        return [], "repeat-only"
    problems = [
        "pinned counter %s: %s != %s" % (key, counters.get(key), value)
        for key, value in sorted(expected.items())
        if counters.get(key) != value
    ]
    if set(counters) != set(expected):
        problems.append("pinned counter set changed")
    return problems, "pinned"


def _correctness(workload):
    """Untimed checks: seeded-sample verification and pinned counters.

    Returns ``(requests made, problems, counters, pin check)``.
    """
    problems = workload.verify()
    counters = workload.pin_sample()
    pin_problems, pin_check = _pin_check(workload, counters)
    problems.extend(pin_problems)
    requests = workload.verify_count + workload.pin_requests
    if pin_check == "repeat-only":
        requests += workload.pin_requests
    return requests, problems, counters, pin_check


def _stop_helpers():
    """Stop the multiprocessing resource tracker the service started,
    so no process outlives the run."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        with contextlib.suppress(OSError, ChildProcessError):
            stop()


def timed_run(workload, seconds):
    from perfbench.common import clear_registry, closed_loop, peak_rss_mb

    setups = []
    started = time.perf_counter()
    while True:
        clear_registry()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        if (len(setups) >= SETUPS
                and time.perf_counter() - started >= SETUP_SECONDS):
            break
        workload.close()
    try:
        checks, problems, counters, pin_check = _correctness(workload)
        loop = closed_loop(workload.request, workload.check, seconds)
    finally:
        workload.close()
    metrics = {
        "vectors_per_s": (loop.vectors_per_s, "1/s"),
        "latency_p50_ms": (loop.latency_ms(0.5), "ms"),
        "latency_p90_ms": (loop.latency_ms(0.9), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = {"latency_p50_ms": len(loop.latencies),
               "latency_p90_ms": len(loop.latencies), "setup_s": len(setups)}
    return loop, checks, problems, counters, pin_check, metrics, samples


def traced_run(workload, seconds):
    from perfbench.common import clear_registry, closed_loop, registry_delta
    from perfbench.layers import PER_LAYER, Tracer, assemble

    clear_registry()
    workload.setup()
    try:
        checks, problems, counters, pin_check = _correctness(workload)
        untraced = closed_loop(workload.request, workload.check,
                               seconds / 2, require_tail=False)
        tracer = Tracer()

        def observed(index, output):
            workload.observe(output, tracer)
            return workload.check(index, output)

        clear_registry()
        with tracer.wrapped(workload.wrap_targets()):
            traced = closed_loop(workload.request, observed, seconds / 2,
                                 start_index=untraced.attempted,
                                 require_tail=False)
        delta = registry_delta()
        values = assemble(workload, delta, tracer, traced, untraced,
                          counters)
    finally:
        workload.close()
    metrics = {name: (values[name], unit) for name, unit, _b in PER_LAYER}
    samples = {"untraced_requests": untraced.attempted,
               "traced_requests": traced.attempted}
    # Both halves count towards attempted/failed; only the traced half
    # feeds the per-layer numbers.
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.vectors += untraced.vectors
    traced.errors.extend(untraced.errors)
    return traced, checks, problems, counters, pin_check, metrics, samples


def pin(seeds):
    from perfbench.common import clear_registry
    from perfbench.workloads import WORKLOADS

    table = {}
    for name, factory in WORKLOADS.items():
        table[name] = {}
        for seed in seeds:
            workload = factory(seed, ROOT)
            clear_registry()
            workload.setup()
            try:
                table[name][str(seed)] = workload.pin_sample()
            finally:
                workload.close()
            print("pinned %s seed %d" % (name, seed), file=sys.stderr)
    document = {
        "description": "Exact work counters of each workload's first "
        "requests, per seed (python3 perfbench/run.py --pin ...).",
        "holdout_seed": HOLDOUT_SEED,
        "counters": table,
    }
    PINNED.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    _stop_helpers()
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no simulator sources under %s/src; run from a "
              "full checkout" % ROOT, file=sys.stderr)
        return 2
    from perfbench.common import ensure_on_path

    ensure_on_path(ROOT)
    if args.pin:
        return pin(sorted(set(args.pin) | {HOLDOUT_SEED}))
    from perfbench.common import provenance
    from perfbench.workloads import WORKLOADS

    factory = WORKLOADS.get(args.workload)
    if factory is None:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(sorted(WORKLOADS))),
              file=sys.stderr)
        return 2
    workload = factory(args.seed, ROOT)
    run = traced_run if args.trace else timed_run
    try:
        loop, checks, problems, counters, pin_check, metrics, samples = run(
            workload, args.seconds)
    finally:
        _stop_helpers()
    attempted = loop.attempted + checks
    failed = loop.failed + len(problems)
    report = {
        "provenance": provenance(ROOT, workload.name, args.seed,
                                 workload.workers, samples),
        "trace": args.trace,
        "error_rate": failed / attempted,
        "vectors": loop.vectors,
        "pin_check": pin_check,
        "counters": counters,
        "failures": problems + loop.errors,
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
