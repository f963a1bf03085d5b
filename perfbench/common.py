"""Shared pieces of the benchmark: the closed loop, percentiles, memory,
provenance, metrics-registry deltas and result comparison.

Nothing here imports ``repro`` at module level, so the self-tests can
exercise the statistics without the simulator on the path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

#: The latency percentile reported beside the median, and how many
#: samples must lie beyond it for it to be reported from a run.
TAIL_QUANTILE = 0.9
MIN_BEYOND = 10

#: A closed loop never runs longer than this, even when the percentile
#: rule is not met yet; the run must end well inside three minutes.
MAX_LOOP_SECONDS = 100.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values`` (0 < q <= 1)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``q``
    percentile."""
    return count - math.ceil(q * count)


def tail_resolved(count: int, q: float = TAIL_QUANTILE) -> bool:
    """True once ``count`` samples put at least :data:`MIN_BEYOND`
    beyond the ``q`` percentile."""
    return samples_beyond(count, q) >= MIN_BEYOND


@dataclasses.dataclass
class LoopResult:
    """What one closed loop measured."""

    latencies: List[float] = dataclasses.field(default_factory=list)
    vectors: int = 0
    attempted: int = 0
    failed: int = 0
    #: seconds spent inside requests (the loop's own bookkeeping and
    #: per-request checks run between requests and are excluded).
    busy_seconds: float = 0.0
    #: first few failure messages, for the report.
    errors: List[str] = dataclasses.field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    @property
    def vectors_per_s(self) -> float:
        return self.vectors / self.busy_seconds if self.busy_seconds else 0.0

    def latency_ms(self, q: float) -> float:
        return 1e3 * percentile(self.latencies, q)


#: request(index) -> the request's output; check(index, output) ->
#: (vectors completed, failure message or None).  Both are supplied by
#: a workload; check runs outside the timed region.
Request = Callable[[int], object]
Check = Callable[[int, object], Tuple[int, Optional[str]]]


def closed_loop(
    request: Request,
    check: Check,
    seconds: float,
    start_index: int = 0,
    require_tail: bool = True,
) -> LoopResult:
    """One client, one request in flight, for ``seconds`` seconds.

    With ``require_tail`` the loop keeps going past ``seconds`` until
    the tail percentile has :data:`MIN_BEYOND` samples beyond it (capped
    at :data:`MAX_LOOP_SECONDS`).  A request that raises counts as
    failed and as an infinitely slow sample, so it misses every latency
    limit.
    """
    loop = LoopResult()
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    index = start_index
    while True:
        now = clock()
        if now >= deadline and (
            not require_tail or tail_resolved(len(loop.latencies))
            or now - started >= MAX_LOOP_SECONDS
        ):
            break
        loop.attempted += 1
        begin = clock()
        try:
            output = request(index)
        except Exception as error:  # noqa: BLE001 - counted, reported
            loop.busy_seconds += clock() - begin
            loop.latencies.append(math.inf)
            loop.fail("request %d raised %s: %s"
                      % (index, type(error).__name__, error))
            index += 1
            continue
        elapsed = clock() - begin
        loop.busy_seconds += elapsed
        loop.latencies.append(elapsed)
        vectors, problem = check(index, output)
        loop.vectors += vectors
        if problem is not None:
            loop.fail("request %d: %s" % (index, problem))
        index += 1
    return loop


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped
    child (the one pool worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def source_commit(root: Path) -> str:
    """The checked-out commit read from ``.git`` inside ``root``, or
    ``"unknown"`` (exported checkouts carry no ``.git``)."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (root / ".git" / head[5:]).read_text().strip()
    except OSError:
        return "unknown"
    return head


def source_digest(root: Path) -> str:
    """sha256 over every ``src/**/*.py`` file (path and bytes), so a
    result names the code it measured even without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path, workload: str, seed: int, workers: int,
               samples: Mapping[str, int]) -> Dict[str, object]:
    """The facts that make a result reproducible."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # the scalar engines run without numpy
        numpy_version = "absent"
    return {
        "workload": workload,
        "seed": seed,
        "commit": source_commit(root),
        "src_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workers": workers,
        "samples": dict(samples),
    }


# ----------------------------------------------------------------------
# metrics-registry deltas
# ----------------------------------------------------------------------

class RegistryDelta:
    """Counter and histogram totals of one registry delta.

    The program publishes its own counters (engine events, lockstep
    waves, service tasks, server requests) into ``repro.obs``; service
    workers ship theirs back with every result.  :func:`clear_registry`
    before a measured section and :func:`registry_delta` after it read
    what the whole stack published in between, by the same
    read-and-reset the service workers use.
    """

    def __init__(self, snapshot: Mapping[str, object]):
        self._metrics = snapshot["metrics"]  # type: ignore[index]

    def _series(self, name: str, where: Mapping[str, str]
                ) -> List[Mapping[str, object]]:
        entry = self._metrics.get(name)
        if entry is None:
            return []
        names = entry["label_names"]
        return [
            series for series in entry["series"]
            if all(series["labels"][names.index(key)] == value
                   for key, value in where.items())
        ]

    def counter(self, name: str, **where: str) -> float:
        """Counter ``name`` summed over matching series."""
        return sum(series["value"] for series in self._series(name, where))

    def histogram(self, name: str, **where: str) -> Tuple[float, int]:
        """``(sum, count)`` of histogram ``name`` over matching series."""
        matching = self._series(name, where)
        return (sum(series["sum"] for series in matching),
                sum(series["count"] for series in matching))

    def mean_ms(self, name: str, **where: str) -> float:
        total, count = self.histogram(name, **where)
        return 1e3 * total / count if count else 0.0


def clear_registry() -> None:
    """Zero the process registry (before a set-up or a measured section).

    A service worker started by fork inherits the parent's registry and
    ships it back with its first result, so every pool start would
    otherwise double the parent's counters; after enough doublings the
    float totals lose the exactness the pinned counters need.  Clearing
    before each set-up makes that first shipment empty.
    """
    from repro.obs import get_registry

    get_registry().snapshot(reset=True)


def registry_delta() -> RegistryDelta:
    """Everything published since the last :func:`clear_registry`, and
    zero the registry again."""
    from repro.obs import get_registry

    return RegistryDelta(get_registry().snapshot(reset=True))


# ----------------------------------------------------------------------
# result comparison
# ----------------------------------------------------------------------

#: Every deterministic SimulationStatistics field (runtime is wall clock).
STATS_FIELDS = (
    "events_executed", "events_scheduled", "events_filtered",
    "late_events", "transitions_emitted", "source_transitions",
    "transitions_degraded", "transitions_fully_degraded", "net_toggles",
)


def result_mismatch(got, want, traces: bool = True) -> Optional[str]:
    """First difference between two SimulationResults, or None.

    Compares every statistics counter, the final values and, with
    ``traces``, every net's raw transitions (edge time, slew,
    direction, degradation factor, cause time).
    """
    for field in STATS_FIELDS:
        if getattr(got.stats, field) != getattr(want.stats, field):
            return "stats.%s %r != %r" % (
                field, getattr(got.stats, field), getattr(want.stats, field))
    if got.final_values != want.final_values:
        return "final values differ"
    if not traces:
        return None
    names = sorted(want.traces.names())
    if sorted(got.traces.names()) != names:
        return "traced net sets differ"
    for name in names:
        a, b = got.traces[name], want.traces[name]
        if a.initial_value != b.initial_value:
            return "net %s initial value differs" % name
        raw_a = [(t.t50, t.duration, t.rising, t.degradation_factor,
                  t.cause_time) for t in a.transitions]
        raw_b = [(t.t50, t.duration, t.rising, t.degradation_factor,
                  t.cause_time) for t in b.transitions]
        if raw_a != raw_b:
            return "net %s transitions differ" % name
    return None


def stable_seed(*parts: int) -> int:
    """A deterministic per-item seed derived from the workload seed."""
    digest = hashlib.sha256(json.dumps(list(parts)).encode()).digest()
    return int.from_bytes(digest[:6], "big")


def ensure_on_path(root: Path) -> None:
    for path in (str(root / "src"), str(root)):
        if path not in sys.path:
            sys.path.insert(0, path)
