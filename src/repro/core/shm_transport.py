"""Packed trace codec for the simulation service's result queue.

Every result a service worker produces travels back to the parent on
its result queue.  Pickling a :class:`~repro.core.engine.SimulationResult`
directly costs one Python object per transition of the per-net traces,
the dominant payload for large circuits.  This module flattens a
result's traces into packed fixed-width records

    ``(net_id, flags, t50, duration, degradation_factor, cause_time)``

(one 40-byte little-endian struct per transition), so a worker ships a
chunk's traces as one ``bytes`` block and the parent rebuilds them from
a view into that block.  The small remainder of a result (statistics
counters, final values, trace names/initial values) travels next to it
as plain metadata.  The module keeps its historical name; no shared
memory is involved.

The packing is *lossless*: every :class:`~repro.core.transition.Transition`
field survives bit-for-bit (floats cross as IEEE-754 doubles, ``None``
cause times as NaN), so service results are bit-identical to standalone
``simulate()`` runs — the parity suite in ``tests/core/test_service.py``
pins this for every engine and both delay modes.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, List, Tuple

from .engine import SimulationResult
from .stats import SimulationStatistics
from .trace import TraceSet
from .transition import Transition

#: One packed transition: net_id (int32), flags (int32, bit 0 = rising,
#: bit 1 = cause_time present), then t50 / duration / degradation_factor /
#: cause_time as float64.  NaN never occurs as a real cause time, so it is
#: a safe sentinel for ``cause_time=None``.
RECORD = struct.Struct("<ii4d")

_FLAG_RISING = 1
_FLAG_HAS_CAUSE = 2


def pack_result(result: SimulationResult) -> Tuple[bytes, Dict[str, object]]:
    """Flatten ``result`` into ``(payload, meta)``.

    ``payload`` is the packed transition-record block; ``meta`` is a
    small plain dict carrying everything else, meant to travel next to
    the payload over a pickling queue.
    ``result.simulator`` is not transported (engines are process-local).
    """
    traces = result.traces
    names: List[str] = traces.names()
    initial = [traces[name].initial_value for name in names]
    chunks: List[bytes] = []
    pack = RECORD.pack
    for net_id, name in enumerate(names):
        for t in traces[name].transitions:
            flags = _FLAG_RISING if t.rising else 0
            if t.cause_time is not None:
                flags |= _FLAG_HAS_CAUSE
                cause = t.cause_time
            else:
                cause = math.nan
            chunks.append(
                pack(net_id, flags, t.t50, t.duration,
                     t.degradation_factor, cause)
            )
    payload = b"".join(chunks)
    meta: Dict[str, object] = {
        "names": names,
        "initial": initial,
        "vdd": traces.vdd,
        "horizon": traces.horizon,
        "stats": result.stats,
        "final_values": result.final_values,
        "nbytes": len(payload),
    }
    return payload, meta


def unpack_result(meta: Dict[str, object], buffer) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`pack_result` output.

    ``buffer`` is any bytes-like object (typically a ``memoryview`` into
    a chunk's record block) starting with ``meta["nbytes"]`` bytes of
    packed records; anything past them is ignored.  Statistics and final values come straight from the
    metadata; traces are reconstructed in original name order with their
    transitions in original emission order.
    """
    names: List[str] = meta["names"]  # type: ignore[assignment]
    initial: List[int] = meta["initial"]  # type: ignore[assignment]
    stats: SimulationStatistics = meta["stats"]  # type: ignore[assignment]
    nbytes: int = meta["nbytes"]  # type: ignore[assignment]

    traces = TraceSet(meta["vdd"])  # type: ignore[arg-type]
    traces.horizon = meta["horizon"]  # type: ignore[assignment]
    transition_lists: List[List[Transition]] = []
    for name, value in zip(names, initial):
        transition_lists.append(traces.create(name, value).transitions)

    view = memoryview(buffer)[:nbytes]
    try:
        for net_id, flags, t50, duration, degradation, cause in (
            RECORD.iter_unpack(view)
        ):
            transition = Transition(
                t50=t50,
                duration=duration,
                rising=bool(flags & _FLAG_RISING),
                net_name=names[net_id],
                degradation_factor=degradation,
                cause_time=cause if flags & _FLAG_HAS_CAUSE else None,
            )
            transition_lists[net_id].append(transition)
    finally:
        view.release()

    return SimulationResult(
        traces=traces,
        stats=stats,
        final_values=meta["final_values"],  # type: ignore[arg-type]
        simulator=None,
    )
