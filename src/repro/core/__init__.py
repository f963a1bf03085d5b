"""The paper's contribution: the HALOTIS simulation kernel and the IDDM.

Public surface:

* :class:`repro.core.transition.Transition` — linear-ramp signal change,
* :class:`repro.core.events.Event` — a transition crossing one input's VT,
* :class:`repro.core.ddm.DegradationDelayModel` /
  :class:`repro.core.cdm.ConventionalDelayModel` — delay engines,
* :class:`repro.core.engine.HalotisSimulator` — the event kernel
  (paper Figure 4), plus the :func:`repro.core.engine.simulate`
  one-call convenience wrapper,
* :class:`repro.core.trace.TraceSet` — recorded waveforms,
* :class:`repro.core.stats.SimulationStatistics` — Table 1 counters,
* :func:`repro.core.batch.simulate_batch` — lower once, simulate many,
* :class:`repro.core.service.SimulationService` — persistent warm
  worker pool with shared-memory trace transport.
"""

from .transition import Transition
from .events import Event
from .event_queue import BinaryHeapQueue
from .delay_model import DelayModel, DelayRequest, DelayResult
from .ddm import DegradationDelayModel
from .cdm import ConventionalDelayModel
from .engine import (
    ENGINE_KINDS,
    EngineBase,
    HalotisSimulator,
    SimulationResult,
    make_engine,
    run_stimulus,
    simulate,
)
from .compiled import CompiledNetlist, CompiledSimulator
from .vector import VectorSimulator
from .bitparallel import BitParallelSimulator
from .batch import BatchResult, simulate_batch
from .service import BatchJob, SimulationService
from .trace import NetTrace, TraceSet
from .stats import SimulationStatistics

__all__ = [
    "Transition",
    "Event",
    "BinaryHeapQueue",
    "DelayModel",
    "DelayRequest",
    "DelayResult",
    "DegradationDelayModel",
    "ConventionalDelayModel",
    "ENGINE_KINDS",
    "EngineBase",
    "HalotisSimulator",
    "SimulationResult",
    "CompiledNetlist",
    "CompiledSimulator",
    "VectorSimulator",
    "BitParallelSimulator",
    "BatchResult",
    "BatchJob",
    "SimulationService",
    "make_engine",
    "run_stimulus",
    "simulate",
    "simulate_batch",
    "NetTrace",
    "TraceSet",
    "SimulationStatistics",
]
