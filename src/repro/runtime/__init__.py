"""Discrete-event runtime for compiled OIL programs.

* :mod:`repro.runtime.functions` -- registry of the coordinated functions,
* :mod:`repro.runtime.events` -- event queue with exact time (rational
  seconds or integer ticks of a :class:`~repro.util.rational.TimeBase`),
* :mod:`repro.runtime.tasks` -- data-driven runtime tasks and the expression
  evaluator for guards and assignments,
* :mod:`repro.runtime.sources` -- time-triggered sources and sinks with
  deadline-violation detection,
* :mod:`repro.runtime.trace` -- execution traces and measurements with
  configurable recording levels,
* :mod:`repro.runtime.simulator` -- instantiation of compiled programs on
  top of the pluggable scheduler engine (:mod:`repro.engine`).
"""

from repro.runtime.functions import FunctionRegistry, FunctionSpec, default_registry
from repro.runtime.events import Event, EventQueue
from repro.runtime.tasks import OilRuntimeError, RuntimeTask, evaluate_expression
from repro.runtime.sources import SinkDriver, SourceDriver
from repro.runtime.trace import (
    TRACE_LEVELS,
    DeadlineViolation,
    EndpointEvent,
    Firing,
    TraceRecorder,
)
from repro.runtime.simulator import ModeSchedule, SequentialInstance, Simulation

__all__ = [
    "TRACE_LEVELS",
    "FunctionRegistry",
    "FunctionSpec",
    "default_registry",
    "Event",
    "EventQueue",
    "OilRuntimeError",
    "RuntimeTask",
    "evaluate_expression",
    "SinkDriver",
    "SourceDriver",
    "DeadlineViolation",
    "EndpointEvent",
    "Firing",
    "TraceRecorder",
    "ModeSchedule",
    "SequentialInstance",
    "Simulation",
]
