"""Core models: system wiring, CPU timing, adaptive controller, simulators."""

from .adaptive import AdaptiveXPTPController
from .cpu import Core, THREAD_TAG_SHIFT
from .multicore import simulate_multicore
from .simulator import (
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
    SimulationResult,
    simulate,
    simulate_smt,
)
from .system import System

__all__ = [
    "AdaptiveXPTPController",
    "Core",
    "DEFAULT_MEASURE",
    "simulate_multicore",
    "DEFAULT_WARMUP",
    "SimulationResult",
    "System",
    "THREAD_TAG_SHIFT",
    "simulate",
    "simulate_smt",
]
