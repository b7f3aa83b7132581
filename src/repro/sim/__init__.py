"""Discrete-event simulation engine used by the SSD substrate."""

from repro.sim.engine import Engine
from repro.sim.resources import FifoResource

__all__ = ["Engine", "FifoResource"]
