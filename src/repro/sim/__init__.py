"""Discrete-event simulation kernel for the DSMTX reproduction.

The kernel is deliberately small: an :class:`Environment` with a virtual
clock, generator-based :class:`Process` objects, and the three shared
resources (:class:`Resource`, :class:`Store`, :class:`Barrier`) the
cluster substrate is built from.
"""

from repro.sim.engine import PENDING, Environment, Event, Process, Timeout
from repro.sim.resources import Barrier, Resource, Store

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "PENDING",
    "Resource",
    "Store",
    "Barrier",
]
