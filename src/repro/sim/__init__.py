"""Discrete-event simulation substrate for the protocol stack.

The trace-driven experiments never need this package — they walk
routing tables directly.  The *protocol* implementations (Chord join /
stabilize, the §3.3 HIERAS join, churn experiments) run on this engine:
an event heap (:mod:`repro.sim.engine`), a message-delivery network
whose delays come from a latency model (:mod:`repro.sim.network`), and
a small node/process base class (:mod:`repro.sim.node`).
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.network import Message, SimNetwork
from repro.sim.node import SimNode

__all__ = ["Simulator", "EventHandle", "SimNetwork", "Message", "SimNode"]
