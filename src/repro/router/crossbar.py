"""Multiplexed crossbar model.

The MMR crossbar has one port per *physical* link; virtual channels are
multiplexed onto the crossbar ports, which is why arbitration (link +
switch scheduling) must run every flit cycle.  Once the switch scheduler
has produced a conflict-free matching, all matched flits are forwarded
synchronously through the crossbar in one flit cycle (pipelined at the
phit level in hardware; atomic per flit cycle here).

The crossbar validates the matching it is handed — a conflicting matching
indicates an arbiter bug and raises — and keeps the utilization counters
behind the paper's Fig. 8.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import RouterConfig
from .vc_memory import VCMemory

__all__ = ["Departure", "Crossbar"]


class Departure(NamedTuple):
    """One flit forwarded through the crossbar this cycle.

    A named tuple rather than a frozen dataclass: one is built per
    forwarded flit, and tuple construction costs a fraction of the
    dataclass's per-field ``object.__setattr__``.
    """

    in_port: int
    vc: int
    out_port: int
    gen_cycle: int
    arrival_cycle: int
    frame_id: int
    frame_last: bool


class Crossbar:
    """Applies switch-scheduler matchings to the VC memory."""

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        n = config.num_ports
        #: Cycles the crossbar has been stepped.
        self.cycles = 0
        #: Total matched input/output pairs over all cycles.
        self.total_grants = 0
        # Per-port grant counters; plain lists because the hot path bumps
        # one scalar per grant (numpy scalar read-modify-write is ~an
        # order of magnitude slower).  Exposed as arrays via properties.
        self._output_grants = [0] * n
        self._input_grants = [0] * n

    def transfer(
        self,
        matching: list[tuple[int, int, int]],
        vc_memory: VCMemory,
        now: int,
    ) -> list[Departure]:
        """Forward every matched head flit through the crossbar.

        ``matching`` is a list of ``(in_port, vc, out_port)`` triples.  It
        must be conflict-free: each input port and each output port may
        appear at most once.  Returns the departures, in matching order.
        """
        # Ports used so far this cycle, as bitmasks: nothing to reset.
        in_used = 0
        out_used = 0
        departures: list[Departure] = []
        output_grants = self._output_grants
        input_grants = self._input_grants
        for in_port, vc, out_port in matching:
            if in_used >> in_port & 1:
                raise ValueError(
                    f"conflicting matching: input port {in_port} matched twice"
                )
            if out_used >> out_port & 1:
                raise ValueError(
                    f"conflicting matching: output port {out_port} matched twice"
                )
            in_used |= 1 << in_port
            out_used |= 1 << out_port
            gen, arrival, frame_id, frame_last = vc_memory.pop(in_port, vc)
            departures.append(
                Departure(in_port, vc, out_port, gen, arrival, frame_id, frame_last)
            )
            output_grants[out_port] += 1
            input_grants[in_port] += 1
        self.total_grants += len(departures)
        self.cycles += 1
        return departures

    @property
    def output_grants(self) -> np.ndarray:
        """Per-output grant counters (read-only snapshot)."""
        arr = np.array(self._output_grants, dtype=np.int64)
        arr.flags.writeable = False
        return arr

    @property
    def input_grants(self) -> np.ndarray:
        """Per-input grant counters (read-only snapshot)."""
        arr = np.array(self._input_grants, dtype=np.int64)
        arr.flags.writeable = False
        return arr

    @property
    def utilization(self) -> float:
        """Average fraction of crossbar ports busy per cycle (Fig. 8)."""
        if self.cycles == 0:
            return 0.0
        return self.total_grants / (self.cycles * self.config.num_ports)

    def reset_counters(self) -> None:
        """Zero the utilization counters (e.g. after warmup)."""
        self.cycles = 0
        self.total_grants = 0
        n = self.config.num_ports
        self._output_grants = [0] * n
        self._input_grants = [0] * n
