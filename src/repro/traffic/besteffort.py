"""Best-effort traffic: Poisson packet arrivals under virtual cut-through.

The MMR carries best-effort messages with no bandwidth reservation; they
fill whatever capacity the multimedia connections leave unused.  The
paper's evaluation concentrates on CBR/VBR, but the architecture (and the
extension benches here) mixes in best-effort background load, so this
source models the standard open-loop cluster workload: packets arrive as
a Poisson process and carry a geometrically distributed number of flits.

Packets are tracked like application frames (``frame_id`` per packet,
last flit marked) so packet delay can be measured the same way as frame
delay.
"""

from __future__ import annotations

import math

import numpy as np

from .base import InjectionSchedule, TrafficSource

__all__ = ["BestEffortSource"]


class BestEffortSource(TrafficSource):
    """Poisson packet source with geometric packet lengths.

    Parameters
    ----------
    load:
        Long-run average load in flits per cycle (fraction of a link).
    mean_packet_flits:
        Mean packet length; lengths are ``1 + Geometric``.
    """

    name = "best-effort"

    def __init__(self, load: float, mean_packet_flits: float = 8.0) -> None:
        if not (0 < load < 1):
            raise ValueError("load must be in (0, 1)")
        if not 1 <= mean_packet_flits < math.inf:
            raise ValueError("mean_packet_flits must be finite and >= 1")
        self.load = load
        self.mean_packet_flits = mean_packet_flits

    def mean_load(self) -> float:
        return self.load

    def schedule(self, horizon: int, rng: np.random.Generator) -> InjectionSchedule:
        if horizon <= 0:
            return InjectionSchedule.empty()
        mean_len = self.mean_packet_flits
        packet_rate = self.load / mean_len  # packets per cycle
        if packet_rate == 0.0 or 1.0 / packet_rate == math.inf:
            # A subnormal rate: the mean gap overflows, so no packet
            # could ever start inside the horizon.  Draw nothing.
            return InjectionSchedule.empty()
        expected_packets = max(1, int(horizon * packet_rate * 1.5) + 8)
        gaps = rng.exponential(1.0 / packet_rate, size=expected_packets)
        starts = np.cumsum(gaps)
        starts = starts[starts < horizon].astype(np.int64)
        if starts.size == 0:
            return InjectionSchedule.empty()
        if mean_len > 1:
            # numpy's geometric counts trials (support {1, 2, ...}) with
            # mean 1/p, so p = 1/mean gives exactly the requested mean.
            lengths = rng.geometric(p=1.0 / mean_len, size=starts.size)
        else:
            lengths = np.ones(starts.size, dtype=np.int64)
        cycles_parts: list[np.ndarray] = []
        frame_ids_parts: list[np.ndarray] = []
        last_parts: list[np.ndarray] = []
        cursor = 0  # one source emits at most one flit per cycle
        for pkt_id, (t0, length) in enumerate(zip(starts, lengths)):
            # Flits of one packet are generated back to back; a packet
            # arriving while the previous one is still being emitted
            # queues behind it (the source's own injection link is
            # serial).
            start = max(int(t0), cursor)
            times = start + np.arange(length, dtype=np.int64)
            cursor = start + int(length)
            cycles_parts.append(times)
            frame_ids_parts.append(np.full(length, pkt_id, dtype=np.int64))
            last = np.zeros(length, dtype=bool)
            last[-1] = True
            last_parts.append(last)
        cycles = np.concatenate(cycles_parts)
        frame_ids = np.concatenate(frame_ids_parts)
        frame_last = np.concatenate(last_parts)
        keep = cycles < horizon
        if not keep.all():
            cycles, frame_ids, frame_last = (
                cycles[keep],
                frame_ids[keep],
                frame_last[keep],
            )
        return InjectionSchedule(cycles, frame_ids, frame_last)
