"""Deterministic fault injector driven by the ``"faults"`` RNG role.

The injector owns every random draw of a robustness run.  Draws happen in
a fixed order at fixed decision points (per scheduled credit return, per
NIC forward attempt, once per cycle for stuck slots), so two runs with
the same seed and :class:`~repro.faults.FaultConfig` make bit-identical
decisions — the foundation of the reproducibility contract the
:class:`~repro.faults.FaultSchedule` asserts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..sim.metrics import FaultCounters
from . import integrity
from .degradation import DegradationPolicy
from .models import FaultConfig, FaultKind
from .schedule import FaultSchedule

if TYPE_CHECKING:
    from ..router.vc_memory import VCMemory

__all__ = ["FaultInjector"]

#: Credit-return fates returned by :meth:`FaultInjector.credit_fate`.
CREDIT_OK, CREDIT_LOST, CREDIT_DUP = "ok", "lost", "dup"


class FaultInjector:
    """Draws faults and records the injected events."""

    def __init__(
        self,
        config: FaultConfig,
        rng: np.random.Generator,
        schedule: FaultSchedule,
        counters: FaultCounters,
        degradation: DegradationPolicy,
    ) -> None:
        self.config = config
        self.rng = rng
        self.schedule = schedule
        self.counters = counters
        self.degradation = degradation
        #: (port, vc) -> cycle at which the stuck slot releases.
        self._stuck: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Credit-path faults
    # ------------------------------------------------------------------

    def credit_fate(self, now: int, port: int, vc: int) -> str:
        """Decide what happens to the credit a departure returns."""
        cfg = self.config
        if cfg.credit_loss_rate == 0 and cfg.credit_dup_rate == 0:
            return CREDIT_OK
        u = float(self.rng.random())
        where = f"port={port} vc={vc}"
        if u < cfg.credit_loss_rate:
            self.schedule.record(now, FaultKind.CREDIT_LOSS, where)
            self.counters.injected_credit_loss += 1
            self.degradation.note_fault(now)
            return CREDIT_LOST
        if u < cfg.credit_loss_rate + cfg.credit_dup_rate:
            self.schedule.record(now, FaultKind.CREDIT_DUP, where)
            self.counters.injected_credit_dup += 1
            self.degradation.note_fault(now)
            return CREDIT_DUP
        return CREDIT_OK

    # ------------------------------------------------------------------
    # Link corruption (CRC-detected)
    # ------------------------------------------------------------------

    def corrupts(
        self, now: int, port: int, vc: int, flit: tuple[int, int, bool]
    ) -> bool:
        """Decide whether the flit the NIC is forwarding is corrupted.

        When it is, the corruption is materialised (one bit of the flit's
        CRC codeword flips), verified to be CRC-detectable, and both the
        injection and the detection are recorded.  The caller then runs
        the NACK-and-retransmit recovery.
        """
        if self.config.corruption_rate == 0:
            return False
        if float(self.rng.random()) >= self.config.corruption_rate:
            return False
        gen_cycle, frame_id, frame_last = flit
        words = integrity.flit_words(port, vc, gen_cycle, frame_id, frame_last)
        crc = integrity.crc8(words)
        bit = int(self.rng.integers(len(words) * 64))
        damaged = integrity.corrupt_word(words, bit)
        where = f"port={port} vc={vc}"
        self.schedule.record(now, FaultKind.CORRUPT_FLIT, where, f"bit={bit}")
        self.counters.injected_corruption += 1
        self.degradation.note_fault(now)
        if integrity.verify(damaged, crc):  # pragma: no cover - CRC-8 HD>=2
            raise AssertionError("single-bit corruption escaped the CRC")
        self.schedule.record(now, FaultKind.CRC_MISMATCH, where)
        self.counters.crc_detected += 1
        return True

    # ------------------------------------------------------------------
    # Stuck VC buffer slots
    # ------------------------------------------------------------------

    def step_stuck(self, now: int, vc_memory: VCMemory) -> None:
        """Release expired stuck slots; maybe pin a new one this cycle."""
        for key in [k for k, until in self._stuck.items() if until <= now]:
            del self._stuck[key]
            self.schedule.record(
                now, FaultKind.SLOT_RELEASED, f"port={key[0]} vc={key[1]}"
            )
        cfg = self.config
        if cfg.stuck_slot_rate == 0:
            return
        if float(self.rng.random()) >= cfg.stuck_slot_rate:
            return
        port = int(self.rng.integers(vc_memory.config.num_ports))
        vc = int(self.rng.integers(vc_memory.config.vcs_per_link))
        if vc_memory.occupancy_of(port, vc) == 0 or (port, vc) in self._stuck:
            return  # nothing to pin; the draw is spent either way
        self._stuck[(port, vc)] = now + cfg.stuck_duration
        self.schedule.record(
            now,
            FaultKind.STUCK_SLOT,
            f"port={port} vc={vc}",
            f"duration={cfg.stuck_duration}",
        )
        self.counters.injected_stuck_slot += 1
        self.degradation.note_fault(now)

    def is_stuck(self, port: int, vc: int) -> bool:
        return (port, vc) in self._stuck

    @property
    def has_stuck(self) -> bool:
        """True while any slot is pinned (hot-path guard)."""
        return bool(self._stuck)

    @property
    def stuck_slots(self) -> set[tuple[int, int]]:
        return set(self._stuck)
