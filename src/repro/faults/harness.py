"""Fault-aware single-router simulation harness.

:class:`FaultySingleRouterSim` extends the healthy
:class:`~repro.sim.simulation.SingleRouterSim` cycle loop with the full
robustness stack:

* the :class:`~repro.faults.FaultInjector` perturbs credit returns, NIC
  link transfers and VC buffer slots, and can kill an output port
  mid-run;
* detection/recovery runs inline — CRC NACK-and-retransmit on the NIC
  link, :class:`~repro.router.credits.CreditWatchdog` resyncs (escalating
  to connection teardown + re-admission when retries are exhausted), and
  dead-port victims re-admitted on surviving output ports with their NIC
  backlog migrated to the new virtual channel;
* the :class:`~repro.faults.DegradationPolicy` sheds load in QoS order
  (best-effort first, then the VBR peak allowance; CBR untouched) by
  masking NIC eligibility, so already-buffered flits still drain and the
  router cannot livelock on shed traffic;
* the :class:`~repro.faults.SimWatchdog` asserts flit conservation and
  aborts livelocked runs with a router-state dump instead of hanging.

Determinism: all fault randomness comes from the dedicated ``"faults"``
RNG stream, drawn at fixed decision points, so the same seed + config
reproduces the exact :class:`~repro.faults.FaultSchedule` byte for byte
and the exact :class:`~repro.sim.simulation.SimResult`.
"""

from __future__ import annotations

import numpy as np

from ..core.matching import Arbiter
from ..core.priorities import PriorityScheme
from ..router.config import RouterConfig
from ..router.connection import Connection, TrafficClass
from ..router.credits import CreditWatchdog
from ..sessions.signaling import readmit_elsewhere
from ..sim.engine import RunControl
from ..sim.metrics import FaultCounters, MetricsCollector
from ..sim.simulation import (
    SimResult,
    SingleRouterSim,
    native_feeds,
    next_injection_cycle,
)
from ..traffic.mixes import Workload
from .degradation import (
    LEVEL_CLAMP_VBR_PEAK,
    LEVEL_SHED_BEST_EFFORT,
    DegradationPolicy,
)
from .injector import CREDIT_DUP, CREDIT_LOST, FaultInjector
from .models import FaultConfig, FaultKind
from .schedule import FaultSchedule
from .watchdog import SimWatchdog

__all__ = ["FaultySingleRouterSim"]


class FaultySingleRouterSim(SingleRouterSim):
    """Single-router testbed with fault injection, recovery and shedding."""

    def __init__(
        self,
        config: RouterConfig,
        arbiter: Arbiter | str = "coa",
        scheme: PriorityScheme | str = "siabp",
        seed: int = 0,
        faults: FaultConfig | None = None,
        skip_idle: bool = False,
    ) -> None:
        super().__init__(config, arbiter, scheme, seed, skip_idle=skip_idle)
        cfg = faults if faults is not None else FaultConfig()
        if cfg.dead_port is not None and cfg.dead_port >= config.num_ports:
            raise ValueError(
                f"dead_port {cfg.dead_port} out of range for "
                f"{config.num_ports} ports"
            )
        self.fault_config = cfg
        self.schedule = FaultSchedule()
        self.counters = FaultCounters()
        self.degradation = DegradationPolicy(cfg, self.schedule)
        self.injector = FaultInjector(
            cfg, self.rng.faults, self.schedule, self.counters, self.degradation
        )
        self.credit_watchdog = CreditWatchdog(
            self.router.credits,
            timeout=cfg.resync_timeout,
            max_retries=cfg.resync_max_retries,
            backoff=cfg.resync_backoff,
        )
        self.sim_watchdog = SimWatchdog(
            self.router, self.schedule, cfg.stall_limit, cfg.check_interval
        )
        self.router.credits.on_duplicate_discard = self._on_duplicate_discard
        #: Output port taken down by the structural fault, once active.
        self.dead_port: int | None = None
        # (port, original_vc) -> current vc after re-admission, or None
        # when the connection could not be re-admitted (flits dropped).
        self._redirect: dict[tuple[int, int], int | None] = {}
        # (port, current_vc) -> original workload vc (redirect bookkeeping
        # across repeated teardown/re-admission of the same connection).
        self._orig_of: dict[tuple[int, int], int] = {}
        n, v = config.num_ports, config.vcs_per_link
        # VBR peak clamp: per-round token buckets refilled to avg_slots.
        self._tokens = np.zeros((n, v), dtype=np.int64)
        self._be_bits = [0] * n
        self._vbr_bits = [0] * n
        self._vbr_vcs: list[list[int]] = [[] for _ in range(n)]
        # Flits discarded after entering a NIC (conservation accounting).
        self._conserved_drops = 0
        # Active telemetry session while run() is in flight (recovery
        # paths must tell it about re-admitted connections).
        self._telemetry = None
        # Active session engine while run(sessions=...) is in flight
        # (recovery paths notify it about torn-down connections).
        self._engine = None

    # ------------------------------------------------------------------
    # Cycle loop
    # ------------------------------------------------------------------

    def run(
        self, workload: Workload, control: RunControl, telemetry=None,
        sessions=None,
    ) -> SimResult:
        """Run the faulty cycle loop, optionally with a session engine.

        ``sessions`` hooks run at the same points the healthy
        ``_run_sessions`` loop places them; when the engine carries a
        control plane, its recovery controller is attached to the
        degradation policy for the duration of the run.
        """
        engine = sessions
        router = self.router
        config = self.config
        cfg = self.fault_config
        feeds = native_feeds(
            workload.build_feeds(control.cycles, self.rng.sources)
        )
        labels = workload.labels_by_conn()
        conn_of_vc = {
            (item.conn.in_port, item.conn.vc): item.conn.conn_id
            for item in workload.loads
        }
        metrics = MetricsCollector(
            config, labels, conn_of_vc, measure_from=control.warmup_cycles
        )
        self._telemetry = telemetry
        if telemetry is not None:
            telemetry.begin(router, workload, metrics, control)
            self.sim_watchdog.on_trip = telemetry.on_watchdog_trip
        eng_next = None
        if engine is not None:
            engine.begin(router, workload, metrics, control, telemetry=telemetry)
            self._engine = engine
            if engine.control_plane is not None:
                self.degradation.controller = engine.control_plane.recovery
            eng_next = getattr(engine, "next_event_cycle", None)
        arb_rng = self.rng.arbiter
        injector = self.injector
        credits = router.credits
        vc_memory = router.vc_memory
        scheme_stateful = router.scheme_stateful
        pointers = [0] * config.num_ports
        counters_reset = control.warmup_cycles == 0
        if counters_reset:
            router.crossbar.reset_counters()
        self._refresh_classes()
        round_cycles = config.round_cycles
        injected = 0
        departed = 0
        # Skipping is only safe when the fault config can never fire (no
        # per-opportunity draws, no dead port); any live fault machinery
        # disables it for the whole run.  Token-bucket refills at round
        # boundaries clamp the fast-forward target below.  A session
        # engine must expose its next-event times, and an attached
        # control plane keeps per-cycle recovery state on the
        # degradation policy, so it disables skipping outright.
        tel_next = (
            getattr(telemetry, "next_event_cycle", None)
            if telemetry is not None
            else None
        )
        skipping = (
            self.skip_idle
            and cfg.is_inert
            and (telemetry is None or tel_next is not None)
            and (
                engine is None
                or (engine.control_plane is None and eng_next is not None)
            )
        )
        end = control.cycles
        next_due = next_injection_cycle(feeds, pointers, end)

        now = 0
        while now < end:
            if not counters_reset and now >= control.warmup_cycles:
                router.crossbar.reset_counters()
                counters_reset = True
            if now % round_cycles == 0:
                # New bandwidth round: refill the VBR token buckets.
                np.copyto(self._tokens, router._slots)
                if engine is not None:
                    # Churn admits/releases connections between rounds:
                    # keep the shed masks in sync with the live table.
                    self._refresh_classes()
            if (
                cfg.dead_port is not None
                and self.dead_port is None
                and now >= cfg.dead_port_cycle
            ):
                self._activate_dead_port(now, metrics, labels)
            # 0. Session lifecycle (signaling, arrivals, drains).
            if engine is not None:
                engine.on_cycle(now)
            # 1. Source injection into the NICs (through the redirect map
            #    once recovery has moved connections to new VCs).
            if now >= next_due:
                injected += self._inject_faulty(feeds, pointers, now)
                next_due = next_injection_cycle(feeds, pointers, end)
            if engine is not None:
                injected += engine.inject(now)
            # 2. Buffer faults, credit landing, counter watchdog.
            injector.step_stuck(now, vc_memory)
            credits.deliver(now)
            for action, port, vc, delta in self.credit_watchdog.scan(
                now, vc_memory
            ):
                self._on_watchdog_event(
                    now, action, port, vc, delta, metrics, labels
                )
            # 3. Degradation level for this cycle's NIC eligibility.
            level = self.degradation.update(now)
            # 4. Link + switch scheduling (candidates through the dead
            #    port or a stuck slot dropped in place) and crossbar
            #    transfer; credit returns pass through the injector.
            buf = router._link_schedule_into(now)
            if self.dead_port is not None or injector.has_stuck:
                buf.retain(self._schedulable)
            grants = router.arbiter.match_buffer(buf, arb_rng)
            departures = router.crossbar.transfer(grants, vc_memory, now)
            if scheme_stateful and departures:
                router.notify_service(departures, now)
            for dep in departures:
                fate = injector.credit_fate(now, dep.in_port, dep.vc)
                if fate == CREDIT_LOST:
                    credits.fault_lose(dep.in_port, dep.vc)
                else:
                    credits.schedule_return(dep.in_port, dep.vc, now)
                    if fate == CREDIT_DUP:
                        credits.fault_duplicate(dep.in_port, dep.vc, now)
                metrics.record(dep, now)
            if engine is not None:
                engine.on_departures(now, departures)
            if departures:
                departed += len(departures)
                self.sim_watchdog.note_progress(now)
            if telemetry is not None:
                telemetry.on_cycle(now, departures)
            # 5. NIC link transfer under shedding + CRC check.
            self._accept_with_faults(now, level)
            # 6. Conservation / livelock sweep.
            self.sim_watchdog.check(now, injected, departed, self._conserved_drops)
            now += 1
            # 7. Idle fast-forward (see ``skipping``): jump to the next
            #    injection, signaling event, refill round or telemetry
            #    sample.
            if skipping and next_due > now and router.is_idle():
                target = next_due
                if eng_next is not None:
                    eng_cycle = eng_next(now)
                    if eng_cycle < target:
                        target = eng_cycle
                next_round = now + (-now % round_cycles)
                if next_round < target:
                    target = next_round
                if tel_next is not None:
                    tel_cycle = tel_next(now)
                    if tel_cycle < target:
                        target = tel_cycle
                if target > now:
                    counters_reset = self._fast_forward(
                        now, target, control, counters_reset
                    )
                    now = target

        if not counters_reset:
            router.crossbar.reset_counters()
        if engine is not None:
            engine.finish()
        result = self._summarize(workload, control, metrics)
        counters = self.counters
        counters.duplicates_discarded = credits.duplicates_discarded
        counters.credit_resyncs = credits.resyncs
        counters.degradation_escalations = self.degradation.escalations
        counters.max_degradation_level = self.degradation.max_level
        result.fault = counters.as_dict()
        result.degradation_level = self.degradation.max_level
        if engine is not None:
            self._engine = None
            self.degradation.controller = None
        if telemetry is not None:
            telemetry.finish(result)
            self._telemetry = None
        return result

    # ------------------------------------------------------------------
    # Scheduling and link-transfer hooks
    # ------------------------------------------------------------------

    def _inject_faulty(self, feeds, pointers, now: int) -> int:
        """Redirect-aware twin of :func:`~repro.sim.simulation.inject_due_flits`.

        One shared walk for both faulty cycle loops: feeds route through
        the recovery redirect map (connections re-admitted on new VCs, or
        dropped entirely).  Returns the number of flits actually
        deposited, feeding the watchdog's conservation ledger.
        """
        nics = self.router.nics
        redirect = self._redirect
        counters = self.counters
        injected = 0
        for port, feed in enumerate(feeds):
            ptr = pointers[port]
            cycles = feed.cycles
            end = len(cycles)
            if ptr >= end or cycles[ptr] > now:
                continue
            nic = nics[port]
            while ptr < end and cycles[ptr] <= now:
                vc: int | None = int(feed.vcs[ptr])
                if redirect:
                    vc = redirect.get((port, vc), vc)
                if vc is None:
                    # Connection was dropped: its source traffic has
                    # nowhere to go.
                    counters.flits_dropped += 1
                else:
                    nic.inject(
                        vc,
                        int(cycles[ptr]),
                        int(feed.frame_ids[ptr]),
                        bool(feed.frame_last[ptr]),
                    )
                    injected += 1
                ptr += 1
            pointers[port] = ptr
        return injected

    def _schedulable(self, in_port: int, vc: int, out_port: int) -> bool:
        """Eligibility under faults: not through the dead output port and
        not from a stuck buffer slot (the cycle loop's
        :meth:`CandidateBuffer.retain` predicate)."""
        return out_port != self.dead_port and not self.injector.is_stuck(
            in_port, vc
        )

    def _accept_with_faults(self, now: int, level: int) -> None:
        """NIC link transfer under degradation masking and CRC checking."""
        router = self.router
        credits = router.credits
        tokens = self._tokens
        for port, nic in enumerate(router.nics):
            eligible = credits.mask_for(port)
            if level >= LEVEL_SHED_BEST_EFFORT:
                eligible &= ~self._be_bits[port]
            if level >= LEVEL_CLAMP_VBR_PEAK and self._vbr_bits[port]:
                blocked = 0
                for vc in self._vbr_vcs[port]:
                    if tokens[port, vc] <= 0:
                        blocked |= 1 << vc
                eligible &= ~blocked
            vc = nic.select(eligible)
            if vc < 0:
                continue
            flit = nic.peek(vc)
            assert flit is not None
            if self.injector.corrupts(now, port, vc, flit):
                # CRC mismatch -> NACK: the flit stays at the head of its
                # NIC queue and is retransmitted (this link cycle is
                # wasted); no credit is consumed for the corrupt copy.
                self.counters.retransmissions += 1
                self.schedule.record(
                    now, FaultKind.RETRANSMIT, f"port={port} vc={vc}"
                )
                continue
            nic.pop(vc)
            credits.consume(port, vc)
            router.vc_memory.push(port, vc, flit[0], flit[1], flit[2], now)
            if (self._vbr_bits[port] >> vc) & 1:
                tokens[port, vc] -= 1

    # ------------------------------------------------------------------
    # Detection / recovery plumbing
    # ------------------------------------------------------------------

    def _on_duplicate_discard(self, port: int, vc: int, now: int) -> None:
        self.schedule.record(now, FaultKind.DUP_DISCARD, f"port={port} vc={vc}")

    def _on_watchdog_event(
        self,
        now: int,
        action: str,
        port: int,
        vc: int,
        delta: int,
        metrics: MetricsCollector,
        labels: dict[int, str],
    ) -> None:
        where = f"port={port} vc={vc}"
        if action == "surplus_resync":
            self.schedule.record(now, FaultKind.CREDIT_SURPLUS, where)
            self.schedule.record(
                now, FaultKind.CREDIT_RESYNC, where, f"delta={delta}"
            )
            return
        if action == "deficit_resync":
            self.schedule.record(now, FaultKind.CREDIT_DEFICIT, where)
            self.schedule.record(
                now, FaultKind.CREDIT_RESYNC, where, f"delta={delta}"
            )
            return
        # Give-up: bounded retries exhausted; escalate to teardown and
        # re-admission of whatever connection holds the sick VC.
        self.schedule.record(now, FaultKind.RESYNC_GIVEUP, where)
        self.counters.resync_giveups += 1
        conn = self.router.table.at_vc(port, vc)
        if conn is not None:
            self._teardown_and_readmit(
                now, conn, metrics, labels, reason="credit_giveup"
            )
            self._refresh_classes()

    def _activate_dead_port(
        self, now: int, metrics: MetricsCollector, labels: dict[int, str]
    ) -> None:
        """Structural fault: one output port dies for the rest of the run."""
        port = self.fault_config.dead_port
        assert port is not None
        victims = self.router.table.on_output(port)
        self.schedule.record(
            now,
            FaultKind.DEAD_PORT,
            f"out_port={port}",
            f"connections={len(victims)}",
        )
        self.counters.injected_dead_port += 1
        self.degradation.note_fault(now)
        self.dead_port = port
        if self._engine is not None:
            self._engine.on_dead_port(now, port)
        for conn in victims:
            self._teardown_and_readmit(now, conn, metrics, labels, "dead_port")
        self._refresh_classes()
        # A dead link is a standing capacity loss: keep best-effort shed
        # for as long as it persists (it never recovers in this model).
        self.degradation.set_floor(LEVEL_SHED_BEST_EFFORT, now)

    def _teardown_and_readmit(
        self,
        now: int,
        conn: Connection,
        metrics: MetricsCollector,
        labels: dict[int, str],
        reason: str,
    ) -> Connection | None:
        """Tear one connection down and try to re-admit it elsewhere.

        The NIC backlog migrates to the new virtual channel; router-buffered
        flits are unrecoverable (their slots may be corrupt or their path
        dead) and are dropped.  Returns the re-admitted connection, or
        ``None`` when no output port can accept the reservation.
        """
        router = self.router
        engine = self._engine
        # Session-engine connections track their own (port, vc) through
        # on_conn_recovered; the redirect map is for static feeds only.
        owned = engine is not None and engine.owns(conn.conn_id)
        port, vc = conn.in_port, conn.vc
        orig = self._orig_of.pop((port, vc), vc)
        backlog = router.nics[port].drain(vc)
        _, dropped = router.force_teardown(conn.conn_id, restore_credits=False)
        router.credits.reset_vc(port, vc)
        self.credit_watchdog.reset(port, vc)
        self._conserved_drops += dropped
        self.counters.flits_dropped += dropped
        self.counters.teardowns += 1
        self.schedule.record(
            now,
            FaultKind.TEARDOWN,
            f"port={port} vc={vc}",
            f"conn={conn.conn_id} reason={reason} dropped={dropped}",
        )
        # Re-admission goes through the shared signaling primitive — i.e.
        # through AdmissionController.check/commit inside establish —
        # never around it; the audit below proves the ledgers and the
        # connection table still agree after the whole recovery.
        result = readmit_elsewhere(router, conn, avoid_out_port=self.dead_port)
        if result.accepted:
            new = result.connection
            assert new is not None
            router.nics[port].requeue(new.vc, backlog)
            if owned:
                label = engine.label_of(conn.conn_id)
            else:
                self._redirect[(port, orig)] = new.vc
                self._orig_of[(port, new.vc)] = orig
                label = labels.get(conn.conn_id, "unlabelled")
            metrics.register_connection(port, new.vc, new.conn_id, label)
            if self._telemetry is not None:
                self._telemetry.register_connection(new, label)
            if new.traffic_class is TrafficClass.VBR:
                # Fresh token allotment for the remainder of this round.
                self._tokens[port, new.vc] = new.avg_slots
            self.counters.readmitted += 1
            self.schedule.record(
                now,
                FaultKind.READMIT,
                f"port={port} vc={new.vc}",
                f"conn={new.conn_id} out_port={new.out_port}",
            )
            router.admission.audit(router.table)
            if engine is not None:
                engine.on_conn_recovered(now, conn, new)
            return new
        # No surviving port can take the reservation: the connection is
        # lost, along with its migrated NIC backlog.
        if not owned:
            self._redirect[(port, orig)] = None
        self._conserved_drops += len(backlog)
        self.counters.flits_dropped += len(backlog)
        self.counters.connections_dropped += 1
        self.schedule.record(
            now,
            FaultKind.CONN_DROPPED,
            f"port={port} vc={vc}",
            f"conn={conn.conn_id} backlog={len(backlog)}",
        )
        router.admission.audit(router.table)
        if engine is not None:
            engine.on_conn_recovered(now, conn, None)
        return None

    def _refresh_classes(self) -> None:
        """Rebuild the per-port traffic-class masks from the live table."""
        n = self.config.num_ports
        self._be_bits = [0] * n
        self._vbr_bits = [0] * n
        self._vbr_vcs = [[] for _ in range(n)]
        for conn in self.router.table:
            if conn.traffic_class is TrafficClass.BEST_EFFORT:
                self._be_bits[conn.in_port] |= 1 << conn.vc
            elif conn.traffic_class is TrafficClass.VBR:
                self._vbr_bits[conn.in_port] |= 1 << conn.vc
                self._vbr_vcs[conn.in_port].append(conn.vc)
