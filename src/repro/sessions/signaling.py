"""Session signaling: setup/teardown protocol and the lifecycle engine.

The MMR establishes connections with pipelined circuit switching — a
probe reserves, an ACK confirms — which takes time.  This module models
that control plane for *dynamic* sessions:

* an arriving session's setup completes ``setup_latency_cycles`` after
  arrival; only then is the CAC decision taken and (on admission) a VC
  allocated and the reservation committed, all against the live router
  state at the decision instant;
* a departing session first *drains* (injection has ended; its NIC queue
  and VC buffer must empty — the router refuses to tear down a VC with
  flits in flight), then its teardown completes
  ``teardown_latency_cycles`` later, releasing VC and reservation;
* a VBR session renegotiates its peak reservation at GOP boundaries via
  :meth:`~repro.router.router.MMRouter.renegotiate_peak`, again after a
  signaling delay; a rejected renegotiation keeps the old reservation
  (commit/rollback is atomic inside the admission controller).

:class:`SessionEngine` drives all of this from inside the simulation
loop via the same twin-loop pattern as telemetry: ``sim.run`` without
``sessions`` never touches any of it.  The engine consumes **no
randomness at run time** — the churn timeline is fully precomputed — so
the event log and every RNG fingerprint are byte-replayable.

:func:`readmit_elsewhere` is the shared re-admission primitive: the
fault-recovery path (``repro.faults``) routes its dead-port teardown +
re-admission through it (and through ``AdmissionController`` proper), so
the reservation ledgers and the connection table can never disagree —
``AdmissionController.audit`` asserts exactly that after every recovery.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from ..obs.qos import bounds_for
from ..router.config import RouterConfig
from ..router.connection import Connection
from ..router.router import MMRouter
from ..router.routing import SetupResult
from .churn import ChurnConfig, SessionSpec, generate_timeline
from .metrics import SessionEventLog, SessionStats
from .policies import CacPolicy, CacRequest, QosFeedback, make_policy

if TYPE_CHECKING:
    from ..control.config import ControlConfig, RetryPolicy
    from ..control.plane import ControlPlane

__all__ = [
    "SignalingConfig",
    "SessionsSpec",
    "SessionEngine",
    "readmit_elsewhere",
]


@dataclass(frozen=True)
class SignalingConfig:
    """Control-plane latencies, in flit cycles."""

    setup_latency_cycles: int = 4
    teardown_latency_cycles: int = 2
    reneg_latency_cycles: int = 2

    def __post_init__(self) -> None:
        if self.setup_latency_cycles < 1:
            raise ValueError("setup_latency_cycles must be >= 1")
        if self.teardown_latency_cycles < 1:
            raise ValueError("teardown_latency_cycles must be >= 1")
        if self.reneg_latency_cycles < 1:
            raise ValueError("reneg_latency_cycles must be >= 1")

    def to_dict(self) -> dict[str, int]:
        return {
            "setup_latency_cycles": self.setup_latency_cycles,
            "teardown_latency_cycles": self.teardown_latency_cycles,
            "reneg_latency_cycles": self.reneg_latency_cycles,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, int]) -> "SignalingConfig":
        return cls(**dict(data))


@dataclass(frozen=True)
class SessionsSpec:
    """Everything that defines a churn run besides the static point.

    Plain data (hashable, JSON round-trip) so campaign points can carry
    it and content-address the results.
    """

    churn: ChurnConfig = ChurnConfig()
    policy: str = "paper"
    signaling: SignalingConfig = SignalingConfig()
    #: Reservation-utilization sampling stride, cycles.
    sample_stride: int = 500
    #: Closed-loop control plane; ``None`` keeps pre-control behavior
    #: (and the spec hash) bit-identical.
    control: ControlConfig | None = None

    def __post_init__(self) -> None:
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "churn": self.churn.to_dict(),
            "policy": self.policy,
            "signaling": self.signaling.to_dict(),
            "sample_stride": self.sample_stride,
        }
        # Omitted when None so pre-control spec hashes stay warm.
        if self.control is not None:
            out["control"] = self.control.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SessionsSpec":
        control = data.get("control")
        if control is not None:
            from ..control.config import ControlConfig

            control = ControlConfig.from_dict(control)
        return cls(
            churn=ChurnConfig.from_dict(data["churn"]),
            policy=data.get("policy", "paper"),
            signaling=SignalingConfig.from_dict(data.get("signaling", {})),
            sample_stride=data.get("sample_stride", 500),
            control=control,
        )


# ----------------------------------------------------------------------
# Shared re-admission primitive (fault recovery + sessions)
# ----------------------------------------------------------------------


def readmit_elsewhere(
    router: MMRouter,
    conn: Connection,
    avoid_out_port: int | None = None,
) -> SetupResult:
    """Try to re-establish a torn-down connection, output by output.

    Probes output ports starting at the connection's original one and
    wrapping around (the deterministic search order the recovery tests
    pin), skipping ``avoid_out_port`` (a dead link).  Every attempt goes
    through ``MMRouter.establish`` — i.e. through the admission
    controller's check/commit — never around it.  Returns the first
    accepting :class:`SetupResult`, or the last rejection.
    """
    n = router.config.num_ports
    last: SetupResult | None = None
    for k in range(n):
        out_port = (conn.out_port + k) % n
        if out_port == avoid_out_port:
            continue
        result = router.establish(
            conn.in_port,
            out_port,
            conn.traffic_class,
            conn.avg_slots,
            conn.peak_slots,
        )
        if result.accepted:
            return result
        last = result
    if last is None:  # every port was the avoided one (n == 1)
        return SetupResult(False, None, "no eligible output port", 0)
    return last


# ----------------------------------------------------------------------
# The lifecycle engine
# ----------------------------------------------------------------------

_SETUP = 0
_STOP = 1
_TEARDOWN = 2
_RENEG = 3


def arm_injection(live, spec: SessionSpec, now: int) -> bool:
    """Start a session's injection cursor at admission instant ``now``.

    ``live`` is a session-state object with ``offset``/``ptr``/``due``/
    ``sched`` slots.  The schedule is copied to Python lists (a cursor
    walk then compares cached ints instead of allocating numpy scalars)
    and ``due`` caches the absolute cycle of the next flit.  Returns
    ``False`` for an empty schedule, which never injects.
    """
    live.offset = now
    if not len(spec.cycles):
        return False
    live.sched = (
        spec.cycles.tolist(), spec.frame_ids.tolist(), spec.frame_last.tolist()
    )
    live.due = live.sched[0][0] + now
    return True


def inject_due(injecting: list, now: int, target) -> int:
    """Deposit every flit due by ``now`` of every injecting session.

    Walks ``injecting`` in order, compacting away sessions whose schedule
    is exhausted; a session not yet due costs one int compare.
    ``target(live)`` names the ``(nic, vc)`` to deposit into, or ``None``
    to advance the cursor without depositing.  Returns the number of
    flits the cursors advanced over.
    """
    keep = 0
    advanced = 0
    for live in injecting:
        if live.due > now:
            injecting[keep] = live
            keep += 1
            continue
        cycles, frame_ids, frame_last = live.sched
        end = len(cycles)
        ptr = start = live.ptr
        off = live.offset
        dest = target(live)
        while ptr < end and cycles[ptr] + off <= now:
            if dest is not None:
                dest[0].inject(
                    dest[1], cycles[ptr] + off, frame_ids[ptr], frame_last[ptr]
                )
            ptr += 1
        advanced += ptr - start
        live.ptr = ptr
        if ptr < end:
            live.due = cycles[ptr] + off
            injecting[keep] = live
            keep += 1
        else:
            live.sched = None
    del injecting[keep:]
    return advanced


class _LiveSession:
    """Runtime state of one timeline session."""

    __slots__ = ("spec", "state", "conn", "offset", "ptr", "due", "sched", "attempts")

    def __init__(self, spec: SessionSpec) -> None:
        self.spec = spec
        self.state = "setup"
        self.conn: Connection | None = None
        #: Injection cursor (see arm_injection): admission instant,
        #: next schedule index, its absolute cycle, list schedule.
        self.offset = 0
        self.ptr = 0
        self.due = 0
        self.sched: tuple[list[int], list[int], list[bool]] | None = None
        #: Setup attempts that have timed out so far (control plane).
        self.attempts = 0


@dataclass
class SessionEngine:
    """Drives session lifecycles inside the simulation loop.

    One instance per run.  All decisions replay a precomputed timeline
    through a deterministic completion queue; the only inputs are the
    router's own state (admission ledgers, buffer occupancy) and the
    measured departures — no run-time randomness.
    """

    config: RouterConfig
    spec: SessionsSpec
    timeline: list[SessionSpec]
    policy: CacPolicy = field(init=False)
    stats: SessionStats = field(init=False)
    event_log: SessionEventLog = field(init=False)
    feedback: QosFeedback = field(init=False)

    def __post_init__(self) -> None:
        spec = self.spec
        self.control_plane: ControlPlane | None = None
        self._retry: RetryPolicy | None = None
        if spec.control is not None or spec.policy == "adaptive":
            # Importing the plane registers the "adaptive" policy.
            from ..control.plane import ControlFeedback, ControlPlane
        if spec.control is not None:
            self.control_plane = ControlPlane(self.config, spec.control)
            self._retry = spec.control.retry
            self.feedback = ControlFeedback(self.control_plane)
        else:
            self.feedback = QosFeedback()
        self.policy = make_policy(spec.policy)
        if spec.control is not None and hasattr(self.policy, "brake_cap"):
            self.policy.brake_cap = spec.control.brake_cap
        self.event_log = SessionEventLog()
        self.stats = SessionStats(
            policy=spec.policy, churn=spec.churn, cycles=0
        )
        self._router: MMRouter | None = None
        self._metrics = None
        self._telemetry = None
        self._next_arrival = 0
        self._seq = 0
        #: (cycle, seq, kind, live, extra) completion heap.
        self._pending: list[tuple[int, int, int, _LiveSession, int]] = []
        self._injecting: list[_LiveSession] = []
        self._draining: list[_LiveSession] = []
        self._deadline_of: dict[tuple[int, int], int] = {}
        self._live: list[_LiveSession] = [
            _LiveSession(s) for s in self.timeline
        ]
        #: Output port the fault harness reported dead (signaling fails).
        self.dead_out_port: int | None = None
        self._live_by_conn: dict[int, _LiveSession] = {}
        # Precomputed signaling draws (seed_signaling_draws).
        self._setup_loss = None
        self._setup_jitter = None
        self._reneg_loss = None
        self._reneg_jitter = None
        #: sid -> index of its first renegotiation message in the draws.
        self._reneg_base: dict[int, int] = {}
        #: message index -> timed-out attempts so far.
        self._reneg_tries: dict[int, int] = {}
        self._reneg_total = 0
        if self._retry is not None:
            total = 0
            for s in self.timeline:
                self._reneg_base[s.sid] = total
                total += len(s.reneg_plan)
            self._reneg_total = total

    @classmethod
    def from_spec(
        cls,
        config: RouterConfig,
        spec: SessionsSpec,
        horizon_cycles: int,
        rng,
    ) -> "SessionEngine":
        """Generate the churn timeline and wrap it in an engine."""
        timeline = generate_timeline(config, spec.churn, horizon_cycles, rng)
        engine = cls(config=config, spec=spec, timeline=timeline)
        if spec.control is not None:
            engine.seed_signaling_draws(rng)
        return engine

    def seed_signaling_draws(self, rng) -> None:
        """Precompute every signaling loss/jitter draw from ``rng``.

        One row per timeline session (indexed by ``sid``) for setups and
        one row per planned renegotiation message, each ``max_retries +
        1`` attempts wide — the cycle loop itself never draws, so retry
        schedules replay bit-identically.  Control-disabled runs skip
        this entirely and leave the stream untouched.
        """
        retry = self._retry
        cols = retry.max_retries + 1
        n = len(self.timeline)
        self._setup_loss = rng.random((n, cols)) < retry.loss_rate
        self._setup_jitter = rng.integers(
            0, retry.jitter_cycles + 1, size=(n, retry.max_retries)
        )
        total = self._reneg_total
        self._reneg_loss = rng.random((total, cols)) < retry.loss_rate
        self._reneg_jitter = rng.integers(
            0, retry.jitter_cycles + 1, size=(total, retry.max_retries)
        )

    # ------------------------------------------------------------------
    # Loop hooks (called by SingleRouterSim._run_sessions)
    # ------------------------------------------------------------------

    def begin(self, router: MMRouter, workload, metrics, control, telemetry=None):
        self._router = router
        self._metrics = metrics
        self._telemetry = telemetry
        self.stats.cycles = control.cycles
        # Deadlines for the *static* reserved connections too: the
        # measurement-based CAC should see violations of any admitted
        # guarantee, not only the dynamic ones.
        for item in workload.loads:
            self._track_deadline(item.conn)

    def _push(self, cycle: int, kind: int, live: _LiveSession, extra: int = 0):
        heapq.heappush(self._pending, (cycle, self._seq, kind, live, extra))
        self._seq += 1

    def _track_deadline(self, conn: Connection) -> None:
        deadline = bounds_for(conn, self.config).deadline_cycles
        if deadline is not None:
            self._deadline_of[(conn.in_port, conn.vc)] = deadline

    def on_cycle(self, now: int) -> None:
        """Process due signaling completions, arrivals and drains."""
        cp = self.control_plane
        if cp is not None and now % cp.cfg.estimator_stride == 0:
            cp.step(now, self._router)
        pending = self._pending
        while pending and pending[0][0] <= now:
            _cycle, _seq, kind, live, extra = heapq.heappop(pending)
            if kind == _SETUP:
                self._complete_setup(now, live)
            elif kind == _STOP:
                self._stop_injection(now, live)
            elif kind == _TEARDOWN:
                self._complete_teardown(now, live)
            else:
                self._complete_reneg(now, live, extra)
        timeline = self._live
        i = self._next_arrival
        sig = self.spec.signaling
        while i < len(timeline) and timeline[i].spec.arrival_cycle <= now:
            live = timeline[i]
            i += 1
            self.stats.note_offered(live.spec)
            self.event_log.record(
                now,
                "arrive",
                live.spec.sid,
                f"class={live.spec.cls_name} port={live.spec.in_port}"
                f"->{live.spec.out_port} hold={live.spec.hold_cycles}",
            )
            self._push(now + sig.setup_latency_cycles, _SETUP, live)
        self._next_arrival = i
        if self._draining:
            self._poll_drains(now)
        if now % self.spec.sample_stride == 0:
            self._sample_utilization(now)

    def inject(self, now: int) -> int:
        """Deposit every due flit of every active session into its NIC.

        Returns the number of flits deposited, so the fault harness can
        keep its exact conservation check (the healthy loop ignores it).
        """
        nics = self._router.nics
        return inject_due(
            self._injecting,
            now,
            lambda live: (nics[live.spec.in_port], live.conn.vc),
        )

    def next_event_cycle(self, now: int) -> int:
        """Earliest cycle >= ``now`` where :meth:`on_cycle` or
        :meth:`inject` does any work.

        The event-skipping engine clamps its fast-forward target here so
        no signaling completion, arrival, dynamic-session flit, drain
        poll, utilization sample or control-plane estimator step is ever
        skipped.  Drains poll router occupancy every cycle, so a
        non-empty drain list pins the engine to the next cycle.
        """
        if self._draining:
            return now
        spec = self.spec
        nxt = now + (-now % spec.sample_stride)
        cp = self.control_plane
        if cp is not None:
            c = now + (-now % cp.cfg.estimator_stride)
            if c < nxt:
                nxt = c
        pending = self._pending
        if pending:
            c = pending[0][0]
            if c < nxt:
                nxt = c
        timeline = self._live
        i = self._next_arrival
        if i < len(timeline):
            c = timeline[i].spec.arrival_cycle
            if c < nxt:
                nxt = c
        for live in self._injecting:
            if live.due < nxt:
                nxt = live.due
        return nxt if nxt > now else now

    def on_departures(self, now: int, departures) -> None:
        """Feed measured deadline violations to the CAC feedback window."""
        deadlines = self._deadline_of
        if not deadlines:
            return
        for dep in departures:
            deadline = deadlines.get((dep.in_port, dep.vc))
            if deadline is not None and now - dep.gen_cycle > deadline:
                self.feedback.note(now)

    def finish(self) -> None:
        """Close out the run: count survivors, audit the ledgers."""
        self.stats.expired_active = sum(
            1
            for live in self._live
            if live.state in ("active", "draining", "closing", "setup")
            and live.spec.arrival_cycle < self.stats.cycles
        )
        router = self._router
        if router is not None:
            router.admission.audit(router.table)

    def to_payload(self) -> dict[str, Any]:
        return self.stats.to_payload(self.event_log)

    def control_payload(self) -> dict[str, Any]:
        """Strict-JSON payload for the campaign ``control`` channel."""
        payload = self.control_plane.to_payload()
        s = self.stats
        payload["signaling"] = {
            "setup_timeouts": s.setup_timeouts,
            "setup_retries": s.setup_retries,
            "reneg_timeouts": s.reneg_timeouts,
            "reneg_retries": s.reneg_retries,
            "reneg_giveups": s.reneg_giveups,
            "readmitted_alt": s.readmitted_alt,
            "blocked_timeout": s.blocked_timeout,
            "dropped": s.dropped,
        }
        return payload

    # ------------------------------------------------------------------
    # Completion handlers
    # ------------------------------------------------------------------

    def _complete_setup(self, now: int, live: _LiveSession) -> None:
        spec = live.spec
        router = self._router
        if self._retry is not None:
            cause = self._setup_obstruction(live)
            if cause is not None:
                self._signaling_timeout(now, live, cause)
                return
        request = CacRequest(
            in_port=spec.in_port,
            out_port=spec.out_port,
            traffic_class=spec.traffic_class,
            avg_slots=spec.avg_slots,
            peak_slots=spec.peak_slots,
        )
        decision = self.policy.decide(
            request, router.admission, self.feedback, now
        )
        if decision:
            result = router.establish(
                spec.in_port,
                spec.out_port,
                spec.traffic_class,
                spec.avg_slots,
                spec.peak_slots,
            )
        else:
            result = None
        if result is None or not result.accepted:
            reason = decision.reason if result is None else result.reason
            live.state = "blocked"
            self.stats.note_blocked(spec)
            self.event_log.record(
                now, "block", spec.sid, f"class={spec.cls_name} reason={reason}"
            )
            return
        self._admit(now, live, result.connection)

    def _admit(
        self, now: int, live: _LiveSession, conn: Connection, alt: bool = False
    ) -> None:
        spec = live.spec
        live.state = "active"
        live.conn = conn
        self._live_by_conn[conn.conn_id] = live
        self.stats.note_admitted(spec)
        detail = (
            f"class={spec.cls_name} conn={conn.conn_id} vc={conn.vc} "
            f"avg={conn.avg_slots} peak={conn.peak_slots}"
        )
        if alt:
            detail += f" alt_out={conn.out_port}"
        self.event_log.record(now, "admit", spec.sid, detail)
        self._metrics.register_connection(
            conn.in_port, conn.vc, conn.conn_id, spec.cls_name
        )
        if self._telemetry is not None:
            self._telemetry.register_connection(conn, spec.cls_name)
        self._track_deadline(conn)
        if arm_injection(live, spec, now):
            self._injecting.append(live)
        sig = self.spec.signaling
        self._push(now + spec.hold_cycles, _STOP, live)
        if self._retry is None:
            for rel_cycle, new_peak in spec.reneg_plan:
                self._push(
                    now + rel_cycle + sig.reneg_latency_cycles,
                    _RENEG,
                    live,
                    new_peak,
                )
        else:
            # With retries in play, a renegotiation completion carries
            # its *message index* (into the precomputed draws); the new
            # peak is recovered from the plan at delivery time.
            base = self._reneg_base[spec.sid]
            for j, (rel_cycle, _new_peak) in enumerate(spec.reneg_plan):
                self._push(
                    now + rel_cycle + sig.reneg_latency_cycles,
                    _RENEG,
                    live,
                    base + j,
                )

    # ------------------------------------------------------------------
    # Signaling robustness (control plane only)
    # ------------------------------------------------------------------

    def _setup_obstruction(self, live: _LiveSession) -> str | None:
        """Why this setup attempt will time out, or ``None`` if it lands."""
        spec = live.spec
        if self.dead_out_port is not None and spec.out_port == self.dead_out_port:
            return "dead-port"
        # Draws are absent when the engine was built without from_spec;
        # such engines model a lossless signaling network.
        if self._setup_loss is not None and self._setup_loss[spec.sid, live.attempts]:
            return "loss"
        return None

    def _signaling_timeout(self, now: int, live: _LiveSession, cause: str) -> None:
        retry = self._retry
        spec = live.spec
        failed = live.attempts  # 0-based index of the attempt that failed
        live.attempts += 1
        self.stats.setup_timeouts += 1
        self.event_log.record(
            now,
            "setup-timeout",
            spec.sid,
            f"attempt={failed + 1} timeout={retry.timeout_cycles} cause={cause}",
        )
        if live.attempts > retry.max_retries:
            self._give_up_setup(now, live, cause)
            return
        backoff = retry.backoff_cycles(live.attempts)
        if self._setup_jitter is not None:
            backoff += int(self._setup_jitter[spec.sid, live.attempts - 1])
        self.stats.setup_retries += 1
        self.event_log.record(
            now,
            "retry",
            spec.sid,
            f"attempt={live.attempts + 1} backoff={backoff}",
        )
        self._push(now + retry.timeout_cycles + backoff, _SETUP, live)

    def _give_up_setup(self, now: int, live: _LiveSession, cause: str) -> None:
        spec = live.spec
        if cause == "dead-port" and self._admit_elsewhere(now, live):
            return
        live.state = "blocked"
        self.stats.note_blocked_timeout(spec)
        self.event_log.record(
            now,
            "block-timeout",
            spec.sid,
            f"class={spec.cls_name} cause={cause} attempts={live.attempts}",
        )

    def _admit_elsewhere(self, now: int, live: _LiveSession) -> bool:
        """Crank a dead-port setup back through :func:`readmit_elsewhere`."""
        result = readmit_elsewhere(
            self._router, live.spec, avoid_out_port=self.dead_out_port
        )
        if not result.accepted:
            return False
        self.stats.readmitted_alt += 1
        self._admit(now, live, result.connection, alt=True)
        return True

    # ------------------------------------------------------------------
    # Fault-harness notifications
    # ------------------------------------------------------------------

    def owns(self, conn_id: int) -> bool:
        """True when ``conn_id`` belongs to a live dynamic session."""
        return conn_id in self._live_by_conn

    def label_of(self, conn_id: int) -> str:
        live = self._live_by_conn.get(conn_id)
        return live.spec.cls_name if live is not None else "unlabelled"

    def on_dead_port(self, now: int, port: int) -> None:
        """The fault harness just killed output ``port``."""
        self.dead_out_port = port

    def on_conn_recovered(
        self, now: int, old_conn: Connection, new_conn: Connection | None
    ) -> None:
        """A fault tore ``old_conn`` down (and maybe re-admitted it)."""
        self._deadline_of.pop((old_conn.in_port, old_conn.vc), None)
        if new_conn is not None:
            self._track_deadline(new_conn)
        live = self._live_by_conn.pop(old_conn.conn_id, None)
        if live is None:
            return  # a static (workload) connection, not one of ours
        if new_conn is None:
            live.state = "dropped"
            live.conn = None
            self.stats.note_dropped(live.spec)
            self.event_log.record(
                now, "conn-dropped", live.spec.sid, f"conn={old_conn.conn_id}"
            )
            if live in self._injecting:
                self._injecting.remove(live)
            if live in self._draining:
                self._draining.remove(live)
            return
        live.conn = new_conn
        self._live_by_conn[new_conn.conn_id] = live
        self.event_log.record(
            now,
            "conn-migrated",
            live.spec.sid,
            f"conn={old_conn.conn_id}->{new_conn.conn_id} vc={new_conn.vc} "
            f"out={new_conn.out_port}",
        )

    def _stop_injection(self, now: int, live: _LiveSession) -> None:
        if live.state != "active":
            return  # dropped by a fault before its natural departure
        # The schedule spans [0, hold), so every flit has been deposited;
        # the session now drains whatever is still queued or buffered.
        live.state = "draining"
        self.event_log.record(
            now, "depart", live.spec.sid, f"conn={live.conn.conn_id}"
        )
        self._draining.append(live)

    def _poll_drains(self, now: int) -> None:
        router = self._router
        sig = self.spec.signaling
        keep = []
        for live in self._draining:
            conn = live.conn
            if (
                router.nics[conn.in_port].queue_length(conn.vc) == 0
                and router.vc_memory.occupancy_of(conn.in_port, conn.vc) == 0
            ):
                live.state = "closing"
                self._push(now + sig.teardown_latency_cycles, _TEARDOWN, live)
            else:
                keep.append(live)
        self._draining = keep

    def _complete_teardown(self, now: int, live: _LiveSession) -> None:
        if live.state != "closing":
            return  # a fault tore the connection down while we waited
        conn = live.conn
        self._router.teardown(conn.conn_id)
        self._deadline_of.pop((conn.in_port, conn.vc), None)
        self._live_by_conn.pop(conn.conn_id, None)
        live.state = "closed"
        self.stats.note_released(live.spec)
        self.event_log.record(
            now, "release", live.spec.sid, f"conn={conn.conn_id} vc={conn.vc}"
        )

    def _complete_reneg(self, now: int, live: _LiveSession, extra: int) -> None:
        if live.state != "active":
            return  # departed (or never admitted) before the ACK came back
        if self._retry is None:
            self._do_reneg(now, live, extra)
            return
        retry = self._retry
        midx = extra  # message index into the precomputed draws
        tries = self._reneg_tries.get(midx, 0)
        if self._reneg_loss is not None and self._reneg_loss[midx, tries]:
            tries += 1
            self._reneg_tries[midx] = tries
            self.stats.reneg_timeouts += 1
            self.event_log.record(
                now,
                "reneg-timeout",
                live.spec.sid,
                f"conn={live.conn.conn_id} attempt={tries}",
            )
            if tries > retry.max_retries:
                self.stats.reneg_giveups += 1
                self.event_log.record(
                    now,
                    "reneg-giveup",
                    live.spec.sid,
                    f"conn={live.conn.conn_id} attempts={tries}",
                )
                return  # keep the old peak reservation
            backoff = retry.backoff_cycles(tries) + int(
                self._reneg_jitter[midx, tries - 1]
            )
            self.stats.reneg_retries += 1
            self._push(now + retry.timeout_cycles + backoff, _RENEG, live, midx)
            return
        new_peak = live.spec.reneg_plan[midx - self._reneg_base[live.spec.sid]][1]
        self._do_reneg(now, live, new_peak)

    def _do_reneg(self, now: int, live: _LiveSession, new_peak: int) -> None:
        conn = live.conn
        old_peak = conn.peak_slots
        decision = self._router.renegotiate_peak(conn.conn_id, new_peak)
        if decision:
            live.conn = self._router.table.get(conn.conn_id)
            self.stats.reneg_ok += 1
            self.event_log.record(
                now,
                "renegotiate",
                live.spec.sid,
                f"conn={conn.conn_id} peak={old_peak}->{new_peak}",
            )
        else:
            self.stats.reneg_rejected += 1
            self.event_log.record(
                now,
                "reneg-reject",
                live.spec.sid,
                f"conn={conn.conn_id} peak={old_peak}->{new_peak}",
            )

    # ------------------------------------------------------------------

    def _sample_utilization(self, now: int) -> None:
        admission = self._router.admission
        n = self.config.num_ports
        in_frac = sum(admission.reserved_avg_load(p) for p in range(n)) / n
        out_frac = sum(admission.reserved_avg_load_out(p) for p in range(n)) / n
        self.stats.sample_utilization(now, in_frac, out_frac)
