"""The Multimedia Router: composition of all subsystems (paper Fig. 1).

:class:`MMRouter` wires together the virtual channel memories, the
credit-based flow control, the NICs on each input link, the admission /
setup machinery, the link scheduler and a switch-scheduling arbiter, and
exposes a single :meth:`step` implementing one flit cycle of the router
pipeline:

1. deliver credits whose return delay elapsed (single-phit control path);
2. link scheduling — each input link ranks its occupied VCs by biased
   priority and nominates ``candidate_levels`` candidates;
3. switch scheduling — the arbiter computes a conflict-free matching;
4. crossbar transfer — matched head flits forward synchronously, credits
   are returned toward the NICs;
5. link transfer — each NIC's link controller forwards at most one flit
   (demand-driven round-robin over connections with flits and credits)
   into the router's VC memory.

Scheduling (2-3) runs on the buffer state at the start of the cycle,
concurrently with the link transfer (5), mirroring the paper's "arbitration
is made concurrently with flit transmission".
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.candidates import CandidateBuffer
from ..core.link_scheduler import RESERVED_SCALE, LinkScheduler
from ..core.matching import Arbiter, Candidate
from ..core.priorities import PriorityScheme
from ..core.registry import make_arbiter, make_scheme
from .admission import AdmissionController
from .config import RouterConfig
from .connection import Connection, ConnectionTable, TrafficClass
from .credits import CreditState
from .crossbar import Crossbar, Departure
from .nic import NIC
from .routing import SetupResult, SetupUnit
from .vc_memory import VCMemory

__all__ = ["MMRouter"]


class MMRouter:
    """A single MMR with one NIC per input link (paper Fig. 4 testbed)."""

    def __init__(
        self,
        config: RouterConfig,
        arbiter: Arbiter | str = "coa",
        scheme: PriorityScheme | str = "siabp",
        fast_path: bool = True,
    ) -> None:
        self.config = config
        self.table = ConnectionTable(config)
        self.admission = AdmissionController(config)
        self.setup_unit = SetupUnit(config, self.table, self.admission)
        self.vc_memory = VCMemory(config)
        self.crossbar = Crossbar(config)
        self.credits = CreditState(config)
        self.nics = [NIC(config, p) for p in range(config.num_ports)]
        self.arbiter = (
            make_arbiter(arbiter, config) if isinstance(arbiter, str) else arbiter
        )
        self.scheme = make_scheme(scheme, config) if isinstance(scheme, str) else scheme
        #: True when the scheme keeps per-VC scheduler state (fair
        #: queueing): the router then feeds it the connection and
        #: service lifecycle (``on_setup``/``on_teardown``/``on_service``).
        self.scheme_stateful = bool(getattr(self.scheme, "stateful", False))
        if self.scheme_stateful:
            shape = getattr(self.scheme, "shape", None)
            if shape is not None and shape != (config.num_ports, config.vcs_per_link):
                raise ValueError(
                    f"stateful scheme {self.scheme.name!r} was built for "
                    f"shape {shape}, router is "
                    f"{(config.num_ports, config.vcs_per_link)}"
                )
        self.link_scheduler = LinkScheduler(config, self.scheme)
        n, v = config.num_ports, config.vcs_per_link
        # Per-VC connection attributes, kept as arrays for the vectorized
        # link scheduler.  slots == 0 / dest == -1 mark unassigned VCs.
        self._slots = np.zeros((n, v), dtype=np.int64)
        self._dest = np.full((n, v), -1, dtype=np.int64)
        self._conn_of_vc = np.full((n, v), -1, dtype=np.int64)
        # Priority tier: RESERVED_SCALE for CBR/VBR VCs, 1.0 for
        # best-effort — reserved traffic strictly outranks best-effort
        # at link scheduling (the MMR gives best-effort only leftover
        # bandwidth).  ``_reserved`` is its boolean twin for the buffer
        # path (the integer-exact ranking wants a mask, not a multiplier).
        self._tier = np.ones((n, v), dtype=np.float64)
        self._reserved = np.zeros((n, v), dtype=bool)
        # Bumped on every connection setup/teardown; lets the link
        # scheduler cache mirrors of the arrays above across cycles.
        self._conn_version = 0
        #: True routes scheduling through the preallocated candidate
        #: buffer (zero-allocation hot path); False keeps the object-based
        #: reference pipeline.  Both produce identical grants draw for
        #: draw — the differential tests pin it.
        self.fast_path = fast_path
        self._cand_buf = CandidateBuffer(n, config.candidate_levels)

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    def establish(
        self,
        in_port: int,
        out_port: int,
        traffic_class: TrafficClass,
        avg_slots: int,
        peak_slots: int | None = None,
    ) -> SetupResult:
        """PCS setup: probe, admission test, VC + bandwidth reservation."""
        result = self.setup_unit.request(
            in_port, out_port, traffic_class, avg_slots, peak_slots
        )
        if result.accepted:
            conn = result.connection
            assert conn is not None
            self._slots[conn.in_port, conn.vc] = conn.avg_slots
            self._dest[conn.in_port, conn.vc] = conn.out_port
            self._conn_of_vc[conn.in_port, conn.vc] = conn.conn_id
            self._tier[conn.in_port, conn.vc] = (
                RESERVED_SCALE if conn.is_reserved else 1.0
            )
            self._reserved[conn.in_port, conn.vc] = conn.is_reserved
            self._conn_version += 1
            if self.scheme_stateful:
                self.scheme.on_setup(
                    conn.in_port,
                    conn.vc,
                    conn.out_port,
                    conn.avg_slots,
                    conn.is_reserved,
                )
        return result

    def teardown(self, conn_id: int) -> Connection:
        """Release a connection (its VC buffers must have drained)."""
        conn = self.table.get(conn_id)
        if self.vc_memory.occupancy_of(conn.in_port, conn.vc) != 0:
            raise RuntimeError(
                f"cannot tear down connection {conn_id}: flits still "
                "buffered in its virtual channel"
            )
        self.setup_unit.teardown(conn_id)
        self._clear_vc_state(conn)
        return conn

    def force_teardown(
        self, conn_id: int, *, restore_credits: bool = True
    ) -> tuple[Connection, int]:
        """Tear a connection down even with flits still buffered.

        The fault-recovery path: a dead output link or an unrecoverable
        virtual channel means the buffered flits can never depart, so
        they are discarded and their buffer slots freed.  Returns the
        connection and the number of flits dropped.  ``restore_credits``
        returns the freed slots to the NIC-side credit pool (set it
        ``False`` for inter-router input ports, whose credits live on the
        upstream router).
        """
        conn = self.table.get(conn_id)
        dropped = self.vc_memory.occupancy_of(conn.in_port, conn.vc)
        for _ in range(dropped):
            self.vc_memory.pop(conn.in_port, conn.vc)
        if restore_credits and dropped:
            self.credits.restore(conn.in_port, conn.vc, dropped)
        self.setup_unit.teardown(conn_id)
        self._clear_vc_state(conn)
        return conn, dropped

    def renegotiate_peak(self, conn_id: int, new_peak_slots: int):
        """Renegotiate a VBR connection's peak reservation in place.

        Runs the admission test for the peak delta and, on acceptance,
        updates the ledgers and the connection table atomically.  The
        connection keeps its id, VC and average reservation; only the
        statistically-multiplexed peak share changes.  Returns the
        :class:`~repro.router.admission.AdmissionDecision`.
        """
        conn = self.table.get(conn_id)
        decision = self.admission.renegotiate_peak(conn, new_peak_slots)
        if decision:
            self.admission.commit_peak(conn, new_peak_slots)
            self.table.replace(
                conn_id, dataclasses.replace(conn, peak_slots=new_peak_slots)
            )
            # Peak does not feed the per-VC scheduling arrays, but bump
            # the version anyway: any cached mirror of connection state
            # must observe the change.
            self._conn_version += 1
        return decision

    def _clear_vc_state(self, conn: Connection) -> None:
        self._slots[conn.in_port, conn.vc] = 0
        self._dest[conn.in_port, conn.vc] = -1
        self._conn_of_vc[conn.in_port, conn.vc] = -1
        self._tier[conn.in_port, conn.vc] = 1.0
        self._reserved[conn.in_port, conn.vc] = False
        self._conn_version += 1
        if self.scheme_stateful:
            self.scheme.on_teardown(conn.in_port, conn.vc)

    def connection_at(self, in_port: int, vc: int) -> int:
        """conn_id occupying (port, vc), or -1."""
        return int(self._conn_of_vc[in_port, vc])

    # ------------------------------------------------------------------
    # One flit cycle
    # ------------------------------------------------------------------

    def step(self, now: int, rng: np.random.Generator) -> list[Departure]:
        """Advance the router by one flit cycle; return the departures."""
        self.credits.deliver(now)

        if self.fast_path:
            buf = self._link_schedule_into(now)
            grants = self.arbiter.match_buffer(buf, rng)
        else:
            candidates = self._link_schedule(now)
            grants = self.arbiter.match(candidates, rng)
        departures = self.crossbar.transfer(grants, self.vc_memory, now)
        if self.scheme_stateful and departures:
            self.notify_service(departures, now)
        for dep in departures:
            self.credits.schedule_return(dep.in_port, dep.vc, now)

        self._accept_from_nics(now)
        return departures

    def step_quiet(self, now: int) -> None:
        """One cycle with every VC buffer empty — :meth:`step` minus the
        provably grant-free scheduling work.

        With no VC occupied, link scheduling yields an empty candidate
        set and every arbiter returns an empty matching without drawing
        RNG; the only state the full pipeline would still move is the
        credit landings, the wrapped WFA's start diagonal (rotated one
        position per sweep whether or not candidates exist — mirrored by
        ``skip_idle_cycles(1)``), the crossbar cycle counter, and the
        NIC-to-VC transfers.  The event-skipping loops call this on
        busy-NIC/empty-VC cycles; callers must ensure
        ``vc_memory._occ_mask == 0`` or results diverge.
        """
        self.credits.deliver(now)
        self.arbiter.skip_idle_cycles(1)
        self.crossbar.cycles += 1
        self._accept_from_nics(now)

    def notify_service(self, departures: list[Departure], now: int) -> None:
        """Feed crossbar services to a stateful scheme.

        Every cycle loop that calls ``crossbar.transfer`` directly
        (fault harness, multi-router network, perf harness) must invoke
        this when ``scheme_stateful`` — the fair-queueing virtual clocks
        and deficit counters advance on actual service.
        """
        scheme = self.scheme
        for dep in departures:
            scheme.on_service(dep.in_port, dep.vc, dep.out_port, now)

    def _link_schedule(self, now: int) -> list[list[Candidate]]:
        """Object-path link scheduling: the ``fast_path=False`` reference
        that ``repro perf`` and the differential tests compare against."""
        heads = self.vc_memory.heads_all()
        return self.link_scheduler.select_batch(
            heads, self._slots, self._dest, now, self._tier
        )

    def _link_schedule_into(self, now: int) -> CandidateBuffer:
        """Buffer-path link scheduling into the preallocated buffer."""
        occ_mask, heads_q = self.vc_memory.occupancy_state()
        select = (
            self.link_scheduler.select_into_sparse
            if self.scheme.integer_valued
            else self.link_scheduler.select_into
        )
        return select(
            self._cand_buf,
            occ_mask,
            heads_q,
            self._slots,
            self._dest,
            now,
            self._reserved,
            state_version=self._conn_version,
        )

    def _accept_from_nics(self, now: int) -> None:
        credits = self.credits
        for port, nic in enumerate(self.nics):
            if not nic._mask:
                continue  # no backlog: select would find nothing
            vc = nic.select(credits.mask_for(port))
            if vc < 0:
                continue
            gen_cycle, frame_id, frame_last = nic.pop(vc)
            credits.consume(port, vc)
            self.vc_memory.push(port, vc, gen_cycle, frame_id, frame_last, now)

    # ------------------------------------------------------------------
    # Inspection / invariants
    # ------------------------------------------------------------------

    def is_idle(self) -> bool:
        """True when no flit is buffered in the router or any NIC.

        The event-skipping engine's idle predicate: when this holds, a
        :meth:`step` can move no flit and consult no RNG — the arbiters
        see empty candidate sets and return without drawing — so the
        cycle may be skipped analytically.  Credits still in flight do
        *not* block idleness: :meth:`CreditState.deliver` drains every
        land-cycle at or before ``now`` in sorted order, and a landed
        credit is unobservable until a NIC has a flit to forward.
        Both reads are O(1) on existing occupancy bitmasks.
        """
        if self.vc_memory._occ_mask:
            return False
        for nic in self.nics:
            if nic._mask:
                return False
        return True

    def buffered_flits(self) -> int:
        """Flits inside the router (excludes NIC backlogs)."""
        return self.vc_memory.total_flits()

    def nic_backlog(self) -> int:
        """Flits waiting in all NICs."""
        return sum(nic.backlog() for nic in self.nics)

    def nic_backlogs(self) -> list[int]:
        """Per-port NIC backlog, in port order (telemetry sampling)."""
        return [nic.backlog() for nic in self.nics]

    def check_flow_control_invariant(self) -> None:
        """credits + in-flight credits + occupancy == depth, per VC."""
        depth = self.config.vc_buffer_depth
        total_slots = self.config.num_ports * self.config.vcs_per_link * depth
        held = int(self.credits.counters.sum())
        in_flight = self.credits.in_flight
        occupied = self.vc_memory.total_flits()
        if held + in_flight + occupied != total_slots:
            raise AssertionError(
                "flow-control invariant violated: "
                f"credits({held}) + in_flight({in_flight}) + "
                f"buffered({occupied}) != slots({total_slots})"
            )
