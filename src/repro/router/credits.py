"""Credit-based flow control between the NICs and the router.

The MMR avoids flit loss with per-connection credit flow control: the NIC
may only forward a flit to the router when the corresponding virtual
channel has free buffer space, which the NIC learns through credits
returned when flits leave the router through the crossbar.  Credits travel
in a single phit, so their return latency is a small constant number of
flit cycles (links are short in a cluster).

:class:`CreditState` tracks the NIC-side credit counters for every
(input port, VC) pair plus the in-flight credit returns.  It also carries
the *fault ledger* used by the robustness harness (:mod:`repro.faults`):
single-phit credit returns are the most fragile control path in the
router, so the fault models can destroy or duplicate them, and
:class:`CreditWatchdog` implements the detection/recovery side — counter
resynchronisation with bounded retries and exponential backoff instead of
a hard failure.
"""

from __future__ import annotations

import numpy as np

from .config import RouterConfig
from .vc_memory import VCMemory

__all__ = ["CreditState", "CreditWatchdog"]


class CreditState:
    """NIC-side credit counters with delayed credit return.

    Invariant (checked by tests and :meth:`check_conservation`): for every
    (port, vc),

    ``credits + in_flight - extra_flight - extra_landed + occupancy + lost
    == vc_buffer_depth``

    where ``lost`` counts credits destroyed by fault injection and not
    yet resynchronised, ``extra_flight`` counts injected duplicate
    credits still on the wire, and ``extra_landed`` counts duplicates
    that already landed and inflate the counter (they are removed by the
    watchdog resync, or cancel against a later overflowing landing).  In
    a healthy run all fault terms are zero and the invariant reduces to
    ``credits + in_flight + occupancy == depth``.
    """

    def __init__(self, config: RouterConfig) -> None:
        n, v = config.num_ports, config.vcs_per_link
        depth = config.vc_buffer_depth
        # All per-(port, vc) ledgers are plain nested lists: every hot
        # operation (consume / schedule_return / deliver) touches single
        # cells, where Python list indexing beats numpy scalar indexing
        # severalfold.  Vectorized consumers (expected,
        # check_conservation, counters) materialize arrays on demand.
        self._credits = [[depth] * v for _ in range(n)]
        self._delay = config.credit_return_delay
        self._depth = depth
        # cycle -> list of (port, vc) credits that land on that cycle
        self._pending: dict[int, list[tuple[int, int]]] = {}
        self._in_flight = 0
        # Per-(port, vc) in-flight returns (watchdog + conservation ledger).
        self._in_flight_pv = [[0] * v for _ in range(n)]
        # Fault ledger, per VC: credits destroyed in flight; duplicates
        # still on the wire; duplicates landed into the counter.
        self._lost_pv = [[0] * v for _ in range(n)]
        self._extra_flight_pv = [[0] * v for _ in range(n)]
        self._extra_landed_pv = [[0] * v for _ in range(n)]
        #: Credits destroyed by fault injection (lifetime total).
        self.lost_total = 0
        #: Duplicate credits injected (lifetime total).
        self.duplicated_total = 0
        #: Duplicate credits detected and discarded at landing.
        self.duplicates_discarded = 0
        #: Counter resynchronisations performed (see :meth:`resync`).
        self.resyncs = 0
        #: Optional hook called as ``(port, vc, now)`` when a duplicate
        #: credit is discarded at landing (fault-event logging).
        self.on_duplicate_discard = None
        # Per-port bitmask of VCs with credits > 0 (hot-path view: lets
        # the NIC link controller test eligibility without numpy calls).
        self._mask = [(1 << v) - 1 for _ in range(n)]

    @property
    def counters(self) -> np.ndarray:
        """(ports, vcs) credit counters (read-only, built on demand)."""
        arr = np.array(self._credits, dtype=np.int64)
        arr.flags.writeable = False
        return arr

    def counters_for(self, port: int) -> np.ndarray:
        """Read-only snapshot of one port's credit row."""
        arr = np.array(self._credits[port], dtype=np.int64)
        arr.flags.writeable = False
        return arr

    def available(self, port: int, vc: int) -> int:
        return self._credits[port][vc]

    @property
    def in_flight(self) -> int:
        """Credits currently travelling back to the NICs."""
        return self._in_flight

    def in_flight_for(self, port: int, vc: int) -> int:
        """Credits of one (port, vc) currently travelling back."""
        return self._in_flight_pv[port][vc]

    def mask_for(self, port: int) -> int:
        """Bitmask of this port's VCs holding at least one credit."""
        return self._mask[port]

    def consume(self, port: int, vc: int) -> None:
        """NIC forwards a flit: spend one credit."""
        remaining = self._credits[port][vc] - 1
        if remaining < 0:
            raise RuntimeError(
                f"credit underflow at port {port} vc {vc}: the NIC link "
                "controller must not forward without a credit"
            )
        self._credits[port][vc] = remaining
        if remaining == 0:
            self._mask[port] &= ~(1 << vc)

    def schedule_return(self, port: int, vc: int, now: int) -> None:
        """A flit left the router: send a credit back to the NIC."""
        land = now + self._delay
        self._pending.setdefault(land, []).append((port, vc))
        self._in_flight += 1
        self._in_flight_pv[port][vc] += 1

    def deliver(self, now: int) -> None:
        """Land all credits whose return delay has elapsed.

        Call once per cycle *before* the NIC link controllers run, so a
        credit sent ``credit_return_delay`` cycles ago is usable this
        cycle.  Land-cycles at or before ``now`` are all drained, so a
        skipped cycle can never strand in-flight credits and deadlock a
        virtual channel.
        """
        if not self._pending:
            return
        due = [cycle for cycle in self._pending if cycle <= now]
        if not due:
            return
        due.sort()
        for cycle in due:
            landed = self._pending.pop(cycle)
            for port, vc in landed:
                self._in_flight_pv[port][vc] -= 1
                new = self._credits[port][vc] + 1
                if new > self._depth:
                    # A credit beyond the buffer depth can only be an
                    # injected duplicate (still flying, or one that
                    # landed earlier and inflated the counter); anything
                    # else is a real flow-control bug and must stay fatal.
                    if self._extra_flight_pv[port][vc] > 0:
                        self._extra_flight_pv[port][vc] -= 1
                    elif self._extra_landed_pv[port][vc] > 0:
                        self._extra_landed_pv[port][vc] -= 1
                    else:
                        raise RuntimeError(
                            f"credit overflow at port {port} vc {vc}: more "
                            "credits returned than buffer slots exist"
                        )
                    self.duplicates_discarded += 1
                    if self.on_duplicate_discard is not None:
                        self.on_duplicate_discard(port, vc, now)
                    continue
                if self._extra_flight_pv[port][vc] > 0:
                    # One of this VC's pending credits is a duplicate;
                    # whichever physical credit this one is, the counter
                    # is now inflated by it (repaired by the watchdog's
                    # surplus resync before the NIC can overfill).
                    self._extra_flight_pv[port][vc] -= 1
                    self._extra_landed_pv[port][vc] += 1
                self._credits[port][vc] = new
                if new == 1:
                    self._mask[port] |= 1 << vc
            self._in_flight -= len(landed)

    # ------------------------------------------------------------------
    # Fault injection and recovery (see repro.faults)
    # ------------------------------------------------------------------

    def fault_lose(self, port: int, vc: int) -> None:
        """Destroy the credit a departure would have returned.

        Called by the fault injector *instead of* :meth:`schedule_return`:
        the single-phit credit is corrupted or dropped on the wire and
        never reaches the NIC.  The ledger records the loss so
        conservation stays checkable and the watchdog can resync.
        """
        self._lost_pv[port][vc] += 1
        self.lost_total += 1

    def fault_duplicate(self, port: int, vc: int, now: int) -> None:
        """Inject one duplicate credit return for (port, vc).

        Called *in addition to* the legitimate :meth:`schedule_return` of
        the same departure.  The duplicate lands like a real credit; if
        the counter is already full at landing it is detected and
        discarded, otherwise it inflates the counter until the watchdog
        resyncs (surplus detection).
        """
        land = now + self._delay
        self._pending.setdefault(land, []).append((port, vc))
        self._in_flight += 1
        self._in_flight_pv[port][vc] += 1
        self._extra_flight_pv[port][vc] += 1
        self.duplicated_total += 1

    def restore(self, port: int, vc: int, count: int) -> None:
        """Return ``count`` credits immediately (teardown drain path).

        When a connection is force-torn-down its buffered flits are
        discarded without traversing the crossbar; the buffer slots they
        held become free at once, so their credits return without the
        wire delay.
        """
        if count <= 0:
            return
        new = self._credits[port][vc] + count
        if new > self._depth:
            raise RuntimeError(
                f"credit restore overflow at port {port} vc {vc}: "
                f"{new} > depth {self._depth}"
            )
        self._credits[port][vc] = new
        self._mask[port] |= 1 << vc

    def reset_vc(self, port: int, vc: int) -> None:
        """Return one VC to its pristine state (teardown recovery path).

        Cancels the VC's in-flight returns, clears its fault ledger and
        refills the counter to the buffer depth.  Only valid once the
        VC's router buffer has drained (force-teardown does that); a
        re-admitted connection then starts from a clean credit state.
        """
        removed = 0
        for cycle in list(self._pending):
            entries = self._pending[cycle]
            kept = [entry for entry in entries if entry != (port, vc)]
            if len(kept) != len(entries):
                removed += len(entries) - len(kept)
                if kept:
                    self._pending[cycle] = kept
                else:
                    del self._pending[cycle]
        self._in_flight -= removed
        self._in_flight_pv[port][vc] = 0
        self._lost_pv[port][vc] = 0
        self._extra_flight_pv[port][vc] = 0
        self._extra_landed_pv[port][vc] = 0
        self._credits[port][vc] = self._depth
        self._mask[port] |= 1 << vc

    def expected(self, occupancy: np.ndarray) -> np.ndarray:
        """Ground-truth credit counters implied by the router occupancy.

        Duplicates still on the wire are excluded from the in-flight term:
        they will land on top of the legitimate credits, so the counter a
        healthy NIC *should* show right now does not account for them.
        Consequently ``counters - expected == extra_landed - lost`` — a
        surplus only becomes visible (and repairable) once the duplicate
        actually lands.
        """
        return (
            self._depth
            - occupancy
            - np.array(self._in_flight_pv, dtype=np.int64)
            + np.array(self._extra_flight_pv, dtype=np.int64)
        )

    def resync(self, port: int, vc: int, occupancy: int) -> int:
        """Reset one VC's counter from the router's authoritative state.

        Returns the signed correction applied.  Clears the VC's fault
        ledger: after a resync the plain conservation invariant holds
        again for this VC.
        """
        target = (
            self._depth
            - occupancy
            - self._in_flight_pv[port][vc]
            + self._extra_flight_pv[port][vc]
        )
        if not (0 <= target <= self._depth):
            raise RuntimeError(
                f"resync target {target} out of range at port {port} vc {vc}"
            )
        delta = target - self._credits[port][vc]
        self._credits[port][vc] = target
        if target > 0:
            self._mask[port] |= 1 << vc
        else:
            self._mask[port] &= ~(1 << vc)
        # The resync repairs exactly the landed drift (lost credits and
        # landed duplicates); duplicates still flying are left in the
        # ledger so their eventual landing is still accounted for.
        self._lost_pv[port][vc] = 0
        self._extra_landed_pv[port][vc] = 0
        self.resyncs += 1
        return delta

    def check_conservation(self, occupancy: np.ndarray) -> None:
        """Assert the per-VC ledger invariant (see class docstring)."""
        total = (
            np.array(self._credits, dtype=np.int64)
            + np.array(self._in_flight_pv, dtype=np.int64)
            - np.array(self._extra_flight_pv, dtype=np.int64)
            - np.array(self._extra_landed_pv, dtype=np.int64)
            + occupancy
            + np.array(self._lost_pv, dtype=np.int64)
        )
        if not (total == self._depth).all():
            bad = np.argwhere(total != self._depth)
            port, vc = (int(x) for x in bad[0])
            raise AssertionError(
                f"credit conservation violated at port {port} vc {vc}: "
                f"credits({self._credits[port][vc]}) + "
                f"in_flight({self._in_flight_pv[port][vc]}) - "
                f"extra_flight({self._extra_flight_pv[port][vc]}) - "
                f"extra_landed({self._extra_landed_pv[port][vc]}) + "
                f"occupancy({int(occupancy[port, vc])}) + "
                f"lost({self._lost_pv[port][vc]}) != depth({self._depth})"
            )


class CreditWatchdog:
    """Detects and repairs credit-counter drift caused by faulty returns.

    Detection compares each VC's counter against the ground truth implied
    by the router occupancy and the in-flight returns:

    * **surplus** (counter too high — a duplicate credit landed): repaired
      immediately, before the NIC can forward into a buffer slot that
      does not exist;
    * **deficit** (counter too low — a credit return was lost): repaired
      only after the deficit persists for a timeout, because a slow credit
      is indistinguishable from a lost one.  Repeated deficits on the same
      VC back off exponentially (``timeout * backoff**attempts``) and give
      up after ``max_retries`` resyncs, at which point the caller should
      escalate (tear the connection down and re-admit it).
    """

    def __init__(
        self,
        credits: CreditState,
        timeout: int = 16,
        max_retries: int = 5,
        backoff: int = 2,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff < 1:
            raise ValueError("backoff must be >= 1")
        self.credits = credits
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        # (port, vc) -> cycle the current deficit was first observed.
        self._deficit_since: dict[tuple[int, int], int] = {}
        # (port, vc) -> resync attempts so far (escalation memory).
        self._attempts: dict[tuple[int, int], int] = {}
        self._given_up: set[tuple[int, int]] = set()

    def reset(self, port: int, vc: int) -> None:
        """Forget a VC's escalation state (after teardown/re-admission)."""
        key = (port, vc)
        self._deficit_since.pop(key, None)
        self._attempts.pop(key, None)
        self._given_up.discard(key)

    def scan(
        self, now: int, vc_memory: VCMemory
    ) -> list[tuple[str, int, int, int]]:
        """One detection pass; returns ``(action, port, vc, delta)`` events.

        Reads the router occupancy from ``vc_memory`` afresh on every
        pass.  Actions: ``"surplus_resync"``, ``"deficit_resync"``,
        ``"giveup"``.
        """
        credits = self.credits
        occupancy = vc_memory.occupancy
        diff = credits.counters - credits.expected(occupancy)
        events: list[tuple[str, int, int, int]] = []
        if (diff == 0).all():
            if self._deficit_since:
                self._deficit_since.clear()
            return events
        for port, vc in np.argwhere(diff > 0):
            port, vc = int(port), int(vc)
            delta = credits.resync(port, vc, int(occupancy[port, vc]))
            events.append(("surplus_resync", port, vc, delta))
        for port, vc in np.argwhere(diff < 0):
            key = (int(port), int(vc))
            if key in self._given_up:
                continue
            since = self._deficit_since.setdefault(key, now)
            attempts = self._attempts.get(key, 0)
            wait = self.timeout * self.backoff**attempts
            if now - since < wait:
                continue
            if attempts >= self.max_retries:
                self._given_up.add(key)
                self._deficit_since.pop(key, None)
                events.append(("giveup", key[0], key[1], 0))
                continue
            delta = credits.resync(key[0], key[1], int(occupancy[key]))
            self._attempts[key] = attempts + 1
            self._deficit_since.pop(key, None)
            events.append(("deficit_resync", key[0], key[1], delta))
        # Deficits that healed on their own (late credits) stop counting.
        healthy = [k for k in self._deficit_since if diff[k] >= 0]
        for key in healthy:
            del self._deficit_since[key]
        return events
