"""Virtual channel memory: per-VC flit FIFOs over interleaved RAM modules.

The MMR supports one virtual channel per connection, so it needs a large
number of small buffers.  To keep the implementation compact the buffers
are not discrete FIFOs but views onto a handful of interleaved RAM modules
(paper Fig. 2): a control-word decoder demultiplexes incoming phits, an
address generator interleaves consecutive buffer slots across modules so
that sequential accesses never collide on a module.

Two layers live here:

* :class:`InterleavedRam` — the address-generation model of Fig. 2.  It is
  not on the hot path; it exists to verify (and let tests verify) that the
  interleaving scheme is conflict-free for the access patterns the router
  generates, and to feed the hardware-cost model.
* :class:`VCMemory` — the functional, cycle-accurate buffer state used by
  the simulator.  Every VC is a pair of plain Python deques (flit
  metadata and arrival cycles) plus one bit of an occupancy mask, so a
  push or pop touches no numpy scalar.  The dense ``(ports, vcs)``
  arrays of :meth:`VCMemory.occupancy` and the head views are snapshots
  built on demand for vectorized readers, tests and diagnostics.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .config import RouterConfig

__all__ = ["InterleavedRam", "VCMemory", "HeadView"]


class InterleavedRam:
    """Address-generation model for the interleaved buffer RAM (Fig. 2).

    Buffer slot ``s`` of virtual channel ``v`` maps to RAM module
    ``(v + s) % num_modules`` at offset ``(v * depth + s) // num_modules``.
    With ``num_modules`` dividing neither pattern pathologically, a FIFO
    that is pushed and popped in order touches modules round-robin, so a
    push and a pop in the same cycle hit the same module only when they
    target the same slot parity — the classic simple interleaving scheme
    the paper sketches.
    """

    def __init__(self, num_vcs: int, depth: int, num_modules: int = 4) -> None:
        if num_modules <= 0:
            raise ValueError("num_modules must be positive")
        if num_vcs <= 0 or depth <= 0:
            raise ValueError("num_vcs and depth must be positive")
        self.num_vcs = num_vcs
        self.depth = depth
        self.num_modules = num_modules

    def address(self, vc: int, slot: int) -> tuple[int, int]:
        """Map (vc, slot) to (module, offset)."""
        if not (0 <= vc < self.num_vcs):
            raise ValueError(f"vc {vc} out of range")
        if not (0 <= slot < self.depth):
            raise ValueError(f"slot {slot} out of range")
        linear = vc * self.depth + slot
        return ((vc + slot) % self.num_modules, linear // self.num_modules)

    def words_per_module(self) -> int:
        """Capacity each module must provide, in flit-sized words."""
        total = self.num_vcs * self.depth
        return -(-total // self.num_modules)

    def conflicts(self, accesses: list[tuple[int, int]]) -> int:
        """Number of module conflicts among simultaneous accesses.

        ``accesses`` is a list of (vc, slot) pairs touched in the same
        cycle; the return value counts accesses beyond the first to each
        module (0 means fully conflict-free).
        """
        seen: dict[int, int] = {}
        for vc, slot in accesses:
            module, _ = self.address(vc, slot)
            seen[module] = seen.get(module, 0) + 1
        return sum(n - 1 for n in seen.values())


class HeadView:
    """Vectorized view of every VC's head flit on one port.

    Exposed by :meth:`VCMemory.heads`; consumed by the object reference
    pipeline (``LinkScheduler.select_batch``), which needs, per VC:
    occupancy, head generation cycle and head arrival cycle (for priority
    biasing).  Arrays are length ``vcs_per_link`` snapshots, zero where
    ``occupancy == 0``.  ``gen_cycle`` is ``None`` on the lean scheduling
    view (:meth:`VCMemory.sched_view`), which skips the generation
    cycles the link scheduler never reads.
    """

    __slots__ = ("occupancy", "gen_cycle", "arrival_cycle")

    def __init__(
        self,
        occupancy: np.ndarray,
        gen_cycle: np.ndarray | None,
        arrival_cycle: np.ndarray,
    ) -> None:
        self.occupancy = occupancy
        self.gen_cycle = gen_cycle
        self.arrival_cycle = arrival_cycle


class VCMemory:
    """Cycle-accurate virtual-channel buffer state for all input ports.

    Each VC holds up to ``config.vc_buffer_depth`` flits.  Per flit it
    keeps the generation cycle, the arrival cycle (when it entered this
    memory — the queuing-delay clock for priority biasing), the
    application frame id and a last-flit-of-frame flag.  VCs are indexed
    by the flat position ``f = port * vcs_per_link + vc``.
    """

    def __init__(self, config: RouterConfig) -> None:
        n, v, b = config.num_ports, config.vcs_per_link, config.vc_buffer_depth
        self._depth = b
        self._num_ports = n
        self._num_vcs = v
        # Per-VC flit queues of (gen_cycle, frame_id, frame_last).
        self._q: list[deque[tuple[int, int, bool]]] = [
            deque() for _ in range(n * v)
        ]
        # Arrival cycles, queued in step with ``_q``.  Kept apart because
        # the sparse scheduling fill reads head arrivals (``[0]``) far
        # more often than push/pop run (see occupancy_state).
        self._arr_q: list[deque[int]] = [deque() for _ in range(n * v)]
        # Bitmask of occupied VCs over the flat index, maintained by
        # push/pop so readers walk occupied VCs without scanning.
        self._occ_mask = 0
        self.config = config
        self.ram = InterleavedRam(v, b)

    # ------------------------------------------------------------------
    # Hot-path operations
    # ------------------------------------------------------------------

    def push(
        self,
        port: int,
        vc: int,
        gen_cycle: int,
        frame_id: int,
        frame_last: bool,
        now: int,
    ) -> None:
        """Append a flit to (port, vc); raises if the buffer is full.

        Credit-based flow control guarantees the caller never overflows a
        buffer; a full buffer here therefore indicates a flow-control bug
        and is an error, mirroring the MMR's loss-free design.
        """
        f = port * self._num_vcs + vc
        q = self._q[f]
        if len(q) >= self._depth:
            raise OverflowError(
                f"VC buffer overflow at port {port} vc {vc}: flow control "
                "must prevent pushes to a full buffer"
            )
        q.append((gen_cycle, frame_id, frame_last))
        self._arr_q[f].append(now)
        self._occ_mask |= 1 << f

    def pop(self, port: int, vc: int) -> tuple[int, int, int, bool]:
        """Remove and return the head flit of (port, vc).

        Returns ``(gen_cycle, arrival_cycle, frame_id, frame_last)``.
        """
        f = port * self._num_vcs + vc
        q = self._q[f]
        if not q:
            raise IndexError(f"pop from empty VC buffer port {port} vc {vc}")
        gen, frame_id, frame_last = q.popleft()
        if not q:
            self._occ_mask &= ~(1 << f)
        return gen, self._arr_q[f].popleft(), frame_id, frame_last

    def is_empty(self) -> bool:
        """True when no VC on any port holds a flit (bitmask read).

        O(1) on the occupancy mask push/pop already maintain — the
        event-skipping engine's idle predicate polls this every cycle.
        """
        return not self._occ_mask

    # ------------------------------------------------------------------
    # On-demand dense views (vectorized readers, tests, diagnostics)
    # ------------------------------------------------------------------

    def _dense(self, with_gen: bool) -> HeadView:
        """(ports, vcs) snapshot of occupancy and head-flit cycles."""
        size = self._num_ports * self._num_vcs
        occ = np.zeros(size, dtype=np.int64)
        gen = np.zeros(size, dtype=np.int64) if with_gen else None
        arr = np.zeros(size, dtype=np.int64)
        flat, arrivals = self.occupied_heads()
        if flat:
            qs = self._q
            occ[flat] = [len(qs[f]) for f in flat]
            arr[flat] = arrivals
            if gen is not None:
                gen[flat] = [qs[f][0][0] for f in flat]
        shape = (self._num_ports, self._num_vcs)
        return HeadView(
            occupancy=occ.reshape(shape),
            gen_cycle=None if gen is None else gen.reshape(shape),
            arrival_cycle=arr.reshape(shape),
        )

    def heads(self, port: int) -> HeadView:
        """Head-flit view for one input port (see HeadView)."""
        view = self._dense(with_gen=True)
        return HeadView(
            occupancy=view.occupancy[port],
            gen_cycle=view.gen_cycle[port],
            arrival_cycle=view.arrival_cycle[port],
        )

    def heads_all(self) -> HeadView:
        """Head-flit view across all ports at once, shaped (ports, vcs).

        Equivalent to stacking :meth:`heads` over every port; the object
        reference pipeline (``select_batch``) evaluates the whole router
        from it in a handful of vector ops.
        """
        return self._dense(with_gen=True)

    def sched_view(self) -> HeadView:
        """Like :meth:`heads_all` without the generation cycles.

        The link scheduler reads only occupancy and head arrival cycles;
        ``gen_cycle`` is ``None`` here.
        """
        return self._dense(with_gen=False)

    def occupied_heads(self) -> tuple[list[int], list[int]]:
        """Sparse head view: occupied VCs and their head arrival cycles.

        Returns ``(flat, arrivals)`` as plain Python lists, where
        ``flat[j] = port * vcs_per_link + vc`` indexes the j-th occupied
        VC and ``arrivals[j]`` is its head flit's arrival cycle.
        """
        m = self._occ_mask
        if not m:
            return [], []
        flat: list[int] = []
        arrivals: list[int] = []
        arr_q = self._arr_q
        while m:
            low = m & -m
            f = low.bit_length() - 1
            flat.append(f)
            arrivals.append(arr_q[f][0])
            m ^= low
        return flat, arrivals

    def occupancy_state(self) -> tuple[int, list[deque[int]]]:
        """Zero-copy occupancy snapshot for the scheduling fills.

        Returns ``(mask, heads_q)``: bit ``f = port * vcs_per_link + vc``
        of ``mask`` is set iff that VC is occupied, ``heads_q[f][0]`` is
        its head flit's arrival cycle and ``len(heads_q[f])`` its flit
        count.  ``heads_q`` aliases live internal state — callers must
        consume it before the next push/pop, not store it.  This is
        :meth:`occupied_heads` without the intermediate lists; the link
        scheduler walks the mask itself.
        """
        return self._occ_mask, self._arr_q

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def occupancy(self) -> np.ndarray:
        """(ports, vcs) array of buffered flit counts.

        A read-only *snapshot* built on each access: it does not follow
        later pushes and pops, so read it again every cycle rather than
        holding on to it.  Per-VC hot loops use :meth:`occupancy_of`.
        """
        view = self._dense(with_gen=False).occupancy
        view.flags.writeable = False
        return view

    def occupancy_of(self, port: int, vc: int) -> int:
        return len(self._q[port * self._num_vcs + vc])

    def free_space(self, port: int, vc: int) -> int:
        return self._depth - len(self._q[port * self._num_vcs + vc])

    def total_flits(self) -> int:
        """Total flits currently buffered in the router."""
        qs = self._q
        total = 0
        m = self._occ_mask
        while m:
            low = m & -m
            total += len(qs[low.bit_length() - 1])
            m ^= low
        return total

    def head_arrival(self, port: int, vc: int) -> int:
        """Arrival cycle of the head flit (caller must check occupancy)."""
        return self._arr_q[port * self._num_vcs + vc][0]
