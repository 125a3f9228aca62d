"""Numpy ring-buffer VC memory: the oracle for the Python-native one.

:class:`repro.router.vc_memory.VCMemory` keeps every VC as plain Python
deques.  Before that, flit metadata lived in preallocated numpy ring
buffers indexed ``[port, vc, slot]``; that implementation lives on here,
unchanged apart from its name, as the reference the differential
property tests drive in lockstep with the production memory.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.router.config import RouterConfig
from repro.router.vc_memory import HeadView, InterleavedRam


class RingVCMemory:
    """The numpy ring-buffer VC memory, kept as the reference.

    Ring buffers of depth ``config.vc_buffer_depth`` hold, per flit:
    generation cycle, arrival cycle, application frame id and a
    last-flit-of-frame flag, indexed ``[port, vc, slot]``.
    """

    def __init__(self, config: RouterConfig) -> None:
        n, v, b = config.num_ports, config.vcs_per_link, config.vc_buffer_depth
        self._depth = b
        shape = (n, v, b)
        self._gen = np.zeros(shape, dtype=np.int64)
        self._arr = np.zeros(shape, dtype=np.int64)
        self._frame = np.full(shape, -1, dtype=np.int64)
        self._last = np.zeros(shape, dtype=bool)
        self._head = np.zeros((n, v), dtype=np.int64)
        self._len = np.zeros((n, v), dtype=np.int64)
        # Preallocated index grids for the head-view gathers (hot path:
        # heads_all runs every flit cycle; rebuilding aranges there shows
        # up in the profile).
        self._vc_idx = np.arange(v)
        self._ports_grid = np.arange(n)[:, None]
        self._vcs_grid = self._vc_idx[None, :]
        self._num_vcs = v
        # Python-native mirror of each VC's queued arrival cycles (one
        # deque per flat port * vcs + vc index), maintained by push/pop.
        # occupied_heads reads head arrivals from here: a deque [0] costs
        # nanoseconds where the equivalent numpy scalar gather costs a
        # microsecond, and reads outnumber push/pop several-fold.
        self._arr_q: list[deque[int]] = [deque() for _ in range(n * v)]
        # Bitmask of occupied VCs over the flat (port * vcs + vc) index;
        # maintained by push/pop so occupied_heads never scans the
        # occupancy array.
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
        length = self._len[port, vc]
        if length >= self._depth:
            raise OverflowError(
                f"VC buffer overflow at port {port} vc {vc}: flow control "
                "must prevent pushes to a full buffer"
            )
        slot = (self._head[port, vc] + length) % self._depth
        self._gen[port, vc, slot] = gen_cycle
        self._arr[port, vc, slot] = now
        self._frame[port, vc, slot] = frame_id
        self._last[port, vc, slot] = frame_last
        self._len[port, vc] = length + 1
        f = port * self._num_vcs + vc
        self._occ_mask |= 1 << f
        self._arr_q[f].append(now)

    def pop(self, port: int, vc: int) -> tuple[int, int, int, bool]:
        """Remove and return the head flit of (port, vc).

        Returns ``(gen_cycle, arrival_cycle, frame_id, frame_last)``.
        """
        length = self._len[port, vc]
        if length == 0:
            raise IndexError(f"pop from empty VC buffer port {port} vc {vc}")
        slot = self._head[port, vc]
        f = port * self._num_vcs + vc
        out = (
            int(self._gen[port, vc, slot]),
            self._arr_q[f].popleft(),
            int(self._frame[port, vc, slot]),
            bool(self._last[port, vc, slot]),
        )
        self._head[port, vc] = (slot + 1) % self._depth
        self._len[port, vc] = length - 1
        if length == 1:
            self._occ_mask &= ~(1 << f)
        return out

    def is_empty(self) -> bool:
        """True when no VC on any port holds a flit (bitmask read).

        O(1) on the occupancy mask push/pop already maintain — the
        event-skipping engine's idle predicate polls this every cycle.
        """
        return not self._occ_mask

    def heads(self, port: int) -> HeadView:
        """Vectorized head-flit view for one input port (see HeadView)."""
        head = self._head[port]
        idx = self._vc_idx
        return HeadView(
            occupancy=self._len[port],
            gen_cycle=self._gen[port, idx, head],
            arrival_cycle=self._arr[port, idx, head],
        )

    def heads_all(self) -> HeadView:
        """Head-flit view across all ports at once (hot path).

        Arrays are shaped (ports, vcs).  Equivalent to stacking
        :meth:`heads` over every port; the batched form lets the link
        scheduler evaluate the whole router in a handful of vector ops.
        """
        ports, vcs = self._ports_grid, self._vcs_grid
        return HeadView(
            occupancy=self._len,
            gen_cycle=self._gen[ports, vcs, self._head],
            arrival_cycle=self._arr[ports, vcs, self._head],
        )

    def sched_view(self) -> HeadView:
        """Like :meth:`heads_all` but without the generation-cycle gather.

        The link scheduler reads only occupancy and head arrival cycles;
        skipping the unused ``gen_cycle`` gather saves an allocation per
        flit cycle on the hot path.  ``gen_cycle`` is ``None`` here.
        """
        return HeadView(
            occupancy=self._len,
            gen_cycle=None,
            arrival_cycle=self._arr[self._ports_grid, self._vcs_grid, self._head],
        )

    def occupied_heads(self) -> tuple[list[int], list[int]]:
        """Sparse head view: occupied VCs and their head arrival cycles.

        Returns ``(flat, arrivals)`` as plain Python lists, where
        ``flat[j] = port * vcs_per_link + vc`` indexes the j-th occupied
        VC and ``arrivals[j]`` is its head flit's arrival cycle.  The
        sparse form is the integer hot path's input: at realistic
        occupancies gathering a handful of heads beats materializing the
        full (ports, vcs) view of :meth:`sched_view`.
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
        """Zero-copy occupancy snapshot for the sparse scheduling fill.

        Returns ``(mask, heads_q)``: bit ``f = port * vcs_per_link + vc``
        of ``mask`` is set iff that VC is occupied, and ``heads_q[f][0]``
        is its head flit's arrival cycle.  ``heads_q`` aliases live
        internal state — callers must consume it before the next
        push/pop, not store it.  This is :meth:`occupied_heads` without
        the intermediate lists; the link scheduler walks the mask itself.
        """
        return self._occ_mask, self._arr_q

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def occupancy(self) -> np.ndarray:
        """(ports, vcs) array of buffered flit counts (read-only view)."""
        view = self._len.view()
        view.flags.writeable = False
        return view

    def occupancy_of(self, port: int, vc: int) -> int:
        return int(self._len[port, vc])

    def free_space(self, port: int, vc: int) -> int:
        return self._depth - int(self._len[port, vc])

    def total_flits(self) -> int:
        """Total flits currently buffered in the router."""
        return int(self._len.sum())

    def head_arrival(self, port: int, vc: int) -> int:
        """Arrival cycle of the head flit (caller must check occupancy)."""
        return int(self._arr[port, vc, self._head[port, vc]])
