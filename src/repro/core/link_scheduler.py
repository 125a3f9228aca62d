"""Link scheduling: candidate selection.

Per physical input link, the link scheduler ranks the head flits of all
occupied virtual channels by their biased priority (see
:mod:`repro.core.priorities`) and forwards the top ``candidate_levels``
of them — the *candidates* — to the switch scheduler.  Level 0 holds the
highest-priority candidate of each link, level 1 the next, and so on;
these levels are the row blocks of the selection matrix.

Best-effort subordination: the MMR "allocates the remaining bandwidth to
best-effort traffic" (paper §1), so a reserved (CBR/VBR) head flit must
outrank *any* best-effort head flit regardless of how the biasing
function scores them.  The ranking rule, per link, is therefore the
lexicographic order (reserved tier desc, biased priority desc, VC index
asc); the tie-break on VC index mirrors a fixed-priority encoder in
hardware.

**Exact integer keys.**  Integer-valued schemes (SIABP, static, fifo)
are ranked on their int64 keys directly, with the tier as a separate
lexsort key folded into bit 62 of the sort key — never through float64,
whose 53-bit mantissa silently merges distinct priorities above 2**53
and breaks the biased order SIABP exists to preserve.  Only the
float-valued IABP path keeps the classic exact power-of-two tier
multiply (:data:`RESERVED_SCALE`).

Two selection entry points share that ranking rule:

* :meth:`LinkScheduler.select_batch` — all ports vectorized, object path
  (the ``fast_path=False`` reference pipeline);
* :meth:`LinkScheduler.select_into` — all ports, from the VC memory's
  occupancy mask, into a preallocated
  :class:`~repro.core.candidates.CandidateBuffer` (the hot path; sparse
  Python rows for integer schemes, a dense scatter for IABP).

The differential tests pin both, and a per-port reference kept with the
tests, to identical candidates.

Stateful schemes (the fair-queueing family in :mod:`repro.fq`) are
ranked through ``scheme.keys()`` / ``scheme.keys_port()`` instead of
``compute``; they produce int64 keys in ``[1, 2**62)`` so the same tier
folding, tie-breaks and CandidateBuffer fast path apply unchanged.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .candidates import TIER_SHIFT, CandidateBuffer
from .matching import Candidate
from .priorities import MAX_INTEGER_KEY, PriorityScheme

if TYPE_CHECKING:  # imported lazily to avoid a core <-> router cycle
    from ..router.config import RouterConfig
    from ..router.vc_memory import HeadView

__all__ = ["LinkScheduler", "RESERVED_SCALE"]

#: Multiplier that lifts every reserved (CBR/VBR) candidate above every
#: best-effort candidate on the float-valued (IABP) path.  A power of
#: two, so the float multiply is *exact* and preserves the biased
#: ordering within the reserved tier bit for bit.  Integer-valued
#: schemes use the exact ``1 << 200`` integer twin instead.
RESERVED_SCALE = 2.0**200

#: Integer twin of :data:`RESERVED_SCALE` for exact object-path
#: priorities of reserved candidates under integer-valued schemes.
_RESERVED_FACTOR = 1 << 200

#: Sort key for the sparse fill's (key, vc, out) tuples.
_KEY0 = operator.itemgetter(0)


class LinkScheduler:
    """Selects each input link's candidate VCs for switch scheduling."""

    def __init__(self, config: RouterConfig, scheme: PriorityScheme) -> None:
        self.config = config
        self.scheme = scheme
        n, v = config.num_ports, config.vcs_per_link
        self._num_vcs = v
        # Preallocated scratch for the float fill (select_into).  All
        # (n, v)-shaped, with flat same-memory views for the scatter of
        # the occupied VCs; refilled in place each cycle.
        self._delay = np.zeros((n, v), dtype=np.int64)
        self._delay_flat = self._delay.reshape(-1)
        self._key_f = np.zeros((n, v), dtype=np.float64)
        self._rows = np.arange(n)[:, None]
        # Boolean occupancy scratch: the float fill's occupied mask, and
        # the matrix stateful schemes' keys() want on the sparse path.
        self._occ_scratch = np.zeros((n, v), dtype=bool)
        self._occ_flat = self._occ_scratch.reshape(-1)
        self._stateful = bool(getattr(scheme, "stateful", False))
        # Python-list mirrors of the (slow-changing) connection arrays,
        # reused across cycles while the caller-supplied state_version is
        # unchanged — connection state only moves on setup/teardown.
        self._mirror_version: int | None = None
        self._mirror: tuple[list[int], list[int], list[bool] | None] | None = None

    # ------------------------------------------------------------------
    # Ranking helpers (shared by the object paths)
    # ------------------------------------------------------------------

    @staticmethod
    def _folded_int_keys(
        prio: np.ndarray, reserved: np.ndarray | None
    ) -> np.ndarray:
        """Fold the tier bit into exact int64 sort keys.

        ``folded = (tier << 62) | key`` where ``tier`` is set only for
        reserved candidates with a non-zero key — matching the multiply
        semantics of the reference path, where ``0 * scale == 0`` keeps a
        zero-key reserved flit tied with a zero-key best-effort one.
        """
        if prio.size and int(prio.max()) >= MAX_INTEGER_KEY:
            raise OverflowError(
                "integer priority key >= 2**62: no headroom left for the "
                "reserved-tier bit in the int64 sort key"
            )
        if prio.size and int(prio.min()) < 0:
            raise ValueError("integer priority keys must be non-negative")
        if reserved is None:
            return prio.copy()
        tier = (reserved & (prio != 0)).astype(np.int64)
        return prio + (tier << TIER_SHIFT)

    @staticmethod
    def _object_priority(key: int, is_reserved: bool) -> int:
        """Exact object-path priority: reserved tier folds in as << 200."""
        return key * _RESERVED_FACTOR if is_reserved else key

    # ------------------------------------------------------------------
    # Object path (the reference pipeline)
    # ------------------------------------------------------------------

    def select_batch(
        self,
        heads: HeadView,
        slots: np.ndarray,
        dests: np.ndarray,
        now: int,
        tier_scale: np.ndarray | None = None,
    ) -> list[list[Candidate]]:
        """Candidates for every input port in one vectorized pass.

        ``heads`` is the (ports, vcs)-shaped view from
        :meth:`repro.router.VCMemory.heads_all`.  Produces exactly the
        same candidates as the per-port reference (a property the test suite
        asserts); it exists because evaluating the whole router in one
        numpy call chain is several times faster than per-port calls.
        """
        occ = heads.occupancy
        n, _v = occ.shape
        c = self.config.candidate_levels
        occupied = occ > 0
        if self._stateful:
            prio = self.scheme.keys(occupied)
        else:
            delay = np.where(occupied, now - heads.arrival_cycle, 0)
            prio = self.scheme.compute(slots, delay)
        counts = np.minimum(occupied.sum(axis=1), c)
        reserved = None if tier_scale is None else tier_scale > 1.0

        if self.scheme.integer_valued:
            prio = np.asarray(prio, dtype=np.int64)
            folded = self._folded_int_keys(prio, reserved)
            # Empty VCs sort last: -1 is below every real key (keys >= 0).
            masked = np.where(occupied, folded, -1)
            order = np.argsort(-masked, axis=1, kind="stable")[:, :c]
            out: list[list[Candidate]] = []
            for p in range(n):
                port_cands: list[Candidate] = []
                for level in range(int(counts[p])):
                    vc = int(order[p, level])
                    port_cands.append(
                        Candidate(
                            in_port=p,
                            vc=vc,
                            out_port=int(dests[p, vc]),
                            priority=self._object_priority(
                                int(prio[p, vc]),
                                bool(reserved[p, vc])
                                if reserved is not None
                                else False,
                            ),
                            level=level,
                        )
                    )
                out.append(port_cands)
            return out

        prio = prio.astype(np.float64)
        if tier_scale is not None:
            prio = prio * tier_scale
        # Mask out empty VCs with -inf so argsort never selects them.
        masked = np.where(occupied, prio, -np.inf)
        # Order each row by (-priority, vc); vc tie-break falls out of
        # stable argsort on the negated priorities.
        order = np.argsort(-masked, axis=1, kind="stable")[:, :c]
        out = []
        for p in range(n):
            port_cands = []
            for level in range(int(counts[p])):
                vc = int(order[p, level])
                port_cands.append(
                    Candidate(
                        in_port=p,
                        vc=vc,
                        out_port=int(dests[p, vc]),
                        priority=float(prio[p, vc]),
                        level=level,
                    )
                )
            out.append(port_cands)
        return out

    # ------------------------------------------------------------------
    # Buffer path (the hot path)
    # ------------------------------------------------------------------

    def select_into(
        self,
        buf: CandidateBuffer,
        occ_mask: int,
        heads_q: Sequence[Sequence[int]],
        slots: np.ndarray,
        dests: np.ndarray,
        now: int,
        reserved: np.ndarray | None = None,
        state_version: int | None = None,
    ) -> CandidateBuffer:
        """Fill ``buf`` with this cycle's candidates; no object churn.

        ``occ_mask``/``heads_q`` are the occupancy view of
        :meth:`repro.router.VCMemory.occupancy_state` (see
        :meth:`select_into_sparse`).  Produces the same candidate set,
        order and priority keys as :meth:`select_batch` over the dense
        head view (``buf.to_candidates()`` equality is pinned by the
        tests), writing into the preallocated buffer.  ``reserved`` is the
        boolean (ports, vcs) reserved-VC mask — the buffer twin of
        ``tier_scale``.  ``state_version``, when given, identifies the
        content of ``slots``/``dests``/``reserved``: the sparse path
        caches Python-list mirrors of those arrays and reuses them while
        the version is unchanged (the caller must bump it on every
        connection setup or teardown).

        Integer-valued schemes take the sparse path
        (:meth:`select_into_sparse`).  The float (IABP) path scatters
        the occupied VCs' queuing delays into a dense scratch matrix and
        ranks it vectorized.
        """
        if self.scheme.integer_valued:
            return self.select_into_sparse(
                buf,
                occ_mask,
                heads_q,
                slots,
                dests,
                now,
                reserved,
                state_version=state_version,
            )

        c = buf.levels
        buf.mark_array_filled(integer_keys=False)
        delay = self._delay
        occupied = self._occ_scratch
        delay.fill(0)
        occupied.fill(False)
        if occ_mask:
            flats: list[int] = []
            delays: list[int] = []
            m = occ_mask
            while m:
                low = m & -m
                f = low.bit_length() - 1
                m ^= low
                flats.append(f)
                delays.append(now - heads_q[f][0])
            self._delay_flat[flats] = delays
            self._occ_flat[flats] = True
        prio = self.scheme.compute(slots, delay)
        np.minimum(occupied.sum(axis=1), c, out=buf.count)
        rows = self._rows
        w = min(c, occupied.shape[1])
        np.copyto(self._key_f, prio)
        if reserved is not None:
            np.multiply(
                self._key_f, RESERVED_SCALE, out=self._key_f, where=reserved
            )
        self._key_f[~occupied] = -np.inf
        order = np.argsort(-self._key_f, axis=1, kind="stable")[:, :w]
        buf.vc[:, :w] = order
        buf.out_port[:, :w] = dests[rows, order]
        buf.prio_float[:, :w] = self._key_f[rows, order]
        return buf

    def select_into_sparse(
        self,
        buf: CandidateBuffer,
        occ_mask: int,
        heads_q: Sequence[Sequence[int]],
        slots: np.ndarray,
        dests: np.ndarray,
        now: int,
        reserved: np.ndarray | None = None,
        state_version: int | None = None,
    ) -> CandidateBuffer:
        """Sparse exact-integer fill from an occupancy snapshot.

        ``occ_mask``/``heads_q`` are the zero-copy occupancy view from
        :meth:`repro.router.VCMemory.occupancy_state`: bit
        ``f = port * vcs_per_link + vc`` of the mask marks an occupied
        VC, and ``heads_q[f][0]`` is its head flit's arrival cycle.
        Integer-valued schemes only: only the occupied VCs are
        evaluated, with Python ints — the exact arithmetic is native
        there, and at realistic occupancies a short scalar loop beats
        ~30 numpy dispatches on (ports, vcs) arrays by a wide margin.
        The Python-native ``buf.sparse`` rows are filled in place; the
        candidate arrays materialize lazily from them on first access
        (see :class:`CandidateBuffer`).
        """
        sparse = buf.sparse
        for lst in sparse:
            if lst:
                lst.clear()
        if not occ_mask:
            buf.mark_sparse_filled()
            return buf
        v = self._num_vcs
        c = buf.levels
        if state_version is not None and state_version == self._mirror_version:
            assert self._mirror is not None
            slot_l, dest_l, rsv_l = self._mirror
        else:
            # Full-length mirrors, indexed by the flat (port * vcs + vc)
            # position directly — amortized to setup/teardown frequency
            # when the caller versions its connection state.
            slot_l = slots.ravel().tolist()
            dest_l = dests.ravel().tolist()
            rsv_l = reserved.ravel().tolist() if reserved is not None else None
            if state_version is not None:
                self._mirror = (slot_l, dest_l, rsv_l)
                self._mirror_version = state_version
        key_l = None
        if self._stateful:
            # Stateful schemes rank on scheduler state, not (slots,
            # delay): reconstruct the occupancy matrix from the mask and
            # ask the scheme for the whole cycle's keys in one call.
            self._occ_scratch.fill(False)
            m = occ_mask
            while m:
                low = m & -m
                self._occ_flat[low.bit_length() - 1] = True
                m ^= low
            key_l = self.scheme.keys(self._occ_scratch).ravel().tolist()
        else:
            key_fn = self.scheme.key_scalar
        tier_bit = 1 << TIER_SHIFT
        max_key = MAX_INTEGER_KEY
        m = occ_mask
        while m:
            low = m & -m
            f = low.bit_length() - 1
            m ^= low
            if key_l is None:
                key = key_fn(slot_l[f], now - heads_q[f][0])
            else:
                key = key_l[f]
            if key >= max_key:
                raise OverflowError(
                    "integer priority key >= 2**62: no headroom left "
                    "for the reserved-tier bit in the int64 sort key"
                )
            if key < 0:
                raise ValueError("integer priority keys must be non-negative")
            # Fold the tier bit exactly like _folded_int_keys: reserved
            # candidates with a non-zero key jump above every best-effort
            # key; a zero key stays zero (multiply semantics).
            if rsv_l is not None and key and rsv_l[f]:
                key += tier_bit
            sparse[f // v].append((key, f % v, dest_l[f]))

        for cands in sparse:
            if len(cands) > 1:
                # Stable descending sort keeps ascending-VC tie order
                # (entries were appended in VC order).
                cands.sort(key=_KEY0, reverse=True)
                del cands[c:]
        buf.mark_sparse_filled()
        return buf
