"""Preallocated, array-native candidate storage (the scheduling hot path).

The object-based pipeline hands the arbiter a fresh ``list[list[Candidate]]``
every flit cycle — at 4 ports x 4 levels that is up to 16 dataclass
instances plus 5 list objects per cycle, and allocation dominates the
simulator's profile.  :class:`CandidateBuffer` replaces that handoff with
flat numpy buffers allocated once per router and refilled in place by
:meth:`repro.core.link_scheduler.LinkScheduler.select_into`:

* ``vc[p, l]`` / ``out_port[p, l]`` — the level-``l`` candidate of input
  port ``p`` (levels are the column index, so the per-port ordering that
  ``Candidate.level`` carries in the object path is implicit);
* ``count[p]`` — how many levels of row ``p`` are valid this cycle;
* ``prio_int`` / ``prio_float`` — the ranking key, exactly one of which
  is active per fill (``integer_keys`` says which).

**Priority-key representation.**  For integer-valued schemes (SIABP,
static, fifo) the key is the scheme's exact integer priority with the
reserved/best-effort tier folded into bit 62::

    prio_int = (tier << 62) | key        # key < 2**62, enforced upstream

where ``tier`` is 1 for a reserved (CBR/VBR) candidate with a non-zero
key and 0 otherwise.  Comparing ``prio_int`` values is therefore exactly
the lexicographic comparison (tier, key) — no float64 rounding, so
distinct priorities above 2**53 never collapse — and it matches the
object path's exact arithmetic (``key << 200`` for reserved candidates)
draw for draw, including the degenerate ``key == 0`` tie.  Float-valued
schemes (IABP) keep the classic exact power-of-two tier multiply in
``prio_float``.

**Sparse twin and lazy arrays.**  The sparse integer fill
(:meth:`~repro.core.link_scheduler.LinkScheduler.select_into_sparse`)
additionally records the candidates as per-port Python lists of
``(folded_key, vc, out_port)`` tuples in :attr:`CandidateBuffer.sparse`
(``sparse_valid`` True), which scalar-loop arbiters like COA consume
directly.  The numpy arrays are then materialized *lazily*: the fill
only marks the buffer dirty, and the ``count`` / ``vc`` / ``out_port`` /
``prio_int`` / ``prio_float`` properties replay the sparse rows into the
arrays on first access.  Cycles whose arbiter never touches the arrays
(the common case on the hot path) skip the scatter writes entirely; any
reader — other arbiters, ``to_candidates``, tests — still sees arrays
that are exactly coherent with the sparse rows.

Loops with an eligibility rule (downstream link credits on the network,
dead ports and stuck slots in the fault harness) apply it in place with
:meth:`CandidateBuffer.retain` between the fill and the match.

Arbiters consume the buffer through :meth:`Arbiter.match_buffer`; every
built-in arbiter implements it natively, and the base class falls back to
:meth:`to_candidates` + :meth:`Arbiter.match` so external arbiters keep
working unchanged.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .matching import Candidate

__all__ = ["CandidateBuffer", "TIER_SHIFT"]

#: Bit position of the reserved-tier flag inside an int64 priority key.
TIER_SHIFT = 62

#: Exact object-path tier multiplier (1 << 200) for reconstructing
#: object-path priorities from buffer entries.
_OBJECT_TIER_FACTOR = 1 << 200


class CandidateBuffer:
    """Flat per-(port, level) candidate arrays, refilled in place."""

    __slots__ = (
        "num_ports",
        "levels",
        "_vc",
        "_out_port",
        "_prio_int",
        "_prio_float",
        "_count",
        "integer_keys",
        "_vc_flat",
        "_out_port_flat",
        "_prio_int_flat",
        "sparse",
        "sparse_valid",
        "_dirty",
    )

    def __init__(self, num_ports: int, levels: int) -> None:
        if num_ports <= 0 or levels <= 0:
            raise ValueError("num_ports and levels must be positive")
        self.num_ports = num_ports
        self.levels = levels
        shape = (num_ports, levels)
        self._vc = np.zeros(shape, dtype=np.int64)
        self._out_port = np.zeros(shape, dtype=np.int64)
        self._prio_int = np.zeros(shape, dtype=np.int64)
        self._prio_float = np.zeros(shape, dtype=np.float64)
        self._count = np.zeros(num_ports, dtype=np.int64)
        #: True when ``prio_int`` holds the active keys for this fill.
        self.integer_keys = True
        # Flat (same-memory) views for scattered writes by the lazy sync:
        # entry (p, l) lives at flat index p * levels + l.
        self._vc_flat = self._vc.reshape(-1)
        self._out_port_flat = self._out_port.reshape(-1)
        self._prio_int_flat = self._prio_int.reshape(-1)
        #: Python-native twin of the candidate arrays: per-port lists of
        #: (folded_key, vc, out_port) tuples in level order, at most
        #: ``levels`` entries each.  Valid only while ``sparse_valid``.
        self.sparse: list[list[tuple[int, int, int]]] = [
            [] for _ in range(num_ports)
        ]
        self.sparse_valid = False
        # True while the arrays lag behind the sparse rows.
        self._dirty = False

    # ------------------------------------------------------------------
    # Array views (lazily synced from the sparse rows)
    # ------------------------------------------------------------------

    def _sync(self) -> None:
        """Replay the sparse rows into the candidate arrays."""
        if not self._dirty:
            return
        self._dirty = False
        c = self.levels
        pos: list[int] = []
        keys: list[int] = []
        vcs: list[int] = []
        outs: list[int] = []
        count = self._count
        for p, cands in enumerate(self.sparse):
            count[p] = len(cands)
            base = p * c
            for level, (key, vc, out) in enumerate(cands):
                pos.append(base + level)
                keys.append(key)
                vcs.append(vc)
                outs.append(out)
        if pos:
            idx = np.asarray(pos, dtype=np.intp)
            self._prio_int_flat[idx] = keys
            self._vc_flat[idx] = vcs
            self._out_port_flat[idx] = outs

    def mark_sparse_filled(self) -> None:
        """A sparse fill completed; arrays sync lazily on next access."""
        self.integer_keys = True
        self.sparse_valid = True
        self._dirty = True

    def mark_array_filled(self, *, integer_keys: bool) -> None:
        """A direct array fill begins; drop any stale sparse state."""
        self.integer_keys = integer_keys
        self.sparse_valid = False
        self._dirty = False

    @property
    def vc(self) -> np.ndarray:
        self._sync()
        return self._vc

    @property
    def out_port(self) -> np.ndarray:
        self._sync()
        return self._out_port

    @property
    def prio_int(self) -> np.ndarray:
        self._sync()
        return self._prio_int

    @property
    def prio_float(self) -> np.ndarray:
        self._sync()
        return self._prio_float

    @property
    def count(self) -> np.ndarray:
        self._sync()
        return self._count

    # ------------------------------------------------------------------

    def retain(self, keep: Callable[[int, int, int], bool]) -> None:
        """Drop every candidate for which ``keep(in_port, vc, out_port)``
        is false, compacting each port's survivors in level order.

        The eligibility step between link scheduling and matching: it
        runs *after* the top-``levels`` truncation, so a dropped
        candidate is not replaced by a lower-ranked VC — the survivors
        simply move up to dense levels ``0..k-1``.  Works on both fill
        kinds: the sparse rows of an integer fill (the arrays then
        re-sync lazily) and the arrays of a float-keyed fill.
        """
        if self.sparse_valid:
            for p, row in enumerate(self.sparse):
                if row:
                    kept = [e for e in row if keep(p, e[1], e[2])]
                    if len(kept) != len(row):
                        row[:] = kept
                        self._dirty = True
            return
        count = self._count
        vc, out = self._vc, self._out_port
        prio = self._prio_int if self.integer_keys else self._prio_float
        for p in range(self.num_ports):
            n = int(count[p])
            w = 0
            for level in range(n):
                if keep(p, int(vc[p, level]), int(out[p, level])):
                    if w != level:
                        vc[p, w] = vc[p, level]
                        out[p, w] = out[p, level]
                        prio[p, w] = prio[p, level]
                    w += 1
            count[p] = w

    def total(self) -> int:
        """Number of valid candidates across all ports."""
        return int(self.count.sum())

    def priority_of(self, port: int, level: int) -> int | float:
        """Object-path priority of one entry (exact; tests/diagnostics)."""
        if self.integer_keys:
            folded = int(self.prio_int[port, level])
            tier, key = folded >> TIER_SHIFT, folded & ((1 << TIER_SHIFT) - 1)
            return key * _OBJECT_TIER_FACTOR if tier else key
        return float(self.prio_float[port, level])

    def to_candidates(self) -> list[list[Candidate]]:
        """Materialize the object-path view (reference/fallback only).

        The returned candidates carry the exact object-path priorities,
        so ``Arbiter.match`` over them is draw-for-draw identical to
        ``Arbiter.match_buffer`` over this buffer.
        """
        out: list[list[Candidate]] = []
        counts = self.count.tolist()
        vcs = self.vc.tolist()
        outs = self.out_port.tolist()
        for p in range(self.num_ports):
            port_cands = [
                Candidate(
                    in_port=p,
                    vc=vcs[p][level],
                    out_port=outs[p][level],
                    priority=self.priority_of(p, level),
                    level=level,
                )
                for level in range(counts[p])
            ]
            out.append(port_cands)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "int" if self.integer_keys else "float"
        return (
            f"<CandidateBuffer {self.num_ports}x{self.levels} "
            f"{kind}-keyed, {self.total()} candidates>"
        )
