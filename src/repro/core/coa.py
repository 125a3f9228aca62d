"""The Candidate-Order Arbiter (COA) — the paper's contribution.

COA computes the crossbar matching from the selection matrix in three
repeated steps (paper §4):

1. **Conflict vector** — count the competing requests per (level, output)
   row.
2. **Port ordering** — pick the next output to serve: lowest candidate
   level first, and within a level the output with the *fewest* conflicts
   first.  Ties are broken randomly.  Rationale: heavily-conflicted
   outputs can wait because they will still have matching opportunities
   after other ports are served, while a lightly-conflicted output may
   lose its only requester to another output's grant.
3. **Arbitration** — among the requests for the selected output, grant the
   one with the highest biased priority; then drop every request involving
   the matched input and output and recompute.

The loop ends when no requests remain, yielding a conflict-free — and, as
the property tests verify, maximal — matching that honours connection
priorities, unlike pure matching-size maximizers such as the Wave Front
Arbiter.

For the ablation benches (DESIGN.md A1) the two decision rules are
pluggable: ``ordering`` picks the port-ordering key and ``arbitration``
the per-output grant rule.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from typing import TYPE_CHECKING

from .matching import Arbiter, Candidate, Grant
from .selection import SelectionMatrix

if TYPE_CHECKING:
    from .candidates import CandidateBuffer

__all__ = ["CandidateOrderArbiter"]

_ORDERINGS = ("level_conflict", "level_only", "conflict_only", "random")
_ARBITRATIONS = ("priority", "random")


class CandidateOrderArbiter(Arbiter):
    """Priority-aware crossbar arbiter driven by the selection matrix."""

    name = "coa"

    def __init__(
        self,
        num_ports: int,
        levels: int,
        ordering: str = "level_conflict",
        arbitration: str = "priority",
    ) -> None:
        if ordering not in _ORDERINGS:
            raise ValueError(f"ordering must be one of {_ORDERINGS}, got {ordering!r}")
        if arbitration not in _ARBITRATIONS:
            raise ValueError(
                f"arbitration must be one of {_ARBITRATIONS}, got {arbitration!r}"
            )
        self.num_ports = num_ports
        self.levels = levels
        self.ordering = ordering
        self.arbitration = arbitration
        if ordering != "level_conflict" or arbitration != "priority":
            self.name = f"coa[{ordering}/{arbitration}]"
        # With these rules a lone request is granted without consulting
        # rng (_pick_row returns the only live row drawlessly and the
        # single-request arbitration path never draws), so match_buffer
        # may bypass the row machinery for 0/1 candidates.  random
        # ordering and random arbitration draw even from 1-element
        # pools, and level_only draws its tiebreak unconditionally.
        self._single_fast = (
            arbitration == "priority"
            and ordering in ("level_conflict", "conflict_only")
        )

    # ------------------------------------------------------------------

    def match(
        self,
        candidates: Sequence[Sequence[Candidate]],
        rng: np.random.Generator,
    ) -> list[Grant]:
        """Fast pure-Python matching loop.

        Semantically identical to :meth:`match_reference` (the test suite
        checks they agree draw for draw); rebuilt without the numpy
        selection matrix because at router sizes (N=4, C=4) per-call
        numpy overhead dominates the whole simulation.
        """
        n = self.num_ports
        rows: dict[int, list[tuple[int | float, int, int]]] = {}
        for port_cands in candidates:
            for cand in port_cands:
                idx = cand.level * n + cand.out_port
                req = (cand.priority, cand.in_port, cand.vc)
                row = rows.get(idx)
                if row is None:
                    rows[idx] = [req]
                else:
                    row.append(req)
        return self._match_rows(rows, rng)

    def match_buffer(
        self,
        buf: CandidateBuffer,
        rng: np.random.Generator,
    ) -> list[Grant]:
        """Buffer-native matching; draw-for-draw identical to :meth:`match`.

        Rows are filled in the same (port, level) visiting order as the
        object path, and the folded int64 keys order/compare exactly like
        the object-path priorities (the tier bit at 2**62 dominates any
        key < 2**62, just as the ``<< 200`` tier fold dominates on the
        object path), so every rng draw lands on the same request set.
        """
        n = self.num_ports
        max_level = self.levels
        rows: dict[int, list[tuple[int | float, int, int]]] = {}
        if buf.sparse_valid:
            # Python-native rows straight from the sparse fill — no numpy
            # round-trip.  Same (port, level) visiting order and the same
            # folded keys as the array path below.
            deep = buf.levels > max_level
            total = 0
            for p, cands in enumerate(buf.sparse):
                if not cands:
                    continue
                if deep:
                    cands = cands[:max_level]
                total += len(cands)
                for level, (key, vc, out) in enumerate(cands):
                    idx = level * n + out
                    row = rows.get(idx)
                    if row is None:
                        rows[idx] = [(key, p, vc)]
                    else:
                        row.append((key, p, vc))
            if total <= 1 and self._single_fast:
                # 0/1-candidate bypass: drawless under these rules (see
                # __init__), so the grant set — and every rng draw — is
                # identical to the general path.
                if not total:
                    return []
                ((idx, ((_key, p, vc),)),) = rows.items()
                return [(p, vc, idx % n)]
            return self._match_rows(rows, rng)
        counts = buf.count.tolist()
        vcs = buf.vc.tolist()
        outs = buf.out_port.tolist()
        keys = (buf.prio_int if buf.integer_keys else buf.prio_float).tolist()
        for p in range(n):
            vp, op, kp = vcs[p], outs[p], keys[p]
            for level in range(min(counts[p], max_level)):
                idx = level * n + op[level]
                row = rows.get(idx)
                if row is None:
                    rows[idx] = [(kp[level], p, vp[level])]
                else:
                    row.append((kp[level], p, vp[level]))
        return self._match_rows(rows, rng)

    def _match_rows(
        self,
        rows: dict[int, list[tuple[int | float, int, int]]],
        rng: np.random.Generator,
    ) -> list[Grant]:
        """Core matching loop over the present ``level * n + out`` rows.

        ``rows`` maps each row holding at least one request to its
        ``(priority, in_port, vc)`` list, so the work scales with the
        candidates, not with ``levels * ports``.  Conflict counts (live
        requests per row) are maintained incrementally: granting an
        input decrements every row that input requested, instead of
        rescanning all requests each round.  The counts — and therefore
        every rng draw — are identical to the rescanning formulation.
        """
        n = self.num_ports
        in_free = [True] * n
        out_free = [True] * n
        grants: list[Grant] = []
        ordering = self.ordering
        by_priority = self.arbitration == "priority"
        # Present rows in ascending index order: level-major, so the
        # lowest live level is always a prefix (see _pick_row).
        active = sorted(rows)
        # counts[idx] = requests on row idx whose input is still free.
        counts: dict[int, int] = {}
        rows_of_input: list[list[int]] = [[] for _ in range(n)]
        for idx in active:
            row = rows[idx]
            counts[idx] = len(row)
            for _prio, in_port, _vc in row:
                rows_of_input[in_port].append(idx)

        while True:
            # Live rows: requests whose input and output are both free.
            # Counts only decrease, so ``active`` bounds the scan.
            live = [
                (idx, counts[idx])
                for idx in active
                if counts[idx] and out_free[idx % n]
            ]
            if not live:
                break

            row_idx = self._pick_row(live, rng, ordering, n)
            if by_priority and counts[row_idx] == 1:
                # Single live request on the row: it wins outright; the
                # general path below would find one winner and draw no rng
                # either.
                for _prio, in_port, vc in rows[row_idx]:
                    if in_free[in_port]:
                        break
            elif by_priority:
                requests = [
                    (prio, in_port, vc)
                    for prio, in_port, vc in rows[row_idx]
                    if in_free[in_port]
                ]
                best = max(prio for prio, _i, _v in requests)
                winners = [(i, v) for prio, i, v in requests if prio == best]
                if len(winners) == 1:
                    in_port, vc = winners[0]
                else:
                    in_port, vc = winners[int(rng.integers(len(winners)))]
            else:
                requests = [
                    (prio, in_port, vc)
                    for prio, in_port, vc in rows[row_idx]
                    if in_free[in_port]
                ]
                _prio, in_port, vc = requests[int(rng.integers(len(requests)))]
            out_port = row_idx % n
            grants.append((in_port, vc, out_port))
            in_free[in_port] = False
            out_free[out_port] = False
            for idx in rows_of_input[in_port]:
                counts[idx] -= 1
        return grants

    @staticmethod
    def _pick_row(
        live: list[tuple[int, int]],
        rng: np.random.Generator,
        ordering: str,
        n: int,
    ) -> int:
        """Port ordering over the live rows; mirrors `_next_output`.

        ``live`` is ordered by ascending row index (it is built by
        enumerating the rows), so the lowest level present is
        ``live[0][0] // n`` and its rows form a prefix of ``live`` —
        which lets every ordering run as a single early-exiting pass.
        """
        if ordering == "random":
            return live[int(rng.integers(len(live)))][0]
        if len(live) == 1 and ordering != "level_only":
            # One live row: both conflict orderings resolve to it with no
            # draw (level_only still draws even from a 1-element pool).
            return live[0][0]
        if ordering == "conflict_only":
            bound = None
        else:
            bound = (live[0][0] // n + 1) * n
        if ordering == "level_only":
            pool = []
            for idx, _c in live:
                if idx >= bound:
                    break
                pool.append(idx)
            return pool[int(rng.integers(len(pool)))]
        # "level_conflict" (the paper's rule) / "conflict_only": fewest
        # conflicts within the pool, ties broken randomly.
        min_conf = -1
        least: list[int] = []
        for idx, c in live:
            if bound is not None and idx >= bound:
                break
            if min_conf < 0 or c < min_conf:
                min_conf = c
                least = [idx]
            elif c == min_conf:
                least.append(idx)
        if len(least) == 1:
            return least[0]
        return least[int(rng.integers(len(least)))]

    def match_reference(
        self,
        candidates: Sequence[Sequence[Candidate]],
        rng: np.random.Generator,
    ) -> list[Grant]:
        """Reference implementation over the explicit selection matrix.

        Follows the paper's description literally (build matrix, compute
        conflict vector, order, arbitrate, drop, recompute); used by the
        equivalence tests and the Fig. 3 demo.
        """
        matrix = SelectionMatrix.from_candidates(
            candidates, self.num_ports, self.levels
        )
        grants: list[Grant] = []
        while matrix.has_requests():
            level, out_port = self._next_output(matrix, rng)
            in_port, vc = self._grant(matrix, level, out_port, rng)
            grants.append((in_port, vc, out_port))
            matrix.drop_input(in_port)
            matrix.drop_output(out_port)
        return grants

    # ------------------------------------------------------------------

    def _next_output(
        self, matrix: SelectionMatrix, rng: np.random.Generator
    ) -> tuple[int, int]:
        """Port ordering: choose the next (level, output) row to serve."""
        conflicts = matrix.conflict_vector()
        active = np.flatnonzero(conflicts > 0)
        n = self.num_ports
        if self.ordering == "random":
            row = int(active[int(rng.integers(active.size))])
            return row // n, row % n

        levels = active // n
        if self.ordering == "level_only":
            # Lowest level; random among that level's active outputs.
            lowest = active[levels == levels.min()]
            row = int(lowest[int(rng.integers(lowest.size))])
            return row // n, row % n

        if self.ordering == "conflict_only":
            pool = active
        else:  # "level_conflict" — the paper's rule
            pool = active[levels == levels.min()]

        # Fewest conflicts first; random tie-break.
        pool_conflicts = conflicts[pool]
        least = pool[pool_conflicts == pool_conflicts.min()]
        row = int(least[0]) if least.size == 1 else int(least[int(rng.integers(least.size))])
        return row // n, row % n

    def _grant(
        self,
        matrix: SelectionMatrix,
        level: int,
        out_port: int,
        rng: np.random.Generator,
    ) -> tuple[int, int]:
        """Arbitration: choose which request on the selected row wins."""
        requests = matrix.row_requests(level, out_port)
        if not requests:  # pragma: no cover - guarded by conflict_vector
            raise RuntimeError("port ordering selected an empty row")
        if self.arbitration == "random":
            in_port, vc, _ = requests[int(rng.integers(len(requests)))]
            return in_port, vc
        best_prio = max(prio for _i, _v, prio in requests)
        winners = [(i, v) for i, v, prio in requests if prio == best_prio]
        if len(winners) == 1:
            return winners[0]
        return winners[int(rng.integers(len(winners)))]
