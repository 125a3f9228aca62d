"""Per-port object-path link scheduling: the reference the vectorized
paths are pinned to.

``LinkScheduler.select_batch`` ranks every port in one vectorized pass
and ``LinkScheduler.select_into`` fills a ``CandidateBuffer`` from the VC
memory's occupancy mask.  Both must produce exactly the candidates that
ranking each port on its own produces; that per-port ranking lives here,
next to the tests that compare against it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.matching import Candidate
from repro.router.vc_memory import HeadView


def select_port(
    sched,
    port: int,
    heads: HeadView,
    slots: np.ndarray,
    dests: np.ndarray,
    now: int,
    tier_scale: np.ndarray | None = None,
) -> list[Candidate]:
    """Candidates for one input port, ordered by level.

    Parameters
    ----------
    sched:
        The :class:`~repro.core.link_scheduler.LinkScheduler` whose
        scheme and config rank the candidates.
    port:
        Input port index.
    heads:
        Head-flit view of this port's VC memory.
    slots:
        (vcs,) reserved slots per round for each VC (0 where no
        connection is established).
    dests:
        (vcs,) output port of each VC's connection (-1 where none).
    now:
        Current flit cycle; queuing delay = ``now - arrival``.
    tier_scale:
        Optional (vcs,) per-VC tier vector implementing the
        reserved/best-effort hierarchy (``RESERVED_SCALE`` for
        reserved VCs, 1.0 for best-effort).  ``None`` treats every
        VC as one tier.  Float schemes multiply by it; integer
        schemes use it only as the reserved mask (entries > 1).
    """
    occ = heads.occupancy
    eligible = np.flatnonzero(occ > 0)
    if eligible.size == 0:
        return []
    if sched._stateful:
        prio = np.asarray(
            sched.scheme.keys_port(port, occ > 0), dtype=np.int64
        )[eligible]
    else:
        delay = now - heads.arrival_cycle[eligible]
        prio = sched.scheme.compute(slots[eligible], delay)
    c = min(sched.config.candidate_levels, eligible.size)
    reserved = None if tier_scale is None else tier_scale[eligible] > 1.0

    if sched.scheme.integer_valued:
        prio = np.asarray(prio, dtype=np.int64)
        folded = sched._folded_int_keys(prio, reserved)
        # Descending key, ties by ascending VC index (stable argsort
        # over indices already in VC order).
        ranked = np.argsort(-folded, kind="stable")[:c]
        out: list[Candidate] = []
        for level, k in enumerate(ranked):
            vc = int(eligible[k])
            out.append(
                Candidate(
                    in_port=port,
                    vc=vc,
                    out_port=int(dests[vc]),
                    priority=sched._object_priority(
                        int(prio[k]),
                        bool(reserved[k]) if reserved is not None else False,
                    ),
                    level=level,
                )
            )
        return out

    prio = prio.astype(np.float64)
    if tier_scale is not None:
        prio = prio * tier_scale[eligible]
    if eligible.size > c:
        # Top-C by priority; stable ordering resolved by the sort below.
        top = np.argpartition(-prio, c - 1)[:c]
    else:
        top = np.arange(eligible.size)
    # Order the winners by descending priority; break ties by VC index
    # (deterministic, mirrors a fixed-priority encoder in hardware).
    order = np.lexsort((eligible[top], -prio[top]))
    ranked = top[order]
    out = []
    for level, k in enumerate(ranked):
        vc = int(eligible[k])
        out.append(
            Candidate(
                in_port=port,
                vc=vc,
                out_port=int(dests[vc]),
                priority=float(prio[k]),
                level=level,
            )
        )
    return out


def select_all(
    sched,
    heads_per_port: Sequence[HeadView],
    slots: np.ndarray,
    dests: np.ndarray,
    now: int,
    tier_scale: np.ndarray | None = None,
) -> list[list[Candidate]]:
    """Candidates for every input port (per-port reference path).

    ``slots``/``dests`` are the (ports, vcs) connection-table arrays.
    """
    return [
        select_port(
            sched,
            p,
            heads_per_port[p],
            slots[p],
            dests[p],
            now,
            tier_scale[p] if tier_scale is not None else None,
        )
        for p in range(sched.config.num_ports)
    ]
