"""Fabric churn timelines: sessions between (router, port) endpoints.

The single-router churn generator draws sessions per input port of one
switch; the fabric generalisation draws them per *host port of every
host-attached router* in a topology, with a destination (router, port)
pair picked uniformly over the other host routers.  Everything else —
holding times, class bodies, injection schedules — reuses the
single-router machinery (:func:`repro.sessions.churn.make_session_spec`),
so the two generators stay statistically comparable.

Determinism contract (same as the single-router timeline): the whole
timeline is drawn up front from the ``sessions`` RNG stream, routers in
id order and ports in index order; a zero arrival rate draws nothing at
all, which is what makes zero-churn fabric runs bit-identical to plain
:class:`~repro.network.multirouter.MultiRouterNetwork` runs.

VBR note: per-GOP peak renegotiation is a single-router protocol (one
admission controller); a multi-hop renegotiation would need an atomic
commit across every hop's ledger.  Fabric sessions therefore reserve
their lifetime peak on every hop (``renegotiate`` is forced off when the
class body is drawn — the draw order, and hence every other session's
schedule, is unchanged).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..network.topology import Topology
from ..router.config import RouterConfig
from ..sessions.churn import (
    ChurnConfig,
    SessionSpec,
    _draw_class,
    make_session_spec,
    mean_arrival_gap,
)

__all__ = ["FabricSession", "generate_fabric_timeline"]


@dataclass
class FabricSession:
    """One timeline entry: a session body plus its router endpoints.

    ``spec.in_port`` / ``spec.out_port`` are host ports of
    ``src_router`` / ``dst_router`` respectively.
    """

    src_router: int
    dst_router: int
    spec: SessionSpec


def generate_fabric_timeline(
    topology: Topology,
    hosts: Sequence[int],
    config: RouterConfig,
    churn: ChurnConfig,
    horizon_cycles: int,
    rng: np.random.Generator,
) -> list[FabricSession]:
    """Generate the fabric churn timeline, sorted by arrival.

    ``hosts`` are the host-attached routers (every router for the flat
    topologies; the edge stage of a fat-tree).  Each of their host ports
    runs its own Poisson arrival process off the shared stream; per
    arrival the draw order is fixed: destination router, destination
    port, then the session body.
    """
    if horizon_cycles <= 0:
        raise ValueError("horizon_cycles must be positive")
    hosts = list(hosts)
    if len(hosts) < 2:
        raise ValueError("a fabric timeline needs at least 2 host routers")
    gap = mean_arrival_gap(churn.arrivals_per_kcycle)
    if gap is None:
        return []
    churn = dataclasses.replace(churn, renegotiate=False)
    drafts: list[FabricSession] = []
    for src_index, src in enumerate(hosts):
        degree = topology.degree(src)
        for port in range(degree, config.num_ports):
            t = 0.0
            while True:
                t += rng.exponential(gap)
                if t >= horizon_cycles:
                    break
                arrival = int(t)
                # Uniform over the other host routers: draw an index into
                # the list with the source excluded, then skip past it.
                dst_index = int(rng.integers(len(hosts) - 1))
                if dst_index >= src_index:
                    dst_index += 1
                dst = hosts[dst_index]
                dst_degree = topology.degree(dst)
                out_port = dst_degree + int(
                    rng.integers(config.num_ports - dst_degree)
                )
                cls_name = _draw_class(churn, rng)
                spec = make_session_spec(
                    len(drafts),
                    port,
                    out_port,
                    arrival,
                    cls_name,
                    config,
                    churn,
                    rng,
                )
                drafts.append(FabricSession(src, dst, spec))
    drafts.sort(
        key=lambda fs: (
            fs.spec.arrival_cycle,
            fs.src_router,
            fs.spec.in_port,
            fs.spec.sid,
        )
    )
    for sid, fs in enumerate(drafts):
        fs.spec.sid = sid
    return drafts
