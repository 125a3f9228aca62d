"""Multi-router MMR networks (the paper's §6 "future work" extension).

The paper evaluates a single MMR and explicitly defers the multi-router
study ("this study must be further extended to a network composed of
several MMRs").  This module builds that extension on the same
subsystems: every node is a full :class:`~repro.router.MMRouter`; routers
are wired by a :class:`~repro.network.topology.Topology`; connections are
set up hop by hop with pipelined circuit switching (a VC and a bandwidth
reservation on every traversed link, as the MMR's probe would do); and
credit-based flow control covers the inter-router links exactly as it
covers the NIC links.

Port convention: on a router of degree ``d``, ports ``0..d-1`` are the
inter-router links (indexed by the topology's port map) and the remaining
ports attach host NICs.

Scheduling detail: a head flit bound for a downstream router may only
compete for the crossbar when the downstream VC buffer has space (the
upstream router holds its credits).  The network step therefore filters
the link scheduler's candidates by downstream credit before arbitration
(:meth:`~repro.core.candidates.CandidateBuffer.retain`, after the
top-``candidate_levels`` truncation) — the same eligibility rule the NIC
link controller applies on the host links.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..faults.models import FaultKind
from ..faults.schedule import FaultSchedule
from ..router.config import RouterConfig
from ..router.connection import Connection, TrafficClass
from ..router.router import MMRouter
from ..sim.engine import generator_fingerprint, router_rng
from ..sim.metrics import StreamingStat
from .topology import Topology

__all__ = [
    "NetworkConnection",
    "MultiRouterNetwork",
    "RouterShard",
    "merge_delay_parts",
]


def merge_delay_parts(
    parts: "list[tuple[int, float, float]]",
) -> tuple[int, float, float]:
    """Fold per-router ``(n, total, max)`` delay parts in list order.

    The fixed merge order behind the sharded-execution identity
    contract: serial per-router runs and sharded runs both fold their
    per-router accumulators in ascending router-id order, so the float
    sums come out bit-identical on both sides.
    """
    n = 0
    total = 0.0
    mx = float("-inf")
    for pn, ptotal, pmax in parts:
        n += pn
        total += ptotal
        if pmax > mx:
            mx = pmax
    return n, total, mx


@dataclass(frozen=True)
class NetworkConnection:
    """A multi-hop connection: one Connection (VC + reservation) per hop."""

    net_conn_id: int
    src_router: int
    dst_router: int
    router_path: tuple[int, ...]
    hops: tuple[Connection, ...]
    avg_slots: int
    peak_slots: int

    @property
    def num_hops(self) -> int:
        return len(self.hops)


class MultiRouterNetwork:
    """A network of MMRs with PCS setup and credit-controlled links."""

    def __init__(
        self,
        topology: Topology,
        config: RouterConfig,
        arbiter: str = "coa",
        scheme: str = "siabp",
        schedule: FaultSchedule | None = None,
        owned: "frozenset[int] | set[int] | None" = None,
        per_router_stats: bool = False,
    ) -> None:
        if config.num_ports <= topology.max_degree():
            raise ValueError(
                f"config.num_ports ({config.num_ports}) must exceed the "
                f"topology's max degree ({topology.max_degree()}) to leave "
                "host ports"
            )
        self.topology = topology
        self.config = config
        self.routers = [
            MMRouter(config, arbiter, scheme) for _ in range(topology.num_routers)
        ]
        #: Routers this instance data-plane-steps.  Control operations
        #: (establish/release/ledgers) always span every router; only
        #: stepping, injection, and buffered-flit accounting restrict to
        #: the owned set.  Default: all routers (serial execution).
        if owned is None:
            self.owned = frozenset(range(topology.num_routers))
        else:
            self.owned = frozenset(owned)
            bad = self.owned - set(range(topology.num_routers))
            if bad:
                raise ValueError(f"owned routers out of range: {sorted(bad)}")
        self._owned_order = sorted(self.owned)
        self._all_owned = len(self.owned) == topology.num_routers
        #: Boundary egress: flits / credit returns whose destination
        #: router another shard owns, accumulated between barriers.
        #: Flit record: (arrival_cycle, router, in_port, vc, gen,
        #: frame_id, frame_last); credit record: (cycle, router,
        #: out_port, vc).
        self._egress_flits: list[tuple] = []
        self._egress_credits: list[tuple[int, int, int, int]] = []
        #: Per-router end-to-end delay accumulators (per-router-RNG
        #: mode).  When set, delivered-flit delays accumulate per
        #: ejecting router instead of in ``end_to_end_delay``, so the
        #: aggregate can be folded in a fixed router-id order no matter
        #: how routers interleaved chronologically (see
        #: :func:`merge_delay_parts`).
        self._delay_by_router = (
            [StreamingStat() for _ in self.routers] if per_router_stats else None
        )
        # Inter-router credits: (router, out_port) -> per-VC counters at
        # the *upstream* side mirroring the downstream buffer space
        # (plain int lists: the hot path reads and bumps one per flit).
        self._link_credits: dict[tuple[int, int], list[int]] = {}
        # (router, out_port) -> (downstream router, downstream in_port)
        self._link_dest: dict[tuple[int, int], tuple[int, int]] = {}
        # (router, in_port) -> (upstream router, upstream out_port)
        self._upstream_of: dict[tuple[int, int], tuple[int, int]] = {}
        for (u, v), port in topology.port_map.items():
            self._link_credits[(u, port)] = (
                [config.vc_buffer_depth] * config.vcs_per_link
            )
            down_port = topology.port_map[(v, u)]
            self._link_dest[(u, port)] = (v, down_port)
            self._upstream_of[(v, down_port)] = (u, port)
        self._degree = [topology.degree(r) for r in range(topology.num_routers)]
        # In-flight inter-router flits: arrival_cycle -> list of
        # (router, in_port, vc, gen_cycle, frame_id, frame_last).
        self._in_flight: dict[int, list[tuple[int, int, int, int, int, bool]]] = {}
        # In-flight inter-router credit returns.
        self._credit_returns: dict[int, list[tuple[int, int, int]]] = {}
        self._connections: list[NetworkConnection] = []
        # (router, in_port, vc) -> (net_conn, hop_index)
        self._hop_lookup: dict[tuple[int, int, int], tuple[NetworkConnection, int]] = {}
        # Per-router credit gate: (in_port, vc) -> (credit list of the
        # hop's output link, downstream VC) for every hop that leaves
        # over an inter-router link.  Written and popped together with
        # ``_hop_lookup``; read by the eligibility step and the
        # departure router.
        self._gates: list[dict[tuple[int, int], tuple[list[int], int]]] = [
            {} for _ in self.routers
        ]
        self._keeps = [
            self._credit_keep(rid) for rid in range(topology.num_routers)
        ]
        # (src, dst) -> shortest router path; cleared on any failure so
        # cached paths never route through dead elements.
        self._path_cache: dict[tuple[int, int], list[int]] = {}
        #: End-to-end delay since generation, in cycles.
        self.end_to_end_delay = StreamingStat()
        self.delivered = 0
        #: Per-connection delivered-flit counts (net_conn_id -> flits).
        self.delivered_by_conn: dict[int, int] = {}
        #: Optional fault-event log (see :mod:`repro.faults`).
        self.schedule = schedule
        #: Failed routers / directed links (see :meth:`fail_router`,
        #: :meth:`fail_link`).  Dead elements are skipped by the cycle
        #: loop and excluded from path search.
        self.dead_routers: set[int] = set()
        self.dead_links: set[tuple[int, int]] = set()
        #: Flits destroyed by failures (in dead routers/links, drained at
        #: teardown, or injected into a dropped connection).
        self.lost_flits = 0
        #: Connections successfully rerouted around a failure.
        self.rerouted = 0
        #: Connections dropped because no alternative path admitted them.
        self.dropped_connections = 0
        self._dropped_ids: set[int] = set()
        #: Connections gracefully released (see :meth:`release`).
        self.released_connections = 0
        self._released_ids: set[int] = set()

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------

    def host_ports(self, router: int) -> list[int]:
        """Ports of a router that attach host NICs."""
        degree = self.topology.degree(router)
        return list(range(degree, self.config.num_ports))

    def first_host_port(self, router: int) -> int:
        return self.topology.degree(router)

    # ------------------------------------------------------------------
    # PCS setup
    # ------------------------------------------------------------------

    def shortest_path_cached(self, src_router: int, dst_router: int) -> list[int]:
        """Shortest surviving path, memoised until the next failure."""
        key = (src_router, dst_router)
        path = self._path_cache.get(key)
        if path is None:
            path = self.topology.shortest_path(
                src_router, dst_router, self.dead_routers, self.dead_links
            )
            self._path_cache[key] = path
        return list(path)

    def establish(
        self,
        src_router: int,
        dst_router: int,
        traffic_class: TrafficClass = TrafficClass.CBR,
        avg_slots: int = 1,
        peak_slots: int | None = None,
    ) -> NetworkConnection | None:
        """Set up a connection along the shortest path, or roll back.

        The source injects at the first host port of ``src_router``; the
        flow ejects at the first host port of ``dst_router``.  Returns
        ``None`` (with every partial reservation released) if any hop
        rejects — the PCS probe would backtrack the same way.
        """
        path = self.shortest_path_cached(src_router, dst_router)
        net_conn, _blocked = self.establish_along(
            path, traffic_class, avg_slots, peak_slots
        )
        return net_conn

    def establish_along(
        self,
        path: list[int],
        traffic_class: TrafficClass = TrafficClass.CBR,
        avg_slots: int = 1,
        peak_slots: int | None = None,
        src_port: int | None = None,
        dst_port: int | None = None,
    ) -> tuple[NetworkConnection | None, int]:
        """Set up a connection along an explicit router path, or roll back.

        ``src_port`` / ``dst_port`` pick the host ports at the endpoints
        (default: the first host port of each).  Returns ``(conn, -1)``
        on success, or ``(None, hop_index)`` naming the hop whose
        admission test rejected — the caller can retry over an alternate
        path (blocked-at-hop re-admission).
        """
        net_conn, blocked = self._establish_along(
            path,
            len(self._connections),
            traffic_class,
            avg_slots,
            peak_slots,
            src_port=src_port,
            dst_port=dst_port,
        )
        if net_conn is not None:
            self._connections.append(net_conn)
        return net_conn, blocked

    def _establish_along(
        self,
        path: list[int],
        net_conn_id: int,
        traffic_class: TrafficClass,
        avg_slots: int,
        peak_slots: int | None,
        src_port: int | None = None,
        dst_port: int | None = None,
    ) -> tuple[NetworkConnection | None, int]:
        """Reserve one hop per router along ``path``, or roll back.

        Returns ``(conn, -1)`` or ``(None, index_of_rejecting_hop)``.
        """
        src_router, dst_router = path[0], path[-1]
        if len(path) < 2 and src_router != dst_router:
            raise ValueError("path must traverse at least one link")
        degree = self.topology.degree
        for label, router, port in (
            ("src_port", src_router, src_port),
            ("dst_port", dst_router, dst_port),
        ):
            if port is not None and not (
                degree(router) <= port < self.config.num_ports
            ):
                raise ValueError(
                    f"{label}={port} is not a host port of router {router} "
                    f"(host ports are {degree(router)}.."
                    f"{self.config.num_ports - 1})"
                )
        hops: list[Connection] = []
        in_port = (
            src_port if src_port is not None else self.first_host_port(src_router)
        )
        for idx, router_id in enumerate(path):
            if idx + 1 < len(path):
                out_port = self.topology.port_toward(router_id, path[idx + 1])
            elif dst_port is not None:
                out_port = dst_port
            else:
                out_port = self.first_host_port(router_id)
            result = self.routers[router_id].establish(
                in_port, out_port, traffic_class, avg_slots, peak_slots
            )
            if not result.accepted:
                for back_idx, conn in enumerate(hops):
                    self.routers[path[back_idx]].teardown(conn.conn_id)
                return None, idx
            hops.append(result.connection)
            if idx + 1 < len(path):
                next_router = path[idx + 1]
                in_port = self.topology.port_toward(next_router, router_id)
        net_conn = NetworkConnection(
            net_conn_id=net_conn_id,
            src_router=src_router,
            dst_router=dst_router,
            router_path=tuple(path),
            hops=tuple(hops),
            avg_slots=avg_slots,
            peak_slots=peak_slots if peak_slots is not None else avg_slots,
        )
        last = len(hops) - 1
        for hop_idx, conn in enumerate(hops):
            router_id = path[hop_idx]
            self._hop_lookup[(router_id, conn.in_port, conn.vc)] = (
                net_conn,
                hop_idx,
            )
            if hop_idx < last:
                self._gates[router_id][(conn.in_port, conn.vc)] = (
                    self._link_credits[(router_id, conn.out_port)],
                    hops[hop_idx + 1].vc,
                )
        return net_conn, -1

    def _credit_keep(self, router_id: int):
        """The eligibility rule of one router, for ``CandidateBuffer.retain``.

        A candidate bound for a host port always passes (the sink always
        drains); one bound for an inter-router link passes while its
        downstream VC has a link credit.  A link-bound candidate with no
        gate entry is ineligible.
        """
        gate = self._gates[router_id]
        on_link = [
            (router_id, port) in self._link_credits
            for port in range(self.config.num_ports)
        ]

        def keep(in_port: int, vc: int, out_port: int) -> bool:
            if not on_link[out_port]:
                return True
            entry = gate.get((in_port, vc))
            if entry is None:  # pragma: no cover - defensive
                return False
            credits, down_vc = entry
            return credits[down_vc] > 0

        return keep

    @property
    def connections(self) -> list[NetworkConnection]:
        return list(self._connections)

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------

    def inject(
        self,
        net_conn: NetworkConnection,
        gen_cycle: int,
        frame_id: int = -1,
        frame_last: bool = False,
    ) -> None:
        """Deposit one flit at the source NIC of a network connection.

        Looks the connection up by id so callers holding a reference from
        before a reroute still inject into the *current* first-hop VC.
        Flits offered to a dropped connection are counted lost.
        """
        if (
            net_conn.net_conn_id in self._dropped_ids
            or net_conn.net_conn_id in self._released_ids
        ):
            self.lost_flits += 1
            return
        net_conn = self._connections[net_conn.net_conn_id]
        first = net_conn.hops[0]
        self.routers[net_conn.src_router].nics[first.in_port].inject(
            first.vc, gen_cycle, frame_id, frame_last
        )

    # ------------------------------------------------------------------
    # Cycle loop
    # ------------------------------------------------------------------

    def step(self, now: int, rng: np.random.Generator) -> None:
        """Advance the whole network by one flit cycle."""
        self._deliver_in_flight(now)
        self._deliver_credit_returns(now)
        for router_id, router in enumerate(self.routers):
            if router_id in self.dead_routers:
                continue
            self._step_router(router_id, router, now, rng)

    def step_owned(self, now: int, rngs: "list") -> None:
        """Advance only the owned routers, each on its own arbiter stream.

        The per-router-RNG twin of :meth:`step`: ``rngs`` is indexed by
        router id (entries for non-owned routers are never consulted), so
        the grant sequence of any router is independent of which shard
        steps it — the determinism half of the sharding contract.
        """
        self._deliver_in_flight(now)
        self._deliver_credit_returns(now)
        dead = self.dead_routers
        routers = self.routers
        for router_id in self._owned_order:
            if router_id in dead:
                continue
            self._step_router(router_id, routers[router_id], now, rngs[router_id])

    def _step_router(
        self, router_id: int, router: MMRouter, now: int, rng
    ) -> None:
        """One cycle of one router — the RouterShard stepping core."""
        if not router.vc_memory._occ_mask:
            # Every VC empty: nothing to schedule (the step_quiet
            # contract, pinned by the skip twin tests).
            router.step_quiet(now)
            return
        router.credits.deliver(now)
        buf = router._link_schedule_into(now)
        buf.retain(self._keeps[router_id])
        grants = router.arbiter.match_buffer(buf, rng)
        departures = router.crossbar.transfer(grants, router.vc_memory, now)
        if router.scheme_stateful and departures:
            router.notify_service(departures, now)
        degree = self._degree[router_id]
        for dep in departures:
            if dep.in_port < degree:
                # Flit arrived over an inter-router link: return the
                # credit to the upstream router's output side.
                self._return_link_credit(router_id, dep.in_port, dep.vc, now)
            else:
                # Flit arrived from a host NIC: NIC-side credit.
                router.credits.schedule_return(dep.in_port, dep.vc, now)
            self._route_departure(router_id, dep, now)
        router._accept_from_nics(now)

    def _route_departure(self, router_id: int, dep, now: int) -> None:
        key = (router_id, dep.out_port)
        dest = self._link_dest.get(key)
        if dest is None:
            # Ejected at a host port: the flit left the network.
            self.delivered += 1
            delay = now - dep.gen_cycle + 1
            if self._delay_by_router is None:
                self.end_to_end_delay.add(delay)
            else:
                self._delay_by_router[router_id].add(delay)
            eject = self._hop_lookup.get((router_id, dep.in_port, dep.vc))
            if eject is not None:
                cid = eject[0].net_conn_id
                self.delivered_by_conn[cid] = self.delivered_by_conn.get(cid, 0) + 1
            return
        entry = self._gates[router_id].get((dep.in_port, dep.vc))
        down_router, down_port = dest
        if entry is None or down_router in self.dead_routers:
            # The connection was torn down (or its next hop died) while
            # this flit was in the crossbar: it has nowhere to go.
            self.lost_flits += 1
            return
        credits, down_vc = entry
        credits[down_vc] -= 1
        if credits[down_vc] < 0:
            raise RuntimeError("inter-router credit underflow")
        # One cycle of link traversal.
        if self._all_owned or down_router in self.owned:
            self._in_flight.setdefault(now + 1, []).append(
                (down_router, down_port, down_vc, dep.gen_cycle, dep.frame_id,
                 dep.frame_last)
            )
        else:
            # Boundary crossing: another shard owns the destination —
            # hold the flit in egress until the next barrier flush.
            self._egress_flits.append(
                (now + 1, down_router, down_port, down_vc, dep.gen_cycle,
                 dep.frame_id, dep.frame_last)
            )

    def _deliver_in_flight(self, now: int) -> None:
        arrivals = self._in_flight.pop(now, None)
        if not arrivals:
            return
        for router, in_port, vc, gen, frame_id, frame_last in arrivals:
            if router in self.dead_routers:
                self.lost_flits += 1
                continue
            self.routers[router].vc_memory.push(
                in_port, vc, gen, frame_id, frame_last, now
            )

    def _deliver_credit_returns(self, now: int) -> None:
        returns = self._credit_returns.pop(now, None)
        if not returns:
            return
        for router, out_port, vc in returns:
            self._link_credits[(router, out_port)][vc] += 1

    def _return_link_credit(self, router: int, in_port: int, vc: int, now: int):
        """Called when a flit leaves a downstream buffer that an upstream
        router holds credits for."""
        u, port = self._upstream_of[(router, in_port)]
        cycle = now + self.config.credit_return_delay
        if self._all_owned or u in self.owned:
            self._credit_returns.setdefault(cycle, []).append((u, port, vc))
        else:
            # The upstream side of this link lives in another shard.
            self._egress_credits.append((cycle, u, port, vc))

    # ------------------------------------------------------------------
    # Fault injection and recovery (see repro.faults)
    # ------------------------------------------------------------------

    def fail_link(self, u: int, v: int, now: int = 0) -> None:
        """Kill the bidirectional link between ``u`` and ``v``.

        Every connection routed over it (in either direction) is torn
        down and rerouted along the shortest surviving path; connections
        no surviving path can admit are dropped.
        """
        if (u, v) not in self.topology.port_map:
            raise ValueError(f"no link {u} <-> {v} in the topology")
        if (u, v) in self.dead_links:
            return
        self.dead_links.add((u, v))
        self.dead_links.add((v, u))
        self._path_cache.clear()
        if self.schedule is not None:
            self.schedule.record(now, FaultKind.DEAD_LINK, f"link={u}<->{v}")
        victims = [
            conn
            for conn in self._connections
            if conn.net_conn_id not in self._dropped_ids
            and self._uses_link(conn, u, v)
        ]
        for conn in victims:
            self._reroute(conn, now)

    def fail_router(self, router_id: int, now: int = 0) -> None:
        """Kill a whole router: it stops stepping, its links go dark.

        Connections traversing it are rerouted; connections sourced or
        sunk at it are unrecoverable and dropped.
        """
        if not (0 <= router_id < self.topology.num_routers):
            raise ValueError(f"router {router_id} out of range")
        if router_id in self.dead_routers:
            return
        self.dead_routers.add(router_id)
        self._path_cache.clear()
        for neighbor in self.topology.neighbors(router_id):
            self.dead_links.add((router_id, neighbor))
            self.dead_links.add((neighbor, router_id))
        if self.schedule is not None:
            self.schedule.record(now, FaultKind.DEAD_ROUTER, f"router={router_id}")
        victims = [
            conn
            for conn in self._connections
            if conn.net_conn_id not in self._dropped_ids
            and router_id in conn.router_path
        ]
        for conn in victims:
            if router_id in (conn.src_router, conn.dst_router):
                self._drop(conn, now, reason="endpoint_dead")
            else:
                self._reroute(conn, now)

    # ------------------------------------------------------------------

    def _uses_link(self, conn: NetworkConnection, u: int, v: int) -> bool:
        path = conn.router_path
        for a, b in zip(path, path[1:]):
            if (a, b) in ((u, v), (v, u)):
                return True
        return False

    def _teardown_hops(self, conn: NetworkConnection) -> list:
        """Release every hop of a connection; returns its NIC backlog.

        Router-buffered and link-in-flight flits are unrecoverable (the
        path is broken) and counted in ``lost_flits``; upstream link
        credits are resynchronised to full for freed VCs on surviving
        links, so those VCs are immediately reusable.
        """
        path = conn.router_path
        depth = self.config.vc_buffer_depth
        src = self.routers[path[0]]
        first = conn.hops[0]
        backlog = src.nics[first.in_port].drain(first.vc)
        for hop_idx, hop in enumerate(conn.hops):
            router_id = path[hop_idx]
            router = self.routers[router_id]
            self._hop_lookup.pop((router_id, hop.in_port, hop.vc), None)
            self._gates[router_id].pop((hop.in_port, hop.vc), None)
            _, dropped = router.force_teardown(hop.conn_id, restore_credits=False)
            self.lost_flits += dropped
            if hop_idx == 0:
                # Host-side input: the NIC credit state owns this VC.
                router.credits.reset_vc(hop.in_port, hop.vc)
                continue
            # Inter-router input: purge flits still flying on the
            # upstream link, drop pending credit returns, and resync the
            # upstream credit counter to full (the downstream buffer is
            # now empty by construction).
            up_router = path[hop_idx - 1]
            up_key = (up_router, conn.hops[hop_idx - 1].out_port)
            for cycle, arrivals in list(self._in_flight.items()):
                kept = [
                    a
                    for a in arrivals
                    if a[:3] != (router_id, hop.in_port, hop.vc)
                ]
                if len(kept) != len(arrivals):
                    self.lost_flits += len(arrivals) - len(kept)
                    if kept:
                        self._in_flight[cycle] = kept
                    else:
                        del self._in_flight[cycle]
            for cycle, returns in list(self._credit_returns.items()):
                kept = [r for r in returns if r != (*up_key, hop.vc)]
                if len(kept) != len(returns):
                    if kept:
                        self._credit_returns[cycle] = kept
                    else:
                        del self._credit_returns[cycle]
            self._link_credits[up_key][hop.vc] = depth
        return backlog

    def _drop(self, conn: NetworkConnection, now: int, reason: str) -> None:
        backlog = self._teardown_hops(conn)
        self.lost_flits += len(backlog)
        self._dropped_ids.add(conn.net_conn_id)
        self.dropped_connections += 1
        if self.schedule is not None:
            self.schedule.record(
                now,
                FaultKind.CONN_DROPPED,
                f"conn={conn.net_conn_id}",
                f"reason={reason} backlog={len(backlog)}",
            )

    def _reroute(self, conn: NetworkConnection, now: int) -> bool:
        """Move one connection onto the shortest surviving path.

        Keeps the ``net_conn_id`` (the flow's identity survives the
        failure) and migrates the source NIC backlog onto the new first
        hop.  Returns ``False`` — and drops the connection — when no
        surviving path can admit the reservation.
        """
        try:
            path = self.shortest_path_cached(conn.src_router, conn.dst_router)
        except ValueError:
            self._drop(conn, now, reason="no_path")
            return False
        backlog = self._teardown_hops(conn)
        traffic_class = conn.hops[0].traffic_class
        replacement, _blocked = self._establish_along(
            path,
            conn.net_conn_id,
            traffic_class,
            conn.avg_slots,
            conn.peak_slots,
            src_port=conn.hops[0].in_port,
            dst_port=conn.hops[-1].out_port,
        )
        if replacement is None:
            self.lost_flits += len(backlog)
            self._dropped_ids.add(conn.net_conn_id)
            self.dropped_connections += 1
            if self.schedule is not None:
                self.schedule.record(
                    now,
                    FaultKind.CONN_DROPPED,
                    f"conn={conn.net_conn_id}",
                    f"reason=admission backlog={len(backlog)}",
                )
            return False
        self._connections[conn.net_conn_id] = replacement
        first = replacement.hops[0]
        self.routers[replacement.src_router].nics[first.in_port].requeue(
            first.vc, backlog
        )
        self.rerouted += 1
        if self.schedule is not None:
            self.schedule.record(
                now,
                FaultKind.REROUTE,
                f"conn={conn.net_conn_id}",
                f"path={'->'.join(map(str, path))}",
            )
        return True

    # ------------------------------------------------------------------
    # Graceful teardown (fabric session lifecycle)
    # ------------------------------------------------------------------

    def connection_empty(self, conn: NetworkConnection) -> bool:
        """True when no flit of this connection remains anywhere.

        Checks the source NIC queue, every traversed VC buffer, and the
        inter-router in-flight sets — the fabric teardown signal only
        fires once the flow has fully drained.
        """
        if conn.net_conn_id in self._dropped_ids | self._released_ids:
            return True
        conn = self._connections[conn.net_conn_id]
        path = conn.router_path
        first = conn.hops[0]
        if self.routers[path[0]].nics[first.in_port].queue_length(first.vc):
            return False
        for hop_idx, hop in enumerate(conn.hops):
            router = self.routers[path[hop_idx]]
            if router.vc_memory.occupancy_of(hop.in_port, hop.vc):
                return False
        keys = {
            (path[i], hop.in_port, hop.vc) for i, hop in enumerate(conn.hops)
        }
        for arrivals in self._in_flight.values():
            for a in arrivals:
                if a[:3] in keys:
                    return False
        return True

    def release(self, conn: NetworkConnection) -> None:
        """Gracefully tear down a connection along every hop.

        Unlike the fault path this is a planned release (session end):
        the connection id is retired so later injections are refused, but
        it does not count as dropped.  Flits still buffered at release
        time are counted lost, so callers should drain first (see
        :meth:`connection_empty`).
        """
        if conn.net_conn_id in self._dropped_ids | self._released_ids:
            return
        conn = self._connections[conn.net_conn_id]
        backlog = self._teardown_hops(conn)
        self.lost_flits += len(backlog)
        self._released_ids.add(conn.net_conn_id)
        self.released_connections += 1

    # ------------------------------------------------------------------

    def total_buffered(self) -> int:
        """Flits inside all routers, NICs, and links."""
        buffered = sum(r.buffered_flits() + r.nic_backlog() for r in self.routers)
        in_flight = sum(len(v) for v in self._in_flight.values())
        return buffered + in_flight

    def local_buffered(self) -> int:
        """Flits in owned routers/NICs, local links, and pending egress.

        The shard-scoped :meth:`total_buffered`: summed over all shards
        (plus flits the coordinator holds between flush and re-delivery)
        it equals the serial reference's global count.
        """
        routers = self.routers
        buffered = sum(
            routers[rid].buffered_flits() + routers[rid].nic_backlog()
            for rid in self._owned_order
        )
        in_flight = sum(len(v) for v in self._in_flight.values())
        return buffered + in_flight + len(self._egress_flits)

    def delay_summary(self) -> tuple[int, float, float]:
        """``(n, total, max)`` of end-to-end delay, stats-mode independent.

        Per-router mode folds the per-router accumulators in router-id
        order (:func:`merge_delay_parts`); plain mode reads the single
        global accumulator.  ``total / n`` equals ``StreamingStat.mean``
        exactly in plain mode, so existing payload bytes are unchanged.
        """
        if self._delay_by_router is None:
            stat = self.end_to_end_delay
            return stat.n, stat.total, stat.max
        return merge_delay_parts(
            [(s.n, s.total, s.max) for s in self._delay_by_router]
        )

    def router_delay_parts(self) -> list[tuple[int, int, float, float]]:
        """Owned routers' ``(router_id, n, total, max)`` delay parts."""
        if self._delay_by_router is None:
            raise RuntimeError("router_delay_parts needs per_router_stats")
        out = []
        for rid in self._owned_order:
            s = self._delay_by_router[rid]
            out.append((rid, s.n, s.total, s.max))
        return out

    # ------------------------------------------------------------------
    # Shard boundary exchange + event skipping
    # ------------------------------------------------------------------

    def flush_egress(self) -> tuple[list[tuple], list[tuple]]:
        """Take (and clear) the boundary flit/credit egress buffers."""
        flits, credits = self._egress_flits, self._egress_credits
        self._egress_flits = []
        self._egress_credits = []
        return flits, credits

    def apply_boundary_flits(self, flits: "list[tuple]") -> None:
        """Import boundary flits flushed by neighbouring shards.

        The coordinator sorts imports canonically before delivery;
        within one arrival cycle the records commute (each names a
        distinct ``(router, in_port, vc)`` VC queue — crossbar matchings
        grant an output port at most once per cycle), so merge order is
        state-identical to the serial loop's chronological appends.
        """
        in_flight = self._in_flight
        for cycle, router, in_port, vc, gen, frame_id, frame_last in flits:
            in_flight.setdefault(cycle, []).append(
                (router, in_port, vc, gen, frame_id, frame_last)
            )

    def apply_boundary_credits(
        self, credits: "list[tuple[int, int, int, int]]"
    ) -> None:
        """Import boundary credit returns (commutative ``+= 1`` lands)."""
        returns = self._credit_returns
        for cycle, router, out_port, vc in credits:
            returns.setdefault(cycle, []).append((router, out_port, vc))

    def shard_idle(self) -> bool:
        """True when every live owned router is idle (O(owned) bitmasks)."""
        dead = self.dead_routers
        routers = self.routers
        for rid in self._owned_order:
            if rid not in dead and not routers[rid].is_idle():
                return False
        return True

    def next_delivery_cycle(self, default: int) -> int:
        """Earliest pending link-delivery or credit-land cycle."""
        nxt = default
        if self._in_flight:
            c = min(self._in_flight)
            if c < nxt:
                nxt = c
        if self._credit_returns:
            c = min(self._credit_returns)
            if c < nxt:
                nxt = c
        return nxt

    def fast_forward(self, span: int) -> None:
        """Advance owned routers across ``span`` provably idle cycles.

        Callers must have established that no owned router holds a flit
        (:meth:`shard_idle`) and that no delivery lands inside the span
        (:meth:`next_delivery_cycle`): then each skipped cycle would only
        have rotated arbiter fairness state and the crossbar cycle
        counter, both of which advance analytically here.  NIC credit
        lands need nothing — ``CreditState.deliver`` drains every
        land-cycle at or before ``now`` on the next real step.
        """
        if span <= 0:
            return
        dead = self.dead_routers
        routers = self.routers
        for rid in self._owned_order:
            if rid in dead:
                continue
            router = routers[rid]
            router.arbiter.skip_idle_cycles(span)
            router.crossbar.cycles += span

    def run(self, cycles: int, rng: np.random.Generator) -> None:
        for now in range(cycles):
            self.step(now, rng)


class RouterShard:
    """Shared-nothing stepping core over the owned routers of a network.

    Binds a :class:`MultiRouterNetwork` (built with an ``owned`` subset —
    possibly all routers, which is the serial reference) to per-router
    arbiter streams derived from ``(seed, router_id)`` via
    :func:`repro.sim.engine.router_rng`.  Because streams are keyed by
    router id and never by shard layout, and boundary traffic is merged
    in canonical order, a partitioned run reproduces the serial per-router
    run byte for byte.
    """

    def __init__(self, net: MultiRouterNetwork, seed: int) -> None:
        self.net = net
        self.seed = seed
        self.rngs: list = [None] * net.topology.num_routers
        for rid in net._owned_order:
            self.rngs[rid] = router_rng(seed, rid)

    def step(self, now: int) -> None:
        self.net.step_owned(now, self.rngs)

    def idle(self) -> bool:
        return self.net.shard_idle()

    def fast_forward(self, span: int) -> None:
        self.net.fast_forward(span)

    def flush_egress(self) -> tuple[list[tuple], list[tuple]]:
        return self.net.flush_egress()

    def apply_imports(
        self, flits: "list[tuple]", credits: "list[tuple]"
    ) -> None:
        if flits:
            self.net.apply_boundary_flits(flits)
        if credits:
            self.net.apply_boundary_credits(credits)

    def router_fingerprints(self) -> dict[str, str]:
        """Per owned router: SHA-256 of its arbiter-stream state."""
        return {
            str(rid): generator_fingerprint(self.rngs[rid])
            for rid in self.net._owned_order
        }
