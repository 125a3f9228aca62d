"""The fabric lifecycle engine: multi-hop CAC over a network of MMRs.

This is the ``SessionEngine`` pattern lifted to :class:`~repro.network.
multirouter.MultiRouterNetwork` scope:

* an arriving session's setup probe traverses its candidate path, so the
  setup completes ``setup_latency_cycles × hops`` after arrival; only
  then is admission attempted, hop by hop, via
  :meth:`MultiRouterNetwork.establish_along` — whose per-hop rollback is
  exactly the PCS probe backtracking the paper describes;
* a rejection reports *which hop* blocked; the engine then retries over
  the next alternate path from the session's policy order (blocked-at-hop
  re-admission), paying a fresh signaling delay proportional to that
  path's length, up to ``max_path_attempts`` total tries;
* a departing session drains (source NIC, every hop's VC buffer, and the
  inter-router links must empty), then tears down
  ``teardown_latency_cycles × hops`` later via the graceful
  :meth:`MultiRouterNetwork.release`.

The engine consumes **no randomness at run time** — the timeline is
precomputed and the path policies are deterministic functions of session
ids and live reservation ledgers — so fabric runs replay bit-identically
and a zero-churn engine leaves the network loop untouched.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any

import numpy as np

from ..network.multirouter import (
    MultiRouterNetwork,
    NetworkConnection,
    RouterShard,
)
from ..router.config import RouterConfig
from ..router.connection import TrafficClass
from ..sessions.metrics import SessionEventLog, SessionStats
from ..sessions.signaling import arm_injection, inject_due
from ..sim.engine import RngStreams
from ..sim.simulation import SimResult
from .churn import FabricSession, generate_fabric_timeline
from .paths import PathProvider, make_path_policy
from .spec import FabricSpec

if TYPE_CHECKING:
    from ..campaign.plan import PointSpec

__all__ = [
    "FABRIC_SCHEMA",
    "FabricEngine",
    "FabricSim",
    "StaticInjector",
    "build_static_load",
    "execute_fabric_point",
]

#: Stable payload schema tag (campaign ``sessions`` channel).
FABRIC_SCHEMA = "repro-fabric-v1"

_SETUP = 0
_STOP = 1
_TEARDOWN = 2

#: "No pending event" sentinel for next-event computations.
_FAR = 1 << 62


class _LiveFabricSession:
    """Runtime state of one timeline session."""

    __slots__ = ("fs", "state", "conn", "offset", "ptr", "due", "sched", "attempt", "paths")

    def __init__(self, fs: FabricSession) -> None:
        self.fs = fs
        self.state = "setup"
        self.conn: NetworkConnection | None = None
        #: Injection cursor (see repro.sessions.signaling.arm_injection).
        self.offset = 0
        self.ptr = 0
        self.due = 0
        self.sched: tuple[list[int], list[int], list[bool]] | None = None
        #: Index of the next candidate path to try.
        self.attempt = 0
        self.paths: list[tuple[int, ...]] = []


class FabricEngine:
    """Drives fabric session lifecycles inside the network cycle loop."""

    def __init__(
        self,
        config: RouterConfig,
        spec: FabricSpec,
        timeline: list[FabricSession],
    ) -> None:
        self.config = config
        self.spec = spec
        self.timeline = timeline
        self.stats = SessionStats(
            policy=spec.path_policy, churn=spec.churn, cycles=0
        )
        self.event_log = SessionEventLog()
        #: admitted-path hop counts (links traversed) -> sessions.
        self.hop_histogram: dict[int, int] = {}
        #: hop index whose admission test rejected -> rejections.
        self.blocked_at_hop: dict[int, int] = {}
        #: attempts used by admitted sessions (1 = primary path).
        self.attempts_histogram: dict[int, int] = {}
        #: (cycle, mean, max, jain) reserved output-link fraction samples
        #: over every inter-router link.
        self.path_balance_series: list[tuple[int, float, float, float]] = []
        #: Static background injections (set by :class:`FabricSim`).
        self.static_injected = 0
        self.dynamic_injected = 0
        #: Sharded execution: when set, :meth:`inject` deposits flits
        #: only for sessions sourced at an owned router (pointers and
        #: counters still advance globally, so every replica's ledgers
        #: stay in lockstep).
        self.owned_routers: set[int] | None = None
        #: Sharded execution: per-cycle drain verdicts (net_conn_id ->
        #: globally-empty), AND-merged across shards at the previous
        #: barrier.  ``None`` polls :meth:`MultiRouterNetwork.
        #: connection_empty` directly (serial execution).
        self.drain_oracle: dict[int, bool] | None = None
        self._net: MultiRouterNetwork | None = None
        self._provider: PathProvider | None = None
        self._policy = None
        self._next_arrival = 0
        self._seq = 0
        self._pending: list[tuple[int, int, int, _LiveFabricSession]] = []
        self._injecting: list[_LiveFabricSession] = []
        self._draining: list[_LiveFabricSession] = []
        self._live = [_LiveFabricSession(fs) for fs in timeline]

    # ------------------------------------------------------------------
    # Loop hooks
    # ------------------------------------------------------------------

    def begin(self, net: MultiRouterNetwork, cycles: int) -> None:
        self._net = net
        self._provider = PathProvider(net.topology, self.spec.k_paths)
        self._policy = make_path_policy(self.spec.path_policy)
        self.stats.cycles = cycles

    def _push(self, cycle: int, kind: int, live: _LiveFabricSession) -> None:
        heapq.heappush(self._pending, (cycle, self._seq, kind, live))
        self._seq += 1

    def _signaling_cycles(self, latency: int, path: tuple[int, ...]) -> int:
        """Hop-proportional signaling delay (the probe walks the path)."""
        return latency * max(1, len(path) - 1)

    def on_cycle(self, now: int) -> None:
        pending = self._pending
        while pending and pending[0][0] <= now:
            _cycle, _seq, kind, live = heapq.heappop(pending)
            if kind == _SETUP:
                self._complete_setup(now, live)
            elif kind == _STOP:
                self._stop_injection(now, live)
            else:
                self._complete_teardown(now, live)
        timeline = self._live
        i = self._next_arrival
        sig = self.spec.signaling
        while i < len(timeline) and timeline[i].fs.spec.arrival_cycle <= now:
            live = timeline[i]
            i += 1
            fs = live.fs
            spec = fs.spec
            self.stats.note_offered(spec)
            self.event_log.record(
                now,
                "arrive",
                spec.sid,
                f"class={spec.cls_name} route={fs.src_router}:{spec.in_port}"
                f"->{fs.dst_router}:{spec.out_port} hold={spec.hold_cycles}",
            )
            paths = self._provider.paths(fs.src_router, fs.dst_router)
            order = self._policy.order(paths, spec.sid, self._net)
            live.paths = [
                paths[idx] for idx in order[: self.spec.max_path_attempts]
            ]
            self._push(
                now
                + self._signaling_cycles(
                    sig.setup_latency_cycles, live.paths[0]
                ),
                _SETUP,
                live,
            )
        self._next_arrival = i
        if self._draining:
            self._poll_drains(now)
        if now % self.spec.sample_stride == 0:
            self._sample_path_balance(now)

    def inject(self, now: int) -> int:
        """Deposit every due flit of every active session into its NIC.

        With :attr:`owned_routers` set, sessions sourced at non-owned
        routers advance their pointers and the (replicated) injected
        counter without touching any NIC — the owning shard performs the
        actual deposit, every other replica just keeps ledger lockstep.
        """
        routers = self._net.routers
        owned = self.owned_routers

        def target(live):
            src = live.fs.src_router
            if owned is not None and src not in owned:
                return None
            return routers[src].nics[live.fs.spec.in_port], live.conn.hops[0].vc

        deposited = inject_due(self._injecting, now, target)
        self.dynamic_injected += deposited
        return deposited

    def next_event_cycle(self, now: int) -> int:
        """Earliest cycle >= ``now`` at which the engine can act.

        The engine half of the event-skipping fold: when the network is
        idle, the loop may fast-forward to the minimum over pending
        signaling completions, the next timeline arrival, the next due
        dynamic injection, and the next path-balance sample — draining
        sessions pin the result to ``now`` (they are polled every
        cycle).  Skipped cycles are provably no-ops for
        :meth:`on_cycle`/:meth:`inject`.
        """
        if self._draining:
            return now
        nxt = _FAR
        if self._pending:
            c = self._pending[0][0]
            if c < nxt:
                nxt = c
        if self._next_arrival < len(self._live):
            c = self._live[self._next_arrival].fs.spec.arrival_cycle
            if c < nxt:
                nxt = c
        for live in self._injecting:
            if live.due < nxt:
                nxt = live.due
        stride = self.spec.sample_stride
        next_sample = ((now + stride - 1) // stride) * stride
        if next_sample < nxt:
            nxt = next_sample
        return now if nxt < now else nxt

    def drain_candidates(self, horizon: int) -> list[NetworkConnection]:
        """Connections whose drain verdict the next barrier must carry.

        Covers the currently draining set plus every active session
        whose stop event fires at or before ``horizon`` — a session can
        enter "draining" and be polled in the same cycle, so its
        verdict must already be on the wire when that cycle runs.
        """
        conns = [live.conn for live in self._draining]
        for cycle, _seq, kind, live in self._pending:
            if kind == _STOP and cycle <= horizon and live.state == "active":
                conns.append(live.conn)
        return conns

    def finish(self) -> None:
        """Close out the run: count survivors, audit every ledger."""
        self.stats.expired_active = sum(
            1
            for live in self._live
            if live.state in ("active", "draining", "closing", "setup")
            and live.fs.spec.arrival_cycle < self.stats.cycles
        )
        net = self._net
        if net is not None:
            for router in net.routers:
                router.admission.audit(router.table)

    # ------------------------------------------------------------------
    # Completion handlers
    # ------------------------------------------------------------------

    def _complete_setup(self, now: int, live: _LiveFabricSession) -> None:
        fs = live.fs
        spec = fs.spec
        path = live.paths[live.attempt]
        conn, blocked_hop = self._net.establish_along(
            list(path),
            spec.traffic_class,
            spec.avg_slots,
            spec.peak_slots,
            src_port=spec.in_port,
            dst_port=spec.out_port,
        )
        if conn is not None:
            self._admit(now, live, conn)
            return
        self.blocked_at_hop[blocked_hop] = (
            self.blocked_at_hop.get(blocked_hop, 0) + 1
        )
        self.event_log.record(
            now,
            "block-hop",
            spec.sid,
            f"hop={blocked_hop} router={path[blocked_hop]} "
            f"path={'-'.join(map(str, path))} attempt={live.attempt + 1}",
        )
        live.attempt += 1
        if live.attempt < len(live.paths):
            alt = live.paths[live.attempt]
            self.event_log.record(
                now,
                "retry-path",
                spec.sid,
                f"path={'-'.join(map(str, alt))} attempt={live.attempt + 1}",
            )
            self._push(
                now
                + self._signaling_cycles(
                    self.spec.signaling.setup_latency_cycles, alt
                ),
                _SETUP,
                live,
            )
            return
        live.state = "blocked"
        self.stats.note_blocked(spec)
        self.event_log.record(
            now,
            "block",
            spec.sid,
            f"class={spec.cls_name} attempts={live.attempt}",
        )

    def _admit(
        self, now: int, live: _LiveFabricSession, conn: NetworkConnection
    ) -> None:
        fs = live.fs
        spec = fs.spec
        live.state = "active"
        live.conn = conn
        self.stats.note_admitted(spec)
        hops = conn.num_hops - 1  # links traversed
        self.hop_histogram[hops] = self.hop_histogram.get(hops, 0) + 1
        attempts = live.attempt + 1
        self.attempts_histogram[attempts] = (
            self.attempts_histogram.get(attempts, 0) + 1
        )
        if live.attempt > 0:
            self.stats.readmitted_alt += 1
        detail = (
            f"class={spec.cls_name} conn={conn.net_conn_id} "
            f"path={'-'.join(map(str, conn.router_path))} "
            f"avg={conn.avg_slots} peak={conn.peak_slots}"
        )
        if live.attempt > 0:
            detail += f" alt_attempt={attempts}"
        self.event_log.record(now, "admit", spec.sid, detail)
        if arm_injection(live, spec, now):
            self._injecting.append(live)
        self._push(now + spec.hold_cycles, _STOP, live)

    def _stop_injection(self, now: int, live: _LiveFabricSession) -> None:
        if live.state != "active":
            return
        live.state = "draining"
        self.event_log.record(
            now, "depart", live.fs.spec.sid, f"conn={live.conn.net_conn_id}"
        )
        self._draining.append(live)

    def _poll_drains(self, now: int) -> None:
        net = self._net
        sig = self.spec.signaling
        oracle = self.drain_oracle
        keep = []
        for live in self._draining:
            if (
                net.connection_empty(live.conn)
                if oracle is None
                else oracle[live.conn.net_conn_id]
            ):
                live.state = "closing"
                self._push(
                    now
                    + self._signaling_cycles(
                        sig.teardown_latency_cycles,
                        live.conn.router_path,
                    ),
                    _TEARDOWN,
                    live,
                )
            else:
                keep.append(live)
        self._draining = keep

    def _complete_teardown(self, now: int, live: _LiveFabricSession) -> None:
        if live.state != "closing":
            return
        conn = live.conn
        self._net.release(conn)
        live.state = "closed"
        self.stats.note_released(live.fs.spec)
        self.event_log.record(
            now,
            "release",
            live.fs.spec.sid,
            f"conn={conn.net_conn_id} hops={conn.num_hops}",
        )

    # ------------------------------------------------------------------
    # Path-balance sampling
    # ------------------------------------------------------------------

    def _sample_path_balance(self, now: int) -> None:
        net = self._net
        loads = [
            net.routers[u].admission.reserved_avg_load_out(port)
            for (u, _v), port in net.topology.port_map.items()
        ]
        n = len(loads)
        total = sum(loads)
        sumsq = sum(x * x for x in loads)
        jain = (total * total) / (n * sumsq) if sumsq > 0 else 1.0
        self.path_balance_series.append(
            (now, total / n if n else 0.0, max(loads, default=0.0), jain)
        )

    # ------------------------------------------------------------------
    # Payload
    # ------------------------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """Strict-JSON payload for the campaign ``sessions`` channel."""
        payload = self.stats.to_payload(self.event_log)
        payload["schema"] = FABRIC_SCHEMA
        payload["topology"] = self.spec.topology.to_dict()
        payload["path_policy"] = self.spec.path_policy
        admitted = self.stats.admitted
        total_hops = sum(h * n for h, n in self.hop_histogram.items())
        payload["hops"] = {
            "mean": total_hops / admitted if admitted else None,
            "histogram": {
                str(h): n for h, n in sorted(self.hop_histogram.items())
            },
        }
        payload["blocked_at_hop"] = {
            str(h): n for h, n in sorted(self.blocked_at_hop.items())
        }
        payload["path_attempts"] = {
            "histogram": {
                str(a): n for a, n in sorted(self.attempts_histogram.items())
            },
            "readmitted_alt": self.stats.readmitted_alt,
        }
        final = (
            self.path_balance_series[-1]
            if self.path_balance_series
            else (0, 0.0, 0.0, 1.0)
        )
        payload["path_balance"] = {
            "series": [list(row) for row in self.path_balance_series],
            "final": {
                "mean": final[1],
                "max": final[2],
                "jain": final[3],
            },
        }
        net = self._net
        n, total, mx = net.delay_summary()
        payload["network"] = {
            "static_injected": self.static_injected,
            "dynamic_injected": self.dynamic_injected,
            "delivered": net.delivered,
            "lost_flits": net.lost_flits,
            "residue": net.total_buffered(),
            "released_connections": net.released_connections,
            "dropped_connections": net.dropped_connections,
            "delay_mean_cycles": total / n if n else None,
            "delay_max_cycles": mx if n else None,
        }
        return payload


# ----------------------------------------------------------------------
# Static background (the legacy network load experiment, made seedable)
# ----------------------------------------------------------------------


def build_static_load(
    net: MultiRouterNetwork,
    conns_per_router: int,
    target_load: float,
    cycles: int,
    rng: np.random.Generator,
) -> tuple[list[NetworkConnection], list[np.ndarray]]:
    """Random-destination CBR background with precomputed trains.

    The fabric twin of the legacy ``run_network_load`` builder: placement
    and phases draw from the given stream (the campaign's ``workload``
    role), so static fabric points are reproducible by spec.
    """
    if conns_per_router == 0:
        return [], []
    if not (0 < target_load < 1):
        raise ValueError("target_load must be in (0, 1) for a static load")
    routers = net.topology.num_routers
    per_conn_load = target_load / conns_per_router
    slots = max(1, round(per_conn_load * net.config.round_cycles))
    conns: list[NetworkConnection] = []
    for src in range(routers):
        placed = 0
        guard = 0
        while placed < conns_per_router and guard < 50 * conns_per_router:
            guard += 1
            dst = int(rng.integers(routers))
            if dst == src:
                continue
            conn = net.establish(src, dst, TrafficClass.CBR, avg_slots=slots)
            if conn is not None:
                conns.append(conn)
                placed += 1
    iat = 1.0 / per_conn_load
    schedules = []
    for _conn in conns:
        phase = rng.uniform(0, iat)
        times = np.floor(phase + np.arange(int(cycles / iat) + 1) * iat)
        schedules.append(times[times < cycles].astype(np.int64))
    return conns, schedules


class StaticInjector:
    """Cursor state for the static background schedules.

    One implementation shared by the serial loop and the shard runtime:
    deposits walk connections in list order (the legacy inline order),
    the injected counter advances globally in every replica, and with
    ``owned`` set only connections sourced at an owned router actually
    touch a NIC.
    """

    def __init__(
        self,
        net: MultiRouterNetwork,
        conns: list[NetworkConnection],
        schedules: list[np.ndarray],
        owned: set[int] | None = None,
    ) -> None:
        self.net = net
        self.conns = conns
        # Python-list copies: the per-cycle cursor walk compares cached
        # ints instead of allocating a numpy scalar per read.
        self.schedules = [times.tolist() for times in schedules]
        self.pointers = [0] * len(conns)
        self.owned = owned
        self.injected = 0

    def inject(self, now: int) -> None:
        net = self.net
        owned = self.owned
        pointers = self.pointers
        for idx, conn in enumerate(self.conns):
            times = self.schedules[idx]
            ptr = pointers[idx]
            end = len(times)
            if ptr >= end or times[ptr] > now:
                continue
            deposit = owned is None or conn.src_router in owned
            while ptr < end and times[ptr] <= now:
                if deposit:
                    net.inject(conn, gen_cycle=now)
                self.injected += 1
                ptr += 1
            pointers[idx] = ptr

    def next_due(self, default: int) -> int:
        """Earliest pending schedule cycle across all connections."""
        nxt = default
        pointers = self.pointers
        for idx, times in enumerate(self.schedules):
            ptr = pointers[idx]
            if ptr < len(times):
                c = times[ptr]
                if c < nxt:
                    nxt = c
        return nxt


# ----------------------------------------------------------------------
# The fabric simulation
# ----------------------------------------------------------------------


class FabricSim:
    """Builds and runs one fabric instance: topology, network, engine."""

    def __init__(
        self,
        fabric: FabricSpec,
        config: RouterConfig,
        arbiter: str = "coa",
        scheme: str = "siabp",
        seed: int = 0,
        skip_idle: bool = False,
    ) -> None:
        self.fabric = fabric
        self.config = config
        self.arbiter = arbiter
        self.scheme = scheme
        self.seed = seed
        self.rng = RngStreams(seed)
        self.topology = fabric.topology.build()
        per_router = fabric.rng_mode == "per-router"
        self.net = MultiRouterNetwork(
            self.topology,
            config,
            arbiter=arbiter,
            scheme=scheme,
            per_router_stats=per_router,
        )
        #: Per-router stepping core (``rng_mode="per-router"`` only) —
        #: the serial reference the sharded coordinator is checked
        #: against, sharing the exact stepping code the shards run.
        self.shard_core = RouterShard(self.net, seed) if per_router else None
        #: Event-skipping fold: fast-forward provably idle stretches
        #: (bit-identity gated by the skip twin tests).
        self.skip_idle = skip_idle
        self.skipped_cycles = 0
        self.engine: FabricEngine | None = None

    @property
    def host_port_count(self) -> int:
        topo = self.topology
        return sum(
            self.config.num_ports - topo.degree(r)
            for r in range(topo.num_routers)
        )

    def run(self, target_load: float, cycles: int) -> SimResult:
        """Run the fabric for ``cycles`` and summarise as a SimResult.

        The cycle order matches the single-router sessions loop: engine
        signaling/arrivals, dynamic injections, static injections, then
        the network step.  A zero-churn spec leaves the first two as
        no-ops (no RNG draws, no network mutations), which is the
        zero-churn bit-identity contract.
        """
        fab = self.fabric
        net = self.net
        timeline = generate_fabric_timeline(
            self.topology,
            fab.topology.host_routers(),
            self.config,
            fab.churn,
            cycles,
            self.rng.sessions,
        )
        engine = FabricEngine(self.config, fab, timeline)
        engine.begin(net, cycles)
        self.engine = engine
        static_conns, schedules = build_static_load(
            net, fab.conns_per_router, target_load, cycles, self.rng.workload
        )
        static = StaticInjector(net, static_conns, schedules)
        core = self.shard_core
        arb = self.rng.arbiter
        skipping = self.skip_idle
        now = 0
        while now < cycles:
            engine.on_cycle(now)
            engine.inject(now)
            static.inject(now)
            if core is not None:
                core.step(now)
            else:
                net.step(now, arb)
            now += 1
            if skipping and now < cycles and net.shard_idle():
                target = min(
                    cycles,
                    engine.next_event_cycle(now),
                    static.next_due(cycles),
                    net.next_delivery_cycle(cycles),
                )
                if target > now:
                    net.fast_forward(target - now)
                    self.skipped_cycles += target - now
                    now = target
        if fab.drain:
            now = cycles
            while net.total_buffered() > 0 and now < cycles * 3:
                if core is not None:
                    core.step(now)
                else:
                    net.step(now, arb)
                now += 1
        engine.static_injected = static.injected
        engine.finish()
        return self._summarise(target_load, cycles, static.injected)

    def _summarise(
        self, target_load: float, cycles: int, static_injected: int
    ) -> SimResult:
        net = self.net
        engine = self.engine
        ports = self.host_port_count
        injected = static_injected + engine.dynamic_injected
        denom = cycles * ports
        n, total, _mx = net.delay_summary()
        nan = float("nan")
        delay_us = (
            self.config.cycles_to_us(total / n) if n else nan
        )
        fault: dict[str, int] = {}
        for key, value in (
            ("lost_flits", net.lost_flits),
            ("dropped_connections", net.dropped_connections),
            ("rerouted", net.rerouted),
        ):
            if value:
                fault[key] = value
        return SimResult(
            config=self.config,
            arbiter=self.arbiter,
            scheme=self.scheme,
            seed=self.seed,
            cycles=cycles,
            warmup_cycles=0,
            offered_load=injected / denom if denom else nan,
            utilization=nan,
            throughput=net.delivered / denom if denom else nan,
            flit_delay_us={"overall": delay_us},
            flit_delay_p99_us={},
            frame_delay_us={},
            jitter_us={},
            flits={"overall": net.delivered},
            frames={},
            backlog=net.total_buffered(),
            connections=len(net.connections),
            fault=fault,
        )

    def fingerprint(self) -> str:
        return self.rng.state_fingerprint()

    def router_fingerprints(self) -> dict[str, str]:
        """Per-router arbiter-stream fingerprints (per-router mode only)."""
        if self.shard_core is None:
            return {}
        return self.shard_core.router_fingerprints()


def execute_fabric_point(spec: "PointSpec") -> tuple[SimResult, FabricEngine]:
    """Run one fabric campaign point.  THE definition of fabric-point
    semantics (the fabric analogue of ``execute_point``)."""
    if spec.fabric is None:
        raise ValueError("execute_fabric_point needs a spec with fabric set")
    sim = FabricSim(
        spec.fabric,
        spec.config,
        arbiter=spec.arbiter,
        scheme=spec.scheme,
        seed=spec.seed,
    )
    result = sim.run(spec.target_load, spec.cycles)
    return result, sim.engine
