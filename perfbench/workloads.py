"""The benchmark's four workloads, built and run through the public API.

Each workload is a fixed-length batch simulation.  One *rep* builds a
fresh simulator for one sub-seed (untimed set-up) and then times the
single public ``run`` call.  A benchmark run covers the workload's
``subseeds`` sub-seeds derived from its ``--seed``, so a run's figures
average over several independently generated input sets instead of
resting on one.

Every rep yields a :class:`Outcome`: the simulation result, a SHA-256
digest over its canonical JSON (``SimResult.to_dict()``, the RNG
fingerprints and the session/fabric engine payload), the QoS figures the
report prints, and any invariant the run broke.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.fabric.engine import FabricSim
from repro.fabric.spec import FabricSpec, parse_topology
from repro.sessions.bench import BENCH_CHURN
from repro.sessions.churn import ChurnConfig
from repro.sessions.signaling import SessionEngine, SessionsSpec
from repro.shard.bench import bench_config
from repro.shard.coordinator import ShardedFabricSim
from repro.shard.spec import ShardSpec
from repro.sim.engine import RunControl
from repro.sim.experiments import default_config
from repro.sim.simulation import SingleRouterSim
from repro.traffic.mixes import build_cbr_workload

__all__ = [
    "SEED_STRIDE",
    "WORKLOADS",
    "Case",
    "Outcome",
    "canonical_digest",
    "reference_params",
    "sub_seed",
]

#: Sub-seed stride.  Benchmark seed ``s`` runs simulator seeds
#: ``s*SEED_STRIDE + k`` for its ``k < subseeds``, so distinct seeds
#: never share an input set.
SEED_STRIDE = 16


def sub_seed(seed: int, k: int) -> int:
    """The simulator seed of sub-run ``k`` of benchmark seed ``seed``."""
    return seed * SEED_STRIDE + k


def canonical_digest(obj: Any) -> str:
    """SHA-256 of the canonical (sorted-key, compact) JSON of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reference_params(workload) -> dict[str, Any]:
    """The parameters a reference digest depends on.

    Execution-only fields (serial vs sharded, worker count) are left
    out: a sharded workload shares its serial twin's digests.
    """
    params = dict(workload.params())
    params.pop("kind")
    params.pop("workers", None)
    return params


@dataclass
class Outcome:
    """What one rep produced, besides its wall time."""

    digest: str
    #: QoS figures: throughput, delay_us, delay_p99_us, blocking (None
    #: where the workload does not define one).
    qos: dict[str, float | None]
    #: Broken invariants (empty when the run is consistent).
    problems: list[str] = field(default_factory=list)


@dataclass
class Case:
    """One built simulator, ready for its single timed ``run`` call.

    ``objects`` names the live instances below ``sim`` a tracer may
    wrap; ``run`` performs the timed call and ``finish`` turns its
    return value into an :class:`Outcome`.
    """

    sim: Any
    run: Callable[[], Any]
    finish: Callable[[Any], Outcome]
    objects: dict[str, Any]


def _finite(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return float(value)


# ----------------------------------------------------------------------
# Single router
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RouterWorkload:
    """One MMR of the paper config under a random CBR mix."""

    name: str
    load: float
    cycles: int
    warmup_cycles: int
    skip_idle: bool
    #: Session churn on top of the static mix (``None`` = static only).
    churn: ChurnConfig | None = None
    subseeds: int = 8
    workers: int = 0
    group: str = ""

    def params(self) -> dict[str, Any]:
        cfg = default_config()
        return {
            "kind": "single-router",
            "ports": cfg.num_ports,
            "vcs": cfg.vcs_per_link,
            "levels": cfg.candidate_levels,
            "arbiter": "coa",
            "scheme": "siabp",
            "fast_path": True,
            "skip_idle": self.skip_idle,
            "static_cbr_load": self.load,
            "churn": None if self.churn is None else self.churn.to_dict(),
            "cycles": self.cycles,
            "warmup_cycles": self.warmup_cycles,
            "subseeds": self.subseeds,
        }

    def prepare(self, seed: int) -> Case:
        sim = SingleRouterSim(
            default_config(),
            arbiter="coa",
            scheme="siabp",
            seed=seed,
            fast_path=True,
            skip_idle=self.skip_idle,
        )
        workload = build_cbr_workload(sim.router, self.load, sim.rng.workload)
        control = RunControl(
            cycles=self.cycles, warmup_cycles=self.warmup_cycles
        )
        engine = None
        if self.churn is not None:
            engine = SessionEngine.from_spec(
                sim.config,
                SessionsSpec(churn=self.churn),
                self.cycles,
                sim.rng.sessions,
            )

        def run():
            return sim.run(workload, control, sessions=engine)

        def finish(result) -> Outcome:
            doc: dict[str, Any] = {
                "result": result.to_dict(),
                "rng": sim.rng.state_fingerprint(),
            }
            blocking = None
            if engine is not None:
                payload = engine.to_payload()
                doc["sessions"] = payload
                blocking = payload["blocking_probability"]
            problems = []
            try:
                sim.router.check_flow_control_invariant()
            except AssertionError as exc:
                problems.append(str(exc))
            if not result.flits["overall"] > 0:
                problems.append("no flit departed")
            return Outcome(
                digest=canonical_digest(doc),
                qos={
                    "throughput": _finite(result.throughput),
                    "delay_us": _finite(result.flit_delay_us["overall"]),
                    "delay_p99_us": _finite(
                        result.flit_delay_p99_us["overall"]
                    ),
                    "blocking": blocking,
                },
                problems=problems,
            )

        return Case(
            sim=sim,
            run=run,
            finish=finish,
            objects={
                "router": sim.router,
                "workload": workload,
                "sessions": engine,
            },
        )


# ----------------------------------------------------------------------
# Fabric (serial and sharded)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FabricWorkload:
    """Session churn over a torus of MMRs, serial or sharded."""

    name: str
    topology: str
    static_load: float
    conns_per_router: int
    churn: ChurnConfig
    cycles: int
    subseeds: int = 4
    #: 0 runs the serial ``FabricSim``; N > 0 runs ``ShardedFabricSim``
    #: with N worker processes.
    workers: int = 0
    #: Digest group: a sharded workload shares its serial twin's
    #: reference digests (per-router streams make them byte-identical).
    group: str = ""

    def spec(self) -> FabricSpec:
        return FabricSpec(
            topology=parse_topology(self.topology),
            churn=self.churn,
            path_policy="ecmp",
            conns_per_router=self.conns_per_router,
            rng_mode="per-router",
        )

    def params(self) -> dict[str, Any]:
        cfg = bench_config()
        return {
            "kind": "fabric-sharded" if self.workers else "fabric-serial",
            "topology": self.topology,
            "ports": cfg.num_ports,
            "vcs": cfg.vcs_per_link,
            "levels": cfg.candidate_levels,
            "vc_buffer_depth": cfg.vc_buffer_depth,
            "arbiter": "coa",
            "scheme": "siabp",
            "path_policy": "ecmp",
            "rng_mode": "per-router",
            "skip_idle": True,
            "static_conns_per_router": self.conns_per_router,
            "static_load": self.static_load,
            "churn": self.churn.to_dict(),
            "cycles": self.cycles,
            "workers": self.workers,
            "subseeds": self.subseeds,
        }

    def prepare(self, seed: int, workers: int | None = None) -> Case:
        workers = self.workers if workers is None else workers
        if workers:
            sim = ShardedFabricSim(
                self.spec(),
                bench_config(),
                seed=seed,
                shard=ShardSpec(workers=workers),
            )
        else:
            sim = FabricSim(
                self.spec(), bench_config(), seed=seed, skip_idle=True
            )

        def run():
            return sim.run(self.static_load, self.cycles)

        def finish(result) -> Outcome:
            if workers:
                payload = sim.payload
                router_fps = sim.router_fps
                streams = sim.streams_fp
            else:
                payload = sim.engine.to_payload()
                router_fps = sim.router_fingerprints()
                streams = sim.fingerprint()
            doc = {
                "result": result.to_dict(),
                "payload": payload,
                "router_rng": router_fps,
                "rng": streams,
            }
            net = payload["network"]
            problems = []
            injected = net["static_injected"] + net["dynamic_injected"]
            accounted = net["delivered"] + net["lost_flits"] + net["residue"]
            if injected != accounted:
                problems.append(
                    f"flit conservation: injected {injected} != delivered "
                    f"+ lost + residue {accounted}"
                )
            if not net["delivered"] > 0:
                problems.append("no flit delivered")
            return Outcome(
                digest=canonical_digest(doc),
                qos={
                    "throughput": _finite(result.throughput),
                    "delay_us": _finite(result.flit_delay_us["overall"]),
                    "delay_p99_us": None,
                    "blocking": payload["blocking_probability"],
                },
                problems=problems,
            )

        objects = {}
        if not workers:
            objects = {"network": sim.net, "core": sim.shard_core}
        return Case(sim=sim, run=run, finish=finish, objects=objects)


#: Fabric churn point: 4 arrivals/kcycle per host port, mean hold 1000
#: cycles, half high-rate and half medium-rate CBR sessions.
FABRIC_CHURN = ChurnConfig(
    arrivals_per_kcycle=4.0,
    mean_hold_cycles=1_000.0,
    mix=(("cbr-high", 0.5), ("cbr-medium", 0.5)),
)

_FABRIC = dict(
    topology="torus:4x4",
    static_load=0.4,
    conns_per_router=2,
    churn=FABRIC_CHURN,
    cycles=2_000,
    group="fabric-torus",
)

WORKLOADS: dict[str, RouterWorkload | FabricWorkload] = {
    w.name: w
    for w in (
        RouterWorkload(
            name="router-saturated",
            load=0.8,
            cycles=5_000,
            warmup_cycles=1_000,
            skip_idle=False,
            group="router-saturated",
        ),
        RouterWorkload(
            name="router-churn",
            load=0.1,
            cycles=40_000,
            warmup_cycles=0,
            skip_idle=True,
            churn=BENCH_CHURN,
            group="router-churn",
        ),
        FabricWorkload(name="fabric-torus", workers=0, **_FABRIC),
        FabricWorkload(name="fabric-torus-shard2", workers=2, **_FABRIC),
    )
}
