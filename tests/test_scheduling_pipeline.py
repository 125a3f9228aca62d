"""One scheduling pipeline: the buffer path against the object oracle.

Every loop that filters candidates between link scheduling and matching
— the multi-router network step (downstream link credits) and the
fault harness, with or without sessions (dead output port, stuck buffer
slots) — drops them
in place with :meth:`CandidateBuffer.retain`.  These tests pin that
filter, draw for draw, to the object-path filters it replaced (kept in
``tests/object_path.py``): the filter runs after the top-C truncation
and re-levels the survivors, so a dropped candidate never promotes a
lower-ranked VC.

The fabric points are chosen to starve credits (one-flit VC buffers,
four-cycle credit return, heavy static load) so the filter really drops
candidates; the benchmark fabric point drops none.
"""

import json

import numpy as np
import pytest

from repro.core.candidates import CandidateBuffer
from repro.core.link_scheduler import LinkScheduler
from repro.core.registry import make_scheme
from repro.fabric.engine import FabricSim
from repro.fabric.spec import FabricSpec, parse_topology
from repro.faults import FaultConfig, FaultySingleRouterSim
from repro.network.multirouter import MultiRouterNetwork
from repro.router import RouterConfig
from repro.router.vc_memory import VCMemory
from repro.sessions import ChurnConfig, SessionEngine, SessionsSpec
from repro.sim.engine import RunControl
from repro.traffic.mixes import build_besteffort_workload, build_cbr_workload

from .object_path import (
    FilterTally,
    object_step_router,
    use_object_path,
)


def canon(obj):
    """NaN-safe structural equality key."""
    return json.dumps(obj, sort_keys=True, default=repr)


# ----------------------------------------------------------------------
# CandidateBuffer.retain
# ----------------------------------------------------------------------


def filled_buffer(scheme_name, seed):
    """A random link-scheduler fill (sparse for siabp, arrays for iabp)."""
    config = RouterConfig(num_ports=4, vcs_per_link=8, candidate_levels=3)
    sched = LinkScheduler(config, make_scheme(scheme_name, config))
    mem = VCMemory(config)
    rng = np.random.default_rng(seed)
    for _ in range(40):
        mem.push(int(rng.integers(4)), int(rng.integers(8)),
                 int(rng.integers(50)), -1, False, 0)
    slots = rng.integers(1, 20, size=(4, 8))
    dests = rng.integers(0, 4, size=(4, 8))
    reserved = rng.random((4, 8)) < 0.5
    buf = CandidateBuffer(4, config.candidate_levels)
    sched.select_into(buf, *mem.occupancy_state(), slots, dests, 64, reserved)
    return buf


def object_filter(candidates, keep):
    out = []
    for port_cands in candidates:
        kept = [c for c in port_cands if keep(c.in_port, c.vc, c.out_port)]
        out.append([
            type(c)(c.in_port, c.vc, c.out_port, c.priority, lvl)
            for lvl, c in enumerate(kept)
        ])
    return out


class TestRetain:
    @pytest.mark.parametrize("scheme", ["siabp", "iabp"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_object_filter(self, scheme, seed):
        buf = filled_buffer(scheme, seed)
        assert buf.sparse_valid == (scheme == "siabp")
        before = buf.to_candidates()

        def keep(p, vc, out):
            return (p + vc + out + seed) % 3 != 0

        buf.retain(keep)
        assert buf.to_candidates() == object_filter(before, keep)

    def test_sparse_rows_and_arrays_stay_coherent(self):
        buf = filled_buffer("siabp", 2)
        buf.count  # materialize the arrays before the filter
        buf.retain(lambda p, vc, out: out != 1)
        rows = [[(vc, out) for _k, vc, out in row] for row in buf.sparse]
        arrays = [
            list(zip(buf.vc[p, :n].tolist(), buf.out_port[p, :n].tolist()))
            for p, n in enumerate(buf.count.tolist())
        ]
        assert rows == arrays
        assert all(out != 1 for row in rows for _vc, out in row)


# ----------------------------------------------------------------------
# Fabric: the network step under credit starvation
# ----------------------------------------------------------------------


def starved_config():
    return RouterConfig(num_ports=6, vcs_per_link=8, candidate_levels=4,
                        vc_buffer_depth=1, credit_return_delay=4,
                        flit_cycles_per_round=800)


def starved_fabric(topology, rng_mode="per-router"):
    return FabricSpec(
        topology=parse_topology(topology),
        churn=ChurnConfig(arrivals_per_kcycle=2.0, mean_hold_cycles=300.0,
                          mix=(("cbr-high", 1.0),)),
        conns_per_router=4,
        sample_stride=100,
        rng_mode=rng_mode,
    )


def with_failures(sim, failures, after_step=None):
    """Fire ``failures`` ({cycle: callable(net, now)}) inside the run.

    Each failure lands just before that cycle's network step, on the
    same loop ``FabricSim.run`` drives; ``after_step(net)`` runs after
    every step.
    """
    core = sim.shard_core
    step = core.step

    def failing_step(now):
        fail = failures.get(now)
        if fail is not None:
            fail(sim.net, now)
        step(now)
        if after_step is not None:
            after_step(sim.net)

    core.step = failing_step


def run_fabric(fabric, scheme, seed=3, cycles=500, failures=None):
    sim = FabricSim(fabric, starved_config(), scheme=scheme, seed=seed)
    if failures:
        with_failures(sim, failures)
    result = sim.run(0.9, cycles)
    return {
        "result": canon(result.to_dict()),
        "payload": canon(sim.engine.to_payload()),
        "routers": sim.router_fingerprints(),
        "streams": sim.fingerprint(),
        "rerouted": sim.net.rerouted,
    }


@pytest.mark.parametrize("scheme", ["siabp", "wfq", "iabp"])
@pytest.mark.parametrize("topology", ["torus:4x4", "ring:6", "mesh:3x3"])
def test_fabric_credit_filter_matches_object_oracle(
    monkeypatch, topology, scheme
):
    fabric = starved_fabric(topology)
    fast = run_fabric(fabric, scheme)
    tally = FilterTally()
    monkeypatch.setattr(
        MultiRouterNetwork, "_step_router", object_step_router(tally)
    )
    oracle = run_fabric(fabric, scheme)
    assert fast == oracle
    assert fast["routers"]
    # The point must actually exercise the filter.
    assert tally.dropped > 0.05 * tally.seen


def test_fabric_dead_link_reroute_matches_object_oracle(monkeypatch):
    """Rerouted connections rewrite the credit gates mid-run; the
    object oracle reads ``_hop_lookup`` and ``_link_credits`` directly."""
    fabric = starved_fabric("torus:4x4")
    failures = {200: lambda net, now: net.fail_link(0, 1, now)}
    fast = run_fabric(fabric, "siabp", failures=failures)
    tally = FilterTally()
    monkeypatch.setattr(
        MultiRouterNetwork, "_step_router", object_step_router(tally)
    )
    assert run_fabric(fabric, "siabp", failures=failures) == fast
    assert fast["rerouted"] > 0
    assert tally.dropped > 0


def gate_from_lookup(net):
    """Each router's credit gate, derived from the hop and credit maps."""
    gates = [{} for _ in net.routers]
    for (rid, in_port, vc), (conn, hop_idx) in net._hop_lookup.items():
        if hop_idx + 1 < conn.num_hops:
            credits = net._link_credits[(rid, conn.hops[hop_idx].out_port)]
            gates[rid][(in_port, vc)] = (credits, conn.hops[hop_idx + 1].vc)
    return gates


def assert_gates_consistent(net):
    want = gate_from_lookup(net)
    for rid, gate in enumerate(net._gates):
        assert gate.keys() == want[rid].keys()
        for key, (credits, down_vc) in gate.items():
            want_credits, want_vc = want[rid][key]
            assert credits is want_credits  # the live list, not a copy
            assert down_vc == want_vc


def test_credit_gates_track_failures_and_teardowns():
    fabric = starved_fabric("torus:4x4")
    sim = FabricSim(fabric, starved_config(), seed=3)
    failures = {
        150: lambda net, now: net.fail_link(0, 1, now),
        300: lambda net, now: net.fail_router(5, now),
    }
    with_failures(sim, failures, after_step=assert_gates_consistent)
    sim.run(0.9, 600)
    net = sim.net
    assert net.rerouted > 0
    assert net.dropped_connections > 0
    assert net.released_connections > 0
    assert_gates_consistent(net)


def test_fabric_shared_stream_matches_object_oracle(monkeypatch):
    fabric = starved_fabric("torus:4x4", rng_mode="shared")
    fast = run_fabric(fabric, "siabp")
    tally = FilterTally()
    monkeypatch.setattr(
        MultiRouterNetwork, "_step_router", object_step_router(tally)
    )
    assert run_fabric(fabric, "siabp") == fast
    assert tally.dropped > 0


# ----------------------------------------------------------------------
# Fault harness: dead output port plus stuck slots, with and without
# a session engine
# ----------------------------------------------------------------------

FAULTS = FaultConfig(
    stuck_slot_rate=0.2,
    stuck_duration=40,
    dead_port=2,
    dead_port_cycle=500,
)

SESSIONS = SessionsSpec(
    churn=ChurnConfig(arrivals_per_kcycle=3.0, mean_hold_cycles=600.0,
                      mix=(("cbr-low", 0.5), ("vbr", 0.25),
                           ("best-effort", 0.25))),
)


def run_faulty(scheme, sessions, oracle, seed=5, cycles=2_000):
    config = RouterConfig(num_ports=4, vcs_per_link=64, candidate_levels=4)
    sim = FaultySingleRouterSim(config, scheme=scheme, seed=seed,
                                faults=FAULTS)
    tally = FilterTally()
    if oracle:
        use_object_path(sim, tally)
    workload = build_cbr_workload(sim.router, 0.4, sim.rng.workload)
    for item in build_besteffort_workload(
        sim.router, 0.1, sim.rng.workload
    ).loads:
        workload.add(item)
    engine = None
    if sessions:
        engine = SessionEngine.from_spec(config, SESSIONS, cycles,
                                         sim.rng.sessions)
    result = sim.run(workload, RunControl(cycles=cycles, warmup_cycles=0),
                     sessions=engine)
    out = {
        "result": canon(result.to_dict()),
        "schedule": sim.schedule.text(),
        "streams": sim.rng.state_fingerprint(),
    }
    return out, tally


@pytest.mark.parametrize("sessions", [False, True], ids=["run", "sessions"])
@pytest.mark.parametrize("scheme", ["siabp", "wfq", "iabp"])
def test_fault_filter_matches_object_oracle(scheme, sessions):
    fast, _ = run_faulty(scheme, sessions, oracle=False)
    oracle, tally = run_faulty(scheme, sessions, oracle=True)
    assert fast == oracle
    assert "dead_port" in fast["schedule"]
    assert "stuck_slot" in fast["schedule"]
    assert tally.dropped > 0
