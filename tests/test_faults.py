"""Tests for repro.faults: injection, detection, recovery, degradation.

Covers the robustness subsystem end to end: deterministic replay of
fault schedules, CRC detection of corrupted flits, credit-watchdog
resync and escalation, dead-port teardown/re-admission, QoS-ordered
degradation, the simulation watchdog, and multi-router rerouting.
"""

import numpy as np
import pytest

from repro.faults import (
    LEVEL_CLAMP_VBR_PEAK,
    LEVEL_NORMAL,
    LEVEL_SHED_BEST_EFFORT,
    DegradationPolicy,
    FaultConfig,
    FaultKind,
    FaultSchedule,
    FaultySingleRouterSim,
    SimWatchdog,
    WatchdogError,
    corrupt_word,
    crc8,
    flit_words,
    verify,
)
from repro.network.multirouter import MultiRouterNetwork
from repro.network.topology import mesh, ring
from repro.router import MMRouter, RouterConfig, TrafficClass
from repro.router.credits import CreditState, CreditWatchdog
from repro.sim.engine import RngStreams, RunControl
from repro.sim.experiments import default_config
from repro.traffic.mixes import build_besteffort_workload, build_cbr_workload


class ArrayOccupancy:
    """Stands in for the VCMemory the watchdog reads, over a plain array."""

    def __init__(self, occupancy):
        self.occupancy = occupancy

    def occupancy_of(self, port, vc):
        return int(self.occupancy[port, vc])


def make_sim(seed=0, faults=None, vcs=8, ports=4):
    config = default_config(num_ports=ports, vcs_per_link=vcs)
    return FaultySingleRouterSim(config, seed=seed, faults=faults)


def build_mixed_workload(sim, cbr_load=0.5, be_load=0.15):
    workload = build_cbr_workload(sim.router, cbr_load, sim.rng.workload)
    for item in build_besteffort_workload(
        sim.router, be_load, sim.rng.workload
    ).loads:
        workload.add(item)
    return workload


# ----------------------------------------------------------------------
# CRC integrity layer
# ----------------------------------------------------------------------


class TestIntegrity:
    def test_intact_flit_verifies(self):
        words = flit_words(2, 7, 12345, 9, True)
        assert verify(words, crc8(words))

    def test_every_single_bit_flip_is_detected(self):
        words = flit_words(1, 3, 987654, 4, False)
        crc = crc8(words)
        for bit in range(len(words) * 64):
            assert not verify(corrupt_word(words, bit), crc), f"bit {bit}"

    def test_corrupt_word_out_of_range(self):
        words = flit_words(0, 0, 0, -1, False)
        with pytest.raises(ValueError):
            corrupt_word(words, len(words) * 64)

    def test_distinct_flits_distinct_words(self):
        assert flit_words(0, 1, 10, -1, False) != flit_words(1, 0, 10, -1, False)


# ----------------------------------------------------------------------
# Config and schedule
# ----------------------------------------------------------------------


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(corruption_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(credit_loss_rate=0.6, credit_dup_rate=0.6)
        with pytest.raises(ValueError):
            FaultConfig(shed_be_faults=10, clamp_vbr_faults=5)

    def test_any_faults(self):
        assert not FaultConfig().any_faults
        assert FaultConfig(dead_port=1).any_faults
        assert FaultConfig(corruption_rate=0.1).has_random_faults


class TestFaultSchedule:
    def test_sequence_numbers_and_counts(self):
        sched = FaultSchedule()
        sched.record(5, FaultKind.CREDIT_LOSS, "port=0 vc=1")
        sched.record(9, FaultKind.CREDIT_LOSS, "port=0 vc=2", "x")
        assert len(sched) == 2
        assert sched.count(FaultKind.CREDIT_LOSS) == 2
        assert sched.events[0].seq == 0 and sched.events[1].seq == 1
        assert "| x" in sched.lines()[1]
        assert sched.counts_by_kind() == {"inject.credit_loss": 2}


# ----------------------------------------------------------------------
# Determinism contract
# ----------------------------------------------------------------------


class TestDeterminism:
    FAULTS = FaultConfig(
        corruption_rate=0.01,
        credit_loss_rate=0.005,
        credit_dup_rate=0.005,
        stuck_slot_rate=0.002,
        dead_port=2,
        dead_port_cycle=700,
    )

    def _run(self, seed):
        sim = make_sim(seed=seed, faults=self.FAULTS)
        workload = build_mixed_workload(sim)
        result = sim.run(workload, RunControl(cycles=2500))
        return sim, result

    def test_same_seed_byte_identical_schedule_and_metrics(self):
        sim_a, res_a = self._run(7)
        sim_b, res_b = self._run(7)
        assert sim_a.schedule.text() == sim_b.schedule.text()
        assert res_a.fault == res_b.fault
        assert res_a.flits == res_b.flits
        assert res_a.flit_delay_us == res_b.flit_delay_us
        assert res_a.throughput == res_b.throughput
        assert res_a.degradation_level == res_b.degradation_level

    def test_different_seed_differs(self):
        sim_a, _ = self._run(7)
        sim_b, _ = self._run(8)
        assert sim_a.schedule.text() != sim_b.schedule.text()

    def test_faults_rng_role_is_stable_and_separate(self):
        a, b = RngStreams(42), RngStreams(42)
        assert a.faults.random() == b.faults.random()
        c = RngStreams(42)
        c.arbiter.random()  # draws on one role must not shift another
        assert c.faults.random() == RngStreams(42).faults.random()


# ----------------------------------------------------------------------
# Healthy runs are untouched
# ----------------------------------------------------------------------


class TestHealthyRun:
    def test_no_faults_no_events_zero_counters(self):
        sim = make_sim(seed=3)
        workload = build_mixed_workload(sim)
        result = sim.run(workload, RunControl(cycles=1500))
        assert len(sim.schedule) == 0
        assert all(v == 0 for v in result.fault.values())
        assert result.degradation_level == LEVEL_NORMAL
        assert result.throughput > 0


# ----------------------------------------------------------------------
# Credit faults: loss, duplication, watchdog recovery
# ----------------------------------------------------------------------


class TestCreditFaultRecovery:
    def test_lost_credits_resync_and_traffic_survives(self):
        faults = FaultConfig(credit_loss_rate=0.01, resync_timeout=8)
        sim = make_sim(seed=5, faults=faults)
        workload = build_mixed_workload(sim)
        result = sim.run(workload, RunControl(cycles=3000))
        assert result.fault["injected_credit_loss"] > 0
        assert result.fault["credit_resyncs"] > 0
        assert sim.schedule.count(FaultKind.CREDIT_DEFICIT) > 0
        assert result.throughput > 0
        # After recovery the plain ledger must balance.
        sim.router.credits.check_conservation(sim.router.vc_memory.occupancy)

    def test_duplicate_credits_never_overflow_buffers(self):
        faults = FaultConfig(credit_dup_rate=0.02)
        sim = make_sim(seed=6, faults=faults)
        workload = build_mixed_workload(sim)
        result = sim.run(workload, RunControl(cycles=3000))
        injected = result.fault["injected_credit_dup"]
        assert injected > 0
        handled = (
            result.fault["duplicates_discarded"]
            + sim.schedule.count(FaultKind.CREDIT_SURPLUS)
        )
        assert handled > 0
        sim.router.credits.check_conservation(sim.router.vc_memory.occupancy)


class TestCreditWatchdogUnit:
    def _state(self):
        cfg = RouterConfig(
            num_ports=2,
            vcs_per_link=4,
            vc_buffer_depth=3,
            credit_return_delay=1,
            candidate_levels=1,
        )
        return CreditState(cfg), np.zeros((2, 4), dtype=np.int64)

    def test_deficit_waits_for_timeout_then_resyncs(self):
        state, occ = self._state()
        dog = CreditWatchdog(state, timeout=4, max_retries=2)
        state.consume(0, 1)
        occ_now = occ.copy()
        state.fault_lose(0, 1)  # flit left, credit destroyed
        assert dog.scan(10, ArrayOccupancy(occ_now)) == []  # grace period
        events = dog.scan(14, ArrayOccupancy(occ_now))
        assert events == [("deficit_resync", 0, 1, 1)]
        assert state.available(0, 1) == 3
        state.check_conservation(occ_now)

    def test_backoff_and_giveup(self):
        state, occ = self._state()
        dog = CreditWatchdog(state, timeout=2, max_retries=1, backoff=2)
        now = 0
        # First deficit: resync after timeout=2.
        state.consume(0, 0)
        state.fault_lose(0, 0)
        dog.scan(now, ArrayOccupancy(occ))
        events = dog.scan(now + 2, ArrayOccupancy(occ))
        assert events[0][0] == "deficit_resync"
        # Second deficit on the same VC: backoff doubles the wait.
        state.consume(0, 0)
        state.fault_lose(0, 0)
        assert dog.scan(10, ArrayOccupancy(occ)) == []
        assert dog.scan(12, ArrayOccupancy(occ)) == []  # 2 * 2**1 = 4 cycles now
        events = dog.scan(14, ArrayOccupancy(occ))
        assert events == [("giveup", 0, 0, 0)]
        # Given-up VCs stay quiet until reset.
        assert dog.scan(30, ArrayOccupancy(occ)) == []
        dog.reset(0, 0)
        dog.scan(31, ArrayOccupancy(occ))
        assert dog.scan(40, ArrayOccupancy(occ))[0][0] == "deficit_resync"

    def test_surplus_resyncs_immediately_after_landing(self):
        state, occ = self._state()
        dog = CreditWatchdog(state, timeout=4)
        state.consume(1, 2)
        occ[1, 2] = 1  # the forwarded flit sits in the router buffer
        state.fault_duplicate(1, 2, now=0)
        # While the duplicate is still on the wire there is no visible
        # drift — the counter matches what a healthy NIC would show.
        assert dog.scan(0, ArrayOccupancy(occ)) == []
        state.deliver(1)  # duplicate lands, counter now inflated
        events = dog.scan(1, ArrayOccupancy(occ))
        assert events and events[0][0] == "surplus_resync"
        state.check_conservation(occ)


# ----------------------------------------------------------------------
# Flit corruption: CRC + NACK-and-retransmit
# ----------------------------------------------------------------------


class TestCorruptionRecovery:
    def test_every_corruption_detected_and_retransmitted(self):
        faults = FaultConfig(corruption_rate=0.02)
        sim = make_sim(seed=11, faults=faults)
        workload = build_mixed_workload(sim)
        result = sim.run(workload, RunControl(cycles=2500))
        injected = result.fault["injected_corruption"]
        assert injected > 0
        assert result.fault["crc_detected"] == injected
        assert result.fault["retransmissions"] == injected
        # Retransmission wastes cycles but loses nothing.
        assert result.fault["flits_dropped"] == 0
        assert result.throughput > 0


# ----------------------------------------------------------------------
# Dead output port: teardown + re-admission
# ----------------------------------------------------------------------


class TestDeadPort:
    def test_victims_torn_down_and_readmitted_elsewhere(self):
        faults = FaultConfig(dead_port=1, dead_port_cycle=600)
        sim = make_sim(seed=4, faults=faults)
        workload = build_mixed_workload(sim, cbr_load=0.5)
        victims_before = len(sim.router.table.on_output(1))
        assert victims_before > 0
        result = sim.run(workload, RunControl(cycles=2500))
        assert result.fault["injected_dead_port"] == 1
        assert result.fault["teardowns"] >= victims_before
        assert (
            result.fault["readmitted"] + result.fault["connections_dropped"]
            == result.fault["teardowns"]
        )
        # Nothing may be routed through the dead port afterwards.
        assert sim.router.table.on_output(1) == []
        assert sim.dead_port == 1
        # Capacity loss keeps best-effort shed for the rest of the run.
        assert result.degradation_level >= LEVEL_SHED_BEST_EFFORT

    def test_dead_port_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_sim(faults=FaultConfig(dead_port=9), ports=4)


# ----------------------------------------------------------------------
# Graceful degradation policy
# ----------------------------------------------------------------------


class TestDegradationPolicy:
    CFG = FaultConfig(
        window=100, shed_be_faults=2, clamp_vbr_faults=4, restore_after=50
    )

    def test_escalates_in_qos_order_and_restores_stepwise(self):
        policy = DegradationPolicy(self.CFG, FaultSchedule())
        assert policy.update(0) == LEVEL_NORMAL
        policy.note_fault(1)
        policy.note_fault(2)
        assert policy.update(2) == LEVEL_SHED_BEST_EFFORT
        policy.note_fault(3)
        policy.note_fault(4)
        assert policy.update(4) == LEVEL_CLAMP_VBR_PEAK
        assert policy.max_level == LEVEL_CLAMP_VBR_PEAK
        assert policy.escalations == 2
        # Still shedding while the faults sit inside the window.
        assert policy.update(4 + 50) == LEVEL_CLAMP_VBR_PEAK
        # Once they age out: one level per quiet period, not straight to
        # normal.
        assert policy.update(110) == LEVEL_SHED_BEST_EFFORT
        assert policy.update(161) == LEVEL_NORMAL

    def test_floor_holds_level_through_quiet_periods(self):
        policy = DegradationPolicy(self.CFG, FaultSchedule())
        policy.set_floor(LEVEL_SHED_BEST_EFFORT, 0)
        assert policy.level == LEVEL_SHED_BEST_EFFORT
        assert policy.update(10_000) == LEVEL_SHED_BEST_EFFORT
        policy.clear_floor(10_001)
        assert policy.update(10_002) == LEVEL_NORMAL

    def test_transitions_are_logged(self):
        sched = FaultSchedule()
        policy = DegradationPolicy(self.CFG, sched)
        policy.note_fault(1)
        policy.note_fault(1)
        policy.update(1)
        policy.update(1000)
        assert sched.count(FaultKind.DEGRADE) == 1
        assert sched.count(FaultKind.RESTORE) == 1

    def test_best_effort_shed_under_sustained_faults(self):
        # Aggressive credit loss must trip level 1 and stop best-effort
        # injection while CBR keeps flowing.
        faults = FaultConfig(
            credit_loss_rate=0.05, window=400, shed_be_faults=3,
            restore_after=5000,
        )
        sim = make_sim(seed=9, faults=faults)
        workload = build_mixed_workload(sim, cbr_load=0.4, be_load=0.2)
        result = sim.run(workload, RunControl(cycles=3000))
        assert result.degradation_level >= LEVEL_SHED_BEST_EFFORT
        assert sim.schedule.count(FaultKind.DEGRADE) >= 1
        assert result.flits.get("cbr-low", 0) + result.flits.get(
            "cbr-medium", 0
        ) + result.flits.get("cbr-high", 0) >= 0  # CBR groups still present
        assert result.throughput > 0


# ----------------------------------------------------------------------
# Simulation watchdog
# ----------------------------------------------------------------------


class TestSimWatchdog:
    def _router(self):
        cfg = RouterConfig(
            num_ports=2,
            vcs_per_link=4,
            vc_buffer_depth=2,
            candidate_levels=1,
            flit_cycles_per_round=400,
        )
        router = MMRouter(cfg)
        conn = router.establish(0, 1, TrafficClass.CBR, 10).connection
        router.vc_memory.push(conn.in_port, conn.vc, 0, -1, False, 0)
        return router

    def test_conservation_violation_aborts_with_dump(self):
        router = self._router()
        sched = FaultSchedule()
        dog = SimWatchdog(router, sched, stall_limit=100, check_interval=1)
        with pytest.raises(WatchdogError) as exc:
            dog.check(now=2, injected=5, departed=0, dropped=0)
        assert "conservation" in str(exc.value)
        assert exc.value.diagnostics  # router-state dump attached
        assert sched.count(FaultKind.STALL) == 1

    def test_stall_detected_after_limit(self):
        router = self._router()
        dog = SimWatchdog(router, FaultSchedule(), stall_limit=50,
                          check_interval=10)
        dog.note_progress(0)
        dog.check(now=40, injected=1, departed=0, dropped=0)  # below limit
        with pytest.raises(WatchdogError) as exc:
            dog.check(now=60, injected=1, departed=0, dropped=0)
        assert "livelock" in str(exc.value)

    def test_progress_resets_the_stall_clock(self):
        router = self._router()
        dog = SimWatchdog(router, FaultSchedule(), stall_limit=50,
                          check_interval=10)
        dog.note_progress(55)
        dog.check(now=100, injected=1, departed=0, dropped=0)  # no raise


# ----------------------------------------------------------------------
# Multi-router failures: reroute / drop
# ----------------------------------------------------------------------


class TestNetworkFailures:
    def _net(self, topo=None):
        config = default_config(num_ports=5, vcs_per_link=8)
        return MultiRouterNetwork(
            topo or mesh(2, 2), config, schedule=FaultSchedule()
        )

    def test_fail_link_reroutes_around_it(self):
        net = self._net()
        conn = net.establish(0, 3, TrafficClass.CBR, avg_slots=200)
        assert conn.router_path == (0, 1, 3)
        net.fail_link(0, 1, now=10)
        assert net.rerouted == 1
        new = net.connections[conn.net_conn_id]
        assert new.router_path == (0, 2, 3)
        assert new.net_conn_id == conn.net_conn_id
        # Traffic still flows end to end on the new path.
        rng = np.random.default_rng(0)
        for now in range(300):
            if now % 4 == 0:
                net.inject(conn, now)
            net.step(now, rng)
        assert net.delivered > 0
        assert FaultKind.REROUTE in {e.kind for e in net.schedule.events}

    def test_fail_link_migrates_nic_backlog(self):
        net = self._net()
        conn = net.establish(0, 3, TrafficClass.CBR, avg_slots=200)
        for i in range(5):
            net.inject(conn, i)
        net.fail_link(0, 1, now=0)
        new = net.connections[conn.net_conn_id]
        nic = net.routers[0].nics[new.hops[0].in_port]
        assert nic.queue_lengths[new.hops[0].vc] == 5

    def test_fail_router_drops_endpoint_connections(self):
        net = self._net()
        conn = net.establish(0, 1, TrafficClass.CBR, avg_slots=100)
        net.fail_router(1, now=5)
        assert net.dropped_connections == 1
        assert conn.net_conn_id in net._dropped_ids
        # Injecting into a dropped connection loses the flit, loudly
        # counted, instead of corrupting a freed VC.
        before = net.lost_flits
        net.inject(conn, 10)
        assert net.lost_flits == before + 1

    def test_fail_router_reroutes_transit_connections(self):
        net = self._net()
        conn = net.establish(0, 3, TrafficClass.CBR, avg_slots=100)
        net.fail_router(1, now=5)
        assert net.rerouted == 1
        assert net.connections[conn.net_conn_id].router_path == (0, 2, 3)

    def test_no_surviving_path_drops_connection(self):
        config = default_config(num_ports=4, vcs_per_link=8)
        net = MultiRouterNetwork(ring(3), config, schedule=FaultSchedule())
        conn = net.establish(0, 1, TrafficClass.CBR, avg_slots=100)
        net.fail_link(0, 1, now=0)  # reroutes 0-2-1
        assert net.rerouted == 1
        net.fail_router(2, now=1)  # no path remains
        assert net.dropped_connections == 1
        assert conn.net_conn_id in net._dropped_ids

    def test_dead_router_swallows_in_flight_flits(self):
        net = self._net()
        conn = net.establish(0, 3, TrafficClass.CBR, avg_slots=200)
        rng = np.random.default_rng(1)
        for now in range(40):
            net.inject(conn, now)
            net.step(now, rng)
        lost_before = net.lost_flits
        net.fail_router(1, now=40)
        # Flits buffered inside router 1 (and flying toward it) are lost.
        assert net.lost_flits >= lost_before
        # The network keeps stepping without touching the dead router.
        for now in range(40, 80):
            net.step(now, rng)

    def test_unknown_link_rejected(self):
        net = self._net()
        with pytest.raises(ValueError):
            net.fail_link(0, 3)  # diagonal: no such mesh link
