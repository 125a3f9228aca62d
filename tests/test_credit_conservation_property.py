"""Property test: per-VC credit conservation holds cycle by cycle.

The flow-control ledger invariant — for every (port, vc),

    credits + in_flight - extra_flight - extra_landed + occupancy + lost
        == vc_buffer_depth

— must hold after *every* cycle of any interleaving of NIC forwards,
crossbar departures, credit landings, and the fault paths (lost credits,
duplicated credits, watchdog resyncs).  The model here mirrors exactly
how the router uses :class:`~repro.router.credits.CreditState`: a flit
consumes a credit when forwarded (occupancy +1), departs later
(occupancy -1, credit return scheduled / lost / duplicated), and credits
land after the wire delay.  A full fault-injection simulation run is
also checked end to end.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.faults import FaultConfig, FaultySingleRouterSim
from repro.router.config import RouterConfig
from repro.router.credits import CreditState, CreditWatchdog
from repro.sim.engine import RunControl
from repro.sim.experiments import default_config
from repro.traffic.mixes import build_besteffort_workload, build_cbr_workload

PORTS, VCS, DEPTH, DELAY = 2, 4, 3, 2


class ArrayOccupancy:
    """Stands in for the VCMemory the watchdog reads, over a plain array."""

    def __init__(self, occupancy):
        self.occupancy = occupancy

    def occupancy_of(self, port, vc):
        return int(self.occupancy[port, vc])


def make_state() -> CreditState:
    cfg = RouterConfig(
        num_ports=PORTS,
        vcs_per_link=VCS,
        vc_buffer_depth=DEPTH,
        credit_return_delay=DELAY,
        candidate_levels=1,
    )
    return CreditState(cfg)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cycles=st.integers(20, 200),
    loss_rate=st.floats(0.0, 0.3),
    dup_rate=st.floats(0.0, 0.3),
    resync_every=st.integers(5, 40),
)
def test_ledger_invariant_every_cycle(seed, cycles, loss_rate, dup_rate, resync_every):
    rng = np.random.default_rng(seed)
    state = make_state()
    watchdog = CreditWatchdog(state, timeout=4, max_retries=3)
    occupancy = np.zeros((PORTS, VCS), dtype=np.int64)

    for now in range(cycles):
        state.deliver(now)
        # The watchdog repairs drift exactly as the harness does: surplus
        # immediately, deficits after their timeout.
        watchdog.scan(now, ArrayOccupancy(occupancy))
        for port in range(PORTS):
            for vc in range(VCS):
                # Crossbar side: an occupied VC may send its head flit.
                if occupancy[port, vc] > 0 and rng.random() < 0.4:
                    occupancy[port, vc] -= 1
                    u = rng.random()
                    if u < loss_rate:
                        state.fault_lose(port, vc)
                    else:
                        state.schedule_return(port, vc, now)
                        if u < loss_rate + dup_rate:
                            state.fault_duplicate(port, vc, now)
                # NIC side: forward when a credit is available.
                if state.available(port, vc) > 0 and rng.random() < 0.5:
                    state.consume(port, vc)
                    occupancy[port, vc] += 1
        # Occasional explicit resync must never break the ledger either.
        if now % resync_every == resync_every - 1:
            port = int(rng.integers(PORTS))
            vc = int(rng.integers(VCS))
            state.resync(port, vc, int(occupancy[port, vc]))
        state.check_conservation(occupancy)
        assert 0 <= int(occupancy.max()) <= DEPTH


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_reset_vc_restores_pristine_ledger(seed):
    rng = np.random.default_rng(seed)
    state = make_state()
    occupancy = np.zeros((PORTS, VCS), dtype=np.int64)
    for now in range(30):
        state.deliver(now)
        for port in range(PORTS):
            for vc in range(VCS):
                if occupancy[port, vc] > 0 and rng.random() < 0.5:
                    occupancy[port, vc] -= 1
                    if rng.random() < 0.3:
                        state.fault_lose(port, vc)
                    else:
                        state.schedule_return(port, vc, now)
                if state.available(port, vc) > 0 and rng.random() < 0.5:
                    state.consume(port, vc)
                    occupancy[port, vc] += 1
    # Teardown path: buffers drain, then the VC resets to pristine.
    port, vc = 1, 2
    occupancy[port, vc] = 0
    state.reset_vc(port, vc)
    assert state.available(port, vc) == DEPTH
    assert state.in_flight_for(port, vc) == 0
    state.check_conservation(occupancy)


class CheckedFaultySim(FaultySingleRouterSim):
    """Harness subclass asserting the ledger before every NIC transfer."""

    checks = 0

    def _accept_with_faults(self, now, level):
        self.router.credits.check_conservation(self.router.vc_memory.occupancy)
        CheckedFaultySim.checks += 1
        super()._accept_with_faults(now, level)


def test_full_simulation_conserves_credits_under_faults():
    faults = FaultConfig(
        credit_loss_rate=0.01,
        credit_dup_rate=0.01,
        corruption_rate=0.005,
        dead_port=2,
        dead_port_cycle=500,
        resync_timeout=8,
    )
    config = default_config(num_ports=4, vcs_per_link=8)
    CheckedFaultySim.checks = 0
    sim = CheckedFaultySim(config, seed=13, faults=faults)
    workload = build_cbr_workload(sim.router, 0.5, sim.rng.workload)
    for item in build_besteffort_workload(
        sim.router, 0.15, sim.rng.workload
    ).loads:
        workload.add(item)
    result = sim.run(workload, RunControl(cycles=2000))
    assert CheckedFaultySim.checks == 2000  # the invariant ran every cycle
    assert result.fault["injected_credit_loss"] > 0
    assert result.fault["injected_credit_dup"] > 0
    sim.router.credits.check_conservation(sim.router.vc_memory.occupancy)
