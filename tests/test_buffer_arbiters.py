"""Differential tests: buffer-native arbiters vs the object path.

Every arbiter's ``match_buffer`` must be *draw-for-draw* identical to its
``match`` over the equivalent candidate objects: the same grants in the
same order, consuming exactly the same rng draws (checked by comparing
the generators' bit states afterwards).  A single skipped or extra draw
would silently decorrelate fast-path experiments from the published
reference results even if each individual matching looked plausible.
"""

import numpy as np
import pytest

from repro.core import make_arbiter
from repro.core.candidates import CandidateBuffer
from repro.core.coa import CandidateOrderArbiter
from repro.core.link_scheduler import RESERVED_SCALE, LinkScheduler
from repro.core.priorities import SIABP, StaticPriority
from repro.router.config import RouterConfig
from repro.router.vc_memory import VCMemory

ARBITER_NAMES = [
    "coa", "coa-level-only", "coa-conflict-only", "coa-random-order",
    "coa-random-arb", "wfa", "wfa-plain", "wfa-multi", "islip", "islip-1",
    "islip-multi", "pim", "pim-1", "pim-multi", "greedy", "random",
]

COA_VARIANTS = [
    (ordering, arbitration)
    for ordering in ("level_conflict", "level_only", "conflict_only", "random")
    for arbitration in ("priority", "random")
]


def make(vcs=8, levels=4, ports=4):
    cfg = RouterConfig(num_ports=ports, vcs_per_link=vcs,
                       candidate_levels=levels, vc_buffer_depth=4)
    return cfg, VCMemory(cfg), LinkScheduler(cfg, SIABP())


def fill_random(cfg, mem, sched, rng, steps=150):
    """Random occupancy; returns (buffer, equivalent candidate objects)."""
    n, v = cfg.num_ports, cfg.vcs_per_link
    slots = rng.integers(1, 500, size=(n, v)).astype(np.int64)
    dests = rng.integers(0, n, size=(n, v)).astype(np.int64)
    reserved = rng.random((n, v)) < 0.5
    now = 0
    for _ in range(steps):
        now += 1
        p, vc = int(rng.integers(n)), int(rng.integers(v))
        if rng.random() < 0.65 and mem.free_space(p, vc):
            mem.push(p, vc, now, -1, False, now)
        elif mem.occupancy_of(p, vc):
            mem.pop(p, vc)
    buf = CandidateBuffer(n, cfg.candidate_levels)
    sched.select_into(buf, *mem.occupancy_state(), slots, dests, now, reserved)
    cands = sched.select_batch(
        mem.heads_all(), slots, dests, now,
        np.where(reserved, RESERVED_SCALE, 1.0),
    )
    return buf, cands


def assert_draw_for_draw(arb_obj, arb_buf, cands, buf, seed):
    """Grants and post-call rng state must both match exactly."""
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    grants_obj = arb_obj.match(cands, rng_a)
    grants_buf = arb_buf.match_buffer(buf, rng_b)
    assert grants_buf == grants_obj
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestRegistryArbiters:
    @pytest.mark.parametrize("name", ARBITER_NAMES)
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_match_buffer_draw_for_draw(self, name, seed):
        cfg, mem, sched = make()
        rng = np.random.default_rng(100 + seed)
        buf, cands = fill_random(cfg, mem, sched, rng)
        # Two fresh instances: stateful arbiters (iSLIP pointers) must
        # start both paths from the same internal state.
        arb_obj = make_arbiter(name, cfg)
        arb_buf = make_arbiter(name, cfg)
        assert_draw_for_draw(arb_obj, arb_buf, cands, buf, seed)


class TestCoaVariants:
    @pytest.mark.parametrize("ordering,arbitration", COA_VARIANTS)
    @pytest.mark.parametrize("seed", [1, 42])
    def test_all_combos_draw_for_draw(self, ordering, arbitration, seed):
        cfg, mem, sched = make()
        rng = np.random.default_rng(1000 + seed)
        buf, cands = fill_random(cfg, mem, sched, rng)
        arb = CandidateOrderArbiter(
            cfg.num_ports, cfg.candidate_levels, ordering, arbitration
        )
        assert_draw_for_draw(arb, arb, cands, buf, seed)

    @pytest.mark.parametrize("ordering,arbitration", COA_VARIANTS)
    def test_equal_priority_adversarial_above_2_53(self, ordering, arbitration):
        """Ties at and just above 2**53 must tie-break identically.

        Keys 2**53 and 2**53 + 1 are equal in float64; an arbiter that
        compared through floats would see a 3-way tie where the exact
        path sees a winner plus a 2-way tie, changing which requests
        enter the rng tie-break.
        """
        cfg, mem, _ = make(vcs=6, levels=3)
        sched = LinkScheduler(cfg, StaticPriority())
        n, v = cfg.num_ports, cfg.vcs_per_link
        slots = np.ones((n, v), dtype=np.int64)
        # All inputs contend for output 0 with near-identical huge keys.
        slots[:, 0] = 2**53
        slots[:, 1] = 2**53 + 1
        slots[:, 2] = 2**53
        dests = np.zeros((n, v), dtype=np.int64)
        now = 1
        for p in range(n):
            for vc in range(3):
                mem.push(p, vc, 0, -1, False, 0)
        buf = CandidateBuffer(n, cfg.candidate_levels)
        sched.select_into(buf, *mem.occupancy_state(), slots, dests, now)
        cands = sched.select_batch(mem.heads_all(), slots, dests, now)
        arb = CandidateOrderArbiter(
            cfg.num_ports, cfg.candidate_levels, ordering, arbitration
        )
        for seed in range(8):
            assert_draw_for_draw(arb, arb, cands, buf, seed)
            # The selection-matrix reference must agree too (object
            # priorities are exact Python ints on both sides).
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            assert arb.match(cands, rng_a) == arb.match_reference(
                cands, rng_b
            )
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestDrainRecoveryOccupancies:
    def test_draw_for_draw_through_full_drains(self):
        """Equivalence holds through empty-link and drained states.

        Mirrors fault-recovery occupancy patterns: whole ports drained
        to empty (as teardown/recovery does), then refilled, with the
        buffer reused across fills.
        """
        cfg, mem, sched = make(vcs=6, levels=3, ports=3)
        n, v = cfg.num_ports, cfg.vcs_per_link
        rng = np.random.default_rng(9)
        slots = rng.integers(1, 50, size=(n, v)).astype(np.int64)
        dests = rng.integers(0, n, size=(n, v)).astype(np.int64)
        arb = CandidateOrderArbiter(n, cfg.candidate_levels)
        buf = CandidateBuffer(n, cfg.candidate_levels)
        now = 0
        for round_idx in range(25):
            now += 1
            if round_idx % 5 == 4:
                # Drain a whole port (fault recovery / teardown pattern).
                p = round_idx % n
                for vc in range(v):
                    while mem.occupancy_of(p, vc):
                        mem.pop(p, vc)
            else:
                for _ in range(6):
                    p, vc = int(rng.integers(n)), int(rng.integers(v))
                    if mem.free_space(p, vc):
                        mem.push(p, vc, now, -1, False, now)
            sched.select_into(buf, *mem.occupancy_state(), slots, dests, now)
            cands = sched.select_batch(mem.heads_all(), slots, dests, now)
            assert_draw_for_draw(arb, arb, cands, buf, round_idx)


class TestFullSimDifferential:
    def test_fast_and_reference_sims_depart_identically(self):
        from repro.perf.harness import _departures, _make_sim

        sim_f, wl_f = _make_sim(4, 16, 4, "coa", "siabp", 0.8, 13, True)
        sim_r, wl_r = _make_sim(4, 16, 4, "coa", "siabp", 0.8, 13, False)
        assert _departures(sim_f, wl_f, 400) == _departures(sim_r, wl_r, 400)
