"""Tests for repro.core.candidates (the zero-allocation candidate buffer).

Covers the buffer's array semantics, the sparse Python-native twin and
its lazy array materialization, the exact integer priority keys (no
float64 collapse above 2**53), and the equivalence of the buffer fill
with the object-path selection entry points.
"""

import numpy as np
import pytest

from repro.core.candidates import CandidateBuffer, TIER_SHIFT
from repro.core.link_scheduler import RESERVED_SCALE, LinkScheduler
from repro.core.priorities import (
    FIFOPriority,
    IABP,
    SIABP,
    StaticPriority,
)
from repro.router.config import RouterConfig
from repro.router.vc_memory import VCMemory


def make(vcs=8, levels=4, ports=3, scheme=None, depth=4):
    cfg = RouterConfig(num_ports=ports, vcs_per_link=vcs,
                       candidate_levels=levels, vc_buffer_depth=depth)
    sched = LinkScheduler(cfg, scheme or SIABP())
    return cfg, VCMemory(cfg), sched


def conn_arrays(cfg, rng, reserved_frac=0.5):
    n, v = cfg.num_ports, cfg.vcs_per_link
    slots = rng.integers(1, 200, size=(n, v)).astype(np.int64)
    dests = rng.integers(0, n, size=(n, v)).astype(np.int64)
    reserved = rng.random((n, v)) < reserved_frac
    return slots, dests, reserved


def tier_scale(reserved):
    return np.where(reserved, RESERVED_SCALE, 1.0)


def random_occupancy(mem, cfg, rng, steps=120, now0=0):
    """Drive push/pop traffic; returns the final cycle."""
    now = now0
    n, v = cfg.num_ports, cfg.vcs_per_link
    for _ in range(steps):
        now += 1
        p, vc = int(rng.integers(n)), int(rng.integers(v))
        if rng.random() < 0.6 and mem.free_space(p, vc):
            mem.push(p, vc, now, -1, False, now)
        elif mem.occupancy_of(p, vc):
            mem.pop(p, vc)
    return now


class TestConstruction:
    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            CandidateBuffer(0, 4)
        with pytest.raises(ValueError):
            CandidateBuffer(4, 0)

    def test_starts_empty(self):
        buf = CandidateBuffer(3, 2)
        assert buf.total() == 0
        assert buf.to_candidates() == [[], [], []]
        assert not buf.sparse_valid


class TestFillEquivalence:
    """select_into must produce exactly the select_batch candidates."""

    @pytest.mark.parametrize(
        "scheme", [SIABP(), StaticPriority(), FIFOPriority(), IABP(100)]
    )
    def test_buffer_matches_object_path(self, scheme):
        cfg, mem, _ = make(scheme=scheme)
        sched = LinkScheduler(cfg, scheme)
        buf = CandidateBuffer(cfg.num_ports, cfg.candidate_levels)
        rng = np.random.default_rng(3)
        slots, dests, reserved = conn_arrays(cfg, rng)
        scale = tier_scale(reserved)
        now = 0
        for _ in range(30):
            now = random_occupancy(mem, cfg, rng, steps=15, now0=now)
            batch = sched.select_batch(
                mem.heads_all(), slots, dests, now, scale
            )
            sched.select_into(
                buf, *mem.occupancy_state(), slots, dests, now, reserved
            )
            assert buf.to_candidates() == batch

    def test_empty_router_fill(self):
        cfg, mem, sched = make()
        buf = CandidateBuffer(cfg.num_ports, cfg.candidate_levels)
        slots = np.ones((cfg.num_ports, cfg.vcs_per_link), dtype=np.int64)
        dests = np.zeros_like(slots)
        sched.select_into(buf, *mem.occupancy_state(), slots, dests, 5)
        assert buf.total() == 0
        assert buf.to_candidates() == [[] for _ in range(cfg.num_ports)]
        assert buf.sparse_valid and all(not row for row in buf.sparse)


class TestSparseTwin:
    def test_sparse_rows_match_arrays(self):
        cfg, mem, sched = make()
        buf = CandidateBuffer(cfg.num_ports, cfg.candidate_levels)
        rng = np.random.default_rng(11)
        slots, dests, reserved = conn_arrays(cfg, rng)
        now = random_occupancy(mem, cfg, rng)
        sched.select_into(buf, *mem.occupancy_state(), slots, dests, now, reserved)
        assert buf.sparse_valid
        for p in range(cfg.num_ports):
            row = buf.sparse[p]
            assert len(row) == int(buf.count[p])
            for level, (key, vc, out) in enumerate(row):
                assert key == int(buf.prio_int[p, level])
                assert vc == int(buf.vc[p, level])
                assert out == int(buf.out_port[p, level])

    def test_lazy_arrays_sync_after_sparse_fill(self):
        """Arrays read after a sparse fill reflect that fill, not stale data."""
        cfg, mem, sched = make(vcs=4, levels=2, ports=2)
        buf = CandidateBuffer(cfg.num_ports, cfg.candidate_levels)
        slots = np.full((2, 4), 7, dtype=np.int64)
        dests = np.ones((2, 4), dtype=np.int64)
        mem.push(0, 2, 0, -1, False, 0)
        sched.select_into(buf, *mem.occupancy_state(), slots, dests, 3)
        # First read triggers the sync.
        assert int(buf.count[0]) == 1 and int(buf.count[1]) == 0
        assert int(buf.vc[0, 0]) == 2
        assert int(buf.out_port[0, 0]) == 1
        # Refill with different state; arrays must follow.
        mem.pop(0, 2)
        mem.push(1, 3, 0, -1, False, 4)
        sched.select_into(buf, *mem.occupancy_state(), slots, dests, 6)
        assert int(buf.count[0]) == 0 and int(buf.count[1]) == 1
        assert int(buf.vc[1, 0]) == 3

    def test_float_fill_invalidates_sparse(self):
        cfg, mem, _ = make(scheme=IABP(100))
        sched_f = LinkScheduler(cfg, IABP(100))
        sched_i = LinkScheduler(cfg, SIABP())
        buf = CandidateBuffer(cfg.num_ports, cfg.candidate_levels)
        rng = np.random.default_rng(5)
        slots, dests, reserved = conn_arrays(cfg, rng)
        now = random_occupancy(mem, cfg, rng)
        sched_i.select_into(buf, *mem.occupancy_state(), slots, dests, now, reserved)
        assert buf.sparse_valid and buf.integer_keys
        sched_f.select_into(buf, *mem.occupancy_state(), slots, dests, now, reserved)
        assert not buf.sparse_valid and not buf.integer_keys
        # And the float fill's arrays agree with the float object path.
        batch = sched_f.select_batch(
            mem.heads_all(), slots, dests, now, tier_scale(reserved)
        )
        assert buf.to_candidates() == batch


class TestExactPriorities:
    def test_priority_of_unfolds_reserved_tier(self):
        buf = CandidateBuffer(2, 2)
        key = 12345
        buf.sparse[0][:] = [(key + (1 << TIER_SHIFT), 3, 1)]
        buf.sparse[1][:] = [(key, 0, 0)]
        buf.mark_sparse_filled()
        assert buf.priority_of(0, 0) == key * (1 << 200)
        assert buf.priority_of(1, 0) == key

    def test_no_collapse_above_2_53(self):
        """Adjacent integer keys above 2**53 stay distinct and ordered.

        In float64 the pair (2**53, 2**53 + 1) collapses to the same
        value; the integer key path must keep them apart and rank the
        larger one first.
        """
        lo, hi = 2**53, 2**53 + 1
        assert float(lo) == float(hi)  # the float64 trap this guards
        cfg, mem, _ = make(vcs=4, levels=2, ports=1, scheme=StaticPriority())
        sched = LinkScheduler(cfg, StaticPriority())
        buf = CandidateBuffer(1, 2)
        slots = np.array([[lo, hi, 1, 1]], dtype=np.int64)
        dests = np.zeros((1, 4), dtype=np.int64)
        mem.push(0, 0, 0, -1, False, 0)
        mem.push(0, 1, 0, -1, False, 0)
        sched.select_into(buf, *mem.occupancy_state(), slots, dests, 1)
        assert int(buf.vc[0, 0]) == 1  # the +1 key outranks
        assert int(buf.vc[0, 1]) == 0
        assert buf.priority_of(0, 0) == hi
        assert buf.priority_of(0, 1) == lo

    def test_overflow_guard_sparse_and_dense(self):
        cfg, mem, _ = make(vcs=2, levels=2, ports=1, scheme=StaticPriority())
        sched = LinkScheduler(cfg, StaticPriority())
        buf = CandidateBuffer(1, 2)
        slots = np.array([[1 << 62, 1]], dtype=np.int64)
        dests = np.zeros((1, 2), dtype=np.int64)
        mem.push(0, 0, 0, -1, False, 0)
        with pytest.raises(OverflowError):
            sched.select_into(buf, *mem.occupancy_state(), slots, dests, 1)
        with pytest.raises(OverflowError):
            sched.select_batch(mem.heads_all(), slots, dests, 1)
