"""Tests for repro.core.link_scheduler (candidate selection)."""

import numpy as np
import pytest

from repro.core.link_scheduler import LinkScheduler
from repro.core.priorities import SIABP, StaticPriority
from repro.router.config import RouterConfig
from repro.router.vc_memory import VCMemory

from .link_scheduler_oracle import select_all, select_port


def make(vcs=8, levels=4, ports=2):
    cfg = RouterConfig(num_ports=ports, vcs_per_link=vcs,
                       candidate_levels=levels, vc_buffer_depth=2)
    return cfg, VCMemory(cfg), LinkScheduler(cfg, SIABP())


def arrays(cfg):
    n, v = cfg.num_ports, cfg.vcs_per_link
    slots = np.zeros((n, v), dtype=np.int64)
    dests = np.full((n, v), -1, dtype=np.int64)
    return slots, dests


class TestSelectPort:
    def test_empty_port_yields_no_candidates(self):
        cfg, mem, sched = make()
        slots, dests = arrays(cfg)
        assert select_port(sched, 0, mem.heads(0), slots[0], dests[0], now=5) == []

    def test_ranks_by_biased_priority(self):
        cfg, mem, sched = make()
        slots, dests = arrays(cfg)
        # VC 0: high bandwidth, fresh flit.  VC 1: low bandwidth, ancient.
        slots[0, 0], dests[0, 0] = 100, 1
        slots[0, 1], dests[0, 1] = 1, 0
        mem.push(0, 0, gen_cycle=99, frame_id=-1, frame_last=False, now=99)
        mem.push(0, 1, gen_cycle=0, frame_id=-1, frame_last=False, now=0)
        cands = select_port(sched, 0, mem.heads(0), slots[0], dests[0], now=100)
        # SIABP: vc0 -> 100<<1=200; vc1 -> 1<<7=128 (delay 100).
        assert [c.vc for c in cands] == [0, 1]
        assert cands[0].level == 0 and cands[1].level == 1
        assert cands[0].priority == 200.0
        assert cands[0].out_port == 1

    def test_caps_at_candidate_levels(self):
        cfg, mem, sched = make(vcs=8, levels=2)
        slots, dests = arrays(cfg)
        for vc in range(6):
            slots[0, vc], dests[0, vc] = vc + 1, 0
            mem.push(0, vc, 0, -1, False, 0)
        cands = select_port(sched, 0, mem.heads(0), slots[0], dests[0], now=10)
        assert len(cands) == 2
        # Highest slots (6, 5) win with equal delays.
        assert [c.vc for c in cands] == [5, 4]

    def test_tie_break_by_vc_index(self):
        cfg, mem, sched = make()
        slots, dests = arrays(cfg)
        for vc in (3, 5):
            slots[0, vc], dests[0, vc] = 10, 0
            mem.push(0, vc, 0, -1, False, 0)
        cands = select_port(sched, 0, mem.heads(0), slots[0], dests[0], now=4)
        assert [c.vc for c in cands] == [3, 5]

    def test_only_occupied_vcs_compete(self):
        cfg, mem, sched = make()
        slots, dests = arrays(cfg)
        slots[0, 2], dests[0, 2] = 999, 1  # huge priority but no flit
        slots[0, 4], dests[0, 4] = 1, 0
        mem.push(0, 4, 0, -1, False, 0)
        cands = select_port(sched, 0, mem.heads(0), slots[0], dests[0], now=1)
        assert [c.vc for c in cands] == [4]


class TestBatchEquivalence:
    @pytest.mark.parametrize("scheme", [SIABP(), StaticPriority()])
    def test_batch_matches_per_port_randomized(self, scheme):
        cfg, mem, _ = make(vcs=10, levels=4, ports=3)
        sched = LinkScheduler(cfg, scheme)
        slots, dests = arrays(cfg)
        rng = np.random.default_rng(21)
        for port in range(3):
            for vc in range(10):
                slots[port, vc] = int(rng.integers(1, 200))
                dests[port, vc] = int(rng.integers(0, 3))
        now = 0
        for step in range(200):
            now += 1
            p, v = int(rng.integers(3)), int(rng.integers(10))
            if rng.random() < 0.6 and mem.free_space(p, v):
                mem.push(p, v, now - int(rng.integers(5)), -1, False, now)
            elif mem.occupancy_of(p, v):
                mem.pop(p, v)
            per_port = select_all(
                sched, [mem.heads(q) for q in range(3)], slots, dests, now
            )
            batch = sched.select_batch(mem.heads_all(), slots, dests, now)
            assert batch == per_port

    def test_batch_empty_router(self):
        cfg, mem, sched = make(ports=2)
        slots, dests = arrays(cfg)
        assert sched.select_batch(mem.heads_all(), slots, dests, 0) == [[], []]


class TestIntegerKeyExactness:
    """Regression: priorities must never round through float64.

    Historically the selection key was computed in float64, whose 53-bit
    mantissa merges distinct integer priorities above 2**53 — silently
    reordering exactly the high-bandwidth, long-delayed connections the
    biasing exists to protect.
    """

    def _rank_one_port(self, slots_by_vc, delay, scheme=None):
        """Candidates of one port with every listed VC occupied."""
        vcs = len(slots_by_vc)
        cfg = RouterConfig(num_ports=1, vcs_per_link=vcs,
                           candidate_levels=vcs, vc_buffer_depth=2)
        mem = VCMemory(cfg)
        sched = LinkScheduler(cfg, scheme or SIABP())
        now = delay
        for vc in range(vcs):
            mem.push(vc=vc, port=0, gen_cycle=0, frame_id=-1,
                     frame_last=False, now=0)
        slots = np.array([slots_by_vc], dtype=np.int64)
        dests = np.zeros((1, vcs), dtype=np.int64)
        return select_port(sched, 0, mem.heads(0), slots[0], dests[0], now)

    def test_large_slots_large_delay_rank_exactly(self):
        """SIABP keys with slots >= 2**14 and delay >= 2**30.

        Ground truth via int.bit_length: key = slots << min(bl(delay),
        40).  The +1 slot must outrank by exactly its shifted margin.
        """
        delay = 2**30
        cands = self._rank_one_port([2**14, 2**14 + 1], delay)
        shift = min(delay.bit_length(), 40)
        assert [c.vc for c in cands] == [1, 0]
        assert cands[0].priority == (2**14 + 1) << shift
        assert cands[1].priority == 2**14 << shift
        assert cands[0].priority - cands[1].priority == 1 << shift

    def test_adjacent_keys_above_2_53_stay_distinct(self):
        """The genuinely-colliding pair: float64 merges these keys."""
        lo, hi = 2**53, 2**53 + 1
        assert float(lo) == float(hi)
        cands = self._rank_one_port([lo, hi], delay=0,
                                    scheme=StaticPriority())
        assert [c.vc for c in cands] == [1, 0]
        assert cands[0].priority == hi
        assert cands[1].priority == lo
        assert cands[0].priority > cands[1].priority

    def test_all_entry_points_agree_at_extreme_priorities(self):
        """select_port / select_all / select_batch under huge keys."""
        cfg = RouterConfig(num_ports=2, vcs_per_link=4,
                           candidate_levels=4, vc_buffer_depth=2)
        mem = VCMemory(cfg)
        sched = LinkScheduler(cfg, StaticPriority())
        slots = np.array([[2**53, 2**53 + 1, 2**53 - 1, 1],
                          [2**61 - 1, 2**61 - 2, 1, 1]], dtype=np.int64)
        dests = np.zeros((2, 4), dtype=np.int64)
        for p in range(2):
            for vc in range(4):
                mem.push(p, vc, 0, -1, False, 0)
        per_port = select_all(
            sched, [mem.heads(p) for p in range(2)], slots, dests, now=1
        )
        batch = sched.select_batch(mem.heads_all(), slots, dests, now=1)
        assert batch == per_port
        assert [c.vc for c in batch[0]] == [1, 0, 2, 3]
        assert [c.vc for c in batch[1]] == [0, 1, 2, 3]

    def test_empty_links_and_extremes_batch_equivalence(self):
        """Mixed empty/occupied links with extreme keys stay equivalent."""
        cfg = RouterConfig(num_ports=3, vcs_per_link=4,
                           candidate_levels=2, vc_buffer_depth=2)
        mem = VCMemory(cfg)
        sched = LinkScheduler(cfg, SIABP())
        slots = np.full((3, 4), 2**14, dtype=np.int64)
        dests = np.zeros((3, 4), dtype=np.int64)
        mem.push(1, 0, 0, -1, False, 0)  # ports 0 and 2 stay empty
        now = 2**31
        per_port = select_all(
            sched, [mem.heads(p) for p in range(3)], slots, dests, now
        )
        batch = sched.select_batch(mem.heads_all(), slots, dests, now)
        assert batch == per_port
        assert batch[0] == [] and batch[2] == []
        assert [c.vc for c in batch[1]] == [0]
        assert batch[1][0].priority == 2**14 << 32
