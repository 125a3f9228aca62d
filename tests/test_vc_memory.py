"""Tests for repro.router.vc_memory (VC buffers + interleaved RAM model)."""

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.router.config import RouterConfig
from repro.router.vc_memory import InterleavedRam, VCMemory

from .vc_memory_oracle import RingVCMemory


def make_mem(ports=2, vcs=4, depth=3) -> VCMemory:
    cfg = RouterConfig(num_ports=ports, vcs_per_link=vcs, vc_buffer_depth=depth,
                       candidate_levels=1)
    return VCMemory(cfg)


class TestFifoSemantics:
    def test_pop_returns_push_order(self):
        mem = make_mem()
        mem.push(0, 1, gen_cycle=10, frame_id=7, frame_last=False, now=12)
        mem.push(0, 1, gen_cycle=11, frame_id=7, frame_last=True, now=13)
        assert mem.pop(0, 1) == (10, 12, 7, False)
        assert mem.pop(0, 1) == (11, 13, 7, True)

    def test_ring_wraparound_preserves_order(self):
        mem = make_mem(depth=3)
        seq = list(range(10))
        produced = iter(seq)
        consumed = []
        # Interleave pushes and pops past several wraps.
        pending = 0
        for value in seq:
            mem.push(0, 0, value, -1, False, value)
            pending += 1
            if pending == 3:
                consumed.append(mem.pop(0, 0)[0])
                pending -= 1
        while pending:
            consumed.append(mem.pop(0, 0)[0])
            pending -= 1
        assert consumed == seq

    def test_overflow_raises(self):
        mem = make_mem(depth=2)
        mem.push(0, 0, 0, -1, False, 0)
        mem.push(0, 0, 1, -1, False, 1)
        with pytest.raises(OverflowError):
            mem.push(0, 0, 2, -1, False, 2)

    def test_pop_empty_raises(self):
        mem = make_mem()
        with pytest.raises(IndexError):
            mem.pop(0, 0)

    def test_vcs_are_independent(self):
        mem = make_mem()
        mem.push(0, 0, 100, -1, False, 100)
        mem.push(0, 1, 200, -1, False, 200)
        mem.push(1, 0, 300, -1, False, 300)
        assert mem.pop(0, 1)[0] == 200
        assert mem.pop(1, 0)[0] == 300
        assert mem.pop(0, 0)[0] == 100


class TestOccupancy:
    def test_occupancy_tracks_push_pop(self):
        mem = make_mem()
        assert mem.total_flits() == 0
        mem.push(0, 2, 0, -1, False, 0)
        assert mem.occupancy_of(0, 2) == 1
        assert mem.free_space(0, 2) == 2
        mem.pop(0, 2)
        assert mem.occupancy_of(0, 2) == 0
        assert mem.total_flits() == 0

    def test_occupancy_view_is_readonly(self):
        mem = make_mem()
        with pytest.raises(ValueError):
            mem.occupancy[0, 0] = 5


class TestHeads:
    def test_heads_reflect_head_flit(self):
        mem = make_mem()
        mem.push(0, 1, gen_cycle=5, frame_id=-1, frame_last=False, now=8)
        mem.push(0, 1, gen_cycle=6, frame_id=-1, frame_last=False, now=9)
        view = mem.heads(0)
        assert view.occupancy[1] == 2
        assert view.gen_cycle[1] == 5
        assert view.arrival_cycle[1] == 8
        mem.pop(0, 1)
        view = mem.heads(0)
        assert view.gen_cycle[1] == 6
        assert view.arrival_cycle[1] == 9

    def test_heads_all_matches_per_port(self):
        rng = np.random.default_rng(0)
        mem = make_mem(ports=3, vcs=5, depth=4)
        for _ in range(60):
            p, v = int(rng.integers(3)), int(rng.integers(5))
            if mem.free_space(p, v) and rng.random() < 0.7:
                t = int(rng.integers(1000))
                mem.push(p, v, t, -1, False, t + 1)
            elif mem.occupancy_of(p, v):
                mem.pop(p, v)
        batched = mem.heads_all()
        for p in range(3):
            single = mem.heads(p)
            np.testing.assert_array_equal(batched.occupancy[p], single.occupancy)
            occ = single.occupancy > 0
            np.testing.assert_array_equal(
                batched.gen_cycle[p][occ], single.gen_cycle[occ]
            )
            np.testing.assert_array_equal(
                batched.arrival_cycle[p][occ], single.arrival_cycle[occ]
            )

    def test_head_arrival_helper(self):
        mem = make_mem()
        mem.push(1, 3, 0, -1, False, 42)
        assert mem.head_arrival(1, 3) == 42


class TestInterleavedRam:
    def test_validation(self):
        with pytest.raises(ValueError):
            InterleavedRam(0, 4)
        with pytest.raises(ValueError):
            InterleavedRam(4, 0)
        with pytest.raises(ValueError):
            InterleavedRam(4, 4, num_modules=0)

    def test_address_in_range(self):
        ram = InterleavedRam(num_vcs=8, depth=4, num_modules=4)
        seen = set()
        for vc in range(8):
            for slot in range(4):
                module, offset = ram.address(vc, slot)
                assert 0 <= module < 4
                assert 0 <= offset < ram.words_per_module()
                seen.add((module, offset))
        # The mapping must be injective (no two buffers share a word).
        assert len(seen) == 8 * 4

    def test_address_bounds_checked(self):
        ram = InterleavedRam(4, 4)
        with pytest.raises(ValueError):
            ram.address(4, 0)
        with pytest.raises(ValueError):
            ram.address(0, 4)

    def test_sequential_fifo_access_is_conflict_free(self):
        # A push at the tail and a pop at the head of the same VC touch
        # different modules whenever the FIFO holds more than one flit
        # (adjacent slots interleave across modules).
        ram = InterleavedRam(num_vcs=16, depth=4, num_modules=4)
        for vc in range(16):
            for head in range(4):
                tail = (head + 2) % 4  # two flits buffered
                assert ram.conflicts([(vc, head), (vc, tail)]) == 0

    def test_conflicts_counts_collisions(self):
        ram = InterleavedRam(num_vcs=8, depth=4, num_modules=4)
        # Same (vc, slot) twice must collide.
        assert ram.conflicts([(0, 0), (0, 0)]) == 1
        # vc 0 slot 0 and vc 4 slot 0 share module (4+0) % 4 == 0.
        assert ram.conflicts([(0, 0), (4, 0)]) == 1


class TestSparseOccupancyView:
    """occupied_heads / occupancy_state vs the dense head view."""

    def _dense_truth(self, mem, ports, vcs):
        heads = mem.heads_all()
        flat, arrivals = [], []
        for p in range(ports):
            for vc in range(vcs):
                if heads.occupancy[p, vc]:
                    flat.append(p * vcs + vc)
                    arrivals.append(int(heads.arrival_cycle[p, vc]))
        return flat, arrivals

    def test_empty_memory(self):
        mem = make_mem()
        assert mem.occupied_heads() == ([], [])
        mask, _q = mem.occupancy_state()
        assert mask == 0

    def test_matches_dense_view_under_random_traffic(self):
        ports, vcs, depth = 3, 5, 4
        mem = make_mem(ports=ports, vcs=vcs, depth=depth)
        rng = np.random.default_rng(17)
        now = 0
        for _ in range(400):
            now += 1
            p, vc = int(rng.integers(ports)), int(rng.integers(vcs))
            if rng.random() < 0.55 and mem.free_space(p, vc):
                mem.push(p, vc, now - 1, -1, False, now)
            elif mem.occupancy_of(p, vc):
                mem.pop(p, vc)
            assert mem.occupied_heads() == self._dense_truth(mem, ports, vcs)

    def test_occupancy_state_mirrors_occupied_heads(self):
        ports, vcs = 2, 4
        mem = make_mem(ports=ports, vcs=vcs)
        mem.push(0, 1, 0, -1, False, 5)
        mem.push(0, 1, 0, -1, False, 6)  # second flit: head arrival stays 5
        mem.push(1, 3, 0, -1, False, 9)
        mask, heads_q = mem.occupancy_state()
        flat, arrivals = mem.occupied_heads()
        assert flat == [0 * vcs + 1, 1 * vcs + 3]
        assert arrivals == [5, 9]
        assert mask == sum(1 << f for f in flat)
        assert [heads_q[f][0] for f in flat] == arrivals
        # Popping the head exposes the second flit's arrival.
        mem.pop(0, 1)
        _flat, arrivals = mem.occupied_heads()
        assert arrivals == [6, 9]

    def test_pop_returns_mirrored_arrival(self):
        """pop's arrival must come from the same clock the sparse view uses."""
        mem = make_mem(depth=4)
        for now in (3, 8, 13):
            mem.push(0, 0, now - 3, -1, False, now)
        assert [mem.pop(0, 0)[1] for _ in range(3)] == [3, 8, 13]


# ----------------------------------------------------------------------
# Differential: the Python-native memory against the numpy ring buffers
# ----------------------------------------------------------------------


def _ops(ports, vcs):
    """Push/pop sequences biased toward a few VCs, so buffers fill up."""
    port = st.one_of(st.integers(0, 1), st.integers(0, ports - 1))
    vc = st.one_of(st.integers(0, 1), st.integers(0, vcs - 1))
    push = st.tuples(
        st.just("push"), port, vc,
        st.integers(0, 10**6), st.integers(-1, 500), st.booleans(),
    )
    pop = st.tuples(st.just("pop"), port, vc)
    return st.lists(st.one_of(push, push, pop), min_size=20, max_size=150)


def _assert_same_state(mem, ref, ports, vcs):
    np.testing.assert_array_equal(mem.occupancy, ref.occupancy)
    occ = ref.occupancy > 0
    for got, want in ((mem.heads_all(), ref.heads_all()),
                      (mem.sched_view(), ref.sched_view())):
        np.testing.assert_array_equal(got.occupancy, want.occupancy)
        # The ring buffers leave stale slots behind; only occupied VCs
        # carry a head flit.
        np.testing.assert_array_equal(
            got.arrival_cycle[occ], want.arrival_cycle[occ]
        )
        if want.gen_cycle is None:
            assert got.gen_cycle is None
        else:
            np.testing.assert_array_equal(
                got.gen_cycle[occ], want.gen_cycle[occ]
            )
    assert mem.total_flits() == ref.total_flits()
    mask, heads_q = mem.occupancy_state()
    ref_mask, ref_q = ref.occupancy_state()
    assert mask == ref_mask
    assert [list(q) for q in heads_q] == [list(q) for q in ref_q]
    for p, v in np.argwhere(occ).tolist():
        assert mem.occupancy_of(p, v) == ref.occupancy_of(p, v)
        assert mem.head_arrival(p, v) == ref.head_arrival(p, v)


@pytest.mark.parametrize(
    "ports,vcs,depth", [(6, 8, 2), (4, 64, 4)], ids=["6x8x2", "4x64x4"]
)
# No shrink phase: shrinking a failing 150-op sequence runs into
# Hypothesis's five-minute cap; the unshrunk failure is reported at once.
@settings(max_examples=60, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_matches_ring_buffer_oracle(ports, vcs, depth, data):
    mem = make_mem(ports=ports, vcs=vcs, depth=depth)
    ref = RingVCMemory(mem.config)
    for now, op in enumerate(data.draw(_ops(ports, vcs))):
        if op[0] == "push":
            _, p, v, gen, frame, last = op
            outcome = []
            for m in (mem, ref):
                try:
                    m.push(p, v, gen, frame, last, now)
                    outcome.append(None)
                except OverflowError:
                    outcome.append(OverflowError)
            assert outcome[0] is outcome[1]
        else:
            _, p, v = op
            popped = []
            for m in (mem, ref):
                try:
                    popped.append(m.pop(p, v))
                except IndexError:
                    popped.append(IndexError)
            assert popped[0] == popped[1]
        assert mem.occupancy_state()[0] == ref.occupancy_state()[0]
        if now % 8 == 0:
            _assert_same_state(mem, ref, ports, vcs)
    _assert_same_state(mem, ref, ports, vcs)
