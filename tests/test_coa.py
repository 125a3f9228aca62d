"""Tests for the Candidate-Order Arbiter (the paper's §4 algorithm)."""

import numpy as np
import pytest

from repro.core.candidates import CandidateBuffer
from repro.core.coa import CandidateOrderArbiter
from repro.core.matching import Candidate, is_conflict_free, is_maximal


def cand(i, v, o, prio, level=0):
    return Candidate(i, v, o, prio, level)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestConstruction:
    def test_rejects_unknown_ordering(self):
        with pytest.raises(ValueError):
            CandidateOrderArbiter(4, 4, ordering="zigzag")

    def test_rejects_unknown_arbitration(self):
        with pytest.raises(ValueError):
            CandidateOrderArbiter(4, 4, arbitration="fifo")

    def test_name_reflects_variants(self):
        assert CandidateOrderArbiter(4, 4).name == "coa"
        assert "level_only" in CandidateOrderArbiter(4, 4, ordering="level_only").name


class TestBehaviour:
    def test_empty_candidates(self):
        coa = CandidateOrderArbiter(4, 4)
        assert coa.match([[], [], [], []], rng()) == []

    def test_single_request_granted(self):
        coa = CandidateOrderArbiter(4, 4)
        cands = [[cand(0, 3, 2, 10.0)], [], [], []]
        assert coa.match(cands, rng()) == [(0, 3, 2)]

    def test_highest_priority_wins_contention(self):
        coa = CandidateOrderArbiter(2, 1)
        cands = [[cand(0, 0, 1, prio=5.0)], [cand(1, 0, 1, prio=50.0)]]
        grants = coa.match(cands, rng())
        assert grants == [(1, 0, 1)]

    def test_least_conflicted_output_served_first(self):
        """Output with one request is matched before the 2-conflict one,
        letting all three inputs be served."""
        coa = CandidateOrderArbiter(3, 2)
        cands = [
            # Input 0: level0 -> out0 (contested), level1 -> out1
            [cand(0, 0, 0, 10.0, 0), cand(0, 1, 1, 4.0, 1)],
            # Input 1: level0 -> out0 (contested)
            [cand(1, 0, 0, 9.0, 0)],
            # Input 2: level0 -> out2 (alone, least conflicts)
            [cand(2, 0, 2, 1.0, 0)],
        ]
        grants = coa.match(cands, rng())
        # out2 is least conflicted at level 0, so input 2 always gets it;
        # out0 then goes to the higher-priority input 0, and input 1 is
        # left unmatched (its only candidate lost).
        assert set(grants) == {(2, 0, 2), (0, 0, 0)}

    def test_loser_recovers_via_higher_level(self):
        """An input that loses its level-0 output gets matched through its
        level-1 candidate — the point of multiple candidate levels."""
        coa = CandidateOrderArbiter(2, 2)
        cands = [
            [cand(0, 0, 0, 10.0, 0), cand(0, 1, 1, 1.0, 1)],
            [cand(1, 0, 0, 99.0, 0)],
        ]
        grants = coa.match(cands, rng())
        assert set(grants) == {(1, 0, 0), (0, 1, 1)}

    def test_levels_served_in_order(self):
        """A level-0 request beats a level-1 request for the same output
        even with lower priority (ordering is by level first)."""
        coa = CandidateOrderArbiter(2, 2)
        cands = [
            [cand(0, 0, 1, prio=1.0, level=0)],
            [cand(1, 7, 0, prio=50.0, level=0), cand(1, 8, 1, prio=50.0, level=1)],
        ]
        grants = coa.match(cands, rng())
        # Input 1 is matched on out0 (its level-0 request, conflict 1);
        # out1 then goes to input 0's level-0 request.
        assert set(grants) == {(1, 7, 0), (0, 0, 1)}

    def test_random_tie_break_covers_all_winners(self):
        coa = CandidateOrderArbiter(2, 1)
        cands = [[cand(0, 0, 1, 5.0)], [cand(1, 0, 1, 5.0)]]
        winners = {coa.match(cands, rng(s))[0][0] for s in range(64)}
        assert winners == {0, 1}

    def test_matching_conflict_free_and_maximal(self):
        generator = rng(42)
        coa = CandidateOrderArbiter(4, 4)
        for _ in range(200):
            cands = _random_candidates(generator, 4, 4)
            grants = coa.match(cands, generator)
            assert is_conflict_free(grants, 4)
            assert is_maximal(cands, grants, 4)


class TestReferenceEquivalence:
    """``match``, ``match_reference`` and both ``match_buffer`` fills
    agree on the grants and leave the rng in the same state."""

    @pytest.mark.parametrize("ordering,arbitration,ports,levels,max_total", [
        # The paper router with dense random fills (ids as before), then
        # the fabric router with 0-3 candidates per cycle crowded onto two
        # outputs, so rows hold several requests and 0/1-candidate cycles
        # (the bypass) are common.
        pytest.param(o, a, *shape, id=f"{a}-{o}{tag}")
        for tag, shape in (("", (4, 4, None)), ("-6x4-sparse", (6, 4, 3)))
        for a in ("priority", "random")
        for o in ("level_conflict", "level_only", "conflict_only", "random")
    ])
    def test_fast_path_matches_selection_matrix_path(
        self, ordering, arbitration, ports, levels, max_total
    ):
        coa = CandidateOrderArbiter(ports, levels, ordering, arbitration)
        generator = rng(7)
        for trial in range(150):
            if max_total is None:
                cands = _random_candidates(generator, ports, levels,
                                           tie_heavy=True)
            else:
                cands = _sparse_candidates(generator, ports, levels, max_total)
            runs = []
            for match in (coa.match, coa.match_reference,
                          _sparse_match(coa), _array_match(coa)):
                stream = rng(trial)
                runs.append((match(cands, stream),
                             stream.bit_generator.state))
            assert all(run == runs[0] for run in runs[1:])


def _buffer_of(cands, ports, levels):
    buf = CandidateBuffer(ports, levels)
    for p, port_cands in enumerate(cands):
        buf.sparse[p][:] = [(int(c.priority), c.vc, c.out_port)
                            for c in port_cands]
    buf.mark_sparse_filled()
    return buf


def _sparse_match(coa):
    def match(cands, stream):
        return coa.match_buffer(
            _buffer_of(cands, coa.num_ports, coa.levels), stream
        )
    return match


def _array_match(coa):
    def match(cands, stream):
        buf = _buffer_of(cands, coa.num_ports, coa.levels)
        buf.count  # materialize the arrays, then drop the sparse rows
        buf.mark_array_filled(integer_keys=True)
        return coa.match_buffer(buf, stream)
    return match


def _sparse_candidates(generator, n, levels, max_total):
    """0..max_total candidates in all, outputs drawn from {0, 1}."""
    out = [[] for _ in range(n)]
    for _ in range(int(generator.integers(0, max_total + 1))):
        p = int(generator.integers(n))
        level = len(out[p])
        if level == levels:
            continue
        out[p].append(Candidate(p, level, int(generator.integers(2)),
                                int(generator.integers(1, 4)), level))
    for port_cands in out:
        # Levels rank by priority, highest first, as the link scheduler
        # emits them.
        port_cands.sort(key=lambda c: -c.priority)
        port_cands[:] = [Candidate(c.in_port, c.vc, c.out_port, c.priority,
                                   level)
                         for level, c in enumerate(port_cands)]
    return out


def _random_candidates(generator, n, levels, tie_heavy=False):
    out = []
    for p in range(n):
        k = int(generator.integers(0, levels + 1))
        port_cands = []
        hi = 4 if tie_heavy else 1000
        prios = sorted(
            (float(generator.integers(1, hi + 1)) for _ in range(k)), reverse=True
        )
        for level in range(k):
            port_cands.append(
                Candidate(p, level, int(generator.integers(n)), prios[level], level)
            )
        out.append(port_cands)
    return out
