"""Object-path scheduling oracles for the network and fault-harness loops.

Production loops schedule through the router's
:class:`~repro.core.candidates.CandidateBuffer` and drop ineligible
candidates in place with :meth:`CandidateBuffer.retain`.  Before that,
both loops ran ``select_batch``, post-filtered the ``Candidate`` objects
and re-levelled the survivors; those filters live on here, unchanged, as
the reference the differential tests compare the buffer path against.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class FilterTally:
    """Candidates seen and dropped by an oracle filter."""

    seen: int = 0
    dropped: int = 0


def eligible_candidates(net, router_id, router, now, tally=None):
    """Downstream-credit filter over object-path candidates."""
    candidates = router._link_schedule(now)
    filtered = []
    for port_cands in candidates:
        keep = []
        for cand in port_cands:
            key = (router_id, cand.out_port)
            credits = net._link_credits.get(key)
            if credits is None:
                keep.append(cand)  # host-bound: sink always drains
                continue
            hop = net._hop_lookup.get((router_id, cand.in_port, cand.vc))
            if hop is None:
                continue
            net_conn, hop_idx = hop
            down_vc = net_conn.hops[hop_idx + 1].vc
            if credits[down_vc] > 0:
                keep.append(cand)
        if tally is not None:
            tally.seen += len(port_cands)
            tally.dropped += len(port_cands) - len(keep)
        # Re-level after filtering so the arbiter sees dense levels.
        keep = [
            type(c)(c.in_port, c.vc, c.out_port, c.priority, lvl)
            for lvl, c in enumerate(keep)
        ]
        filtered.append(keep)
    return filtered


def object_step_router(tally=None):
    """A ``MultiRouterNetwork._step_router`` on the object path."""

    def step_router(net, router_id, router, now, rng):
        router.credits.deliver(now)
        if not router.vc_memory._occ_mask:
            router.arbiter.skip_idle_cycles(1)
            router.crossbar.cycles += 1
            router._accept_from_nics(now)
            return
        candidates = eligible_candidates(net, router_id, router, now, tally)
        grants = router.arbiter.match(candidates, rng)
        departures = router.crossbar.transfer(grants, router.vc_memory, now)
        if router.scheme_stateful and departures:
            router.notify_service(departures, now)
        degree = net.topology.degree(router_id)
        for dep in departures:
            if dep.in_port < degree:
                net._return_link_credit(router_id, dep.in_port, dep.vc, now)
            else:
                router.credits.schedule_return(dep.in_port, dep.vc, now)
            net._route_departure(router_id, dep, now)
        router._accept_from_nics(now)

    return step_router


def filter_candidates(sim, candidates, tally=None):
    """Dead-output-port / stuck-slot filter over object-path candidates."""
    injector = sim.injector
    if sim.dead_port is None and not injector.has_stuck:
        return candidates
    dead = sim.dead_port
    filtered = []
    for port_cands in candidates:
        keep = [
            c
            for c in port_cands
            if c.out_port != dead and not injector.is_stuck(c.in_port, c.vc)
        ]
        if tally is not None:
            tally.seen += len(port_cands)
            tally.dropped += len(port_cands) - len(keep)
        if len(keep) != len(port_cands):
            # Re-level after filtering so the arbiter sees dense levels.
            keep = [
                type(c)(c.in_port, c.vc, c.out_port, c.priority, lvl)
                for lvl, c in enumerate(keep)
            ]
        filtered.append(keep)
    return filtered


class _ObjectCandidates:
    """Stands in for the CandidateBuffer on the object path."""

    def __init__(self, candidates):
        self.candidates = candidates

    def retain(self, keep):
        """No-op: the oracle applies :func:`filter_candidates` itself."""


def use_object_path(sim, tally=None):
    """Route a FaultySingleRouterSim's scheduling through the oracle.

    The cycle loop (with or without a session engine) then ranks with
    ``select_batch``, filters with :func:`filter_candidates` on every
    cycle and matches with the object ``Arbiter.match``.
    """
    router = sim.router
    arbiter = router.arbiter

    def link_schedule_into(now):
        return _ObjectCandidates(router._link_schedule(now))

    def match_buffer(buf, rng):
        return arbiter.match(filter_candidates(sim, buf.candidates, tally), rng)

    router._link_schedule_into = link_schedule_into
    arbiter.match_buffer = match_buffer
