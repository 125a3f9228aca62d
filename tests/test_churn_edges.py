"""Edge values of the churn arrival rate and the best-effort packet rate.

A Poisson generator draws ``exponential(1.0 / rate)`` gaps.  Three edge
classes used to break it: a NaN rate passed validation; an infinite
rate drew zero-length gaps forever; and a subnormal rate overflowed the
mean gap to ``inf``, so ``int(t)`` raised ``OverflowError``.  Rates too
small for a finite gap now draw nothing (exactly like a zero rate), the
non-finite and absurdly large ones are rejected up front, and every
other rate keeps its draws.
"""

import math

import numpy as np
import pytest

from repro.fabric.churn import generate_fabric_timeline
from repro.fabric.engine import FabricSim
from repro.fabric.spec import FabricSpec, TopologySpec
from repro.router.config import RouterConfig
from repro.sessions.churn import (
    ChurnConfig,
    generate_timeline,
    mean_arrival_gap,
)
from repro.shard import ShardSpec, check_identity
from repro.sim.engine import generator_fingerprint
from repro.traffic.besteffort import BestEffortSource

CONFIG = RouterConfig(num_ports=6, vcs_per_link=8, vc_buffer_depth=2,
                      candidate_levels=4, flit_cycles_per_round=800)

#: Rates that must behave exactly like zero churn (the minimum normal
#: float is subnormal once divided by 1000).
NO_DRAW_RATES = [0.0, 5e-324, 2.2e-311, 2.2250738585072014e-308]
#: Rates ChurnConfig must reject.
BAD_RATES = [1e300, math.inf, math.nan, -1.0]

TORUS = TopologySpec.torus(3, 3)


def churn(rate):
    return ChurnConfig(arrivals_per_kcycle=rate, mean_hold_cycles=200.0,
                       mix=(("cbr-high", 1.0),))


def fabric(rate):
    return FabricSpec(topology=TORUS, churn=churn(rate), sample_stride=100,
                      rng_mode="per-router")


class TestMeanArrivalGap:
    @pytest.mark.parametrize("rate", NO_DRAW_RATES)
    def test_no_churn(self, rate):
        assert mean_arrival_gap(rate) is None

    @pytest.mark.parametrize("rate", [1e-300, 0.5, 4.0, 1000.0])
    def test_finite_gap_is_the_plain_reciprocal(self, rate):
        assert mean_arrival_gap(rate) == 1.0 / (rate / 1000.0)


class TestChurnConfigRejects:
    @pytest.mark.parametrize("rate", BAD_RATES)
    def test_arrival_rate(self, rate):
        with pytest.raises(ValueError, match="arrivals_per_kcycle"):
            churn(rate)

    @pytest.mark.parametrize("hold", [math.inf, math.nan, 0.0])
    def test_mean_hold(self, hold):
        with pytest.raises(ValueError, match="mean_hold_cycles"):
            ChurnConfig(mean_hold_cycles=hold)

    @pytest.mark.parametrize("field, value", [
        ("pareto_shape", math.nan),
        ("pareto_shape", math.inf),
        ("vbr_bandwidth_scale", math.nan),
        ("vbr_bandwidth_scale", math.inf),
        ("mix", (("cbr-low", math.nan),)),
        ("mix", (("cbr-low", math.inf),)),
    ])
    def test_other_non_finite_fields(self, field, value):
        with pytest.raises(ValueError):
            ChurnConfig(**{field: value})


@pytest.mark.parametrize("rate", NO_DRAW_RATES)
class TestNoDrawRates:
    def test_single_router_timeline_is_empty_and_drawless(self, rate):
        rng = np.random.default_rng(11)
        before = generator_fingerprint(rng)
        assert generate_timeline(CONFIG, churn(rate), 5_000, rng) == []
        assert generator_fingerprint(rng) == before

    def test_fabric_timeline_is_empty_and_drawless(self, rate):
        rng = np.random.default_rng(11)
        before = generator_fingerprint(rng)
        topo = TORUS.build()
        timeline = generate_fabric_timeline(
            topo, TORUS.host_routers(), CONFIG, churn(rate), 5_000, rng
        )
        assert timeline == []
        assert generator_fingerprint(rng) == before

    def test_fabric_run_equals_zero_churn(self, rate):
        runs = []
        for r in (0.0, rate):
            sim = FabricSim(fabric(r), CONFIG, seed=4)
            result = sim.run(0.0, 150)
            runs.append((repr(result.to_dict()), sim.fingerprint(),
                         sim.router_fingerprints()))
        assert runs[0] == runs[1]

    def test_sharded_run_identical_to_serial(self, rate):
        report = check_identity(fabric(rate), CONFIG, seed=1, cycles=150,
                                shard=ShardSpec(workers=2))
        assert report.ok, "\n".join(report.mismatches)


@pytest.mark.parametrize("rate", [1e-300, 1e-305])
def test_tiny_finite_rate_keeps_its_draws(rate):
    """A finite gap far beyond the horizon still draws one gap per port,
    even when the draw itself overflows to ``inf`` (``1e-305``)."""
    rng = np.random.default_rng(5)
    assert generate_timeline(CONFIG, churn(rate), 5_000, rng) == []
    ref = np.random.default_rng(5)
    for _ in range(CONFIG.num_ports):
        ref.exponential(1.0 / (rate / 1000.0))
    assert generator_fingerprint(rng) == generator_fingerprint(ref)


class TestBestEffortRates:
    @pytest.mark.parametrize("load, mean", [(5e-324, 8.0), (1e-310, 8.0),
                                            (1e-300, 1e10)])
    def test_subnormal_packet_rate_draws_nothing(self, load, mean):
        rng = np.random.default_rng(2)
        before = generator_fingerprint(rng)
        sched = BestEffortSource(load, mean).schedule(10_000, rng)
        assert len(sched.cycles) == 0
        assert generator_fingerprint(rng) == before

    @pytest.mark.parametrize("mean", [math.inf, math.nan, 0.5])
    def test_rejects_bad_packet_length(self, mean):
        with pytest.raises(ValueError, match="mean_packet_flits"):
            BestEffortSource(0.2, mean)

    @pytest.mark.parametrize("load", [math.nan, math.inf, 0.0])
    def test_rejects_bad_load(self, load):
        with pytest.raises(ValueError, match="load"):
            BestEffortSource(load)
