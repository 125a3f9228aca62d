"""Deterministic session generators: who arrives, when, for how long.

The paper pins every connection at cycle 0 ("all the connections are
considered to be active throughout all the simulation time"); this module
generates the missing dimension — a *churn timeline* of sessions that
arrive as a per-port Poisson process, hold for an exponentially or
Pareto-distributed time, and carry one of the repo's traffic classes
(the §5 CBR rate classes, MPEG-2 VBR streams, or best-effort background).

Everything is precomputed before the simulation loop starts, from the
dedicated ``sessions`` RNG role of :class:`~repro.sim.engine.RngStreams`:
arrival instants, destinations, holding times, each session's complete
injection schedule, and (for VBR) its per-GOP peak renegotiation plan.
The cycle loop itself consumes no randomness for session handling, which
is what makes churn runs byte-replayable and zero-churn runs bit-identical
to static runs (no stream advances at all when the timeline is empty).

Holding times are clocked from *admission* (not arrival): a session that
is admitted at cycle ``t`` injects for ``hold_cycles`` and then departs —
the Erlang loss model; blocked sessions are lost, never retried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..router.config import RouterConfig
from ..router.connection import TrafficClass
from ..traffic.besteffort import BestEffortSource
from ..traffic.cbr import CBR_CLASSES, CBRSource
from ..traffic.mpeg import GOP_LENGTH, SEQUENCE_STATS, generate_trace
from ..traffic.vbr import VBRSource, trace_to_flits

__all__ = [
    "SESSION_CLASSES",
    "ChurnConfig",
    "SessionSpec",
    "generate_timeline",
    "make_session_spec",
    "mean_arrival_gap",
]

#: Session class names accepted in a churn mix.  ``cbr-*`` map onto the
#: paper's §5 CBR rate classes, ``vbr`` onto random Table-1 MPEG-2
#: streams, ``best-effort`` onto Poisson background packets.
SESSION_CLASSES = ("cbr-low", "cbr-medium", "cbr-high", "vbr", "best-effort")

_HOLD_DISTS = ("exponential", "pareto")

#: Upper bound on ``arrivals_per_kcycle``: one session arrival per port
#: per flit cycle.  Above it a timeline would need more draws than any
#: run can hold (``1e300`` would never finish generating).
MAX_ARRIVALS_PER_KCYCLE = 1000.0


@dataclass(frozen=True)
class ChurnConfig:
    """Churn process parameters (plain data, hashable, JSON round-trip).

    ``arrivals_per_kcycle`` is the Poisson arrival rate per input port in
    sessions per 1000 flit cycles; with ``mean_hold_cycles`` it fixes the
    offered session load ``arrivals_per_kcycle / 1000 * mean_hold_cycles``
    erlangs per port — the x-axis of the blocking-probability figures.
    """

    arrivals_per_kcycle: float = 2.0
    mean_hold_cycles: float = 4_000.0
    hold_dist: str = "exponential"
    #: Pareto tail index (heavier tail as it approaches 1; must be > 1
    #: so the mean exists).
    pareto_shape: float = 1.5
    min_hold_cycles: int = 200
    #: (class name, weight) draw mix; order matters for the RNG stream.
    mix: tuple[tuple[str, float], ...] = (
        ("cbr-low", 0.5),
        ("cbr-medium", 0.35),
        ("best-effort", 0.15),
    )
    #: Offered load of one best-effort session (link fraction).
    best_effort_load: float = 0.02
    #: VBR stream shaping (matches the static builder's scaled knobs).
    vbr_frame_time_cycles: int = 500
    vbr_bandwidth_scale: float = 8.0
    #: Renegotiate VBR peak reservations at GOP boundaries.
    renegotiate: bool = True

    def __post_init__(self) -> None:
        # Written so that NaN fails every check (NaN compares False).
        if not 0 <= self.arrivals_per_kcycle <= MAX_ARRIVALS_PER_KCYCLE:
            raise ValueError(
                "arrivals_per_kcycle must be in "
                f"[0, {MAX_ARRIVALS_PER_KCYCLE:g}]"
            )
        if not 0 < self.mean_hold_cycles < math.inf:
            raise ValueError("mean_hold_cycles must be positive and finite")
        if self.hold_dist not in _HOLD_DISTS:
            raise ValueError(f"hold_dist must be one of {_HOLD_DISTS}")
        if not 1.0 < self.pareto_shape < math.inf:
            raise ValueError("pareto_shape must be > 1 (finite mean)")
        if self.min_hold_cycles < 1:
            raise ValueError("min_hold_cycles must be >= 1")
        if not self.mix:
            raise ValueError("mix must not be empty")
        mix = tuple((str(n), float(w)) for n, w in self.mix)
        for name, weight in mix:
            if name not in SESSION_CLASSES:
                raise ValueError(
                    f"unknown session class {name!r}; known: {SESSION_CLASSES}"
                )
            if not 0 <= weight < math.inf:
                raise ValueError("mix weights must be finite and >= 0")
        if sum(w for _n, w in mix) <= 0:
            raise ValueError("mix weights must sum to > 0")
        object.__setattr__(self, "mix", mix)
        if not (0 < self.best_effort_load < 1):
            raise ValueError("best_effort_load must be in (0, 1)")
        if self.vbr_frame_time_cycles <= 0:
            raise ValueError("vbr_frame_time_cycles must be positive")
        if not 0 < self.vbr_bandwidth_scale < math.inf:
            raise ValueError("vbr_bandwidth_scale must be positive and finite")

    @property
    def offered_erlangs_per_port(self) -> float:
        """Nominal offered session load per input port, in erlangs."""
        return self.arrivals_per_kcycle / 1000.0 * self.mean_hold_cycles

    def to_dict(self) -> dict[str, Any]:
        return {
            "arrivals_per_kcycle": self.arrivals_per_kcycle,
            "mean_hold_cycles": self.mean_hold_cycles,
            "hold_dist": self.hold_dist,
            "pareto_shape": self.pareto_shape,
            "min_hold_cycles": self.min_hold_cycles,
            "mix": [[name, weight] for name, weight in self.mix],
            "best_effort_load": self.best_effort_load,
            "vbr_frame_time_cycles": self.vbr_frame_time_cycles,
            "vbr_bandwidth_scale": self.vbr_bandwidth_scale,
            "renegotiate": self.renegotiate,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChurnConfig":
        fields = dict(data)
        fields["mix"] = tuple((n, w) for n, w in fields.get("mix", cls().mix))
        return cls(**fields)


@dataclass
class SessionSpec:
    """One precomputed session: identity, reservation, schedule, plans.

    ``cycles``/``frame_ids``/``frame_last`` are the injection schedule
    *relative to the admission instant* over ``[0, hold_cycles)``; the
    engine offsets them when (and only if) the session is admitted.
    ``reneg_plan`` is likewise admission-relative: (cycle, new peak
    slots) pairs at GOP boundaries.
    """

    sid: int
    in_port: int
    out_port: int
    cls_name: str
    traffic_class: TrafficClass
    avg_slots: int
    peak_slots: int
    arrival_cycle: int
    hold_cycles: int
    mean_load: float
    cycles: np.ndarray
    frame_ids: np.ndarray
    frame_last: np.ndarray
    reneg_plan: tuple[tuple[int, int], ...] = field(default=())


def _draw_hold(churn: ChurnConfig, rng: np.random.Generator) -> int:
    if churn.hold_dist == "exponential":
        draw = rng.exponential(churn.mean_hold_cycles)
    else:  # pareto: scaled so the mean equals mean_hold_cycles
        a = churn.pareto_shape
        draw = rng.pareto(a) * churn.mean_hold_cycles * (a - 1.0)
    return max(churn.min_hold_cycles, int(draw))


def _draw_class(
    churn: ChurnConfig, rng: np.random.Generator
) -> str:
    weights = np.array([w for _n, w in churn.mix], dtype=np.float64)
    weights /= weights.sum()
    return churn.mix[int(rng.choice(len(weights), p=weights))][0]


def _gop_peaks(
    flits: np.ndarray, frame_time_cycles: int, round_cycles: int, avg_slots: int
) -> list[int]:
    """Per-GOP peak reservation (slots/round) over a rolled frame trace."""
    n_gops = max(1, math.ceil(len(flits) / GOP_LENGTH))
    peaks = []
    for g in range(n_gops):
        window = flits[g * GOP_LENGTH : (g + 1) * GOP_LENGTH]
        peak_load = float(window.max()) / frame_time_cycles
        peaks.append(max(avg_slots, round(peak_load * round_cycles)))
    return peaks


def _make_vbr(
    spec_args: dict[str, Any],
    config: RouterConfig,
    churn: ChurnConfig,
    hold: int,
    rng: np.random.Generator,
) -> SessionSpec:
    name = list(SEQUENCE_STATS)[int(rng.integers(len(SEQUENCE_STATS)))]
    frame_time = churn.vbr_frame_time_cycles
    num_gops = max(1, math.ceil(hold / (GOP_LENGTH * frame_time)))
    trace_bits = generate_trace(SEQUENCE_STATS[name], num_gops, rng)
    flits = trace_to_flits(
        trace_bits, config, frame_time, churn.vbr_bandwidth_scale
    )
    rot = int(rng.integers(GOP_LENGTH))
    flits = np.roll(flits, -rot)
    mean_load = float(flits.mean()) / frame_time
    avg_slots = max(1, round(mean_load * config.round_cycles))
    gop_peaks = _gop_peaks(flits, frame_time, config.round_cycles, avg_slots)
    source = VBRSource(
        flits,
        frame_time,
        model="SR",
        phase_cycles=int(rng.integers(frame_time)),
    )
    sched = source.schedule(hold, rng)
    # The session is admitted at its first GOP's peak and renegotiates at
    # every subsequent GOP boundary (the concurrency-factor test reruns
    # per §2); with renegotiation off it reserves the global peak for its
    # whole lifetime, like the static workloads do.
    if churn.renegotiate and len(gop_peaks) > 1:
        peak_slots = gop_peaks[0]
        gop_cycles = GOP_LENGTH * frame_time
        plan = tuple(
            (g * gop_cycles, gop_peaks[g])
            for g in range(1, len(gop_peaks))
            if g * gop_cycles < hold and gop_peaks[g] != gop_peaks[g - 1]
        )
    else:
        peak_slots = max(gop_peaks)
        plan = ()
    return SessionSpec(
        cls_name="vbr",
        traffic_class=TrafficClass.VBR,
        avg_slots=avg_slots,
        peak_slots=peak_slots,
        mean_load=mean_load,
        cycles=sched.cycles,
        frame_ids=sched.frame_ids,
        frame_last=sched.frame_last,
        reneg_plan=plan,
        **spec_args,
    )


def _make_session(
    sid: int,
    in_port: int,
    arrival: int,
    cls_name: str,
    config: RouterConfig,
    churn: ChurnConfig,
    rng: np.random.Generator,
) -> SessionSpec:
    out_port = int(rng.integers(config.num_ports))
    return make_session_spec(
        sid, in_port, out_port, arrival, cls_name, config, churn, rng
    )


def make_session_spec(
    sid: int,
    in_port: int,
    out_port: int,
    arrival: int,
    cls_name: str,
    config: RouterConfig,
    churn: ChurnConfig,
    rng: np.random.Generator,
) -> SessionSpec:
    """Build one session body for explicit endpoints.

    This is the endpoint-generalised core of the churn generator: the
    single-router timeline draws ``out_port`` itself, while the fabric
    timeline picks (router, port) endpoints across a topology and passes
    the ports in.  Everything after the endpoint choice (holding time,
    class body, injection schedule) draws from ``rng`` in a fixed order.
    """
    hold = _draw_hold(churn, rng)
    spec_args: dict[str, Any] = {
        "sid": sid,
        "in_port": in_port,
        "out_port": out_port,
        "arrival_cycle": arrival,
        "hold_cycles": hold,
    }
    if cls_name == "vbr":
        return _make_vbr(spec_args, config, churn, hold, rng)
    if cls_name == "best-effort":
        source = BestEffortSource(churn.best_effort_load)
        sched = source.schedule(hold, rng)
        return SessionSpec(
            cls_name=cls_name,
            traffic_class=TrafficClass.BEST_EFFORT,
            avg_slots=1,
            peak_slots=1,
            mean_load=source.mean_load(),
            cycles=sched.cycles,
            frame_ids=sched.frame_ids,
            frame_last=sched.frame_last,
            **spec_args,
        )
    cbr = CBRSource.from_class(config, cls_name.removeprefix("cbr-"), rng)
    slots = config.rate_to_slots(cbr.rate_bps)
    sched = cbr.schedule(hold, rng)
    return SessionSpec(
        cls_name=cls_name,
        traffic_class=TrafficClass.CBR,
        avg_slots=slots,
        peak_slots=slots,
        mean_load=cbr.mean_load(),
        cycles=sched.cycles,
        frame_ids=sched.frame_ids,
        frame_last=sched.frame_last,
        **spec_args,
    )


def mean_arrival_gap(arrivals_per_kcycle: float) -> float | None:
    """Mean Poisson inter-arrival gap in cycles, or ``None`` for no churn.

    A zero rate draws nothing (the zero-churn bit-identity guarantee),
    and so does a rate too small for its gap to be a finite float (a
    subnormal rate such as ``2.2e-311``, or one that underflows to zero
    per cycle).  Every other rate yields exactly ``1.0 / rate``, so its
    draws are unchanged.
    """
    rate = arrivals_per_kcycle / 1000.0
    if rate <= 0.0:
        return None
    gap = 1.0 / rate
    return gap if gap < math.inf else None


def generate_timeline(
    config: RouterConfig,
    churn: ChurnConfig,
    horizon_cycles: int,
    rng: np.random.Generator,
) -> list[SessionSpec]:
    """Generate the complete churn timeline for one run, sorted by arrival.

    Ports are processed in order, each with its own Poisson arrival
    process off the shared stream; a zero arrival rate draws nothing at
    all (the zero-churn bit-identity guarantee; see
    :func:`mean_arrival_gap`).  Session ids are assigned in arrival order
    after the merge, so logs read chronologically.
    """
    if horizon_cycles <= 0:
        raise ValueError("horizon_cycles must be positive")
    gap = mean_arrival_gap(churn.arrivals_per_kcycle)
    if gap is None:
        return []
    drafts: list[SessionSpec] = []
    for port in range(config.num_ports):
        t = 0.0
        while True:
            t += rng.exponential(gap)
            # Compare the float first: int() of an overflowed draw raises.
            if t >= horizon_cycles:
                break
            arrival = int(t)
            cls_name = _draw_class(churn, rng)
            drafts.append(
                _make_session(
                    len(drafts), port, arrival, cls_name, config, churn, rng
                )
            )
    drafts.sort(key=lambda s: (s.arrival_cycle, s.in_port, s.sid))
    for sid, spec in enumerate(drafts):
        spec.sid = sid
    return drafts
