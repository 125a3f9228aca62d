"""Layer spans for the traced run, recorded from outside the program.

:class:`Tracer` replaces public methods on live instances with wrappers
that record one span per call — name, start, end and the enclosing span
— plus a few counts taken from arguments and return values.  Nothing in
``src/`` changes: the wrappers sit on the instances one rep builds (and,
for the fabric engine that ``FabricSim.run`` constructs internally, on
the module attribute it is constructed through), and :meth:`Tracer.
restore` puts every original back.

Self time of a span is its duration minus the durations of its direct
child spans; :func:`layer_metrics` folds spans and counts into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

import repro.fabric.engine as fabric_engine_module

__all__ = ["Tracer", "PER_LAYER", "layer_metrics"]

#: Span names and the (object key, method) pairs that produce them.
_ROUTER_SPANS = (
    ("router.step", None, "step"),
    ("router.step_quiet", None, "step_quiet"),
    ("admission.establish", None, "establish"),
    ("admission.teardown", None, "teardown"),
    ("credits.deliver", "credits", "deliver"),
    ("link_scheduler", "link_scheduler", "select_into_sparse"),
    ("link_scheduler", "link_scheduler", "select_into"),
    ("link_scheduler", "link_scheduler", "select_batch"),
    ("arbiter", "arbiter", "match_buffer"),
    ("arbiter", "arbiter", "match"),
    ("crossbar", "crossbar", "transfer"),
)

#: Per-layer metrics, in report order: name -> unit.
PER_LAYER: dict[str, str] = {
    "link_scheduler.self_s": "s",
    "link_scheduler.calls": "count",
    "link_scheduler.candidates": "count",
    "arbiter.self_s": "s",
    "arbiter.grants": "count",
    "arbiter.grant_ratio": "ratio",
    "crossbar.self_s": "s",
    "crossbar.departures": "count",
    "credits.deliver.self_s": "s",
    "router.step.self_s": "s",
    "router.step_quiet.self_s": "s",
    "sim.loop.self_s": "s",
    "sim.full_steps": "count",
    "sim.quiet_steps": "count",
    "sim.skipped_cycles": "count",
    "sim.skip_share": "ratio",
    "traffic.build_feeds.s": "s",
    "sessions.on_cycle.self_s": "s",
    "sessions.inject.self_s": "s",
    "sessions.on_departures.self_s": "s",
    "admission.establish.calls": "count",
    "admission.establish.self_s": "s",
    "admission.accept_ratio": "ratio",
    "admission.teardown.self_s": "s",
    "network.step.self_s": "s",
    "network.fast_forward.calls": "count",
    "fabric.on_cycle.self_s": "s",
    "fabric.inject.self_s": "s",
    "fabric.establish_along.calls": "count",
    "fabric.establish_along.self_s": "s",
    "fabric.accept_ratio": "ratio",
    "fabric.paths.calls": "count",
    "shard.windows": "count",
    "shard.crossing_flits": "count",
    "shard.crossing_credits": "count",
    "shard.worker_cpu_s": "s",
    "shard.coordinator_cpu_s": "s",
    "shard.idle_share": "ratio",
    "trace.overhead": "ratio",
}


def _candidate_count(buf) -> int:
    """Candidates in a link-scheduler result, without touching its state.

    Reading ``CandidateBuffer.count`` would sync the lazy arrays early,
    so the sparse rows are counted when they are the live view.
    """
    if isinstance(buf, list):
        return sum(len(c) for c in buf)
    if buf.sparse_valid:
        return sum(len(c) for c in buf.sparse)
    return int(buf.count.sum())


def _offering_ports(buf) -> int:
    """Inputs with at least one candidate in an arbiter's input."""
    if isinstance(buf, list):
        return sum(1 for c in buf if c)
    if buf.sparse_valid:
        return sum(1 for c in buf.sparse if c)
    return int((buf.count > 0).sum())


class Tracer:
    """Records spans and counts for every wrapped call until restored."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: (name id, start ns, end ns, parent span index or -1).
        self.spans: list[tuple[int, int, int, int] | None] = []
        #: Open spans as (span index, name id); the root is (-1, -1).
        self._stack: list[tuple[int, int]] = [(-1, -1)]
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[Any, str, bool, Any]] = []

    # -- wrapping -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _patch(self, obj: Any, attr: str, value: Any) -> None:
        had = attr in vars(obj)
        self._patches.append((obj, attr, had, vars(obj).get(attr)))
        setattr(obj, attr, value)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        before: Callable[[tuple], None] | None = None,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Record a ``name`` span around every call of ``obj.attr``."""
        orig = getattr(obj, attr, None)
        if orig is None:
            return
        nid = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = perf_counter_ns

        def wrapper(*args, **kwargs):
            parent, parent_nid = stack[-1]
            if parent_nid == nid:
                # A layer calling its own other entry point (say
                # ``select_into`` -> ``select_into_sparse``): one span.
                return orig(*args, **kwargs)
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            stack.append((idx, nid))
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if after is not None:
                after(args, out)
            return out

        self._patch(obj, attr, wrapper)

    def wrap_router(self, router) -> None:
        """Wrap one MMRouter and the subsystems its pipeline calls."""
        count = self.count
        for name, part, method in _ROUTER_SPANS:
            obj = router if part is None else getattr(router, part)
            before = after = None
            if name == "link_scheduler":
                def after(args, out):
                    count("link_scheduler.calls")
                    count("link_scheduler.candidates", _candidate_count(out))
            elif name == "arbiter":
                def before(args):
                    count("arbiter.offering", _offering_ports(args[0]))

                def after(args, out):
                    count("arbiter.grants", len(out))
            elif name == "crossbar":
                def after(args, out):
                    count("crossbar.departures", len(out))
            elif name == "admission.establish":
                def after(args, out):
                    count("admission.establish.calls")
                    count("admission.establish.accepted", int(out.accepted))
            elif name == "router.step":
                def after(args, out):
                    count("sim.full_steps")
            elif name == "router.step_quiet":
                def after(args, out):
                    count("sim.quiet_steps")
            self.wrap(obj, method, name, before, after)

    def wrap_sessions(self, engine) -> None:
        for hook in ("on_cycle", "inject", "on_departures"):
            self.wrap(engine, hook, f"sessions.{hook}")

    def wrap_fabric_engine(self, engine) -> None:
        """Wrap a FabricEngine; its path provider once ``begin`` made it."""
        count = self.count
        self.wrap(engine, "on_cycle", "fabric.on_cycle")
        self.wrap(engine, "inject", "fabric.inject")

        def after_begin(args, out):
            self.wrap(
                engine._provider,
                "paths",
                "fabric.paths",
                after=lambda a, o: count("fabric.paths.calls"),
            )

        self.wrap(engine, "begin", "fabric.begin", after=after_begin)

    def wrap_network(self, net, core) -> None:
        count = self.count

        def after_establish(args, out):
            count("fabric.establish_along.calls")
            count("fabric.establish_along.accepted", int(out[0] is not None))

        self.wrap(net, "establish_along", "fabric.establish_along",
                  after=after_establish)
        self.wrap(net, "fast_forward", "network.fast_forward",
                  after=lambda a, o: count("network.fast_forward.calls"))
        self.wrap(core, "step", "network.step",
                  after=lambda a, o: count("sim.full_steps"))
        for router in net.routers:
            self.wrap_router(router)

    def install(self, case) -> None:
        """Wrap every layer the case's simulator reaches."""
        objects = case.objects
        self.wrap(case.sim, "run", "sim.loop")
        if "router" in objects:
            self.wrap_router(objects["router"])
            self.wrap(
                objects["workload"], "build_feeds", "traffic.build_feeds"
            )
            if objects["sessions"] is not None:
                self.wrap_sessions(objects["sessions"])
        if "network" in objects:
            self.wrap_network(objects["network"], objects["core"])
            real = fabric_engine_module.FabricEngine

            def traced_engine(*args, **kwargs):
                engine = real(*args, **kwargs)
                self.wrap_fabric_engine(engine)
                return engine

            self._patch(fabric_engine_module, "FabricEngine", traced_engine)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            obj, attr, had, old = self._patches.pop()
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)

    # -- results --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: duration minus direct children."""
        spans = self.spans
        child = [0] * len(spans)
        for nid, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        names = self.names
        for i, (nid, t0, t1, _parent) in enumerate(spans):
            name = names[nid]
            out[name] = out.get(name, 0.0) + (t1 - t0 - child[i]) / 1e9
        return out

    def write_spans(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines ``[index, name, start,
        end, parent]``, times in ns from the first span's start."""
        base = self.spans[0][1] if self.spans else 0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (nid, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    [i, names[nid], t0 - base, t1 - base, parent]
                ) + "\n")


def layer_metrics(
    tracer: Tracer, cycles: int, extra: dict[str, float]
) -> dict[str, float]:
    """Fold one traced rep into the :data:`PER_LAYER` metrics.

    ``extra`` supplies what spans cannot see (shard counters and CPU
    times, the sharded run's skipped cycles); layers a workload never
    reaches read 0.
    """
    selfs = tracer.self_times()
    counts = tracer.counts
    out = dict.fromkeys(PER_LAYER, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for metric, unit in PER_LAYER.items():
        if metric.endswith(".self_s"):
            out[metric] = selfs.get(metric[: -len(".self_s")], 0.0)
        elif unit == "count":
            out[metric] = float(counts.get(metric, 0))
    out["traffic.build_feeds.s"] = selfs.get("traffic.build_feeds", 0.0)
    out["arbiter.grant_ratio"] = ratio(
        counts.get("arbiter.grants", 0), counts.get("arbiter.offering", 0)
    )
    out["admission.accept_ratio"] = ratio(
        counts.get("admission.establish.accepted", 0),
        counts.get("admission.establish.calls", 0),
    )
    out["fabric.accept_ratio"] = ratio(
        counts.get("fabric.establish_along.accepted", 0),
        counts.get("fabric.establish_along.calls", 0),
    )
    if "sim.skipped_cycles" in extra:
        skipped = extra.pop("sim.skipped_cycles")
    else:
        skipped = cycles - out["sim.full_steps"] - out["sim.quiet_steps"]
    out["sim.skipped_cycles"] = float(skipped)
    out["sim.skip_share"] = ratio(skipped, cycles)
    out.update(extra)
    return out
