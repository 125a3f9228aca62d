"""The benchmark's own tests: short workloads, digests, tracer hygiene.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import repro.fabric.engine as fabric_engine_module  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    SEED_STRIDE,
    WORKLOADS,
    canonical_digest,
    reference_params,
    sub_seed,
)

#: Short versions of every workload (same parameters, fewer cycles).
SHORT = {
    "router-saturated": dict(cycles=1_500, warmup_cycles=500),
    "router-churn": dict(cycles=6_000),
    "fabric-torus": dict(cycles=300),
    "fabric-torus-shard2": dict(cycles=300),
}
SERIAL = ("router-saturated", "router-churn", "fabric-torus")


def short(name: str):
    return dataclasses.replace(WORKLOADS[name], **SHORT[name])


def run_once(workload, seed: int, tracer: Tracer | None = None):
    case = workload.prepare(seed)
    if tracer is not None:
        tracer.install(case)
    try:
        result = case.run()
    finally:
        if tracer is not None:
            tracer.restore()
    return case.finish(result)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_short_run_is_consistent_and_repeats(name):
    w = short(name)
    first = run_once(w, sub_seed(3, 1))
    again = run_once(w, sub_seed(3, 1))
    assert first.problems == []
    assert first.digest == again.digest
    assert first.qos["throughput"] > 0


def test_sharded_digest_equals_serial_digest():
    serial = run_once(short("fabric-torus"), sub_seed(2, 0))
    sharded = run_once(short("fabric-torus-shard2"), sub_seed(2, 0))
    assert sharded.digest == serial.digest


@pytest.mark.parametrize("name", SERIAL)
def test_different_seed_changes_inputs(name):
    w = short(name)
    assert run_once(w, sub_seed(0, 0)).digest != run_once(
        w, sub_seed(1, 0)
    ).digest
    if "router" in name:
        loads = [
            [(x.conn.in_port, x.conn.out_port, x.conn.avg_slots)
             for x in w.prepare(sub_seed(s, 0)).objects["workload"].loads]
            for s in (0, 1)
        ]
        assert loads[0] != loads[1]


def test_sub_seeds_of_distinct_seeds_never_overlap():
    for w in WORKLOADS.values():
        assert w.subseeds <= SEED_STRIDE
    seen = {sub_seed(s, k) for s in range(4) for k in range(SEED_STRIDE)}
    assert len(seen) == 4 * SEED_STRIDE


@pytest.mark.parametrize("name", SERIAL)
def test_traced_run_matches_untraced_and_unwraps(name):
    w = short(name)
    plain = run_once(w, sub_seed(5, 2))
    tracer = Tracer()
    case = w.prepare(sub_seed(5, 2))
    real_engine = fabric_engine_module.FabricEngine
    tracer.install(case)
    try:
        result = case.run()
    finally:
        patched = list(tracer._patches)
        tracer.restore()
    assert case.finish(result).digest == plain.digest
    # Every wrapped attribute is gone again: no instance stays patched,
    # and the module-level engine factory is the original class.
    assert patched
    for obj, attr, had, old in patched:
        if had:
            assert vars(obj)[attr] is old
        else:
            assert attr not in vars(obj)
    assert fabric_engine_module.FabricEngine is real_engine
    layers = layer_metrics(tracer, w.cycles, {})
    assert set(layers) == set(PER_LAYER)
    assert layers["arbiter.grants"] > 0
    assert layers["crossbar.departures"] == layers["arbiter.grants"]
    assert layers["sim.loop.self_s"] > 0
    if name == "router-saturated":
        assert layers["sim.skipped_cycles"] == 0
        assert layers["sessions.inject.self_s"] == 0
        assert layers["admission.establish.calls"] == 0
        assert layers["network.step.self_s"] == 0
    elif name == "router-churn":
        assert layers["sim.quiet_steps"] > 0
        assert layers["sessions.inject.self_s"] > 0
        assert layers["admission.establish.calls"] > 0
    else:
        assert layers["network.step.self_s"] > 0
        assert layers["fabric.establish_along.calls"] > 0
        assert layers["fabric.paths.calls"] > 0
        assert layers["router.step.self_s"] == 0


def test_self_time_excludes_children():
    tracer = Tracer()

    class Leaf:
        def work(self):
            return sum(range(20_000))

    class Node:
        def __init__(self):
            self.leaf = Leaf()

        def work(self):
            return self.leaf.work() + self.leaf.work()

    node = Node()
    tracer.wrap(node.leaf, "work", "leaf")
    tracer.wrap(node, "work", "node")
    node.work()
    tracer.restore()
    nid = {n: i for i, n in enumerate(tracer.names)}
    spans = tracer.spans
    node_span = next(s for s in spans if s[0] == nid["node"])
    leaves = [s for s in spans if s[0] == nid["leaf"]]
    assert len(leaves) == 2 and all(s[3] == 0 for s in leaves)
    selfs = tracer.self_times()
    total = (node_span[2] - node_span[1]) / 1e9
    assert selfs["node"] == pytest.approx(
        total - sum((s[2] - s[1]) / 1e9 for s in leaves)
    )
    assert "work" not in vars(node) and "work" not in vars(node.leaf)


def test_same_layer_reentry_is_one_span():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    layer = Layer()
    tracer.wrap(layer, "outer", "layer", after=lambda a, o: tracer.count("n"))
    tracer.wrap(layer, "inner", "layer", after=lambda a, o: tracer.count("n"))
    assert layer.outer() == 2
    tracer.restore()
    assert len(tracer.spans) == 1 and tracer.counts == {"n": 1}


def test_reference_matches_current_parameters():
    data = json.loads((BENCH / "reference.json").read_text())
    for w in WORKLOADS.values():
        group = data["groups"][w.group]
        assert group["params_digest"] == canonical_digest(reference_params(w))
        for digests in group["digests"].values():
            assert len(digests) == w.subseeds


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_cli(tmp_path, "--workload", "router-saturated", "--seed",
                    "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_contract_line(trace):
    proc = _run_cli(ROOT, "--workload", "router-saturated", "--seed", "0",
                    "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    import run

    names = PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == names
