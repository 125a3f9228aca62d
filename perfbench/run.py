"""Benchmark runner: one workload, one seed, timed, checked and reported.

Usage (from the repository root)::

    python3 perfbench/run.py --workload router-saturated --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` wraps every layer's public calls (see ``tracing.py``) and
reports the per-layer metrics instead.  Either way every rep's output
digest is checked: sub-seed reps must repeat exactly, match the
committed ``reference.json`` for seeds it covers, and a sharded run must
reproduce the serial fabric.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; a full
report with a manifest goes to ``.perfbench/`` in the repository root.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

from time import perf_counter

#: Set-up clock origin: before anything from the program is imported.
T0 = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

#: Fresh-interpreter set-up samples per run (this process plus children).
SETUP_SAMPLES = 7
#: Hard stop for one run, seconds (a run must end within 180).
WATCHDOG_S = 170

END_TO_END = {
    "cycles_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim.throughput": "flits/cycle",
    "sim.delay_us": "us",
}


def _bootstrap() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="build the first sub-seed's simulator, print the set-up "
        "seconds and exit (one set-up sample)",
    )
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _cpu_s(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


class Run:
    """Reps, checks and bookkeeping of one benchmark invocation."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.subseeds = workload.subseeds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = self._load_reference()

    # -- checks ---------------------------------------------------------

    def _load_reference(self) -> list[str] | None:
        """Committed per-sub-seed digests for this seed, if any."""
        from workloads import canonical_digest, reference_params

        if not REFERENCE.is_file():
            return None
        data = json.loads(REFERENCE.read_text(encoding="utf-8"))
        group = data["groups"].get(self.workload.group)
        if group is None:
            return None
        if group["params_digest"] != canonical_digest(
            reference_params(self.workload)
        ):
            self.attempted += 1
            self.failed += 1
            self.fail(
                f"reference.json was made for other {self.workload.group} "
                "parameters; regenerate it with make_reference.py"
            )
            return None
        return group["digests"].get(str(self.seed))

    def fail(self, problem: str) -> None:
        self.problems.append(problem)
        print(f"perfbench: FAIL {problem}", file=sys.stderr)

    # -- reps -----------------------------------------------------------

    def rep(self, k: int, case=None, tracer=None) -> dict | None:
        """Build (unless given) and run sub-seed ``k`` once; check it."""
        from workloads import sub_seed

        w = self.workload
        self.attempted += 1
        try:
            if case is None:
                case = w.prepare(sub_seed(self.seed, k))
            if tracer is not None:
                tracer.install(case)
            cpu_self, cpu_child = _cpu_s(resource.RUSAGE_SELF), _cpu_s(
                resource.RUSAGE_CHILDREN
            )
            t = perf_counter()
            try:
                result = case.run()
            finally:
                wall = perf_counter() - t
                if tracer is not None:
                    tracer.restore()
            cpu_self = _cpu_s(resource.RUSAGE_SELF) - cpu_self
            cpu_child = _cpu_s(resource.RUSAGE_CHILDREN) - cpu_child
            outcome = case.finish(result)
        except TimeoutError:
            raise
        except Exception:
            self.failed += 1
            self.fail(f"sub-seed {k} raised:\n{traceback.format_exc()}")
            return None
        bad = list(outcome.problems)
        if self.reference is not None and outcome.digest != self.reference[k]:
            bad.append(f"digest {outcome.digest[:12]} != reference")
        if bad:
            self.failed += 1
            for problem in bad:
                self.fail(f"sub-seed {k}: {problem}")
        sim = case.sim
        extra: dict[str, float] = {}
        if hasattr(sim, "skipped_cycles"):
            extra["sim.skipped_cycles"] = float(sim.skipped_cycles)
        if w.workers:
            extra.update({
                "shard.windows": float(sim.windows),
                "shard.crossing_flits": float(sim.crossing_flits),
                "shard.crossing_credits": float(sim.crossing_credits),
                "shard.worker_cpu_s": cpu_child,
                "shard.coordinator_cpu_s": cpu_self,
                "shard.idle_share": 1.0 - cpu_child / (w.workers * wall),
            })
        return {
            "k": k,
            "wall_s": wall,
            "digest": outcome.digest,
            "qos": outcome.qos,
            "extra": extra,
        }

    def measure(self, budget_s: float, first_case=None, traced=False):
        """Rep over the sub-seeds until ``budget_s`` is spent.

        Every sub-seed runs at least once; further rounds repeat them in
        order while another rep still fits in the budget.
        """
        from tracing import Tracer, layer_metrics

        reps: list[dict] = []
        start = perf_counter()
        rep_costs: list[float] = []
        i = 0
        while True:
            k = i % self.subseeds
            t = perf_counter()
            tracer = Tracer() if traced else None
            rec = self.rep(k, first_case if i == 0 else None, tracer)
            rep_costs.append(perf_counter() - t)
            if rec is not None:
                if tracer is not None:
                    rec["layers"] = layer_metrics(
                        tracer, self.workload.cycles, dict(rec["extra"])
                    )
                    if not any("spans" in r for r in reps):
                        rec["spans"] = tracer
                reps.append(rec)
            i += 1
            elapsed = perf_counter() - start
            if i >= self.subseeds and elapsed + _median(rep_costs) > budget_s:
                return reps

    def by_subseed(self, reps: list[dict]) -> dict[int, list[dict]]:
        groups: dict[int, list[dict]] = {k: [] for k in range(self.subseeds)}
        for rec in reps:
            groups[rec["k"]].append(rec)
        return groups

    def digests(self, reps: list[dict]) -> list[str | None]:
        """Each sub-seed's digest; a sub-seed whose reps disagree fails."""
        out: list[str | None] = []
        for k, recs in self.by_subseed(reps).items():
            seen = {r["digest"] for r in recs}
            if len(seen) > 1:
                self.failed += 1
                self.fail(f"sub-seed {k}: digest did not repeat across reps")
            out.append(recs[0]["digest"] if recs else None)
        return out

    def cycles_per_s(self, reps: list[dict]) -> float:
        """Sub-seed cycles over the sum of each sub-seed's median wall."""
        walls = [
            _median([r["wall_s"] for r in recs])
            for recs in self.by_subseed(reps).values()
            if recs
        ]
        if not walls:
            return float("nan")
        return self.workload.cycles * len(walls) / sum(walls)

    def mean_over_subseeds(self, reps: list[dict], pick) -> dict[str, float]:
        """Per key: median over a sub-seed's reps, mean over sub-seeds."""
        per_k: list[dict[str, float]] = []
        for recs in self.by_subseed(reps).values():
            rows = [pick(r) for r in recs]
            if not rows:
                continue
            keys = [key for key, v in rows[0].items() if v is not None]
            per_k.append({
                key: _median([row[key] for row in rows]) for key in keys
            })
        keys = {key for row in per_k for key in row}
        return {
            key: statistics.fmean([row[key] for row in per_k if key in row])
            for key in sorted(keys)
        }

    def cross_check_serial(self, digest: str | None) -> None:
        """A sharded sub-seed 0 must reproduce the serial fabric digest."""
        from workloads import sub_seed

        self.attempted += 1
        try:
            case = self.workload.prepare(sub_seed(self.seed, 0), workers=0)
            serial = case.finish(case.run()).digest
        except TimeoutError:
            raise
        except Exception:
            self.failed += 1
            self.fail(f"serial cross-check raised:\n{traceback.format_exc()}")
            return
        if serial != digest:
            self.failed += 1
            self.fail("sharded digest differs from the serial fabric digest")

    def setup_samples(self, first: float, args) -> list[float]:
        """This process's set-up plus fresh-interpreter child samples."""
        samples = [first]
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-only",
        ]
        for _ in range(SETUP_SAMPLES - 1):
            self.attempted += 1
            try:
                proc = subprocess.run(
                    cmd, cwd=ROOT, capture_output=True, text=True, timeout=60,
                    check=True,
                )
                samples.append(float(proc.stdout.strip().splitlines()[-1]))
            except (subprocess.SubprocessError, ValueError, IndexError) as exc:
                self.failed += 1
                self.fail(f"set-up sample failed: {exc!r}")
        return samples


def _manifest(args, workload) -> dict:
    import numpy

    def git(*cmd: str) -> str | None:
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), *cmd], capture_output=True,
                text=True, timeout=10, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip()

    bench = ROOT / "BENCHMARK.json"
    status = git("status", "--porcelain")
    return {
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
        "benchmark_json_sha256": (
            hashlib.sha256(bench.read_bytes()).hexdigest()
            if bench.is_file() else None
        ),
    }


def _metric(value: float | None, unit: str) -> dict:
    """One reported metric; a value no rep produced reads ``null``."""
    if value is not None and not math.isfinite(value):
        value = None
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _bootstrap()
    from workloads import WORKLOADS, sub_seed
    from tracing import PER_LAYER

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(
            f"perfbench: unknown workload {args.workload!r}; known: "
            + ", ".join(WORKLOADS)
        )
    first_case = workload.prepare(sub_seed(args.seed, 0))
    setup_first = perf_counter() - T0
    if args.setup_only:
        print(repr(setup_first))
        return 0

    def on_alarm(signum, frame):
        raise TimeoutError(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(WATCHDOG_S)
    run = Run(workload, args.seed)
    report: dict = {"manifest": _manifest(args, workload)}
    try:
        if args.trace:
            t = perf_counter()
            plain = run.measure(0.0, first_case)
            traced = run.measure(
                args.seconds - (perf_counter() - t), traced=True
            )
            base = run.digests(plain)
            if run.digests(traced) != base:
                run.failed += 1
                run.fail("traced digests differ from untraced digests")
            plain_cps = run.cycles_per_s(plain)
            traced_cps = run.cycles_per_s(traced)
            layers = run.mean_over_subseeds(traced, lambda r: r["layers"])
            layers["trace.overhead"] = plain_cps / traced_cps - 1.0
            metrics = {
                name: _metric(layers[name], unit)
                for name, unit in PER_LAYER.items()
            }
            report["untraced_cycles_per_s"] = plain_cps
            report["traced_cycles_per_s"] = traced_cps
            reps = plain + traced
            holder = next((r["spans"] for r in traced if "spans" in r), None)
            if holder is not None:
                OUT.mkdir(exist_ok=True)
                spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
                holder.write_spans(spans)
                report["spans_file"] = str(spans.relative_to(ROOT))
        else:
            reps = run.measure(args.seconds, first_case)
            digests = run.digests(reps)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if workload.workers:
                children = resource.getrusage(resource.RUSAGE_CHILDREN)
                rss_kb += children.ru_maxrss
                if run.reference is None:
                    run.cross_check_serial(digests[0])
            qos = run.mean_over_subseeds(reps, lambda r: r["qos"])
            setup = run.setup_samples(setup_first, args)
            values = {
                "cycles_per_s": run.cycles_per_s(reps),
                "setup_s": _median(setup),
                "peak_rss_mb": rss_kb / 1024.0,
                "sim.throughput": qos.get("throughput"),
                "sim.delay_us": qos.get("delay_us"),
            }
            metrics = {
                name: _metric(values[name], unit)
                for name, unit in END_TO_END.items()
            }
            report["setup_samples_s"] = setup
            report["qos"] = qos
            report["digests"] = digests
    except TimeoutError as exc:
        run.attempted += 1
        run.failed += 1
        run.fail(str(exc))
        reps, metrics = [], {}
    finally:
        signal.alarm(0)

    report["reps"] = [
        {"k": r["k"], "wall_s": r["wall_s"], "digest": r["digest"]}
        for r in reps
    ]
    report["fail_rate"] = run.failed / max(1, run.attempted)
    report["reference_checked"] = run.reference is not None
    report["problems"] = run.problems
    report["metrics"] = metrics
    correct = (
        run.failed == 0
        and not run.problems
        and bool(metrics)
        and all(m["value"] is not None for m in metrics.values())
    )
    OUT.mkdir(exist_ok=True)
    report_name = (
        f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    path = OUT / report_name
    path.write_text(json.dumps(report, indent=2, default=str) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload:22s} {name:32s} {m['value']!s:>18} {m['unit']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
