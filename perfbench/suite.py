"""Run every workload once and print every end-to-end metric.

Usage (from the repository root)::

    python3 perfbench/suite.py --seed 0 --seconds 20

Each workload runs in its own ``run.py`` process (``--trace 0``).  The
table adds, beside the metrics ``BENCHMARK.json`` gates, the figures a
workload defines but the gate cannot hold on every workload: the p99
flit delay (single-router workloads), the session blocking probability
(churn workloads) and the fail rate (failed over attempted operations,
0 on a healthy build).  Exits non-zero if any run failed its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402

#: Report-only QoS figures: (row name, report key, unit).
_EXTRA = (
    ("sim.delay_p99_us", "delay_p99_us", "us"),
    ("sim.blocking", "blocking", "share"),
)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args(argv)
    ok = True
    print(f"{'workload':22s} {'metric':20s} {'value':>14s} unit")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name:22s} run failed:\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and proc.returncode == 0 and result["correct"]
        report_name = f"report-{name}-seed{args.seed}-trace0.json"
        report = json.loads((ROOT / ".perfbench" / report_name).read_text())
        rows = [
            (m, v["value"], v["unit"]) for m, v in result["metrics"].items()
        ]
        rows.append(
            ("fail_rate", result["failed"] / result["attempted"], "share")
        )
        for row, key, unit in _EXTRA:
            value = report.get("qos", {}).get(key)
            rows.append((row, "n/a" if value is None else value, unit))
        for metric, value, unit in rows:
            shown = value if isinstance(value, str) else f"{value:14.6g}"
            print(f"{name:22s} {metric:20s} {shown:>14s} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
